//! Property tests of the VM substrate against a reference model: after
//! any sequence of map/unmap/protect operations, every access must behave
//! exactly as the model predicts — regardless of what the (finite,
//! LRU-evicting, lazily refreshed) TLB has cached. Driven by the in-repo
//! harness (`fbuf_sim::Checker`) at the old proptest case counts (128);
//! failures print a replayable seed.

use std::collections::HashMap;

use fbuf_sim::{Checker, MachineConfig, Rng};
use fbuf_vm::{FrameId, Machine, Prot};

const CASES: u64 = 128;

#[derive(Debug, Clone)]
enum Op {
    Map { dom: usize, page: u64, prot: Prot },
    Unmap { dom: usize, page: u64 },
    Protect { dom: usize, page: u64, prot: Prot },
    Read { dom: usize, page: u64 },
    Write { dom: usize, page: u64 },
}

fn arb_prot(rng: &mut Rng) -> Prot {
    match rng.below(3) {
        0 => Prot::Read,
        1 => Prot::ReadWrite,
        _ => Prot::None,
    }
}

fn arb_op(rng: &mut Rng) -> Op {
    let dom = rng.index(3);
    let page = rng.below(6);
    match rng.below(5) {
        0 => Op::Map {
            dom,
            page,
            prot: arb_prot(rng),
        },
        1 => Op::Unmap { dom, page },
        2 => Op::Protect {
            dom,
            page,
            prot: arb_prot(rng),
        },
        3 => Op::Read { dom, page },
        _ => Op::Write { dom, page },
    }
}

const BASE: u64 = 0x2000_0000;

#[test]
fn machine_matches_reference_model() {
    Checker::new("machine_matches_reference_model")
        .cases(CASES)
        .run(|rng| {
            let ops = rng.vec_with(1, 60, arb_op);
            // A deliberately tiny TLB maximizes eviction/staleness traffic.
            let mut cfg = MachineConfig::tiny();
            cfg.tlb_entries = 2;
            let mut m = Machine::new(cfg);
            let doms = [m.create_domain(), m.create_domain(), m.create_domain()];
            for &d in &doms {
                m.map_explicit_region(d, BASE, 8, Prot::ReadWrite).unwrap();
            }
            // One shared frame per page index; the machine-independent model.
            let frames: Vec<FrameId> = (0..6).map(|_| m.alloc_frame().unwrap()).collect();
            for &f in &frames {
                m.zero_frame(f);
            }
            let mut model: HashMap<(usize, u64), Prot> = HashMap::new();

            for op in ops {
                match op {
                    Op::Map { dom, page, prot } => {
                        m.map_page(doms[dom], BASE + page * 4096, frames[page as usize], prot)
                            .unwrap();
                        model.insert((dom, page), prot);
                    }
                    Op::Unmap { dom, page } => {
                        let got = m.unmap_page(doms[dom], BASE + page * 4096).unwrap();
                        let expected = model.remove(&(dom, page));
                        assert_eq!(got.is_some(), expected.is_some());
                    }
                    Op::Protect { dom, page, prot } => {
                        let res = m.protect_page(doms[dom], BASE + page * 4096, prot);
                        match model.get_mut(&(dom, page)) {
                            Some(cur) => {
                                assert_eq!(res.unwrap(), *cur);
                                *cur = prot;
                            }
                            None => assert!(res.is_err()),
                        }
                    }
                    Op::Read { dom, page } => {
                        let res = m.read(doms[dom], BASE + page * 4096, 1);
                        let allowed = model
                            .get(&(dom, page))
                            .map(|p| p.allows(fbuf_vm::Access::Read))
                            .unwrap_or(false);
                        assert_eq!(res.is_ok(), allowed, "read d{} p{}: {:?}", dom, page, model);
                    }
                    Op::Write { dom, page } => {
                        let res = m.write(doms[dom], BASE + page * 4096, &[1]);
                        let allowed = model
                            .get(&(dom, page))
                            .map(|p| p.allows(fbuf_vm::Access::Write))
                            .unwrap_or(false);
                        assert_eq!(
                            res.is_ok(),
                            allowed,
                            "write d{} p{}: {:?}",
                            dom,
                            page,
                            model
                        );
                    }
                }
            }
            // Frame accounting: tear everything down and verify all frames
            // come home.
            let live_before = m.free_frames();
            for (&(dom, page), _) in model.clone().iter() {
                m.unmap_page(doms[dom], BASE + page * 4096).unwrap();
            }
            for f in frames {
                m.release_frame(f);
            }
            assert!(m.free_frames() > live_before);
            assert_eq!(m.free_frames(), m.config().frames());
        });
}

#[test]
fn data_written_is_data_read_across_domains() {
    Checker::new("data_written_is_data_read_across_domains")
        .cases(CASES)
        .run(|rng| {
            let writes = rng.vec_with(1, 20, |r| {
                (r.below(4), r.below(4000), r.range(1, 64) as usize)
            });
            // Writes through one domain's RW mappings are visible through
            // another domain's RO mappings of the same frames, byte-exactly.
            let mut m = Machine::new(MachineConfig::tiny());
            let w = m.create_domain();
            let r = m.create_domain();
            m.map_explicit_region(w, BASE, 4, Prot::ReadWrite).unwrap();
            m.map_explicit_region(r, BASE, 4, Prot::Read).unwrap();
            for page in 0..4u64 {
                let f = m.alloc_frame().unwrap();
                m.zero_frame(f);
                m.map_page(w, BASE + page * 4096, f, Prot::ReadWrite)
                    .unwrap();
                m.map_page(r, BASE + page * 4096, f, Prot::Read).unwrap();
                m.release_frame(f);
            }
            let mut shadow = vec![0u8; 4 * 4096];
            for (page, off, len) in writes {
                let off = off.min(4095);
                let len = len.min((4096 - off) as usize);
                let pattern: Vec<u8> = (0..len).map(|i| (i as u8) ^ (page as u8)).collect();
                let va = BASE + page * 4096 + off;
                m.write(w, va, &pattern).unwrap();
                let base = (page * 4096 + off) as usize;
                shadow[base..base + len].copy_from_slice(&pattern);
                // The reader domain sees exactly the shadow.
                let got = m.read(r, BASE, 4 * 4096).unwrap();
                assert_eq!(&got, &shadow);
            }
        });
}

#[test]
fn cow_isolation_under_random_write_interleavings() {
    Checker::new("cow_isolation_under_random_write_interleavings")
        .cases(CASES)
        .run(|rng| {
            let writer_turns = rng.vec_with(1, 12, |r| r.chance(0.5));
            // Sender and receiver interleave writes after a COW share; each
            // side must only ever see its own mutations plus the original.
            let mut m = Machine::new(MachineConfig::tiny());
            let a = m.create_domain();
            let b = m.create_domain();
            m.map_anon_region(a, BASE, 1).unwrap();
            m.write(a, BASE, b"base").unwrap();
            m.cow_share_region(a, BASE, b).unwrap();
            let mut a_val = b"base".to_vec();
            let mut b_val = b"base".to_vec();
            for (i, a_writes) in writer_turns.into_iter().enumerate() {
                let tag = [i as u8; 2];
                if a_writes {
                    m.write(a, BASE, &tag).unwrap();
                    a_val[..2].copy_from_slice(&tag);
                } else {
                    m.write(b, BASE, &tag).unwrap();
                    b_val[..2].copy_from_slice(&tag);
                }
                assert_eq!(m.read(a, BASE, 4).unwrap(), a_val.clone());
                assert_eq!(m.read(b, BASE, 4).unwrap(), b_val.clone());
            }
        });
}
