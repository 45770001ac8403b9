//! `Machine`'s translation path against a reference page table and TLB.
//!
//! The machine finds a TLB entry through the slot its page-table entry
//! recorded, and the ranged unmap and downgrade invalidate through the
//! slots of the entries they remove or downgrade. The [`Model`] below
//! has neither: its page table is a map keyed by `(domain, vpn)`, and its
//! TLB is the linear-scan one with a use tick per entry. Seeded sequences
//! of mapping, unmapping, protection changes (partial and whole
//! downgrades, upgrades), translations, faults and domain terminations,
//! on pages on both sides of the fbuf window's lower edge, inside it
//! across a chunk boundary and at its top, must give the same result at
//! every step, and leave the same refill, flush, hit and miss counts and
//! the same resident TLB entries in the same recency order. A refill
//! that forgot to record its slot would turn the next hit into a miss; a
//! lookup that did not check the entry in a slot would hit on whatever
//! translation took the slot over.

use std::collections::HashMap;

use fbuf_sim::{Checker, MachineConfig, Rng};
use fbuf_vm::{Access, DomainId, Fault, FrameId, Machine, Prot, Vpn};

const DOMAINS: usize = 3;
const FRAMES: usize = 6;
/// Pages of the explicit region just below the window.
const BELOW: u64 = 8;

/// The linear-scan TLB: exact LRU by use tick.
struct RefTlb {
    capacity: usize,
    entries: Vec<(DomainId, Vpn, FrameId, Prot, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn position(&self, d: DomainId, v: Vpn) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == d && e.1 == v)
    }

    fn lookup(&mut self, d: DomainId, v: Vpn) -> Option<(FrameId, Prot)> {
        self.tick += 1;
        match self.position(d, v) {
            Some(i) => {
                self.hits += 1;
                self.entries[i].4 = self.tick;
                Some((self.entries[i].2, self.entries[i].3))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, d: DomainId, v: Vpn, f: FrameId, p: Prot) {
        self.tick += 1;
        if let Some(i) = self.position(d, v) {
            self.entries[i] = (d, v, f, p, self.tick);
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].4)
                .expect("a full TLB has entries");
            self.entries.remove(lru);
        }
        self.entries.push((d, v, f, p, self.tick));
    }

    fn invalidate(&mut self, d: DomainId, v: Vpn) -> bool {
        self.position(d, v)
            .map(|i| self.entries.remove(i))
            .is_some()
    }

    fn resident(&self) -> Vec<(DomainId, Vpn, FrameId, Prot)> {
        let mut v = self.entries.clone();
        v.sort_by_key(|e| std::cmp::Reverse(e.4));
        v.iter().map(|e| (e.0, e.1, e.2, e.3)).collect()
    }
}

/// The reference machine: a keyed page table over the linear-scan TLB,
/// with the counters the machine keeps.
struct Model {
    tlb: RefTlb,
    pmap: HashMap<(DomainId, Vpn), (FrameId, Prot)>,
    alive: [bool; DOMAINS],
    window: Vpn,
    refills: u64,
    flushes: u64,
}

/// What one step returned, errors by kind.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Done,
    Frame(FrameId),
    Removed(u64),
    BadDomain,
    Unmapped,
    Violation,
}

fn outcome<T>(r: Result<T, Fault>, ok: impl FnOnce(T) -> Outcome) -> Outcome {
    match r {
        Ok(v) => ok(v),
        Err(Fault::BadDomain(_)) => Outcome::BadDomain,
        Err(Fault::Unmapped { .. }) => Outcome::Unmapped,
        Err(Fault::AccessViolation { .. }) => Outcome::Violation,
        Err(e) => panic!("unexpected fault {e:?}"),
    }
}

impl Model {
    fn live(&self, d: DomainId) -> bool {
        self.alive[d.0 as usize - 1]
    }

    fn map(&mut self, d: DomainId, v: Vpn, f: FrameId, p: Prot) {
        if self.pmap.insert((d, v), (f, p)).is_some() && self.tlb.invalidate(d, v) {
            self.flushes += 1;
        }
    }

    fn map_range(&mut self, d: DomainId, start: Vpn, frames: &[FrameId], p: Prot) -> Outcome {
        if !self.live(d) {
            return Outcome::BadDomain;
        }
        for (i, &f) in frames.iter().enumerate() {
            self.map(d, start.offset(i as u64), f, p);
        }
        Outcome::Done
    }

    fn unmap_range(&mut self, d: DomainId, start: Vpn, pages: u64) -> Outcome {
        if !self.live(d) {
            return Outcome::BadDomain;
        }
        let mut n = 0;
        for v in (0..pages).map(|i| start.offset(i)) {
            if self.pmap.remove(&(d, v)).is_some() {
                self.tlb.invalidate(d, v);
                n += 1;
            }
        }
        self.flushes += n;
        Outcome::Removed(n)
    }

    fn protect_range(&mut self, d: DomainId, start: Vpn, pages: u64, p: Prot) -> Outcome {
        if !self.live(d) {
            return Outcome::BadDomain;
        }
        let vpns: Vec<Vpn> = (0..pages).map(|i| start.offset(i)).collect();
        if vpns.iter().any(|&v| !self.pmap.contains_key(&(d, v))) {
            return Outcome::Unmapped;
        }
        for v in vpns {
            let e = self.pmap.get_mut(&(d, v)).expect("checked above");
            if p < e.1 {
                self.tlb.invalidate(d, v);
                self.flushes += 1;
            }
            e.1 = p;
        }
        Outcome::Done
    }

    /// One translation. A read fault in the window maps a null page,
    /// whose frame the machine picks: `null_frame` is what it mapped.
    fn resolve(
        &mut self,
        d: DomainId,
        v: Vpn,
        access: Access,
        null_frame: impl FnOnce() -> FrameId,
    ) -> Outcome {
        if !self.live(d) {
            return Outcome::BadDomain;
        }
        let mut stale = false;
        match self.tlb.lookup(d, v) {
            Some((f, p)) if p.allows(access) => return Outcome::Frame(f),
            Some(_) => stale = true,
            None => self.refills += 1,
        }
        if let Some(&(f, p)) = self.pmap.get(&(d, v)) {
            if p.allows(access) {
                if stale {
                    self.refills += 1;
                }
                self.tlb.insert(d, v, f, p);
                return Outcome::Frame(f);
            }
        }
        // Below the window the region is explicit, and inside it a write
        // is refused.
        if v.0 < self.window.0 || access == Access::Write {
            return Outcome::Violation;
        }
        let f = null_frame();
        self.map(d, v, f, Prot::Read);
        self.tlb.insert(d, v, f, Prot::Read);
        Outcome::Frame(f)
    }

    fn terminate(&mut self, d: DomainId) -> Outcome {
        if !self.live(d) {
            return Outcome::BadDomain;
        }
        let mine: Vec<Vpn> = self.pmap.keys().filter(|k| k.0 == d).map(|k| k.1).collect();
        for v in mine {
            self.pmap.remove(&(d, v));
            self.tlb.invalidate(d, v);
            self.flushes += 1;
        }
        self.tlb.entries.retain(|e| e.0 != d);
        self.alive[d.0 as usize - 1] = false;
        Outcome::Done
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Map(usize, Vpn, usize, Prot),
    MapRange(usize, Vpn, u64, usize, Prot),
    UnmapRange(usize, Vpn, u64),
    ProtectRange(usize, Vpn, u64, Prot),
    Resolve(usize, Vpn, Access),
    Terminate(usize),
}

fn arb_prot(rng: &mut Rng) -> Prot {
    [Prot::None, Prot::Read, Prot::ReadWrite][rng.index(3)]
}

/// A page on either side of the window's lower edge, across its first
/// chunk boundaries, or at its top, and a run of up to four pages from
/// it that stays below the window's top.
fn arb_run(rng: &mut Rng, window: Vpn, top: u64) -> (Vpn, u64) {
    let first = if rng.chance(0.75) {
        window.0 - BELOW + rng.below(2 * BELOW)
    } else {
        window.0 + top - 6 + rng.below(6)
    };
    let room = window.0 + top - first;
    (Vpn(first), 1 + rng.below(4.min(room)))
}

fn arb_op(rng: &mut Rng, window: Vpn, top: u64) -> Op {
    let dom = rng.index(DOMAINS);
    let (vpn, pages) = arb_run(rng, window, top);
    match rng.below(100) {
        0..=11 => Op::Map(dom, vpn, rng.index(FRAMES), arb_prot(rng)),
        12..=21 => Op::MapRange(dom, vpn, pages, rng.index(FRAMES), arb_prot(rng)),
        22..=31 => Op::UnmapRange(dom, vpn, pages),
        32..=43 => Op::ProtectRange(dom, vpn, pages, arb_prot(rng)),
        44..=98 => {
            let access = if rng.chance(0.6) {
                Access::Read
            } else {
                Access::Write
            };
            Op::Resolve(dom, vpn, access)
        }
        _ => Op::Terminate(dom),
    }
}

#[test]
fn translation_matches_a_keyed_page_table_and_a_scanned_tlb() {
    Checker::new("translation_matches_a_keyed_page_table_and_a_scanned_tlb")
        .cases(128)
        .run(|rng| {
            let mut cfg = MachineConfig::tiny();
            cfg.tlb_entries = [1, 2, 3, 8][rng.index(4)];
            let page = cfg.page_size;
            let window = Vpn::containing(cfg.fbuf_region_base, page);
            let top = cfg.fbuf_region_size / page;
            let mut m = Machine::new(cfg.clone());
            m.set_null_template(vec![0xEE]);
            let doms: Vec<DomainId> = (0..DOMAINS).map(|_| m.create_domain()).collect();
            for &d in &doms {
                m.map_explicit_region(d, (window.0 - BELOW) * page, BELOW, Prot::ReadWrite)
                    .unwrap();
                m.map_fbuf_region(d).unwrap();
            }
            let frames: Vec<FrameId> = (0..FRAMES).map(|_| m.alloc_frame().unwrap()).collect();
            let mut model = Model {
                tlb: RefTlb {
                    capacity: cfg.tlb_entries,
                    entries: Vec::new(),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                },
                pmap: HashMap::new(),
                alive: [true; DOMAINS],
                window,
                refills: 0,
                flushes: 0,
            };
            for step in 0..200 {
                let op = arb_op(rng, window, top);
                let (got, want) = match op {
                    Op::Map(d, vpn, f, p) => (
                        outcome(m.map_page(doms[d], vpn.base(page), frames[f], p), |()| {
                            Outcome::Done
                        }),
                        model.map_range(doms[d], vpn, &[frames[f]], p),
                    ),
                    Op::MapRange(d, vpn, n, f, p) => {
                        let run: Vec<FrameId> =
                            (0..n as usize).map(|i| frames[(f + i) % FRAMES]).collect();
                        (
                            outcome(m.map_range(doms[d], vpn.base(page), &run, p), |()| {
                                Outcome::Done
                            }),
                            model.map_range(doms[d], vpn, &run, p),
                        )
                    }
                    Op::UnmapRange(d, vpn, n) => (
                        outcome(m.unmap_range(doms[d], vpn.base(page), n), Outcome::Removed),
                        model.unmap_range(doms[d], vpn, n),
                    ),
                    Op::ProtectRange(d, vpn, n, p) => (
                        outcome(m.protect_range(doms[d], vpn.base(page), n, p), |()| {
                            Outcome::Done
                        }),
                        model.protect_range(doms[d], vpn, n, p),
                    ),
                    Op::Resolve(d, vpn, access) => {
                        let got = outcome(m.resolve(doms[d], vpn.base(page), access), |f| {
                            Outcome::Frame(f)
                        });
                        let null = || {
                            let (f, p) = m.mapping_of(doms[d], vpn.base(page)).expect("null page");
                            assert_eq!(p, Prot::Read, "step {step}: {op:?}");
                            f
                        };
                        (got, model.resolve(doms[d], vpn, access, null))
                    }
                    Op::Terminate(d) => (
                        outcome(m.terminate_domain(doms[d]), |()| Outcome::Done),
                        model.terminate(doms[d]),
                    ),
                };
                assert_eq!(got, want, "step {step}: {op:?}");
                assert_eq!(
                    m.tlb().resident(),
                    model.tlb.resident(),
                    "step {step}: {op:?}"
                );
                assert_eq!(
                    m.tlb().hit_miss(),
                    (model.tlb.hits, model.tlb.misses),
                    "step {step}: {op:?}"
                );
                assert_eq!(
                    (m.stats().tlb_refills(), m.stats().tlb_flushes()),
                    (model.refills, model.flushes),
                    "step {step}: {op:?}"
                );
                for (&(d, v), &want) in &model.pmap {
                    assert_eq!(
                        m.mapping_of(d, v.base(page)),
                        Some(want),
                        "step {step}: {op:?}"
                    );
                }
            }
        });
}
