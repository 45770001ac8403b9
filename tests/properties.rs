//! Property-based tests over the core data structures and invariants,
//! driven by the in-repo harness (`fbuf_sim::Checker`): each property
//! generates its inputs from a seeded `Rng` and runs for at least the case
//! count the old proptest suite used (64); failures print a replayable
//! seed.

use fbufs::fbuf::{AllocMode, FbufId, FbufSystem, SendMode};
use fbufs::net::ip;
use fbufs::sim::{Checker, Histogram, MachineConfig, Rng};
use fbufs::xkernel::{Extent, Msg};

const CASES: u64 = 64;

/// Arbitrary extent lists (bounded fbuf ids/offsets/lengths).
fn arb_extents(rng: &mut Rng) -> Vec<Extent> {
    rng.vec_with(0, 12, |r| Extent {
        fbuf: FbufId(r.below(8)),
        off: r.below(10_000),
        len: r.range(1, 5_000),
    })
}

/// The logical byte positions a message covers: (fbuf, byte) pairs in
/// order. Editing operations must preserve these exactly.
fn logical_bytes(msg: &Msg) -> Vec<(u64, u64)> {
    let mut v = Vec::new();
    for e in msg.extents() {
        for i in 0..e.len {
            v.push((e.fbuf.0, e.off + i));
        }
    }
    v
}

#[test]
fn split_preserves_every_byte() {
    Checker::new("split_preserves_every_byte")
        .cases(CASES)
        .run(|rng| {
            let extents = arb_extents(rng);
            let at = rng.below(70_000);
            let msg = Msg::from_extents(extents);
            let (head, tail) = msg.split(at);
            let mut combined = logical_bytes(&head);
            combined.extend(logical_bytes(&tail));
            assert_eq!(combined, logical_bytes(&msg));
            assert_eq!(head.len(), at.min(msg.len()));
        });
}

#[test]
fn pop_then_prepend_is_identity() {
    Checker::new("pop_then_prepend_is_identity")
        .cases(CASES)
        .run(|rng| {
            let extents = arb_extents(rng);
            let n = rng.below(5_000);
            let msg = Msg::from_extents(extents);
            let mut rest = msg.clone();
            if let Some(head) = rest.pop(n) {
                let rejoined = head.concat(&rest);
                assert_eq!(logical_bytes(&rejoined), logical_bytes(&msg));
            } else {
                assert!(msg.len() < n);
            }
        });
}

#[test]
fn truncate_is_a_prefix() {
    Checker::new("truncate_is_a_prefix")
        .cases(CASES)
        .run(|rng| {
            let extents = arb_extents(rng);
            let n = rng.below(70_000);
            let msg = Msg::from_extents(extents);
            let mut t = msg.clone();
            t.truncate(n);
            let full = logical_bytes(&msg);
            assert_eq!(logical_bytes(&t), full[..t.len() as usize].to_vec());
        });
}

/// The reference `Msg` for the edit-sequence property: a plain extent
/// list, edited the simplest way.
mod model {
    use fbufs::xkernel::Extent;

    pub fn split(m: &[Extent], at: u64) -> (Vec<Extent>, Vec<Extent>) {
        let (mut head, mut tail) = (Vec::new(), Vec::new());
        let mut pos = 0u64;
        for e in m {
            if pos >= at {
                tail.push(*e);
            } else if pos + e.len <= at {
                head.push(*e);
            } else {
                let take = at - pos;
                head.push(Extent { len: take, ..*e });
                tail.push(Extent {
                    off: e.off + take,
                    len: e.len - take,
                    ..*e
                });
            }
            pos += e.len;
        }
        (head, tail)
    }

    pub fn len(m: &[Extent]) -> u64 {
        m.iter().map(|e| e.len).sum()
    }

    /// First-appearance order of the fbufs.
    pub fn distinct(m: &[Extent]) -> Vec<u64> {
        let mut seen = Vec::new();
        for e in m {
            if !seen.contains(&e.fbuf.0) {
                seen.push(e.fbuf.0);
            }
        }
        seen
    }
}

#[test]
fn msg_edit_sequences_match_a_plain_extent_list() {
    // Random edit sequences on a message and on a plain `Vec<Extent>`
    // model must agree on the extents after every step. Messages hold
    // up to four extents inline and spill to the heap past that; the
    // lists here run from empty to a few dozen extents, so sequences
    // cross that boundary both ways, including through recycled heap
    // storage.
    Checker::new("msg_edit_sequences_match_a_plain_extent_list")
        .cases(CASES * 4)
        .run(|rng| {
            let mut want: Vec<Extent> = arb_extents(rng);
            let mut msg = Msg::from_extents(want.clone());
            for _ in 0..rng.range(1, 24) {
                let len = model::len(&want);
                match rng.below(7) {
                    0 => {
                        let at = rng.below(len + 2);
                        let (h, t) = msg.split(at);
                        let (mh, mt) = model::split(&want, at);
                        assert_eq!((h.extents(), t.extents()), (&mh[..], &mt[..]));
                        // Continue with either half.
                        (msg, want) = if rng.chance(0.5) { (h, mh) } else { (t, mt) };
                    }
                    1 => {
                        let other = arb_extents(rng);
                        let o = Msg::from_extents(other.clone());
                        msg = if rng.chance(0.5) {
                            want.extend(&other);
                            msg.concat(&o)
                        } else {
                            want.splice(0..0, other);
                            o.concat(&msg)
                        };
                    }
                    2 => {
                        let hdr = Extent {
                            fbuf: FbufId(rng.below(8)),
                            off: rng.below(100),
                            len: rng.below(3) * 8,
                        };
                        msg = msg.push_header(hdr);
                        if hdr.len > 0 {
                            want.insert(0, hdr);
                        }
                    }
                    3 => {
                        let n = rng.below(len + 2);
                        let popped = msg.pop(n);
                        if n > len {
                            assert!(popped.is_none());
                        } else {
                            let (mh, mt) = model::split(&want, n);
                            assert_eq!(popped.unwrap().extents(), &mh[..]);
                            want = mt;
                        }
                    }
                    4 => {
                        let n = rng.below(len + 2);
                        msg.truncate(n);
                        want = model::split(&want, n).0;
                    }
                    5 => {
                        let e = Extent {
                            fbuf: FbufId(rng.below(8)),
                            off: rng.below(10_000),
                            len: rng.below(4_000),
                        };
                        msg.push(e);
                        if e.len > 0 {
                            want.push(e);
                        }
                    }
                    _ => {
                        // Rebuild in the storage of a spilled message.
                        let spilled = Msg::from_extents(arb_extents(rng));
                        let mut again = match spilled.into_storage() {
                            Some(storage) => Msg::with_storage(storage),
                            None => Msg::empty(),
                        };
                        for &e in msg.extents() {
                            again.push(e);
                        }
                        msg = again;
                    }
                }
                assert_eq!(msg.extents(), &want[..]);
                assert_eq!(msg.len(), model::len(&want));
                assert_eq!(msg.clone(), msg);
                let ids: Vec<u64> = msg.distinct_fbufs().map(|id| id.0).collect();
                assert_eq!(ids, model::distinct(&want));
            }
        });
}

#[test]
fn fragmentation_reassembly_roundtrip() {
    Checker::new("fragmentation_reassembly_roundtrip")
        .cases(CASES)
        .run(|rng| {
            let extents = arb_extents(rng);
            let pdu = rng.range(1, 9_000);
            let msg = Msg::from_extents(extents);
            let frags: Vec<_> = ip::fragment(&msg, 1, pdu).collect();
            // Every fragment respects the PDU bound.
            for (h, body) in &frags {
                assert!(body.len() <= pdu);
                assert_eq!(h.total_len, msg.len());
            }
            // Reassemble in a shuffled order.
            let mut order: Vec<usize> = (0..frags.len()).collect();
            rng.shuffle(&mut order);
            let mut r = ip::Reassembler::new(0);
            let mut done = None;
            let mut dropped = Vec::new();
            for (k, &i) in order.iter().enumerate() {
                let out = r.add(frags[i].0, frags[i].1.clone(), &mut dropped);
                if k + 1 < order.len() {
                    assert!(out.is_none(), "completed early");
                } else {
                    done = out;
                }
            }
            assert!(dropped.is_empty(), "distinct fragments are never dropped");
            if msg.is_empty() {
                assert!(frags.is_empty());
            } else {
                let done = done.expect("reassembly completes on the last fragment");
                assert_eq!(logical_bytes(&done), logical_bytes(&msg));
            }
        });
}

#[test]
fn allocator_never_overlaps_live_buffers() {
    Checker::new("allocator_never_overlaps_live_buffers")
        .cases(CASES)
        .run(|rng| {
            // Random interleaving of allocs (in three domains) and frees; no
            // two live fbufs may ever overlap in the shared virtual region,
            // and each domain is charged exactly the page bytes of the live
            // buffers it originated (so the charge is nonzero exactly while
            // it has one — the zombie-chunk check relies on that).
            let ops = rng.vec_with(1, 40, |r| (r.below(3), r.range(1, 40_000)));
            let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
            let doms = [fbs.create_domain(), fbs.create_domain(), fbs.create_domain()];
            let mut live: Vec<(u64, u64, FbufId, usize)> = Vec::new();
            let page = fbs.machine().page_size();
            for (which, len) in ops {
                let d = which as usize;
                // Free one of this domain's buffers every other step.
                if live.len() % 2 == 1 {
                    if let Some(pos) = live.iter().position(|&(_, _, _, owner)| owner == d) {
                        let (_, _, id, _) = live.remove(pos);
                        fbs.free(id, doms[d]).unwrap();
                    }
                }
                // Quota/region exhaustion is an acceptable outcome; overlap
                // of live buffers never is.
                if let Ok(id) = fbs.alloc(doms[d], AllocMode::Uncached, len) {
                    let f = fbs.fbuf(id).unwrap();
                    let (start, end) = (f.va, f.va + f.pages * page);
                    assert_eq!(start % page, 0, "page aligned");
                    for &(s, e, _, _) in &live {
                        assert!(
                            end <= s || start >= e,
                            "overlap: [{start:#x},{end:#x}) vs [{s:#x},{e:#x})"
                        );
                    }
                    live.push((start, end, id, d));
                }
                for (i, &dom) in doms.iter().enumerate() {
                    let owned: u64 = live
                        .iter()
                        .filter(|&&(_, _, _, owner)| owner == i)
                        .map(|&(s, e, _, _)| e - s)
                        .sum();
                    assert_eq!(fbs.charged_bytes(dom), owned, "domain {i} charge");
                }
            }
        });
}

#[test]
fn no_writable_mapping_of_secured_pages_outside_originator() {
    Checker::new("no_writable_mapping_of_secured_pages_outside_originator")
        .cases(CASES)
        .run(|rng| {
            let pages = rng.range(1, 6);
            let receivers = rng.range(1, 3) as usize;
            let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
            let origin = fbs.create_domain();
            let doms: Vec<_> = (0..receivers).map(|_| fbs.create_domain()).collect();
            let page = fbs.machine().page_size();
            let id = fbs.alloc(origin, AllocMode::Uncached, pages * page).unwrap();
            fbs.write_fbuf(origin, id, 0, &[1u8]).unwrap();
            let mut prev = origin;
            for &d in &doms {
                fbs.send(id, prev, d, SendMode::Secure).unwrap();
                prev = d;
            }
            // Invariant: nobody, including the originator, can write any
            // page; everyone can read.
            for i in 0..pages {
                assert!(fbs.write_fbuf(origin, id, i * page, &[0]).is_err());
                for &d in &doms {
                    assert!(fbs.write_fbuf(d, id, i * page, &[0]).is_err());
                    assert!(fbs.read_fbuf(d, id, i * page, 1).is_ok());
                }
            }
        });
}

#[test]
fn cached_reuse_returns_zero_pte_steady_state() {
    Checker::new("cached_reuse_returns_zero_pte_steady_state")
        .cases(CASES)
        .run(|rng| {
            let pages = rng.range(1, 4);
            let cycles = rng.range(2, 6) as usize;
            let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
            fbs.charge_clearing = false;
            let a = fbs.create_domain();
            let b = fbs.create_domain();
            let path = fbs.create_path(vec![a, b]).unwrap();
            let len = pages * fbs.machine().page_size();
            let cycle = |fbs: &mut FbufSystem| {
                let id = fbs.alloc(a, AllocMode::Cached(path), len).unwrap();
                fbs.send(id, a, b, SendMode::Volatile).unwrap();
                fbs.free(id, b).unwrap();
                fbs.free(id, a).unwrap();
            };
            cycle(&mut fbs);
            let ptes = fbs.stats().pte_updates();
            for _ in 0..cycles {
                cycle(&mut fbs);
            }
            assert_eq!(
                fbs.stats().pte_updates(),
                ptes,
                "steady-state cached/volatile transfers must do no mapping work"
            );
        });
}

#[test]
fn retired_fbuf_ids_never_resolve_after_recycling() {
    // Generational slab handles: once an fbuf is retired its id must keep
    // failing forever, even after the arena slot has been recycled by
    // later allocations — and `live_fbufs` must track the model exactly.
    Checker::new("retired_fbuf_ids_never_resolve_after_recycling")
        .cases(CASES)
        .run(|rng| {
            let ops = rng.vec_with(1, 50, |r| (r.below(3), r.range(1, 20_000)));
            let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
            let dom = fbs.create_domain();
            let mut live: Vec<FbufId> = Vec::new();
            let mut retired: Vec<FbufId> = Vec::new();
            for (op, len) in ops {
                if op == 0 || live.is_empty() {
                    if let Ok(id) = fbs.alloc(dom, AllocMode::Uncached, len) {
                        assert!(
                            !retired.contains(&id),
                            "recycled slot produced a previously retired id"
                        );
                        live.push(id);
                    }
                } else {
                    let id = live.remove(len as usize % live.len());
                    fbs.free(id, dom).unwrap();
                    retired.push(id);
                }
                assert_eq!(fbs.live_fbufs(), live.len(), "arena/model count drift");
                for &id in &retired {
                    assert!(fbs.fbuf(id).is_err(), "retired {id:?} resolved");
                }
                for &id in &live {
                    assert!(fbs.fbuf(id).is_ok(), "live {id:?} lost");
                }
            }
        });
}

#[test]
fn retired_vm_object_ids_never_resolve_after_recycling() {
    // Same property one layer down: anonymous VM objects live in a
    // generational arena, so a torn-down region's ObjectId must stay dead
    // even when a new region recycles the slot.
    Checker::new("retired_vm_object_ids_never_resolve_after_recycling")
        .cases(CASES)
        .run(|rng| {
            let rounds = rng.range(2, 8);
            let mut m = fbufs::vm::Machine::new(MachineConfig::decstation_5000_200());
            let dom = m.create_domain();
            let page = m.page_size();
            let base = 0xA000_0000u64;
            let mut dead = Vec::new();
            for r in 0..rounds {
                let va = base + r * 16 * page;
                let pages = rng.range(1, 5);
                m.map_anon_region(dom, va, pages).unwrap();
                let obj = m.region_object(dom, va).expect("fresh region has object");
                assert!(m.object_live(obj));
                for &d in &dead {
                    assert!(!m.object_live(d), "retired object id resolved");
                }
                m.unmap_region(dom, va).unwrap();
                assert!(!m.object_live(obj));
                dead.push(obj);
            }
            assert_eq!(m.live_objects(), 0);
        });
}

#[test]
fn parked_reuse_round_trips_preserve_live_fbufs() {
    // Cached park → reuse cycles (with the pageout daemon occasionally
    // stealing frames) must neither leak nor retire fbuf objects: the
    // arena population is invariant, the parked id stays resolvable, and
    // the buffer stays charged to its originator throughout.
    Checker::new("parked_reuse_round_trips_preserve_live_fbufs")
        .cases(CASES)
        .run(|rng| {
            let cycles = rng.range(2, 10);
            let pages = rng.range(1, 4);
            let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
            let a = fbs.create_domain();
            let b = fbs.create_domain();
            let path = fbs.create_path(vec![a, b]).unwrap();
            let len = pages * fbs.machine().page_size();
            let first = fbs.alloc(a, AllocMode::Cached(path), len).unwrap();
            fbs.free(first, a).unwrap();
            let live0 = fbs.live_fbufs();
            assert_eq!(fbs.charged_bytes(a), len, "parked buffer uncharged");
            for _ in 0..cycles {
                if rng.below(3) == 0 {
                    fbs.reclaim_frames(rng.range(1, 4) as usize);
                    assert_eq!(fbs.charged_bytes(a), len, "pageout uncharged");
                }
                let id = fbs.alloc(a, AllocMode::Cached(path), len).unwrap();
                assert_eq!(id, first, "LIFO reuse hands back the parked buffer");
                assert_eq!(fbs.charged_bytes(a), len, "reuse charged twice");
                fbs.send(id, a, b, SendMode::Volatile).unwrap();
                fbs.free(id, b).unwrap();
                fbs.free(id, a).unwrap();
                assert_eq!(fbs.live_fbufs(), live0, "park/reuse leaked or retired");
                assert_eq!(fbs.charged_bytes(a), len, "re-park uncharged");
                assert!(fbs.fbuf(id).is_ok(), "parked fbuf fell out of the arena");
            }
        });
}

#[test]
fn forged_and_stale_tokens_never_resolve_and_never_mutate_state() {
    // The generation-tag defense, as a property: no matter how a raw
    // token is forged — generation bits flipped on a live id, the id of
    // a retired buffer, or pure noise — `check_token` must refuse it,
    // must not move the simulated clock or any counter besides the
    // rejection tally, and must bill exactly one rejection to exactly
    // the probing tenant's ledger row.
    Checker::new("forged_and_stale_tokens_never_resolve_and_never_mutate_state")
        .cases(CASES)
        .run(|rng| {
            let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
            let a = fbs.create_domain();
            let b = fbs.create_domain();
            let path = fbs.create_path(vec![a, b]).unwrap();
            let len = fbs.machine().page_size();

            // Random live population plus one guaranteed-stale id.
            let mut live = Vec::new();
            for _ in 0..rng.range(1, 6) {
                live.push(fbs.alloc(a, AllocMode::Cached(path), len).unwrap());
            }
            let stale = fbs.alloc(a, AllocMode::Uncached, len).unwrap();
            fbs.free(stale, a).unwrap(); // uncached free retires: the id is dead
            assert!(fbs.fbuf(stale).is_err());

            for probe_round in 0..rng.range(4, 12) {
                let victim = live[rng.below(live.len() as u64) as usize];
                let raw = match probe_round % 3 {
                    // Generation bits flipped on a live id: same arena
                    // slot, wrong generation.
                    0 => victim.0 ^ ((rng.range(1, u32::MAX as u64)) << 32),
                    // A retired buffer's id replayed verbatim.
                    1 => stale.0,
                    // Pure noise, index bits included.
                    _ => rng.next_u64(),
                };
                if fbs.fbuf(FbufId(raw)).is_ok() {
                    continue; // noise accidentally minted a valid token
                }
                let dom = if rng.below(2) == 0 { a } else { b };
                let clock = fbs.machine().now();
                let before = fbs.stats().snapshot();
                let live_before = fbs.live_fbufs();
                let row_before = fbs.ledger_snapshot().dom(dom.0).rejected_tokens;

                assert!(
                    !fbs.check_token(dom, Some(path), raw),
                    "forged token {raw:#x} resolved"
                );

                assert_eq!(fbs.machine().now(), clock, "rejection charged the clock");
                assert_eq!(fbs.live_fbufs(), live_before, "rejection touched the arena");
                let mut expect = before.clone();
                expect.tokens_rejected += 1;
                assert_eq!(
                    fbs.stats().snapshot(),
                    expect,
                    "rejection moved a counter other than tokens_rejected"
                );
                assert_eq!(
                    fbs.ledger_snapshot().dom(dom.0).rejected_tokens,
                    row_before + 1,
                    "exactly one rejection billed to the probing tenant"
                );
                // Every live buffer still resolves — the forgery
                // dereferenced nothing and invalidated nothing.
                for &id in &live {
                    assert!(fbs.fbuf(id).is_ok());
                }
            }
        });
}

/// Arbitrary latency-like samples, spanning many histogram buckets
/// (zeros, small, and large values all occur).
fn arb_samples(rng: &mut Rng) -> Vec<u64> {
    rng.vec_with(0, 40, |r| {
        let shift = r.below(40) as u32;
        r.below(1u64 << shift.max(1))
    })
}

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    Checker::new("histogram_merge_is_associative_and_commutative")
        .cases(CASES)
        .run(|rng| {
            let (a, b, c) = (
                hist_of(&arb_samples(rng)),
                hist_of(&arb_samples(rng)),
                hist_of(&arb_samples(rng)),
            );
            // (a + b) + c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a + (b + c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "merge associativity");
            // b + a == a + b
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge commutativity");
        });
}

#[test]
fn histogram_percentiles_are_monotone_and_bounded() {
    Checker::new("histogram_percentiles_are_monotone_and_bounded")
        .cases(CASES)
        .run(|rng| {
            let samples = arb_samples(rng);
            let h = hist_of(&samples);
            if h.is_empty() {
                return;
            }
            assert!(h.p50() <= h.p90());
            assert!(h.p90() <= h.p99());
            assert!(h.min() <= h.p50());
            assert!(h.p99() <= h.max());
            assert_eq!(h.count(), samples.len() as u64);
        });
}

#[test]
fn histogram_split_then_merge_preserves_contents() {
    Checker::new("histogram_split_then_merge_preserves_contents")
        .cases(CASES)
        .run(|rng| {
            let h = hist_of(&arb_samples(rng));
            let b = rng.below(70) as usize; // including out-of-range splits
            let (lo, hi) = h.split_at_bucket(b);
            assert_eq!(lo.count() + hi.count(), h.count(), "count preserved");
            let mut back = lo.clone();
            back.merge(&hi);
            assert_eq!(back.buckets(), h.buckets(), "bucket-exact recombination");
            assert_eq!(back.count(), h.count());
        });
}

// ---------------------------------------------------------------------------
// StatsSnapshot::merge: the algebra the sharded fleet relies on.
// ---------------------------------------------------------------------------

use fbufs::fbuf::shard::shard_of_path;
use fbufs::sim::StatsSnapshot;

/// Arbitrary snapshots over a representative spread of counters (the
/// macro generates `merge` identically for every field, so exercising a
/// subset exercises them all; the final equality compares every field).
fn arb_snapshot(rng: &mut Rng) -> StatsSnapshot {
    StatsSnapshot {
        pte_updates: rng.below(1_000),
        pages_cleared: rng.below(1_000),
        fbuf_cache_hits: rng.below(100_000),
        fbuf_cache_misses: rng.below(1_000),
        fbuf_transfers: rng.below(100_000),
        ipc_messages: rng.below(50_000),
        frames_allocated: rng.below(10_000),
        pdus_sent: rng.below(10_000),
        ..StatsSnapshot::default()
    }
}

#[test]
fn snapshot_merge_is_associative_and_commutative_with_identity() {
    Checker::new("snapshot_merge_is_associative_and_commutative_with_identity")
        .cases(CASES)
        .run(|rng| {
            let (a, b, c) = (arb_snapshot(rng), arb_snapshot(rng), arb_snapshot(rng));
            // Associativity: (a + b) + c == a + (b + c), every field.
            assert_eq!(
                a.merge(&b).merge(&c).counters(),
                a.merge(&b.merge(&c)).counters()
            );
            // Commutativity: a + b == b + a.
            assert_eq!(a.merge(&b).counters(), b.merge(&a).counters());
            // Identity: the zero snapshot is neutral on both sides.
            let zero = StatsSnapshot::default();
            assert_eq!(a.merge(&zero).counters(), a.counters());
            assert_eq!(zero.merge(&a).counters(), a.counters());
            // merge_all folds the same algebra.
            assert_eq!(
                StatsSnapshot::merge_all([&a, &b, &c]).counters(),
                a.merge(&b).merge(&c).counters()
            );
            assert_eq!(
                StatsSnapshot::merge_all(std::iter::empty()).counters(),
                zero.counters()
            );
        });
}

/// A minimal engine for the partitioning property: two-domain paths on a
/// private machine, cycled with the same alloc → RPC → send → free shape
/// the stress harness uses.
struct MiniEngine {
    sys: FbufSystem,
    paths: Vec<(fbufs::fbuf::PathId, fbufs::vm::DomainId, fbufs::vm::DomainId)>,
}

impl MiniEngine {
    fn new(npaths: u64) -> MiniEngine {
        let mut cfg = MachineConfig::decstation_5000_200();
        cfg.phys_mem = 16 << 20;
        cfg.chunk_size = 1 << 20;
        let mut sys = FbufSystem::new(cfg);
        let paths = (0..npaths)
            .map(|_| {
                let a = sys.create_domain();
                let b = sys.create_domain();
                let p = sys.create_path(vec![a, b]).expect("fresh domains");
                (p, a, b)
            })
            .collect();
        MiniEngine { sys, paths }
    }

    fn cycle(&mut self, path_index: usize) {
        let (p, a, b) = self.paths[path_index];
        let id = self
            .sys
            .alloc(a, AllocMode::Cached(p), 4096)
            .expect("cached alloc");
        self.sys.hop(a, b);
        self.sys.send(id, a, b, SendMode::Volatile).expect("send");
        self.sys.free(id, b).expect("free b");
        self.sys.free(id, a).expect("free a");
    }

    fn delta(&self) -> StatsSnapshot {
        self.sys.stats().snapshot()
    }
}

#[test]
fn merged_shard_snapshots_equal_single_engine_over_concatenated_workload() {
    Checker::new("merged_shard_snapshots_equal_single_engine_over_concatenated_workload")
        .cases(16)
        .run(|rng| {
            let shards = rng.range(1, 4) as usize;
            let npaths = rng.range(shards as u64, 8);
            let ops = rng.range(20, 120);
            let workload: Vec<u64> = (0..ops).map(|_| rng.below(npaths)).collect();

            // One engine owning every path, running the whole workload.
            let mut single = MiniEngine::new(npaths);
            for &p in &workload {
                single.cycle(p as usize);
            }

            // N engines, each owning its partition of the paths (the
            // fleet's round-robin scheme) and running its share.
            let mut engines: Vec<MiniEngine> = (0..shards)
                .map(|s| {
                    MiniEngine::new((0..npaths).filter(|&p| shard_of_path(p, shards) == s).count()
                        as u64)
                })
                .collect();
            for &p in &workload {
                let s = shard_of_path(p, shards);
                // Global path id -> index within the shard's partition.
                let local = (0..p).filter(|&q| shard_of_path(q, shards) == s).count();
                engines[s].cycle(local);
            }

            let deltas: Vec<StatsSnapshot> = engines.iter().map(MiniEngine::delta).collect();
            let merged = StatsSnapshot::merge_all(deltas.iter());
            assert_eq!(
                merged.counters(),
                single.delta().counters(),
                "partitioning a path-local workload across shards must not \
                 change any operation count"
            );
        });
}

/// The SPSC ring against a `VecDeque` reference model: an arbitrary
/// interleaving of pushes and pops must agree with the model on every
/// accepted value, every rejection (ring full hands the value back),
/// every popped element (strict FIFO), and the occupancy both endpoints
/// report.
#[test]
fn spsc_ring_matches_a_deque_model() {
    use std::collections::VecDeque;
    Checker::new("spsc_ring_matches_a_deque_model")
        .cases(CASES)
        .run(|rng| {
            let cap = rng.range(1, 9) as usize;
            let (mut tx, mut rx) = fbufs::sim::spsc::ring::<u64>(cap);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut next = 0u64;
            for _ in 0..rng.range(50, 400) {
                if rng.chance(0.55) {
                    let v = next;
                    next += 1;
                    match tx.push(v) {
                        Ok(()) => {
                            assert!(model.len() < cap, "push accepted past capacity");
                            model.push_back(v);
                        }
                        Err(back) => {
                            assert_eq!(back, v, "a rejected push returns its value");
                            assert_eq!(model.len(), cap, "push refused below capacity");
                        }
                    }
                } else {
                    assert_eq!(rx.pop(), model.pop_front(), "FIFO order");
                }
                assert_eq!(tx.len(), model.len());
                assert_eq!(rx.len(), model.len());
                assert_eq!(tx.is_empty(), model.is_empty());
            }
            // Drain: everything accepted comes out exactly once, in order.
            while let Some(v) = rx.pop() {
                assert_eq!(Some(v), model.pop_front());
            }
            assert!(model.is_empty(), "ring lost accepted elements");
        });
}

/// Burst operations against the scalar ops and the `VecDeque` oracle:
/// the same random schedule of offered elements and drain opportunities
/// is applied three ways — batch (`push_n`/`drain_into`), scalar
/// (`push`/`pop` loops), and the pure model — and all three must agree
/// after every step on accepted counts (backpressure outcomes), drained
/// contents (FIFO order), and occupancy. A burst is just an amortized
/// publication of the same elements, so any divergence is a bug.
#[test]
fn spsc_bursts_match_scalar_ops_and_the_deque_model() {
    use std::collections::VecDeque;
    Checker::new("spsc_bursts_match_scalar_ops_and_the_deque_model")
        .cases(CASES)
        .run(|rng| {
            let cap = rng.range(1, 9) as usize;
            let (mut btx, mut brx) = fbufs::sim::spsc::ring::<u64>(cap);
            let (mut stx, mut srx) = fbufs::sim::spsc::ring::<u64>(cap);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut next = 0u64;
            for _ in 0..rng.range(40, 200) {
                if rng.chance(0.55) {
                    // Offer the same burst to both rings and the model.
                    let burst = rng.range(0, cap as u64 + 3);
                    let vals: Vec<u64> = (0..burst).map(|i| next + i).collect();
                    next += burst;
                    let mut bq: VecDeque<u64> = vals.iter().copied().collect();
                    let accepted = btx.push_n(&mut bq);
                    let mut scalar_accepted = 0;
                    for &v in &vals {
                        match stx.push(v) {
                            Ok(()) => scalar_accepted += 1,
                            Err(back) => {
                                assert_eq!(back, v);
                                break;
                            }
                        }
                    }
                    assert_eq!(
                        accepted, scalar_accepted,
                        "batch and scalar pushes accept the same prefix"
                    );
                    let room = cap - model.len();
                    assert_eq!(accepted, (burst as usize).min(room), "model backpressure");
                    model.extend(&vals[..accepted]);
                    assert_eq!(
                        bq.iter().copied().collect::<Vec<u64>>(),
                        vals[accepted..],
                        "refused elements stay, in order"
                    );
                } else {
                    // Drain the same bounded burst from both rings.
                    let max = rng.range(0, cap as u64 + 2) as usize;
                    let mut got = Vec::new();
                    let n = brx.drain_into(&mut got, max);
                    assert_eq!(n, got.len());
                    for &v in &got {
                        assert_eq!(srx.pop(), Some(v), "scalar pops the same elements");
                        assert_eq!(model.pop_front(), Some(v), "model agrees on FIFO order");
                    }
                    if n < max {
                        assert_eq!(srx.pop(), None, "batch drained everything available");
                        assert!(model.is_empty());
                    }
                }
                assert_eq!(btx.len(), model.len());
                assert_eq!(brx.len(), model.len());
                assert_eq!(stx.len(), model.len());
            }
            // Final drain: both rings hold exactly the model's residue.
            let rest = brx.pop_n(usize::MAX);
            assert_eq!(rest, model.iter().copied().collect::<Vec<u64>>());
            for v in rest {
                assert_eq!(srx.pop(), Some(v));
            }
            assert_eq!(srx.pop(), None);
        });
}

/// Backpressure is lossless: a producer that retries every refused push
/// against a consumer that drains in arbitrary bursts delivers the whole
/// sequence intact. The refusal count is bounded by the number of
/// drain-burst boundaries (each full state persists until a pop).
#[test]
fn spsc_backpressure_retries_lose_nothing() {
    Checker::new("spsc_backpressure_retries_lose_nothing")
        .cases(CASES)
        .run(|rng| {
            let cap = rng.range(1, 5) as usize;
            let total = rng.range(20, 200);
            let (mut tx, mut rx) = fbufs::sim::spsc::ring::<u64>(cap);
            let mut got = Vec::new();
            let mut refusals = 0u64;
            let mut pending: Option<u64> = None;
            let mut sent = 0u64;
            while (got.len() as u64) < total {
                // Producer step: retry the refused value before a new one.
                if pending.is_some() || sent < total {
                    let v = pending.take().unwrap_or_else(|| {
                        let v = sent;
                        sent += 1;
                        v
                    });
                    if let Err(back) = tx.push(v) {
                        refusals += 1;
                        pending = Some(back);
                    }
                }
                // Consumer step: drain a burst only some of the time, so
                // full states actually occur.
                if rng.chance(0.4) {
                    let burst = rng.range(1, cap as u64 + 2);
                    for _ in 0..burst {
                        match rx.pop() {
                            Some(v) => got.push(v),
                            None => break,
                        }
                    }
                }
            }
            assert_eq!(got, (0..total).collect::<Vec<u64>>());
            assert!(tx.is_empty(), "all retried values eventually landed");
            // Tiny capacities under a slow consumer must exhibit real
            // backpressure, or the property is vacuous.
            if cap == 1 && total >= 50 {
                assert!(refusals > 0, "capacity-1 ring never filled");
            }
        });
}
