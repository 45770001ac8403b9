//! The indexed TLB against the linear-scan TLB it replaced.
//!
//! [`fbuf_vm::tlb::Tlb`] finds entries through a `(domain, vpn)` index
//! and keeps LRU order in a linked list. The [`Oracle`] below is the
//! earlier implementation: a `Vec` scanned on every operation, with a
//! use tick per entry and eviction of the smallest tick. Random sequences
//! of every operation at several capacities must give identical results,
//! identical hit/miss counts and the identical resident set in identical
//! recency order after every step, so the simulated TLB refills and
//! flushes that feed the cost model cannot have moved. Refills after a
//! miss (the path `Machine::resolve` takes), alone and in long runs that
//! turn a full TLB over several times, check that eviction in place
//! picks the oracle's victim and keeps its recency order.

use fbuf_sim::{Checker, Rng};
use fbuf_vm::tlb::Tlb;
use fbuf_vm::{DomainId, FrameId, Prot, Vpn};

#[derive(Debug, Clone, Copy)]
struct OracleEntry {
    domain: DomainId,
    vpn: Vpn,
    frame: FrameId,
    prot: Prot,
    last_used: u64,
}

/// The linear-scan TLB: every lookup, insert and invalidation walks the
/// whole entry array, and a full insert evicts the smallest use tick.
struct Oracle {
    capacity: usize,
    entries: Vec<OracleEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Oracle {
    fn new(capacity: usize) -> Oracle {
        Oracle {
            capacity,
            entries: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn lookup(&mut self, domain: DomainId, vpn: Vpn) -> Option<(FrameId, Prot)> {
        self.tick += 1;
        let tick = self.tick;
        match self
            .entries
            .iter_mut()
            .find(|e| e.domain == domain && e.vpn == vpn)
        {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some((e.frame, e.prot))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, domain: DomainId, vpn: Vpn, frame: FrameId, prot: Prot) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.domain == domain && e.vpn == vpn)
        {
            e.frame = frame;
            e.prot = prot;
            e.last_used = tick;
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].last_used)
                .expect("full TLB is non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push(OracleEntry {
            domain,
            vpn,
            frame,
            prot,
            last_used: tick,
        });
    }

    fn remove_where(&mut self, doomed: impl Fn(&OracleEntry) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !doomed(e));
        before - self.entries.len()
    }

    /// Resident translations, most recently used first.
    fn resident(&self) -> Vec<(DomainId, Vpn, FrameId, Prot)> {
        let mut v = self.entries.clone();
        v.sort_by_key(|e| std::cmp::Reverse(e.last_used));
        v.iter()
            .map(|e| (e.domain, e.vpn, e.frame, e.prot))
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(DomainId, Vpn),
    Insert(DomainId, Vpn, FrameId, Prot),
    /// A lookup, refilled on a miss as `Machine::resolve` refills it.
    Refill(DomainId, Vpn, FrameId, Prot),
    Invalidate(DomainId, Vpn),
    InvalidateRange(DomainId, Vpn, u64),
    InvalidateDomain(DomainId),
    Clear,
}

/// Keys come from a space a little over twice the capacity across three
/// domains, so the sequence mixes hits, misses, refreshes and evictions.
/// Every third stretch of `4 * capacity` steps is instead a long run of
/// refills over a window of recent pages that slides one page a step
/// past that space: misses evict in place, hits reorder the recency list.
fn arb_op(rng: &mut Rng, capacity: usize, step: usize) -> Op {
    let vpns = 2 * capacity as u64 + 2;
    let dom = DomainId(rng.below(3) as u32);
    let vpn = Vpn(rng.below(vpns));
    let frame = FrameId(rng.below(1024) as u32);
    let prot = if rng.chance(0.5) {
        Prot::Read
    } else {
        Prot::ReadWrite
    };
    if step / (4 * capacity) % 3 == 2 {
        let v = vpns + step as u64 - rng.below(capacity as u64 + 2);
        return Op::Refill(DomainId(v as u32 % 3), Vpn(v), frame, prot);
    }
    match rng.below(100) {
        0..=29 => Op::Lookup(dom, vpn),
        30..=54 => Op::Insert(dom, vpn, frame, prot),
        55..=79 => Op::Refill(dom, vpn, frame, prot),
        80..=89 => Op::Invalidate(dom, vpn),
        90..=95 => Op::InvalidateRange(dom, vpn, rng.below(capacity as u64 + 1)),
        96..=98 => Op::InvalidateDomain(dom),
        _ => Op::Clear,
    }
}

/// `Machine::resolve`'s miss path on both: a lookup, and a refill only
/// when it missed.
fn refill(tlb: &mut Tlb, oracle: &mut Oracle, d: DomainId, v: Vpn, f: FrameId, p: Prot) {
    let hit = tlb.lookup(d, v);
    assert_eq!(hit, oracle.lookup(d, v), "lookup of {d:?} {v:?}");
    if hit.is_none() {
        tlb.refill(d, v, f, p);
        oracle.insert(d, v, f, p);
    }
}

#[test]
fn indexed_tlb_matches_the_linear_scan_oracle() {
    for capacity in [1usize, 2, 8, 64] {
        let name = format!("indexed_tlb_matches_oracle_at_capacity_{capacity}");
        Checker::new(&name).cases(64).run(|rng| {
            let mut tlb = Tlb::new(capacity);
            let mut oracle = Oracle::new(capacity);
            for step in 0..20 * capacity + 50 {
                let op = arb_op(rng, capacity, step);
                match op {
                    Op::Lookup(d, v) => {
                        assert_eq!(tlb.lookup(d, v), oracle.lookup(d, v), "step {step}: {op:?}")
                    }
                    Op::Insert(d, v, f, p) => {
                        tlb.insert(d, v, f, p);
                        oracle.insert(d, v, f, p);
                    }
                    Op::Refill(d, v, f, p) => refill(&mut tlb, &mut oracle, d, v, f, p),
                    Op::Invalidate(d, v) => assert_eq!(
                        tlb.invalidate(d, v),
                        oracle.remove_where(|e| e.domain == d && e.vpn == v) == 1,
                        "step {step}: {op:?}"
                    ),
                    Op::InvalidateRange(d, start, pages) => assert_eq!(
                        tlb.invalidate_range(d, start, pages),
                        oracle.remove_where(|e| {
                            e.domain == d && e.vpn.0 >= start.0 && e.vpn.0 < start.0 + pages
                        }),
                        "step {step}: {op:?}"
                    ),
                    Op::InvalidateDomain(d) => assert_eq!(
                        tlb.invalidate_domain(d),
                        oracle.remove_where(|e| e.domain == d),
                        "step {step}: {op:?}"
                    ),
                    Op::Clear => {
                        tlb.clear();
                        oracle.entries.clear();
                    }
                }
                assert_eq!(
                    tlb.hit_miss(),
                    (oracle.hits, oracle.misses),
                    "step {step}: {op:?}"
                );
                assert_eq!(tlb.resident(), oracle.resident(), "step {step}: {op:?}");
                assert_eq!(tlb.len(), oracle.entries.len());
            }
        });
    }
}
