//! A finite, ASID-tagged, software-refilled TLB model.
//!
//! The paper attributes the entire 3 µs/page cost of the cached/volatile
//! case to TLB misses ("TLB misses are handled in software in the MIPS
//! architecture"), and attributes part of the user-netserver-user penalty to
//! "the exhaustion of cache and TLB when a third domain is added to the data
//! path" — so the TLB is modelled with real capacity and LRU replacement,
//! not as an always-hit abstraction.
//!
//! The TLB itself is pure state; the [`crate::Machine`] access engine
//! charges refill and flush costs.

use fbuf_sim::fxhash::FxHashMap;

use crate::phys::FrameId;
use crate::types::{DomainId, Prot, Vpn};

/// End of the recency list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    domain: DomainId,
    vpn: Vpn,
    frame: FrameId,
    prot: Prot,
    /// The next more recently used entry's slot, or [`NIL`].
    newer: u32,
    /// The next less recently used entry's slot, or [`NIL`].
    older: u32,
}

/// The translation lookaside buffer.
///
/// Entries sit densely in a `Vec`, a `(domain, vpn) → slot` index finds
/// one in O(1), and a doubly linked recency list threaded through the
/// slots keeps the exact least-recently-used order, so replacement
/// evicts the same entry a scan for the oldest use would. A full TLB
/// evicts in place: the new translation takes the victim's slot, so no
/// entry moves. Invalidating an entry `swap_remove`s it and re-points
/// the index and the list at the entry that moved into its slot.
#[derive(Debug)]
pub struct Tlb {
    capacity: usize,
    entries: Vec<TlbEntry>,
    index: FxHashMap<(DomainId, Vpn), u32>,
    /// Most recently used slot.
    newest: u32,
    /// Least recently used slot: the next victim.
    oldest: u32,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries (R3000: 64).
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB must have at least one entry");
        let mut index = FxHashMap::default();
        index.reserve(capacity);
        Tlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            index,
            newest: NIL,
            oldest: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a translation; refreshes the entry's LRU position on a hit.
    pub fn lookup(&mut self, domain: DomainId, vpn: Vpn) -> Option<(FrameId, Prot)> {
        match self.index.get(&(domain, vpn)) {
            Some(&slot) => {
                self.hits += 1;
                self.make_newest(slot);
                let e = &self.entries[slot as usize];
                Some((e.frame, e.prot))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs (or replaces) a translation, evicting the LRU entry if full.
    pub fn insert(&mut self, domain: DomainId, vpn: Vpn, frame: FrameId, prot: Prot) {
        if let Some(&slot) = self.index.get(&(domain, vpn)) {
            let e = &mut self.entries[slot as usize];
            e.frame = frame;
            e.prot = prot;
            self.make_newest(slot);
            return;
        }
        self.refill(domain, vpn, frame, prot);
    }

    /// Installs a translation the caller knows is absent (a
    /// [`Tlb::lookup`] just missed it). A full TLB evicts its LRU entry
    /// in place, so a refill costs one index removal and one insertion.
    pub fn refill(&mut self, domain: DomainId, vpn: Vpn, frame: FrameId, prot: Prot) {
        debug_assert!(!self.index.contains_key(&(domain, vpn)));
        let entry = TlbEntry {
            domain,
            vpn,
            frame,
            prot,
            newer: NIL,
            older: NIL,
        };
        let slot = if self.entries.len() < self.capacity {
            self.entries.push(entry);
            self.entries.len() as u32 - 1
        } else {
            let slot = self.oldest;
            let victim = self.entries[slot as usize];
            self.index.remove(&(victim.domain, victim.vpn));
            self.link(victim.newer, victim.older);
            self.entries[slot as usize] = entry;
            slot
        };
        self.index.insert((domain, vpn), slot);
        self.push_newest(slot);
    }

    /// Removes one translation; returns whether it was present (a present
    /// entry is what makes a consistency flush necessary and costly).
    pub fn invalidate(&mut self, domain: DomainId, vpn: Vpn) -> bool {
        match self.index.get(&(domain, vpn)) {
            Some(&slot) => {
                self.remove(slot);
                true
            }
            None => false,
        }
    }

    /// Batched invalidation: removes every translation for `domain` with a
    /// VPN in `[start, start + pages)` in **one** pass over the entry
    /// array, where per-page [`Tlb::invalidate`] calls would make `pages`
    /// lookups. Returns how many entries were removed.
    pub fn invalidate_range(&mut self, domain: DomainId, start: Vpn, pages: u64) -> usize {
        self.remove_where(|e| e.domain == domain && e.vpn.0 >= start.0 && e.vpn.0 < start.0 + pages)
    }

    /// Removes every translation belonging to `domain` (domain teardown).
    /// Returns how many entries were removed.
    pub fn invalidate_domain(&mut self, domain: DomainId) -> usize {
        self.remove_where(|e| e.domain == domain)
    }

    /// Drops everything (full flush).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.newest = NIL;
        self.oldest = NIL;
    }

    /// Number of currently resident translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no translations are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// (hits, misses) since creation.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The resident translations as `(domain, vpn, frame, prot)`, most
    /// recently used first (diagnostics and the reference-model test).
    pub fn resident(&self) -> Vec<(DomainId, Vpn, FrameId, Prot)> {
        let mut out = Vec::with_capacity(self.entries.len());
        let mut slot = self.newest;
        while slot != NIL {
            let e = &self.entries[slot as usize];
            out.push((e.domain, e.vpn, e.frame, e.prot));
            slot = e.older;
        }
        out
    }

    /// Removes every entry `doomed` selects, scanning slots downward so
    /// the entry `swap_remove` moves into a freed slot was already seen.
    fn remove_where(&mut self, doomed: impl Fn(&TlbEntry) -> bool) -> usize {
        let before = self.entries.len();
        for slot in (0..before).rev() {
            if doomed(&self.entries[slot]) {
                self.remove(slot as u32);
            }
        }
        before - self.entries.len()
    }

    /// Removes the entry in `slot`. The last entry moves into the freed
    /// slot, so the index and its list neighbours are re-pointed at it.
    fn remove(&mut self, slot: u32) {
        let TlbEntry { newer, older, .. } = self.entries[slot as usize];
        self.link(newer, older);
        let gone = self.entries.swap_remove(slot as usize);
        self.index.remove(&(gone.domain, gone.vpn));
        if let Some(&moved) = self.entries.get(slot as usize) {
            self.index.insert((moved.domain, moved.vpn), slot);
            self.link(moved.newer, slot);
            self.link(slot, moved.older);
        }
    }

    /// Moves `slot` to the head of the recency list.
    fn make_newest(&mut self, slot: u32) {
        if self.newest != slot {
            let TlbEntry { newer, older, .. } = self.entries[slot as usize];
            self.link(newer, older);
            self.push_newest(slot);
        }
    }

    fn push_newest(&mut self, slot: u32) {
        let head = self.newest;
        self.link(slot, head);
        self.link(NIL, slot);
    }

    /// Makes `older` the entry after `newer` in the recency list; [`NIL`]
    /// on either side stands for the list's end, so the head or the tail
    /// pointer is set instead.
    fn link(&mut self, newer: u32, older: u32) {
        match newer {
            NIL => self.newest = older,
            s => self.entries[s as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            s => self.entries[s as usize].newer = newer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DomainId = DomainId(0);
    const D1: DomainId = DomainId(1);

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(D0, Vpn(1)), None);
        tlb.insert(D0, Vpn(1), FrameId(7), Prot::Read);
        assert_eq!(tlb.lookup(D0, Vpn(1)), Some((FrameId(7), Prot::Read)));
        assert_eq!(tlb.hit_miss(), (1, 1));
    }

    #[test]
    fn entries_are_domain_tagged() {
        let mut tlb = Tlb::new(4);
        tlb.insert(D0, Vpn(1), FrameId(7), Prot::ReadWrite);
        // Same VPN, different domain: distinct entry (the fbuf region maps
        // the same VA in every domain with different permissions).
        assert_eq!(tlb.lookup(D1, Vpn(1)), None);
        tlb.insert(D1, Vpn(1), FrameId(7), Prot::Read);
        assert_eq!(tlb.lookup(D0, Vpn(1)), Some((FrameId(7), Prot::ReadWrite)));
        assert_eq!(tlb.lookup(D1, Vpn(1)), Some((FrameId(7), Prot::Read)));
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.insert(D0, Vpn(1), FrameId(1), Prot::Read);
        tlb.insert(D0, Vpn(2), FrameId(2), Prot::Read);
        // Touch vpn 1 so vpn 2 is LRU.
        tlb.lookup(D0, Vpn(1));
        tlb.insert(D0, Vpn(3), FrameId(3), Prot::Read);
        assert!(tlb.lookup(D0, Vpn(1)).is_some());
        assert!(tlb.lookup(D0, Vpn(2)).is_none());
        assert!(tlb.lookup(D0, Vpn(3)).is_some());
    }

    #[test]
    fn insert_existing_updates_in_place() {
        let mut tlb = Tlb::new(2);
        tlb.insert(D0, Vpn(1), FrameId(1), Prot::ReadWrite);
        tlb.insert(D0, Vpn(1), FrameId(1), Prot::Read);
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.lookup(D0, Vpn(1)), Some((FrameId(1), Prot::Read)));
    }

    #[test]
    fn invalidate_reports_presence() {
        let mut tlb = Tlb::new(4);
        tlb.insert(D0, Vpn(1), FrameId(1), Prot::Read);
        assert!(tlb.invalidate(D0, Vpn(1)));
        assert!(!tlb.invalidate(D0, Vpn(1)));
        assert!(tlb.is_empty());
    }

    #[test]
    fn invalidate_domain_sweeps_only_that_domain() {
        let mut tlb = Tlb::new(8);
        tlb.insert(D0, Vpn(1), FrameId(1), Prot::Read);
        tlb.insert(D0, Vpn(2), FrameId(2), Prot::Read);
        tlb.insert(D1, Vpn(1), FrameId(1), Prot::Read);
        assert_eq!(tlb.invalidate_domain(D0), 2);
        assert_eq!(tlb.len(), 1);
        assert!(tlb.lookup(D1, Vpn(1)).is_some());
    }

    #[test]
    fn invalidate_range_sweeps_window_in_one_pass() {
        let mut tlb = Tlb::new(8);
        tlb.insert(D0, Vpn(1), FrameId(1), Prot::Read);
        tlb.insert(D0, Vpn(2), FrameId(2), Prot::Read);
        tlb.insert(D0, Vpn(3), FrameId(3), Prot::Read);
        tlb.insert(D0, Vpn(9), FrameId(9), Prot::Read);
        tlb.insert(D1, Vpn(2), FrameId(2), Prot::Read);
        // [1, 4) for D0: removes vpns 1..=3, spares vpn 9 and D1's vpn 2.
        assert_eq!(tlb.invalidate_range(D0, Vpn(1), 3), 3);
        assert_eq!(tlb.len(), 2);
        assert!(tlb.lookup(D0, Vpn(9)).is_some());
        assert!(tlb.lookup(D1, Vpn(2)).is_some());
        // Empty window and re-sweep are no-ops.
        assert_eq!(tlb.invalidate_range(D0, Vpn(1), 0), 0);
        assert_eq!(tlb.invalidate_range(D0, Vpn(1), 3), 0);
    }

    #[test]
    fn thrashing_working_set_misses() {
        // A working set larger than the TLB keeps missing — the effect the
        // paper blames for the third-domain penalty.
        let mut tlb = Tlb::new(4);
        for round in 0..3 {
            for i in 0..8u64 {
                if tlb.lookup(D0, Vpn(i)).is_none() {
                    tlb.insert(D0, Vpn(i), FrameId(i as u32), Prot::Read);
                }
            }
            if round > 0 {
                // After warmup, every access still misses (sequential sweep
                // over 2x capacity with LRU).
                let (_, misses) = tlb.hit_miss();
                assert!(misses >= 8 * (round + 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        Tlb::new(0);
    }
}
