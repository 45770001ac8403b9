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

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use fbuf_sim::MAX_TLB_ENTRIES;

use crate::phys::FrameId;
use crate::types::{DomainId, Prot, Vpn};

/// Where a translation sits in the TLB. A slot stays put while its
/// entry is resident; once the entry goes, the slot may hold another.
/// The page table keeps the slot that last held each translation, and
/// the TLB checks the entry a slot names before it uses it, so a stale
/// slot reads as a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbSlot(u16);

impl TlbSlot {
    /// No slot: a translation not loaded into the TLB since it was entered.
    pub const NONE: TlbSlot = TlbSlot(NIL);
}

/// End of the recency list, and [`TlbSlot::NONE`]'s index: past the
/// last slot of the largest TLB [`MAX_TLB_ENTRIES`] allows.
const NIL: u16 = u16::MAX;

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    domain: DomainId,
    vpn: Vpn,
    frame: FrameId,
    prot: Prot,
    /// False once invalidated: the slot is on the free list.
    live: bool,
    /// The next more recently used entry's slot, or [`NIL`].
    newer: u16,
    /// The next less recently used entry's slot, or [`NIL`].
    older: u16,
}

/// The translation lookaside buffer.
///
/// Entries sit in stable slots, and the caller finds one through the
/// slot its page-table entry recorded: [`Tlb::lookup`], [`Tlb::insert`]
/// and [`Tlb::invalidate`] take that slot and check that the entry in it
/// is live and carries the same `(domain, vpn)`, so there is no index to
/// keep. A doubly linked recency list threaded through the slots keeps
/// the exact least-recently-used order, so replacement evicts the same
/// entry a scan for the oldest use would. A full TLB evicts in place: the
/// new translation takes the victim's slot. An invalidated entry's slot
/// goes on a free list, and no other entry moves.
#[derive(Debug)]
pub struct Tlb {
    capacity: usize,
    entries: Vec<TlbEntry>,
    /// Slots of invalidated entries, to fill before growing `entries`.
    free: Vec<u16>,
    /// Live entries.
    len: usize,
    /// Most recently used slot.
    newest: u16,
    /// Least recently used slot: the next victim.
    oldest: u16,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries (R3000: 64), at most
    /// [`MAX_TLB_ENTRIES`].
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB must have at least one entry");
        assert!(
            capacity <= MAX_TLB_ENTRIES,
            "TLB capacity {capacity} above {MAX_TLB_ENTRIES}"
        );
        Tlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
            newest: NIL,
            oldest: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// The slot `slot` names, if it holds `domain`'s translation of `vpn`.
    #[inline]
    fn find(&self, slot: TlbSlot, domain: DomainId, vpn: Vpn) -> Option<u16> {
        let e = self.entries.get(slot.0 as usize)?;
        (e.live && e.domain == domain && e.vpn == vpn).then_some(slot.0)
    }

    /// Looks up a translation in the slot its page-table entry recorded;
    /// refreshes the entry's LRU position on a hit.
    #[inline]
    pub fn lookup(&mut self, slot: TlbSlot, domain: DomainId, vpn: Vpn) -> Option<(FrameId, Prot)> {
        match self.find(slot, domain, vpn) {
            Some(slot) => {
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

    /// Installs (or, if `slot` holds it, replaces) a translation,
    /// evicting the LRU entry if full. Returns the slot it sits in.
    pub fn insert(
        &mut self,
        slot: TlbSlot,
        domain: DomainId,
        vpn: Vpn,
        frame: FrameId,
        prot: Prot,
    ) -> TlbSlot {
        if let Some(slot) = self.find(slot, domain, vpn) {
            let e = &mut self.entries[slot as usize];
            e.frame = frame;
            e.prot = prot;
            self.make_newest(slot);
            return TlbSlot(slot);
        }
        self.refill(domain, vpn, frame, prot)
    }

    /// Installs a translation the caller knows is absent (a
    /// [`Tlb::lookup`] just missed it), in a free slot or, when the TLB
    /// is full, in the LRU entry's. Returns the slot it sits in.
    pub fn refill(&mut self, domain: DomainId, vpn: Vpn, frame: FrameId, prot: Prot) -> TlbSlot {
        debug_assert!(!self.holds(domain, vpn), "refill of a resident entry");
        let entry = TlbEntry {
            domain,
            vpn,
            frame,
            prot,
            live: true,
            newer: NIL,
            older: NIL,
        };
        let slot = if self.len < self.capacity {
            self.len += 1;
            match self.free.pop() {
                Some(slot) => {
                    self.entries[slot as usize] = entry;
                    slot
                }
                None => {
                    self.entries.push(entry);
                    (self.entries.len() - 1) as u16
                }
            }
        } else {
            let slot = self.oldest;
            let TlbEntry { newer, older, .. } = self.entries[slot as usize];
            self.link(newer, older);
            self.entries[slot as usize] = entry;
            slot
        };
        self.push_newest(slot);
        TlbSlot(slot)
    }

    /// Removes one translation, found through its slot; returns whether
    /// it was present (a present entry is what makes a consistency flush
    /// necessary and costly).
    #[inline]
    pub fn invalidate(&mut self, slot: TlbSlot, domain: DomainId, vpn: Vpn) -> bool {
        match self.find(slot, domain, vpn) {
            Some(slot) => {
                self.remove(slot);
                true
            }
            None => false,
        }
    }

    /// Removes every translation belonging to `domain` (domain teardown)
    /// in one walk over the slots. Returns how many entries were removed.
    pub fn invalidate_domain(&mut self, domain: DomainId) -> usize {
        let before = self.len;
        for slot in 0..self.entries.len() {
            let e = &self.entries[slot];
            if e.live && e.domain == domain {
                self.remove(slot as u16);
            }
        }
        before - self.len
    }

    /// Drops everything (full flush).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.free.clear();
        self.len = 0;
        self.newest = NIL;
        self.oldest = NIL;
    }

    /// Number of currently resident translations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no translations are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// (hits, misses) since creation.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// True if `domain`'s translation of `vpn` is resident, in any slot:
    /// a walk over the slots, for assertions.
    pub(crate) fn holds(&self, domain: DomainId, vpn: Vpn) -> bool {
        self.entries
            .iter()
            .any(|e| e.live && e.domain == domain && e.vpn == vpn)
    }

    /// The resident translations as `(domain, vpn, frame, prot)`, most
    /// recently used first (diagnostics and the reference-model tests).
    pub fn resident(&self) -> Vec<(DomainId, Vpn, FrameId, Prot)> {
        let mut out = Vec::with_capacity(self.len);
        let mut slot = self.newest;
        while slot != NIL {
            let e = &self.entries[slot as usize];
            out.push((e.domain, e.vpn, e.frame, e.prot));
            slot = e.older;
        }
        out
    }

    /// Unlinks the entry in `slot` and frees the slot.
    fn remove(&mut self, slot: u16) {
        let e = &mut self.entries[slot as usize];
        e.live = false;
        let (newer, older) = (e.newer, e.older);
        self.link(newer, older);
        self.free.push(slot);
        self.len -= 1;
    }

    /// Moves `slot` to the head of the recency list.
    fn make_newest(&mut self, slot: u16) {
        if self.newest != slot {
            let TlbEntry { newer, older, .. } = self.entries[slot as usize];
            self.link(newer, older);
            self.push_newest(slot);
        }
    }

    fn push_newest(&mut self, slot: u16) {
        let head = self.newest;
        self.link(slot, head);
        self.link(NIL, slot);
    }

    /// Makes `older` the entry after `newer` in the recency list; [`NIL`]
    /// on either side stands for the list's end, so the head or the tail
    /// pointer is set instead.
    fn link(&mut self, newer: u16, older: u16) {
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
    const NONE: TlbSlot = TlbSlot::NONE;

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(NONE, D0, Vpn(1)), None);
        let s = tlb.insert(NONE, D0, Vpn(1), FrameId(7), Prot::Read);
        assert_eq!(tlb.lookup(s, D0, Vpn(1)), Some((FrameId(7), Prot::Read)));
        assert_eq!(tlb.hit_miss(), (1, 1));
    }

    #[test]
    fn entries_are_domain_tagged() {
        let mut tlb = Tlb::new(4);
        let s0 = tlb.insert(NONE, D0, Vpn(1), FrameId(7), Prot::ReadWrite);
        // Same VPN, different domain: distinct entry (the fbuf region maps
        // the same VA in every domain with different permissions), and
        // D0's slot does not answer for D1.
        assert_eq!(tlb.lookup(s0, D1, Vpn(1)), None);
        let s1 = tlb.insert(NONE, D1, Vpn(1), FrameId(7), Prot::Read);
        assert_ne!(s0, s1);
        assert_eq!(
            tlb.lookup(s0, D0, Vpn(1)),
            Some((FrameId(7), Prot::ReadWrite))
        );
        assert_eq!(tlb.lookup(s1, D1, Vpn(1)), Some((FrameId(7), Prot::Read)));
    }

    #[test]
    fn lru_eviction_reuses_the_victims_slot() {
        let mut tlb = Tlb::new(2);
        let s1 = tlb.insert(NONE, D0, Vpn(1), FrameId(1), Prot::Read);
        let s2 = tlb.insert(NONE, D0, Vpn(2), FrameId(2), Prot::Read);
        // Touch vpn 1 so vpn 2 is LRU.
        tlb.lookup(s1, D0, Vpn(1));
        let s3 = tlb.insert(NONE, D0, Vpn(3), FrameId(3), Prot::Read);
        assert_eq!(s3, s2, "evicted in place");
        assert!(tlb.lookup(s1, D0, Vpn(1)).is_some());
        // Vpn 2's recorded slot now holds vpn 3: a miss.
        assert!(tlb.lookup(s2, D0, Vpn(2)).is_none());
        assert!(tlb.lookup(s3, D0, Vpn(3)).is_some());
    }

    #[test]
    fn insert_existing_updates_in_place() {
        let mut tlb = Tlb::new(2);
        let s = tlb.insert(NONE, D0, Vpn(1), FrameId(1), Prot::ReadWrite);
        assert_eq!(tlb.insert(s, D0, Vpn(1), FrameId(1), Prot::Read), s);
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.lookup(s, D0, Vpn(1)), Some((FrameId(1), Prot::Read)));
    }

    #[test]
    fn invalidate_reports_presence() {
        let mut tlb = Tlb::new(4);
        let s = tlb.insert(NONE, D0, Vpn(1), FrameId(1), Prot::Read);
        assert!(tlb.invalidate(s, D0, Vpn(1)));
        assert!(!tlb.invalidate(s, D0, Vpn(1)));
        assert!(tlb.is_empty());
    }

    #[test]
    fn a_stale_slot_reads_as_a_miss() {
        let mut tlb = Tlb::new(4);
        let a = tlb.insert(NONE, D0, Vpn(1), FrameId(1), Prot::Read);
        assert!(tlb.invalidate(a, D0, Vpn(1)));
        // The freed slot is filled first, by another translation.
        let b = tlb.insert(NONE, D1, Vpn(2), FrameId(2), Prot::Read);
        assert_eq!(a, b);
        assert_eq!(tlb.lookup(a, D0, Vpn(1)), None);
        assert!(!tlb.invalidate(a, D0, Vpn(1)));
        assert_eq!(
            tlb.insert(a, D0, Vpn(1), FrameId(1), Prot::Read),
            TlbSlot(1)
        );
        assert_eq!(tlb.len(), 2);
        assert!(tlb.holds(D1, Vpn(2)) && tlb.holds(D0, Vpn(1)));
        // A slot past the entries, and none, miss too.
        assert_eq!(tlb.lookup(TlbSlot(3), D0, Vpn(1)), None);
        assert_eq!(tlb.lookup(NONE, D0, Vpn(1)), None);
    }

    #[test]
    fn invalidate_domain_sweeps_only_that_domain() {
        let mut tlb = Tlb::new(8);
        tlb.insert(NONE, D0, Vpn(1), FrameId(1), Prot::Read);
        tlb.insert(NONE, D0, Vpn(2), FrameId(2), Prot::Read);
        let s = tlb.insert(NONE, D1, Vpn(1), FrameId(1), Prot::Read);
        assert_eq!(tlb.invalidate_domain(D0), 2);
        assert_eq!(tlb.len(), 1);
        assert!(tlb.lookup(s, D1, Vpn(1)).is_some());
    }

    #[test]
    fn thrashing_working_set_misses() {
        // A working set larger than the TLB keeps missing — the effect the
        // paper blames for the third-domain penalty.
        let mut tlb = Tlb::new(4);
        let mut slots = [NONE; 8];
        for round in 0..3 {
            for i in 0..8u64 {
                let slot = &mut slots[i as usize];
                if tlb.lookup(*slot, D0, Vpn(i)).is_none() {
                    *slot = tlb.refill(D0, Vpn(i), FrameId(i as u32), Prot::Read);
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

    #[test]
    #[should_panic(expected = "above")]
    fn capacity_past_the_slot_range_rejected() {
        Tlb::new(MAX_TLB_ENTRIES + 1);
    }
}
