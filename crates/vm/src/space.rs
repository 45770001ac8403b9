//! Per-domain address spaces: the two-level map/pmap structure.
//!
//! The paper argues that "portability concerns have caused virtually all
//! modern operating systems to employ a two-level virtual memory system",
//! where mapping changes must update both a high-level machine-independent
//! map and low-level machine-dependent page tables — and that this is what
//! makes per-page mapping operations expensive. The structure is reproduced
//! here: region-granularity [`MapEntry`]s over a page-granularity [`Pmap`].
//!
//! This module is pure state; cost charging happens in [`crate::Machine`].

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use std::collections::BTreeMap;

use fbuf_sim::fxhash::FxHashMap;

use crate::phys::FrameId;
use crate::tlb::TlbSlot;
use crate::types::{Fault, Prot, VmResult, Vpn};

/// Policy attached to a machine-independent map entry, deciding how faults
/// within the region are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionPolicy {
    /// Anonymous memory: first touch takes a soft fault that allocates and
    /// zero-fills a frame.
    LazyZero,
    /// Fbuf-region chunk owned by this domain: like [`RegionPolicy::LazyZero`]
    /// (the fbuf region "is pageable like ordinary virtual memory, with
    /// physical memory allocated lazily upon access").
    FbufChunk,
    /// Fbuf-region address range seen by a *receiver*: reads of pages the
    /// receiver has no mapping for are satisfied by mapping a synthetic
    /// null page ("invalid DAG references appear to the receiver as the
    /// absence of data", paper §3.2.4); writes fault.
    NullRead,
    /// Mappings are only ever installed explicitly; any fault is an error.
    Explicit,
}

/// A machine-independent map entry: a contiguous region of virtual pages
/// with a policy and a maximum protection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapEntry {
    /// First page of the region.
    pub start: Vpn,
    /// Length in pages.
    pub pages: u64,
    /// Upper bound on the protection of any resident mapping inside.
    pub max_prot: Prot,
    /// Fault-resolution policy.
    pub policy: RegionPolicy,
    /// Marked by the COW facility: resident pages are logically shared and
    /// a write inside must fork the frame.
    pub cow: bool,
}

impl MapEntry {
    /// True if `vpn` lies inside this region.
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn.0 >= self.start.0 && vpn.0 < self.start.0 + self.pages
    }

    /// Exclusive end page.
    pub fn end(&self) -> Vpn {
        Vpn(self.start.0 + self.pages)
    }
}

/// A resident translation in the machine-dependent page tables: eight
/// bytes, so a leaf of sixteen costs 128.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmapEntry {
    /// Backing physical frame.
    pub frame: FrameId,
    /// Current protection (≤ the region's `max_prot`).
    pub prot: Prot,
    /// The TLB slot that last held this translation. It may be stale:
    /// the TLB checks the entry it names before using it.
    pub slot: TlbSlot,
}

const _: () = assert!(std::mem::size_of::<Option<PmapEntry>>() == 8);

/// A directory slot whose chunk has no leaf.
const NO_LEAF: u32 = u32::MAX;

/// The machine-dependent level: resident page → frame + protection.
///
/// Over the fbuf window, which every domain maps at the same address
/// (paper §3.2.2), it is a two-level table: a directory with one slot per
/// chunk, and a leaf of one entry per page for each chunk the domain has
/// mapped a page in. A translation there is a shift, a mask and two
/// array reads, with no hashing. (A chunk whose page count is not a power
/// of two gets a slot per largest power-of-two part of it.) The directory
/// spans only the chunks from the lowest to the highest one mapped, and a
/// leaf, once made, stays for the domain's life. Pages outside the window
/// go to a keyed fallback.
#[derive(Debug, Default)]
pub struct Pmap {
    /// First page of the window.
    base: u64,
    /// Pages in the window (0: no window, every page is keyed).
    pages: u64,
    /// Log2 of a leaf's length in pages: a chunk's page count, or its
    /// largest power-of-two part.
    leaf_shift: u32,
    /// The chunk `dir` starts at.
    dir_first: usize,
    /// Per chunk from `dir_first`, the index of its leaf in `leaves`, or
    /// [`NO_LEAF`].
    dir: Vec<u32>,
    /// The leaves, one entry per page each, back to back.
    leaves: Vec<Option<PmapEntry>>,
    /// Translations outside the window.
    outside: FxHashMap<u64, PmapEntry>,
    resident: usize,
}

/// Where a page's entry lives.
enum Place {
    /// In the window: chunk and page within it.
    Window(usize, usize),
    /// Outside the window.
    Outside,
}

impl Pmap {
    /// A pmap whose window is the `pages` pages from `base`, in chunks of
    /// `chunk_pages` pages.
    pub fn with_window(base: Vpn, pages: u64, chunk_pages: u64) -> Pmap {
        assert!(
            chunk_pages > 0 && pages.is_multiple_of(chunk_pages),
            "the window is not a whole number of chunks"
        );
        Pmap {
            base: base.0,
            pages,
            leaf_shift: chunk_pages.trailing_zeros(),
            ..Pmap::default()
        }
    }

    /// Entries in a leaf.
    #[inline]
    fn leaf_len(&self) -> usize {
        1 << self.leaf_shift
    }

    #[inline]
    fn place(&self, vpn: Vpn) -> Place {
        let off = vpn.0.wrapping_sub(self.base);
        if off < self.pages {
            let page = off as usize & (self.leaf_len() - 1);
            Place::Window((off >> self.leaf_shift) as usize, page)
        } else {
            Place::Outside
        }
    }

    /// The index in `leaves` of the first entry of `chunk`'s leaf.
    #[inline]
    fn leaf(&self, chunk: usize) -> Option<usize> {
        match self.dir.get(chunk.wrapping_sub(self.dir_first)) {
            Some(&leaf) if leaf != NO_LEAF => Some((leaf as usize) << self.leaf_shift),
            _ => None,
        }
    }

    /// [`Pmap::leaf`], making the leaf if the chunk has none.
    fn leaf_or_make(&mut self, chunk: usize) -> usize {
        if self.dir.is_empty() {
            self.dir_first = chunk;
        } else if chunk < self.dir_first {
            let below = std::iter::repeat_n(NO_LEAF, self.dir_first - chunk);
            self.dir.splice(0..0, below);
            self.dir_first = chunk;
        }
        let i = chunk - self.dir_first;
        if i >= self.dir.len() {
            self.dir.resize(i + 1, NO_LEAF);
        }
        if self.dir[i] == NO_LEAF {
            self.dir[i] = (self.leaves.len() >> self.leaf_shift) as u32;
            self.leaves
                .resize(self.leaves.len() + self.leaf_len(), None);
        }
        (self.dir[i] as usize) << self.leaf_shift
    }

    /// Installs a translation with no TLB slot, returning the one it
    /// replaces.
    #[inline]
    pub fn enter(&mut self, vpn: Vpn, frame: FrameId, prot: Prot) -> Option<PmapEntry> {
        let new = PmapEntry {
            frame,
            prot,
            slot: TlbSlot::NONE,
        };
        let old = match self.place(vpn) {
            Place::Window(chunk, page) => {
                let leaf = self.leaf_or_make(chunk);
                self.leaves[leaf + page].replace(new)
            }
            Place::Outside => self.outside.insert(vpn.0, new),
        };
        if old.is_none() {
            self.resident += 1;
        }
        old
    }

    /// Removes a translation, returning it if present.
    #[inline]
    pub fn remove(&mut self, vpn: Vpn) -> Option<PmapEntry> {
        let old = match self.place(vpn) {
            Place::Window(chunk, page) => {
                let leaf = self.leaf(chunk)?;
                self.leaves[leaf + page].take()
            }
            Place::Outside => self.outside.remove(&vpn.0),
        };
        if old.is_some() {
            self.resident -= 1;
        }
        old
    }

    /// Looks up a resident translation.
    #[inline]
    pub fn lookup(&self, vpn: Vpn) -> Option<PmapEntry> {
        match self.place(vpn) {
            Place::Window(chunk, page) => self.leaves[self.leaf(chunk)? + page],
            Place::Outside => self.outside.get(&vpn.0).copied(),
        }
    }

    /// The resident translation at `vpn`, to change in place.
    #[inline]
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut PmapEntry> {
        match self.place(vpn) {
            Place::Window(chunk, page) => {
                let leaf = self.leaf(chunk)?;
                self.leaves[leaf + page].as_mut()
            }
            Place::Outside => self.outside.get_mut(&vpn.0),
        }
    }

    /// Sets the protection of the `pages` pages from `start`, handing
    /// each page, its old protection and its TLB slot to `changed`. All
    /// must be resident: otherwise nothing changes and the first page
    /// that is not comes back as the error.
    pub fn protect_range(
        &mut self,
        start: Vpn,
        pages: u64,
        prot: Prot,
        mut changed: impl FnMut(Vpn, Prot, TlbSlot),
    ) -> Result<(), Vpn> {
        let vpns = (start.0..start.0 + pages).map(Vpn);
        if let Some(hole) = vpns.clone().find(|&vpn| self.lookup(vpn).is_none()) {
            return Err(hole);
        }
        for vpn in vpns {
            if let Some(e) = self.get_mut(vpn) {
                changed(vpn, e.prot, e.slot);
                e.prot = prot;
            }
        }
        Ok(())
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Number of window leaves this pmap holds.
    pub fn leaves(&self) -> usize {
        self.leaves.len() >> self.leaf_shift
    }

    /// All resident pages within `[start, start+pages)`, sorted.
    pub fn resident_in(&self, start: Vpn, pages: u64) -> Vec<(Vpn, PmapEntry)> {
        let (lo, hi) = (start.0, start.0 + pages);
        let mut v: Vec<(Vpn, PmapEntry)> = self
            .outside
            .iter()
            .filter(|(&vpn, _)| vpn >= lo && vpn < hi)
            .map(|(&vpn, &e)| (Vpn(vpn), e))
            .collect();
        for (i, &leaf) in self.dir.iter().enumerate() {
            if leaf == NO_LEAF {
                continue;
            }
            let first = self.base + ((self.dir_first + i) << self.leaf_shift) as u64;
            let entries = &self.leaves[(leaf as usize) << self.leaf_shift..][..self.leaf_len()];
            for (vpn, e) in (first..).zip(entries) {
                if let (Some(e), true) = (e, vpn >= lo && vpn < hi) {
                    v.push((Vpn(vpn), *e));
                }
            }
        }
        v.sort_by_key(|(vpn, _)| vpn.0);
        v
    }
}

/// One domain's address space: regions over a pmap.
#[derive(Debug, Default)]
pub struct AddressSpace {
    regions: BTreeMap<u64, MapEntry>,
    /// The machine-dependent level.
    pub pmap: Pmap,
}

impl AddressSpace {
    /// Creates an empty address space over `pmap`.
    pub fn with_pmap(pmap: Pmap) -> AddressSpace {
        AddressSpace {
            regions: BTreeMap::new(),
            pmap,
        }
    }

    /// Adds a region; fails if it overlaps an existing one.
    pub fn map_region(
        &mut self,
        start: Vpn,
        pages: u64,
        max_prot: Prot,
        policy: RegionPolicy,
    ) -> VmResult<()> {
        assert!(pages > 0, "empty region");
        // Check the candidate against its neighbours on both sides.
        if let Some((_, prev)) = self.regions.range(..=start.0).next_back() {
            if prev.end().0 > start.0 {
                return Err(Fault::RegionOverlap {
                    existing_va: prev.start.0,
                });
            }
        }
        if let Some((_, next)) = self.regions.range(start.0 + 1..).next() {
            if next.start.0 < start.0 + pages {
                return Err(Fault::RegionOverlap {
                    existing_va: next.start.0,
                });
            }
        }
        self.regions.insert(
            start.0,
            MapEntry {
                start,
                pages,
                max_prot,
                policy,
                cow: false,
            },
        );
        Ok(())
    }

    /// Removes the region starting exactly at `start`, returning it.
    pub fn unmap_region(&mut self, start: Vpn) -> VmResult<MapEntry> {
        self.regions
            .remove(&start.0)
            .ok_or(Fault::NoSuchRegion { va: start.0 })
    }

    /// The region containing `vpn`, if any.
    pub fn region_at(&self, vpn: Vpn) -> Option<&MapEntry> {
        self.regions
            .range(..=vpn.0)
            .next_back()
            .map(|(_, e)| e)
            .filter(|e| e.contains(vpn))
    }

    /// Mutable access to the region containing `vpn`.
    pub fn region_at_mut(&mut self, vpn: Vpn) -> Option<&mut MapEntry> {
        self.regions
            .range_mut(..=vpn.0)
            .next_back()
            .map(|(_, e)| e)
            .filter(|e| e.contains(vpn))
    }

    /// All regions, in address order.
    pub fn regions(&self) -> impl Iterator<Item = &MapEntry> {
        self.regions.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut s = AddressSpace::default();
        s.map_region(Vpn(10), 5, Prot::ReadWrite, RegionPolicy::LazyZero)
            .unwrap();
        // Exactly adjacent regions are fine.
        s.map_region(Vpn(15), 5, Prot::Read, RegionPolicy::Explicit)
            .unwrap();
        s.map_region(Vpn(5), 5, Prot::Read, RegionPolicy::Explicit)
            .unwrap();
        // Overlaps from either side are rejected.
        assert!(matches!(
            s.map_region(Vpn(12), 1, Prot::Read, RegionPolicy::Explicit),
            Err(Fault::RegionOverlap { .. })
        ));
        assert!(matches!(
            s.map_region(Vpn(8), 4, Prot::Read, RegionPolicy::Explicit),
            Err(Fault::RegionOverlap { .. })
        ));
        assert!(matches!(
            s.map_region(Vpn(0), 100, Prot::Read, RegionPolicy::Explicit),
            Err(Fault::RegionOverlap { .. })
        ));
    }

    #[test]
    fn region_lookup_by_page() {
        let mut s = AddressSpace::default();
        s.map_region(Vpn(10), 5, Prot::Read, RegionPolicy::LazyZero)
            .unwrap();
        assert!(s.region_at(Vpn(9)).is_none());
        assert_eq!(s.region_at(Vpn(10)).unwrap().start, Vpn(10));
        assert_eq!(s.region_at(Vpn(14)).unwrap().start, Vpn(10));
        assert!(s.region_at(Vpn(15)).is_none());
    }

    #[test]
    fn unmap_region_returns_entry() {
        let mut s = AddressSpace::default();
        s.map_region(Vpn(10), 5, Prot::Read, RegionPolicy::LazyZero)
            .unwrap();
        let e = s.unmap_region(Vpn(10)).unwrap();
        assert_eq!(e.pages, 5);
        assert!(s.region_at(Vpn(12)).is_none());
        assert!(matches!(
            s.unmap_region(Vpn(10)),
            Err(Fault::NoSuchRegion { .. })
        ));
    }

    fn entry(frame: u32, prot: Prot) -> PmapEntry {
        PmapEntry {
            frame: FrameId(frame),
            prot,
            slot: TlbSlot::NONE,
        }
    }

    /// A window of four 4-page chunks at page 100, so every test runs on
    /// both sides of its edges.
    fn windowed() -> Pmap {
        Pmap::with_window(Vpn(100), 16, 4)
    }

    #[test]
    fn pmap_enter_lookup_remove() {
        for mut p in [Pmap::default(), windowed()] {
            for vpn in [Vpn(3), Vpn(100), Vpn(115), Vpn(116)] {
                assert_eq!(p.enter(vpn, FrameId(9), Prot::ReadWrite), None);
                assert_eq!(p.lookup(vpn), Some(entry(9, Prot::ReadWrite)));
                assert_eq!(p.resident(), 1);
                assert_eq!(
                    p.enter(vpn, FrameId(8), Prot::Read),
                    Some(entry(9, Prot::ReadWrite))
                );
                assert_eq!(p.resident(), 1);
                assert_eq!(p.remove(vpn).unwrap().frame, FrameId(8));
                assert!(p.lookup(vpn).is_none());
                assert!(p.remove(vpn).is_none());
                assert_eq!(p.resident(), 0);
            }
        }
    }

    #[test]
    fn pmap_entries_keep_their_tlb_slot() {
        let mut tlb = crate::tlb::Tlb::new(4);
        let dom = crate::types::DomainId(1);
        let mut p = windowed();
        for vpn in [Vpn(7), Vpn(101)] {
            p.enter(vpn, FrameId(1), Prot::Read);
            let slot = tlb.refill(dom, vpn, FrameId(1), Prot::Read);
            p.get_mut(vpn).unwrap().slot = slot;
            assert_eq!(p.lookup(vpn).unwrap().slot, slot);
            // A re-entered translation starts with none.
            p.enter(vpn, FrameId(2), Prot::Read);
            assert_eq!(p.lookup(vpn).unwrap().slot, TlbSlot::NONE);
        }
        assert!(p.get_mut(Vpn(102)).is_none());
        assert!(p.get_mut(Vpn(8)).is_none());
    }

    #[test]
    fn pmap_makes_a_leaf_per_chunk_mapped() {
        let mut p = windowed();
        assert_eq!(p.leaves(), 0);
        // The top page of the window: one leaf, however far up.
        p.enter(Vpn(115), FrameId(1), Prot::Read);
        assert_eq!(p.leaves(), 1);
        p.enter(Vpn(112), FrameId(2), Prot::Read);
        assert_eq!(p.leaves(), 1);
        p.enter(Vpn(100), FrameId(3), Prot::Read);
        assert_eq!(p.leaves(), 2);
        // Pages past either edge are keyed, and make no leaf.
        p.enter(Vpn(99), FrameId(4), Prot::Read);
        p.enter(Vpn(116), FrameId(5), Prot::Read);
        assert_eq!(p.leaves(), 2);
        assert_eq!(p.resident(), 5);
        // A leaf stays once made; lookups in a chunk without one miss.
        p.remove(Vpn(100));
        assert_eq!(p.leaves(), 2);
        assert!(p.lookup(Vpn(104)).is_none());
        assert_eq!(p.lookup(Vpn(115)).unwrap().frame, FrameId(1));
        assert_eq!(p.lookup(Vpn(112)).unwrap().frame, FrameId(2));
    }

    #[test]
    fn pmap_leaves_split_a_chunk_of_no_power_of_two() {
        // Six-page chunks: a leaf is two pages, so a page costs a leaf
        // of two.
        let mut p = Pmap::with_window(Vpn(100), 12, 6);
        p.enter(Vpn(105), FrameId(1), Prot::Read);
        p.enter(Vpn(111), FrameId(2), Prot::Read);
        assert_eq!(p.leaves(), 2);
        assert_eq!(p.lookup(Vpn(105)).unwrap().frame, FrameId(1));
        assert_eq!(p.lookup(Vpn(111)).unwrap().frame, FrameId(2));
        assert!(p.lookup(Vpn(104)).is_none());
        assert_eq!(
            p.resident_in(Vpn(100), 12)
                .iter()
                .map(|(v, _)| v.0)
                .collect::<Vec<_>>(),
            vec![105, 111]
        );
    }

    #[test]
    fn pmap_protect_range_is_all_or_nothing() {
        let mut p = windowed();
        for vpn in [98, 99, 100, 101] {
            p.enter(Vpn(vpn), FrameId(vpn as u32), Prot::ReadWrite);
        }
        p.get_mut(Vpn(99)).unwrap().prot = Prot::Read;
        // Page 102 is a hole: nothing changes, and it is named.
        let mut seen = Vec::new();
        assert_eq!(
            p.protect_range(Vpn(98), 5, Prot::Read, |v, old, _| seen.push((v, old))),
            Err(Vpn(102))
        );
        assert!(seen.is_empty());
        assert_eq!(p.lookup(Vpn(98)).unwrap().prot, Prot::ReadWrite);
        // Across the window's edge, each page reports its old protection.
        p.protect_range(Vpn(98), 4, Prot::Read, |v, old, _| seen.push((v, old)))
            .unwrap();
        assert_eq!(
            seen,
            vec![
                (Vpn(98), Prot::ReadWrite),
                (Vpn(99), Prot::Read),
                (Vpn(100), Prot::ReadWrite),
                (Vpn(101), Prot::ReadWrite)
            ]
        );
        assert!((98..102).all(|v| p.lookup(Vpn(v)).unwrap().prot == Prot::Read));
    }

    #[test]
    fn pmap_resident_in_range() {
        for mut p in [Pmap::default(), windowed()] {
            for vpn in [1, 5, 3, 99, 100, 103, 104, 116] {
                p.enter(Vpn(vpn), FrameId(vpn as u32), Prot::Read);
            }
            let inside = p.resident_in(Vpn(2), 3);
            assert_eq!(inside.len(), 1);
            assert_eq!(inside[0].0, Vpn(3));
            let edge = p.resident_in(Vpn(99), 5);
            assert_eq!(
                edge.iter().map(|(v, _)| v.0).collect::<Vec<_>>(),
                vec![99, 100, 103]
            );
            let all = p.resident_in(Vpn(0), 200);
            assert_eq!(
                all.iter().map(|(v, _)| v.0).collect::<Vec<_>>(),
                vec![1, 3, 5, 99, 100, 103, 104, 116]
            );
        }
    }

    #[test]
    fn cow_flag_travels_with_entry() {
        let mut s = AddressSpace::default();
        s.map_region(Vpn(0), 4, Prot::ReadWrite, RegionPolicy::LazyZero)
            .unwrap();
        assert!(!s.region_at(Vpn(0)).unwrap().cow);
        s.region_at_mut(Vpn(2)).unwrap().cow = true;
        assert!(s.region_at(Vpn(3)).unwrap().cow);
    }
}
