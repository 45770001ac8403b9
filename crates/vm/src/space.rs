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

use std::collections::BTreeMap;

use fbuf_sim::fxhash::FxHashMap;

use crate::phys::FrameId;
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

/// A resident translation in the machine-dependent page tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmapEntry {
    /// Backing physical frame.
    pub frame: FrameId,
    /// Current protection (≤ the region's `max_prot`).
    pub prot: Prot,
}

/// The machine-dependent level: resident page → frame + protection.
#[derive(Debug, Default)]
pub struct Pmap {
    entries: FxHashMap<u64, PmapEntry>,
}

impl Pmap {
    /// Installs or replaces a translation.
    pub fn enter(&mut self, vpn: Vpn, frame: FrameId, prot: Prot) {
        self.entries.insert(vpn.0, PmapEntry { frame, prot });
    }

    /// Removes a translation, returning it if present.
    pub fn remove(&mut self, vpn: Vpn) -> Option<PmapEntry> {
        self.entries.remove(&vpn.0)
    }

    /// Looks up a resident translation.
    pub fn lookup(&self, vpn: Vpn) -> Option<PmapEntry> {
        self.entries.get(&vpn.0).copied()
    }

    /// Changes the protection of a resident page, returning the old value.
    pub fn protect(&mut self, vpn: Vpn, prot: Prot) -> Option<Prot> {
        self.entries.get_mut(&vpn.0).map(|e| {
            let old = e.prot;
            e.prot = prot;
            old
        })
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// All resident pages within `[start, start+pages)`, sorted.
    pub fn resident_in(&self, start: Vpn, pages: u64) -> Vec<(Vpn, PmapEntry)> {
        let mut v: Vec<(Vpn, PmapEntry)> = self
            .entries
            .iter()
            .filter(|(&vpn, _)| vpn >= start.0 && vpn < start.0 + pages)
            .map(|(&vpn, &e)| (Vpn(vpn), e))
            .collect();
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
    /// Creates an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace::default()
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
        let mut s = AddressSpace::new();
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
        let mut s = AddressSpace::new();
        s.map_region(Vpn(10), 5, Prot::Read, RegionPolicy::LazyZero)
            .unwrap();
        assert!(s.region_at(Vpn(9)).is_none());
        assert_eq!(s.region_at(Vpn(10)).unwrap().start, Vpn(10));
        assert_eq!(s.region_at(Vpn(14)).unwrap().start, Vpn(10));
        assert!(s.region_at(Vpn(15)).is_none());
    }

    #[test]
    fn unmap_region_returns_entry() {
        let mut s = AddressSpace::new();
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

    #[test]
    fn pmap_enter_lookup_remove() {
        let mut p = Pmap::default();
        p.enter(Vpn(3), FrameId(9), Prot::ReadWrite);
        assert_eq!(
            p.lookup(Vpn(3)),
            Some(PmapEntry {
                frame: FrameId(9),
                prot: Prot::ReadWrite
            })
        );
        assert_eq!(p.resident(), 1);
        let e = p.remove(Vpn(3)).unwrap();
        assert_eq!(e.frame, FrameId(9));
        assert!(p.lookup(Vpn(3)).is_none());
    }

    #[test]
    fn pmap_protect_returns_old() {
        let mut p = Pmap::default();
        p.enter(Vpn(1), FrameId(1), Prot::ReadWrite);
        assert_eq!(p.protect(Vpn(1), Prot::Read), Some(Prot::ReadWrite));
        assert_eq!(p.lookup(Vpn(1)).unwrap().prot, Prot::Read);
        assert_eq!(p.protect(Vpn(99), Prot::Read), None);
    }

    #[test]
    fn pmap_resident_in_range() {
        let mut p = Pmap::default();
        p.enter(Vpn(1), FrameId(1), Prot::Read);
        p.enter(Vpn(5), FrameId(5), Prot::Read);
        p.enter(Vpn(3), FrameId(3), Prot::Read);
        let inside = p.resident_in(Vpn(2), 3);
        assert_eq!(inside.len(), 1);
        assert_eq!(inside[0].0, Vpn(3));
        let all = p.resident_in(Vpn(0), 100);
        assert_eq!(
            all.iter().map(|(v, _)| v.0).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
    }

    #[test]
    fn cow_flag_travels_with_entry() {
        let mut s = AddressSpace::new();
        s.map_region(Vpn(0), 4, Prot::ReadWrite, RegionPolicy::LazyZero)
            .unwrap();
        assert!(!s.region_at(Vpn(0)).unwrap().cow);
        s.region_at_mut(Vpn(2)).unwrap().cow = true;
        assert!(s.region_at(Vpn(3)).unwrap().cow);
    }
}
