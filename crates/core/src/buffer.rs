//! The fbuf object itself, split into a hot and a cold half.
//!
//! The steady-state cached-loopback loop (alloc hit → send → free → park)
//! touches only a handful of fields per fbuf: the protection state, the
//! owning path, the intrusive parked-list links, and the birth stamp.
//! Those live in [`FbufHot`], which `FbufSystem` stores in a *dense array
//! parallel to the arena slots* — the inner loop (and especially the
//! parked-list neighbor patching) walks one tightly packed lane instead of
//! dragging each buffer's holder vectors and frame table through the
//! cache. Everything else — identity, geometry, frames, holder
//! bookkeeping — is the cold half and stays in [`Fbuf`] inside the arena.

use fbuf_sim::Ns;
use fbuf_vm::{DomainId, FrameId};

use crate::path::PathId;

/// Identifier of an fbuf; also used as the deallocation-notice token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FbufId(pub u64);

/// Protection state of an fbuf with respect to its originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FbufState {
    /// The originator retains write permission; receivers must treat the
    /// contents as potentially changing underneath them (the default).
    Volatile,
    /// Write permission has been removed from the originator (either
    /// eagerly at send time — the "non-volatile" regime — or lazily via
    /// [`crate::FbufSystem::secure`]).
    Secured,
}

/// The hot half of an fbuf: the fields the steady-state cached cycle
/// reads and writes on every operation. Stored by `FbufSystem` in a dense
/// slot-indexed lane parallel to the arena (see the module docs); `Copy`
/// so call sites can snapshot it in one move before taking a mutable
/// borrow of the cold half.
#[derive(Debug, Clone, Copy)]
pub struct FbufHot {
    /// The I/O data path this buffer belongs to (`None` for the uncached
    /// default allocator).
    pub path: Option<PathId>,
    /// Protection state.
    pub state: FbufState,
    /// Intrusive parked-list link toward the cold end (maintained by
    /// `FbufSystem`; meaningful only while `park_linked`).
    pub park_prev: Option<FbufId>,
    /// Intrusive parked-list link toward the hot end.
    pub park_next: Option<FbufId>,
    /// Whether the fbuf is currently linked into the system's parked
    /// (reclaimable) list.
    pub park_linked: bool,
    /// Simulated instant this incarnation was handed out by the
    /// allocator (re-stamped on every cache reuse); the ledger's
    /// buffer-hold time is measured from here to the last release.
    pub born: Ns,
}

impl FbufHot {
    /// A fresh hot record for a buffer just built on `path`.
    pub fn new(path: Option<PathId>, born: Ns) -> FbufHot {
        FbufHot {
            path,
            state: FbufState::Volatile,
            park_prev: None,
            park_next: None,
            park_linked: false,
            born,
        }
    }

    /// True when allocated from a per-path (cached) allocator.
    pub fn is_cached(&self) -> bool {
        self.path.is_some()
    }
}

/// The cold half of one fast buffer: contiguous pages at a fixed virtual
/// address within the globally shared fbuf region. Identity, geometry,
/// frames, and holder bookkeeping — consulted on transfers and teardown
/// but not on every step of the steady-state loop.
#[derive(Debug)]
pub struct Fbuf {
    /// Stable identifier (and notice token).
    pub id: FbufId,
    /// Base virtual address (page aligned, identical in every domain).
    pub va: u64,
    /// Size in pages.
    pub pages: u64,
    /// Requested size in bytes (≤ `pages * page_size`).
    pub len: u64,
    /// The domain that allocated the buffer.
    pub originator: DomainId,
    /// Backing frames; `None` slots were reclaimed by the pageout daemon
    /// while the buffer sat on a free list.
    pub frames: Vec<Option<FrameId>>,
    /// Domains currently holding a reference.
    pub holders: Vec<DomainId>,
    /// Parallel to `holders`: this fbuf's index inside the system's
    /// per-domain held list for the corresponding holder, so releasing a
    /// reference is O(1) instead of a scan (maintained by `FbufSystem`).
    pub held_pos: Vec<usize>,
    /// Domains in which the pages are currently mapped.
    pub mapped_in: Vec<DomainId>,
}

impl Fbuf {
    /// True if `dom` holds a reference.
    pub fn held_by(&self, dom: DomainId) -> bool {
        self.holders.contains(&dom)
    }

    /// True if all frames are resident.
    pub fn resident(&self) -> bool {
        self.frames.iter().all(|f| f.is_some())
    }

    /// The byte range `[va, va+len)` as a tuple.
    pub fn extent(&self) -> (u64, u64) {
        (self.va, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fbuf {
        Fbuf {
            id: FbufId(1),
            va: 0x4000_0000,
            pages: 2,
            len: 5000,
            originator: DomainId(1),
            frames: vec![Some(FrameId(3)), None],
            holders: vec![DomainId(1)],
            held_pos: vec![0],
            mapped_in: vec![DomainId(1)],
        }
    }

    #[test]
    fn accessors() {
        let f = sample();
        assert!(f.held_by(DomainId(1)));
        assert!(!f.held_by(DomainId(2)));
        assert!(!f.resident());
        assert_eq!(f.extent(), (0x4000_0000, 5000));
    }

    #[test]
    fn hot_half_tracks_caching_and_starts_unparked() {
        let h = FbufHot::new(Some(PathId(0)), Ns(7));
        assert!(h.is_cached());
        assert_eq!(h.state, FbufState::Volatile);
        assert!(!h.park_linked);
        assert_eq!(h.born, Ns(7));
        let uncached = FbufHot::new(None, Ns(0));
        assert!(!uncached.is_cached());
    }
}
