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
//!
//! The cold half's lists are [`SmallList`]s sized for the common case, a
//! path of up to [`INLINE_HOLDERS`] domains and a buffer of up to
//! [`INLINE_FRAMES`] pages, so building a record allocates nothing; a
//! longer list spills to the heap.

use std::fmt;
use std::ops::{Deref, DerefMut};

use fbuf_sim::Ns;
use fbuf_vm::{DomainId, FrameId};

use crate::path::PathId;

/// Holders (and mappings) an fbuf record keeps in place: every domain
/// of a path of up to four.
pub const INLINE_HOLDERS: usize = 4;

/// Frames an fbuf record keeps in place: a 16 KB buffer of 4 KB pages,
/// which covers the one-page buffers of the cached fast path. A whole
/// 64 KB chunk (16 frames) would more than double the record and slow
/// the cached cycle, which touches the record but not its frames.
pub const INLINE_FRAMES: usize = 4;

/// A list of up to `N` items kept in place, spilling to a heap `Vec`
/// past that. It reads as a slice. The fbuf record's lists and a
/// message's extents (`fbuf_xkernel::Msg`) are built on it.
pub enum SmallList<T: Copy + Default, const N: usize> {
    /// The first `len` items of `buf`.
    Inline {
        /// Items in use.
        len: u8,
        /// Storage; items past `len` are filler.
        buf: [T; N],
    },
    /// Every item, once more than `N` were pushed.
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    /// An empty list, in place.
    pub fn new() -> Self {
        SmallList::Inline {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// An empty list with room for `n` items: in place up to `N`, on
    /// the heap past that.
    pub fn with_capacity(n: usize) -> Self {
        if n <= N {
            SmallList::new()
        } else {
            SmallList::Heap(Vec::with_capacity(n))
        }
    }

    /// Appends `item`, spilling to the heap when the place is full.
    #[inline]
    pub fn push(&mut self, item: T) {
        match self {
            SmallList::Inline { len, buf } if (*len as usize) < N => {
                buf[*len as usize] = item;
                *len += 1;
            }
            SmallList::Heap(v) => v.push(item),
            SmallList::Inline { .. } => self.spill(item),
        }
    }

    /// Moves a full in-place list to the heap and appends `item`.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, item: T) {
        let mut v = Vec::with_capacity(2 * N);
        v.extend_from_slice(self);
        v.push(item);
        *self = SmallList::Heap(v);
    }

    /// Appends every item of `items`.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        for &item in items {
            self.push(item);
        }
    }

    /// Removes item `i`, moving the last item into its place.
    #[inline]
    pub fn swap_remove(&mut self, i: usize) -> T {
        match self {
            SmallList::Inline { len, buf } => {
                let items = &mut buf[..*len as usize];
                let item = items[i];
                items[i] = items[items.len() - 1];
                *len -= 1;
                item
            }
            SmallList::Heap(v) => v.swap_remove(i),
        }
    }

    /// Keeps the first `n` items.
    #[inline]
    pub fn truncate(&mut self, n: usize) {
        match self {
            SmallList::Inline { len, .. } => *len = (*len as usize).min(n) as u8,
            SmallList::Heap(v) => v.truncate(n),
        }
    }

    /// Empties the list; a spilled list keeps its heap storage.
    #[inline]
    pub fn clear(&mut self) {
        self.truncate(0);
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        SmallList::new()
    }
}

impl<T: Copy + Default, const N: usize> Clone for SmallList<T, N> {
    /// A clone of up to `N` items is in place, whatever the original's
    /// storage.
    fn clone(&self) -> Self {
        let mut out = SmallList::with_capacity(self.len());
        out.extend_from_slice(self);
        out
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallList<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            SmallList::Inline { len, buf } => &buf[..*len as usize],
            SmallList::Heap(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallList<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            SmallList::Inline { len, buf } => &mut buf[..*len as usize],
            SmallList::Heap(v) => v,
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut list = SmallList::new();
        for item in items {
            list.push(item);
        }
        list
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Identifier of an fbuf; also used as the deallocation-notice token.
/// The default id fills unused list slots.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
    /// Domains currently holding a reference.
    pub holders: SmallList<DomainId, INLINE_HOLDERS>,
    /// Parallel to `holders`: this fbuf's index inside the system's
    /// per-domain held list for the corresponding holder, so releasing a
    /// reference is O(1) instead of a scan (maintained by `FbufSystem`).
    pub held_pos: SmallList<u32, INLINE_HOLDERS>,
    /// Domains in which the pages are currently mapped.
    pub mapped_in: SmallList<DomainId, INLINE_HOLDERS>,
    /// Backing frames; `None` slots were reclaimed by the pageout daemon
    /// while the buffer sat on a free list.
    pub frames: SmallList<Option<FrameId>, INLINE_FRAMES>,
}

impl Fbuf {
    /// True if `dom` holds a reference.
    #[inline]
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
            frames: [Some(FrameId(3)), None].into_iter().collect(),
            holders: [DomainId(1)].into_iter().collect(),
            held_pos: [0].into_iter().collect(),
            mapped_in: [DomainId(1)].into_iter().collect(),
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
    fn small_lists_match_a_vec_in_place_and_spilled() {
        // Pushes, swap-removes, truncations and clones driven alike on a
        // list of four and a `Vec`, across the spill to the heap and a
        // clear.
        let mut rng = fbuf_sim::Rng::new(0x510f_b0f5);
        let mut list: SmallList<u32, 4> = SmallList::new();
        let mut model: Vec<u32> = Vec::new();
        for step in 0..2_000u32 {
            match rng.below(10) {
                0..=5 => {
                    list.push(step);
                    model.push(step);
                }
                6..=7 if !model.is_empty() => {
                    let i = rng.index(model.len());
                    assert_eq!(list.swap_remove(i), model.swap_remove(i));
                }
                8 => {
                    let n = rng.index(model.len() + 2);
                    list.truncate(n);
                    model.truncate(n);
                }
                9 if rng.below(4) != 0 => {
                    let copy = list.clone();
                    assert_eq!(
                        matches!(copy, SmallList::Inline { .. }),
                        model.len() <= 4,
                        "a clone of four or fewer is in place"
                    );
                    list = copy;
                }
                _ => {
                    list.clear();
                    model.clear();
                }
            }
            assert_eq!(&*list, &model[..], "step {step}");
        }
        let short: SmallList<u32, 4> = (0..4).collect();
        assert!(
            matches!(short, SmallList::Inline { .. }),
            "four stay in place"
        );
        let long: SmallList<u32, 4> = (0..5).collect();
        assert!(matches!(long, SmallList::Heap(_)), "the fifth spills");
        assert!(matches!(
            SmallList::<u32, 4>::with_capacity(5),
            SmallList::Heap(_)
        ));
        assert_eq!(format!("{long:?}"), "[0, 1, 2, 3, 4]");
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
