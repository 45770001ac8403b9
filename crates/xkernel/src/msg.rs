//! The external message aggregate: an immutable sequence of fbuf extents.
//!
//! All editing operations are logical — they produce new descriptor
//! sequences and never touch payload bytes. "An intermediate layer that
//! prepends or appends new data to a buffer ... instead allocates a new
//! buffer and logically concatenates it to the original buffer" (§2.1.3).

use fbuf::buffer::SmallList;
use fbuf::{FbufId, FbufResult, FbufSystem};
use fbuf_vm::DomainId;

/// A contiguous byte range within one fbuf.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// The buffer.
    pub fbuf: FbufId,
    /// Byte offset within the fbuf.
    pub off: u64,
    /// Length in bytes (never zero in a normalized message).
    pub len: u64,
}

/// Extents a message holds in place; a longer one spills to the heap.
///
/// Four covers every fragment and every message of up to four chunks
/// (256 KB at the calibrated 64 KB chunk) without a heap allocation.
pub const INLINE_EXTENTS: usize = 4;

/// A message's extent list: the first [`INLINE_EXTENTS`] in place, more
/// on the heap. A clone of up to [`INLINE_EXTENTS`] extents is in place,
/// whatever the original's storage.
type Extents = SmallList<Extent, INLINE_EXTENTS>;

/// An immutable message: an ordered aggregate of extents.
///
/// Cheap to clone (descriptors only): up to [`INLINE_EXTENTS`] extents
/// live in the message itself, so fragments and short messages never
/// touch the heap. Reference counting of the underlying fbufs is
/// explicit via [`crate::refs::MsgRefs`].
///
/// # Examples
///
/// Editing never touches payload bytes — headers join, fragments split:
///
/// ```
/// use fbuf::FbufId;
/// use fbuf_xkernel::{Extent, Msg};
///
/// let body = Msg::from_fbuf(FbufId(1), 0, 100);
/// let with_header = body.push_header(Extent { fbuf: FbufId(2), off: 0, len: 8 });
/// assert_eq!(with_header.len(), 108);
///
/// // Fragment at byte 64 (possibly mid-extent) and rejoin losslessly.
/// let (head, tail) = with_header.split(64);
/// assert_eq!(head.len(), 64);
/// assert_eq!(head.concat(&tail).len(), 108);
/// ```
#[derive(Clone)]
pub struct Msg {
    extents: Extents,
}

impl Default for Msg {
    fn default() -> Msg {
        Msg {
            extents: Extents::new(),
        }
    }
}

impl PartialEq for Msg {
    fn eq(&self, other: &Msg) -> bool {
        self.extents() == other.extents()
    }
}

impl Eq for Msg {}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Msg")
            .field("extents", &self.extents())
            .finish()
    }
}

impl Msg {
    /// The empty message.
    pub fn empty() -> Msg {
        Msg::default()
    }

    /// An empty message with room for `n` extents (inline up to
    /// [`INLINE_EXTENTS`]), for building with [`Msg::push`].
    pub fn with_capacity(n: usize) -> Msg {
        Msg {
            extents: Extents::with_capacity(n),
        }
    }

    /// An empty message built in `storage`, emptied first: the heap list
    /// of an earlier message, handed back by [`Msg::into_storage`], so a
    /// long message need not allocate.
    pub fn with_storage(mut storage: Vec<Extent>) -> Msg {
        storage.clear();
        Msg {
            extents: Extents::Heap(storage),
        }
    }

    /// The message's heap extent list, emptied, for reuse by
    /// [`Msg::with_storage`]; `None` when the extents were inline.
    pub fn into_storage(self) -> Option<Vec<Extent>> {
        match self.extents {
            Extents::Inline { .. } => None,
            Extents::Heap(mut v) => {
                v.clear();
                Some(v)
            }
        }
    }

    /// A message covering `[off, off+len)` of one fbuf.
    pub fn from_fbuf(fbuf: FbufId, off: u64, len: u64) -> Msg {
        let mut msg = Msg::empty();
        msg.push(Extent { fbuf, off, len });
        msg
    }

    /// Builds a message from raw extents (zero-length extents dropped).
    pub fn from_extents(mut extents: Vec<Extent>) -> Msg {
        extents.retain(|e| e.len > 0);
        if extents.len() > INLINE_EXTENTS {
            return Msg {
                extents: Extents::Heap(extents),
            };
        }
        let mut msg = Msg::empty();
        msg.extents.extend_from_slice(&extents);
        msg
    }

    /// Appends one extent (dropped if zero-length): how a protocol
    /// builds a message buffer by buffer without re-joining it.
    pub fn push(&mut self, e: Extent) {
        if e.len > 0 {
            self.extents.push(e);
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.extents().iter().map(|e| e.len).sum()
    }

    /// True when the message carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.extents().is_empty()
    }

    /// The extent list.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Number of fragments (extents).
    pub fn fragments(&self) -> usize {
        self.extents().len()
    }

    /// The distinct fbufs referenced, in first-appearance order, without
    /// building a list.
    pub fn distinct_fbufs(&self) -> impl Iterator<Item = FbufId> + '_ {
        let ext = self.extents();
        ext.iter()
            .enumerate()
            .filter(move |&(i, e)| ext[..i].iter().all(|p| p.fbuf != e.fbuf))
            .map(|(_, e)| e.fbuf)
    }

    /// Logical join: `self` followed by `other` (x-kernel `msgJoin`).
    pub fn concat(&self, other: &Msg) -> Msg {
        let mut out = Msg::with_capacity(self.fragments() + other.fragments());
        out.extents.extend_from_slice(self.extents());
        out.extents.extend_from_slice(other.extents());
        out
    }

    /// Prepends a header extent (protocols pushing a header allocate a new
    /// buffer and join it in front).
    pub fn push_header(&self, header: Extent) -> Msg {
        let mut out = Msg::with_capacity(1 + self.fragments());
        out.push(header);
        out.extents.extend_from_slice(self.extents());
        out
    }

    /// Where byte `at` falls: the index of the first extent that ends
    /// past it, and how many of that extent's bytes lie before it
    /// (`None` when `at` is at or past the end).
    fn locate(&self, at: u64) -> Option<(usize, u64)> {
        let mut pos = 0u64;
        for (i, e) in self.extents().iter().enumerate() {
            if pos + e.len > at {
                return Some((i, at.saturating_sub(pos)));
            }
            pos += e.len;
        }
        None
    }

    /// Splits at byte position `at`: returns (`[0, at)`, `[at, len)`)
    /// (x-kernel `msgSplit` / `msgBreak`).
    pub fn split(&self, at: u64) -> (Msg, Msg) {
        let ext = self.extents();
        let Some((i, take)) = self.locate(at) else {
            return (self.clone(), Msg::empty());
        };
        let mut head = Msg::with_capacity(i + 1);
        head.extents.extend_from_slice(&ext[..i]);
        let mut tail = Msg::with_capacity(ext.len() - i);
        let e = ext[i];
        head.push(Extent { len: take, ..e });
        tail.push(Extent {
            off: e.off + take,
            len: e.len - take,
            ..e
        });
        tail.extents.extend_from_slice(&ext[i + 1..]);
        (head, tail)
    }

    /// Removes and returns the first `n` bytes (x-kernel `msgPop`, used to
    /// strip headers). Returns `None` if the message is shorter than `n`.
    pub fn pop(&mut self, n: u64) -> Option<Msg> {
        if self.len() < n {
            return None;
        }
        let (head, tail) = self.split(n);
        *self = tail;
        Some(head)
    }

    /// Keeps only the first `n` bytes (x-kernel `msgTruncate`), in place.
    pub fn truncate(&mut self, n: u64) {
        let Some((i, take)) = self.locate(n) else {
            return;
        };
        if take == 0 {
            self.extents.truncate(i);
        } else {
            self.extents.truncate(i + 1);
            self.extents[i].len = take;
        }
    }

    /// Gathers the message contents by reading through `dom`'s mappings
    /// (charged like any other access; faults if `dom` lacks permission).
    pub fn gather(&self, fbs: &mut FbufSystem, dom: DomainId) -> FbufResult<Vec<u8>> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for e in self.extents() {
            out.extend(fbs.read_fbuf(dom, e.fbuf, e.off, e.len)?);
        }
        Ok(out)
    }

    /// Reads one byte in each page of every extent as `dom` — the paper's
    /// test protocol touching its data — into a stack word, so a touch
    /// costs translation and cache charges but no heap allocation.
    pub fn touch(&self, fbs: &mut FbufSystem, dom: DomainId) -> FbufResult<()> {
        let page = fbs.machine().page_size();
        let mut word = [0u8; 1];
        for e in self.extents() {
            let mut off = 0;
            while off < e.len {
                fbs.read_fbuf_into(dom, e.fbuf, e.off + off, &mut word)?;
                off += page;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(f: u64, off: u64, len: u64) -> Extent {
        Extent {
            fbuf: FbufId(f),
            off,
            len,
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(Msg::empty().is_empty());
        assert_eq!(Msg::from_fbuf(FbufId(1), 0, 0), Msg::empty());
        let m = Msg::from_fbuf(FbufId(1), 100, 50);
        assert_eq!(m.len(), 50);
        assert_eq!(m.fragments(), 1);
    }

    #[test]
    fn concat_preserves_order_and_length() {
        let a = Msg::from_fbuf(FbufId(1), 0, 10);
        let b = Msg::from_fbuf(FbufId(2), 5, 20);
        let c = a.concat(&b);
        assert_eq!(c.len(), 30);
        assert_eq!(c.extents()[0], ext(1, 0, 10));
        assert_eq!(c.extents()[1], ext(2, 5, 20));
    }

    #[test]
    fn split_on_extent_boundary() {
        let m = Msg::from_extents(vec![ext(1, 0, 10), ext(2, 0, 10)]);
        let (h, t) = m.split(10);
        assert_eq!(h.extents(), &[ext(1, 0, 10)]);
        assert_eq!(t.extents(), &[ext(2, 0, 10)]);
    }

    #[test]
    fn split_mid_extent() {
        let m = Msg::from_extents(vec![ext(1, 100, 10)]);
        let (h, t) = m.split(4);
        assert_eq!(h.extents(), &[ext(1, 100, 4)]);
        assert_eq!(t.extents(), &[ext(1, 104, 6)]);
        // Degenerate splits.
        let (h, t) = m.split(0);
        assert!(h.is_empty());
        assert_eq!(t.len(), 10);
        let (h, t) = m.split(10);
        assert_eq!(h.len(), 10);
        assert!(t.is_empty());
        let (h, t) = m.split(999);
        assert_eq!(h.len(), 10);
        assert!(t.is_empty());
    }

    #[test]
    fn pop_strips_header() {
        let mut m = Msg::from_extents(vec![ext(1, 0, 8), ext(2, 0, 100)]);
        let hdr = m.pop(8).unwrap();
        assert_eq!(hdr.extents(), &[ext(1, 0, 8)]);
        assert_eq!(m.len(), 100);
        assert!(m.clone().pop(101).is_none());
    }

    #[test]
    fn push_header_prepends() {
        let m = Msg::from_fbuf(FbufId(2), 0, 100);
        let with = m.push_header(ext(1, 0, 8));
        assert_eq!(with.len(), 108);
        assert_eq!(with.extents()[0].fbuf, FbufId(1));
    }

    #[test]
    fn truncate_clips_tail() {
        let mut m = Msg::from_extents(vec![ext(1, 0, 10), ext(2, 0, 10)]);
        m.truncate(15);
        assert_eq!(m.len(), 15);
        assert_eq!(m.extents()[1], ext(2, 0, 5));
        m.truncate(100);
        assert_eq!(m.len(), 15);
    }

    #[test]
    fn distinct_fbufs_dedupes() {
        let m = Msg::from_extents(vec![ext(1, 0, 4), ext(2, 0, 4), ext(1, 8, 4)]);
        let ids: Vec<FbufId> = m.distinct_fbufs().collect();
        assert_eq!(ids, vec![FbufId(1), FbufId(2)]);
    }

    #[test]
    fn split_never_loses_bytes() {
        let m = Msg::from_extents(vec![ext(1, 0, 7), ext(2, 3, 11), ext(3, 1, 5)]);
        for at in 0..=m.len() {
            let (h, t) = m.split(at);
            assert_eq!(h.len(), at);
            assert_eq!(h.len() + t.len(), m.len());
            // Rejoining restores the logical byte sequence.
            let rejoined = h.concat(&t);
            let flat: Vec<(u64, u64, u64)> = rejoined
                .extents()
                .iter()
                .map(|e| (e.fbuf.0, e.off, e.len))
                .collect();
            // Verify coverage by walking both descriptors.
            let orig_bytes: u64 = m.extents().iter().map(|e| e.len).sum();
            let new_bytes: u64 = flat.iter().map(|&(_, _, l)| l).sum();
            assert_eq!(orig_bytes, new_bytes);
        }
    }
}
