//! IP-style fragmentation and reassembly over message aggregates.
//!
//! "IP fragments large messages into PDUs of 4 KBytes. ... Fragmentation
//! need not disturb the original buffer holding the ADU; each fragment can
//! be represented by an offset/length into the original buffer." (§2.1.1,
//! §4) — fragments here are zero-copy [`Msg::split`] descriptors, and
//! reassembly is a zero-copy concatenation of fragment messages.

use fbuf_xkernel::msg::INLINE_EXTENTS;
use fbuf_xkernel::{Extent, Msg};

/// Per-fragment IP header (the fields the reproduction needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpHeader {
    /// Datagram identifier (shared by all fragments of one datagram).
    pub datagram: u64,
    /// Byte offset of this fragment within the datagram.
    pub offset: u64,
    /// Total datagram length in bytes.
    pub total_len: u64,
    /// More fragments follow.
    pub more: bool,
}

/// Splits `msg` into fragments of at most `pdu` bytes, yielding the
/// header/body pairs in order. Zero-copy: bodies are descriptor slices of
/// the original message, cut as the iterator advances, so fragmenting
/// builds no list and copies each extent descriptor once.
pub fn fragment(msg: &Msg, datagram: u64, pdu: u64) -> Fragments<'_> {
    assert!(pdu > 0, "PDU size must be positive");
    Fragments {
        extents: msg.extents(),
        skip: 0,
        datagram,
        offset: 0,
        total_len: msg.len(),
        pdu,
    }
}

/// The fragments of one datagram, cut lazily (see [`fragment`]).
#[derive(Debug, Clone)]
pub struct Fragments<'a> {
    /// Extents not yet wholly fragmented; the first has `skip` bytes
    /// already cut.
    extents: &'a [Extent],
    skip: u64,
    datagram: u64,
    offset: u64,
    total_len: u64,
    pdu: u64,
}

impl Iterator for Fragments<'_> {
    type Item = (IpHeader, Msg);

    fn next(&mut self) -> Option<(IpHeader, Msg)> {
        if self.offset >= self.total_len {
            return None;
        }
        let mut body = Msg::empty();
        let mut want = self.pdu.min(self.total_len - self.offset);
        while want > 0 {
            let e = self.extents[0];
            let n = (e.len - self.skip).min(want);
            body.push(Extent {
                off: e.off + self.skip,
                len: n,
                ..e
            });
            want -= n;
            self.skip += n;
            if self.skip == e.len {
                self.extents = &self.extents[1..];
                self.skip = 0;
            }
        }
        let hdr = IpHeader {
            datagram: self.datagram,
            offset: self.offset,
            total_len: self.total_len,
            more: self.offset + body.len() < self.total_len,
        };
        self.offset += body.len();
        Some((hdr, body))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.total_len - self.offset).div_ceil(self.pdu) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Fragments<'_> {}

/// One datagram being reassembled.
#[derive(Debug, Default)]
struct Partial {
    datagram: u64,
    total_len: u64,
    have: u64,
    /// Fragments sorted by byte offset, so reassembly walks them in order.
    fragments: Vec<(u64, Msg)>,
}

/// Reassembles datagrams from (possibly out-of-order, possibly duplicated)
/// fragments.
///
/// Its lists are reused: a finished datagram's fragment list serves the
/// next one, and the extent list of a delivered message handed back
/// through [`Reassembler::recycle`] holds the next long one, so a warmed
/// reassembler allocates nothing.
#[derive(Debug, Default)]
pub struct Reassembler {
    /// Partial datagrams sorted by id; ids grow with age, so the first is
    /// oldest.
    partials: Vec<Partial>,
    /// Fragment lists of finished partials, for the next datagrams.
    spare_fragments: Vec<Vec<(u64, Msg)>>,
    /// Extent lists of recycled messages, for the next long datagrams.
    spare_extents: Vec<Vec<Extent>>,
    /// Maximum concurrent partial datagrams before the oldest (lowest
    /// datagram id) is dropped (a denial-of-service bound; 0 = unlimited).
    pub capacity: usize,
    dropped: u64,
    malformed: u64,
}

/// Recycled lists a reassembler keeps, of each kind.
const SPARE_LISTS: usize = 4;

impl Reassembler {
    /// Creates a reassembler with the given partial-datagram capacity
    /// (0 = unlimited).
    pub fn new(capacity: usize) -> Reassembler {
        Reassembler {
            capacity,
            ..Reassembler::default()
        }
    }

    /// Offers a fragment; returns the reassembled datagram when complete.
    ///
    /// The headers come off the wire, so they are checked: a fragment
    /// must be non-empty, lie inside the datagram's total length, agree
    /// with the datagram's other fragments on that length, and overlap
    /// none of them. One that fails is **malformed**: it is dropped and
    /// counted ([`Reassembler::malformed`]), and the partial datagram
    /// keeps the fragments it holds. So a datagram is delivered only
    /// when fragments that agree cover it exactly once.
    ///
    /// Fragments the reassembler lets go of without delivering them — a
    /// malformed one, a duplicate of a fragment it already holds, or
    /// every fragment of a partial datagram the capacity bound evicts —
    /// are pushed onto `dropped`, so the caller can release the
    /// references it adopted for them.
    pub fn add(&mut self, hdr: IpHeader, body: Msg, dropped: &mut Vec<Msg>) -> Option<Msg> {
        let len = body.len();
        let inside = hdr
            .offset
            .checked_add(len)
            .is_some_and(|end| end <= hdr.total_len);
        if len == 0 || !inside {
            self.malformed += 1;
            dropped.push(body);
            return None;
        }
        let mut at = self
            .partials
            .binary_search_by_key(&hdr.datagram, |p| p.datagram);
        if let Err(pos) = at {
            if self.capacity > 0 && self.partials.len() >= self.capacity {
                // Evict the oldest partial (simple DoS bound).
                let mut old = self.partials.remove(0);
                dropped.extend(old.fragments.drain(..).map(|(_, m)| m));
                self.spare(old.fragments);
                self.dropped += 1;
                // The new datagram's slot moves down with the rest.
                at = Err(pos.saturating_sub(1));
            }
        }
        let i = match at {
            Ok(i) => i,
            Err(i) => {
                let fragments = self.spare_fragments.pop().unwrap_or_default();
                self.partials.insert(
                    i,
                    Partial {
                        datagram: hdr.datagram,
                        total_len: hdr.total_len,
                        fragments,
                        ..Partial::default()
                    },
                );
                i
            }
        };
        let p = &mut self.partials[i];
        let fits = if hdr.total_len != p.total_len {
            None
        } else {
            match p.fragments.binary_search_by_key(&hdr.offset, |f| f.0) {
                // The same fragment again: a retransmission, not an attack.
                Ok(j) if p.fragments[j].1.len() == len => {
                    dropped.push(body);
                    return None;
                }
                Ok(_) => None,
                Err(j) => {
                    let after = j == 0 || {
                        let (off, prev) = &p.fragments[j - 1];
                        off + prev.len() <= hdr.offset
                    };
                    let before = p
                        .fragments
                        .get(j)
                        .is_none_or(|&(off, _)| hdr.offset + len <= off);
                    (after && before).then_some(j)
                }
            }
        };
        let Some(j) = fits else {
            self.malformed += 1;
            dropped.push(body);
            return None;
        };
        p.have += len;
        p.fragments.insert(j, (hdr.offset, body));
        if p.have != p.total_len {
            return None;
        }
        let mut p = self.partials.remove(i);
        let n = p.fragments.iter().map(|(_, m)| m.fragments()).sum();
        let spare = (n > INLINE_EXTENTS)
            .then(|| self.spare_extents.pop())
            .flatten();
        let mut msg = spare.map_or_else(|| Msg::with_capacity(n), Msg::with_storage);
        for (_, frag) in p.fragments.drain(..) {
            for &e in frag.extents() {
                msg.push(e);
            }
        }
        self.spare(p.fragments);
        Some(msg)
    }

    fn spare(&mut self, fragments: Vec<(u64, Msg)>) {
        if self.spare_fragments.len() < SPARE_LISTS {
            self.spare_fragments.push(fragments);
        }
    }

    /// Takes back a message this reassembler delivered, once every
    /// reference to it is released, so its extent list can hold a later
    /// datagram.
    pub fn recycle(&mut self, msg: Msg) {
        if let Some(storage) = msg.into_storage() {
            if self.spare_extents.len() < SPARE_LISTS {
                self.spare_extents.push(storage);
            }
        }
    }

    /// Datagrams dropped by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Fragments dropped as malformed: empty, past their datagram's total
    /// length, disagreeing with its other fragments on that length, or
    /// overlapping one of them.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Partial datagrams currently buffered.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf::FbufId;

    /// The fragments of `msg` as a list.
    fn frags(m: &Msg, datagram: u64, pdu: u64) -> Vec<(IpHeader, Msg)> {
        fragment(m, datagram, pdu).collect()
    }

    /// Offers a fragment that must not be dropped.
    fn add(r: &mut Reassembler, hdr: IpHeader, body: Msg) -> Option<Msg> {
        let mut dropped = Vec::new();
        let done = r.add(hdr, body, &mut dropped);
        assert!(dropped.is_empty(), "dropped {dropped:?}");
        done
    }

    fn msg(len: u64) -> Msg {
        Msg::from_extents(vec![Extent {
            fbuf: FbufId(1),
            off: 0,
            len,
        }])
    }

    #[test]
    fn fragment_sizes_and_flags() {
        let frags = frags(&msg(10_000), 1, 4096);
        assert_eq!(fragment(&msg(10_000), 1, 4096).len(), 3);
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].1.len(), 4096);
        assert_eq!(frags[1].1.len(), 4096);
        assert_eq!(frags[2].1.len(), 1808);
        assert!(frags[0].0.more && frags[1].0.more && !frags[2].0.more);
        assert_eq!(frags[1].0.offset, 4096);
        assert!(frags.iter().all(|(h, _)| h.total_len == 10_000));
    }

    #[test]
    fn small_message_single_fragment() {
        let frags = frags(&msg(100), 1, 4096);
        assert_eq!(frags.len(), 1);
        assert!(!frags[0].0.more);
        assert_eq!(fragment(&Msg::empty(), 1, 4096).next(), None);
    }

    #[test]
    fn reassembly_in_order() {
        let mut r = Reassembler::new(0);
        let m = msg(10_000);
        let frags = fragment(&m, 42, 4096);
        let n = frags.len();
        for (i, (h, b)) in frags.enumerate() {
            let done = add(&mut r, h, b);
            if i + 1 == n {
                assert_eq!(done.unwrap().len(), 10_000);
            } else {
                assert!(done.is_none());
            }
        }
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembly_out_of_order_and_duplicates() {
        let mut r = Reassembler::new(0);
        let mut frags = frags(&msg(12_288), 7, 4096);
        frags.reverse();
        let dup = frags[1].clone();
        assert!(add(&mut r, frags[0].0, frags[0].1.clone()).is_none());
        assert!(add(&mut r, frags[1].0, frags[1].1.clone()).is_none());
        // Duplicate fragment must not complete the datagram early, and
        // comes back to the caller.
        let mut dropped = Vec::new();
        assert!(r.add(dup.0, dup.1.clone(), &mut dropped).is_none());
        assert_eq!(dropped, vec![dup.1]);
        let done = add(&mut r, frags[2].0, frags[2].1.clone()).unwrap();
        assert_eq!(done.len(), 12_288);
        // Offsets restored in order despite reversed arrival.
        assert_eq!(done.extents()[0].off, 0);
    }

    #[test]
    fn interleaved_datagrams() {
        let mut r = Reassembler::new(0);
        let a = frags(&msg(8192), 1, 4096);
        let b = frags(&msg(8192), 2, 4096);
        assert!(add(&mut r, a[0].0, a[0].1.clone()).is_none());
        assert!(add(&mut r, b[0].0, b[0].1.clone()).is_none());
        assert!(add(&mut r, b[1].0, b[1].1.clone()).is_some());
        assert!(add(&mut r, a[1].0, a[1].1.clone()).is_some());
    }

    #[test]
    fn capacity_bound_drops() {
        let mut r = Reassembler::new(2);
        let mut dropped = Vec::new();
        for d in [3u64, 0, 4, 1, 2] {
            let frags = frags(&msg(8192), d, 4096);
            r.add(frags[0].0, frags[0].1.clone(), &mut dropped);
            let ids: Vec<u64> = r.partials.iter().map(|p| p.datagram).collect();
            assert!(ids.is_sorted(), "partials out of order: {ids:?}");
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.dropped(), 3);
        // Each eviction handed back the evicted datagram's one fragment.
        assert_eq!(dropped.len(), 3);
        // Each overflow dropped the lowest id then buffered: {3, 0} → drop 0
        // for 4 → drop 3 for 1 → drop 1 for 2. Datagrams 2 and 4 survive,
        // and their second fragments complete them.
        for d in [2u64, 4] {
            let frags = frags(&msg(8192), d, 4096);
            let done = add(&mut r, frags[1].0, frags[1].1.clone());
            assert_eq!(done.map(|m| m.len()), Some(8192), "datagram {d} survives");
        }
        assert_eq!(r.pending(), 0);
    }

    /// A fragment of datagram 5 claiming `total` bytes at `offset`.
    fn piece(offset: u64, len: u64, total: u64) -> (IpHeader, Msg) {
        let hdr = IpHeader {
            datagram: 5,
            offset,
            total_len: total,
            more: offset.saturating_add(len) < total,
        };
        (hdr, msg(len))
    }

    #[test]
    fn overlapping_fragments_never_complete_a_datagram() {
        // 6000 bytes at 0 and 2192 at 4000 sum to the claimed 8192, but
        // bytes 6192.. never arrived: no delivery, and the overlap is
        // handed back as malformed.
        let mut r = Reassembler::new(0);
        let mut dropped = Vec::new();
        let (h, b) = piece(0, 6000, 8192);
        assert!(r.add(h, b, &mut dropped).is_none());
        let (h, b) = piece(4000, 2192, 8192);
        assert!(r.add(h, b.clone(), &mut dropped).is_none());
        assert_eq!(dropped, vec![b]);
        assert_eq!((r.malformed(), r.pending()), (1, 1));
        // The fragment that really follows still completes it.
        let (h, b) = piece(6000, 2192, 8192);
        assert_eq!(add(&mut r, h, b).map(|m| m.len()), Some(8192));
    }

    #[test]
    fn a_fragment_outside_its_claimed_total_is_dropped() {
        let mut r = Reassembler::new(0);
        let mut dropped = Vec::new();
        let (h, b) = piece(9000, 100, 100);
        assert!(r.add(h, b, &mut dropped).is_none());
        assert_eq!((r.malformed(), r.pending(), dropped.len()), (1, 0, 1));
        // An offset so large that the end wraps is refused the same way,
        // and so is an empty fragment.
        let (h, b) = piece(u64::MAX - 10, 100, u64::MAX);
        assert!(r.add(h, b, &mut dropped).is_none());
        let (h, b) = piece(0, 0, 0);
        assert!(r.add(h, b, &mut dropped).is_none());
        assert_eq!((r.malformed(), r.pending(), dropped.len()), (3, 0, 3));
    }

    #[test]
    fn fragments_must_agree_on_the_total_length() {
        let mut r = Reassembler::new(0);
        let mut dropped = Vec::new();
        let (h, b) = piece(0, 4096, 8192);
        assert!(r.add(h, b, &mut dropped).is_none());
        // A second half claiming a shorter datagram would "complete" a
        // 4096-byte one; it is dropped instead.
        let (h, b) = piece(4096, 4096, 4096 + 4096 - 1);
        assert!(r.add(h, b, &mut dropped).is_none());
        let (h, b) = piece(0, 4096, 4096);
        assert!(r.add(h, b, &mut dropped).is_none());
        assert_eq!((r.malformed(), dropped.len()), (2, 2));
        let (h, b) = piece(4096, 4096, 8192);
        assert_eq!(add(&mut r, h, b).map(|m| m.len()), Some(8192));
    }

    #[test]
    #[should_panic(expected = "PDU size")]
    fn zero_pdu_rejected() {
        let _ = fragment(&msg(1), 1, 0);
    }

    #[test]
    fn fragments_of_a_multi_extent_message_cut_across_extents() {
        let m = Msg::from_extents(vec![
            Extent {
                fbuf: FbufId(1),
                off: 100,
                len: 5000,
            },
            Extent {
                fbuf: FbufId(2),
                off: 0,
                len: 3000,
            },
        ]);
        let frags = frags(&m, 9, 4096);
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].1.extents().len(), 1);
        assert_eq!(frags[0].1.extents()[0].off, 100);
        assert_eq!(frags[1].1.extents().len(), 2);
        assert_eq!(frags[1].1.extents()[0].off, 100 + 4096);
        assert_eq!(frags[1].1.len(), 8000 - 4096);
        let mut r = Reassembler::new(0);
        assert!(add(&mut r, frags[1].0, frags[1].1.clone()).is_none());
        let done = add(&mut r, frags[0].0, frags[0].1.clone()).unwrap();
        // Reassembly rejoins the pieces of the first extent side by side.
        assert_eq!(done.len(), 8000);
        assert_eq!(done.extents().len(), 3);
    }

    #[test]
    fn recycled_extent_lists_hold_later_datagrams() {
        let mut r = Reassembler::new(0);
        let m = msg(40_960);
        let mut first = None;
        for (h, b) in fragment(&m, 1, 4096) {
            first = add(&mut r, h, b).or(first);
        }
        let first = first.unwrap();
        assert_eq!(first.fragments(), 10);
        r.recycle(first);
        let mut second = None;
        for (h, b) in fragment(&m, 2, 4096) {
            second = add(&mut r, h, b).or(second);
        }
        assert_eq!(second.unwrap().len(), 40_960);
        assert!(r.spare_extents.is_empty(), "the recycled list was reused");
    }
}
