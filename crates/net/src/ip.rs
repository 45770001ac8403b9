//! IP-style fragmentation and reassembly over message aggregates.
//!
//! "IP fragments large messages into PDUs of 4 KBytes. ... Fragmentation
//! need not disturb the original buffer holding the ADU; each fragment can
//! be represented by an offset/length into the original buffer." (§2.1.1,
//! §4) — fragments here are zero-copy [`Msg::split`] descriptors, and
//! reassembly is a zero-copy concatenation of fragment messages.

use std::collections::BTreeMap;

use fbuf_xkernel::Msg;

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

/// Splits `msg` into fragments of at most `pdu` bytes. Returns the
/// header/body pairs in order. Zero-copy: bodies are descriptor splits of
/// the original message.
pub fn fragment(msg: &Msg, datagram: u64, pdu: u64) -> Vec<(IpHeader, Msg)> {
    assert!(pdu > 0, "PDU size must be positive");
    let total = msg.len();
    if total == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut rest = msg.clone();
    let mut offset = 0u64;
    while !rest.is_empty() {
        let (head, tail) = rest.split(pdu);
        let len = head.len();
        out.push((
            IpHeader {
                datagram,
                offset,
                total_len: total,
                more: !tail.is_empty(),
            },
            head,
        ));
        offset += len;
        rest = tail;
    }
    out
}

#[derive(Debug, Default)]
struct Partial {
    /// Fragments by byte offset, so reassembly walks them in order.
    fragments: BTreeMap<u64, Msg>,
    total_len: Option<u64>,
    have: u64,
}

/// Reassembles datagrams from (possibly out-of-order, possibly duplicated)
/// fragments.
#[derive(Debug, Default)]
pub struct Reassembler {
    /// Partial datagrams by id; ids grow with age, so the first is oldest.
    partials: BTreeMap<u64, Partial>,
    /// Maximum concurrent partial datagrams before the oldest (lowest
    /// datagram id) is dropped (a denial-of-service bound; 0 = unlimited).
    pub capacity: usize,
    dropped: u64,
}

impl Reassembler {
    /// Creates a reassembler with the given partial-datagram capacity
    /// (0 = unlimited).
    pub fn new(capacity: usize) -> Reassembler {
        Reassembler {
            partials: BTreeMap::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Offers a fragment; returns the reassembled datagram when complete.
    pub fn add(&mut self, hdr: IpHeader, body: Msg) -> Option<Msg> {
        if self.capacity > 0
            && !self.partials.contains_key(&hdr.datagram)
            && self.partials.len() >= self.capacity
        {
            // Evict the oldest partial (simple DoS bound).
            if self.partials.pop_first().is_some() {
                self.dropped += 1;
            }
        }
        let p = self.partials.entry(hdr.datagram).or_default();
        p.total_len = Some(hdr.total_len);
        let len = body.len();
        if p.fragments.insert(hdr.offset, body).is_none() {
            p.have += len;
        }
        if p.total_len == Some(p.have) {
            let p = self.partials.remove(&hdr.datagram)?;
            let mut msg = Msg::empty();
            for frag in p.fragments.values() {
                msg = msg.concat(frag);
            }
            Some(msg)
        } else {
            None
        }
    }

    /// Datagrams dropped by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
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
    use fbuf_xkernel::Extent;

    fn msg(len: u64) -> Msg {
        Msg::from_extents(vec![Extent {
            fbuf: FbufId(1),
            off: 0,
            len,
        }])
    }

    #[test]
    fn fragment_sizes_and_flags() {
        let frags = fragment(&msg(10_000), 1, 4096);
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
        let frags = fragment(&msg(100), 1, 4096);
        assert_eq!(frags.len(), 1);
        assert!(!frags[0].0.more);
        assert!(fragment(&Msg::empty(), 1, 4096).is_empty());
    }

    #[test]
    fn reassembly_in_order() {
        let mut r = Reassembler::new(0);
        let frags = fragment(&msg(10_000), 42, 4096);
        let n = frags.len();
        for (i, (h, b)) in frags.into_iter().enumerate() {
            let done = r.add(h, b);
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
        let mut frags = fragment(&msg(12_288), 7, 4096);
        frags.reverse();
        let dup = frags[1].clone();
        assert!(r.add(frags[0].0, frags[0].1.clone()).is_none());
        assert!(r.add(frags[1].0, frags[1].1.clone()).is_none());
        // Duplicate fragment must not complete the datagram early.
        assert!(r.add(dup.0, dup.1).is_none());
        let done = r.add(frags[2].0, frags[2].1.clone()).unwrap();
        assert_eq!(done.len(), 12_288);
        // Offsets restored in order despite reversed arrival.
        assert_eq!(done.extents()[0].off, 0);
    }

    #[test]
    fn interleaved_datagrams() {
        let mut r = Reassembler::new(0);
        let a = fragment(&msg(8192), 1, 4096);
        let b = fragment(&msg(8192), 2, 4096);
        assert!(r.add(a[0].0, a[0].1.clone()).is_none());
        assert!(r.add(b[0].0, b[0].1.clone()).is_none());
        assert!(r.add(b[1].0, b[1].1.clone()).is_some());
        assert!(r.add(a[1].0, a[1].1.clone()).is_some());
    }

    #[test]
    fn capacity_bound_drops() {
        let mut r = Reassembler::new(2);
        for d in [3u64, 0, 4, 1, 2] {
            let frags = fragment(&msg(8192), d, 4096);
            r.add(frags[0].0, frags[0].1.clone());
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.dropped(), 3);
        // Each overflow dropped the lowest id then buffered: {3, 0} → drop 0
        // for 4 → drop 3 for 1 → drop 1 for 2. Datagrams 2 and 4 survive,
        // and their second fragments complete them.
        for d in [2u64, 4] {
            let frags = fragment(&msg(8192), d, 4096);
            let done = r.add(frags[1].0, frags[1].1.clone());
            assert_eq!(done.map(|m| m.len()), Some(8192), "datagram {d} survives");
        }
        assert_eq!(r.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "PDU size")]
    fn zero_pdu_rejected() {
        fragment(&msg(1), 1, 0);
    }
}
