//! Per-domain message reference counting.
//!
//! x-kernel messages are reference counted: splits and fragmentation create
//! several messages sharing the same underlying buffers, and a buffer is
//! released only when the last message referencing it in a domain goes
//! away. The fbuf facility itself tracks one reference per *domain* (the
//! holder list); this table maps many message-level references down to that
//! single domain-level reference.

use std::collections::hash_map::Entry;

use fbuf::{FbufError, FbufId, FbufResult, FbufSystem};
use fbuf_sim::fxhash::FxHashMap;
use fbuf_vm::DomainId;

use crate::msg::Msg;

/// Message-level reference counts, keyed by (domain, fbuf).
#[derive(Debug, Default)]
pub struct MsgRefs {
    counts: FxHashMap<(u32, FbufId), usize>,
}

impl MsgRefs {
    /// Creates an empty table.
    pub fn new() -> MsgRefs {
        MsgRefs::default()
    }

    /// Registers one message-level reference in `dom` for every distinct
    /// fbuf in `msg`. Call when a message is created (from freshly
    /// allocated fbufs), received from another domain, or duplicated by a
    /// structural operation (split halves, retransmission copies).
    pub fn adopt(&mut self, dom: DomainId, msg: &Msg) {
        for id in msg.distinct_fbufs() {
            *self.counts.entry((dom.0, id)).or_insert(0) += 1;
        }
    }

    /// Drops one message-level reference in `dom` for every distinct fbuf
    /// in `msg`; fbufs whose count reaches zero are freed in the fbuf
    /// system (which may trigger deallocation notices, free-list parking,
    /// or full retirement).
    ///
    /// A message `dom` never adopted is refused with
    /// [`FbufError::NotHolder`] before any count changes: a confused or
    /// hostile caller cannot panic the facility or release references it
    /// does not hold.
    pub fn release(&mut self, fbs: &mut FbufSystem, dom: DomainId, msg: &Msg) -> FbufResult<()> {
        if let Some(fbuf) = msg
            .distinct_fbufs()
            .find(|&id| !self.counts.contains_key(&(dom.0, id)))
        {
            return Err(FbufError::NotHolder { domain: dom, fbuf });
        }
        for id in msg.distinct_fbufs() {
            let Entry::Occupied(mut count) = self.counts.entry((dom.0, id)) else {
                unreachable!("checked above");
            };
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
                fbs.free(id, dom)?;
            }
        }
        Ok(())
    }

    /// Current count for (dom, fbuf) — diagnostics.
    pub fn count(&self, dom: DomainId, id: FbufId) -> usize {
        self.counts.get(&(dom.0, id)).copied().unwrap_or(0)
    }

    /// Total outstanding message references (diagnostics; 0 when every
    /// message has been released — a leak detector for tests).
    pub fn outstanding(&self) -> usize {
        self.counts.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf::AllocMode;
    use fbuf_sim::MachineConfig;

    #[test]
    fn split_halves_share_until_both_released() {
        let mut fbs = FbufSystem::new(MachineConfig::tiny());
        let a = fbs.create_domain();
        let id = fbs.alloc(a, AllocMode::Uncached, 8192).unwrap();
        let msg = Msg::from_fbuf(id, 0, 8192);
        let mut refs = MsgRefs::new();
        refs.adopt(a, &msg);

        let (h, t) = msg.split(4096);
        refs.adopt(a, &h);
        refs.adopt(a, &t);
        refs.release(&mut fbs, a, &msg).unwrap();
        assert_eq!(refs.count(a, id), 2);
        assert!(fbs.fbuf(id).is_ok());

        refs.release(&mut fbs, a, &h).unwrap();
        assert!(fbs.fbuf(id).is_ok(), "tail still references the fbuf");
        refs.release(&mut fbs, a, &t).unwrap();
        assert!(fbs.fbuf(id).is_err(), "last release frees the fbuf");
        assert_eq!(refs.outstanding(), 0);
    }

    #[test]
    fn multi_extent_same_fbuf_counts_once() {
        let mut fbs = FbufSystem::new(MachineConfig::tiny());
        let a = fbs.create_domain();
        let id = fbs.alloc(a, AllocMode::Uncached, 4096).unwrap();
        // Two extents over the same fbuf in one message: one reference.
        let msg = Msg::from_extents(vec![
            crate::msg::Extent {
                fbuf: id,
                off: 0,
                len: 100,
            },
            crate::msg::Extent {
                fbuf: id,
                off: 200,
                len: 100,
            },
        ]);
        let mut refs = MsgRefs::new();
        refs.adopt(a, &msg);
        assert_eq!(refs.count(a, id), 1);
        refs.release(&mut fbs, a, &msg).unwrap();
        assert!(fbs.fbuf(id).is_err());
    }

    #[test]
    fn release_without_adopt_is_refused() {
        let mut fbs = FbufSystem::new(MachineConfig::tiny());
        let a = fbs.create_domain();
        let id = fbs.alloc(a, AllocMode::Uncached, 64).unwrap();
        let other = fbs.alloc(a, AllocMode::Uncached, 64).unwrap();
        let mut refs = MsgRefs::new();
        let held = Msg::from_fbuf(id, 0, 64);
        refs.adopt(a, &held);
        // One adopted fbuf and one never adopted: the release is refused
        // whole, and the adopted count is untouched.
        let mut msg = held.clone();
        msg.push(crate::msg::Extent {
            fbuf: other,
            off: 0,
            len: 64,
        });
        let err = refs.release(&mut fbs, a, &msg).unwrap_err();
        assert_eq!(
            err,
            FbufError::NotHolder {
                domain: a,
                fbuf: other
            }
        );
        assert_eq!(refs.count(a, id), 1);
        assert!(fbs.fbuf(id).is_ok());
        refs.release(&mut fbs, a, &held).unwrap();
        assert_eq!(refs.outstanding(), 0);
    }
}
