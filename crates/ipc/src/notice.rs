//! Deallocation-notice bookkeeping (paper §3.3).
//!
//! "When a message is deallocated and the corresponding fbufs are owned by
//! a different domain, the reference is put on a list of deallocated
//! external references. When an RPC call from the owning domain occurs, the
//! reply message is used to carry deallocation notices from this list. When
//! too many freed references have accumulated, an explicit message must be
//! sent notifying the owning domain of the deallocations."
//!
//! The board sits on the free/RPC hot path (every external-reference free
//! queues a notice; every RPC drains them), so it is indexed directly by
//! owner domain id with per-holder token lists that retain their capacity
//! across drains: the steady-state queue → drain cycle does no hashing and
//! no allocation beyond the drained result itself, and draining an owner
//! with nothing pending is a single counter check.

use fbuf_vm::DomainId;

/// Default number of pending notices per (owner, holder) pair before an
/// explicit message is forced. Sized so that ordinary bursts (freeing a
/// large message's worth of PDU-sized buffers at once) ride the next RPC
/// reply — the paper: "in practice, it is rarely necessary to send
/// additional messages for the purpose of deallocation."
pub const DEFAULT_THRESHOLD: usize = 1024;

/// One owner's backlog: per-holder token lists plus a total for the O(1)
/// emptiness check. Token `Vec`s are cleared, never dropped, so their
/// capacity survives the steady-state drain cycle.
#[derive(Debug, Default)]
struct OwnerBoard {
    lists: Vec<(u32, Vec<u64>)>,
    total: usize,
}

/// Per-domain-pair lists of deallocated external references.
#[derive(Debug)]
pub struct NoticeBoard {
    /// Indexed by owner domain id.
    owners: Vec<OwnerBoard>,
    threshold: usize,
}

impl NoticeBoard {
    /// Creates an empty board with the default threshold.
    pub fn new() -> NoticeBoard {
        NoticeBoard {
            owners: Vec::new(),
            threshold: DEFAULT_THRESHOLD,
        }
    }

    /// Changes the explicit-message threshold.
    pub fn set_threshold(&mut self, threshold: usize) {
        assert!(threshold > 0);
        self.threshold = threshold;
    }

    /// Queues a token; returns `true` if the backlog for this pair has
    /// reached the threshold (the caller must send an explicit message and
    /// [`NoticeBoard::drain`]).
    pub fn queue(&mut self, owner: DomainId, holder: DomainId, token: u64) -> bool {
        let o = owner.0 as usize;
        if self.owners.len() <= o {
            self.owners.resize_with(o + 1, OwnerBoard::default);
        }
        let board = &mut self.owners[o];
        let list = match board.lists.iter_mut().position(|(h, _)| *h == holder.0) {
            Some(i) => &mut board.lists[i].1,
            None => {
                board.lists.push((holder.0, Vec::new()));
                &mut board.lists.last_mut().expect("just pushed").1
            }
        };
        list.push(token);
        board.total += 1;
        list.len() >= self.threshold
    }

    /// Removes and returns the backlog for (owner, holder).
    pub fn drain(&mut self, owner: DomainId, holder: DomainId) -> Vec<u64> {
        let Some(board) = self.owners.get_mut(owner.0 as usize) else {
            return Vec::new();
        };
        let Some((_, list)) = board.lists.iter_mut().find(|(h, _)| *h == holder.0) else {
            return Vec::new();
        };
        board.total -= list.len();
        let mut out = Vec::with_capacity(list.len());
        out.append(list); // leaves `list`'s capacity in place
        out
    }

    /// Number of pending tokens for (owner, holder).
    pub fn pending(&self, owner: DomainId, holder: DomainId) -> usize {
        self.owners
            .get(owner.0 as usize)
            .and_then(|b| b.lists.iter().find(|(h, _)| *h == holder.0))
            .map(|(_, list)| list.len())
            .unwrap_or(0)
    }

    /// Drains every backlog owed to `owner` (an RPC reply) onto the end
    /// of `out`, so a caller that reuses `out` allocates nothing once it
    /// has grown to the largest backlog.
    pub fn drain_all_into(&mut self, owner: DomainId, out: &mut Vec<u64>) {
        let Some(board) = self.owners.get_mut(owner.0 as usize) else {
            return;
        };
        if board.total == 0 {
            return;
        }
        out.reserve(board.total);
        for (_, list) in board.lists.iter_mut() {
            out.append(list);
        }
        board.total = 0;
    }
}

impl Default for NoticeBoard {
    fn default() -> NoticeBoard {
        NoticeBoard::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_and_drain_fifo() {
        let mut b = NoticeBoard::new();
        let o = DomainId(1);
        let h = DomainId(2);
        assert!(!b.queue(o, h, 1));
        assert!(!b.queue(o, h, 2));
        assert_eq!(b.pending(o, h), 2);
        assert_eq!(b.drain(o, h), vec![1, 2]);
        assert_eq!(b.pending(o, h), 0);
        assert!(b.drain(o, h).is_empty());
    }

    #[test]
    fn pairs_are_independent() {
        let mut b = NoticeBoard::new();
        b.queue(DomainId(1), DomainId(2), 1);
        b.queue(DomainId(1), DomainId(3), 2);
        b.queue(DomainId(2), DomainId(1), 3);
        assert_eq!(b.drain(DomainId(1), DomainId(2)), vec![1]);
        assert_eq!(b.pending(DomainId(1), DomainId(3)), 1);
        assert_eq!(b.pending(DomainId(2), DomainId(1)), 1);
    }

    #[test]
    fn threshold_signal() {
        let mut b = NoticeBoard::new();
        b.set_threshold(2);
        let o = DomainId(1);
        let h = DomainId(2);
        assert!(!b.queue(o, h, 1));
        assert!(b.queue(o, h, 2));
    }

    #[test]
    fn drain_all_collects_every_holder_and_resets() {
        let mut b = NoticeBoard::new();
        let o = DomainId(1);
        b.queue(o, DomainId(2), 1);
        b.queue(o, DomainId(3), 2);
        b.queue(o, DomainId(2), 3);
        let mut all = vec![9];
        b.drain_all_into(o, &mut all);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 9], "appended to what `out` held");
        all.clear();
        b.drain_all_into(o, &mut all);
        assert!(all.is_empty());
        assert_eq!(b.pending(o, DomainId(2)), 0);
        // Re-queue after a full drain works (capacity is retained).
        assert!(!b.queue(o, DomainId(2), 4));
        assert_eq!(b.pending(o, DomainId(2)), 1);
    }

    #[test]
    #[should_panic]
    fn zero_threshold_rejected() {
        NoticeBoard::new().set_threshold(0);
    }
}
