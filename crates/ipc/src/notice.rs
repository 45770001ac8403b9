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
//! no allocation (a drain hands the tokens out in place and counts them),
//! and draining an owner with nothing pending is a single counter check.

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
    /// [`NoticeBoard::flush`]).
    pub fn queue(&mut self, owner: DomainId, holder: DomainId, token: u64) -> bool {
        let o = owner.0 as usize;
        if self.owners.len() <= o {
            self.owners.resize_with(o + 1, OwnerBoard::default);
        }
        let board = &mut self.owners[o];
        let i = match board.lists.iter().position(|(h, _)| *h == holder.0) {
            Some(i) => i,
            None => {
                board.lists.push((holder.0, Vec::new()));
                board.lists.len() - 1
            }
        };
        let list = &mut board.lists[i].1;
        list.push(token);
        board.total += 1;
        list.len() >= self.threshold
    }

    /// Clears the backlog for (owner, holder), which an explicit message
    /// has just delivered, and returns how many tokens it held. The list
    /// keeps its capacity.
    pub fn flush(&mut self, owner: DomainId, holder: DomainId) -> usize {
        let Some(board) = self.owners.get_mut(owner.0 as usize) else {
            return 0;
        };
        let Some((_, list)) = board.lists.iter_mut().find(|(h, _)| *h == holder.0) else {
            return 0;
        };
        let n = list.len();
        board.total -= n;
        list.clear();
        n
    }

    /// Number of pending tokens for (owner, holder).
    pub fn pending(&self, owner: DomainId, holder: DomainId) -> usize {
        self.owners
            .get(owner.0 as usize)
            .and_then(|b| b.lists.iter().find(|(h, _)| *h == holder.0))
            .map(|(_, list)| list.len())
            .unwrap_or(0)
    }

    /// Drains every backlog owed to `owner` (an RPC reply) in place:
    /// hands each token to `each`, holder by holder and in queueing
    /// order within a holder, clears the lists (they keep their
    /// capacity), and returns how many tokens there were.
    pub fn drain_all(&mut self, owner: DomainId, mut each: impl FnMut(u64)) -> usize {
        let Some(board) = self.owners.get_mut(owner.0 as usize) else {
            return 0;
        };
        let n = board.total;
        if n == 0 {
            return 0;
        }
        for (_, list) in board.lists.iter_mut() {
            list.iter().for_each(|&token| each(token));
            list.clear();
        }
        board.total = 0;
        n
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

    /// Every token `drain_all` hands out for `owner`, in order.
    fn drained(b: &mut NoticeBoard, owner: DomainId) -> Vec<u64> {
        let mut out = Vec::new();
        let n = b.drain_all(owner, |token| out.push(token));
        assert_eq!(n, out.len(), "the count is the tokens handed out");
        out
    }

    #[test]
    fn queue_and_drain_fifo() {
        let mut b = NoticeBoard::new();
        let o = DomainId(1);
        let h = DomainId(2);
        assert!(!b.queue(o, h, 1));
        assert!(!b.queue(o, h, 2));
        assert_eq!(b.pending(o, h), 2);
        assert_eq!(drained(&mut b, o), vec![1, 2]);
        assert_eq!(b.pending(o, h), 0);
        assert!(drained(&mut b, o).is_empty());
    }

    #[test]
    fn pairs_are_independent() {
        let mut b = NoticeBoard::new();
        b.queue(DomainId(1), DomainId(2), 1);
        b.queue(DomainId(1), DomainId(3), 2);
        b.queue(DomainId(2), DomainId(1), 3);
        assert_eq!(b.flush(DomainId(1), DomainId(2)), 1);
        assert_eq!(b.pending(DomainId(1), DomainId(2)), 0);
        assert_eq!(b.pending(DomainId(1), DomainId(3)), 1);
        assert_eq!(b.pending(DomainId(2), DomainId(1)), 1);
        assert_eq!(
            drained(&mut b, DomainId(1)),
            vec![2],
            "flushed tokens are gone"
        );
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
        assert_eq!(drained(&mut b, o), vec![1, 3, 2], "holder by holder");
        assert!(drained(&mut b, o).is_empty());
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
