//! Synchronous RPC with calibrated control-transfer latency.

use fbuf_sim::{CostCategory, CostModel, EventKind, Ns};
use fbuf_vm::{DomainId, Machine};

use crate::notice::NoticeBoard;

/// What a cross-domain invocation carries, besides control transfer.
///
/// Inline bytes model Mach's in-line data (the *copy* baseline path);
/// fbuf payloads carry only references — the whole point of the facility is
/// that "in the common case, no kernel involvement is required during
/// cross-domain data transfer".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// No data (a pure control transfer).
    Control,
    /// Data copied through the message itself.
    Inline(Vec<u8>),
    /// A reference to a single fbuf extent: (virtual address, length).
    FbufExtent(u64, u64),
    /// References to a list of fbuf extents (external aggregate
    /// representation).
    FbufList(Vec<(u64, u64)>),
    /// The root virtual address of an integrated aggregate stored entirely
    /// in fbufs (paper §3.2.3).
    AggregateRoot(u64),
}

/// The RPC layer: charges per-call latency to the machine its caller
/// passes in and drains deallocation notices into replies.
#[derive(Debug)]
pub struct Rpc {
    costs: CostModel,
    notices: NoticeBoard,
    /// IPC calls originated per domain, indexed by `DomainId.0` — the
    /// per-tenant ledger's "ipc_calls" column (explicit notice messages
    /// count against the holder that forced them).
    calls_by_dom: Vec<u64>,
    /// The notices the last call's reply carried; reused call to call.
    reply: Vec<u64>,
}

impl Rpc {
    /// Creates the RPC layer with the machine's cost model. It holds no
    /// clock, counters or tracer: each call charges, counts and traces
    /// on the machine it is given.
    pub fn new(costs: CostModel) -> Rpc {
        Rpc {
            costs,
            notices: NoticeBoard::new(),
            calls_by_dom: Vec::new(),
            reply: Vec::new(),
        }
    }

    fn count_call_from(&mut self, from: DomainId) {
        let slot = from.0 as usize;
        if self.calls_by_dom.len() <= slot {
            self.calls_by_dom.resize(slot + 1, 0);
        }
        self.calls_by_dom[slot] += 1;
    }

    /// Round-trip latency between two domains: crossing into or out of the
    /// kernel is cheaper than a user-to-user RPC (which passes through the
    /// kernel twice).
    pub fn latency(&self, a: DomainId, b: DomainId) -> Ns {
        if a.is_kernel() || b.is_kernel() {
            self.costs.rpc_kernel_user
        } else {
            self.costs.rpc_user_user
        }
    }

    /// Performs a synchronous RPC from `from` to `to` on `m`: charges the
    /// control transfer and per-message dispatch, counts the message, and
    /// returns
    /// the deallocation notices the reply carries back to `from` (tokens
    /// previously queued by receivers freeing fbufs owned by `from`; the
    /// kernel mediates every RPC, so the reply aggregates notices from all
    /// holders). The notices are drained into a buffer the layer reuses
    /// from call to call, so a call allocates nothing once the buffer
    /// has grown to the largest reply.
    ///
    /// This is the per-hop *charging primitive*: the event-loop engine
    /// ([`crate::actor::EventLoop`]) invokes it from the dequeue handler
    /// of each hop, and a hop re-entered from inside a handler invokes it
    /// inline. The charge sequence is the one a recursive descent would
    /// perform (pinned by the goldens in `tests/counter_exactness.rs`).
    pub fn call(&mut self, m: &mut Machine, from: DomainId, to: DomainId) -> &[u64] {
        m.charge(
            CostCategory::Ipc,
            self.latency(from, to) + self.costs.ipc_dispatch,
        );
        m.stats_mut().inc_ipc_messages();
        self.count_call_from(from);
        let now = m.now();
        m.tracer()
            .instant_peer(now, EventKind::IpcCall, from.0, to.0, None, None);
        self.reply.clear();
        self.notices.drain_all_into(from, &mut self.reply);
        if !self.reply.is_empty() {
            m.stats_mut().add_piggybacked_notices(self.reply.len() as u64);
            for &token in &self.reply {
                // The notice reaches the owner (`from`) on this reply.
                m.tracer()
                    .instant_peer(now, EventKind::Notice, to.0, from.0, None, Some(token));
            }
        }
        &self.reply
    }

    /// Queues a deallocation notice: `holder` has released its reference to
    /// an fbuf owned by `owner`; the token identifies the fbuf to the
    /// owner's allocator.
    ///
    /// If too many notices have accumulated for this domain pair, an
    /// explicit notice message is sent immediately (charged like an RPC)
    /// and the backlog is returned for the caller to apply; otherwise
    /// `None` — the backlog will ride a future reply.
    pub fn queue_dealloc_notice(
        &mut self,
        m: &mut Machine,
        owner: DomainId,
        holder: DomainId,
        token: u64,
    ) -> Option<Vec<u64>> {
        if self.notices.queue(owner, holder, token) {
            // Threshold exceeded: explicit message.
            m.charge(
                CostCategory::Ipc,
                self.latency(holder, owner) + self.costs.ipc_dispatch,
            );
            m.stats_mut().inc_ipc_messages();
            self.count_call_from(holder);
            m.stats_mut().inc_explicit_notice_messages();
            m.tracer()
                .instant_peer(m.now(), EventKind::Notice, holder.0, owner.0, None, Some(token));
            Some(self.notices.drain(owner, holder))
        } else {
            None
        }
    }

    /// Pending notices for (`owner`, `holder`) — e.g. to flush on domain
    /// termination.
    pub fn pending_notices(&self, owner: DomainId, holder: DomainId) -> usize {
        self.notices.pending(owner, holder)
    }

    /// Sets the explicit-message threshold (notices pending per domain pair
    /// before an explicit message is forced).
    pub fn set_notice_threshold(&mut self, threshold: usize) {
        self.notices.set_threshold(threshold);
    }

    /// IPC calls originated per domain, indexed by `DomainId.0` — feeds
    /// the per-tenant accounting ledger.
    pub fn calls_by_dom(&self) -> &[u64] {
        &self.calls_by_dom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_sim::MachineConfig;
    use fbuf_vm::KERNEL_DOMAIN;

    fn rpc() -> (Rpc, Machine) {
        let m = Machine::new(MachineConfig::decstation_5000_200());
        (Rpc::new(m.costs().clone()), m)
    }

    #[test]
    fn kernel_user_cheaper_than_user_user() {
        let (mut r, mut m) = rpc();
        let u1 = DomainId(1);
        let u2 = DomainId(2);
        r.call(&mut m, KERNEL_DOMAIN, u1);
        let ku = m.now();
        r.call(&mut m, u1, u2);
        let uu = m.now() - ku;
        assert!(uu > ku, "user-user {uu} should exceed kernel-user {ku}");
        assert_eq!(m.stats().ipc_messages(), 2);
    }

    #[test]
    fn latency_is_symmetric() {
        let (r, _) = rpc();
        assert_eq!(
            r.latency(KERNEL_DOMAIN, DomainId(1)),
            r.latency(DomainId(1), KERNEL_DOMAIN)
        );
        assert_eq!(
            r.latency(DomainId(1), DomainId(2)),
            r.latency(DomainId(2), DomainId(1))
        );
    }

    #[test]
    fn notices_ride_the_next_reply_to_the_owner() {
        let (mut r, mut m) = rpc();
        let owner = DomainId(1);
        let holder = DomainId(2);
        assert!(r.queue_dealloc_notice(&mut m, owner, holder, 7).is_none());
        assert!(r.queue_dealloc_notice(&mut m, owner, holder, 8).is_none());
        // A call from someone else's pair carries nothing.
        assert!(r.call(&mut m, DomainId(3), holder).is_empty());
        // The owner's next call to the holder gets both notices in the
        // reply.
        let got = r.call(&mut m, owner, holder);
        assert_eq!(got, vec![7, 8]);
        assert_eq!(m.stats().piggybacked_notices(), 2);
        assert_eq!(m.stats().explicit_notice_messages(), 0);
        // Drained: nothing left.
        assert!(r.call(&mut m, owner, holder).is_empty());
    }

    #[test]
    fn explicit_message_after_threshold() {
        let (mut r, mut m) = rpc();
        r.set_notice_threshold(3);
        let owner = DomainId(1);
        let holder = DomainId(2);
        assert!(r.queue_dealloc_notice(&mut m, owner, holder, 1).is_none());
        assert!(r.queue_dealloc_notice(&mut m, owner, holder, 2).is_none());
        let flushed = r.queue_dealloc_notice(&mut m, owner, holder, 3).unwrap();
        assert_eq!(flushed, vec![1, 2, 3]);
        assert_eq!(m.stats().explicit_notice_messages(), 1);
    }

    #[test]
    fn explicit_messages_rare_under_rpc_traffic() {
        // The paper: "in practice, it is rarely necessary to send
        // additional messages for the purpose of deallocation" — because
        // steady RPC traffic keeps draining the list.
        let (mut r, mut m) = rpc();
        r.set_notice_threshold(8);
        let owner = DomainId(1);
        let holder = DomainId(2);
        for i in 0..1000 {
            let flushed = r.queue_dealloc_notice(&mut m, owner, holder, i);
            assert!(flushed.is_none());
            // Steady traffic: the owner RPCs the holder after every couple
            // of frees.
            if i % 2 == 0 {
                r.call(&mut m, owner, holder);
            }
        }
        assert_eq!(m.stats().explicit_notice_messages(), 0);
        assert_eq!(
            m.stats().piggybacked_notices(),
            1000 - r.pending_notices(owner, holder) as u64
        );
    }

    #[test]
    fn calls_are_attributed_to_the_originating_domain() {
        let (mut r, mut m) = rpc();
        r.call(&mut m, DomainId(1), DomainId(2));
        r.call(&mut m, DomainId(1), DomainId(2));
        r.call(&mut m, DomainId(2), DomainId(1));
        // Forced explicit notice counts against the holder who sent it.
        r.set_notice_threshold(1);
        r.queue_dealloc_notice(&mut m, DomainId(1), DomainId(3), 99).unwrap();
        assert_eq!(r.calls_by_dom().get(1), Some(&2));
        assert_eq!(r.calls_by_dom().get(2), Some(&1));
        assert_eq!(r.calls_by_dom().get(3), Some(&1));
        assert_eq!(
            r.calls_by_dom().iter().sum::<u64>(),
            m.stats().ipc_messages(),
            "per-domain attribution conserves the fleet counter"
        );
    }

    #[test]
    fn a_reply_carries_every_holders_notices_to_the_caller() {
        let (mut r, mut m) = rpc();
        let owner = DomainId(1);
        r.queue_dealloc_notice(&mut m, owner, DomainId(2), 10);
        r.queue_dealloc_notice(&mut m, owner, DomainId(3), 11);
        let mut all = r.call(&mut m, owner, DomainId(2)).to_vec();
        all.sort_unstable();
        assert_eq!(all, vec![10, 11]);
        assert_eq!(r.pending_notices(owner, DomainId(2)), 0);
        assert_eq!(m.stats().piggybacked_notices(), 2);
        assert!(
            r.call(&mut m, owner, DomainId(2)).is_empty(),
            "the next reply starts empty"
        );
    }

    #[test]
    fn payload_variants_carry_descriptors() {
        let p = Payload::FbufList(vec![(0x4000_0000, 4096), (0x4000_2000, 100)]);
        match p {
            Payload::FbufList(l) => assert_eq!(l.len(), 2),
            _ => unreachable!(),
        }
        assert_eq!(Payload::Control, Payload::Control);
    }
}
