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
/// passes in and drains deallocation notices onto replies.
#[derive(Debug)]
pub struct Rpc {
    costs: CostModel,
    notices: NoticeBoard,
    /// IPC calls originated per domain, indexed by `DomainId.0` — the
    /// per-tenant ledger's "ipc_calls" column (explicit notice messages
    /// count against the holder that forced them).
    calls_by_dom: Vec<u64>,
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
    /// returns how many deallocation notices the reply carries back to
    /// `from`: tokens previously queued by receivers freeing fbufs owned
    /// by `from` (the kernel mediates every RPC, so the reply aggregates
    /// notices from all holders). Each one is traced as a `Notice` record
    /// carrying its token and cleared from the owner's lists in place, so
    /// a call allocates nothing.
    ///
    /// This is the per-hop *charging primitive*: the event-loop engine
    /// ([`crate::actor::EventLoop`]) invokes it for every hop, after the
    /// loop has booked or dequeued the hop's event, and a hop re-entered
    /// from inside a handler invokes it inline. The charge sequence is
    /// the one a recursive descent would perform (pinned by the goldens
    /// in `tests/counter_exactness.rs`).
    pub fn call(&mut self, m: &mut Machine, from: DomainId, to: DomainId) -> usize {
        m.charge(
            CostCategory::Ipc,
            self.latency(from, to) + self.costs.ipc_dispatch,
        );
        m.stats_mut().inc_ipc_messages();
        self.count_call_from(from);
        let now = m.now();
        let tracer = m.tracer();
        tracer.instant_peer(now, EventKind::IpcCall, from.0, to.0, None, None);
        // Each notice reaches the owner (`from`) on this reply.
        let carried = self.notices.drain_all(from, |token| {
            tracer.instant_peer(now, EventKind::Notice, to.0, from.0, None, Some(token));
        });
        if carried > 0 {
            m.stats_mut().add_piggybacked_notices(carried as u64);
        }
        carried
    }

    /// Queues a deallocation notice: `holder` has released its reference to
    /// an fbuf owned by `owner`; the token identifies the fbuf to the
    /// owner's allocator.
    ///
    /// If too many notices have accumulated for this domain pair, an
    /// explicit notice message is sent immediately (charged like an RPC,
    /// traced as one `Notice` record for `token`), the backlog it carries
    /// is cleared, and its length is returned; otherwise 0, and the
    /// backlog will ride a future reply.
    pub fn queue_dealloc_notice(
        &mut self,
        m: &mut Machine,
        owner: DomainId,
        holder: DomainId,
        token: u64,
    ) -> usize {
        if !self.notices.queue(owner, holder, token) {
            return 0;
        }
        // Threshold reached: explicit message.
        m.charge(
            CostCategory::Ipc,
            self.latency(holder, owner) + self.costs.ipc_dispatch,
        );
        m.stats_mut().inc_ipc_messages();
        self.count_call_from(holder);
        m.stats_mut().inc_explicit_notice_messages();
        m.tracer().instant_peer(
            m.now(),
            EventKind::Notice,
            holder.0,
            owner.0,
            None,
            Some(token),
        );
        self.notices.flush(owner, holder)
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

    /// Every `Notice` record traced so far, as (domain, peer, token).
    fn notices(m: &Machine) -> Vec<(u32, Option<u32>, Option<u64>)> {
        m.tracer()
            .events()
            .into_iter()
            .filter(|ev| ev.kind == EventKind::Notice)
            .map(|ev| (ev.dom, ev.peer, ev.fbuf))
            .collect()
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
        m.tracer().set_enabled(true);
        let owner = DomainId(1);
        let holder = DomainId(2);
        assert_eq!(r.queue_dealloc_notice(&mut m, owner, holder, 7), 0);
        assert_eq!(r.queue_dealloc_notice(&mut m, owner, holder, 8), 0);
        // A call from someone else's pair carries nothing.
        assert_eq!(r.call(&mut m, DomainId(3), holder), 0);
        assert!(notices(&m).is_empty());
        // The owner's next call to the holder gets both notices in the
        // reply, traced in queueing order.
        assert_eq!(r.call(&mut m, owner, holder), 2);
        assert_eq!(
            notices(&m),
            vec![(2, Some(1), Some(7)), (2, Some(1), Some(8))]
        );
        assert_eq!(m.stats().piggybacked_notices(), 2);
        assert_eq!(m.stats().explicit_notice_messages(), 0);
        // Drained: nothing left.
        assert_eq!(r.call(&mut m, owner, holder), 0);
        assert_eq!(notices(&m).len(), 2, "no further Notice record");
    }

    #[test]
    fn explicit_message_after_threshold() {
        let (mut r, mut m) = rpc();
        m.tracer().set_enabled(true);
        r.set_notice_threshold(3);
        let owner = DomainId(1);
        let holder = DomainId(2);
        assert_eq!(r.queue_dealloc_notice(&mut m, owner, holder, 1), 0);
        assert_eq!(r.queue_dealloc_notice(&mut m, owner, holder, 2), 0);
        assert_eq!(r.queue_dealloc_notice(&mut m, owner, holder, 3), 3);
        assert_eq!(m.stats().explicit_notice_messages(), 1);
        // One Notice record, from the holder, for the token that forced
        // the message; the message delivered the whole backlog.
        assert_eq!(notices(&m), vec![(2, Some(1), Some(3))]);
        assert_eq!(r.pending_notices(owner, holder), 0);
        assert_eq!(r.call(&mut m, owner, holder), 0, "nothing left to ride");
        assert_eq!(notices(&m).len(), 1);
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
            assert_eq!(flushed, 0);
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
        assert_eq!(
            r.queue_dealloc_notice(&mut m, DomainId(1), DomainId(3), 99),
            1
        );
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
        m.tracer().set_enabled(true);
        let owner = DomainId(1);
        r.queue_dealloc_notice(&mut m, owner, DomainId(2), 10);
        r.queue_dealloc_notice(&mut m, owner, DomainId(3), 11);
        assert_eq!(r.call(&mut m, owner, DomainId(2)), 2);
        // Both reach the owner on the callee's reply, holder by holder.
        assert_eq!(
            notices(&m),
            vec![(2, Some(1), Some(10)), (2, Some(1), Some(11))]
        );
        assert_eq!(r.pending_notices(owner, DomainId(2)), 0);
        assert_eq!(r.pending_notices(owner, DomainId(3)), 0);
        assert_eq!(m.stats().piggybacked_notices(), 2);
        assert_eq!(
            r.call(&mut m, owner, DomainId(2)),
            0,
            "the next reply starts empty"
        );
        assert_eq!(notices(&m).len(), 2);
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
