//! Domains as actors, transfers as events: the per-shard event loop.
//!
//! The recursive engine modelled every cross-domain transfer as a
//! synchronous depth-first descent — `rpc.call(a, b)` followed inline by
//! the next hop's `rpc.call(b, c)` — so exactly one message could be in
//! flight per engine and queueing, backpressure, and overload could not
//! even be expressed. This module replaces the call stack with an
//! explicit scheduler:
//!
//! * every protection domain is an **actor** with a bounded FIFO
//!   **inbox**;
//! * a hop is **posted** as an event ([`EventLoop::post`]): it lands in
//!   the destination actor's inbox and a wake token enters the
//!   [`EventHeap`], stamped with the simulated now of the poster's
//!   context;
//! * the loop ([`EventLoop::step`] / [`EventLoop::run`]) pops tokens in
//!   deterministic `(time, id)` order, dequeues the matching envelope,
//!   records its **queueing delay** (dequeue instant minus enqueue
//!   instant) into a [`Histogram`], and hands it to the caller's
//!   handler, which performs the hop's charges and may post follow-up
//!   events (the next leg, a completion, …);
//! * a post to a **full inbox** is refused with the explicit
//!   [`SendOutcome::Overload`] — counted by the loop
//!   ([`EventLoop::overloads`]), traced as [`EventKind::Overload`] —
//!   instead of growing without bound or recursing;
//! * a sequential caller posts and drains in one [`EventLoop::call`].
//!   On an idle loop the event would be popped the instant it is
//!   pushed, so `call` hands it straight to the handler, with the same
//!   id, counters, delay sample and trace records as the queued route.
//!
//! Determinism: the heap orders by `(simulated time, insertion id)` with
//! FIFO tie-break (see [`fbuf_sim::event`]), posts and dequeues read the
//! monotone simulated clock of the loop's context ([`LoopContext`]), and
//! nothing consults the wall clock, so a seeded workload replays its
//! event schedule bit-identically.
//!
//! The loop itself never charges the clock: all simulated cost stays in
//! the handler (RPC latency, VM work, protocol processing). That is what
//! makes the engine *counter-exact* with a recursive descent — driving
//! the same hop sequence through [`EventLoop::run`] performs the same
//! charges in the same order, pinned by the goldens in
//! `tests/counter_exactness.rs`.

use std::collections::VecDeque;

use fbuf_sim::metrics::Gauge;
use fbuf_sim::{EventHeap, EventId, EventKind, Histogram, Metrics, Ns, Tracer};
use fbuf_vm::{DomainId, Machine};

/// What the loop reads from its caller's context: the simulated now,
/// against which it stamps posts and measures each queueing delay (it
/// never advances it), and the tracer and telemetry it records to.
pub trait LoopContext {
    /// The simulated now.
    fn now(&self) -> Ns;
    /// The tracer the loop's `Enqueue`/`Dequeue`/`Overload` events go to.
    fn tracer(&self) -> &Tracer;
    /// The telemetry every inbox push and pop writes its new depth to,
    /// so a standing `inbox<d>` series changes only when it moves.
    fn metrics_mut(&mut self) -> &mut Metrics;
}

impl LoopContext for Machine {
    fn now(&self) -> Ns {
        Machine::now(self)
    }

    fn tracer(&self) -> &Tracer {
        Machine::tracer(self)
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        Machine::metrics_mut(self)
    }
}

/// Default bound on each actor's inbox. Deep enough that a drained
/// pipeline never trips it, shallow enough that a runaway producer hits
/// [`SendOutcome::Overload`] long before memory does.
pub const DEFAULT_INBOX_DEPTH: usize = 64;

/// One event sitting in (or dequeued from) an actor's inbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The posting domain.
    pub from: DomainId,
    /// The destination actor.
    pub to: DomainId,
    /// Simulated instant the event was enqueued (queueing delay is
    /// measured from here).
    pub enqueued_at: Ns,
    /// The scheduler id assigned at post time.
    pub id: EventId,
    /// The transfer span in scope when the event was posted (captured
    /// from [`Tracer::current_span`]); restored as the ambient span
    /// while the handler runs, so one transfer's events stay causally
    /// linked across hops.
    pub span: Option<u64>,
    /// The fbuf path this event works on behalf of, when the poster
    /// knows it ([`EventLoop::post_on`]) — threads per-path attribution
    /// through `Enqueue`/`Dequeue`/`Overload` trace events.
    pub path: Option<u64>,
    /// The event payload.
    pub msg: M,
}

/// What happened to a posted event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The event entered the destination's inbox and will be processed.
    Queued(EventId),
    /// The destination's bounded inbox was full: the event was dropped,
    /// counted ([`EventLoop::overloads`]), and traced. The caller decides
    /// what the drop means (abort the transfer, retry later, shed load).
    Overload,
}

impl SendOutcome {
    /// True when the post was refused.
    pub fn is_overload(&self) -> bool {
        matches!(self, SendOutcome::Overload)
    }
}

/// The per-shard event loop. See the [module docs](self).
///
/// `M` is the event payload; the loop is generic so the transfer engine
/// (`fbuf::engine`), the workload drivers, and the tests can each speak
/// their own message language over the same scheduling core.
///
/// # Examples
///
/// The handler's context here is a bare machine; the transfer engine
/// passes its whole fbuf system.
///
/// ```
/// use fbuf_ipc::actor::EventLoop;
/// use fbuf_sim::{CostCategory, MachineConfig, Ns};
/// use fbuf_vm::{DomainId, Machine};
///
/// let mut m = Machine::new(MachineConfig::default());
/// let mut evl: EventLoop<&str> = EventLoop::new();
/// let (a, b) = (DomainId(1), DomainId(2));
/// evl.post(&mut m, a, b, "ping");
/// let mut seen = Vec::new();
/// evl.run(&mut m, &mut |evl, m: &mut Machine, env| {
///     seen.push(format!("{} -> {}: {}", env.from.0, env.to.0, env.msg));
///     m.charge(CostCategory::Ipc, Ns(100));
///     if env.msg == "ping" {
///         evl.post(m, env.to, env.from, "pong");
///     }
/// });
/// assert_eq!(seen, vec!["1 -> 2: ping", "2 -> 1: pong"]);
/// assert_eq!(evl.queue_delay().max(), 0, "each event was served at once");
/// ```
#[derive(Debug)]
pub struct EventLoop<M> {
    /// Global order of pending events: wake tokens naming the actor
    /// whose inbox front is due.
    heap: EventHeap<DomainId>,
    /// Per-domain bounded FIFO inboxes, indexed by `DomainId.0`.
    inboxes: Vec<VecDeque<Envelope<M>>>,
    depth: usize,
    queue_delay: Histogram,
    /// Queueing delay (simulated ns) accumulated per destination
    /// domain, indexed by `DomainId.0` — the ledger's "queueing delay
    /// contributed" column.
    delay_by_dom: Vec<u64>,
    overloads: u64,
    enqueued: u64,
    dequeued: u64,
}

impl<M> Default for EventLoop<M> {
    fn default() -> EventLoop<M> {
        EventLoop::new()
    }
}

impl<M> EventLoop<M> {
    /// An empty loop with the [default inbox depth](DEFAULT_INBOX_DEPTH).
    /// It keeps no clock, tracer or telemetry: posts and dequeues read
    /// them from the caller's [`LoopContext`].
    pub fn new() -> EventLoop<M> {
        EventLoop {
            heap: EventHeap::new(),
            inboxes: Vec::new(),
            depth: DEFAULT_INBOX_DEPTH,
            queue_delay: Histogram::new(),
            delay_by_dom: Vec::new(),
            overloads: 0,
            enqueued: 0,
            dequeued: 0,
        }
    }

    /// Sets the per-actor inbox bound (applies to subsequent posts;
    /// clamped to at least 1 so a drained loop can always make
    /// progress).
    pub fn set_inbox_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
    }

    /// Posts an event from `from` to `to`'s inbox, stamped with the
    /// simulated now of `ctx`. Full inbox → [`SendOutcome::Overload`]:
    /// dropped, counted, traced — never queued, never recursed into.
    pub fn post(
        &mut self,
        ctx: &mut impl LoopContext,
        from: DomainId,
        to: DomainId,
        msg: M,
    ) -> SendOutcome {
        self.post_on(ctx, from, to, None, msg)
    }

    /// [`EventLoop::post`] with the fbuf path the event works on behalf
    /// of, so `Enqueue`/`Dequeue`/`Overload` trace events attribute to
    /// that path. The ambient transfer span (if any) is captured into
    /// the envelope either way.
    pub fn post_on(
        &mut self,
        ctx: &mut impl LoopContext,
        from: DomainId,
        to: DomainId,
        path: Option<u64>,
        msg: M,
    ) -> SendOutcome {
        let slot = to.0 as usize;
        if self.inboxes.len() <= slot {
            self.inboxes.resize_with(slot + 1, VecDeque::new);
        }
        let now = ctx.now();
        if self.inboxes[slot].len() >= self.depth {
            self.overloads += 1;
            ctx.tracer()
                .instant_peer(now, EventKind::Overload, from.0, to.0, path, None);
            return SendOutcome::Overload;
        }
        let id = self.heap.push(now, to);
        let env = self.enqueue(ctx, id, from, to, path, msg);
        let inbox = &mut self.inboxes[slot];
        inbox.push_back(env);
        ctx.metrics_mut()
            .write(Gauge::Inbox(to.0), || inbox.len() as u64);
        SendOutcome::Queued(id)
    }

    /// Processes the earliest pending event: dequeues it, records its
    /// queueing delay, and hands it to `handler` (which may post
    /// follow-ups through the `&mut EventLoop` it receives). Returns
    /// `false` when nothing was pending.
    pub fn step<C: LoopContext>(
        &mut self,
        ctx: &mut C,
        handler: &mut impl FnMut(&mut EventLoop<M>, &mut C, Envelope<M>),
    ) -> bool {
        let Some(token) = self.heap.pop() else {
            return false;
        };
        let inbox = &mut self.inboxes[token.payload.0 as usize];
        let env = inbox
            .pop_front()
            .expect("a wake token always has a matching inbox entry");
        ctx.metrics_mut()
            .write(Gauge::Inbox(token.payload.0), || inbox.len() as u64);
        debug_assert_eq!(env.id, token.id, "tokens and envelopes stay FIFO-aligned");
        self.dispatch(env, ctx, handler);
        true
    }

    /// Posts one event and drains the loop: the synchronous call of a
    /// sequential caller. Returns how many events were processed.
    ///
    /// It does what [`EventLoop::post_on`] followed by [`EventLoop::run`]
    /// does, with two differences:
    ///
    /// * it never overloads: a full destination inbox is drained first,
    ///   so the event always queues and the overload counter counts only
    ///   real refusals;
    /// * on an **idle** loop (nothing pending) the event would be popped
    ///   the instant it is pushed, so it skips the heap and the inbox:
    ///   it draws the id the push would have returned and hands the
    ///   envelope straight to `handler`. The enqueue and dequeue
    ///   bookkeeping are the same helpers `post_on` and `step` use, so
    ///   ids, counters, the (zero) queueing-delay sample and the trace
    ///   records are exactly those of the queued route.
    pub fn call<C: LoopContext>(
        &mut self,
        from: DomainId,
        to: DomainId,
        path: Option<u64>,
        msg: M,
        ctx: &mut C,
        handler: &mut impl FnMut(&mut EventLoop<M>, &mut C, Envelope<M>),
    ) -> usize {
        let mut n = 0;
        if self.inbox_len(to) >= self.depth {
            n += self.run(ctx, handler);
        }
        if self.heap.is_empty() {
            let id = self.heap.draw_id();
            let env = self.enqueue(&*ctx, id, from, to, path, msg);
            self.dispatch(env, ctx, handler);
            n += 1;
        } else {
            let outcome = self.post_on(ctx, from, to, path, msg);
            debug_assert!(
                matches!(outcome, SendOutcome::Queued(_)),
                "an inbox below its bound accepts one event"
            );
        }
        n + self.run(ctx, handler)
    }

    /// Enqueue bookkeeping for an admitted event (queued or dispatched
    /// directly): stamps it with the context's now and ambient span,
    /// counts it, and records its `Enqueue` trace event.
    fn enqueue(
        &mut self,
        ctx: &impl LoopContext,
        id: EventId,
        from: DomainId,
        to: DomainId,
        path: Option<u64>,
        msg: M,
    ) -> Envelope<M> {
        self.enqueued += 1;
        let (now, tracer) = (ctx.now(), ctx.tracer());
        tracer.instant_peer(now, EventKind::Enqueue, from.0, to.0, path, None);
        Envelope {
            from,
            to,
            enqueued_at: now,
            id,
            span: tracer.current_span(),
            path,
            msg,
        }
    }

    /// Dequeue bookkeeping and service of one event: records its
    /// queueing delay (overall and against the handling domain), counts
    /// it, and runs `handler` inside the envelope's span.
    fn dispatch<C: LoopContext>(
        &mut self,
        env: Envelope<M>,
        ctx: &mut C,
        handler: &mut impl FnMut(&mut EventLoop<M>, &mut C, Envelope<M>),
    ) {
        let now = ctx.now();
        let delay = now - env.enqueued_at;
        self.queue_delay.record(delay.as_ns());
        let dslot = env.to.0 as usize;
        if self.delay_by_dom.len() <= dslot {
            self.delay_by_dom.resize(dslot + 1, 0);
        }
        self.delay_by_dom[dslot] += delay.as_ns();
        self.dequeued += 1;
        // The envelope's transfer span becomes ambient for the Dequeue
        // record and the whole handler, so every event the hop records
        // (IPC descent, VM work, follow-up posts) stays on the tree.
        let tracer = ctx.tracer();
        let prev = tracer.set_current_span(env.span);
        // Dequeue span: `dur` is the queueing delay (enqueue → dequeue).
        tracer.span_peer(
            env.enqueued_at,
            now,
            EventKind::Dequeue,
            env.to.0,
            Some(env.from.0),
            env.path,
            None,
        );
        handler(self, ctx, env);
        ctx.tracer().set_current_span(prev);
    }

    /// Runs [`EventLoop::step`] until the loop drains; returns how many
    /// events were processed.
    pub fn run<C: LoopContext>(
        &mut self,
        ctx: &mut C,
        handler: &mut impl FnMut(&mut EventLoop<M>, &mut C, Envelope<M>),
    ) -> usize {
        let mut n = 0;
        while self.step(ctx, handler) {
            n += 1;
        }
        n
    }

    /// Events currently pending across all inboxes.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Events currently pending in one actor's inbox.
    pub fn inbox_len(&self, dom: DomainId) -> usize {
        self.inboxes.get(dom.0 as usize).map_or(0, VecDeque::len)
    }

    /// Posts refused with [`SendOutcome::Overload`] so far.
    pub fn overloads(&self) -> u64 {
        self.overloads
    }

    /// Events successfully enqueued so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Events dequeued and handled so far.
    pub fn dequeued(&self) -> u64 {
        self.dequeued
    }

    /// Per-hop queueing-delay histogram (simulated ns between enqueue
    /// and dequeue), over the loop's whole lifetime.
    pub fn queue_delay(&self) -> &Histogram {
        &self.queue_delay
    }

    /// Queueing delay (simulated ns) accumulated by events handled *in*
    /// each domain, indexed by `DomainId.0` — the per-tenant ledger's
    /// "queueing delay contributed" column.
    pub fn queue_delay_by_dom(&self) -> &[u64] {
        &self.delay_by_dom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_sim::{audit_tracer, CostCategory, MachineConfig};

    /// A loop and the machine its handlers charge (their context).
    fn evl<M>() -> (EventLoop<M>, Machine) {
        (EventLoop::new(), Machine::new(MachineConfig::default()))
    }

    #[test]
    fn events_process_in_post_order_at_equal_time() {
        let (mut e, mut m) = evl();
        for i in 0..5u32 {
            e.post(&mut m, DomainId(0), DomainId(1), i);
        }
        let mut order = Vec::new();
        e.run(&mut m, &mut |_, _, env| order.push(env.msg));
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handler_posts_drive_multi_hop_chains() {
        // A three-leg chain: 0 → 1 → 2 → 3, each leg charging the clock,
        // so each dequeue sees the time the previous leg's charge left.
        let (mut e, mut m) = evl();
        e.post(&mut m, DomainId(0), DomainId(1), 0u32);
        let mut legs = Vec::new();
        e.run(&mut m, &mut |evl, c: &mut Machine, env| {
            legs.push((env.to.0, c.now() - env.enqueued_at));
            c.charge(CostCategory::Ipc, Ns(100));
            if env.to.0 < 3 {
                evl.post(c, env.to, DomainId(env.to.0 + 1), env.msg + 1);
            }
        });
        // Each leg was enqueued right after the previous handler's
        // charge, so its queueing delay is zero — a drained pipeline
        // queues nothing.
        assert_eq!(legs, vec![(1, Ns::ZERO), (2, Ns::ZERO), (3, Ns::ZERO),]);
        assert_eq!(m.now(), Ns(300));
    }

    #[test]
    fn full_inbox_overloads_explicitly() {
        let (mut e, mut m) = evl();
        e.set_inbox_depth(2);
        assert!(matches!(
            e.post(&mut m, DomainId(0), DomainId(1), ()),
            SendOutcome::Queued(_)
        ));
        assert!(matches!(
            e.post(&mut m, DomainId(0), DomainId(1), ()),
            SendOutcome::Queued(_)
        ));
        assert!(e.post(&mut m, DomainId(0), DomainId(1), ()).is_overload());
        assert_eq!(e.overloads(), 1);
        assert_eq!(e.inbox_len(DomainId(1)), 2, "the drop never queued");
        // Draining frees the slot again.
        e.run(&mut m, &mut |_, _, _| {});
        assert!(matches!(
            e.post(&mut m, DomainId(0), DomainId(1), ()),
            SendOutcome::Queued(_)
        ));
    }

    #[test]
    fn queue_delay_measures_backlog_service_time() {
        // Two events posted back-to-back; the handler charges 1 µs per
        // event, so the second waits exactly one service time.
        let (mut e, mut m) = evl();
        e.post(&mut m, DomainId(0), DomainId(1), ());
        e.post(&mut m, DomainId(0), DomainId(1), ());
        e.run(&mut m, &mut |_, c: &mut Machine, _| {
            c.charge(CostCategory::Ipc, Ns(1_000));
        });
        let h = e.queue_delay();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0, "first event is served immediately");
        assert_eq!(h.max(), 1_000, "second waited one service time");
    }

    #[test]
    fn trace_records_enqueue_dequeue_overload_and_audits_clean() {
        let (mut e, mut m) = evl();
        m.tracer().set_enabled(true);
        e.set_inbox_depth(1);
        e.post(&mut m, DomainId(0), DomainId(1), ());
        e.post(&mut m, DomainId(0), DomainId(1), ()); // overload
        e.run(&mut m, &mut |_, _, _| {});
        assert_eq!(m.tracer().count_of(EventKind::Enqueue), 1);
        assert_eq!(m.tracer().count_of(EventKind::Overload), 1);
        assert_eq!(m.tracer().count_of(EventKind::Dequeue), 1);
        audit_tracer(m.tracer()).assert_clean();
    }

    #[test]
    fn loop_itself_is_free_in_simulated_time() {
        // Posting and dequeuing charge nothing; only handlers move the
        // clock. (The engine is bookkeeping, not simulated work.)
        let (mut e, mut m) = evl();
        for _ in 0..100 {
            e.post(&mut m, DomainId(0), DomainId(1), ());
        }
        e.run(&mut m, &mut |_, _, _| {});
        assert_eq!(m.now(), Ns::ZERO);
    }

    #[test]
    fn posts_capture_the_ambient_span_and_steps_restore_it() {
        let (mut e, mut m) = evl();
        m.tracer().set_enabled(true);
        m.tracer().set_current_span(Some(42));
        e.post(&mut m, DomainId(0), DomainId(1), ());
        m.tracer().set_current_span(None);
        e.run(&mut m, &mut |_, m: &mut Machine, env| {
            assert_eq!(env.span, Some(42));
            assert_eq!(
                m.tracer().current_span(),
                Some(42),
                "handler runs in the span"
            );
        });
        assert_eq!(
            m.tracer().current_span(),
            None,
            "step restores the previous ambient span"
        );
        // The Dequeue record itself carries the envelope's span.
        let deq = m
            .tracer()
            .events()
            .into_iter()
            .find(|ev| ev.kind == EventKind::Dequeue)
            .unwrap();
        assert_eq!(deq.span, Some(42));
    }

    #[test]
    fn post_on_threads_the_path_through_enqueue_dequeue_and_overload() {
        let (mut e, mut m) = evl();
        m.tracer().set_enabled(true);
        e.set_inbox_depth(1);
        e.post_on(&mut m, DomainId(0), DomainId(1), Some(7), ());
        e.post_on(&mut m, DomainId(0), DomainId(1), Some(7), ()); // overload
        e.run(&mut m, &mut |_, _, _| {});
        for kind in [EventKind::Enqueue, EventKind::Dequeue, EventKind::Overload] {
            let ev = m
                .tracer()
                .events()
                .into_iter()
                .find(|ev| ev.kind == kind)
                .unwrap();
            assert_eq!(ev.path, Some(7), "{kind:?} attributes to the path");
        }
    }

    #[test]
    fn queue_delay_is_attributed_to_the_handling_domain() {
        let (mut e, mut m) = evl();
        e.post(&mut m, DomainId(0), DomainId(2), ());
        e.post(&mut m, DomainId(0), DomainId(2), ());
        e.run(&mut m, &mut |_, c: &mut Machine, _| {
            c.charge(CostCategory::Ipc, Ns(500));
        });
        assert_eq!(e.queue_delay_by_dom().get(2), Some(&500));
        assert_eq!(e.queue_delay_by_dom().first(), Some(&0));
    }

    /// Everything the loop records about the events it served.
    #[derive(Debug, PartialEq)]
    struct Observed {
        ids: Vec<EventId>,
        counters: (u64, u64, u64),
        queue_delay: Histogram,
        delay_by_dom: Vec<u64>,
        trace: Vec<fbuf_sim::TraceEvent>,
        chrome: String,
    }

    /// Runs `backlog` queued events, then `calls` sequential calls, on a
    /// traced loop whose handler charges 100 ns per event and posts one
    /// follow-up for each message below 10. With `direct`, each call
    /// goes through [`EventLoop::call`]; otherwise through `post_on` +
    /// `run`.
    fn drive(direct: bool, backlog: u32, calls: &[(u32, u32, u32)]) -> Observed {
        let (mut e, mut m) = evl();
        m.tracer().set_enabled(true);
        for i in 0..backlog {
            e.post_on(&mut m, DomainId(0), DomainId(1), Some(1), 100 + i);
        }
        let mut ids = Vec::new();
        let mut handler = |evl: &mut EventLoop<u32>, c: &mut Machine, env: Envelope<u32>| {
            ids.push(env.id);
            c.charge(CostCategory::Ipc, Ns(100));
            if env.msg < 10 {
                evl.post_on(c, env.to, DomainId(env.to.0 + 1), env.path, env.msg + 10);
            }
        };
        for (n, &(from, to, msg)) in calls.iter().enumerate() {
            m.tracer().set_current_span(Some(n as u64));
            let (from, to, path) = (DomainId(from), DomainId(to), Some(u64::from(msg)));
            if direct {
                e.call(from, to, path, msg, &mut m, &mut handler);
            } else {
                assert!(!e.post_on(&mut m, from, to, path, msg).is_overload());
                e.run(&mut m, &mut handler);
            }
        }
        Observed {
            ids,
            counters: (e.enqueued(), e.dequeued(), e.overloads()),
            queue_delay: e.queue_delay().clone(),
            delay_by_dom: e.queue_delay_by_dom().to_vec(),
            trace: m.tracer().events(),
            chrome: m.tracer().chrome_trace().render(),
        }
    }

    #[test]
    fn call_matches_post_and_run_on_idle_busy_and_chaining_loops() {
        // Messages ≥ 10 end their chain; below 10 the handler posts one
        // follow-up to the next domain.
        let idle = [(0, 1, 10), (1, 2, 11), (2, 0, 12)];
        let chaining = [(0, 1, 1), (1, 3, 2), (3, 0, 13)];
        for (backlog, calls) in [(0, &idle), (3, &idle), (0, &chaining), (2, &chaining)] {
            let direct = drive(true, backlog, calls);
            let queued = drive(false, backlog, calls);
            assert_eq!(direct, queued, "backlog {backlog}, calls {calls:?}");
            assert!(!direct.trace.is_empty());
        }
    }

    #[test]
    fn call_drains_a_full_inbox_instead_of_overloading() {
        let (mut e, mut m) = evl();
        e.set_inbox_depth(1);
        e.post(&mut m, DomainId(0), DomainId(1), ());
        let n = e.call(
            DomainId(0),
            DomainId(1),
            None,
            (),
            &mut m,
            &mut |_, _, _| {},
        );
        assert_eq!(n, 2, "the backlog and the call were both served");
        assert_eq!(e.overloads(), 0);
        assert_eq!(e.pending(), 0);
    }
}
