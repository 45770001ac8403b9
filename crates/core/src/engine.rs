//! The event-driven transfer engine: hops as scheduled events.
//!
//! In the paper (§3.2) a transfer is a chain of cross-domain RPC hops
//! whose replies carry the deallocation notices. This module runs that
//! chain on the [`fbuf_ipc::actor::EventLoop`]: each hop is **posted** to
//! the destination domain's bounded inbox, **dequeued** in deterministic
//! `(time, id)` order, **handled** (the hop's charges run inside the
//! handler), and **completed** either by posting the next leg or an
//! explicit [`HopMsg::Complete`] event back to the originator. It is the
//! only hop engine: a hop re-entered from inside a handler is already
//! being serviced as an event, so only that case calls
//! [`Rpc::call`](fbuf_ipc::Rpc::call) inline.
//!
//! **The drained hop costs its RPC.** When nothing is pending, a posted
//! event would be dequeued at the instant it is enqueued, so a
//! sequential [`FbufSystem::hop`] books it on the loop
//! ([`EventLoop::book`]) and then makes its [`Rpc::call`](fbuf_ipc::Rpc::call)
//! itself: no envelope, no handler call, and the loop stays in the
//! system. The booking draws the event id the push would have had and
//! runs the loop's own enqueue and dequeue bookkeeping, shared with
//! `post_on` and `step`, so the hop still counts one enqueue and one
//! dequeue, records a zero queueing delay, and writes the same
//! Enqueue/Dequeue trace records. With events pending, the hop is a
//! [`HopMsg::Call`] that [`EventLoop::call`] queues behind them and
//! drains. The RPC counts the reply's notices in place, so a hop
//! allocates nothing. Transfer legs share one `Rc` route.
//!
//! **Counter-exactness is the design invariant**: the loop itself never
//! touches the clock. All cost stays in the handler, which performs
//! exactly the charges of one inline RPC, so a drained (sequential)
//! workload charges what a synchronous descent would. The golden matrix
//! in `tests/counter_exactness.rs` pins the clock and every counter of
//! the loopback, Osiris, proxy-chain, aggregate, engine and fleet
//! workloads, recorded while an inline-descent mode still existed to
//! agree with.
//!
//! What the event loop adds over a synchronous descent is everything the
//! descent could not express: multiple transfers genuinely in flight
//! ([`run_offered_load`] posts bursts before pumping), per-hop queueing
//! delay measured into a [`Histogram`], and bounded inboxes whose
//! overflow is the explicit [`SendOutcome::Overload`] outcome instead of
//! unbounded recursion. See `DESIGN.md` §12.

use std::rc::Rc;

use fbuf_ipc::{Envelope, EventLoop, LoopContext, SendOutcome};
use fbuf_sim::metrics::Metrics;
use fbuf_sim::{EventId, Histogram, MachineConfig, Ns, Tracer};
use fbuf_vm::DomainId;

use crate::buffer::FbufId;
use crate::error::{FbufError, FbufResult};
use crate::system::{AllocMode, FbufSystem, SendMode};

/// Event payloads flowing through the transfer engine's loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopMsg {
    /// A bare control-transfer hop queued behind pending events — the
    /// event form of [`Rpc::call`](fbuf_ipc::Rpc::call). The handler
    /// charges the RPC and keeps the count of piggybacked deallocation
    /// notices for the caller of [`FbufSystem::hop`].
    Call,
    /// One leg of a full transfer driven by [`run_offered_load`]: the
    /// handler charges the RPC, moves `fbuf` to the envelope's
    /// destination, and posts the next leg (or frees + completes at the
    /// last one). `route` is the whole domain chain; `leg` indexes the
    /// hop being serviced (leg *i* moves the buffer from `route[i]` to
    /// `route[i + 1]`).
    Transfer {
        /// The buffer in flight.
        fbuf: FbufId,
        /// The full domain chain, originator first, shared by every leg.
        route: Rc<[DomainId]>,
        /// Index of this hop within `route`.
        leg: usize,
        /// The transfer's causal span, minted by
        /// [`FbufSystem::submit_transfer`] and carried on every leg (the
        /// event loop also stamps it into each envelope, so every
        /// Enqueue/Dequeue/HopService record the transfer produces is
        /// tagged with it).
        span: u64,
        /// Simulated-time revocation deadline stamped by
        /// [`FbufSystem::submit_transfer`] when a timeout is armed
        /// ([`FbufSystem::set_revoke_timeout`]). A leg dequeued after
        /// this instant does not deliver: the buffer is revoked from the
        /// stalled holder chain and returned to its originator's cache.
        deadline: Option<Ns>,
    },
    /// Explicit completion, posted back to the originator after the final
    /// leg's frees. Charges nothing; counted on dequeue.
    Complete {
        /// The completed buffer's raw id (the buffer is already freed, so
        /// this is a token, not a live handle).
        fbuf: u64,
    },
}

/// What [`FbufSystem::submit_transfer`] did with a transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub enum SubmitOutcome {
    /// The first leg is queued; the engine now drives the transfer.
    Queued(EventId),
    /// The first leg's inbox was full ([`SendOutcome::Overload`]):
    /// counted and traced. The transfer never started and the caller
    /// still owns the buffer.
    Overload,
    /// The submission was invalid ([`FbufError::RouteTooShort`]) or came
    /// while the engine was pumping ([`FbufError::EngineBusy`]). Nothing
    /// was posted, counted or traced, and the caller still owns the
    /// buffer.
    Refused(FbufError),
}

impl SubmitOutcome {
    /// True when a full inbox refused the first leg.
    pub fn is_overload(&self) -> bool {
        matches!(self, SubmitOutcome::Overload)
    }
}

/// The loop reads the simulated now, the tracer and the telemetry from
/// the machine the system owns.
impl LoopContext for FbufSystem {
    fn now(&self) -> Ns {
        self.machine.now()
    }

    fn tracer(&self) -> &Tracer {
        self.machine.tracer()
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        self.machine.metrics_mut()
    }
}

impl FbufSystem {
    /// Sets the bounded per-domain inbox depth (see
    /// [`fbuf_ipc::actor::EventLoop::set_inbox_depth`]).
    pub fn set_inbox_depth(&mut self, depth: usize) {
        if let Some(e) = self.engine.as_mut() {
            e.set_inbox_depth(depth);
        }
    }

    /// Performs one cross-domain hop from `from` to `to` and returns how
    /// many deallocation notices the reply carried back.
    ///
    /// The hop is an event on the loop: the charges and counters of one
    /// [`Rpc::call`](fbuf_ipc::Rpc::call), plus an Enqueue/Dequeue audit
    /// trail and a (zero, when drained) queueing-delay sample. On an
    /// idle loop it is booked ([`EventLoop::book`]) and the RPC made
    /// here, which leaves the ids, counters, delay sample and trace
    /// records exactly as a queued event would (see the
    /// [module docs](crate::engine)). With events pending it is a
    /// [`HopMsg::Call`] that [`EventLoop::call`] queues behind them, so
    /// it keeps its order against queued legs; a full inbox is drained
    /// first, so a hop never overloads.
    ///
    /// Calls arriving while the loop is already pumping (i.e. from inside
    /// a handler) charge inline: they are being serviced *as* an event
    /// already.
    pub fn hop(&mut self, from: DomainId, to: DomainId) -> usize {
        if let Some(mut evl) = self.engine.take_if(|evl| evl.pending() > 0) {
            evl.call(from, to, None, HopMsg::Call, self, &mut handle_hop);
            self.engine = Some(evl);
            return std::mem::take(&mut self.hop_notices);
        }
        if let Some(evl) = self.engine.as_deref_mut() {
            evl.book(&self.machine, from, to, None);
        }
        self.rpc.call(&mut self.machine, from, to)
    }

    /// Posts one full multi-leg transfer (first leg only; later legs are
    /// posted by the handler as each hop completes). Returns the outcome
    /// of the first post. [`SubmitOutcome::Overload`] and
    /// [`SubmitOutcome::Refused`] both mean the transfer never started
    /// and the caller still owns `fbuf`.
    pub fn submit_transfer(&mut self, fbuf: FbufId, route: &[DomainId]) -> SubmitOutcome {
        if route.len() < 2 {
            return SubmitOutcome::Refused(FbufError::RouteTooShort { len: route.len() });
        }
        let Some(mut evl) = self.engine.take() else {
            return SubmitOutcome::Refused(FbufError::EngineBusy);
        };
        let span = self.mint_span();
        let path = self.fbuf_path_raw(fbuf);
        let now = self.machine.now();
        let tracer = self.machine.tracer();
        tracer.span_start(now, span, route[0].0, path, Some(fbuf.0));
        let deadline = self.revoke_timeout().map(|t| Ns(now.as_ns() + t.as_ns()));
        let msg = HopMsg::Transfer {
            fbuf,
            route: Rc::from(route),
            leg: 0,
            span,
            deadline,
        };
        // The ambient span makes the first leg's Enqueue (and an
        // Overload refusal) attributable to this transfer; the envelope
        // then carries it hop to hop.
        let prev = tracer.set_current_span(Some(span));
        let outcome = post_leg(&mut evl, self, route[0], route[1], path, msg);
        self.machine.tracer().set_current_span(prev);
        self.engine = Some(evl);
        match outcome {
            SendOutcome::Queued(id) => SubmitOutcome::Queued(id),
            SendOutcome::Overload => SubmitOutcome::Overload,
        }
    }

    /// Drains the event loop to empty, servicing every pending hop; no-op
    /// when re-entered from a handler. Returns the number of events
    /// processed.
    pub fn pump(&mut self) -> usize {
        let Some(mut evl) = self.engine.take() else {
            return 0;
        };
        let n = evl.run(self, &mut handle_hop);
        self.engine = Some(evl);
        n
    }

    /// Events currently pending across all inboxes.
    pub fn engine_pending(&self) -> usize {
        self.engine.as_deref().map_or(0, EventLoop::pending)
    }

    /// Posts refused with [`SendOutcome::Overload`] so far.
    pub fn engine_overloads(&self) -> u64 {
        self.engine.as_deref().map_or(0, EventLoop::overloads)
    }

    /// Per-hop queueing-delay histogram (simulated ns from enqueue to
    /// dequeue).
    pub fn queue_delay(&self) -> Histogram {
        self.engine
            .as_ref()
            .map(|e| e.queue_delay().clone())
            .unwrap_or_default()
    }

    /// Transfers completed through the event loop (a
    /// [`HopMsg::Complete`] event was dequeued).
    pub fn transfers_completed(&self) -> u64 {
        self.xfer_completed
    }

    /// Transfers aborted mid-route because a leg hit
    /// [`SendOutcome::Overload`] (the buffer was freed back at every
    /// holder).
    pub fn transfers_aborted(&self) -> u64 {
        self.xfer_aborted
    }

    /// Transfers whose revocation deadline expired before a leg was
    /// serviced — the buffer was revoked from the stalled holder chain.
    /// Every revoked transfer also counts as aborted, so the
    /// offered = completed + aborted conservation is unchanged.
    pub fn transfers_revoked(&self) -> u64 {
        self.xfer_revoked
    }
}

/// Releases `fbuf` at every domain of `holders`, deepest first, so the
/// originator's free comes last and parks the buffer on its path cache:
/// the unwind of an aborted transfer, the final leg's release, and every
/// release of a shard's walk (`shard.rs`). With `revoke`, the deepest
/// domain that still holds it is formally revoked instead of freed.
/// Holders a domain termination already released are skipped, so frames
/// are reclaimed exactly once either way.
pub(crate) fn unwind(sys: &mut FbufSystem, fbuf: FbufId, holders: &[DomainId], mut revoke: bool) {
    for d in holders.iter().rev() {
        if revoke && sys.fbuf(fbuf).is_ok_and(|f| f.holders.contains(d)) {
            revoke = sys.revoke(fbuf, *d).is_err();
        } else {
            let _ = sys.free(fbuf, *d);
        }
    }
}

/// Posts one transfer event stamped with the simulated now. A refusal
/// is counted in `Stats::overload_drops` here, the one place the engine
/// turns the loop's [`SendOutcome::Overload`] into the machine counter.
fn post_leg(
    evl: &mut EventLoop<HopMsg>,
    sys: &mut FbufSystem,
    from: DomainId,
    to: DomainId,
    path: Option<u64>,
    msg: HopMsg,
) -> SendOutcome {
    let outcome = evl.post_on(sys, from, to, path, msg);
    if outcome.is_overload() {
        sys.machine.stats_mut().inc_overload_drops();
    }
    outcome
}

/// The per-event handler: all simulated cost charged by a hop lives here,
/// which is what keeps the loop counter-exact with an inline descent.
/// Marked for inlining into the loop's `step`: as a separate call it
/// moves the envelope through the stack on every queued event.
#[inline]
fn handle_hop(evl: &mut EventLoop<HopMsg>, sys: &mut FbufSystem, env: Envelope<HopMsg>) {
    match env.msg {
        HopMsg::Call => {
            // Only `hop` posts a `Call`, one per drain, and it takes the
            // count right after.
            sys.hop_notices = sys.rpc.call(&mut sys.machine, env.from, env.to);
        }
        HopMsg::Transfer {
            fbuf,
            route,
            leg,
            span,
            deadline,
        } => {
            // The loop restored the envelope's span around this handler,
            // so it must agree with the one the message carries.
            debug_assert_eq!(
                sys.machine().tracer().current_span().or(Some(span)),
                Some(span),
                "envelope span and message span diverged"
            );
            let t0 = sys.machine().now();
            let path = sys.fbuf_path_raw(fbuf);
            if deadline.is_some_and(|dl| sys.machine().now() > dl) {
                // The revocation deadline passed while this leg sat
                // queued: the receiver is stalled. Take the buffer back
                // instead of delivering — one Revoked event, one ledger
                // bill — and return it to its path cache.
                sys.xfer_revoked += 1;
                sys.xfer_aborted += 1;
                unwind(sys, fbuf, &route[..=leg], true);
                sys.sample_metrics();
                return;
            }
            sys.rpc.call(&mut sys.machine, env.from, env.to);
            if let Err(e) = sys.send(fbuf, env.from, env.to, SendMode::Volatile) {
                // The leg could not be delivered (e.g. the receiver was
                // torn down while it sat queued): abort the transfer,
                // releasing every reference taken so far, as the
                // overload path below does.
                sys.engine_error.get_or_insert(e);
                sys.xfer_aborted += 1;
                unwind(sys, fbuf, &route[..=leg], false);
                return;
            }
            if leg + 2 < route.len() {
                let (nf, nt) = (route[leg + 1], route[leg + 2]);
                let msg = HopMsg::Transfer {
                    fbuf,
                    route: Rc::clone(&route),
                    leg: leg + 1,
                    span,
                    deadline,
                };
                if post_leg(evl, sys, nf, nt, path, msg).is_overload() {
                    // The next inbox refused the leg: abort the transfer,
                    // releasing every reference taken so far, receiver
                    // back to originator.
                    sys.xfer_aborted += 1;
                    unwind(sys, fbuf, &route[..=leg + 1], false);
                }
            } else {
                // Final leg: every holder releases, receiver first (the
                // originator's free parks the buffer on the path cache),
                // then completion is itself an event back to the source.
                let origin = route[0];
                unwind(sys, fbuf, &route, false);
                let from = route[route.len() - 1];
                // Admission control bounds in-flight transfers to the
                // inbox depth, so the originator's inbox always has room
                // for completions; if a caller engineers one anyway, the
                // completion is counted inline rather than lost.
                let done = HopMsg::Complete { fbuf: fbuf.0 };
                if post_leg(evl, sys, from, origin, path, done).is_overload() {
                    sys.xfer_completed += 1;
                }
            }
            // Everything this hop charged between t0 and now is its
            // service stage in the span's critical-path decomposition.
            let now = sys.machine.now();
            sys.machine.tracer().span(
                t0,
                now,
                fbuf_sim::EventKind::HopService,
                env.to.0,
                path,
                Some(fbuf.0),
            );
            sys.sample_metrics();
        }
        HopMsg::Complete { .. } => {
            sys.xfer_completed += 1;
        }
    }
}

/// Configuration for the offered-load queueing workload.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Total transfers to offer.
    pub transfers: u64,
    /// Transfers posted before each drain — the offered load. `1` is the
    /// drained sequential regime (zero queueing delay); larger bursts
    /// build real backlog and, past the inbox depth, overload.
    pub burst: usize,
    /// Hops per transfer (route has `hops + 1` domains, originator
    /// included).
    pub hops: usize,
    /// Pages per fbuf.
    pub pages: u64,
    /// Per-domain inbox bound.
    pub inbox_depth: usize,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            transfers: 256,
            burst: 8,
            hops: 2,
            pages: 1,
            inbox_depth: fbuf_ipc::DEFAULT_INBOX_DEPTH,
        }
    }
}

/// What one offered-load run measured.
#[derive(Debug, Clone)]
pub struct QueueReport {
    /// Transfers offered (alloc + first-leg post attempted).
    pub offered: u64,
    /// Transfers whose [`HopMsg::Complete`] event was serviced.
    pub completed: u64,
    /// Transfers refused or aborted by a full inbox.
    pub aborted: u64,
    /// Individual posts refused ([`SendOutcome::Overload`]), counting
    /// first legs and mid-route legs alike.
    pub overloads: u64,
    /// Per-hop queueing delay (simulated ns from enqueue to dequeue).
    pub queue_delay: Histogram,
    /// Simulated time the run took.
    pub elapsed: Ns,
    /// Payload bytes successfully delivered end to end.
    pub bytes_delivered: u64,
    /// Telemetry series sampled over the run (the engine's gauges on
    /// the default cadence).
    pub telemetry: Vec<fbuf_sim::metrics::SeriesSnapshot>,
    /// Critical-path decomposition of the run's transfer spans:
    /// queueing vs. service time per hop (ring-crossing is empty on a
    /// single-shard run).
    pub spans: fbuf_sim::spans::StageDecomposition,
}

/// Runs the offered-load queueing workload on a fresh system: allocates
/// cached fbufs at the originator, posts `burst` transfers at a time
/// through an `hops`-leg route, then drains the loop — measuring per-hop
/// queueing delay and overload behaviour as a function of offered load.
///
/// With `burst = 1` this is exactly the drained sequential regime the
/// counter-exactness tests pin; with `burst > inbox_depth` the bounded
/// inboxes start refusing work and the explicit [`SendOutcome::Overload`]
/// path (counted in `Stats::overload_drops`) takes over from queueing.
pub fn run_offered_load(cfg: &QueueConfig) -> FbufResult<QueueReport> {
    let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
    sys.set_inbox_depth(cfg.inbox_depth);
    // Telemetry and span tracing ride along: neither ever charges the
    // simulated clock, so the measured times are unchanged.
    sys.machine().metrics().set_enabled(true);
    sys.machine().tracer().set_enabled(true);

    let mut route = vec![fbuf_vm::KERNEL_DOMAIN];
    for _ in 0..cfg.hops {
        route.push(sys.create_domain());
    }
    let origin = route[0];
    let path = sys.create_path(route.clone())?;
    let len = cfg.pages * sys.machine().page_size();

    let t0 = sys.machine().now();
    let mut offered = 0u64;
    let mut refused_at_post = 0u64;
    while offered < cfg.transfers {
        let n = (cfg.transfers - offered).min(cfg.burst as u64);
        for _ in 0..n {
            let fbuf = sys.alloc(origin, AllocMode::Cached(path), len)?;
            offered += 1;
            match sys.submit_transfer(fbuf, &route) {
                SubmitOutcome::Queued(_) => {}
                SubmitOutcome::Overload => {
                    // Never started: the originator still owns the buffer.
                    sys.free(fbuf, origin)?;
                    refused_at_post += 1;
                }
                SubmitOutcome::Refused(e) => return Err(e),
            }
        }
        sys.pump();
    }
    sys.pump();
    if let Some(e) = sys.engine_error.take() {
        return Err(e);
    }

    let completed = sys.transfers_completed();
    Ok(QueueReport {
        offered,
        completed,
        aborted: refused_at_post + sys.transfers_aborted(),
        overloads: sys.engine_overloads(),
        queue_delay: sys.queue_delay(),
        elapsed: sys.machine().now() - t0,
        bytes_delivered: completed * len,
        telemetry: sys.machine().metrics().series(),
        spans: fbuf_sim::spans::decompose(&sys.machine().tracer().events()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_vm::KERNEL_DOMAIN;

    fn fresh() -> (FbufSystem, DomainId, DomainId) {
        let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
        let a = sys.create_domain();
        let b = sys.create_domain();
        (sys, a, b)
    }

    #[test]
    fn hop_charges_exactly_one_rpc() {
        let (mut sys, a, b) = fresh();
        for _ in 0..10 {
            sys.hop(a, b);
            sys.hop(b, KERNEL_DOMAIN);
        }
        // Golden values, recorded when an inline-descent mode still ran
        // the same hops to the same instant and counters.
        assert_eq!(sys.machine().now(), Ns(2_650_000));
        let expected = fbuf_sim::StatsSnapshot {
            ipc_messages: 20,
            ..Default::default()
        };
        assert_eq!(
            sys.stats().snapshot(),
            expected,
            "each hop is one RPC, nothing more"
        );
        // The loop measured each hop, all with zero queueing (drained).
        let h = sys.queue_delay();
        assert_eq!(h.count(), 20);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn hop_returns_piggybacked_notices_through_the_loop() {
        let (mut sys, a, b) = fresh();
        let path = sys.create_path(vec![a, b]).unwrap();
        let buf = sys.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        sys.send(buf, a, b, SendMode::Volatile).unwrap();
        sys.free(buf, b).unwrap(); // queues a notice for owner `a`
        assert_eq!(sys.hop(a, b), 1, "the reply carried the notice");
        assert_eq!(sys.hop(a, b), 0, "drained only once");
    }

    /// One row of the direct-hop equivalence table: the state a hop
    /// sequence starts from.
    struct HopRow {
        name: &'static str,
        /// Tracer enabled, and the ambient span set, before the hops.
        traced: bool,
        span: Option<u64>,
        /// Per-domain inbox bound.
        depth: usize,
        /// Transfers submitted through the path and left unpumped.
        backlog: usize,
        /// Notices owed to the path's originator when the hops begin.
        notices: usize,
        /// Notices the first hop's reply carries back: those owed, plus
        /// those of a backlog the hop drains before it is served.
        carried: usize,
    }

    /// Everything a hop records, outside the buffers it moves.
    #[derive(Debug, PartialEq)]
    struct HopSeen {
        notices: Vec<usize>,
        ids: u64,
        counts: (u64, u64, u64),
        delay: Histogram,
        delay_by_dom: Vec<u64>,
        now: Ns,
        stats: fbuf_sim::StatsSnapshot,
        events: Vec<fbuf_sim::TraceEvent>,
        trace: String,
    }

    /// Builds `row`'s starting state on a fresh system with a cached
    /// path `a → b → c`, runs the hops `a → b`, `b → c`, `a → b`, and
    /// records what they left. With `queued`, each hop is forced through
    /// the queue as a [`HopMsg::Call`] (`post_on` + `run`, draining a
    /// full inbox first, as [`EventLoop::call`] does); otherwise through
    /// [`FbufSystem::hop`].
    fn run_hop_row(row: &HopRow, queued: bool) -> HopSeen {
        let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
        let route = [
            sys.create_domain(),
            sys.create_domain(),
            sys.create_domain(),
        ];
        let [a, b, c] = route;
        let path = sys.create_path(route.to_vec()).unwrap();
        sys.set_inbox_depth(row.depth);
        sys.machine().tracer().set_enabled(row.traced);
        sys.machine().tracer().set_current_span(row.span);
        for _ in 0..row.notices {
            let buf = sys.alloc(a, AllocMode::Cached(path), 4096).unwrap();
            sys.send(buf, a, b, SendMode::Volatile).unwrap();
            sys.free(buf, b).unwrap();
            sys.free(buf, a).unwrap();
        }
        for _ in 0..row.backlog {
            let buf = sys.alloc(a, AllocMode::Cached(path), 4096).unwrap();
            assert!(matches!(
                sys.submit_transfer(buf, &route),
                SubmitOutcome::Queued(_)
            ));
        }
        let mut notices = Vec::new();
        for (from, to) in [(a, b), (b, c), (a, b)] {
            notices.push(if queued {
                let mut evl = sys.engine.take().unwrap();
                if evl.inbox_len(to) >= row.depth {
                    evl.run(&mut sys, &mut handle_hop);
                }
                let outcome = evl.post_on(&mut sys, from, to, None, HopMsg::Call);
                assert!(!outcome.is_overload());
                evl.run(&mut sys, &mut handle_hop);
                sys.engine = Some(evl);
                std::mem::take(&mut sys.hop_notices)
            } else {
                sys.hop(from, to)
            });
        }
        assert_eq!(sys.engine_pending(), 0, "{}: the hops drained", row.name);
        let evl = sys.engine.as_deref().unwrap();
        HopSeen {
            notices,
            ids: evl.ids_issued(),
            counts: (evl.enqueued(), evl.dequeued(), evl.overloads()),
            delay: evl.queue_delay().clone(),
            delay_by_dom: evl.queue_delay_by_dom().to_vec(),
            now: sys.machine().now(),
            stats: sys.stats().snapshot(),
            events: sys.machine().tracer().events(),
            trace: sys.machine().tracer().chrome_trace().render(),
        }
    }

    #[test]
    fn a_direct_hop_records_what_a_queued_one_records() {
        #[rustfmt::skip]
        let rows = [
            HopRow { name: "idle loop",         traced: false, span: None,     depth: 64, backlog: 0, notices: 0, carried: 0 },
            HopRow { name: "unpumped transfer", traced: true,  span: None,     depth: 64, backlog: 1, notices: 0, carried: 0 },
            HopRow { name: "full inbox",        traced: true,  span: None,     depth: 1,  backlog: 1, notices: 0, carried: 2 },
            HopRow { name: "ambient span",      traced: true,  span: Some(77), depth: 64, backlog: 0, notices: 0, carried: 0 },
            HopRow { name: "notices owed",      traced: true,  span: None,     depth: 64, backlog: 0, notices: 2, carried: 2 },
        ];
        for row in &rows {
            let direct = run_hop_row(row, false);
            assert_eq!(direct, run_hop_row(row, true), "{}", row.name);
            assert_eq!(direct.counts.0, direct.counts.1, "{}", row.name);
            assert_eq!(direct.notices[0], row.carried, "{}", row.name);
            assert_eq!(direct.events.is_empty(), !row.traced, "{}", row.name);
        }
    }

    #[test]
    fn offered_load_completes_everything_when_admitted() {
        let cfg = QueueConfig {
            transfers: 64,
            burst: 4,
            hops: 2,
            ..QueueConfig::default()
        };
        let r = run_offered_load(&cfg).unwrap();
        assert_eq!(r.offered, 64);
        assert_eq!(r.completed, 64);
        assert_eq!(r.aborted, 0);
        assert_eq!(r.overloads, 0);
        // 2 transfer legs + 1 completion event per transfer.
        assert_eq!(r.queue_delay.count(), 64 * 3);
        assert!(r.elapsed > Ns::ZERO);
        assert_eq!(r.bytes_delivered, 64 * 4096);
    }

    #[test]
    fn queueing_delay_grows_with_offered_load() {
        let base = QueueConfig {
            transfers: 64,
            hops: 2,
            ..QueueConfig::default()
        };
        let drained = run_offered_load(&QueueConfig {
            burst: 1,
            ..base.clone()
        })
        .unwrap();
        let loaded = run_offered_load(&QueueConfig { burst: 16, ..base }).unwrap();
        assert_eq!(
            drained.queue_delay.max(),
            0,
            "burst=1 is the drained sequential regime"
        );
        assert!(
            loaded.queue_delay.max() > 0,
            "a burst builds backlog, so later events wait"
        );
        assert!(loaded.queue_delay.p99() >= loaded.queue_delay.p50());
    }

    #[test]
    fn overload_bounds_admission_past_inbox_depth() {
        let cfg = QueueConfig {
            transfers: 64,
            burst: 16,
            hops: 1,
            inbox_depth: 4,
            ..QueueConfig::default()
        };
        let r = run_offered_load(&cfg).unwrap();
        assert!(r.overloads > 0, "posts beyond the depth are refused");
        assert!(r.aborted > 0);
        assert_eq!(
            r.completed + r.aborted,
            r.offered,
            "every transfer either completes or aborts — none lost"
        );
        // Refused transfers were freed back to the path cache, not leaked.
        assert!(r.completed >= 4 * (64 / 16), "each burst admits the depth");
    }

    #[test]
    fn submit_and_pump_drive_one_transfer_end_to_end() {
        let (mut sys, a, _) = fresh();
        let route = vec![KERNEL_DOMAIN, a];
        let path = sys.create_path(route.clone()).unwrap();
        let buf = sys
            .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
            .unwrap();
        assert!(matches!(
            sys.submit_transfer(buf, &route),
            SubmitOutcome::Queued(_)
        ));
        assert_eq!(sys.engine_pending(), 1);
        let serviced = sys.pump();
        assert_eq!(serviced, 2, "one transfer leg plus its completion");
        assert_eq!(sys.transfers_completed(), 1);
        assert_eq!(sys.engine_pending(), 0);
        assert_eq!(sys.stats().fbuf_transfers(), 1);
    }

    #[test]
    fn submit_refuses_a_route_without_a_hop() {
        let (mut sys, a, _) = fresh();
        let buf = sys.alloc(a, AllocMode::Uncached, 4096).unwrap();
        for route in [&[][..], &[a][..]] {
            assert_eq!(
                sys.submit_transfer(buf, route),
                SubmitOutcome::Refused(FbufError::RouteTooShort { len: route.len() })
            );
        }
        assert_eq!(sys.engine_pending(), 0, "nothing was posted");
        sys.free(buf, a).unwrap();
    }

    #[test]
    fn submit_refuses_while_the_engine_pumps() {
        let (mut sys, a, b) = fresh();
        let path = sys.create_path(vec![a, b]).unwrap();
        let buf = sys.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        // A handler runs with the loop taken out of the system.
        let evl = sys.engine.take();
        assert_eq!(
            sys.submit_transfer(buf, &[a, b]),
            SubmitOutcome::Refused(FbufError::EngineBusy)
        );
        sys.engine = evl;
        assert!(matches!(
            sys.submit_transfer(buf, &[a, b]),
            SubmitOutcome::Queued(_)
        ));
        sys.pump();
        assert_eq!(sys.transfers_completed(), 1);
    }
}
