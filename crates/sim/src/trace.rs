//! Structured lifecycle tracing: a bounded ring buffer of typed events.
//!
//! The [`Tracer`] is a plain value the machine owns; every layer borrows
//! it from the machine, and it cannot be cloned. It keeps no clock: each
//! recorder takes the simulated now from its caller. It is **disabled by
//! default** and gated on a single `Cell<bool>` read, and recording never
//! charges the clock, so enabling it observes a run without perturbing a
//! single simulated nanosecond — the "zero-cost-by-default" contract the
//! bench suite pins.
//!
//! Each [`TraceEvent`] carries the simulated time, the acting domain,
//! and the path/fbuf it concerns. Instant events mark points
//! (`CacheHit`, `Fault`, `PduRx`, ...); span events additionally carry a
//! duration from a caller-captured start time to now (`Alloc`,
//! `Transfer`), and those two span kinds feed per-path
//! [`Histogram`]s of allocation service time and transfer latency
//! as a side effect of being recorded.
//!
//! Storage is a fixed-capacity ring: when full, the oldest event is
//! dropped and a counter incremented, so a long workload can run under a
//! small trace window without unbounded memory. [`Tracer::chrome_trace`]
//! exports the ring in Chrome `trace_event` JSON (load it in
//! `about://tracing` or Perfetto); [`Tracer::events`] hands the raw ring
//! to the replay auditor in [`mod@crate::audit`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use crate::hist::Histogram;
use crate::json::{Json, ToJson};
use crate::time::Ns;

/// Default ring capacity: enough for every integration-test workload to
/// fit untruncated, small enough to be negligible next to simulated
/// physical memory.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// What happened. Instants mark a point; `Alloc` and `Transfer` are
/// recorded as spans with a duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An fbuf allocation completed (span; feeds the allocation-service
    /// histogram).
    Alloc,
    /// A cached allocation was served from the path's free list.
    CacheHit,
    /// A cached allocation found the free list empty and built fresh.
    CacheMiss,
    /// An fbuf's pages were write-protected in every mapping.
    Secure,
    /// An fbuf was handed from `dom` to `peer` (span; feeds the
    /// transfer-latency histogram).
    Transfer,
    /// A translation fault was serviced (soft, COW, violation, wild read).
    Fault,
    /// A dealloc notice travelled (piggybacked or explicit) to `peer`.
    Notice,
    /// A holder released its reference.
    Free,
    /// A parked cached frame was reclaimed under memory pressure.
    Reclaim,
    /// A PDU left a driver/stack.
    PduTx,
    /// A PDU arrived at a driver/stack.
    PduRx,
    /// An integrated-DAG node was visited during traversal.
    DagVisit,
    /// A domain wrote fbuf bytes (successfully — protection allowed it).
    Write,
    /// A cross-domain RPC from `dom` to `peer`.
    IpcCall,
    /// A message hopped a protocol-graph domain boundary.
    Hop,
    /// A batched `map_range` installed `pages` translations in one VM
    /// call (one event where the per-page sequence would emit N).
    MapRange,
    /// A batched `unmap_range` removed up to `pages` translations.
    UnmapRange,
    /// A batched `protect_range` changed `pages` pages' protection.
    ProtectRange,
    /// A transfer event was enqueued into a domain actor's inbox
    /// (`dom` = poster, `peer` = destination actor).
    Enqueue,
    /// A domain actor dequeued an inbox event for processing (`dom` =
    /// the actor, `peer` = original poster; `dur` = queueing delay).
    Dequeue,
    /// An enqueue was refused because the destination actor's bounded
    /// inbox was full — the transfer was dropped, not recursed into.
    Overload,
    /// A transfer span was minted (`span` = the new span id): the root
    /// of one transfer's causal tree.
    SpanStart,
    /// A parent/child span edge: a transfer crossed into a new context
    /// (e.g. a cross-shard ring) and continued under a child span.
    /// `span` = the child, `fbuf` = the **parent** span id.
    SpanLink,
    /// A cross-shard payload was handled after crossing an SPSC ring
    /// (span; `dur` = receiver-side ingest handling time, `pages` = ring
    /// occupancy observed at the crossing).
    RingCross,
    /// One scheduled transfer hop's handler ran to completion (span;
    /// `dur` = service time from dequeue to handler return).
    HopService,
    /// A dealloc notice arrived with no matching pending egress buffer
    /// (or out of FIFO send order) — `fbuf` carries the orphan token.
    /// Under fault injection this is survivable; the audit rule
    /// `notice-without-pending` turns every occurrence into a typed
    /// violation instead of a fleet abort.
    NoticeOrphan,
    /// An fbuf was forcibly revoked from a tenant: `dom` is the holder
    /// (stalled-receiver timeout) or the originator of a parked buffer
    /// being retired (quota-jail escalation). The audit rule
    /// `revoke-of-dead-buffer` requires the target to still be live —
    /// held by `dom` or parked on its path — at the moment of the event.
    Revoked,
    /// A forged or stale cross-shard ring token was rejected before any
    /// dereference (`fbuf` carries the raw rejected token). Informational:
    /// rejection is the *correct* outcome, so no audit rule fires.
    TokenReject,
}

impl EventKind {
    /// Stable label used in exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Alloc => "Alloc",
            EventKind::CacheHit => "CacheHit",
            EventKind::CacheMiss => "CacheMiss",
            EventKind::Secure => "Secure",
            EventKind::Transfer => "Transfer",
            EventKind::Fault => "Fault",
            EventKind::Notice => "Notice",
            EventKind::Free => "Free",
            EventKind::Reclaim => "Reclaim",
            EventKind::PduTx => "PduTx",
            EventKind::PduRx => "PduRx",
            EventKind::DagVisit => "DagVisit",
            EventKind::Write => "Write",
            EventKind::IpcCall => "IpcCall",
            EventKind::Hop => "Hop",
            EventKind::MapRange => "MapRange",
            EventKind::UnmapRange => "UnmapRange",
            EventKind::ProtectRange => "ProtectRange",
            EventKind::Enqueue => "Enqueue",
            EventKind::Dequeue => "Dequeue",
            EventKind::Overload => "Overload",
            EventKind::SpanStart => "SpanStart",
            EventKind::SpanLink => "SpanLink",
            EventKind::RingCross => "RingCross",
            EventKind::HopService => "HopService",
            EventKind::NoticeOrphan => "NoticeOrphan",
            EventKind::Revoked => "Revoked",
            EventKind::TokenReject => "TokenReject",
        }
    }
}

/// One recorded event. `at` is the simulated time the event was
/// recorded (for spans: the end; the start is `at - dur`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (survives ring eviction, so gaps at the
    /// front reveal truncation).
    pub seq: u64,
    /// Simulated timestamp at recording.
    pub at: Ns,
    /// Event kind.
    pub kind: EventKind,
    /// The acting domain.
    pub dom: u32,
    /// The peer domain, where the event has one (receiver of a
    /// `Transfer`, callee of an `IpcCall`, holder a `Notice` reaches).
    pub peer: Option<u32>,
    /// The path concerned, if any.
    pub path: Option<u64>,
    /// The fbuf concerned, if any.
    pub fbuf: Option<u64>,
    /// Span duration; `None` for instants.
    pub dur: Option<Ns>,
    /// Page count, for the ranged VM events (`MapRange`/`UnmapRange`/
    /// `ProtectRange`); for `RingCross`, the ring occupancy observed at
    /// the crossing; `None` otherwise.
    pub pages: Option<u64>,
    /// The causal transfer span this event belongs to, if one was
    /// active when it was recorded (see [`Tracer::set_current_span`]).
    pub span: Option<u64>,
}

#[derive(Debug)]
struct TracerInner {
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    seq: u64,
    /// Allocation service time per path (`None` = uncached allocs).
    alloc_hist: Vec<(Option<u64>, Histogram)>,
    /// Transfer latency per path.
    transfer_hist: Vec<(Option<u64>, Histogram)>,
}

impl TracerInner {
    fn push(&mut self, mut e: TraceEvent) {
        e.seq = self.seq;
        self.seq += 1;
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }
}

fn hist_entry(table: &mut Vec<(Option<u64>, Histogram)>, path: Option<u64>) -> &mut Histogram {
    if let Some(i) = table.iter().position(|(p, _)| *p == path) {
        return &mut table[i].1;
    }
    table.push((path, Histogram::new()));
    &mut table.last_mut().expect("just pushed").1
}

/// The machine's trace ring. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use fbuf_sim::{EventKind, Ns, Tracer};
///
/// let t = Tracer::new();
/// t.instant(Ns(0), EventKind::CacheHit, 1, Some(7), Some(3)); // disabled: no-op
/// assert_eq!(t.len(), 0);
/// t.set_enabled(true);
/// t.span(Ns(0), Ns(500), EventKind::Alloc, 1, Some(7), Some(3));
/// assert_eq!(t.len(), 1);
/// assert_eq!(t.alloc_latency(Some(7)).expect("recorded").count(), 1);
/// ```
///
/// A `Tracer` has one owner, the machine, and cannot be cloned:
///
/// ```compile_fail
/// let t = fbuf_sim::Tracer::new();
/// let _copy = t.clone();
/// ```
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    /// The transfer span currently in scope: every event recorded while
    /// it is set is tagged with it. Propagated by the caller across
    /// enqueue/dequeue and ring crossings; orthogonal to `enabled` so
    /// span context survives even while recording is off.
    current_span: Cell<Option<u64>>,
    inner: RefCell<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer with the [default ring capacity](DEFAULT_CAPACITY).
    pub fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(false),
            current_span: Cell::new(None),
            inner: RefCell::new(TracerInner {
                cap: DEFAULT_CAPACITY,
                events: VecDeque::new(),
                dropped: 0,
                seq: 0,
                alloc_hist: Vec::new(),
                transfer_hist: Vec::new(),
            }),
        }
    }

    /// Turns recording on or off. The ring is kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Resizes the ring (evicting oldest events if shrinking below the
    /// current length).
    pub fn set_capacity(&self, cap: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.cap = cap.max(1);
        while inner.events.len() > inner.cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
    }

    /// Discards every recorded event and histogram (keeps enablement,
    /// capacity, and the sequence counter).
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.events.clear();
        inner.dropped = 0;
        inner.alloc_hist.clear();
        inner.transfer_hist.clear();
    }

    /// Sets (or clears) the ambient transfer span: every event recorded
    /// while it is set carries it in [`TraceEvent::span`]. Returns the
    /// previous value so callers can scope-restore. A single `Cell`
    /// write — never charges the clock.
    pub fn set_current_span(&self, span: Option<u64>) -> Option<u64> {
        self.current_span.replace(span)
    }

    /// The ambient transfer span, if one is in scope.
    pub fn current_span(&self) -> Option<u64> {
        self.current_span.get()
    }

    /// Records the root of a new transfer span tree at `now`. No-op
    /// while disabled; does **not** change the ambient span.
    pub fn span_start(&self, now: Ns, span: u64, dom: u32, path: Option<u64>, fbuf: Option<u64>) {
        if !self.enabled.get() {
            return;
        }
        self.push_span(
            now,
            EventKind::SpanStart,
            dom,
            None,
            path,
            fbuf,
            None,
            None,
            Some(span),
        );
    }

    /// Records a parent/child span edge: the transfer identified by
    /// `parent` continues under `child` in a new context (the `fbuf`
    /// field carries the parent id). No-op while disabled.
    pub fn span_link(&self, now: Ns, child: u64, parent: u64, dom: u32) {
        if !self.enabled.get() {
            return;
        }
        let link = EventKind::SpanLink;
        self.push_span(
            now,
            link,
            dom,
            None,
            None,
            Some(parent),
            None,
            None,
            Some(child),
        );
    }

    /// Records a receiver-side ring-crossing span from local time `t0`
    /// to `now`: `occupancy` is the SPSC ring depth observed at the
    /// crossing. Tagged with the ambient span. No-op while disabled.
    pub fn ring_cross(&self, t0: Ns, now: Ns, dom: u32, occupancy: u64) {
        if !self.enabled.get() {
            return;
        }
        let dur = Some(now - t0);
        self.push(
            now,
            EventKind::RingCross,
            dom,
            None,
            None,
            None,
            dur,
            Some(occupancy),
        );
    }

    /// Records an instant event at `now`. No-op while disabled.
    #[inline]
    pub fn instant(
        &self,
        now: Ns,
        kind: EventKind,
        dom: u32,
        path: Option<u64>,
        fbuf: Option<u64>,
    ) {
        if self.enabled.get() {
            self.push(now, kind, dom, None, path, fbuf, None, None);
        }
    }

    /// Records one ranged VM event (`MapRange`/`UnmapRange`/
    /// `ProtectRange`) covering `pages` pages — the batched replacement
    /// for N per-page events. No-op while disabled.
    pub fn range_op(&self, now: Ns, kind: EventKind, dom: u32, pages: u64) {
        if !self.enabled.get() {
            return;
        }
        self.push(now, kind, dom, None, None, None, None, Some(pages));
    }

    /// Records an instant event with a peer domain at `now`. No-op while
    /// disabled.
    #[inline]
    pub fn instant_peer(
        &self,
        now: Ns,
        kind: EventKind,
        dom: u32,
        peer: u32,
        path: Option<u64>,
        fbuf: Option<u64>,
    ) {
        if self.enabled.get() {
            self.push(now, kind, dom, Some(peer), path, fbuf, None, None);
        }
    }

    /// Records a span that began at simulated time `t0` and ends at
    /// `now`. `Alloc` spans feed the per-path allocation-service
    /// histogram and `Transfer` spans the per-path transfer-latency
    /// histogram. No-op while disabled.
    #[inline]
    pub fn span(
        &self,
        t0: Ns,
        now: Ns,
        kind: EventKind,
        dom: u32,
        path: Option<u64>,
        fbuf: Option<u64>,
    ) {
        if self.enabled.get() {
            self.end_span(t0, now, kind, dom, None, path, fbuf);
        }
    }

    /// [`Tracer::span`] with a peer domain (e.g. the receiver of a
    /// `Transfer`).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span_peer(
        &self,
        t0: Ns,
        now: Ns,
        kind: EventKind,
        dom: u32,
        peer: Option<u32>,
        path: Option<u64>,
        fbuf: Option<u64>,
    ) {
        if self.enabled.get() {
            self.end_span(t0, now, kind, dom, peer, path, fbuf);
        }
    }

    /// [`Tracer::span_peer`] past the disabled check, kept out of line
    /// so call sites inline only the check.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn end_span(
        &self,
        t0: Ns,
        now: Ns,
        kind: EventKind,
        dom: u32,
        peer: Option<u32>,
        path: Option<u64>,
        fbuf: Option<u64>,
    ) {
        let dur = now - t0;
        self.push(now, kind, dom, peer, path, fbuf, Some(dur), None);
        let mut inner = self.inner.borrow_mut();
        match kind {
            EventKind::Alloc => hist_entry(&mut inner.alloc_hist, path).record(dur.0),
            EventKind::Transfer => hist_entry(&mut inner.transfer_hist, path).record(dur.0),
            _ => {}
        }
    }

    /// Records one event stamped `now`, in the ambient span. Out of
    /// line, so the `#[inline]` recorders inline only their disabled
    /// check.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn push(
        &self,
        now: Ns,
        kind: EventKind,
        dom: u32,
        peer: Option<u32>,
        path: Option<u64>,
        fbuf: Option<u64>,
        dur: Option<Ns>,
        pages: Option<u64>,
    ) {
        let span = self.current_span.get();
        self.push_span(now, kind, dom, peer, path, fbuf, dur, pages, span);
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &self,
        now: Ns,
        kind: EventKind,
        dom: u32,
        peer: Option<u32>,
        path: Option<u64>,
        fbuf: Option<u64>,
        dur: Option<Ns>,
        pages: Option<u64>,
        span: Option<u64>,
    ) {
        self.inner.borrow_mut().push(TraceEvent {
            seq: 0, // assigned by TracerInner::push
            at: now,
            kind,
            dom,
            peer,
            path,
            fbuf,
            dur,
            pages,
            span,
        });
    }

    /// Number of events currently in the ring.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// True when the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the full ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// A snapshot of the ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events.iter().copied().collect()
    }

    /// How many ring events are of `kind`.
    pub fn count_of(&self, kind: EventKind) -> usize {
        self.inner
            .borrow()
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    }

    /// Allocation-service histogram for one path key (`None` =
    /// uncached), if any span was recorded for it.
    pub fn alloc_latency(&self, path: Option<u64>) -> Option<Histogram> {
        let inner = self.inner.borrow();
        inner
            .alloc_hist
            .iter()
            .find(|(p, _)| *p == path)
            .map(|(_, h)| h.clone())
    }

    /// Transfer-latency histogram for one path key.
    pub fn transfer_latency(&self, path: Option<u64>) -> Option<Histogram> {
        let inner = self.inner.borrow();
        inner
            .transfer_hist
            .iter()
            .find(|(p, _)| *p == path)
            .map(|(_, h)| h.clone())
    }

    /// All allocation-service spans merged across paths.
    pub fn merged_alloc_latency(&self) -> Histogram {
        let inner = self.inner.borrow();
        let mut out = Histogram::new();
        for (_, h) in &inner.alloc_hist {
            out.merge(h);
        }
        out
    }

    /// All transfer-latency spans merged across paths.
    pub fn merged_transfer_latency(&self) -> Histogram {
        let inner = self.inner.borrow();
        let mut out = Histogram::new();
        for (_, h) in &inner.transfer_hist {
            out.merge(h);
        }
        out
    }

    /// The path keys with at least one recorded latency span, in first-
    /// seen order (transfer paths first, then alloc-only paths).
    pub fn latency_paths(&self) -> Vec<Option<u64>> {
        let inner = self.inner.borrow();
        let mut out: Vec<Option<u64>> = inner.transfer_hist.iter().map(|(p, _)| *p).collect();
        for (p, _) in &inner.alloc_hist {
            if !out.contains(p) {
                out.push(*p);
            }
        }
        out
    }

    /// Exports the ring as Chrome `trace_event` JSON: spans become
    /// complete (`"ph":"X"`) events whose `ts` is the span start, and
    /// instants become thread-scoped instant (`"ph":"i"`) events.
    /// Timestamps are simulated microseconds; `pid` is 1 (one machine)
    /// and `tid` is the acting domain, so each domain renders as its own
    /// track.
    pub fn chrome_trace(&self) -> Json {
        let inner = self.inner.borrow();
        let events = inner
            .events
            .iter()
            .map(|e| {
                let mut args = vec![("seq", e.seq.to_json())];
                if let Some(f) = e.fbuf {
                    args.push(("fbuf", f.to_json()));
                }
                if let Some(p) = e.path {
                    args.push(("path", p.to_json()));
                }
                if let Some(p) = e.peer {
                    args.push(("peer_dom", p.to_json()));
                }
                if let Some(p) = e.pages {
                    args.push(("pages", p.to_json()));
                }
                if let Some(s) = e.span {
                    args.push(("span", s.to_json()));
                }
                let mut pairs = vec![
                    ("name", e.kind.label().to_json()),
                    ("cat", "fbuf".to_json()),
                    ("pid", 1u64.to_json()),
                    ("tid", e.dom.to_json()),
                ];
                match e.dur {
                    Some(d) => {
                        pairs.push(("ph", "X".to_json()));
                        pairs.push(("ts", (e.at - d).as_us_f64().to_json()));
                        pairs.push(("dur", d.as_us_f64().to_json()));
                    }
                    None => {
                        pairs.push(("ph", "i".to_json()));
                        pairs.push(("ts", e.at.as_us_f64().to_json()));
                        pairs.push(("s", "t".to_json()));
                    }
                }
                pairs.push(("args", Json::obj(args)));
                Json::obj(pairs)
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", "ms".to_json()),
            ("dropped_events", inner.dropped.to_json()),
        ])
    }
}

/// Merges the trace rings of several shards into one coherent stream.
///
/// Each shard owns an independent machine, so domain ids restart at zero
/// per shard and simulated clocks advance independently; `rings` pairs
/// every shard's events with a **domain-id base** that offsets `dom` and
/// `peer` into a fleet-unique namespace (shard *i*'s base is typically
/// the sum of earlier shards' domain counts). Events are merged by
/// simulated timestamp — each ring is already time-sorted because a
/// shard's clock is monotone, so a stable sort preserves every shard's
/// internal causal order — and re-sequenced `0..n` in merged order.
pub fn merge_rings(rings: &[(u32, Vec<TraceEvent>)]) -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = Vec::with_capacity(rings.iter().map(|(_, r)| r.len()).sum());
    for (dom_base, ring) in rings {
        out.extend(ring.iter().map(|e| TraceEvent {
            dom: e.dom + dom_base,
            peer: e.peer.map(|p| p + dom_base),
            ..*e
        }));
    }
    out.sort_by_key(|e| e.at);
    for (seq, e) in out.iter_mut().enumerate() {
        e.seq = seq as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.instant(Ns(0), EventKind::Fault, 2, None, Some(5));
        t.span(Ns(0), Ns(10), EventKind::Alloc, 1, Some(1), Some(1));
        assert!(t.is_empty());
        assert!(t.merged_alloc_latency().is_empty());
    }

    #[test]
    fn span_measures_simulated_duration() {
        use crate::time::{Clock, CostCategory};
        let mut clock = Clock::new();
        let t = Tracer::new();
        t.set_enabled(true);
        let t0 = clock.now();
        clock.charge(CostCategory::Vm, Ns(2_500));
        t.span(t0, clock.now(), EventKind::Transfer, 3, Some(9), Some(4));
        let e = t.events()[0];
        assert_eq!(e.dur, Some(Ns(2_500)));
        assert_eq!(e.at, Ns(2_500));
        assert_eq!(e.dom, 3);
        assert_eq!(e.path, Some(9));
        let h = t.transfer_latency(Some(9)).expect("histogram exists");
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 2_500);
    }

    #[test]
    fn range_op_records_one_event_with_page_count() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.range_op(Ns(0), EventKind::MapRange, 3, 16);
        assert_eq!(t.len(), 1, "one event for the whole range");
        let e = t.events()[0];
        assert_eq!(e.kind, EventKind::MapRange);
        assert_eq!(e.dom, 3);
        assert_eq!(e.pages, Some(16));
        assert_eq!(e.fbuf, None, "ranged events are auditor-neutral");
        // And it renders in the chrome export with the page count.
        let rendered = t.chrome_trace().render();
        assert!(rendered.contains("MapRange"));
        assert!(rendered.contains("\"pages\""));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.set_capacity(3);
        for i in 0..5u64 {
            t.instant(Ns(i), EventKind::Free, 0, None, Some(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, seq monotone");
    }

    #[test]
    fn chrome_trace_round_trips_through_parser() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span_peer(
            Ns(0),
            Ns(10_000),
            EventKind::Transfer,
            1,
            Some(2),
            Some(7),
            Some(3),
        );
        t.instant(Ns(10_000), EventKind::CacheHit, 2, Some(7), Some(3));
        let rendered = t.chrome_trace().render();
        let parsed = Json::parse(&rendered).expect("chrome trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("ph").and_then(Json::as_str),
            Some("X"),
            "span is a complete event"
        );
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(10.0));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("CacheHit")
        );
    }

    #[test]
    fn merge_rings_interleaves_by_time_and_offsets_domains() {
        // Shard A records at t=0 and t=200; shard B at t=100.
        let ta = Tracer::new();
        ta.set_enabled(true);
        ta.instant(Ns(0), EventKind::CacheHit, 0, Some(0), Some(1));
        ta.instant(Ns(200), EventKind::Free, 1, Some(0), Some(1));
        let tb = Tracer::new();
        tb.set_enabled(true);
        tb.instant_peer(Ns(100), EventKind::Transfer, 0, 2, Some(1), Some(9));
        let merged = merge_rings(&[(0, ta.events()), (10, tb.events())]);
        assert_eq!(merged.len(), 3);
        let kinds: Vec<EventKind> = merged.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::CacheHit, EventKind::Transfer, EventKind::Free],
            "time-ordered across shards"
        );
        assert_eq!(merged[1].dom, 10, "shard B domains offset by its base");
        assert_eq!(merged[1].peer, Some(12));
        let seqs: Vec<u64> = merged.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "re-sequenced in merged order");
    }

    #[test]
    fn merge_rings_is_stable_for_equal_timestamps() {
        let ta = Tracer::new();
        ta.set_enabled(true);
        ta.instant(Ns(0), EventKind::CacheHit, 0, None, Some(1));
        ta.instant(Ns(0), EventKind::Free, 0, None, Some(1));
        let merged = merge_rings(&[(0, ta.events()), (5, ta.events())]);
        // Both rings sit at t=0; within a ring the recorded order must
        // survive the merge.
        let hit_a = merged
            .iter()
            .position(|e| e.kind == EventKind::CacheHit && e.dom == 0);
        let free_a = merged
            .iter()
            .position(|e| e.kind == EventKind::Free && e.dom == 0);
        assert!(hit_a.unwrap() < free_a.unwrap());
    }

    #[test]
    fn clear_keeps_sequence_monotone() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.instant(Ns(0), EventKind::Free, 0, None, None);
        t.clear();
        t.instant(Ns(0), EventKind::Free, 0, None, None);
        assert_eq!(t.events()[0].seq, 1, "seq not reused after clear");
    }
}
