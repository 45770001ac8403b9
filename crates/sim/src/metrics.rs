//! Time-series telemetry: gauges sampled on a simulated-time cadence.
//!
//! A [`Metrics`] handle is shared the same way as the
//! [`Tracer`](crate::Tracer): the machine creates one, every layer
//! borrows it, and it is **disabled by default** behind a single
//! `Cell<bool>` read. Sampling never charges the clock, so enabling
//! telemetry observes a run without moving a simulated nanosecond — the
//! same zero-cost-by-default contract the tracer pins.
//!
//! Instrumented code polls [`Metrics::due`] at natural checkpoints
//! (allocation, hop dispatch, ring polls); when the simulated clock has
//! passed the next sample deadline, it records one gauge reading per
//! series and calls [`Metrics::advance`]. Each series is a
//! **fixed-capacity ring**: when full, the oldest point is dropped and
//! counted, so a long workload keeps a bounded recent window rather
//! than growing without limit — exactly the trace-ring policy, applied
//! to gauges.
//!
//! Gauges are named by interned [`Gauge`] keys, not strings, and a
//! sample is one [`Sampler`] pass that borrows the registry once. Each
//! key owns one slot of a dense cache that remembers whether its series
//! exists, was refused by the series cap, or is not yet seen, so a
//! recorded gauge costs one index and one ring push, and a refused one
//! costs one counter increment. The name is rendered once, when the
//! series is created, and the value closure runs only for gauges that
//! record.
//!
//! Per-shard series are folded fleet-wide by [`merge_shards`] (names
//! prefixed `s<shard>.`, each shard's clock is independent) and
//! exported into every `BENCH_*.json` as the `telemetry` block via
//! [`telemetry_json`]. See `DESIGN.md` §13.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::json::{Json, ToJson};
use crate::time::Ns;

/// Default sampling cadence: one gauge reading per simulated 10 µs —
/// fine enough to resolve per-message dynamics, coarse enough that a
/// full figure sweep stays a few thousand points per series.
pub const DEFAULT_CADENCE_NS: u64 = 10_000;

/// Default points retained per series before the ring evicts.
pub const DEFAULT_POINTS: usize = 4_096;

/// Default series cap: once this many series exist, a new indexed
/// gauge is counted as refused rather than allocated. Fixed gauges are
/// never refused, so they may take the total past the cap.
pub const DEFAULT_MAX_SERIES: usize = 64;

/// Well-known gauge: size of the last non-empty burst a shard drained
/// from its ingress data ring in one acquire (`Consumer::drain_into`).
/// A value above 1 means the batched consumer amortized ring
/// synchronization across that many cross-shard payloads.
pub const GAUGE_RING_BATCH_OCCUPANCY: &str = "ring_batch_occupancy";

/// Well-known gauge: average dealloc-notice tokens per flushed
/// `NoticeBatch` ring slot, in fixed-point hundredths (100 = one token
/// per slot, 800 = eight tokens coalesced into each slot). Tracks how
/// much reverse-ring traffic the coalescing plane saves.
pub const GAUGE_NOTICE_COALESCE_FACTOR: &str = "notice_coalesce_factor";

/// An interned gauge key: one of the fixed well-known gauges, or one
/// member of an indexed family (`path<i>.parked`, `inbox<d>`, ...).
///
/// Fixed gauges are a bounded set and are never refused; indexed
/// families grow with the number of paths and domains, so only they
/// are bounded by the series cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// `live_fbufs`: fbufs currently allocated.
    LiveFbufs,
    /// `parked_fbufs`: freed fbufs parked on path caches.
    ParkedFbufs,
    /// `engine_pending`: events queued in the event loop.
    EnginePending,
    /// `overload_drops`: hops refused by a full inbox so far.
    OverloadDrops,
    /// `free_chunks`: chunks left in the fbuf region.
    FreeChunks,
    /// `ring.out`: occupancy of a shard's outbound data ring.
    RingOut,
    /// `ring.in`: occupancy of a shard's inbound data ring.
    RingIn,
    /// `egress_in_flight`: a shard's egress buffers awaiting notices.
    EgressInFlight,
    /// [`GAUGE_RING_BATCH_OCCUPANCY`].
    RingBatchOccupancy,
    /// [`GAUGE_NOTICE_COALESCE_FACTOR`].
    NoticeCoalesceFactor,
    /// `path<i>.parked`: fbufs parked on path `i`'s cache.
    PathParked(u32),
    /// `path<i>.chunks`: chunks held by path `i`'s allocator.
    PathChunks(u32),
    /// `path<i>.threshold`: path `i`'s admission threshold in chunks.
    PathThreshold(u32),
    /// `inbox<d>`: depth of domain `d`'s event-loop inbox.
    Inbox(u32),
}

/// Slot-cache families: the fixed gauges, then one per indexed family.
const FAMILIES: usize = 5;

impl Gauge {
    /// This key's slot in the cache: `(family, index)`. Family 0 holds
    /// the fixed gauges, one index each.
    fn slot(self) -> (usize, usize) {
        match self {
            Gauge::LiveFbufs => (0, 0),
            Gauge::ParkedFbufs => (0, 1),
            Gauge::EnginePending => (0, 2),
            Gauge::OverloadDrops => (0, 3),
            Gauge::FreeChunks => (0, 4),
            Gauge::RingOut => (0, 5),
            Gauge::RingIn => (0, 6),
            Gauge::EgressInFlight => (0, 7),
            Gauge::RingBatchOccupancy => (0, 8),
            Gauge::NoticeCoalesceFactor => (0, 9),
            Gauge::PathParked(i) => (1, i as usize),
            Gauge::PathChunks(i) => (2, i as usize),
            Gauge::PathThreshold(i) => (3, i as usize),
            Gauge::Inbox(d) => (4, d as usize),
        }
    }
}

impl fmt::Display for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gauge::LiveFbufs => f.write_str("live_fbufs"),
            Gauge::ParkedFbufs => f.write_str("parked_fbufs"),
            Gauge::EnginePending => f.write_str("engine_pending"),
            Gauge::OverloadDrops => f.write_str("overload_drops"),
            Gauge::FreeChunks => f.write_str("free_chunks"),
            Gauge::RingOut => f.write_str("ring.out"),
            Gauge::RingIn => f.write_str("ring.in"),
            Gauge::EgressInFlight => f.write_str("egress_in_flight"),
            Gauge::RingBatchOccupancy => f.write_str(GAUGE_RING_BATCH_OCCUPANCY),
            Gauge::NoticeCoalesceFactor => f.write_str(GAUGE_NOTICE_COALESCE_FACTOR),
            Gauge::PathParked(i) => write!(f, "path{i}.parked"),
            Gauge::PathChunks(i) => write!(f, "path{i}.chunks"),
            Gauge::PathThreshold(i) => write!(f, "path{i}.threshold"),
            Gauge::Inbox(d) => write!(f, "inbox{d}"),
        }
    }
}

/// What the slot cache knows about one gauge key.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Never sampled since the last [`Metrics::clear`].
    Unknown,
    /// Refused by the series cap (sticky: series only accumulate).
    Refused,
    /// Recorded into `series[i]`.
    Series(u32),
}

/// One gauge reading: simulated time and value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricPoint {
    /// Simulated time of the sample.
    pub at: Ns,
    /// The gauge value.
    pub value: u64,
}

/// An owned snapshot of one series, safe to move across threads (a
/// shard hands these back in its report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Series name (e.g. `live_fbufs`; fleet-merged names are prefixed
    /// `s<shard>.`).
    pub name: String,
    /// Points evicted from the full ring.
    pub dropped: u64,
    /// Retained points, oldest first.
    pub points: Vec<MetricPoint>,
}

#[derive(Debug)]
struct SeriesRing {
    name: String,
    dropped: u64,
    points: VecDeque<MetricPoint>,
}

#[derive(Debug)]
struct MetricsInner {
    cap: usize,
    max_series: usize,
    /// Indexed-gauge samples refused because `max_series` was reached
    /// (counted per attempt).
    refused_names: u64,
    series: Vec<SeriesRing>,
    /// Dense per-family slot cache, indexed by [`Gauge::slot`].
    slots: [Vec<Slot>; FAMILIES],
}

impl MetricsInner {
    /// Resolves a gauge's first sample since the last clear: creates its
    /// (empty) series and returns its index, or refuses it (`None`) if it
    /// is indexed and the cap is reached. Runs once per gauge.
    #[cold]
    fn first_seen(&mut self, gauge: Gauge) -> Option<u32> {
        let (family, i) = gauge.slot();
        let series = (family == 0 || self.series.len() < self.max_series).then(|| {
            self.series.push(SeriesRing {
                name: gauge.to_string(),
                dropped: 0,
                points: VecDeque::new(),
            });
            self.series.len() as u32 - 1
        });
        let slots = &mut self.slots[family];
        if i >= slots.len() {
            slots.resize(i + 1, Slot::Unknown);
        }
        slots[i] = series.map_or(Slot::Refused, Slot::Series);
        series
    }

    /// Appends a point to series `s`, evicting the oldest when full.
    #[inline]
    fn push(&mut self, s: u32, point: MetricPoint) {
        let s = &mut self.series[s as usize];
        if s.points.len() == self.cap {
            s.points.pop_front();
            s.dropped += 1;
        }
        s.points.push_back(point);
    }
}

#[derive(Debug)]
struct MetricsShared {
    enabled: Cell<bool>,
    cadence: Cell<u64>,
    next: Cell<u64>,
    inner: RefCell<MetricsInner>,
}

/// Shared telemetry handle. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use fbuf_sim::metrics::{Gauge, Metrics};
/// use fbuf_sim::Ns;
///
/// let m = Metrics::new();
/// assert!(!m.due(Ns(0)), "disabled: never due");
/// m.set_enabled(true);
/// if m.due(Ns(0)) {
///     m.sampler(Ns(0)).expect("enabled").record(Gauge::LiveFbufs, || 3);
///     m.advance(Ns(0));
/// }
/// assert!(!m.due(Ns(5_000)), "cadence not yet elapsed");
/// assert_eq!(m.series()[0].points.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Metrics {
    shared: Rc<MetricsShared>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// A disabled metric set with the default cadence and capacities.
    pub fn new() -> Metrics {
        Metrics {
            shared: Rc::new(MetricsShared {
                enabled: Cell::new(false),
                cadence: Cell::new(DEFAULT_CADENCE_NS),
                next: Cell::new(0),
                inner: RefCell::new(MetricsInner {
                    cap: DEFAULT_POINTS,
                    max_series: DEFAULT_MAX_SERIES,
                    refused_names: 0,
                    series: Vec::new(),
                    slots: Default::default(),
                }),
            }),
        }
    }

    /// Turns sampling on or off. Recorded series are kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.set(on);
    }

    /// Whether gauges are currently sampled.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.get()
    }

    /// Sets the simulated-time sampling cadence (clamped to ≥ 1 ns).
    pub fn set_cadence(&self, ns: u64) {
        self.shared.cadence.set(ns.max(1));
    }

    /// The simulated-time sampling cadence in ns.
    pub fn cadence(&self) -> u64 {
        self.shared.cadence.get()
    }

    /// True when a sample is due at simulated time `now`: enabled and
    /// at least one cadence past the previous sample. A disabled set is
    /// never due — one `Cell` read, the whole disabled-path cost.
    pub fn due(&self, now: Ns) -> bool {
        self.shared.enabled.get() && now.0 >= self.shared.next.get()
    }

    /// Arms the next sample deadline one cadence after `now`. Call once
    /// per due-sample batch.
    pub fn advance(&self, now: Ns) {
        self.shared.next.set(now.0.saturating_add(self.shared.cadence.get()));
    }

    /// Opens a sampling pass at simulated time `now`, or returns `None`
    /// while disabled. The pass holds the series registry until it is
    /// dropped, so a batch of gauges pays for one borrow.
    pub fn sampler(&self, now: Ns) -> Option<Sampler<'_>> {
        self.shared.enabled.get().then(|| Sampler {
            now,
            inner: self.shared.inner.borrow_mut(),
        })
    }

    /// Resizes every series ring (evicting oldest points if shrinking).
    pub fn set_capacity(&self, cap: usize) {
        let mut inner = self.shared.inner.borrow_mut();
        inner.cap = cap.max(1);
        let cap = inner.cap;
        for s in &mut inner.series {
            while s.points.len() > cap {
                s.points.pop_front();
                s.dropped += 1;
            }
        }
    }

    /// Indexed-gauge samples refused because the series cap was reached.
    pub fn refused_names(&self) -> u64 {
        self.shared.inner.borrow().refused_names
    }

    /// Owned snapshots of every series, in first-seen order.
    pub fn series(&self) -> Vec<SeriesSnapshot> {
        self.shared
            .inner
            .borrow()
            .series
            .iter()
            .map(|s| SeriesSnapshot {
                name: s.name.clone(),
                dropped: s.dropped,
                points: s.points.iter().copied().collect(),
            })
            .collect()
    }

    /// Discards every series and re-arms the sample deadline at zero
    /// (keeps enablement, cadence, and capacities).
    pub fn clear(&self) {
        let mut inner = self.shared.inner.borrow_mut();
        inner.series.clear();
        inner.refused_names = 0;
        inner.slots.iter_mut().for_each(Vec::clear);
        drop(inner);
        self.shared.next.set(0);
    }

    /// This metric set rendered as a `telemetry` block.
    pub fn to_json(&self) -> Json {
        telemetry_json(self.cadence(), &self.series())
    }
}

/// One sampling pass of a [`Metrics`] set at one simulated instant (see
/// [`Metrics::sampler`]). While it lives, the set's registry is
/// borrowed: value closures must not touch the [`Metrics`] handle.
#[derive(Debug)]
pub struct Sampler<'a> {
    now: Ns,
    inner: RefMut<'a, MetricsInner>,
}

impl Sampler<'_> {
    /// Records one gauge reading (its series is created on first use; a
    /// new indexed gauge is refused and counted once the series cap is
    /// reached). `value` runs only when the reading is recorded.
    #[inline]
    pub fn record(&mut self, gauge: Gauge, value: impl FnOnce() -> u64) {
        let inner = &mut *self.inner;
        let (family, i) = gauge.slot();
        let series = match inner.slots[family].get(i) {
            Some(&Slot::Series(s)) => Some(s),
            Some(&Slot::Refused) => None,
            Some(&Slot::Unknown) | None => inner.first_seen(gauge),
        };
        match series {
            Some(s) => inner.push(s, MetricPoint { at: self.now, value: value() }),
            None => inner.refused_names += 1,
        }
    }
}

/// Folds per-shard series into one fleet-wide set: each shard's series
/// keep their own (independent) simulated timeline and are namespaced
/// `s<shard>.<name>`, preserving order.
pub fn merge_shards(shards: &[(u32, Vec<SeriesSnapshot>)]) -> Vec<SeriesSnapshot> {
    let mut out = Vec::new();
    for (shard, series) in shards {
        for s in series {
            out.push(SeriesSnapshot {
                name: format!("s{shard}.{}", s.name),
                dropped: s.dropped,
                points: s.points.clone(),
            });
        }
    }
    out
}

/// Renders the stable `telemetry` block every `BENCH_*.json` carries:
/// the sampling cadence and one `{name, dropped, points: [[ns, value],
/// ...]}` object per series.
pub fn telemetry_json(cadence_ns: u64, series: &[SeriesSnapshot]) -> Json {
    let arr = series
        .iter()
        .map(|s| {
            let points = s
                .points
                .iter()
                .map(|p| Json::Arr(vec![p.at.0.to_json(), p.value.to_json()]))
                .collect();
            Json::obj(vec![
                ("name", s.name.as_str().to_json()),
                ("dropped", s.dropped.to_json()),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("cadence_ns", cadence_ns.to_json()),
        ("series", Json::Arr(arr)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_record_nothing_and_are_never_due() {
        let m = Metrics::new();
        assert!(!m.due(Ns(u64::MAX / 2)));
        assert!(m.sampler(Ns(0)).is_none(), "disabled: no sampling pass");
        assert!(m.series().is_empty());
    }

    #[test]
    fn cadence_gates_sampling() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.set_cadence(1_000);
        assert!(m.due(Ns(0)));
        m.sampler(Ns(0)).unwrap().record(Gauge::FreeChunks, || 1);
        m.advance(Ns(0));
        assert!(!m.due(Ns(999)));
        assert!(m.due(Ns(1_000)));
        m.sampler(Ns(1_000)).unwrap().record(Gauge::FreeChunks, || 2);
        m.advance(Ns(1_000));
        let s = &m.series()[0];
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[1].value, 2);
        assert_eq!(s.points[1].at, Ns(1_000));
    }

    #[test]
    fn series_ring_evicts_oldest_and_counts_drops() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.set_capacity(2);
        for i in 0..5u64 {
            m.sampler(Ns(i)).unwrap().record(Gauge::FreeChunks, || i);
        }
        let s = &m.series()[0];
        assert_eq!(s.dropped, 3);
        let vals: Vec<u64> = s.points.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![3, 4]);
    }

    #[test]
    fn series_cap_refuses_new_indexed_gauges_but_never_fixed_ones() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.shared.inner.borrow_mut().max_series = 1;
        m.sampler(Ns(0)).unwrap().record(Gauge::Inbox(0), || 1);
        let mut evaluated = false;
        m.sampler(Ns(0)).unwrap().record(Gauge::Inbox(1), || {
            evaluated = true;
            2
        });
        assert!(!evaluated, "a refused gauge's value is never computed");
        m.sampler(Ns(0)).unwrap().record(Gauge::Inbox(1), || 2);
        m.sampler(Ns(0)).unwrap().record(Gauge::RingBatchOccupancy, || 3);
        let names: Vec<String> = m.series().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["inbox0", GAUGE_RING_BATCH_OCCUPANCY]);
        assert_eq!(m.refused_names(), 2, "refusals count per attempt");
    }

    /// The by-name sampler the keyed one replaced, kept as a reference
    /// model: a linear search over series names, and a new name refused
    /// (counted per attempt) once the cap is reached unless it is fixed.
    struct ByName {
        cap: usize,
        max_series: usize,
        refused_names: u64,
        series: Vec<SeriesSnapshot>,
    }

    impl ByName {
        fn sample(&mut self, now: Ns, name: &str, fixed: bool, value: u64) -> bool {
            let point = MetricPoint { at: now, value };
            let full = self.series.len() >= self.max_series;
            match self.series.iter_mut().find(|s| s.name == name) {
                Some(s) => {
                    if s.points.len() == self.cap {
                        s.points.remove(0);
                        s.dropped += 1;
                    }
                    s.points.push(point);
                }
                None if !fixed && full => {
                    self.refused_names += 1;
                    return false;
                }
                None => self.series.push(SeriesSnapshot {
                    name: name.to_string(),
                    dropped: 0,
                    points: vec![point],
                }),
            }
            true
        }

        fn set_capacity(&mut self, cap: usize) {
            self.cap = cap.max(1);
            for s in &mut self.series {
                let excess = s.points.len().saturating_sub(self.cap);
                s.points.drain(..excess);
                s.dropped += excess as u64;
            }
        }
    }

    /// The reference's own naming of a key, and whether it is fixed.
    fn reference_name(g: Gauge) -> (String, bool) {
        match g {
            Gauge::PathParked(i) => (format!("path{i}.parked"), false),
            Gauge::PathChunks(i) => (format!("path{i}.chunks"), false),
            Gauge::PathThreshold(i) => (format!("path{i}.threshold"), false),
            Gauge::Inbox(d) => (format!("inbox{d}"), false),
            fixed => {
                let name = match fixed {
                    Gauge::LiveFbufs => "live_fbufs",
                    Gauge::ParkedFbufs => "parked_fbufs",
                    Gauge::EnginePending => "engine_pending",
                    Gauge::OverloadDrops => "overload_drops",
                    Gauge::FreeChunks => "free_chunks",
                    Gauge::RingOut => "ring.out",
                    Gauge::RingIn => "ring.in",
                    Gauge::EgressInFlight => "egress_in_flight",
                    Gauge::RingBatchOccupancy => "ring_batch_occupancy",
                    _ => "notice_coalesce_factor",
                };
                (name.to_string(), true)
            }
        }
    }

    const FIXED: [Gauge; 10] = [
        Gauge::LiveFbufs,
        Gauge::ParkedFbufs,
        Gauge::EnginePending,
        Gauge::OverloadDrops,
        Gauge::FreeChunks,
        Gauge::RingOut,
        Gauge::RingIn,
        Gauge::EgressInFlight,
        Gauge::RingBatchOccupancy,
        Gauge::NoticeCoalesceFactor,
    ];

    fn random_gauge(rng: &mut crate::Rng) -> Gauge {
        let i = rng.below(40) as u32;
        match rng.below(5) {
            0 => FIXED[rng.index(FIXED.len())],
            1 => Gauge::PathParked(i),
            2 => Gauge::PathChunks(i),
            3 => Gauge::PathThreshold(i),
            _ => Gauge::Inbox(i),
        }
    }

    #[test]
    fn keyed_sampler_matches_the_by_name_reference() {
        for case in 0..200u64 {
            let mut rng = crate::Rng::new(0x6a09_e667 ^ case);
            let max_series = [1, 4, 16, DEFAULT_MAX_SERIES][rng.index(4)];
            let m = Metrics::new();
            m.set_enabled(true);
            m.shared.inner.borrow_mut().max_series = max_series;
            let mut reference = ByName {
                cap: DEFAULT_POINTS,
                max_series,
                refused_names: 0,
                series: Vec::new(),
            };
            for step in 0..400u64 {
                let now = Ns(step * 7);
                match rng.below(100) {
                    0..=4 => {
                        let cap = 1 + rng.index(6);
                        m.set_capacity(cap);
                        reference.set_capacity(cap);
                    }
                    5..=7 => {
                        m.clear();
                        reference.series.clear();
                        reference.refused_names = 0;
                    }
                    _ => {
                        let g = random_gauge(&mut rng);
                        let value = rng.next_u64() % 1_000;
                        let mut evaluated = false;
                        m.sampler(now).unwrap().record(g, || {
                            evaluated = true;
                            value
                        });
                        let (name, fixed) = reference_name(g);
                        let recorded = reference.sample(now, &name, fixed, value);
                        assert_eq!(evaluated, recorded, "case {case} step {step}: {name}");
                    }
                }
                assert_eq!(m.refused_names(), reference.refused_names, "case {case} step {step}");
            }
            assert_eq!(m.series(), reference.series, "case {case}");
        }
    }

    #[test]
    fn merge_prefixes_shard_names() {
        let a = vec![SeriesSnapshot {
            name: "g".into(),
            dropped: 0,
            points: vec![MetricPoint { at: Ns(1), value: 10 }],
        }];
        let b = vec![SeriesSnapshot {
            name: "g".into(),
            dropped: 2,
            points: vec![],
        }];
        let merged = merge_shards(&[(0, a), (1, b)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].name, "s0.g");
        assert_eq!(merged[1].name, "s1.g");
        assert_eq!(merged[1].dropped, 2);
    }

    #[test]
    fn telemetry_block_round_trips_through_parser() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.sampler(Ns(5)).unwrap().record(Gauge::LiveFbufs, || 2);
        let rendered = m.to_json().render();
        let parsed = Json::parse(&rendered).expect("telemetry parses");
        assert!(parsed.get("cadence_ns").and_then(Json::as_f64).is_some());
        let series = parsed.get("series").and_then(Json::as_arr).expect("series");
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].get("name").and_then(Json::as_str), Some("live_fbufs"));
        let pts = series[0].get("points").and_then(Json::as_arr).expect("points");
        assert_eq!(pts.len(), 1);
    }
}
