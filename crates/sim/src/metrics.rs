//! Time-series telemetry: gauges sampled on a simulated-time cadence.
//!
//! A [`Metrics`] set is owned the same way as the
//! [`Tracer`](crate::Tracer): the machine holds it by value, every layer
//! borrows it, and it is **disabled by default** behind a single
//! `Cell<bool>` read. Sampling never charges the clock, so enabling
//! telemetry observes a run without moving a simulated nanosecond — the
//! same zero-cost-by-default contract the tracer pins.
//!
//! Instrumented code polls [`Metrics::due`] at natural checkpoints
//! (allocation, hop dispatch, ring polls); when the simulated clock has
//! passed the next sample deadline, it opens one sampling pass
//! ([`Metrics::sampler`]) and calls [`Metrics::advance`].
//!
//! # What a series is
//!
//! Rendered, a series is the last `cap` points `(ns, value)` it was
//! given, oldest first, plus a `dropped` count of the older points it
//! evicted ([`Metrics::series`], [`telemetry_json`]).
//! Stored, it is **run-length encoded against a pass timeline**:
//!
//! * each [`Timeline`] is one list of pass instants; a pass appends
//!   `now` to a timeline the first time it touches a gauge of it;
//! * a series keeps a small dense header (`retained`, `dropped`, an
//!   open run `{first pass, length, value}` and the value it takes
//!   next) and writes to its cold run log only when its value changes or
//!   it misses a pass of its timeline; a recording that repeats the
//!   value of the previous pass is one header update;
//! * ring eviction is arithmetic on `retained`/`dropped`; a run log
//!   holds at most `cap` runs, and a full one drops its evicted oldest
//!   run before it takes the next, which then lands in the slot that
//!   run leaves;
//! * a timeline keeps at most a few `cap` recent passes. Older points a
//!   series still retains (one recorded rarely, or no longer at all) are
//!   frozen into literal points first, so a series that stops being
//!   recorded never pins the timeline. Memory stays O(series × cap).
//!
//! A snapshot keeps that shape. [`Metrics::series`] copies each
//! timeline once, as an `Arc<[Ns]>`, and each series' frozen points and
//! retained runs into a [`Points`] that shares its timeline's copy. A
//! snapshot therefore costs the runs, not the points, and
//! [`Points::iter`] is the one place runs are expanded into points.
//!
//! # Two ways to record
//!
//! [`Sampler::record`] adds one point in this pass. [`Sampler::hold`]
//! does the same and makes the series **standing**: from then on it
//! repeats its last value in every pass of its timeline without being
//! visited. Its owner records **on write**: a mutation site that moves
//! the gauge hands the new value to [`Metrics::write`] through `&mut`
//! (as a closure, read only for a standing series), and the series
//! takes it from the next pass of its timeline on, so writes between
//! two passes coalesce into the last one.
//! [`Metrics::leave`] retires a standing series. A pass then only
//! stamps its timelines and visits no series. A write is a slot lookup
//! and a comparison; the first write after a pass also extends the
//! open run over the passes since, or closes it into the log when the
//! value moved, so a run closes at most once per pass.
//! Re-enabling sampling or [`Metrics::clear`] asks the owner for one
//! full visit ([`Sampler::resync`]), since writes made while disabled
//! were skipped.
//!
//! Gauges are named by interned [`Gauge`] keys, not strings. Each key
//! owns one slot of a dense cache that remembers whether its series
//! exists, was refused by the series cap, or is not yet seen. The name
//! is rendered once, when the series is created, and the value closure
//! runs only for gauges that record. Refusals count per attempt; an
//! owner that knows how many of its live gauges hold no series (live
//! gauges minus [`Sampler::standing`] ones) counts them in one
//! [`Sampler::refuse`] instead of visiting them.
//!
//! Per-shard series are folded fleet-wide by [`merge_shards`] (names
//! prefixed `s<shard>.`, each shard's clock is independent) and
//! exported into every `BENCH_*.json` as the `telemetry` block via
//! [`telemetry_json`]. See `DESIGN.md` §13.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::json::{Json, ToJson};
use crate::time::Ns;

/// Default sampling cadence: one gauge reading per simulated 10 µs —
/// fine enough to resolve per-message dynamics, coarse enough that a
/// full figure sweep stays a few thousand points per series.
pub const DEFAULT_CADENCE_NS: u64 = 10_000;

/// Default points retained per series before the oldest is evicted.
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

/// The pass timeline a gauge's points are stamped from. Gauges that
/// are sampled together share one, so a series recorded in every pass
/// of its timeline is one unbroken run per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeline {
    /// The fixed system gauges and the per-path families: every system
    /// pass.
    System,
    /// `inbox<d>`: the system passes taken while the event loop is in
    /// place (not from inside one of its handlers).
    Inbox,
    /// A shard's ring gauges, on the shard's own deadline.
    Shard,
}

/// Slot-cache families: the fixed gauges, then one per indexed family.
const FAMILIES: usize = 5;

/// Number of [`Timeline`]s.
const TIMELINES: usize = 3;

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

    /// The timeline this gauge's points are stamped from.
    pub fn timeline(self) -> Timeline {
        match self {
            Gauge::RingOut
            | Gauge::RingIn
            | Gauge::EgressInFlight
            | Gauge::RingBatchOccupancy
            | Gauge::NoticeCoalesceFactor => Timeline::Shard,
            Gauge::Inbox(_) => Timeline::Inbox,
            _ => Timeline::System,
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
    /// Recorded into series `i`.
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
    /// Points evicted once the series held `cap` of them.
    pub dropped: u64,
    /// Retained points, oldest first.
    pub points: Points,
}

/// The retained points of a [`SeriesSnapshot`], oldest first, kept the
/// way the store keeps them: literal points older than the timeline,
/// then runs of one value over consecutive passes. The runs are stamped
/// from a copy of their timeline, made once per [`Metrics::series`]
/// call and shared by every series of that timeline. A snapshot costs
/// its runs, not its points; [`Points::iter`] expands them.
///
/// Equality compares the point sequences, not the representation.
///
/// # Examples
///
/// ```
/// use fbuf_sim::metrics::{MetricPoint, Points};
/// use fbuf_sim::Ns;
///
/// let p = Points::from(vec![MetricPoint { at: Ns(5), value: 2 }]);
/// assert_eq!(p.len(), 1);
/// assert_eq!(p.iter().next(), Some(MetricPoint { at: Ns(5), value: 2 }));
/// ```
#[derive(Clone)]
pub struct Points {
    frozen: Vec<MetricPoint>,
    /// Runs whose `first` indexes `passes`.
    runs: Vec<Run>,
    passes: Arc<[Ns]>,
    len: usize,
}

impl Points {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the series retains no point.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The points, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = MetricPoint> + '_ {
        let runs = self.runs.iter().flat_map(move |r| {
            let at = &self.passes[r.first as usize..r.end() as usize];
            at.iter().map(move |&at| MetricPoint { at, value: r.value })
        });
        self.frozen.iter().copied().chain(runs)
    }
}

impl From<Vec<MetricPoint>> for Points {
    fn from(frozen: Vec<MetricPoint>) -> Points {
        Points {
            len: frozen.len(),
            frozen,
            runs: Vec::new(),
            passes: Arc::from([]),
        }
    }
}

impl PartialEq for Points {
    fn eq(&self, other: &Points) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Points {}

impl fmt::Debug for Points {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// `len` points of one value at consecutive passes of a timeline,
/// starting at absolute pass index `first`.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: u64,
    len: u64,
    value: u64,
}

impl Run {
    /// One past the last pass the run covers.
    fn end(&self) -> u64 {
        self.first + self.len
    }
}

/// The dense, per-pass part of a series.
#[derive(Debug)]
struct Head {
    gauge: Gauge,
    /// The newest run; extended in place while the value repeats.
    open: Run,
    /// The value a standing series takes in the passes after `open`:
    /// its last write.
    next: u64,
    /// Points a rendering shows (at most `cap`).
    retained: u64,
    /// Points evicted so far.
    dropped: u64,
    /// Repeats its last value in every pass of its timeline.
    standing: bool,
}

impl Head {
    /// Accounts `n` new points, evicting the oldest past `cap`.
    fn grow(&mut self, n: u64, cap: u64) {
        self.retained += n;
        if self.retained > cap {
            self.dropped += self.retained - cap;
            self.retained = cap;
        }
    }
}

/// The cold part of a series: its name and everything older than the
/// open run. Points older than the timeline's first pass are literal.
#[derive(Debug)]
struct Log {
    name: String,
    frozen: VecDeque<MetricPoint>,
    runs: VecDeque<Run>,
    /// Points in `frozen` and `runs` together.
    points: u64,
}

/// One timeline: the instants of its recent passes.
#[derive(Debug, Default)]
struct Passes {
    at: VecDeque<Ns>,
    /// Absolute index of `at[0]`.
    base: u64,
    /// Standing series stamped from this timeline.
    standing: u64,
    /// The pass (see `MetricsInner::pass`) that last stamped this
    /// timeline.
    opened: u64,
}

impl Passes {
    /// The absolute index the next pass will get.
    fn end(&self) -> u64 {
        self.base + self.at.len() as u64
    }

    fn at(&self, pass: u64) -> Ns {
        self.at[(pass - self.base) as usize]
    }
}

#[derive(Debug)]
struct MetricsInner {
    cap: usize,
    max_series: usize,
    /// Indexed-gauge samples refused because `max_series` was reached
    /// (counted per attempt).
    refused_names: u64,
    heads: Vec<Head>,
    logs: Vec<Log>,
    passes: [Passes; TIMELINES],
    /// Dense per-family slot cache, indexed by [`Gauge::slot`].
    slots: [Vec<Slot>; FAMILIES],
    /// Set by [`Metrics::clear`] and by re-enabling; taken by
    /// [`Sampler::resync`].
    resync: bool,
    /// The open pass: its sequence number (counted from 1) and instant.
    pass: u64,
    now: Ns,
}

impl MetricsInner {
    fn new() -> MetricsInner {
        MetricsInner {
            cap: DEFAULT_POINTS,
            max_series: DEFAULT_MAX_SERIES,
            refused_names: 0,
            heads: Vec::new(),
            logs: Vec::new(),
            passes: Default::default(),
            slots: Default::default(),
            resync: true,
            pass: 0,
            now: Ns(0),
        }
    }

    /// The series a gauge records into, if it has one.
    #[inline]
    fn series_of(&self, gauge: Gauge) -> Option<usize> {
        let (family, i) = gauge.slot();
        match self.slots[family].get(i) {
            Some(&Slot::Series(s)) => Some(s as usize),
            _ => None,
        }
    }

    /// The series a gauge records into, resolving its first sample
    /// since the last clear; `None` means refused.
    #[inline]
    fn resolve(&mut self, gauge: Gauge) -> Option<usize> {
        let (family, i) = gauge.slot();
        match self.slots[family].get(i) {
            Some(&Slot::Series(s)) => Some(s as usize),
            Some(&Slot::Refused) => None,
            Some(&Slot::Unknown) | None => self.first_seen(gauge),
        }
    }

    /// Creates a gauge's (empty) series and returns its index, or
    /// refuses it (`None`) if it is indexed and the cap is reached.
    /// Runs once per gauge.
    #[cold]
    fn first_seen(&mut self, gauge: Gauge) -> Option<usize> {
        let (family, i) = gauge.slot();
        let series = (family == 0 || self.heads.len() < self.max_series).then(|| {
            self.heads.push(Head {
                gauge,
                open: Run {
                    first: 0,
                    len: 0,
                    value: 0,
                },
                next: 0,
                retained: 0,
                dropped: 0,
                standing: false,
            });
            self.logs.push(Log {
                name: gauge.to_string(),
                frozen: VecDeque::new(),
                runs: VecDeque::new(),
                points: 0,
            });
            self.heads.len() - 1
        });
        let slots = &mut self.slots[family];
        if i >= slots.len() {
            slots.resize(i + 1, Slot::Unknown);
        }
        slots[i] = series.map_or(Slot::Refused, |s| Slot::Series(s as u32));
        series
    }

    /// Stamps timeline `t` with the open pass and returns its index.
    fn tick(&mut self, t: usize) -> u64 {
        let keep = self.cap as u64;
        if self.passes[t].at.len() as u64 >= keep + keep.max(256) {
            let below = self.passes[t].end() - keep;
            for s in 0..self.heads.len() {
                if self.heads[s].gauge.timeline() as usize == t {
                    self.freeze(s, below);
                }
            }
            let passes = &mut self.passes[t];
            passes.at.drain(..(below - passes.base) as usize);
            passes.base = below;
        }
        let passes = &mut self.passes[t];
        passes.at.push_back(self.now);
        passes.opened = self.pass;
        passes.end() - 1
    }

    /// Appends one point at pass `p`: the open run grows when it ends
    /// at the previous pass with the same value; otherwise it moves to
    /// the log and a new run opens.
    #[inline]
    fn put(&mut self, s: usize, p: u64, value: u64) {
        self.settle_to(s, p);
        let cap = self.cap as u64;
        let h = &mut self.heads[s];
        h.next = value;
        h.grow(1, cap);
        if h.open.len > 0 && h.open.end() == p && h.open.value == value {
            h.open.len += 1;
            return;
        }
        self.close(
            s,
            Run {
                first: p,
                len: 1,
                value,
            },
        );
    }

    /// Moves series `s`'s open run to the log and opens `run`.
    ///
    /// A log holds at most `cap` runs and literal points. A full one
    /// first drops its evicted oldest, so the closed run takes the slot
    /// the oldest run leaves: evicting costs the one cache line writing
    /// costs, however long ago the evicted run was written.
    fn close(&mut self, s: usize, run: Run) {
        let closed = std::mem::replace(&mut self.heads[s].open, run);
        if closed.len == 0 {
            return;
        }
        let (h, log) = (&self.heads[s], &self.logs[s]);
        if log.runs.len() + log.frozen.len() >= self.cap {
            let stored = log.points + closed.len + h.open.len;
            let evict = stored.saturating_sub(h.retained).min(log.points);
            self.evict(s, evict);
        }
        let log = &mut self.logs[s];
        log.runs.push_back(closed);
        log.points += closed.len;
    }

    /// Materializes standing series `s`'s implicit points for the
    /// passes before `upto`, in the value it was last written (a no-op
    /// for a series recorded point by point).
    fn settle_to(&mut self, s: usize, upto: u64) {
        let h = &mut self.heads[s];
        let end = h.open.end();
        if !h.standing || upto <= end {
            return;
        }
        let n = upto - end;
        h.grow(n, self.cap as u64);
        if h.next == h.open.value {
            h.open.len += n;
        } else {
            let run = Run {
                first: end,
                len: n,
                value: h.next,
            };
            self.close(s, run);
        }
    }

    /// Writes a standing series' new value, shown from its timeline's
    /// next pass on. A gauge without a standing series is left alone:
    /// the next full visit reads it.
    #[inline]
    fn write(&mut self, gauge: Gauge, value: impl FnOnce() -> u64) {
        if let Some(s) = self.series_of(gauge) {
            let h = &self.heads[s];
            if !h.standing {
                return;
            }
            let value = value();
            if h.next != value {
                self.settle_to(s, self.passes[gauge.timeline() as usize].end());
                self.heads[s].next = value;
            }
        }
    }

    /// Drops the evicted oldest points of series `s` from its log (and,
    /// for a long open run, from the run's front).
    fn trim(&mut self, s: usize) {
        let (h, log) = (&self.heads[s], &self.logs[s]);
        self.evict(s, log.points + h.open.len - h.retained);
    }

    /// Drops the `evict` oldest points of series `s`: from its log, then
    /// from its open run's front.
    fn evict(&mut self, s: usize, mut evict: u64) {
        let (h, log) = (&mut self.heads[s], &mut self.logs[s]);
        while evict > 0 && !log.frozen.is_empty() {
            log.frozen.pop_front();
            log.points -= 1;
            evict -= 1;
        }
        while evict > 0 {
            let Some(r) = log.runs.front_mut() else {
                h.open.first += evict;
                h.open.len -= evict;
                break;
            };
            let k = evict.min(r.len);
            r.first += k;
            r.len -= k;
            log.points -= k;
            evict -= k;
            if r.len == 0 {
                log.runs.pop_front();
            }
        }
    }

    /// Brings series `s` up to date with every pass so far: standing
    /// points materialized and evicted points trimmed.
    fn settle(&mut self, s: usize) {
        let end = self.passes[self.heads[s].gauge.timeline() as usize].end();
        self.settle_to(s, end);
        self.trim(s);
    }

    /// Turns the retained points of series `s` stamped before pass
    /// `below` into literal points, so its timeline can forget them.
    fn freeze(&mut self, s: usize, below: u64) {
        self.settle(s);
        let MetricsInner {
            heads,
            logs,
            passes,
            ..
        } = self;
        let (h, log) = (&mut heads[s], &mut logs[s]);
        let passes = &passes[h.gauge.timeline() as usize];
        while let Some(r) = log.runs.front_mut() {
            freeze_run(passes, &mut log.frozen, r, below);
            if r.len > 0 {
                return;
            }
            log.runs.pop_front();
        }
        log.points += freeze_run(passes, &mut log.frozen, &mut h.open, below);
    }

    /// [`Sampler::resync`] when it is due: every series stops standing.
    #[cold]
    fn resync_all(&mut self) -> bool {
        self.resync = false;
        for s in 0..self.heads.len() {
            self.unstand(s);
        }
        true
    }

    /// Stops series `s` standing at the end of its timeline so far.
    fn unstand(&mut self, s: usize) {
        if self.heads[s].standing {
            self.settle(s);
            self.heads[s].standing = false;
            self.passes[self.heads[s].gauge.timeline() as usize].standing -= 1;
        }
    }

    /// The retained points of series `s`, oldest first, stamped from
    /// `at`, a copy of its timeline's passes. The series must be
    /// settled.
    fn expand(&self, s: usize, at: &Arc<[Ns]>) -> SeriesSnapshot {
        let (h, log) = (&self.heads[s], &self.logs[s]);
        let base = self.passes[h.gauge.timeline() as usize].base;
        // Skip the evicted oldest points without stamping them: their
        // passes may already be gone from the timeline.
        let mut skip = log.points + h.open.len - h.retained;
        let k = skip.min(log.frozen.len() as u64);
        skip -= k;
        let frozen = log.frozen.iter().skip(k as usize).copied().collect();
        let mut runs = Vec::with_capacity(log.runs.len() + 1);
        for r in log.runs.iter().chain(std::iter::once(&h.open)) {
            let k = skip.min(r.len);
            skip -= k;
            if k < r.len {
                runs.push(Run {
                    first: r.first + k - base,
                    len: r.len - k,
                    value: r.value,
                });
            }
        }
        SeriesSnapshot {
            name: log.name.clone(),
            dropped: h.dropped,
            points: Points {
                frozen,
                runs,
                passes: Arc::clone(at),
                len: h.retained as usize,
            },
        }
    }
}

/// Moves the points of run `r` stamped before pass `below` to the back
/// of `into` as literal points; returns how many moved.
fn freeze_run(passes: &Passes, into: &mut VecDeque<MetricPoint>, r: &mut Run, below: u64) -> u64 {
    let k = r.len.min(below.saturating_sub(r.first));
    let at = |p| MetricPoint {
        at: passes.at(p),
        value: r.value,
    };
    into.extend((r.first..r.first + k).map(at));
    r.first += k;
    r.len -= k;
    k
}

/// The machine's telemetry. See the [module docs](self).
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
///
/// A `Metrics` set has one owner, the machine, and cannot be cloned:
///
/// ```compile_fail
/// let m = fbuf_sim::metrics::Metrics::new();
/// let _copy = m.clone();
/// ```
#[derive(Debug)]
pub struct Metrics {
    enabled: Cell<bool>,
    cadence: Cell<u64>,
    next: Cell<u64>,
    inner: RefCell<MetricsInner>,
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
            enabled: Cell::new(false),
            cadence: Cell::new(DEFAULT_CADENCE_NS),
            next: Cell::new(0),
            inner: RefCell::new(MetricsInner::new()),
        }
    }

    /// Turns sampling on or off. Recorded series are kept either way;
    /// turning it back on asks the next pass for a full visit, since
    /// changes made meanwhile were not reported.
    pub fn set_enabled(&self, on: bool) {
        if on && !self.enabled.get() {
            self.inner.borrow_mut().resync = true;
        }
        self.enabled.set(on);
    }

    /// Whether gauges are currently sampled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Sets the simulated-time sampling cadence (clamped to ≥ 1 ns).
    pub fn set_cadence(&self, ns: u64) {
        self.cadence.set(ns.max(1));
    }

    /// The simulated-time sampling cadence in ns.
    pub fn cadence(&self) -> u64 {
        self.cadence.get()
    }

    /// True when a sample is due at simulated time `now`: enabled and
    /// at least one cadence past the previous sample. A disabled set is
    /// never due — one `Cell` read, the whole disabled-path cost.
    pub fn due(&self, now: Ns) -> bool {
        self.enabled.get() && now.0 >= self.next.get()
    }

    /// Arms the next sample deadline one cadence after `now`. Call once
    /// per due-sample batch.
    pub fn advance(&self, now: Ns) {
        self.next.set(now.0.saturating_add(self.cadence.get()));
    }

    /// Opens a sampling pass at simulated time `now`, or returns `None`
    /// while disabled. The pass holds the series registry until it is
    /// dropped, so a batch of gauges pays for one borrow.
    pub fn sampler(&self, now: Ns) -> Option<Sampler<'_>> {
        self.enabled.get().then(|| {
            let mut inner = self.inner.borrow_mut();
            inner.pass += 1;
            inner.now = now;
            Sampler { inner }
        })
    }

    /// Records on write: `value` gives a standing gauge's new value,
    /// shown from the next pass of its timeline on (a later write before
    /// that pass replaces it). It is not called for a gauge without a
    /// standing series, and the write is one `Cell` read while disabled.
    #[inline]
    pub fn write(&mut self, gauge: Gauge, value: impl FnOnce() -> u64) {
        if self.enabled.get() {
            self.inner.get_mut().write(gauge, value);
        }
    }

    /// Retires a standing gauge (its path or domain is gone): its series
    /// keeps the points it has and stops repeating. One `Cell` read
    /// while disabled (the next [`Sampler::resync`] catches up).
    pub fn leave(&mut self, gauge: Gauge) {
        if !self.enabled.get() {
            return;
        }
        let inner = self.inner.get_mut();
        if let Some(s) = inner.series_of(gauge) {
            inner.unstand(s);
        }
    }

    /// Resizes every series (evicting oldest points if shrinking).
    pub fn set_capacity(&self, cap: usize) {
        let inner = &mut *self.inner.borrow_mut();
        for s in 0..inner.heads.len() {
            inner.settle(s);
        }
        inner.cap = cap.max(1);
        let cap = inner.cap as u64;
        for s in 0..inner.heads.len() {
            inner.heads[s].grow(0, cap);
            inner.trim(s);
        }
    }

    /// Indexed-gauge samples refused because the series cap was reached.
    pub fn refused_names(&self) -> u64 {
        self.inner.borrow().refused_names
    }

    /// Owned snapshots of every series, in first-seen order.
    pub fn series(&self) -> Vec<SeriesSnapshot> {
        let mut inner = self.inner.borrow_mut();
        for s in 0..inner.heads.len() {
            inner.settle(s);
        }
        let mut timelines: [Option<Arc<[Ns]>>; TIMELINES] = Default::default();
        (0..inner.heads.len())
            .map(|s| {
                let t = inner.heads[s].gauge.timeline() as usize;
                let at = timelines[t]
                    .get_or_insert_with(|| inner.passes[t].at.iter().copied().collect());
                inner.expand(s, at)
            })
            .collect()
    }

    /// Discards every series and re-arms the sample deadline at zero
    /// (keeps enablement, cadence, and capacities).
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        let (cap, max_series) = (inner.cap, inner.max_series);
        *inner = MetricsInner {
            cap,
            max_series,
            ..MetricsInner::new()
        };
        drop(inner);
        self.next.set(0);
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
    /// The registry, whose `pass` and `now` name this pass. Nothing
    /// else is kept here, so a sampler is two words.
    inner: RefMut<'a, MetricsInner>,
}

impl Sampler<'_> {
    /// Opens this pass on timeline `t` (once per pass): every standing
    /// series stamped from it gains this pass's point unless it is
    /// recorded anew. Returns the pass index.
    #[inline]
    pub fn tick(&mut self, t: Timeline) -> u64 {
        let inner = &mut *self.inner;
        let passes = &inner.passes[t as usize];
        if passes.opened == inner.pass {
            passes.end() - 1
        } else {
            inner.tick(t as usize)
        }
    }

    /// Records one gauge reading (its series is created on first use; a
    /// new indexed gauge is refused and counted once the series cap is
    /// reached). `value` runs only when the reading is recorded.
    #[inline]
    pub fn record(&mut self, gauge: Gauge, value: impl FnOnce() -> u64) {
        match self.inner.resolve(gauge) {
            Some(s) => {
                let p = self.tick(gauge.timeline());
                self.inner.put(s, p, value());
            }
            None => self.inner.refused_names += 1,
        }
    }

    /// [`Sampler::record`], and the series becomes standing: it repeats
    /// `value` in every later pass of its timeline until a
    /// [`Metrics::write`] changes it or [`Metrics::leave`] retires it.
    pub fn hold(&mut self, gauge: Gauge, value: impl FnOnce() -> u64) {
        match self.inner.resolve(gauge) {
            Some(s) => {
                let t = gauge.timeline();
                let p = self.tick(t);
                self.inner.put(s, p, value());
                let h = &mut self.inner.heads[s];
                if !h.standing {
                    h.standing = true;
                    self.inner.passes[t as usize].standing += 1;
                }
            }
            None => self.inner.refused_names += 1,
        }
    }

    /// [`Metrics::write`] inside a pass: before the pass opens the
    /// gauge's timeline, the value shows in this pass too. For a gauge
    /// its owner reads once per pass rather than at each change.
    #[inline]
    pub fn write(&mut self, gauge: Gauge, value: u64) {
        self.inner.write(gauge, || value);
    }

    /// Standing series stamped from timeline `t`.
    pub fn standing(&self, t: Timeline) -> u64 {
        self.inner.passes[t as usize].standing
    }

    /// Counts `n` refused indexed-gauge samples at once.
    pub fn refuse(&mut self, n: u64) {
        self.inner.refused_names += n;
    }

    /// True once after [`Metrics::clear`] or re-enabling: the owner must
    /// visit every gauge it has (with [`Sampler::hold`]), because
    /// writes made meanwhile were skipped. Every series stops standing
    /// first. Call before the pass opens any timeline.
    #[inline]
    pub fn resync(&mut self) -> bool {
        self.inner.resync && self.inner.resync_all()
    }
}

/// Folds per-shard series into one fleet-wide set: each shard's series
/// keep their own (independent) simulated timeline and are namespaced
/// `s<shard>.<name>`, preserving order. The merged series share their
/// shard's timeline copies; only names and runs are copied.
pub fn merge_shards<S: AsRef<[SeriesSnapshot]>>(shards: &[(u32, S)]) -> Vec<SeriesSnapshot> {
    let mut out = Vec::new();
    for (shard, series) in shards {
        for s in series.as_ref() {
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
        m.sampler(Ns(1_000))
            .unwrap()
            .record(Gauge::FreeChunks, || 2);
        m.advance(Ns(1_000));
        let s = &m.series()[0];
        assert_eq!(s.points.len(), 2);
        assert_eq!(
            s.points.iter().last(),
            Some(MetricPoint {
                at: Ns(1_000),
                value: 2
            })
        );
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
        m.inner.borrow_mut().max_series = 1;
        m.sampler(Ns(0)).unwrap().record(Gauge::Inbox(0), || 1);
        let mut evaluated = false;
        m.sampler(Ns(0)).unwrap().record(Gauge::Inbox(1), || {
            evaluated = true;
            2
        });
        assert!(!evaluated, "a refused gauge's value is never computed");
        m.sampler(Ns(0)).unwrap().record(Gauge::Inbox(1), || 2);
        m.sampler(Ns(0))
            .unwrap()
            .record(Gauge::RingBatchOccupancy, || 3);
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
        series: Vec<RefSeries>,
    }

    /// One series of the reference: its points held literally.
    struct RefSeries {
        name: String,
        dropped: u64,
        points: Vec<MetricPoint>,
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
                None => self.series.push(RefSeries {
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

        fn snapshots(&self) -> Vec<SeriesSnapshot> {
            self.series
                .iter()
                .map(|s| SeriesSnapshot {
                    name: s.name.clone(),
                    dropped: s.dropped,
                    points: s.points.clone().into(),
                })
                .collect()
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

    /// One small pool of gauges, so a case revisits each often enough
    /// to build runs.
    fn gauge_pool(rng: &mut crate::Rng) -> Vec<Gauge> {
        (0..6)
            .map(|_| {
                let i = rng.below(4) as u32;
                match rng.below(5) {
                    0 => FIXED[rng.index(FIXED.len())],
                    1 => Gauge::PathParked(i),
                    2 => Gauge::PathChunks(i),
                    3 => Gauge::PathThreshold(i),
                    _ => Gauge::Inbox(i),
                }
            })
            .collect()
    }

    #[test]
    fn keyed_sampler_matches_the_by_name_reference() {
        for case in 0..200u64 {
            let mut rng = crate::Rng::new(0x6a09_e667 ^ case);
            let max_series = [1, 4, 16, DEFAULT_MAX_SERIES][rng.index(4)];
            let m = Metrics::new();
            m.set_enabled(true);
            m.inner.borrow_mut().max_series = max_series;
            let mut reference = ByName {
                cap: DEFAULT_POINTS,
                max_series,
                refused_names: 0,
                series: Vec::new(),
            };
            let mut pool = gauge_pool(&mut rng);
            for step in 0..700u64 {
                let now = Ns(step * 7);
                match rng.below(1_000) {
                    0..=39 => {
                        let cap = 1 + rng.index(8);
                        m.set_capacity(cap);
                        reference.set_capacity(cap);
                    }
                    40..=41 => {
                        m.clear();
                        reference.series.clear();
                        reference.refused_names = 0;
                    }
                    42..=49 => pool = gauge_pool(&mut rng),
                    _ => {
                        // One pass: most of the pool, a small value
                        // alphabet so values repeat, and now and then one
                        // gauge recorded twice.
                        let mut pass: Vec<Gauge> =
                            pool.iter().copied().filter(|_| rng.below(5) != 0).collect();
                        if rng.below(10) == 0 {
                            pass.push(pool[rng.index(pool.len())]);
                        }
                        let mut s = m.sampler(now).unwrap();
                        for g in pass {
                            let value = rng.next_u64() % 3;
                            let mut evaluated = false;
                            s.record(g, || {
                                evaluated = true;
                                value
                            });
                            let (name, fixed) = reference_name(g);
                            let recorded = reference.sample(now, &name, fixed, value);
                            assert_eq!(evaluated, recorded, "case {case} step {step}: {name}");
                        }
                    }
                }
                assert_eq!(m.series(), reference.snapshots(), "case {case} step {step}");
                assert_eq!(
                    m.refused_names(),
                    reference.refused_names,
                    "case {case} step {step}"
                );
            }
        }
    }

    #[test]
    fn standing_series_match_point_by_point_recording() {
        // An owner that holds its per-path and inbox gauges, writes
        // each change, retires gauges with `leave`, sometimes
        // samples with the event loop away (no inbox pass) and sometimes
        // while disabled, against the reference recording every live
        // gauge in every pass.
        let system: Vec<Gauge> = (0..5).map(Gauge::PathParked).collect();
        let inbox: Vec<Gauge> = (0..4).map(Gauge::Inbox).collect();
        for case in 0..100u64 {
            let mut rng = crate::Rng::new(0xbb67_ae85 ^ case);
            let max_series = [3, 7, DEFAULT_MAX_SERIES][rng.index(3)];
            let mut m = Metrics::new();
            m.set_enabled(true);
            m.inner.borrow_mut().max_series = max_series;
            let mut reference = ByName {
                cap: DEFAULT_POINTS,
                max_series,
                refused_names: 0,
                series: Vec::new(),
            };
            let mut values = [0u64; 9];
            let mut alive = [true; 9];
            let mut inbox_synced = false;
            for step in 0..700u64 {
                let now = Ns(step * 11);
                for (k, v) in values.iter_mut().enumerate() {
                    // Up to three writes between passes: the last wins,
                    // and one may restore the value the pass before had.
                    for _ in 0..rng.below(8).saturating_sub(4) {
                        *v = rng.next_u64() % 3;
                        let g = if k < 5 { system[k] } else { inbox[k - 5] };
                        m.write(g, || *v);
                    }
                }
                match rng.below(1_000) {
                    0..=29 => {
                        let cap = 1 + rng.index(8);
                        m.set_capacity(cap);
                        reference.set_capacity(cap);
                    }
                    30..=31 => {
                        m.clear();
                        reference.series.clear();
                        reference.refused_names = 0;
                    }
                    32..=41 => {
                        let k = rng.index(9);
                        alive[k] = false;
                        m.leave(if k < 5 { system[k] } else { inbox[k - 5] });
                    }
                    42..=71 => {
                        m.set_enabled(false);
                        continue;
                    }
                    _ => {}
                }
                m.set_enabled(true);
                let engine = rng.below(3) != 0;
                let mut s = m.sampler(now).unwrap();
                let resync = s.resync();
                if resync {
                    inbox_synced = false;
                }
                let live = rng.next_u64() % 3;
                s.record(Gauge::LiveFbufs, || live);
                reference.sample(now, "live_fbufs", true, live);
                if engine {
                    s.tick(Timeline::Inbox);
                }
                let visit: Vec<usize> = (0..9).filter(|&k| alive[k] && (k < 5 || engine)).collect();
                if resync || (engine && !inbox_synced) {
                    for &k in &visit {
                        let g = if k < 5 { system[k] } else { inbox[k - 5] };
                        s.hold(g, || values[k]);
                    }
                    inbox_synced |= engine;
                } else {
                    let owned = s.standing(Timeline::System)
                        + if engine {
                            s.standing(Timeline::Inbox)
                        } else {
                            0
                        };
                    s.refuse(visit.len() as u64 - owned);
                }
                drop(s);
                for &k in &visit {
                    let (name, _) = reference_name(if k < 5 { system[k] } else { inbox[k - 5] });
                    reference.sample(now, &name, false, values[k]);
                }
                assert_eq!(m.series(), reference.snapshots(), "case {case} step {step}");
                assert_eq!(
                    m.refused_names(),
                    reference.refused_names,
                    "case {case} step {step}"
                );
            }
        }
    }

    #[test]
    fn store_memory_stays_bounded_by_the_point_cap() {
        // A constant series, one that toggles every pass, and one that
        // is recorded for ten passes and then never again (a retired
        // path). The dead series must not keep the timeline from being
        // trimmed.
        const PASSES: u64 = 100_000;
        let m = Metrics::new();
        m.set_enabled(true);
        let mut reference = ByName {
            cap: DEFAULT_POINTS,
            max_series: DEFAULT_MAX_SERIES,
            refused_names: 0,
            series: Vec::new(),
        };
        for p in 0..PASSES {
            let now = Ns(p * 3);
            let mut s = m.sampler(now).unwrap();
            let toggle = p % 2;
            s.record(Gauge::LiveFbufs, || 7);
            s.record(Gauge::ParkedFbufs, || toggle);
            reference.sample(now, "live_fbufs", true, 7);
            reference.sample(now, "parked_fbufs", true, toggle);
            if p < 10 {
                s.record(Gauge::PathParked(0), || p);
                reference.sample(now, "path0.parked", false, p);
            }
            drop(s);
            let inner = m.inner.borrow();
            let timeline = inner.passes[Timeline::System as usize].at.len();
            assert!(
                timeline <= 2 * DEFAULT_POINTS,
                "pass {p}: timeline holds {timeline} passes"
            );
            for (h, log) in inner.heads.iter().zip(&inner.logs) {
                let logged = log.runs.len() + log.frozen.len();
                assert!(
                    logged <= DEFAULT_POINTS,
                    "pass {p}: {} logs {logged}",
                    log.name
                );
                assert!(h.retained <= DEFAULT_POINTS as u64);
            }
        }
        assert_eq!(m.series(), reference.snapshots());
        let inner = m.inner.borrow();
        let passes = &inner.passes[Timeline::System as usize];
        assert!(
            passes.base > PASSES - 2 * DEFAULT_POINTS as u64,
            "timeline trimmed past the dead series"
        );
        assert_eq!(
            inner.logs[0].runs.len(),
            0,
            "a constant series is one open run"
        );
        assert_eq!(
            inner.logs[2].frozen.len(),
            10,
            "the dead series froze its points"
        );
    }

    #[test]
    fn snapshots_expand_to_the_reference_across_trims_and_outlive_the_store() {
        // Long cases with caps up to a few hundred, so timelines trim and
        // sparse or retired series freeze many times over: standing
        // series (written, one retired mid-case), a slow-changing and a
        // toggling series recorded every pass, and a sparse one. Every
        // snapshot taken mid-case is checked again once the store has
        // moved on, then merged.
        let held: Vec<Gauge> = (0..3).map(Gauge::PathChunks).collect();
        for case in 0..24u64 {
            let mut rng = crate::Rng::new(0x3c6e_f372 ^ case);
            let mut m = Metrics::new();
            m.set_enabled(true);
            let cap = 1 + rng.index(300);
            m.set_capacity(cap);
            let mut reference = ByName {
                cap,
                max_series: DEFAULT_MAX_SERIES,
                refused_names: 0,
                series: Vec::new(),
            };
            let mut values = [0u64; 3];
            let mut alive = [true; 3];
            let mut kept = Vec::new();
            for step in 0..3_000u64 {
                let now = Ns(step * 5);
                match rng.below(1_000) {
                    0..=4 => {
                        let cap = 1 + rng.index(300);
                        m.set_capacity(cap);
                        reference.set_capacity(cap);
                    }
                    5 => {
                        m.clear();
                        reference.series.clear();
                    }
                    6 if alive[2] => {
                        alive[2] = false;
                        m.leave(held[2]);
                    }
                    _ => {}
                }
                for (k, v) in values.iter_mut().enumerate() {
                    if rng.below(50) == 0 {
                        *v = rng.next_u64() % 4;
                        m.write(held[k], || *v);
                    }
                }
                let mut s = m.sampler(now).unwrap();
                let resync = s.resync();
                s.record(Gauge::LiveFbufs, || step / 64);
                reference.sample(now, "live_fbufs", true, step / 64);
                let toggle = (step / 500) % 2 * (step % 2);
                s.record(Gauge::ParkedFbufs, || toggle);
                reference.sample(now, "parked_fbufs", true, toggle);
                if rng.below(40) == 0 {
                    s.record(Gauge::FreeChunks, || step);
                    reference.sample(now, "free_chunks", true, step);
                }
                if resync {
                    for k in (0..3).filter(|&k| alive[k]) {
                        s.hold(held[k], || values[k]);
                    }
                }
                drop(s);
                for k in (0..3).filter(|&k| alive[k]) {
                    reference.sample(now, &format!("path{k}.chunks"), false, values[k]);
                }
                if rng.below(100) == 0 {
                    let (got, want) = (m.series(), reference.snapshots());
                    assert_eq!(got, want, "case {case} step {step}");
                    kept.push((got, want));
                }
            }
            for (got, want) in &kept {
                assert_eq!(
                    got, want,
                    "case {case}: a snapshot changed after it was taken"
                );
                for s in got {
                    assert_eq!(s.points.len(), s.points.iter().count());
                }
            }
            let shards: Vec<(u32, Vec<SeriesSnapshot>)> = kept
                .iter()
                .enumerate()
                .map(|(i, (got, _))| (i as u32, got.clone()))
                .collect();
            let merged: Vec<(String, u64, Vec<MetricPoint>)> = merge_shards(&shards)
                .into_iter()
                .map(|s| (s.name, s.dropped, s.points.iter().collect()))
                .collect();
            let expected: Vec<(String, u64, Vec<MetricPoint>)> = kept
                .iter()
                .enumerate()
                .flat_map(|(i, (_, want))| {
                    want.iter().map(move |s| {
                        (
                            format!("s{i}.{}", s.name),
                            s.dropped,
                            s.points.iter().collect(),
                        )
                    })
                })
                .collect();
            assert_eq!(merged, expected, "case {case}: merged snapshots");
        }
    }

    #[test]
    fn points_compare_by_sequence_not_representation() {
        let m = Metrics::new();
        m.set_enabled(true);
        for (i, v) in [4, 4, 4, 9].into_iter().enumerate() {
            m.sampler(Ns(i as u64 * 10))
                .unwrap()
                .record(Gauge::LiveFbufs, || v);
        }
        let runs = m.series().remove(0).points;
        let literal: Vec<MetricPoint> = [4, 4, 4, 9]
            .into_iter()
            .enumerate()
            .map(|(i, value)| MetricPoint {
                at: Ns(i as u64 * 10),
                value,
            })
            .collect();
        assert_eq!(
            runs,
            Points::from(literal.clone()),
            "two runs equal four literal points"
        );
        let mut other = literal.clone();
        other[3].value = 8;
        assert_ne!(runs, Points::from(other), "same length, one value differs");
        let mut later = literal;
        later[0].at = Ns(1);
        assert_ne!(
            runs,
            Points::from(later),
            "same values, one instant differs"
        );
        assert!(Points::from(Vec::new()).is_empty());
    }

    #[test]
    fn merge_prefixes_shard_names() {
        let a = vec![SeriesSnapshot {
            name: "g".into(),
            dropped: 0,
            points: vec![MetricPoint {
                at: Ns(1),
                value: 10,
            }]
            .into(),
        }];
        let b = vec![SeriesSnapshot {
            name: "g".into(),
            dropped: 2,
            points: Vec::new().into(),
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
        assert_eq!(
            series[0].get("name").and_then(Json::as_str),
            Some("live_fbufs")
        );
        let pts = series[0]
            .get("points")
            .and_then(Json::as_arr)
            .expect("points");
        assert_eq!(pts.len(), 1);
    }
}
