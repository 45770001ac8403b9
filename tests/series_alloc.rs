//! Allocation guard for telemetry snapshots.
//!
//! A series is stored as runs against a shared pass timeline, and a
//! snapshot ([`Metrics::series`]) keeps that shape: it copies each
//! series' runs and one copy of each timeline, never one point per
//! pass. This binary installs a counting global allocator and pins it
//! on a full store (64 series × 4,096 points) that holds a few runs per
//! series: the snapshot allocates a small fraction of the 4 MB that
//! expanding every point would take.
//!
//! The counters are thread-local, so the test harness's own threads do
//! not disturb them; the binary holds a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fbufs::sim::metrics::{Gauge, MetricPoint, Metrics, DEFAULT_MAX_SERIES, DEFAULT_POINTS};
use fbufs::sim::Ns;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both calls forward to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which never allocate. The
// trait's default `alloc_zeroed` and `realloc` go through `alloc`, so
// they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations and bytes requested that `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (n0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (ALLOCS.with(Cell::get) - n0, BYTES.with(Cell::get) - b0, out)
}

#[test]
fn a_snapshot_costs_its_runs_not_its_points() {
    const RUN: u64 = 1_500;
    let passes = DEFAULT_POINTS as u64 + 2 * RUN;
    let m = Metrics::new();
    m.set_enabled(true);
    // 64 per-path series, each recorded in every pass; its value
    // changes every `RUN` passes, at a different phase per series.
    let gauges: Vec<Gauge> = (0..DEFAULT_MAX_SERIES as u32)
        .map(Gauge::PathChunks)
        .collect();
    for p in 0..passes {
        let mut s = m.sampler(Ns(p * 10_000)).expect("enabled");
        for (i, &g) in gauges.iter().enumerate() {
            s.record(g, || (p + 37 * i as u64) / RUN);
        }
    }

    let (n, bytes, series) = allocs(|| m.series());
    assert_eq!(series.len(), DEFAULT_MAX_SERIES);
    let mut runs = 0;
    for (i, s) in series.iter().enumerate() {
        assert_eq!(s.points.len(), DEFAULT_POINTS, "a full series");
        assert_eq!(s.dropped, passes - DEFAULT_POINTS as u64);
        let pts: Vec<MetricPoint> = s.points.iter().collect();
        assert_eq!(pts.len(), DEFAULT_POINTS);
        let first = passes - DEFAULT_POINTS as u64;
        for (k, pt) in pts.iter().enumerate() {
            let p = first + k as u64;
            assert_eq!(
                *pt,
                MetricPoint {
                    at: Ns(p * 10_000),
                    value: (p + 37 * i as u64) / RUN
                }
            );
        }
        runs += 1 + pts.windows(2).filter(|w| w[0].value != w[1].value).count() as u64;
    }
    assert!(
        runs <= 4 * DEFAULT_MAX_SERIES as u64,
        "a few runs per series, not {runs}"
    );

    let expanded =
        (DEFAULT_MAX_SERIES * DEFAULT_POINTS * std::mem::size_of::<MetricPoint>()) as u64;
    // The result vector, then per series its name and its runs, and one
    // copy of the timeline (at most twice the point cap of passes).
    let timeline = (2 * DEFAULT_POINTS * std::mem::size_of::<Ns>()) as u64;
    let budget = timeline + 64 * runs + 256 * DEFAULT_MAX_SERIES as u64;
    assert!(
        bytes <= budget,
        "a snapshot of {runs} runs allocated {bytes} bytes (budget {budget}, expanded {expanded})"
    );
    assert!(
        bytes * 16 < expanded,
        "{bytes} bytes is not far below the {expanded} of expanding"
    );
    assert!(
        n <= 2 + 2 * DEFAULT_MAX_SERIES as u64,
        "{n} allocations: one name and one run list per series, one vector, one timeline"
    );
}
