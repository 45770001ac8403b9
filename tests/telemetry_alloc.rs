//! Allocation guard for telemetry in steady state.
//!
//! Telemetry records on write: a mutation site hands its gauge's new
//! value to the series store, and a pass stamps its timelines. Once
//! every series holds its point cap, each run log and timeline has
//! reached the size it keeps, so recording must allocate nothing more.
//! This binary installs a counting global allocator and pins that on
//! the shard of `tests/telemetry_golden.rs`: one self-linked shard, 24
//! paths, telemetry on, 600 points per series (the per-path families
//! overflow the series cap, so refusals are counted too). Cached cycles
//! allocate nothing at all, and neither do egresses: a payload travels
//! in the buffer the shard kept from its last ingest.
//!
//! The counter is thread-local, so the test harness's own threads do
//! not disturb it; the binary holds a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fbufs::fbuf::shard::{Links, Shard};
use fbufs::sim::{spsc, MachineConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both calls forward to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates. The
// trait's default `alloc_zeroed` and `realloc` go through `alloc`, so
// they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Links that feed the shard's own data ring back into itself.
fn self_links() -> Links {
    let (data_tx, data_rx) = spsc::ring(16);
    let (notice_tx, notice_rx) = spsc::ring(16);
    Links {
        data_tx: Some(data_tx),
        notice_rx: Some(notice_rx),
        data_rx: Some(data_rx),
        notice_tx: Some(notice_tx),
        upstream: Some(0),
    }
}

/// `n` cached cycles, an egress every `every`th (none for 0), each
/// followed by the shard's telemetry checkpoint.
fn cycles(shard: &mut Shard, links: &mut Links, n: u64, every: u64) {
    for i in 1..=n {
        shard.poll(links);
        shard.local_cycle().expect("cached cycle");
        if every > 0 && i % every == 0 {
            shard.egress(links);
        }
        shard.sample_telemetry(links);
    }
}

/// Takes in the egress still on the ring.
fn drain(shard: &mut Shard, links: &mut Links) {
    while shard.in_flight() > 0 {
        shard.poll(links);
    }
}

#[test]
fn telemetry_allocates_nothing_once_every_series_is_full() {
    const CAP: usize = 600;
    let mut shard = Shard::new(0, MachineConfig::decstation_5000_200(), 24, 1);
    let mut links = self_links();
    let m = shard.sys.machine().metrics();
    m.set_enabled(true);
    m.set_capacity(CAP);
    shard.warm_local().expect("warm cycles");
    shard.egress(&mut links);
    shard.poll(&mut links);
    // Long enough for every timeline to trim a few times over.
    cycles(&mut shard, &mut links, 6_000, 16);
    drain(&mut shard, &mut links);
    let m = shard.sys.machine().metrics();
    let series = m.series();
    assert!(
        series.iter().all(|s| s.points.len() == CAP),
        "every series holds its cap"
    );
    let (points, refused) = (
        series.iter().map(|s| s.dropped).sum::<u64>(),
        m.refused_names(),
    );

    let (n, ()) = allocs(|| cycles(&mut shard, &mut links, 1_000, 0));
    assert_eq!(
        n, 0,
        "1 000 cached cycles with telemetry on allocated {n} times"
    );
    let (with_egress, ()) = allocs(|| cycles(&mut shard, &mut links, 1_000, 16));
    assert_eq!(
        with_egress, 0,
        "1 000 cycles with an egress every 16th allocated {with_egress} times"
    );
    drain(&mut shard, &mut links);

    // The measured cycles did record: every series moved on.
    let m = shard.sys.machine().metrics();
    let after = m.series();
    assert!(after.iter().map(|s| s.dropped).sum::<u64>() > points);
    assert!(m.refused_names() > refused);
}
