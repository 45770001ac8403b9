//! Allocation guard for the engine's drained hop.
//!
//! Host-time gates are noisy on a shared machine, but the number of heap
//! allocations a hop makes is deterministic. This binary installs a
//! counting global allocator and pins it: a drained `hop` allocates
//! nothing, whether or not its reply carries deallocation notices (the
//! RPC layer counts them and clears their lists in place), a whole
//! multi-leg transfer allocates only its shared route, and a `free`
//! whose notice forces an explicit message allocates nothing either.
//!
//! The counter is thread-local, so the test harness's own threads do
//! not disturb it; the binary holds a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fbufs::fbuf::{AllocMode, FbufSystem, SendMode, SubmitOutcome};
use fbufs::sim::MachineConfig;

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

/// Heap allocations (reallocations included) `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn drained_hops_and_transfers_allocate_at_most_their_results() {
    let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
    let (a, b, c) = (
        sys.create_domain(),
        sys.create_domain(),
        sys.create_domain(),
    );
    let route = vec![a, b, c];
    let path = sys.create_path(route.clone()).unwrap();
    let len = sys.machine().page_size();

    // One warm-up transfer and one hop each way size every per-domain
    // table, inbox and cache the steady state reuses.
    let buf = sys.alloc(a, AllocMode::Cached(path), len).unwrap();
    assert!(matches!(
        sys.submit_transfer(buf, &route),
        SubmitOutcome::Queued(_)
    ));
    sys.pump();
    sys.hop(a, b);
    sys.hop(b, a);

    // A drained hop with no notices owed.
    let (n, notices) = allocs(|| sys.hop(a, b));
    assert_eq!(notices, 0);
    assert_eq!(n, 0, "a drained hop without notices allocates nothing");

    // A drained hop that carries a notice back to its owner.
    let buf = sys.alloc(a, AllocMode::Cached(path), len).unwrap();
    sys.send(buf, a, b, SendMode::Volatile).unwrap();
    sys.free(buf, b).unwrap();
    let (n, notices) = allocs(|| sys.hop(a, b));
    assert_eq!(notices, 1);
    assert_eq!(n, 0, "a drained hop with notices allocates nothing");
    // The originator's free parks the buffer for the transfer below.
    sys.free(buf, a).unwrap();

    // A whole 3-domain transfer through the engine.
    let buf = sys.alloc(a, AllocMode::Cached(path), len).unwrap();
    let (n, _) = allocs(|| {
        assert!(matches!(
            sys.submit_transfer(buf, &route),
            SubmitOutcome::Queued(_)
        ));
        sys.pump()
    });
    assert_eq!(n, 1, "a transfer allocates only its shared route");
    assert_eq!(sys.transfers_completed(), 2);

    // A free past the notice threshold sends an explicit message, which
    // delivers the backlog without copying it out.
    sys.rpc_mut().set_notice_threshold(1);
    let buf = sys.alloc(a, AllocMode::Cached(path), len).unwrap();
    sys.send(buf, a, b, SendMode::Volatile).unwrap();
    let explicit = sys.stats().explicit_notice_messages();
    let (n, freed) = allocs(|| sys.free(buf, b));
    freed.unwrap();
    assert_eq!(sys.stats().explicit_notice_messages(), explicit + 1);
    assert_eq!(n, 0, "an explicit notice message allocates nothing");
    sys.free(buf, a).unwrap();
}
