//! Allocation guard for the end-to-end Osiris send.
//!
//! The paper's point is that fbufs move network data across domains
//! without copying it, and without allocating in the common case. The
//! simulator's end-to-end path should not undo that on the host: once
//! warmed, a send must not push its payload through the heap, nor churn
//! the heap for its descriptors. This binary installs a counting global
//! allocator and pins, for one warmed, unverified `send_message`, its
//! heap bytes to at most an eighth of its payload and its number of
//! allocations to at most eight, a Figure 6 receive larger than the
//! frame pool included (its whole pages share the sender's storage, so
//! they take no page from the pool or the heap); and the test
//! protocol's page touch to no allocation at all.
//!
//! The counters are thread-local, so the test harness's own threads, and
//! the other tests running beside one, do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fbufs::net::{DomainSetup, EndToEnd, EndToEndConfig, Fill};
use fbufs::sim::MachineConfig;
use fbufs::vm::phys::POOL_FRAMES;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which never allocate. A
// reallocation counts its new size, since it may move the block.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations and bytes `f` makes on this thread.
fn heap<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0, out)
}

/// A user-netserver-user pair in `cfg`, warmed by four sends of `size`
/// bytes: the buffer caches, the frame pool, the pipeline and every table
/// the steady state reuses.
fn warmed(cfg: EndToEndConfig, size: u64) -> EndToEnd {
    let mut e = EndToEnd::new(MachineConfig::decstation_5000_200(), cfg);
    for _ in 0..4 {
        e.send_message(size, 1, false).unwrap();
    }
    e
}

/// Heap allocations and bytes of one warmed, unverified send.
fn one_send(e: &mut EndToEnd, size: u64) -> (u64, u64) {
    let (allocs, bytes, sent) = heap(|| e.send_message(size, 1, false));
    sent.unwrap();
    (allocs, bytes)
}

#[test]
fn warmed_sends_make_at_most_eight_allocations() {
    let fig5 = || EndToEndConfig::fig5(DomainSetup::UserNetserver);
    let fig6 = || EndToEndConfig::fig6(DomainSetup::UserNetserver);
    let mut over = Vec::new();
    for (name, cfg, size) in [
        ("fig5", fig5(), 4u64 << 10),
        ("fig5", fig5(), 16 << 10),
        ("fig5", fig5(), 64 << 10),
        ("fig5", fig5(), 256 << 10),
        ("fig6", fig6(), 4 << 10),
        ("fig6", fig6(), 16 << 10),
        ("fig6", fig6(), 64 << 10),
        ("fig6", fig6(), 256 << 10),
    ] {
        let mut e = warmed(cfg, size);
        let (allocs, bytes) = one_send(&mut e, size);
        eprintln!(
            "{name} {} KB: {allocs} allocations, {bytes} bytes",
            size >> 10
        );
        if allocs > 8 {
            over.push(format!(
                "{name} at {} KB: {allocs} allocations ({bytes} bytes), over 8",
                size >> 10
            ));
        }
    }
    assert!(over.is_empty(), "warmed sends over budget: {over:#?}");
}

#[test]
fn an_uncached_receive_past_the_frame_pool_allocates_only_frame_storage() {
    // Figure 6 receives into uncached buffers: a 256 KB datagram holds 64
    // fresh frames until it is reassembled and consumed. The frame pool
    // serves the first POOL_FRAMES of them; a frame past the pool may
    // allocate nothing but its page of storage. With whole pages shared
    // by reference, the receive takes none at all.
    let size = 256u64 << 10;
    let mut e = warmed(EndToEndConfig::fig6(DomainSetup::UserNetserver), size);
    let page = e.rx.fbs.machine().page_size();
    let frames = size / page;
    let (allocs, bytes) = one_send(&mut e, size);
    eprintln!("fig6 256 KB: {allocs} allocations, {bytes} bytes");
    assert_eq!(
        bytes,
        allocs * page,
        "an allocation other than a frame page"
    );
    assert!(
        allocs <= frames - POOL_FRAMES as u64,
        "{allocs} frame pages for {frames} frames and a pool of {POOL_FRAMES}"
    );
}

#[test]
fn warmed_sends_allocate_at_most_an_eighth_of_their_payload() {
    let cases = [
        (
            "fig5",
            EndToEndConfig::fig5(DomainSetup::UserNetserver),
            16u64 << 10,
        ),
        (
            "fig5",
            EndToEndConfig::fig5(DomainSetup::UserNetserver),
            64 << 10,
        ),
        (
            "fig5",
            EndToEndConfig::fig5(DomainSetup::UserNetserver),
            256 << 10,
        ),
        (
            "fig6",
            EndToEndConfig::fig6(DomainSetup::UserNetserver),
            16 << 10,
        ),
        (
            "fig6",
            EndToEndConfig::fig6(DomainSetup::UserNetserver),
            256 << 10,
        ),
    ];
    let mut over = Vec::new();
    for (name, cfg, size) in cases {
        let mut e = EndToEnd::new(MachineConfig::decstation_5000_200(), cfg);
        // Warm the buffer caches, the frame pool, the pipeline and every
        // table the steady state reuses.
        for _ in 0..4 {
            e.send_message(size, 1, false).unwrap();
        }
        let (allocs, bytes, sent) = heap(|| e.send_message(size, 1, false));
        sent.unwrap();
        eprintln!(
            "{name} {} KB: {allocs} allocations, {bytes} bytes",
            size >> 10
        );
        if bytes > size / 8 {
            over.push(format!(
                "{name} at {} KB: {bytes} heap bytes in {allocs} allocations, \
                 over payload/8 = {}",
                size >> 10,
                size / 8
            ));
        }
    }
    assert!(over.is_empty(), "warmed sends over budget: {over:#?}");

    // The test protocol's touch reads one byte per page into a stack
    // word: no allocation however many pages it visits.
    let mut e = EndToEnd::new(
        MachineConfig::decstation_5000_200(),
        EndToEndConfig::fig5(DomainSetup::UserNetserver),
    );
    let app = e.tx.app;
    let msg = e.tx.build_message(256 << 10, &Fill::Touch).unwrap();
    let (allocs, _, touched) = heap(|| msg.touch(&mut e.tx.fbs, app));
    touched.unwrap();
    assert_eq!(allocs, 0, "touching 64 pages allocated");
    e.tx.release(app, &msg).unwrap();
}
