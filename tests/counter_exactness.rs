//! Pins the paper's operation-count claims *exactly*, using counter
//! deltas over a warmed cached loopback run.
//!
//! §3.2.2: "only two page table updates are required, irrespective of
//! the number of transfers" — and both of those happen while the path
//! warms up. In steady state a cached fbuf shuttles between the free
//! list and the path with **zero** page table updates and **zero**
//! security page clears; every allocation is a cache hit.

use std::rc::Rc;

use fbufs::fbuf::shard::{run_fleet, FleetConfig, ShardReport, NOTICE_BATCH_MAX};
use fbufs::fbuf::{AllocMode, FbufError, FbufSystem, JailConfig, QuotaPolicy, SendMode};
use fbufs::net::{DomainSetup, EndToEnd, EndToEndConfig, LoopbackConfig, LoopbackStack};
use fbufs::sim::{audit_tracer, EventKind, FaultSpec, MachineConfig, Ns, StatsSnapshot};
use fbufs::vm::{Machine, Prot, KERNEL_DOMAIN};
use fbufs::xkernel::integrated::{self, DagBuilder, TraverseLimits};
use fbufs::xkernel::proxy::deliver_integrated;
use fbufs::xkernel::{deliver, Msg, MsgRefs};

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    cfg
}

#[test]
fn cached_steady_state_counter_deltas_are_exact() {
    let msgs = 8u64;
    let size = 16 << 10; // 4 PDU-sized fbufs per message
    let frags = size / 4096;

    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
    // Warm-up populates the per-path free list (the only point where
    // mappings are installed and pages cleared).
    for _ in 0..2 {
        s.send_message(size, false).unwrap();
    }
    let mark = s.fbs.stats().snapshot();
    for _ in 0..msgs {
        s.send_message(size, false).unwrap();
    }
    let d = s.fbs.stats().snapshot().delta(&mark);

    // The §3.2.2 claim, pinned exactly: zero VM work in steady state.
    assert_eq!(d.pte_updates, 0, "cached path re-maps nothing");
    assert_eq!(d.pages_cleared, 0, "cached path re-clears nothing");
    assert_eq!(d.tlb_flushes, 0);
    assert_eq!(d.frames_allocated, 0);

    // Every allocation is served from the path's free list.
    assert_eq!(d.fbuf_cache_hits, msgs * frags);
    assert_eq!(d.fbuf_cache_misses, 0);

    // Each fragment makes two body-mapped crossings per round trip
    // (originator->netserver down, netserver->receiver up).
    assert_eq!(d.fbuf_transfers, msgs * frags * 2);

    // Two RPCs per message; dealloc notices ride the replies.
    assert_eq!(d.ipc_messages, msgs * 2);
    assert_eq!(d.explicit_notice_messages, 0);
}

#[test]
fn uncached_steady_state_pays_vm_work_every_message() {
    // The contrast case: without caching, each message's buffers are
    // built and retired, so PTE updates and clears recur per message.
    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, false));
    for _ in 0..2 {
        s.send_message(16 << 10, false).unwrap();
    }
    let mark = s.fbs.stats().snapshot();
    s.send_message(16 << 10, false).unwrap();
    let d = s.fbs.stats().snapshot().delta(&mark);
    assert!(d.pte_updates > 0, "uncached transfers update page tables");
    assert!(d.pages_cleared > 0, "uncached allocations clear pages");
    assert_eq!(d.fbuf_cache_hits, 0);
}

#[test]
fn traced_cached_run_audits_clean_with_expected_events() {
    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
    let tracer = s.fbs.machine().tracer().clone();
    tracer.set_enabled(true);
    for _ in 0..4 {
        s.send_message(16 << 10, false).unwrap();
    }
    for kind in [
        EventKind::Alloc,
        EventKind::Transfer,
        EventKind::CacheHit,
        EventKind::Free,
    ] {
        assert!(tracer.count_of(kind) > 0, "expected {kind:?} events");
    }
    audit_tracer(&tracer).assert_clean();
}

#[test]
fn batched_range_ops_charge_identically_to_per_page_loops() {
    // The batched `map_range`/`protect_range`/`unmap_range` primitives are
    // a *host-time* optimisation only: the same workload must charge a
    // byte-identical simulated clock and an identical counter snapshot
    // whether it is driven page-at-a-time or as ranges.
    let run = |batched: bool| {
        let mut m = Machine::new(MachineConfig::decstation_5000_200());
        let dom = m.create_domain();
        let base = 0x9000_0000u64;
        let page = m.page_size();
        let pages = 8u64;
        m.map_explicit_region(dom, base, pages, Prot::ReadWrite)
            .unwrap();
        let frames: Vec<_> = (0..4).map(|_| m.alloc_frame().unwrap()).collect();
        if batched {
            m.map_range(dom, base, &frames, Prot::ReadWrite).unwrap();
        } else {
            for (i, &f) in frames.iter().enumerate() {
                m.map_page(dom, base + i as u64 * page, f, Prot::ReadWrite)
                    .unwrap();
            }
        }
        // Touch every mapped page so downgrades later hit resident TLB
        // entries (the expensive consistency-flush case).
        for i in 0..frames.len() as u64 {
            m.write(dom, base + i * page, &[i as u8]).unwrap();
        }
        if batched {
            m.protect_range(dom, base, frames.len() as u64, Prot::Read)
                .unwrap();
            m.protect_range(dom, base, frames.len() as u64, Prot::ReadWrite)
                .unwrap();
        } else {
            for i in 0..frames.len() as u64 {
                m.protect_page(dom, base + i * page, Prot::Read).unwrap();
            }
            for i in 0..frames.len() as u64 {
                m.protect_page(dom, base + i * page, Prot::ReadWrite)
                    .unwrap();
            }
        }
        // Replacement maps (old frame displaced) and a window-sized unmap
        // with holes in the upper half.
        let reversed: Vec<_> = frames.iter().rev().copied().collect();
        if batched {
            m.map_range(dom, base, &reversed, Prot::ReadWrite).unwrap();
            m.unmap_range(dom, base, pages).unwrap();
        } else {
            for (i, &f) in reversed.iter().enumerate() {
                m.map_page(dom, base + i as u64 * page, f, Prot::ReadWrite)
                    .unwrap();
            }
            for i in 0..pages {
                m.unmap_page(dom, base + i * page).unwrap();
            }
        }
        (m.now(), m.stats().snapshot())
    };
    let (t_page, s_page) = run(false);
    let (t_range, s_range) = run(true);
    assert_eq!(t_page, t_range, "simulated clock must match exactly");
    assert_eq!(s_page, s_range, "counter snapshot must match exactly");
    // The workload is non-trivial: it really exercised the counters.
    assert!(s_page.pte_updates >= 20);
    assert!(s_page.tlb_flushes >= 8);
}

// ---------------------------------------------------------------------
// The golden matrix: workloads × configurations that must not change
// simulated results. Each row below is one workload; it runs under every
// configuration in `CONFIGS`, and every cell must reproduce the row's
// golden: an FNV-1a digest of the clock(s) in ns plus every non-zero
// counter of the full `StatsSnapshot`(s). One mismatching cell fails the
// row and prints each deviating cell's rendering.
//
// The goldens were recorded while the engine still had a second,
// inline-descent hop mode and a settable notice-coalescing window: both
// hop modes, and fleet windows 1, 8 and 16, produced the digests below.
// A golden is stricter than that A/B was, since it also catches a change
// that moves every configuration at once. Regenerate a golden only for a
// change that is meant to move simulated time or a counter, and say so.
// ---------------------------------------------------------------------

/// FNV-1a (64-bit): a dependency-free digest for pinning rendered
/// artifacts byte for byte (the `tests/observability.rs` idiom).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A configuration that must not change simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Config {
    Default,
    Traced,
    TracedMetered,
    /// Quota jail and a 1 s revocation deadline armed; benign traffic
    /// never trips either.
    ContainmentArmed,
    /// `QuotaPolicy::Static` set explicitly (it is also the default).
    StaticPolicy,
    /// A fault plan armed with every site at rate zero.
    ZeroRateFaults,
}

const CONFIGS: [Config; 6] = [
    Config::Default,
    Config::Traced,
    Config::TracedMetered,
    Config::ContainmentArmed,
    Config::StaticPolicy,
    Config::ZeroRateFaults,
];

impl Config {
    /// Applies the configuration to one engine before any traffic.
    fn apply(self, fbs: &mut FbufSystem) {
        match self {
            Config::Default => {}
            Config::Traced => fbs.machine().tracer().set_enabled(true),
            Config::TracedMetered => {
                fbs.machine().tracer().set_enabled(true);
                fbs.machine().metrics().set_enabled(true);
            }
            Config::ContainmentArmed => {
                fbs.set_jail(Some(JailConfig::default()));
                fbs.set_revoke_timeout(Some(Ns(1_000_000_000)));
            }
            Config::StaticPolicy => fbs.set_quota_policy(QuotaPolicy::Static),
            Config::ZeroRateFaults => fbs.arm_faults(Rc::new(FaultSpec::new(11).arm())),
        }
    }

    /// The fleet form of the configuration, or `None` where
    /// [`FleetConfig`] has no way to express it (a fleet builds its
    /// engines inside its threads).
    fn fleet(self, mut f: FleetConfig) -> Option<FleetConfig> {
        match self {
            Config::Default => {}
            Config::Traced => f.trace = true,
            Config::TracedMetered => (f.trace, f.metrics) = (true, true),
            Config::ZeroRateFaults => f.fault = Some(FaultSpec::new(11)),
            Config::ContainmentArmed | Config::StaticPolicy => return None,
        }
        Some(f)
    }
}

/// What one cell pins, rendered as text: clocks in ns, counter
/// snapshots (non-zero counters, in declaration order) and named values.
struct Pin {
    cfg: Config,
    text: String,
}

impl Pin {
    fn new(cfg: Config) -> Pin {
        Pin { cfg, text: String::new() }
    }

    fn clock(mut self, t: Ns) -> Pin {
        self.text += &format!("clock {}\n", t.as_ns());
        self
    }

    fn snap(mut self, s: &StatsSnapshot) -> Pin {
        if self.cfg == Config::ContainmentArmed {
            assert_eq!(s.jail_denials, 0, "benign traffic tripped the jail");
            assert_eq!(s.fbufs_revoked, 0, "benign traffic was revoked");
        }
        self.text += &format!("{s}--\n");
        self
    }

    fn value(mut self, name: &str, v: u64) -> Pin {
        self.text += &format!("{name} {v}\n");
        self
    }

    /// Pins one engine: its clock and its counters.
    fn sys(self, fbs: &FbufSystem) -> Pin {
        self.clock(fbs.machine().now()).snap(&fbs.stats().snapshot())
    }
}

/// Runs `workload` under each of `configs` it can express, checks every
/// cell against `golden` and returns the number of cells run.
fn check_cells(workload: fn(Config) -> Option<Pin>, configs: &[Config], golden: u64) -> usize {
    let mut cells = 0;
    let mut wrong = Vec::new();
    for &cfg in configs {
        let Some(pin) = workload(cfg) else { continue };
        cells += 1;
        let got = fnv1a(pin.text.as_bytes());
        if got != golden {
            wrong.push(format!("{cfg:?} digests to {got:#018x}:\n{}", pin.text));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {cells} cell(s) differ from the golden {golden:#018x}:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    cells
}

/// Runs `workload` under every configuration it can express.
fn check_row(workload: fn(Config) -> Option<Pin>, golden: u64) {
    let cells = check_cells(workload, &CONFIGS, golden);
    assert!(cells >= 4, "a row must cover at least four configurations");
}

fn cached_loopback(cfg: Config) -> Option<Pin> {
    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
    cfg.apply(&mut s.fbs);
    for _ in 0..6 {
        s.send_message(16 << 10, false).unwrap();
    }
    // Every hop flowed through the event loop, all with zero queueing
    // delay: a sequential workload drains between hops.
    let h = s.fbs.queue_delay();
    assert!(h.count() > 0, "hops flowed through the loop");
    assert_eq!(h.max(), 0, "a drained pipeline queues nothing");
    assert_eq!(s.fbs.engine_overloads(), 0, "no post was refused");
    assert_eq!(s.fbs.stats().overload_drops(), 0);
    Some(Pin::new(cfg).sys(&s.fbs))
}

fn uncached_loopback(cfg: Config) -> Option<Pin> {
    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, false));
    cfg.apply(&mut s.fbs);
    for _ in 0..4 {
        s.send_message(16 << 10, false).unwrap();
    }
    Some(Pin::new(cfg).sys(&s.fbs))
}

fn osiris_fig5(cfg: Config) -> Option<Pin> {
    // Two machines: every datagram mints a TX span and links an RX child.
    let mut mc = machine();
    mc.phys_mem = 16 << 20;
    let mut e = EndToEnd::new(mc, EndToEndConfig::fig5(DomainSetup::User));
    cfg.apply(&mut e.tx.fbs);
    cfg.apply(&mut e.rx.fbs);
    for _ in 0..3 {
        e.send_message(50_000, 1, true).unwrap();
    }
    Some(Pin::new(cfg).sys(&e.tx.fbs).sys(&e.rx.fbs))
}

fn proxy_graph_chain(cfg: Config) -> Option<Pin> {
    // The x-kernel proxy path: multi-fbuf messages forwarded down a
    // three-domain protocol chain, secured at the boundary, then freed.
    let mut fbs = FbufSystem::new(machine());
    cfg.apply(&mut fbs);
    let producer = fbs.create_domain();
    let middle = fbs.create_domain();
    let consumer = fbs.create_domain();
    let path = fbs.create_path(vec![producer, middle, consumer]).unwrap();
    let mut refs = MsgRefs::new();
    for round in 0..4u8 {
        let a = fbs.alloc(producer, AllocMode::Cached(path), 4096).unwrap();
        let b = fbs.alloc(producer, AllocMode::Uncached, 8192).unwrap();
        fbs.write_fbuf(producer, a, 0, &[round; 16]).unwrap();
        fbs.write_fbuf(producer, b, 0, &[round; 16]).unwrap();
        let msg = Msg::from_fbuf(a, 0, 4096).concat(&Msg::from_fbuf(b, 0, 8192));
        refs.adopt(producer, &msg);
        deliver(&mut fbs, &mut refs, &msg, producer, middle, SendMode::Volatile).unwrap();
        deliver(&mut fbs, &mut refs, &msg, middle, consumer, SendMode::Secure).unwrap();
        refs.release(&mut fbs, consumer, &msg).unwrap();
        refs.release(&mut fbs, middle, &msg).unwrap();
        refs.release(&mut fbs, producer, &msg).unwrap();
    }
    Some(Pin::new(cfg).sys(&fbs))
}

fn integrated_aggregates(cfg: Config) -> Option<Pin> {
    // One RPC carries only a root pointer; the kernel walks the DAG and
    // transfers every reachable fbuf.
    let mut fbs = FbufSystem::new(machine());
    cfg.apply(&mut fbs);
    integrated::install_null_template(&mut fbs);
    let a = fbs.create_domain();
    let b = fbs.create_domain();
    for _ in 0..3 {
        let data = fbs.alloc(a, AllocMode::Uncached, 8192).unwrap();
        fbs.write_fbuf(a, data, 0, b"hello ").unwrap();
        fbs.write_fbuf(a, data, 4096, b"world").unwrap();
        let va = fbs.fbuf(data).unwrap().va;
        let mut builder = DagBuilder::new(&mut fbs, a, AllocMode::Uncached, 8).unwrap();
        let l1 = builder.leaf(&mut fbs, va, 6).unwrap();
        let l2 = builder.leaf(&mut fbs, va + 4096, 5).unwrap();
        let root = builder.concat(&mut fbs, l1, l2).unwrap();
        let msg = integrated::IntegratedMsg { root };
        deliver_integrated(&mut fbs, msg, a, b, SendMode::Volatile, TraverseLimits::default())
            .unwrap();
        let got = integrated::gather(&mut fbs, b, msg, TraverseLimits::default()).unwrap();
        assert_eq!(got, b"hello world");
    }
    Some(Pin::new(cfg).sys(&fbs))
}

fn engine_submit_loop(cfg: Config) -> Option<Pin> {
    // Whole transfers through `submit_transfer` (deadline-stamped when
    // containment is armed: the stamp itself must be free).
    let mut fbs = FbufSystem::new(machine());
    cfg.apply(&mut fbs);
    let a = fbs.create_domain();
    let route = vec![KERNEL_DOMAIN, a];
    let path = fbs.create_path(route.clone()).unwrap();
    for _ in 0..8 {
        let b = fbs.alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4096).unwrap();
        assert!(!fbs.submit_transfer(b, &route).is_overload());
        fbs.pump();
    }
    assert_eq!(fbs.transfers_completed(), 8);
    Some(Pin::new(cfg).sys(&fbs))
}

fn static_policy_storm(cfg: Config) -> Option<Pin> {
    // Chunk-sized buffers, all held live: every allocation needs a fresh
    // chunk, so the per-path quota is the exact admission boundary.
    let mut fbs = FbufSystem::new(MachineConfig::tiny());
    cfg.apply(&mut fbs);
    let a = fbs.create_domain();
    let b = fbs.create_domain();
    let path = fbs.create_path(vec![a, b]).unwrap();
    let quota = fbs.machine().config().max_chunks_per_path;
    let chunk = fbs.machine().config().chunk_size;
    for _ in 0..quota {
        fbs.alloc(a, AllocMode::Cached(path), chunk).unwrap();
    }
    let denied = fbs.alloc(a, AllocMode::Cached(path), chunk);
    assert_eq!(denied, Err(FbufError::QuotaExceeded { path: Some(path) }));
    let pin = Pin::new(cfg).sys(&fbs);
    assert_eq!(
        fbs.stats().snapshot().chunk_quota_denials,
        1,
        "exactly the one organic denial"
    );
    Some(pin)
}

/// One single-shard (self-linked, fully deterministic) fleet shape:
/// `(cycles, cross_every, paths, pages, channel_capacity)`.
type Shape = (u64, u64, usize, u64, usize);

fn fleet_config(shards: usize, (cycles, cross_every, paths, pages, channel_capacity): Shape) -> FleetConfig {
    let mut mc = machine();
    mc.phys_mem = 32 << 20;
    FleetConfig {
        paths,
        pages,
        cross_every,
        channel_capacity,
        ..FleetConfig::new(shards, mc, cycles)
    }
}

/// Pins one shard's measured window and whole life. The notice plane
/// carries one token per materialized payload and orphans none.
fn pin_shard(pin: Pin, r: &ShardReport) -> Pin {
    assert_eq!(r.orphan_notices, 0, "a fault-free fleet has no orphans");
    assert_eq!(r.notice_tokens, r.received, "one notice token per payload");
    assert!(r.notice_batches * NOTICE_BATCH_MAX as u64 >= r.notice_tokens);
    pin.clock(r.sim_elapsed)
        .snap(&r.delta)
        .snap(&r.life)
        .value("fbuf_ops", r.fbuf_ops)
        .value("sent", r.sent)
        .value("received", r.received)
        .value("notice_tokens", r.notice_tokens)
}

fn fleet(cfg: Config, shape: Shape) -> Option<Pin> {
    let reports = run_fleet(&cfg.fleet(fleet_config(1, shape))?);
    Some(pin_shard(Pin::new(cfg), &reports[0]))
}

const NO_CROSS: Shape = (400, 0, 2, 1, 8);
const GOLDEN_NO_CROSS: u64 = 0x69ae_ccf2_1a88_c929;
const GOLDEN_CACHED_LOOPBACK: u64 = 0xfa9c_d181_abd0_1b7c;
const GOLDEN_OSIRIS_FIG5: u64 = 0xae33_6fc6_ca54_7b00;

/// One `#[test]` per matrix row: `name => (workload, golden)`.
macro_rules! golden_rows {
    ($($name:ident => ($workload:expr, $golden:expr)),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check_row($workload, $golden);
            }
        )*
    };
}

golden_rows! {
    matrix_cached_loopback => (cached_loopback, GOLDEN_CACHED_LOOPBACK),
    matrix_uncached_loopback => (uncached_loopback, 0x80d6_d153_31c4_32f9),
    matrix_osiris_fig5_end_to_end => (osiris_fig5, GOLDEN_OSIRIS_FIG5),
    matrix_proxy_graph_chain => (proxy_graph_chain, 0x4b48_c8ef_3259_cf73),
    matrix_integrated_aggregates => (integrated_aggregates, 0x0a93_078f_677c_b969),
    matrix_engine_submit_loop => (engine_submit_loop, 0xd347_cae4_28d1_a47a),
    matrix_static_policy_storm => (static_policy_storm, 0xb2bd_4d8f_3677_e739),
    matrix_fleet_no_cross => (|c| fleet(c, NO_CROSS), GOLDEN_NO_CROSS),
    matrix_fleet_dense_cross => (|c| fleet(c, (400, 2, 2, 1, 8)), 0x1657_f85a_1c28_e868),
    matrix_fleet_multi_path => (|c| fleet(c, (400, 4, 6, 1, 8)), 0x208b_c676_0ea1_66ed),
    matrix_fleet_multi_page => (|c| fleet(c, (300, 4, 2, 4, 8)), 0xd478_70dd_4556_330c),
    // Ring capacity is host-plane only: the tight ring pins the dense
    // shape's golden.
    matrix_fleet_tight_ring => (|c| fleet(c, (400, 2, 2, 1, 2)), 0x1657_f85a_1c28_e868),
}

// Single cells of the two rows above, under the names of the pins they
// replaced: the event loop (the only engine) against the golden both hop
// modes produced, and observation switched on against the same golden.

#[test]
fn event_loop_is_counter_exact_on_cached_loopback() {
    check_cells(cached_loopback, &[Config::Default], GOLDEN_CACHED_LOOPBACK);
}

#[test]
fn event_loop_is_counter_exact_on_osiris_end_to_end() {
    check_cells(osiris_fig5, &[Config::Default], GOLDEN_OSIRIS_FIG5);
}

#[test]
fn tracing_is_zero_cost_in_simulated_time() {
    check_cells(cached_loopback, &[Config::Traced], GOLDEN_CACHED_LOOPBACK);
}

#[test]
fn observability_is_zero_cost_on_loopback() {
    check_cells(cached_loopback, &[Config::TracedMetered], GOLDEN_CACHED_LOOPBACK);
}

#[test]
fn observability_is_zero_cost_on_osiris_end_to_end() {
    check_cells(osiris_fig5, &[Config::TracedMetered], GOLDEN_OSIRIS_FIG5);
}

#[test]
fn shard_count_is_invisible_to_shard_local_work() {
    // Without cross-shard traffic every shard is an independent engine:
    // each shard of a two-shard fleet does exactly the work of the
    // one-shard `NO_CROSS` row, so it must reproduce that row's golden.
    let (cycles, cross_every, paths, pages, capacity) = NO_CROSS;
    let two = fleet_config(2, (2 * cycles, cross_every, 2 * paths, pages, capacity));
    let reports = run_fleet(&two);
    assert_eq!(reports.len(), 2);
    for r in &reports {
        assert_eq!((r.paths, r.cycles), (paths, cycles), "shard {} got a different share", r.shard);
        let pin = pin_shard(Pin::new(Config::Default), r);
        assert_eq!(
            fnv1a(pin.text.as_bytes()),
            GOLDEN_NO_CROSS,
            "shard {} of two differs from the one-shard run:\n{}",
            r.shard,
            pin.text
        );
    }
}

#[test]
fn overload_is_explicit_counted_and_audited() {
    // A full bounded inbox yields the explicit Overload outcome — never
    // silent growth, never recursion. The drop is counted in the stats
    // and traced, and the trace still audits clean (rule 5: an Overload
    // leaves inbox balance untouched).
    let mut fbs = FbufSystem::new(machine());
    let tracer = fbs.machine().tracer().clone();
    tracer.set_enabled(true);
    fbs.set_inbox_depth(1);
    let a = fbs.create_domain();
    let route = vec![KERNEL_DOMAIN, a];
    let path = fbs.create_path(route.clone()).unwrap();

    let b1 = fbs
        .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
        .unwrap();
    let b2 = fbs
        .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
        .unwrap();
    assert!(!fbs.submit_transfer(b1, &route).is_overload());
    assert!(
        fbs.submit_transfer(b2, &route).is_overload(),
        "depth-1 inbox refuses the second transfer"
    );
    assert_eq!(fbs.stats().overload_drops(), 1);
    assert_eq!(fbs.engine_overloads(), 1);
    assert_eq!(tracer.count_of(EventKind::Overload), 1);

    fbs.pump();
    assert_eq!(fbs.transfers_completed(), 1);
    // The refused transfer never started: its buffer is still ours.
    fbs.free(b2, KERNEL_DOMAIN).unwrap();
    audit_tracer(&tracer).assert_clean();
}

#[test]
fn a_mid_route_overload_is_counted_once_in_the_machine_stats() {
    // The second leg of a started transfer finds its inbox full: the
    // engine aborts the transfer, the loop counts the refusal, and the
    // machine's `overload_drops` counts it exactly once.
    let mut fbs = FbufSystem::new(machine());
    let tracer = fbs.machine().tracer().clone();
    tracer.set_enabled(true);
    fbs.set_inbox_depth(1);
    let (a, b, c) = (fbs.create_domain(), fbs.create_domain(), fbs.create_domain());
    let long = vec![KERNEL_DOMAIN, a, b];
    let short = vec![c, b];
    let p_long = fbs.create_path(long.clone()).unwrap();
    let p_short = fbs.create_path(short.clone()).unwrap();
    let x = fbs.alloc(KERNEL_DOMAIN, AllocMode::Cached(p_long), 4096).unwrap();
    let y = fbs.alloc(c, AllocMode::Cached(p_short), 4096).unwrap();
    // `x`'s first leg is dequeued first; its handler posts the second
    // leg to `b`, whose one slot `y`'s leg still holds.
    assert!(!fbs.submit_transfer(x, &long).is_overload());
    assert!(!fbs.submit_transfer(y, &short).is_overload());
    assert_eq!(fbs.engine_overloads(), 0);
    fbs.pump();
    assert_eq!(fbs.engine_overloads(), 1, "the second leg was refused");
    assert_eq!(fbs.stats().overload_drops(), fbs.engine_overloads());
    assert_eq!(tracer.count_of(EventKind::Overload), 1);
    assert_eq!(fbs.transfers_aborted(), 1);
    assert_eq!(fbs.transfers_completed(), 1);
    audit_tracer(&tracer).assert_clean();
}

#[test]
fn injected_domain_crash_never_bills_the_ledger_or_trips_the_jail() {
    // A fault-injected domain teardown reclaims the victim's buffers
    // through the crash path. That reclamation is bookkeeping, not
    // traffic: the tenant ledger's transfer bytes must not move, the
    // armed jail must not count the teardown against any tenant, and
    // the hoard charge of the victim must return to zero.
    let mut fbs = FbufSystem::new(machine());
    fbs.set_jail(Some(JailConfig::default()));
    let a = fbs.create_domain();
    let b = fbs.create_domain();
    let path = fbs.create_path(vec![a, b]).unwrap();
    for _ in 0..4 {
        let buf = fbs.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        fbs.send(buf, a, b, SendMode::Volatile).unwrap();
        fbs.free(buf, b).unwrap();
        fbs.free(buf, a).unwrap();
    }
    // Leave two buffers live in the victim's hands, then crash it.
    let held1 = fbs.alloc(a, AllocMode::Cached(path), 4096).unwrap();
    let held2 = fbs.alloc(a, AllocMode::Uncached, 4096).unwrap();
    fbs.send(held1, a, b, SendMode::Volatile).unwrap();
    let before = fbs.ledger_snapshot();
    fbs.terminate_domain(b).unwrap();
    let after = fbs.ledger_snapshot();
    assert_eq!(
        before.totals().bytes,
        after.totals().bytes,
        "teardown reclamation billed transfer bytes"
    );
    let snap = fbs.stats().snapshot();
    assert_eq!(snap.jail_denials, 0, "teardown tripped the jail");
    assert_eq!(fbs.charged_bytes(b), 0, "the dead tenant still carries hoard charge");
    assert!(after.conserves(&snap).is_empty(), "ledger must conserve");
    // The survivor keeps working — and its jail history is untouched
    // (the path died with its peer, so the survivor falls back to the
    // default allocator).
    fbs.free(held2, a).unwrap();
    fbs.free(held1, a).unwrap();
    fbs.alloc(a, AllocMode::Uncached, 4096).unwrap();
    assert_eq!(fbs.stats().snapshot().jail_denials, 0);
}

#[test]
fn injected_ring_full_faults_keep_the_fleet_ledger_conserving() {
    // FaultSite::RingFull on the cross-shard data plane: pushes refused
    // by the injected backpressure must surface as survivable aborts,
    // never as phantom ledger billing. (That merely *arming* a zero-rate
    // plan moves nothing is a golden-matrix configuration.)
    use fbufs::fbuf::fleet_ledger;
    use fbufs::sim::FaultSite;

    let faulted = run_fleet(&FleetConfig {
        fault: Some(FaultSpec::new(11).rate(FaultSite::RingFull, 20_000)),
        ..fleet_config(1, (300, 2, 2, 1, 4))
    });
    let injected: u64 = faulted.iter().map(|r| r.faults_injected).sum();
    assert!(injected > 0, "the plan never fired");
    // Conservation is a whole-life invariant (the ledger is cumulative;
    // the windowed delta excludes warm-up — see tests/observability.rs).
    let life = StatsSnapshot::merge_all(faulted.iter().map(|r| &r.life));
    assert_eq!(life.jail_denials, 0, "backpressure faults are not tenant hoarding");
    assert_eq!(life.tokens_rejected, 0, "backpressure faults are not forgeries");
    let violations = fleet_ledger(&faulted).conserves(&life);
    assert!(
        violations.is_empty(),
        "injected ring-full unbalanced the ledger: {violations:?}"
    );
}

#[test]
fn injected_quota_denials_never_count_as_organic() {
    // The `chunk_quota_denials` counter tallies *policy* refusals only.
    // A fault-plan `QuotaExhausted` injection produces the same error at
    // the same site but is the plan's statistic, not the counter's —
    // the split the oracle pins from its side in
    // `fbuf-model::oracle` (injected_quota_and_chunk_grant_decisions).
    use fbufs::sim::FaultSite;

    let mut fbs = FbufSystem::new(MachineConfig::tiny());
    fbs.set_quota_policy(QuotaPolicy::Static);
    let a = fbs.create_domain();
    let b = fbs.create_domain();
    let path = fbs.create_path(vec![a, b]).unwrap();
    let chunk = fbs.machine().config().chunk_size;

    // Rate 65535/65536 with a fixed seed: the first consult fires
    // (deterministic — the plan's stream is a pure function of the
    // seed; the assertion below would catch a seed that rolls a miss).
    let plan = Rc::new(FaultSpec::new(7).rate(FaultSite::QuotaExhausted, u16::MAX).arm());
    fbs.arm_faults(Rc::clone(&plan));
    let denied = fbs.alloc(a, AllocMode::Cached(path), chunk);
    assert_eq!(denied, Err(FbufError::QuotaExceeded { path: Some(path) }));
    assert_eq!(plan.injected(FaultSite::QuotaExhausted), 1, "the plan fired");
    assert_eq!(
        fbs.stats().snapshot().chunk_quota_denials,
        0,
        "an injected denial is the fault plan's tally, not the organic counter's"
    );

    // Disarmed, the same system fills to quota and overflows: only now
    // does the organic counter move.
    fbs.disarm_faults();
    let quota = fbs.machine().config().max_chunks_per_path;
    for _ in 0..quota {
        fbs.alloc(a, AllocMode::Cached(path), chunk).unwrap();
    }
    let denied = fbs.alloc(a, AllocMode::Cached(path), chunk);
    assert_eq!(denied, Err(FbufError::QuotaExceeded { path: Some(path) }));
    assert_eq!(fbs.stats().snapshot().chunk_quota_denials, 1);
}
