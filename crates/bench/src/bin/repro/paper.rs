//! The paper experiments. Each one prints its paper-style table and
//! writes its `BENCH_<name>.json` report in one function, so the text and
//! the report come from the same run at the same parameters.

use fbuf::{AllocMode, FbufId, FbufSystem, SendMode};
use fbuf_bench::report::{BenchRunner, Unit};
use fbuf_bench::rows::{print_cost_rows, print_curves};
use fbuf_bench::{ablations, cpuload, fig3, fig4, fig5, observe, remap, table1, workload};
use fbuf_net::{ip, DomainSetup, EndToEndConfig, LoopbackConfig, LoopbackStack};
use fbuf_sim::{Json, MachineConfig, ToJson};
use fbuf_vm::facility::RemapFacility;
use fbuf_xkernel::integrated::{self, DagBuilder, TraverseLimits};
use fbuf_xkernel::{Extent, Msg};

/// An experiment: prints its table, writes its report (if it has one).
type Experiment = fn() -> Result<(), String>;

/// Every paper experiment by subcommand, in `repro all` order.
pub const EXPERIMENTS: [(&str, Experiment); 9] = [
    ("table1", table1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("remap", remap),
    ("trace", trace),
    ("ablate", ablate),
    ("aggregate", aggregate),
];

/// Rounds per point of the Figure 3, 5 and 6 curves and per sample of
/// the end-to-end scenarios.
const ROUNDS: usize = 3;

/// Active-VCI counts and messages per count of the driver path-cache
/// ablation: below, at and above the 16-entry cache.
const PATH_CACHE_VCIS: [u32; 3] = [8, 16, 24];
const PATH_CACHE_MSGS: usize = 48;

fn table1() -> Result<(), String> {
    let rows = table1::run();
    print_cost_rows(
        "Table 1: incremental per-page costs and asymptotic throughput",
        &rows,
    );
    let mut r = BenchRunner::new("table1");
    r.param("observe_size", 64u64 << 10);
    r.param("observe_iters", 4u64);
    r.artifact("table1_rows", rows.to_json());
    for (label, cached, send) in [
        ("cached_volatile_slope", true, SendMode::Volatile),
        ("uncached_volatile_slope", false, SendMode::Volatile),
        ("cached_secured_slope", true, SendMode::Secure),
        ("uncached_secured_slope", false, SendMode::Secure),
    ] {
        r.measure(label, Unit::SimUs, || table1::fbuf_slope(cached, send));
    }
    let obs = observe::crossing(true, SendMode::Volatile, 64 << 10, 4);
    observe::attach(&mut r, "cached_volatile_64k", &obs);
    r.finish().map(drop)
}

fn fig3() -> Result<(), String> {
    let curves = fig3::run(&fig3::default_sizes(), ROUNDS);
    print_curves(
        "Figure 3: throughput of a single domain boundary crossing",
        &curves,
    );
    let mut r = BenchRunner::new("fig3_single_crossing");
    r.param("size", 64u64 << 10);
    r.param("rounds", ROUNDS);
    r.param("observe_iters", 4u64);
    r.artifact("fig3_curves", curves.to_json());
    r.measure("fbuf_cached_volatile_64k", Unit::Mbps, || {
        fig3::fbuf_throughput(true, SendMode::Volatile, 64 << 10, ROUNDS)
    });
    r.measure("fbuf_uncached_volatile_64k", Unit::Mbps, || {
        fig3::fbuf_throughput(false, SendMode::Volatile, 64 << 10, ROUNDS)
    });
    r.measure("mach_native_64k", Unit::Mbps, || {
        fig3::mach_throughput(64 << 10, ROUNDS)
    });
    for (label, cached) in [("cached", true), ("uncached", false)] {
        let obs = observe::crossing(cached, SendMode::Volatile, 64 << 10, 4);
        observe::attach(&mut r, &format!("{label}_volatile_64k"), &obs);
    }
    r.finish().map(drop)
}

fn fig4() -> Result<(), String> {
    let curves = fig4::run(&fig4::default_sizes(), ROUNDS);
    print_curves(
        "Figure 4: throughput of a UDP/IP local loopback test",
        &curves,
    );
    let mut r = BenchRunner::new("fig4_loopback");
    r.param("size", 64u64 << 10);
    r.param("rounds", ROUNDS);
    r.param("observe_msgs", 8u64);
    r.artifact("fig4_curves", curves.to_json());
    for (label, three, cached) in [
        ("single_domain_64k", false, true),
        ("three_domains_cached_64k", true, true),
        ("three_domains_uncached_64k", true, false),
    ] {
        r.measure(label, Unit::Mbps, || {
            let mut cfg = MachineConfig::decstation_5000_200();
            cfg.phys_mem = 24 << 20;
            let mut s = LoopbackStack::new(cfg, LoopbackConfig::paper(three, cached));
            s.throughput(64 << 10, ROUNDS).expect("loopback")
        });
    }
    let obs = observe::loopback(LoopbackConfig::paper(true, true), 64 << 10, 8);
    observe::attach(&mut r, "three_domains_cached_64k", &obs);
    r.finish().map(drop)
}

fn fig5() -> Result<(), String> {
    let curves = fig5::run(true, &fig5::default_sizes(), ROUNDS);
    print_curves(
        "Figure 5: UDP/IP end-to-end throughput, cached/volatile fbufs",
        &curves,
    );
    let mut r = BenchRunner::new("fig5_endtoend_cached");
    r.param("size", 1u64 << 20);
    r.param("rounds", ROUNDS);
    r.param("observe_size", 256u64 << 10);
    r.param("observe_msgs", 4u64);
    r.artifact("fig5_curves", curves.to_json());
    for (label, setup) in [
        ("kernel_kernel_1m", DomainSetup::KernelOnly),
        ("user_user_1m", DomainSetup::User),
        ("user_netserver_user_1m", DomainSetup::UserNetserver),
    ] {
        r.measure(label, Unit::Mbps, || {
            fig5::throughput(EndToEndConfig::fig5(setup), 1 << 20, ROUNDS)
        });
    }
    let obs = observe::endtoend(
        EndToEndConfig::fig5(DomainSetup::UserNetserver),
        256 << 10,
        4,
    );
    observe::attach(&mut r, "user_netserver_user_256k", &obs);
    r.finish().map(drop)
}

/// Figure 6 and the §4 receive-host CPU load, which shares its report.
fn fig6() -> Result<(), String> {
    let curves = fig5::run(false, &fig5::default_sizes(), ROUNDS);
    print_curves(
        "Figure 6: UDP/IP end-to-end throughput, uncached/non-volatile fbufs",
        &curves,
    );
    let cpu_rows = cpuload::run();
    println!("\n== §4: receive-host CPU load, 1 MB messages (user-user) ==");
    println!(
        "{:<10} {:>8} {:>10} {:>14}",
        "regime", "PDU", "CPU load", "throughput"
    );
    for row in &cpu_rows {
        println!(
            "{:<10} {:>6}KB {:>9.0}% {:>9.0} Mb/s",
            row.regime,
            row.pdu >> 10,
            row.rx_cpu * 100.0,
            row.throughput_mbps
        );
    }
    let mut r = BenchRunner::new("fig6_endtoend_uncached");
    r.param("size", 1u64 << 20);
    r.param("rounds", ROUNDS);
    r.param("observe_size", 256u64 << 10);
    r.param("observe_msgs", 4u64);
    r.artifact("fig6_curves", curves.to_json());
    r.artifact("cpuload_rows", cpu_rows.to_json());
    r.measure("user_user_uncached_1m", Unit::Mbps, || {
        fig5::throughput(EndToEndConfig::fig6(DomainSetup::User), 1 << 20, ROUNDS)
    });
    for regime in ["cached", "uncached"] {
        r.measure(&format!("rx_cpu_{regime}_16k_pdu"), Unit::Fraction, || {
            cpuload::run()
                .iter()
                .find(|row| row.regime == regime && row.pdu == 16 << 10)
                .expect("cell present")
                .rx_cpu
        });
    }
    let obs = observe::endtoend(EndToEndConfig::fig6(DomainSetup::User), 256 << 10, 4);
    observe::attach(&mut r, "user_user_uncached_256k", &obs);
    r.finish().map(drop)
}

fn remap() -> Result<(), String> {
    let rows = remap::run();
    println!("\n== §2.2.1: DASH-style page remapping, re-measured ==");
    println!("{:<12} {:>10} {:>14}", "mode", "cleared", "per-page cost");
    for row in &rows {
        println!(
            "{:<12} {:>9.0}% {:>11.2} us",
            row.mode,
            row.clear_fraction * 100.0,
            row.per_page_us
        );
    }
    let mut r = BenchRunner::new("remap");
    r.param("pages", 8u64);
    r.param("rounds", 8u64);
    r.artifact("remap_rows", rows.to_json());
    r.measure("pingpong", Unit::SimUs, || remap::pingpong(8, 8));
    for (label, clear) in [
        ("streaming_no_clear", 0.0),
        ("streaming_half_clear", 0.5),
        ("streaming_full_clear", 1.0),
    ] {
        r.measure(label, Unit::SimUs, || remap::streaming(clear, 8, 8));
    }
    let obs = observe::facility(&mut RemapFacility::new(1.0), 8, 8);
    observe::attach(&mut r, "remap_full_clear", &obs);
    r.finish().map(drop)
}

/// The trace-driven mixed workload (text only: no paper figure).
fn trace() -> Result<(), String> {
    println!("\n== Trace replay: 120 mixed messages, 4 flows (user-user) ==");
    let trace = workload::Trace::generate(2026, 120, 4);
    println!(
        "trace: {} messages, {:.1} MB total (seed {})",
        trace.entries.len(),
        trace.bytes() as f64 / (1 << 20) as f64,
        trace.seed
    );
    for r in workload::replay(&trace) {
        println!(
            "{:<10} {:>7.0} Mb/s, rx CPU {:>3.0}%",
            r.regime,
            r.throughput_mbps,
            r.rx_cpu * 100.0
        );
    }
    Ok(())
}

/// The design-choice ablations of §3.2, §3.3 and §5.2.
fn ablate() -> Result<(), String> {
    let stack = ablations::optimization_stack();
    print_cost_rows(
        "Ablation: the §3.2 optimization stack, cumulatively",
        &stack,
    );

    let lifo = ablations::lifo_vs_fifo(12);
    println!("\n== Ablation: LIFO vs FIFO free-list order under memory pressure ==");
    println!(
        "{:<8} {:>14} {:>20}",
        "policy", "resident hits", "rematerializations"
    );
    for row in &lifo {
        println!(
            "{:<8} {:>14} {:>20}",
            row.policy, row.resident_hits, row.rematerializations
        );
    }

    let paths = ablations::path_cache(&PATH_CACHE_VCIS, PATH_CACHE_MSGS);
    println!("\n== Ablation: driver path cache (16-entry VCI LRU) ==");
    println!(
        "{:<12} {:>16} {:>14}",
        "active VCIs", "cached fraction", "throughput"
    );
    for row in &paths {
        println!(
            "{:<12} {:>15.0}% {:>9.0} Mb/s",
            row.active_vcis,
            row.cached_fraction * 100.0,
            row.throughput_mbps
        );
    }

    println!("\n== Ablation: deallocation-notice threshold (1000 frees, RPC every 16) ==");
    println!(
        "{:<10} {:>12} {:>10}",
        "threshold", "piggybacked", "explicit"
    );
    for row in ablations::notice_thresholds(&[4, 16, 64, 256, 1024], 1000, 16) {
        println!(
            "{:<10} {:>12} {:>10}",
            row.threshold, row.piggybacked, row.explicit
        );
    }

    let bus = ablations::bus_contention();
    println!("\n== Ablation: TurboChannel bus contention ==");
    for (label, mbps) in &bus {
        println!("{label:<38} {mbps:>8.0} Mb/s");
    }

    let mut r = BenchRunner::new("optstack");
    r.param("observe_size", 64u64 << 10);
    r.param("observe_iters", 4u64);
    r.param("lifo_rounds", 12u64);
    r.param("path_cache_vcis", PATH_CACHE_VCIS[..].to_json());
    r.param("path_cache_msgs", PATH_CACHE_MSGS);
    r.artifact("optimization_stack", stack.to_json());
    r.artifact("lifo_vs_fifo", lifo.to_json());
    r.artifact("path_cache", paths.to_json());
    r.artifact(
        "bus_contention",
        Json::Arr(
            bus.iter()
                .map(|(label, mbps)| {
                    Json::obj(vec![
                        ("label", label.to_json()),
                        ("throughput_mbps", mbps.to_json()),
                    ])
                })
                .collect(),
        ),
    );
    r.measure("base_remap_full_clearing", Unit::SimUs, || {
        ablations::optimization_stack()[0].per_page_us
    });
    r.measure("full_design_cached_volatile", Unit::SimUs, || {
        ablations::optimization_stack()
            .last()
            .expect("rows")
            .per_page_us
    });
    r.measure("bus_contended_throughput", Unit::Mbps, || {
        ablations::bus_contention()[0].1
    });
    r.measure("bus_uncontended_ceiling", Unit::Mbps, || {
        ablations::bus_contention()[1].1
    });
    for (label, send) in [
        ("volatile", SendMode::Volatile),
        ("secured", SendMode::Secure),
    ] {
        let obs = observe::crossing(true, send, 64 << 10, 4);
        observe::attach(&mut r, &format!("cached_{label}_64k"), &obs);
    }
    r.finish().map(drop)
}

/// 64 extents over 16 fbufs, 1 MB total.
fn big_msg() -> Msg {
    Msg::from_extents(
        (0..64u64)
            .map(|i| Extent {
                fbuf: FbufId(i % 16),
                off: (i / 16) * 16_384,
                len: 16_384,
            })
            .collect(),
    )
}

/// Builds a 127-node integrated DAG on a DECstation-cost machine and
/// returns (system, domain, root): simulated time then accrues on the
/// system clock as the DAG is traversed.
fn build_dag() -> (FbufSystem, fbuf_vm::DomainId, u64) {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 8 << 20;
    let mut fbs = FbufSystem::new(cfg);
    integrated::install_null_template(&mut fbs);
    let dom = fbs.create_domain();
    let data = fbs
        .alloc(dom, AllocMode::Uncached, 16 << 10)
        .expect("alloc");
    let data_va = fbs.fbuf(data).expect("fbuf").va;
    let mut builder = DagBuilder::new(&mut fbs, dom, AllocMode::Uncached, 128).expect("builder");
    let mut node = builder.leaf(&mut fbs, data_va, 1024).expect("leaf");
    for i in 0..63u64 {
        let l = builder
            .leaf(&mut fbs, data_va + (i % 16) * 1024, 1024)
            .expect("leaf");
        node = builder.concat(&mut fbs, node, l).expect("concat");
    }
    (fbs, dom, node)
}

/// The aggregate-object machinery (no paper figure). Message editing and
/// IP fragmentation are pure metadata operations that charge no simulated
/// time, so they are reported as structural artifacts (extent/fragment
/// counts); the integrated-DAG build and traverse go through the VM and
/// are measured in simulated µs.
fn aggregate() -> Result<(), String> {
    let msg = big_msg();
    let (head, tail) = msg.split(512 << 10);
    let joined = msg.concat(&big_msg());
    let frags = ip::fragment(&msg, 1, 4096);
    let mut reasm = ip::Reassembler::new(0);
    let mut done = None;
    let mut dropped = Vec::new();
    for (h, m) in frags.clone() {
        if let Some(d) = reasm.add(h, m, &mut dropped) {
            done = Some(d);
        }
    }
    let done = done.ok_or("fragments did not reassemble")?;

    println!("\n== Aggregate-object machinery: structural checks ==");
    println!(
        "split 1MB at 512KB: {} + {} extents; concat: {} extents",
        head.extents().len(),
        tail.extents().len(),
        joined.extents().len()
    );
    println!(
        "fragment 1MB into 4KB PDUs: {} fragments, reassembled to {} bytes",
        frags.len(),
        done.len()
    );

    let mut r = BenchRunner::new("aggregate_ops");
    r.param("msg_extents", 64u64);
    r.param("msg_fbufs", 16u64);
    r.param("dag_nodes", 127u64);
    r.artifact(
        "editing",
        Json::obj(vec![
            ("msg_extents", msg.extents().len().to_json()),
            ("split_head_extents", head.extents().len().to_json()),
            ("split_tail_extents", tail.extents().len().to_json()),
            ("concat_extents", joined.extents().len().to_json()),
            ("fragments_4k", frags.len().to_json()),
            ("reassembled_len", done.len().to_json()),
        ]),
    );
    r.measure("dag_build_127_nodes", Unit::SimUs, || {
        let (fbs, _, _) = build_dag();
        fbs.machine().clock().now().as_us_f64()
    });
    r.measure("dag_traverse_127_nodes", Unit::SimUs, || {
        let (mut fbs, dom, node) = build_dag();
        let t0 = fbs.machine().clock().now();
        integrated::traverse(&mut fbs, dom, node, TraverseLimits::default()).expect("traverse");
        (fbs.machine().clock().now() - t0).as_us_f64()
    });
    // Observability blocks: counters over a traced traverse (DagVisit
    // heavy) and the alloc service latency of one more node allocation.
    let (mut fbs, dom, node) = build_dag();
    fbs.machine().tracer().set_enabled(true);
    let mark = fbs.stats().snapshot();
    integrated::traverse(&mut fbs, dom, node, TraverseLimits::default()).expect("traverse");
    r.counters(&fbs.stats().snapshot().delta(&mark));
    let extra = fbs.alloc(dom, AllocMode::Uncached, 4096).expect("alloc");
    fbs.free(extra, dom).expect("free");
    let alloc = fbs.machine().tracer().merged_alloc_latency();
    r.latency("alloc_uncached_4k", &alloc);
    r.finish().map(drop)
}
