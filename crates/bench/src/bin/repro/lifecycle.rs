//! `repro lifecycle`: runs the canonical cached three-domain loopback
//! workload with the structured tracer enabled, prints a per-path
//! breakdown, audits the event stream against the fbuf lifecycle
//! invariants, and writes `TRACE_<name>.json` in Chrome `trace_event`
//! format (load it in `about://tracing` or Perfetto).
//!
//! Environment knobs:
//!
//! * `FBUF_TRACE_MSGS` — messages after warm-up (default 16);
//! * `FBUF_TRACE_SIZE` — message size in bytes (default 16384);
//! * `FBUF_BENCH_DIR`  — output directory (default `target/bench-reports`).
//!
//! Fails if the audit finds a violation, or if the trace breaks the report
//! contract (`fbuf_bench::report::check`: it must round-trip through
//! the in-repo parser, carry the `Alloc`, `Transfer`, `CacheHit` and
//! `Free` event kinds and the `dropped_events` counter).

use fbuf_bench::knobs::env_u64;
use fbuf_bench::report;
use fbuf_net::{LoopbackConfig, LoopbackStack};
use fbuf_sim::{audit_tracer, EventKind, MachineConfig};

/// Runs the traced loopback, audits it and writes `TRACE_loopback.json`.
pub fn run() -> Result<(), String> {
    let msgs = env_u64("FBUF_TRACE_MSGS", 16);
    let size = env_u64("FBUF_TRACE_SIZE", 16 << 10);

    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    let mut stack = LoopbackStack::new(cfg, LoopbackConfig::paper(true, true));
    stack.fbs.machine().tracer().set_enabled(true);

    // Warm the per-path cache, then the measured section.
    for _ in 0..2 {
        stack.send_message(size, false).expect("warm-up message");
    }
    let mark = stack.fbs.stats().snapshot();
    let t0 = stack.fbs.machine().clock().now();
    for _ in 0..msgs {
        stack.send_message(size, false).expect("traced message");
    }
    let elapsed = stack.fbs.machine().clock().now() - t0;
    let delta = stack.fbs.stats().snapshot().delta(&mark);
    let tracer = stack.fbs.machine().tracer();

    println!(
        "== repro lifecycle: {} x {} B cached loopback, {} events ({} dropped) ==",
        msgs,
        size,
        tracer.len(),
        tracer.dropped()
    );
    println!(
        "simulated elapsed: {:.1} us, throughput {:.0} Mb/s",
        elapsed.as_us_f64(),
        elapsed.mbps(size * msgs)
    );

    // Per-path breakdown. Events carry the path key; latency histograms
    // are keyed the same way (None = uncached / pathless).
    let events = tracer.events();
    println!(
        "\n{:<10} {:>9} {:>6} {:>8} {:>6} {:>6} {:>5} {:>12} {:>12} {:>12} {:>12}",
        "path",
        "transfers",
        "hits",
        "misses",
        "enq",
        "deq",
        "ovl",
        "alloc_p50",
        "alloc_p99",
        "xfer_p50",
        "xfer_p99"
    );
    // Rows: every path with a latency histogram, plus any key that only
    // appears on queue events (hop events are pathless, so the queue
    // audit trail lands on the "-" row).
    let mut keys = tracer.latency_paths();
    for e in &events {
        if !keys.contains(&e.path) {
            keys.push(e.path);
        }
    }
    keys.sort_unstable();
    for key in keys {
        let count = |kind: EventKind| {
            events
                .iter()
                .filter(|e| e.kind == kind && e.path == key)
                .count()
        };
        let label = key.map_or_else(|| "-".to_string(), |p| format!("path{p}"));
        let fmt = |h: Option<fbuf_sim::Histogram>, pick: fn(&fbuf_sim::Histogram) -> u64| {
            h.filter(|h| !h.is_empty()).map_or_else(
                || "-".to_string(),
                |h| format!("{:.1}us", pick(&h) as f64 / 1_000.0),
            )
        };
        println!(
            "{:<10} {:>9} {:>6} {:>8} {:>6} {:>6} {:>5} {:>12} {:>12} {:>12} {:>12}",
            label,
            count(EventKind::Transfer),
            count(EventKind::CacheHit),
            count(EventKind::CacheMiss),
            count(EventKind::Enqueue),
            count(EventKind::Dequeue),
            count(EventKind::Overload),
            fmt(tracer.alloc_latency(key), |h| h.p50()),
            fmt(tracer.alloc_latency(key), |h| h.p99()),
            fmt(tracer.transfer_latency(key), |h| h.p50()),
            fmt(tracer.transfer_latency(key), |h| h.p99()),
        );
    }
    let total_ovl = events
        .iter()
        .filter(|e| e.kind == EventKind::Overload)
        .count();
    if total_ovl > 0 {
        println!(
            "overload drops in trace: {total_ovl} (see the ovl column for the per-path split)"
        );
    }
    println!("\ncounter deltas over the measured section:\n{delta}");

    // Replay-audit the whole ring against the lifecycle invariants.
    let audit = audit_tracer(tracer);
    if !audit.is_clean() {
        for v in &audit.violations {
            eprintln!("  {v}");
        }
        return Err(format!(
            "audit found {} violation(s)",
            audit.violations.len()
        ));
    }
    // Non-fatal caveats: an overflowed ring truncates histograms and
    // makes the lifecycle replay incomplete — say so loudly.
    for w in &audit.warnings {
        println!("audit WARNING: {w}");
    }
    println!(
        "audit: clean ({} events, {} fbufs tracked, complete={}, {} dropped)",
        audit.events, audit.fbufs_tracked, audit.complete, audit.dropped
    );

    report::write("TRACE_loopback.json", &tracer.chrome_trace()).map(drop)
}
