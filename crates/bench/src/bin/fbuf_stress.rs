//! `fbuf-stress`: wall-clock throughput of the engine's cached hot path,
//! single- and multi-core.
//!
//! Every other target in this crate reports *simulated* time — the paper's
//! question. This one answers the engineering question underneath: how many
//! cached loopback alloc→send→send→free cycles per second can the engine
//! itself execute on the host? It drives a fleet of sharded engines
//! ([`fbuf::shard`]): each OS thread owns a complete machine running the
//! canonical three-domain (originator → netserver → receiver) pattern over
//! its partition of the data paths, with cross-shard payloads flowing over
//! SPSC rings. For every thread count the harness asserts the §3.2.2
//! steady-state invariant **per shard** (zero PTE updates, zero page
//! clears, every allocation — local, egress, and ingress — a cache hit)
//! over the measured window, then records the wall-clock scaling curve
//! (ops/sec, speedup, efficiency vs linear) under `host.scaling` in
//! `BENCH_stress.json`.
//!
//! Environment knobs:
//!
//! * `FBUF_STRESS_OPS`     — steady-state cycles per run, split across the
//!   shards (default 200000; each cycle is 1 alloc + 2 sends + 3 frees =
//!   6 fbuf operations);
//! * `FBUF_STRESS_THREADS` — comma-separated shard counts to sweep, e.g.
//!   `1,2,4,8` (default: 1,2,4,8 capped to the host's available cores —
//!   a fixed total workload, so the curve measures strong scaling);
//! * `FBUF_STRESS_PATHS`   — total logical data paths, partitioned across
//!   shards by path id (default 4 per shard at the largest thread count;
//!   the fbuf region grows to two 1 MB chunks per path on the busiest
//!   shard once that exceeds its default 64 chunks);
//! * `FBUF_STRESS_PAGES`   — pages per buffer (default 1);
//! * `FBUF_STRESS_CROSS`   — send one cross-shard payload every N local
//!   cycles (default 64; 0 disables cross-shard traffic);
//! * `FBUF_STRESS_BASELINE_NS` — ns per fbuf operation of a reference
//!   engine build; when set, the report carries the speedup against it;
//! * `FBUF_STRESS_MIN_SPEEDUP` — `<threads>:<factor>` (e.g. `4:2.5`);
//!   fail unless the run at `<threads>` reached `<factor>`× the first
//!   (lowest) thread count's ops/sec. Only meaningful on a host with at
//!   least `<threads>` cores, hence opt-in (`ci.sh` sets it adaptively
//!   from the core count);
//! * `FBUF_STRESS_EFF_FLOOR` — `<threads>:<efficiency>` (e.g. `2:0.6`);
//!   fail unless parallel efficiency at `<threads>` is at least
//!   `<efficiency>`, and record the floor under `host.scaling_floor` so
//!   `--check` re-enforces it against the report forever after. Opt-in
//!   for the same reason as the speedup gate;
//! * `FBUF_BENCH_DIR`      — report directory (default
//!   `target/bench-reports`).
//!
//! Check mode: `fbuf-stress --check <dir>` validates every `BENCH_*.json`
//! in `<dir>` with the in-repo parser and fails unless each carries a
//! `host` block, a `repro` header (seed, thread count, workload params
//! including the chunk-admission `policy` in force — a string, or a
//! non-empty array of strings for multi-policy sweeps like fbuf-fanin),
//! **and** a `telemetry` block (positive cadence, well-formed time-ordered
//! series; the stress report must additionally carry the batched-plane
//! gauges `ring_batch_occupancy` and `notice_coalesce_factor`); any
//! `host.scaling` block must be
//! well-formed (strictly increasing thread counts, positive ops/sec,
//! efficiency in (0, 1.05]) and still satisfy any recorded
//! `host.scaling_floor`, and the stress report itself must carry a
//! non-empty curve. `LEDGER_*.json`
//! artifacts (written by `fbuf-ledger`) are validated too: tables present
//! and the embedded conservation check clean.

use std::process::ExitCode;

use fbuf::shard::{
    fleet_ledger, fleet_snapshot, fleet_telemetry, run_fleet, FleetConfig, ShardReport,
};
use fbuf_sim::bench::{BenchRunner, ScalingPoint, Unit};
use fbuf_sim::{metrics, Json, MachineConfig, Ns, ToJson};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Like [`env_u64`] but 0 is a meaningful value (e.g. "no cross traffic").
fn env_u64_or_zero(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n: &f64| n > 0.0)
}

/// The shard counts to sweep: `FBUF_STRESS_THREADS` as a comma list, or
/// 1,2,4,8 capped to the host's cores (always at least `[1]`), sorted
/// and deduplicated so the scaling curve is well-ordered.
fn thread_counts() -> Vec<usize> {
    let mut counts: Vec<usize> = match std::env::var("FBUF_STRESS_THREADS") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .filter(|&n: &usize| n > 0)
            .collect(),
        Err(_) => {
            let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
            [1, 2, 4, 8].into_iter().filter(|&n| n <= cores).collect()
        }
    };
    if counts.is_empty() {
        counts.push(1);
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// `FBUF_STRESS_NOTICE_BATCH`: the notice-coalescing window (tokens per
/// reverse-ring slot; 1 = the per-element plane, default 8).
fn notice_batch() -> usize {
    std::env::var("FBUF_STRESS_NOTICE_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// `FBUF_STRESS_MIN_SPEEDUP` as `(threads, factor)`, e.g. `4:2.5`.
fn min_speedup_gate() -> Option<(u64, f64)> {
    parse_gate(&std::env::var("FBUF_STRESS_MIN_SPEEDUP").ok()?)
}

/// `FBUF_STRESS_EFF_FLOOR` as `(threads, efficiency)`, e.g. `2:0.6`.
fn eff_floor_gate() -> Option<(u64, f64)> {
    parse_gate(&std::env::var("FBUF_STRESS_EFF_FLOOR").ok()?)
}

fn parse_gate(raw: &str) -> Option<(u64, f64)> {
    let (t, f) = raw.split_once(':')?;
    Some((t.trim().parse().ok()?, f.trim().parse().ok()?))
}

/// Fleet wall-clock throughput of one run.
fn ops_per_sec(r: &FleetRun) -> f64 {
    r.ops as f64 * 1e9 / r.host_ns as f64
}

/// One thread count's worth of fleet results.
struct FleetRun {
    threads: u64,
    reports: Vec<ShardReport>,
    /// Total fbuf operations across the fleet.
    ops: u64,
    /// Fleet wall-clock: max across shards (they start barrier-aligned).
    host_ns: u64,
    /// Simulated time of the slowest shard.
    sim_elapsed: Ns,
}

/// Runs the fleet at one thread count and asserts the per-shard
/// steady-state invariants plus cross-shard payload conservation.
fn run_at(threads: usize, machine: &MachineConfig, paths: usize, pages: u64, cycles: u64, cross_every: u64) -> Result<FleetRun, String> {
    let cfg = FleetConfig {
        shards: threads,
        machine: machine.clone(),
        paths,
        pages,
        cycles,
        cross_every,
        channel_capacity: 16,
        notice_batch: notice_batch(),
        trace: false,
        // Telemetry rides along: sampling is cadence-gated on simulated
        // time and never touches the counters the steady-state
        // invariant asserts (it does cost a little host time, uniformly
        // across thread counts).
        metrics: true,
        fault: None,
    };
    let reports = run_fleet(&cfg);
    for r in &reports {
        let violations = r.steady_state_violations();
        if !violations.is_empty() {
            return Err(format!(
                "shard {}/{threads} left §3.2.2 steady state: {}",
                r.shard,
                violations.join("; ")
            ));
        }
    }
    let sent: u64 = reports.iter().map(|r| r.sent).sum();
    let received: u64 = reports.iter().map(|r| r.received).sum();
    if sent != received {
        return Err(format!(
            "cross-shard payloads not conserved: {sent} sent, {received} received"
        ));
    }
    Ok(FleetRun {
        threads: threads as u64,
        ops: reports.iter().map(|r| r.fbuf_ops).sum(),
        host_ns: reports.iter().map(|r| r.host_ns).max().unwrap_or(0).max(1),
        sim_elapsed: reports
            .iter()
            .map(|r| r.sim_elapsed)
            .max()
            .unwrap_or(Ns::ZERO),
        reports,
    })
}

/// Validates one well-formed `host.scaling` array. `required` makes an
/// empty (or absent) block an error — the stress report must carry one.
fn check_scaling(name: &str, doc: &Json, required: bool) -> Result<(), String> {
    let scaling = doc
        .get("host")
        .and_then(|h| h.get("scaling"))
        .and_then(|s| s.as_arr().map(<[Json]>::to_vec))
        .unwrap_or_default();
    if scaling.is_empty() {
        if required {
            return Err(format!("{name}: stress report lacks a host.scaling curve"));
        }
        return Ok(());
    }
    let mut prev_threads = 0.0;
    for (i, point) in scaling.iter().enumerate() {
        let threads = point
            .get("threads")
            .and_then(|v| v.as_f64())
            .ok_or(format!("{name}: scaling[{i}] lacks a numeric `threads`"))?;
        if threads <= prev_threads {
            return Err(format!(
                "{name}: scaling thread counts not strictly increasing at index {i}"
            ));
        }
        prev_threads = threads;
        let ops_per_sec = point
            .get("ops_per_sec")
            .and_then(|v| v.as_f64())
            .ok_or(format!("{name}: scaling[{i}] lacks `ops_per_sec`"))?;
        if ops_per_sec <= 0.0 {
            return Err(format!("{name}: scaling[{i}] ops_per_sec = {ops_per_sec} (want > 0)"));
        }
        let efficiency = point
            .get("efficiency")
            .and_then(|v| v.as_f64())
            .ok_or(format!("{name}: scaling[{i}] lacks `efficiency`"))?;
        if efficiency <= 0.0 || efficiency > 1.05 {
            return Err(format!(
                "{name}: scaling[{i}] efficiency = {efficiency} (want in (0, 1.05])"
            ));
        }
    }
    // A recorded floor is a ratchet: the report promised this parallel
    // efficiency when it was written, so it must still hold every time
    // the artifact is validated.
    if let Some(floor) = doc.get("host").and_then(|h| h.get("scaling_floor")) {
        let ft = floor
            .get("threads")
            .and_then(|v| v.as_f64())
            .ok_or(format!("{name}: `scaling_floor.threads` is not a number"))?;
        let fe = floor
            .get("efficiency")
            .and_then(|v| v.as_f64())
            .ok_or(format!("{name}: `scaling_floor.efficiency` is not a number"))?;
        let eff = scaling
            .iter()
            .find(|p| p.get("threads").and_then(|v| v.as_f64()) == Some(ft))
            .and_then(|p| p.get("efficiency"))
            .and_then(|v| v.as_f64())
            .ok_or(format!(
                "{name}: scaling_floor names {ft} thread(s), absent from the scaling curve"
            ))?;
        if eff < fe {
            return Err(format!(
                "{name}: efficiency {eff:.3} at {ft} thread(s) is below the recorded floor {fe:.3}"
            ));
        }
    }
    Ok(())
}

/// Validates the `telemetry` block every report must carry: a positive
/// sampling cadence and a (possibly empty) series array whose entries
/// each name a gauge and hold `[t, v]` points with non-decreasing
/// timestamps. `shard_gauges` additionally requires the batched-plane
/// gauges — only the stress report runs a shard fleet, so only it can
/// carry them.
fn check_telemetry(name: &str, doc: &Json, shard_gauges: bool) -> Result<(), String> {
    let tel = doc
        .get("telemetry")
        .ok_or(format!("{name}: missing `telemetry` block"))?;
    let cadence = tel
        .get("cadence_ns")
        .and_then(|v| v.as_f64())
        .ok_or(format!("{name}: `telemetry.cadence_ns` is not a number"))?;
    if cadence <= 0.0 {
        return Err(format!("{name}: telemetry cadence {cadence} (want > 0)"));
    }
    let series = tel
        .get("series")
        .and_then(|s| s.as_arr().map(<[Json]>::to_vec))
        .ok_or(format!("{name}: `telemetry.series` is not an array"))?;
    let mut names = Vec::new();
    for s in &series {
        let sname = s
            .get("name")
            .and_then(|v| v.as_str().map(str::to_owned))
            .ok_or(format!("{name}: a telemetry series lacks a name"))?;
        names.push(sname.clone());
        let points = s
            .get("points")
            .and_then(|p| p.as_arr().map(<[Json]>::to_vec))
            .ok_or(format!("{name}: series {sname} lacks points"))?;
        let mut prev = f64::NEG_INFINITY;
        for (i, p) in points.iter().enumerate() {
            let t = p
                .as_arr()
                .and_then(|pair| pair.first())
                .and_then(|v| v.as_f64())
                .ok_or(format!("{name}: series {sname} point {i} lacks a timestamp"))?;
            if t < prev {
                return Err(format!(
                    "{name}: series {sname} timestamps go backwards at point {i}"
                ));
            }
            prev = t;
        }
    }
    // The batched data plane must prove it was observed: the stress
    // report samples the burst-drain and coalescing gauges (per shard,
    // namespace-prefixed `s<N>.<gauge>`).
    if shard_gauges {
        for gauge in [
            metrics::GAUGE_RING_BATCH_OCCUPANCY,
            metrics::GAUGE_NOTICE_COALESCE_FACTOR,
        ] {
            if !names.iter().any(|n| n.ends_with(gauge)) {
                return Err(format!("{name}: telemetry lacks a `{gauge}` series"));
            }
        }
    }
    Ok(())
}

/// Validates one `LEDGER_*.json` artifact: it must parse, carry the
/// domain/path tables with totals, and declare conservation against the
/// counters it embeds (an empty `conservation.violations` array).
fn check_ledger(name: &str, doc: &Json) -> Result<(), String> {
    let ledger = doc.get("ledger").ok_or(format!("{name}: missing `ledger`"))?;
    for key in ["domains", "paths", "totals"] {
        if ledger.get(key).is_none() {
            return Err(format!("{name}: `ledger.{key}` missing"));
        }
    }
    doc.get("counters")
        .ok_or(format!("{name}: missing `counters` snapshot"))?;
    let violations = doc
        .get("conservation")
        .and_then(|c| c.get("violations"))
        .and_then(|v| v.as_arr().map(<[Json]>::len))
        .ok_or(format!("{name}: missing `conservation.violations`"))?;
    if violations > 0 {
        return Err(format!(
            "{name}: ledger does not conserve its counters ({violations} violation(s))"
        ));
    }
    Ok(())
}

/// Validates the `repro` header every report must carry: a numeric seed,
/// a thread count of at least 1, and a params object that names the
/// chunk-admission policy the run executed under (a string, or a
/// non-empty array of strings for multi-policy sweeps).
fn check_repro(name: &str, doc: &Json) -> Result<(), String> {
    let repro = doc.get("repro").ok_or(format!("{name}: missing `repro` header"))?;
    repro
        .get("seed")
        .and_then(|v| v.as_f64())
        .ok_or(format!("{name}: `repro.seed` is not a number"))?;
    let threads = repro
        .get("threads")
        .and_then(|v| v.as_f64())
        .ok_or(format!("{name}: `repro.threads` is not a number"))?;
    if threads < 1.0 {
        return Err(format!("{name}: `repro.threads` = {threads} (want >= 1)"));
    }
    let params = match repro.get("params") {
        Some(p @ Json::Obj(_)) => p,
        _ => return Err(format!("{name}: `repro.params` is not an object")),
    };
    let policy_ok = match params.get("policy") {
        Some(Json::Str(_)) => true,
        Some(Json::Arr(a)) => !a.is_empty() && a.iter().all(|v| v.as_str().is_some()),
        _ => false,
    };
    if !policy_ok {
        return Err(format!(
            "{name}: `repro.params.policy` must name the admission policy (string or non-empty string array)"
        ));
    }
    Ok(())
}

/// Validates every `BENCH_*.json` in `dir`: parses with the in-repo
/// parser, requires the `host` block and `repro` header, and checks any
/// scaling curve. Returns the number of reports checked.
fn check_reports(dir: &str) -> Result<usize, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {dir}: {e}"))?;
    let mut checked = 0;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_bench = name.starts_with("BENCH_") && name.ends_with(".json");
        let is_ledger = name.starts_with("LEDGER_") && name.ends_with(".json");
        if !is_bench && !is_ledger {
            continue;
        }
        let path = entry.path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text)
            .map_err(|e| format!("{name}: JSON parse failed: {e:?}"))?;
        if name.starts_with("LEDGER_") {
            check_ledger(&name, &doc)?;
            checked += 1;
            continue;
        }
        let host = doc.get("host").ok_or(format!("{name}: missing `host` block"))?;
        host.get("timebase")
            .and_then(|t| t.as_str())
            .filter(|&t| t == "wall_clock_ns")
            .ok_or(format!("{name}: `host.timebase` is not wall_clock_ns"))?;
        check_repro(&name, &doc)?;
        check_telemetry(&name, &doc, name == "BENCH_stress.json")?;
        check_scaling(&name, &doc, name == "BENCH_stress.json")?;
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("no BENCH_*.json reports found in {dir}"));
    }
    Ok(checked)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--check") {
        let dir = args.get(2).map(String::as_str).unwrap_or("target/bench-reports");
        return match check_reports(dir) {
            Ok(n) => {
                println!(
                    "fbuf-stress --check: {n} report(s) in {dir} parse, carry host + repro + telemetry blocks, scaling curves well-formed, ledgers conserved"
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fbuf-stress --check FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let cycles = env_u64("FBUF_STRESS_OPS", 200_000);
    let threads = thread_counts();
    let max_threads = *threads.last().expect("at least one thread count");
    let npaths = env_u64("FBUF_STRESS_PATHS", 4 * max_threads as u64) as usize;
    let pages = env_u64("FBUF_STRESS_PAGES", 1);
    let cross_every = env_u64_or_zero("FBUF_STRESS_CROSS", 64);
    let baseline = env_f64("FBUF_STRESS_BASELINE_NS");

    let mut cfg = MachineConfig::decstation_5000_200();
    // Enough physical memory and chunk space that every path's working
    // set stays resident: the workload must never fall off the cached
    // fast path into reclamation. Each shard instantiates its own copy.
    cfg.phys_mem = 64 << 20;
    cfg.chunk_size = 1 << 20;
    // Every path on a shard holds one chunk, plus one each for the
    // shard's egress and ingress paths. Size the region at two chunks per
    // path on the busiest shard (the lowest thread count), which keeps
    // the default 64 chunks up to 32 paths.
    let paths_per_shard = npaths.div_ceil(threads[0]) as u64;
    cfg.fbuf_region_size = cfg.fbuf_region_size.max(2 * paths_per_shard * cfg.chunk_size);
    let len = pages * cfg.page_size;

    println!(
        "== fbuf-stress: {} cycles across {} path(s), {} page(s)/buffer, threads {:?}, cross-shard every {} ==",
        cycles, npaths, pages, threads, cross_every
    );

    let mut runs = Vec::with_capacity(threads.len());
    for &n in &threads {
        match run_at(n, &cfg, npaths, pages, cycles, cross_every) {
            Ok(run) => {
                println!(
                    "{:>2} thread(s): {:>10} fbuf ops in {:>8.1} ms host ({:.3} us/cycle simulated, {} cross-shard payloads)",
                    n,
                    run.ops,
                    run.host_ns as f64 / 1e6,
                    run.sim_elapsed.as_us_f64() / (cycles.max(1) as f64 / n as f64),
                    run.reports.iter().map(|r| r.sent).sum::<u64>(),
                );
                runs.push(run);
            }
            Err(e) => {
                eprintln!("fbuf-stress FAILED at {n} thread(s): {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some((gate_threads, factor)) = min_speedup_gate() {
        let base = &runs[0];
        match runs.iter().find(|r| r.threads == gate_threads) {
            Some(run) => {
                let speedup = ops_per_sec(run) / ops_per_sec(base);
                if speedup < factor {
                    eprintln!(
                        "fbuf-stress FAILED: {gate_threads}-thread speedup {speedup:.2}x < required {factor:.2}x (vs {} thread(s))",
                        base.threads
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "speedup gate: {gate_threads} thread(s) at {speedup:.2}x >= {factor:.2}x vs {} thread(s)",
                    base.threads
                );
            }
            None => {
                eprintln!(
                    "fbuf-stress FAILED: FBUF_STRESS_MIN_SPEEDUP names {gate_threads} thread(s), but the sweep ran {threads:?}"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some((gate_threads, floor)) = eff_floor_gate() {
        let base = &runs[0];
        match runs.iter().find(|r| r.threads == gate_threads) {
            Some(run) => {
                let speedup = ops_per_sec(run) / ops_per_sec(base);
                let efficiency =
                    speedup / (run.threads as f64 / base.threads.max(1) as f64);
                if efficiency < floor {
                    eprintln!(
                        "fbuf-stress FAILED: {gate_threads}-thread efficiency {efficiency:.2} < floor {floor:.2}"
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "efficiency gate: {gate_threads} thread(s) at {:.0}% of linear >= floor {:.0}%",
                    efficiency * 100.0,
                    floor * 100.0
                );
            }
            None => {
                eprintln!(
                    "fbuf-stress FAILED: FBUF_STRESS_EFF_FLOOR names {gate_threads} thread(s), but the sweep ran {threads:?}"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let first = &runs[0];
    let sim_us_per_cycle = first.sim_elapsed.as_us_f64()
        / (cycles.max(1) as f64 / first.threads as f64);

    let mut runner = BenchRunner::new("stress");
    runner.set_threads(max_threads as u64);
    runner.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    runner.param("ops", cycles);
    runner.param("paths", npaths as u64);
    runner.param("pages_per_buffer", pages);
    runner.param("bytes_per_buffer", len);
    runner.param("cross_every", cross_every);
    runner.param(
        "threads",
        Json::Arr(threads.iter().map(|&n| (n as u64).to_json()).collect()),
    );
    runner.measure("cached_cycle", Unit::SimUs, || sim_us_per_cycle);
    runner.host_throughput("cached_fbuf_ops", first.ops, first.host_ns, baseline);
    for run in &runs[1..] {
        runner.host_throughput(
            &format!("cached_fbuf_ops_t{}", run.threads),
            run.ops,
            run.host_ns,
            None,
        );
    }
    let curve: Vec<ScalingPoint> = runs
        .iter()
        .map(|r| ScalingPoint { threads: r.threads, ops: r.ops, elapsed_ns: r.host_ns })
        .collect();
    runner.host_scaling(&curve);
    if let Some((gate_threads, floor)) = eff_floor_gate() {
        runner.host_scaling_floor(gate_threads, floor);
    }
    // One coherent fleet snapshot: the counter merge of the largest run.
    let widest = runs.last().expect("at least one run");
    runner.counters(&fleet_snapshot(&widest.reports));
    runner.telemetry(metrics::DEFAULT_CADENCE_NS, &fleet_telemetry(&widest.reports));
    runner.artifact("ledger", fleet_ledger(&widest.reports).to_json());
    let per_run: Vec<Json> = runs
        .iter()
        .map(|run| {
            Json::obj(vec![
                ("threads", run.threads.to_json()),
                ("fbuf_ops", run.ops.to_json()),
                ("host_ns", run.host_ns.to_json()),
                ("sim_us", run.sim_elapsed.as_us_f64().to_json()),
                (
                    "shards",
                    Json::Arr(
                        run.reports
                            .iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("shard", (r.shard as u64).to_json()),
                                    ("paths", (r.paths as u64).to_json()),
                                    ("cycles", r.cycles.to_json()),
                                    ("sent", r.sent.to_json()),
                                    ("received", r.received.to_json()),
                                    ("fbuf_ops", r.fbuf_ops.to_json()),
                                    ("cache_hits", r.delta.fbuf_cache_hits.to_json()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    runner.artifact("fleet", Json::Arr(per_run));

    let path = match runner.finish() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fbuf-stress FAILED: could not write report: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The report must satisfy the same contract `--check` enforces.
    let text = std::fs::read_to_string(&path).expect("just-written report");
    let doc = Json::parse(&text).expect("report parses");
    assert!(doc.get("host").is_some(), "stress report carries a host block");
    if let Err(e) = check_repro("BENCH_stress.json", &doc)
        .and_then(|()| check_scaling("BENCH_stress.json", &doc, true))
    {
        eprintln!("fbuf-stress FAILED: own report rejected: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
