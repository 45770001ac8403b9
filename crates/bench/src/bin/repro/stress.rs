//! `repro stress`: wall-clock throughput of the engine's cached hot path,
//! single- and multi-core.
//!
//! Every paper experiment reports *simulated* time — the paper's
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
//! One run of a sweep point lasts tens of milliseconds at small op
//! budgets, too short to resolve on a shared host. So the sweep runs
//! [`REPEATS`] times, interleaved (1, 2, 1, 2, …), and each point of the
//! curve — and every gate — uses the point's median wall-clock time;
//! `host.scaling` records the repeat count.
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
//! * `FBUF_STRESS_METRICS` — `0` turns telemetry off, so a run measures
//!   the engine without the sampler (default on); the report records the
//!   setting as `repro.params.telemetry` and then carries no telemetry
//!   points. With telemetry on, every repeat also runs the first
//!   (lowest) thread count with telemetry off, right after the run with
//!   it on, and the report carries the median ratio of the two host
//!   times as `host.telemetry_overhead`;
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
//!   every later `repro check` re-enforces it against the report. Opt-in
//!   for the same reason as the speedup gate;
//! * `FBUF_BENCH_DIR`      — report directory (default
//!   `target/bench-reports`).
//!
//! A vCPU count says how many threads may run, not how much parallel
//! time the host grants them. So in a sweep with more than one thread
//! count, each repeat starts by timing pure arithmetic on one thread and
//! on the sweep's largest count, and the ratio of work done per unit of
//! wall time, from the medians, is recorded as `host.parallel_capacity`
//! (2.0 on two idle cores). Timed beside the fleet runs, it sees the
//! host the sweep saw. A gate at that thread count is judged against
//! the capacity (at most the thread count): the speedup gate asks
//! for `<factor>` × capacity / `<threads>`, and the efficiency floor is
//! the fleet's speedup over the capacity. When the capacity itself is
//! below a gate (under `<factor>`, or under `<efficiency>` × `<threads>`),
//! the host cannot show what the gate asks of any code: the gate is
//! skipped with the reason printed, and no floor is recorded.
//!
//! The report must carry a scaling curve and, with telemetry on, the
//! batched-plane gauges `ring_batch_occupancy` and
//! `notice_coalesce_factor` and the telemetry overhead
//! (`fbuf_bench::report::check`).

use fbuf::shard::{
    fleet_ledger, fleet_snapshot, fleet_telemetry, run_fleet, FleetConfig, ShardReport,
};
use fbuf_bench::knobs::{env_list, env_parse, env_u64};
use fbuf_bench::report::{scaled, BenchRunner, Scaled, ScalingPoint, Unit};
use fbuf_sim::{metrics, Json, MachineConfig, Ns, ToJson};

/// The shard counts to sweep: `FBUF_STRESS_THREADS` as a comma list, or
/// 1,2,4,8 capped to the host's cores, sorted and deduplicated so the
/// scaling curve is well-ordered.
fn thread_counts() -> Vec<usize> {
    env_list("FBUF_STRESS_THREADS", || {
        let cores = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        [1, 2, 4, 8].into_iter().filter(|&n| n <= cores).collect()
    })
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

/// The point of the scaling curve a gate knob names.
fn gated<'a>(curve: &'a [Scaled], knob: &str, threads: u64) -> Result<&'a Scaled, String> {
    curve
        .iter()
        .find(|s| s.point.threads == threads)
        .ok_or_else(|| {
            let swept: Vec<u64> = curve.iter().map(|s| s.point.threads).collect();
            format!("{knob} names {threads} thread(s), but the sweep ran {swept:?}")
        })
}

/// How many times the sweep runs, its points interleaved. Odd, so the
/// median is one measured run.
const REPEATS: usize = 7;

/// Arithmetic steps one thread takes per capacity run: about 20 ms.
const SPIN_STEPS: u64 = 20_000_000;

/// A fixed chain of dependent multiply-adds that touches no memory.
fn spin(seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..SPIN_STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    x
}

/// Wall time of `threads` threads each running [`spin`] at once.
fn spin_ns(threads: usize) -> u64 {
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || std::hint::black_box(spin(std::hint::black_box(t as u64))));
        }
    });
    t0.elapsed().as_nanos().max(1) as u64
}

/// One thread count's worth of fleet results.
struct FleetRun {
    threads: u64,
    reports: Vec<ShardReport>,
    /// Total fbuf operations across the fleet.
    ops: u64,
    /// Fleet wall-clock: max across shards (they start barrier-aligned);
    /// the median over the repeats once the sweep is done.
    host_ns: u64,
    /// Simulated time of the slowest shard.
    sim_elapsed: Ns,
}

/// Runs the fleet at one thread count and asserts the per-shard
/// steady-state invariants plus cross-shard payload conservation.
fn run_at(
    threads: usize,
    machine: &MachineConfig,
    paths: usize,
    pages: u64,
    cycles: u64,
    cross_every: u64,
    metrics: bool,
) -> Result<FleetRun, String> {
    let cfg = FleetConfig {
        shards: threads,
        machine: machine.clone(),
        paths,
        pages,
        cycles,
        cross_every,
        channel_capacity: 16,
        trace: false,
        // Telemetry rides along unless turned off: sampling is
        // cadence-gated on simulated time and never touches the counters
        // the steady-state invariant asserts (it does cost a little host
        // time, uniformly across thread counts).
        metrics,
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

/// Runs the thread-count sweep, applies the scaling gates and writes
/// `BENCH_stress.json`.
pub fn run() -> Result<(), String> {
    let cycles = env_u64("FBUF_STRESS_OPS", 200_000);
    let threads = thread_counts();
    let max_threads = *threads.last().expect("at least one thread count");
    let npaths = env_u64("FBUF_STRESS_PATHS", 4 * max_threads as u64) as usize;
    let pages = env_u64("FBUF_STRESS_PAGES", 1);
    // Zero is a value here: it disables cross-shard traffic.
    let cross_every = env_parse::<u64>("FBUF_STRESS_CROSS").unwrap_or(64);
    let baseline = env_parse("FBUF_STRESS_BASELINE_NS").filter(|&n: &f64| n > 0.0);
    // Zero is a value here too: it turns telemetry off.
    let telemetry = env_parse::<u64>("FBUF_STRESS_METRICS").is_none_or(|n| n != 0);

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
    cfg.fbuf_region_size = cfg
        .fbuf_region_size
        .max(2 * paths_per_shard * cfg.chunk_size);
    let len = pages * cfg.page_size;

    println!(
        "== repro stress: {} cycles across {} path(s), {} page(s)/buffer, threads {:?}, cross-shard every {}, telemetry {} ==",
        cycles, npaths, pages, threads, cross_every, if telemetry { "on" } else { "off" }
    );

    // The last repeat of each point keeps its reports; every repeat
    // keeps its wall-clock time.
    let mut runs = Vec::with_capacity(threads.len());
    let mut host_ns = vec![Vec::with_capacity(REPEATS); threads.len()];
    // With telemetry on: host time on over off at the first thread
    // count, one ratio per repeat.
    let mut overhead = Vec::with_capacity(REPEATS);
    // With more than one thread count: wall time of the arithmetic on
    // one thread and on `max_threads`, once per repeat.
    let mut spins = (Vec::with_capacity(REPEATS), Vec::with_capacity(REPEATS));
    for repeat in 0..REPEATS {
        if max_threads > 1 {
            spins.0.push(spin_ns(1));
            spins.1.push(spin_ns(max_threads));
        }
        for (k, &n) in threads.iter().enumerate() {
            let run = run_at(n, &cfg, npaths, pages, cycles, cross_every, telemetry)
                .map_err(|e| format!("at {n} thread(s): {e}"))?;
            host_ns[k].push(run.host_ns);
            if telemetry && k == 0 {
                let off = run_at(n, &cfg, npaths, pages, cycles, cross_every, false)
                    .map_err(|e| format!("at {n} thread(s), telemetry off: {e}"))?;
                overhead.push(run.host_ns as f64 / off.host_ns as f64);
            }
            if repeat + 1 == REPEATS {
                runs.push(run);
            }
        }
    }
    for (run, times) in runs.iter_mut().zip(&mut host_ns) {
        times.sort_unstable();
        run.host_ns = times[REPEATS / 2];
        println!(
            "{:>2} thread(s): {:>10} fbuf ops in {:>8.1} ms host, median of {REPEATS} ({:.1}-{:.1} ms; {:.3} us/cycle simulated, {} cross-shard payloads)",
            run.threads,
            run.ops,
            run.host_ns as f64 / 1e6,
            times[0] as f64 / 1e6,
            times[REPEATS - 1] as f64 / 1e6,
            run.sim_elapsed.as_us_f64() / (cycles.max(1) as f64 / run.threads as f64),
            run.reports.iter().map(|r| r.sent).sum::<u64>(),
        );
    }

    // The host's parallel capacity: the arithmetic `max_threads` threads
    // did per unit of wall time over what one thread did.
    let capacity = (max_threads > 1).then(|| {
        spins.0.sort_unstable();
        spins.1.sort_unstable();
        let ratio = max_threads as f64 * spins.0[REPEATS / 2] as f64 / spins.1[REPEATS / 2] as f64;
        println!("parallel capacity: {max_threads} threads of arithmetic ran at {ratio:.2}x one thread, median of {REPEATS}");
        (max_threads as u64, ratio)
    });
    // The capacity a gate at `threads` is judged against, if measured
    // there. A reading above linear is timing noise, so none asks for
    // more than an ideal host would.
    let capacity_at = |threads: u64| {
        capacity
            .filter(|&(n, _)| n == threads)
            .map(|(_, r)| r.min(threads as f64))
    };

    let curve: Vec<ScalingPoint> = runs
        .iter()
        .map(|r| ScalingPoint {
            threads: r.threads,
            ops: r.ops,
            elapsed_ns: r.host_ns,
            repeats: REPEATS as u64,
        })
        .collect();
    let rates = scaled(&curve);
    let base_threads = runs[0].threads;
    if let Some((gate_threads, factor)) = min_speedup_gate() {
        let speedup = gated(&rates, "FBUF_STRESS_MIN_SPEEDUP", gate_threads)?.speedup;
        let c = capacity_at(gate_threads).unwrap_or(gate_threads as f64);
        if c < factor {
            println!(
                "speedup gate skipped: {gate_threads} threads of arithmetic ran at {c:.2}x, below the required {factor:.2}x"
            );
        } else {
            // What the gate asks of an ideal host, scaled to this one.
            let required = factor * c / gate_threads as f64;
            if speedup < required {
                return Err(format!(
                    "{gate_threads}-thread speedup {speedup:.2}x < required {required:.2}x ({factor:.2}x on a {c:.2}x host; vs {base_threads} thread(s))"
                ));
            }
            println!(
                "speedup gate: {gate_threads} thread(s) at {speedup:.2}x >= {required:.2}x ({factor:.2}x on a {c:.2}x host) vs {base_threads} thread(s)"
            );
        }
    }
    let mut eff_floor = eff_floor_gate();
    if let Some((gate_threads, floor)) = eff_floor {
        let speedup = gated(&rates, "FBUF_STRESS_EFF_FLOOR", gate_threads)?.speedup;
        let c = capacity_at(gate_threads).unwrap_or(gate_threads as f64);
        if c < floor * gate_threads as f64 {
            println!(
                "efficiency gate skipped: {gate_threads} threads of arithmetic ran at {c:.2}x, {:.0}% of linear, below the floor {:.0}%",
                c / gate_threads as f64 * 100.0,
                floor * 100.0
            );
            eff_floor = None;
        } else {
            let efficiency = speedup / c;
            if efficiency < floor {
                return Err(format!(
                    "{gate_threads}-thread efficiency {efficiency:.2} of the host's {c:.2}x < floor {floor:.2}"
                ));
            }
            println!(
                "efficiency gate: {gate_threads} thread(s) at {:.0}% of the host's {c:.2}x >= floor {:.0}%",
                efficiency * 100.0,
                floor * 100.0
            );
        }
    }

    let first = &runs[0];
    let sim_us_per_cycle =
        first.sim_elapsed.as_us_f64() / (cycles.max(1) as f64 / first.threads as f64);

    let mut runner = BenchRunner::new("stress");
    runner.set_threads(max_threads as u64);
    runner.param("ops", cycles);
    runner.param("paths", npaths as u64);
    runner.param("pages_per_buffer", pages);
    runner.param("bytes_per_buffer", len);
    runner.param("cross_every", cross_every);
    runner.param("telemetry", telemetry);
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
    runner.host_scaling(&curve);
    if let Some((gate_threads, floor)) = eff_floor {
        runner.host_scaling_floor(gate_threads, floor);
    }
    if let Some((threads, ratio)) = capacity {
        runner.host_parallel_capacity(threads, ratio);
    }
    if !overhead.is_empty() {
        overhead.sort_unstable_by(f64::total_cmp);
        let ratio = overhead[REPEATS / 2];
        println!(
            "telemetry overhead: {ratio:.3}x host time at {} thread(s), median of {REPEATS} on/off pairs ({:.3}-{:.3})",
            threads[0],
            overhead[0],
            overhead[REPEATS - 1]
        );
        runner.host_telemetry_overhead(ratio);
    }
    // One coherent fleet snapshot: the counter merge of the largest run.
    let widest = runs.last().expect("at least one run");
    runner.counters(&fleet_snapshot(&widest.reports));
    runner.telemetry(
        metrics::DEFAULT_CADENCE_NS,
        &fleet_telemetry(&widest.reports),
    );
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

    runner.finish().map(drop)
}
