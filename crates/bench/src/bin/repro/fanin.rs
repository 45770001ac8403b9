//! `repro fanin`: massive fan-in across chunk-admission policies.
//!
//! Drives the fan-in workload (`fbuf_bench::fanin`, DESIGN.md §15) —
//! tens of thousands of Zipf-skewed, bursty flows through the sharded
//! event-loop engine — once per admission policy at **identical**
//! config (same seed, same machine, same total buffer memory), and
//! compares what each policy made of the same offered load:
//!
//! * **drops** — arrivals refused admission past the retry budget;
//! * **goodput** — payload bytes delivered producer → consumer;
//! * **occupancy** — mean/peak granted chunks (how much of the region
//!   the policy actually put to work);
//! * **alloc latency** — p50/p99 arrival-to-grant wait in simulated ns
//!   (under `latency` in the report).
//!
//! The run fails unless every policy conserves arrivals
//! (`offered == completed + drops + unresolved`) and — when both are in
//! the sweep — `fb-dynamic` beats `static` on **both** drops and p99
//! alloc latency, strictly. That is the paper's §3.3 argument as an
//! executable gate: under skewed fan-in, sizing per-path caps from the
//! free pool must dominate a fixed cap at equal memory.
//!
//! Environment knobs:
//!
//! * `FBUF_FANIN_FLOWS`  — total flows (default 20000);
//! * `FBUF_FANIN_PATHS`  — data paths (default 512);
//! * `FBUF_FANIN_SHARDS` — engine shards / OS threads (default 4);
//! * `FBUF_FANIN_STEPS`  — arrival-loop steps (default 400);
//! * `FBUF_FANIN_SKEW`   — Zipf skew `s` (default 1.1);
//! * `FBUF_FANIN_QUOTA`  — static per-path chunk quota (default 4);
//! * `FBUF_FANIN_POLICY` — `all` (default) or one of
//!   `static,fb-dynamic,priority` (comma-separated subset);
//! * `FBUF_FANIN_SEED`   — master seed (default 0xfa21);
//! * `FBUF_BENCH_DIR`    — report directory (default
//!   `target/bench-reports`).

use std::time::Instant;

use fbuf::QuotaPolicy;
use fbuf_bench::fanin::{run_fanin, FaninConfig, FaninReport};
use fbuf_bench::knobs::{env_parse, env_u64};
use fbuf_bench::report::{BenchRunner, Unit};
use fbuf_sim::metrics::DEFAULT_CADENCE_NS;
use fbuf_sim::{Json, Ns, ToJson};

/// `FBUF_FANIN_POLICY` as a policy list; `all` (default) sweeps the
/// three families in a fixed order.
fn policies() -> Result<Vec<QuotaPolicy>, String> {
    let raw = std::env::var("FBUF_FANIN_POLICY").unwrap_or_else(|_| "all".into());
    if raw.trim() == "all" {
        return Ok(vec![
            QuotaPolicy::Static,
            QuotaPolicy::fb_dynamic(),
            QuotaPolicy::priority_weighted(),
        ]);
    }
    raw.split(',')
        .map(|t| {
            QuotaPolicy::parse(t.trim())
                .ok_or_else(|| format!("FBUF_FANIN_POLICY: unknown policy `{}`", t.trim()))
        })
        .collect()
}

/// Runs the fan-in once per policy, applies the fb-dynamic-beats-static
/// gate and writes `BENCH_fanin.json`.
pub fn run() -> Result<(), String> {
    let seed = env_u64("FBUF_FANIN_SEED", 0xfa21);
    let policies = policies()?;

    let mut base = FaninConfig::new(QuotaPolicy::Static, seed);
    base.flows = env_u64("FBUF_FANIN_FLOWS", base.flows as u64) as usize;
    base.paths = env_u64("FBUF_FANIN_PATHS", base.paths as u64) as usize;
    base.shards = env_u64("FBUF_FANIN_SHARDS", base.shards as u64) as usize;
    base.steps = env_u64("FBUF_FANIN_STEPS", base.steps);
    base.zipf_s = env_parse("FBUF_FANIN_SKEW")
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .unwrap_or(base.zipf_s);
    base.machine.max_chunks_per_path =
        env_u64("FBUF_FANIN_QUOTA", base.machine.max_chunks_per_path as u64) as usize;
    if base.paths < base.shards {
        return Err(format!(
            "{} paths cannot cover {} shards",
            base.paths, base.shards
        ));
    }

    println!(
        "== repro fanin: {} flows over {} paths on {} shard(s), zipf {}, {} steps, static quota {} of {} chunks/shard ==",
        base.flows,
        base.paths,
        base.shards,
        base.zipf_s,
        base.steps,
        base.machine.max_chunks_per_path,
        base.chunks_per_shard(),
    );
    println!(
        "{:>10} {:>9} {:>9} {:>8} {:>9} {:>10} {:>9} {:>9} {:>11} {:>11}",
        "policy",
        "offered",
        "completed",
        "drops",
        "denials",
        "goodput_mb",
        "occ_mean",
        "occ_peak",
        "wait_p50_ns",
        "wait_p99_ns"
    );

    let host_t0 = Instant::now();
    let mut runs: Vec<(QuotaPolicy, FaninReport)> = Vec::with_capacity(policies.len());
    for &policy in &policies {
        let mut cfg = base.clone();
        cfg.policy = policy;
        let r = run_fanin(&cfg).map_err(|e| format!("under {}: {e}", policy.name()))?;
        println!(
            "{:>10} {:>9} {:>9} {:>8} {:>9} {:>10.1} {:>9.1} {:>9} {:>11} {:>11}",
            policy.name(),
            r.offered,
            r.completed,
            r.drops,
            r.denials,
            r.goodput_bytes as f64 / (1 << 20) as f64,
            r.occupancy_mean,
            r.occupancy_peak,
            r.alloc_wait.p50(),
            r.alloc_wait.p99(),
        );
        runs.push((policy, r));
    }
    let host_ns = host_t0.elapsed().as_nanos().max(1) as u64;

    // The tentpole gate: at equal total buffer memory under Zipf
    // fan-in, the free-pool-scaled cap must strictly beat the static
    // cap on both drops and tail alloc latency.
    let find = |name: &str| runs.iter().find(|(p, _)| p.name() == name).map(|(_, r)| r);
    if let (Some(st), Some(dy)) = (find("static"), find("fb-dynamic")) {
        if dy.drops >= st.drops {
            return Err(format!(
                "fb-dynamic dropped {} >= static {} — dynamic sizing must shed the skew",
                dy.drops, st.drops
            ));
        }
        if dy.alloc_wait.p99() >= st.alloc_wait.p99() {
            return Err(format!(
                "fb-dynamic p99 wait {} ns >= static {} ns",
                dy.alloc_wait.p99(),
                st.alloc_wait.p99()
            ));
        }
        println!(
            "gate: fb-dynamic beats static — drops {} < {}, p99 wait {} ns < {} ns",
            dy.drops,
            st.drops,
            dy.alloc_wait.p99(),
            st.alloc_wait.p99()
        );
    }

    let mut runner = BenchRunner::named("fanin", 1);
    runner.set_seed(seed);
    runner.set_threads(base.shards as u64);
    // The sweep names every policy it ran in place of the default one.
    runner.param(
        "policy",
        Json::Arr(runs.iter().map(|(p, _)| p.name().to_json()).collect()),
    );
    runner.param("flows", base.flows as u64);
    runner.param("paths", base.paths as u64);
    runner.param("shards", base.shards as u64);
    runner.param("steps", base.steps);
    runner.param("zipf_s", base.zipf_s);
    runner.param("mean_on", base.mean_on);
    runner.param("mean_off", base.mean_off);
    runner.param("hold_steps", base.hold_steps);
    runner.param("retries", base.retries as u64);
    runner.param("static_quota", base.machine.max_chunks_per_path as u64);
    runner.param("chunks_per_shard", base.chunks_per_shard());
    for (policy, r) in &runs {
        let name = policy.name();
        runner.latency(&format!("alloc_wait_{name}"), &r.alloc_wait);
        runner.measure(&format!("goodput_mbps_{name}"), Unit::Mbps, || {
            Ns(r.sim_ns).mbps(r.goodput_bytes)
        });
        runner.measure(&format!("drop_fraction_{name}"), Unit::Fraction, || {
            r.drops as f64 / r.offered.max(1) as f64
        });
    }
    let total_completed: u64 = runs.iter().map(|(_, r)| r.completed).sum();
    runner.host_throughput("transfers_completed", total_completed, host_ns, None);
    if let Some((_, r)) = runs.last() {
        runner.telemetry(DEFAULT_CADENCE_NS, &r.telemetry);
    }
    let sweep: Vec<Json> = runs
        .iter()
        .map(|(policy, r)| {
            Json::obj(vec![
                ("policy", policy.name().to_json()),
                ("offered", r.offered.to_json()),
                ("completed", r.completed.to_json()),
                ("drops", r.drops.to_json()),
                ("unresolved", r.unresolved.to_json()),
                ("quota_denials", r.denials.to_json()),
                ("goodput_bytes", r.goodput_bytes.to_json()),
                ("occupancy_mean_chunks", r.occupancy_mean.to_json()),
                ("occupancy_peak_chunks", r.occupancy_peak.to_json()),
                ("alloc_wait_p50_ns", r.alloc_wait.p50().to_json()),
                ("alloc_wait_p99_ns", r.alloc_wait.p99().to_json()),
                ("alloc_wait_max_ns", r.alloc_wait.max().to_json()),
                ("sim_elapsed_us", Ns(r.sim_ns).as_us_f64().to_json()),
            ])
        })
        .collect();
    runner.artifact("policies", Json::Arr(sweep));

    runner.finish().map(drop)
}
