//! The report contract: one writer and one checker for every document the
//! harness writes.
//!
//! Three kinds of document land in the report directory
//! ([`knobs::bench_dir`]: `FBUF_BENCH_DIR`, default `target/bench-reports`):
//!
//! * `BENCH_<name>.json` — a [`BenchRunner`] report: the scenarios'
//!   **simulated** samples (median, p10, p90 over the iterations), the
//!   regenerated paper artifact, counters, latency percentiles, a
//!   `telemetry` block, a `host` block of wall-clock numbers, and a
//!   `repro` header (seed, threads, every workload parameter, the
//!   chunk-admission `policy` among them);
//! * `LEDGER_fleet.json` — the per-tenant ledger of a fleet run
//!   ([`ledger_doc`]) with its conservation verdict;
//! * `TRACE_<name>.json` — a Chrome `trace_event` export of the tracer.
//!
//! [`write()`] checks a document with [`check`] before it writes it, so a
//! document that breaks the contract is never written; `repro check <dir>`
//! runs the same [`check`] over a directory ([`check_dir`]).
//!
//! Simulated samples answer the paper's questions in the calibrated
//! DecStation timebase (µs, Mb/s, CPU-load fractions), comparable with
//! Tables 1–2 and Figures 3–6. The `host` block answers how fast the
//! simulator itself ran; its rates are derived once, by `host_rate` and
//! [`scaled`], for the report, its printout and the stress gates alike.
//!
//! # Examples
//!
//! ```
//! use fbuf_bench::report::{check, summarize, BenchRunner, Unit};
//!
//! let s = summarize(&[3.0, 1.0, 2.0]);
//! assert_eq!((s.median, s.p10, s.p90), (2.0, 1.0, 3.0));
//!
//! let mut runner = BenchRunner::named("doctest", 3);
//! runner.measure("constant_cost", Unit::SimUs, || 21.0);
//! let report = runner.report();
//! let row = report.get("results").unwrap().as_arr().unwrap();
//! assert_eq!(row[0].get("median").unwrap().as_f64(), Some(21.0));
//! assert!(check("BENCH_doctest.json", &report).is_ok());
//! ```

use std::path::{Path, PathBuf};

use fbuf::{Ledger, QuotaPolicy};
use fbuf_sim::metrics::{self, SeriesSnapshot};
use fbuf_sim::{Histogram, Json, StatsSnapshot, ToJson};

use crate::knobs;

/// The timebase of a scenario's samples. All units are *simulated*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Microseconds of simulated machine time (per page, per op, …).
    SimUs,
    /// Simulated throughput in megabits per second.
    Mbps,
    /// A dimensionless fraction (e.g. CPU load), 0–1.
    Fraction,
}

impl Unit {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Unit::SimUs => "sim_us",
            Unit::Mbps => "mbps",
            Unit::Fraction => "fraction",
        }
    }
}

/// Order statistics over a scenario's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank 10th percentile.
    pub p10: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
}

/// Computes nearest-rank median/p10/p90. Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
    let rank = |p: f64| sorted[(p * (sorted.len() - 1) as f64).round() as usize];
    Summary {
        n: sorted.len(),
        median: rank(0.5),
        p10: rank(0.1),
        p90: rank(0.9),
    }
}

/// Wall-clock rate of `ops` operations in `elapsed_ns`:
/// `(ns_per_op, ops_per_sec)`, each 0 where its denominator is.
fn host_rate(ops: u64, elapsed_ns: u64) -> (f64, f64) {
    let ns_per_op = if ops > 0 {
        elapsed_ns as f64 / ops as f64
    } else {
        0.0
    };
    let ops_per_sec = if elapsed_ns > 0 {
        ops as f64 * 1e9 / elapsed_ns as f64
    } else {
        0.0
    };
    (ns_per_op, ops_per_sec)
}

/// One point of the wall-clock thread-scaling curve under `host.scaling`:
/// the whole fleet executed `ops` engine operations in `elapsed_ns` of
/// host time at this thread count.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Shard (OS thread) count of this run.
    pub threads: u64,
    /// Total fbuf operations across all shards.
    pub ops: u64,
    /// Fleet wall-clock for the measured window (max across shards; the
    /// shards start barrier-aligned).
    pub elapsed_ns: u64,
    /// Runs measured for this point (`elapsed_ns` is their median).
    pub repeats: u64,
}

/// A [`ScalingPoint`] with the rates derived from it.
#[derive(Debug, Clone, Copy)]
pub struct Scaled {
    /// The measured point.
    pub point: ScalingPoint,
    /// Fleet operations per wall-clock second.
    pub ops_per_sec: f64,
    /// `ops_per_sec` over the curve's first point's (0 if that is 0).
    pub speedup: f64,
    /// Speedup over the thread-count ratio to the first point; 1.0 is
    /// perfectly linear.
    pub efficiency: f64,
}

/// Derives speedup and efficiency of every point against the first one.
pub fn scaled(points: &[ScalingPoint]) -> Vec<Scaled> {
    let base = points
        .first()
        .map(|p| (p.threads.max(1), host_rate(p.ops, p.elapsed_ns).1));
    points
        .iter()
        .map(|&point| {
            let ops_per_sec = host_rate(point.ops, point.elapsed_ns).1;
            let (speedup, efficiency) = match base {
                Some((threads, rate)) if rate > 0.0 => {
                    let s = ops_per_sec / rate;
                    (s, s / (point.threads.max(1) as f64 / threads as f64))
                }
                _ => (0.0, 0.0),
            };
            Scaled {
                point,
                ops_per_sec,
                speedup,
                efficiency,
            }
        })
        .collect()
}

struct Scenario {
    label: String,
    unit: Unit,
    samples: Vec<f64>,
    /// Host wall-clock nanoseconds per `measure` closure call, collected
    /// alongside the simulated samples.
    host_ns: Vec<f64>,
}

/// One engine-throughput record for the report's `host.throughput` array:
/// how fast the *simulator itself* executed a workload in wall-clock terms.
struct HostThroughput {
    label: String,
    ops: u64,
    elapsed_ns: u64,
    /// Reference ns/op of a prior engine build, when the caller has one
    /// (lets a report carry its own before/after comparison).
    baseline_ns_per_op: Option<f64>,
}

impl HostThroughput {
    /// `(ns_per_op, ops_per_sec, speedup_vs_baseline)`.
    fn rates(&self) -> (f64, f64, Option<f64>) {
        let (ns_per_op, ops_per_sec) = host_rate(self.ops, self.elapsed_ns);
        let speedup = self
            .baseline_ns_per_op
            .filter(|_| ns_per_op > 0.0)
            .map(|base| base / ns_per_op);
        (ns_per_op, ops_per_sec, speedup)
    }
}

/// Collects the measurements of one experiment and writes its
/// `BENCH_<name>.json` report. See the [module docs](self).
pub struct BenchRunner {
    name: String,
    iters: usize,
    scenarios: Vec<Scenario>,
    artifacts: Vec<(String, Json)>,
    counters: Option<StatsSnapshot>,
    latency: Vec<(String, Histogram)>,
    /// Telemetry gauge series sampled during the run, plus the cadence
    /// they were sampled at (the `telemetry` block; present in every
    /// report, empty when the experiment recorded no gauges).
    telemetry_cadence_ns: u64,
    telemetry: Vec<SeriesSnapshot>,
    host_throughput: Vec<HostThroughput>,
    host_scaling: Vec<ScalingPoint>,
    /// The parallel-efficiency floor the run was gated on, if any
    /// (`host.scaling_floor`): [`check`] re-enforces it against the
    /// scaling curve.
    host_scaling_floor: Option<(u64, f64)>,
    /// How many threads' worth of pure arithmetic the host ran at once
    /// with that many threads (`host.parallel_capacity`): [`check`]
    /// judges a floor at that thread count against it.
    host_parallel_capacity: Option<(u64, f64)>,
    /// Host time with telemetry on over host time with it off, for runs
    /// that measured both (`host.telemetry_overhead`).
    host_telemetry_overhead: Option<f64>,
    /// RNG seed the workload ran under (the `repro` header).
    seed: u64,
    /// OS threads the workload ran across (the `repro` header).
    threads: u64,
    /// Workload parameters, for bit-for-bit regeneration from the report.
    params: Vec<(String, Json)>,
}

impl BenchRunner {
    /// Creates a runner for the experiment `name` with
    /// [`knobs::bench_iters`] (`FBUF_BENCH_ITERS`, default 5) iterations
    /// per scenario.
    pub fn new(name: &str) -> BenchRunner {
        BenchRunner::named(name, knobs::bench_iters())
    }

    /// Creates a runner with an explicit iteration count. The seed is
    /// [`knobs::bench_seed`], the thread count 1, and `repro.params`
    /// starts with the default chunk-admission `policy` (a sweep
    /// overrides it with [`BenchRunner::param`]).
    pub fn named(name: &str, iters: usize) -> BenchRunner {
        BenchRunner {
            name: name.to_string(),
            iters,
            scenarios: Vec::new(),
            artifacts: Vec::new(),
            counters: None,
            latency: Vec::new(),
            telemetry_cadence_ns: metrics::DEFAULT_CADENCE_NS,
            telemetry: Vec::new(),
            host_throughput: Vec::new(),
            host_scaling: Vec::new(),
            host_scaling_floor: None,
            host_parallel_capacity: None,
            host_telemetry_overhead: None,
            seed: knobs::bench_seed(),
            threads: 1,
            params: vec![(
                "policy".to_string(),
                QuotaPolicy::default().name().to_json(),
            )],
        }
    }

    /// Records the RNG seed the workload ran under, for the report's
    /// `repro` header.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Records the OS-thread count the workload ran across (`repro`
    /// header; default 1).
    pub fn set_threads(&mut self, threads: u64) {
        self.threads = threads.max(1);
    }

    /// Records one workload parameter in the report's `repro.params`
    /// header, replacing an earlier value of the same key in place. A
    /// report whose header lists every knob the run consumed can be
    /// regenerated bit-for-bit from the report alone.
    pub fn param(&mut self, key: &str, value: impl ToJson) {
        let value = value.to_json();
        match self.params.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.params.push((key.to_string(), value)),
        }
    }

    /// Iterations each scenario runs.
    pub fn iters(&self) -> usize {
        self.iters
    }

    /// Runs `f` for this runner's iteration count, recording one simulated
    /// sample per call under `label`. Each call is also timed with the
    /// host's monotonic clock, feeding the report's `host` block.
    pub fn measure(&mut self, label: &str, unit: Unit, mut f: impl FnMut() -> f64) {
        let mut samples = Vec::with_capacity(self.iters);
        let mut host_ns = Vec::with_capacity(self.iters);
        for _ in 0..self.iters {
            let t0 = std::time::Instant::now();
            samples.push(f());
            host_ns.push(t0.elapsed().as_nanos() as f64);
        }
        self.scenarios.push(Scenario {
            label: label.to_string(),
            unit,
            samples,
            host_ns,
        });
    }

    /// Records an engine-throughput measurement under `host.throughput`:
    /// `ops` operations took `elapsed_ns` of host wall-clock. An optional
    /// `baseline_ns_per_op` from a reference engine build adds a
    /// `speedup_vs_baseline` field.
    pub fn host_throughput(
        &mut self,
        label: &str,
        ops: u64,
        elapsed_ns: u64,
        baseline_ns_per_op: Option<f64>,
    ) {
        self.host_throughput.push(HostThroughput {
            label: label.to_string(),
            ops,
            elapsed_ns,
            baseline_ns_per_op,
        });
    }

    /// Records the wall-clock thread-scaling curve under `host.scaling`:
    /// one [`ScalingPoint`] per thread count, in ascending order, each
    /// reported with its [`scaled`] rates.
    pub fn host_scaling(&mut self, points: &[ScalingPoint]) {
        self.host_scaling.extend_from_slice(points);
    }

    /// Records the parallel-efficiency floor the run was gated on, under
    /// `host.scaling_floor` (`{threads, efficiency}`). The floor travels
    /// with the report, so every later [`check`] re-enforces it.
    pub fn host_scaling_floor(&mut self, threads: u64, efficiency: f64) {
        self.host_scaling_floor = Some((threads, efficiency));
    }

    /// Records the host's parallel capacity at `threads` threads, under
    /// `host.parallel_capacity` (`{threads, ratio}`): the work `threads`
    /// threads of pure arithmetic did in one thread's time, over one
    /// thread's. A floor at the same thread count is then judged as the
    /// fleet's speedup over this ratio, not over `threads`.
    pub fn host_parallel_capacity(&mut self, threads: u64, ratio: f64) {
        self.host_parallel_capacity = Some((threads, ratio));
    }

    /// Records what telemetry costs the run's host time, under
    /// `host.telemetry_overhead`: host time with telemetry on over host
    /// time with it off (1.0 = free).
    pub fn host_telemetry_overhead(&mut self, ratio: f64) {
        self.host_telemetry_overhead = Some(ratio);
    }

    /// Attaches a regenerated paper artifact (table rows, figure curves) to
    /// the JSON report under `artifacts.<key>`.
    pub fn artifact(&mut self, key: &str, value: Json) {
        self.artifacts.push((key.to_string(), value));
    }

    /// Attaches the operation-counter delta of a representative workload
    /// (a [`StatsSnapshot::delta`] over the measured section) to the
    /// report's `counters` object. Repeated calls accumulate.
    pub fn counters(&mut self, delta: &StatsSnapshot) {
        self.counters = Some(match &self.counters {
            None => delta.clone(),
            Some(acc) => acc.merge(delta),
        });
    }

    /// Attaches a latency percentile block (see [`Histogram`]'s `ToJson`)
    /// under `latency` with the given label. Empty histograms are
    /// skipped — a percentile over nothing is noise.
    pub fn latency(&mut self, label: &str, hist: &Histogram) {
        if !hist.is_empty() {
            self.latency.push((label.to_string(), hist.clone()));
        }
    }

    /// Attaches sampled telemetry series (and the cadence they were
    /// sampled at) to the report's `telemetry` block. Repeated calls
    /// append.
    pub fn telemetry(&mut self, cadence_ns: u64, series: &[SeriesSnapshot]) {
        self.telemetry_cadence_ns = cadence_ns;
        self.telemetry.extend_from_slice(series);
    }

    /// The full report as a JSON value (the exact document `finish` writes).
    pub fn report(&self) -> Json {
        let results: Vec<Json> = self
            .scenarios
            .iter()
            .map(|s| {
                let sum = summarize(&s.samples);
                Json::obj(vec![
                    ("label", s.label.to_json()),
                    ("unit", s.unit.label().to_json()),
                    ("n", sum.n.to_json()),
                    ("median", sum.median.to_json()),
                    ("p10", sum.p10.to_json()),
                    ("p90", sum.p90.to_json()),
                    ("samples", s.samples.to_json()),
                ])
            })
            .collect();
        let latency: Vec<Json> = self
            .latency
            .iter()
            .map(|(label, h)| {
                let mut fields = vec![("label".to_string(), label.to_json())];
                if let Json::Obj(hist_fields) = h.to_json() {
                    fields.extend(hist_fields);
                }
                Json::Obj(fields)
            })
            .collect();
        let host_scenarios: Vec<Json> = self
            .scenarios
            .iter()
            .filter(|s| !s.host_ns.is_empty())
            .map(|s| {
                let sum = summarize(&s.host_ns);
                let calls_per_sec = if sum.median > 0.0 {
                    1e9 / sum.median
                } else {
                    0.0
                };
                Json::obj(vec![
                    ("label", s.label.to_json()),
                    ("median_ns", sum.median.to_json()),
                    ("p10_ns", sum.p10.to_json()),
                    ("p90_ns", sum.p90.to_json()),
                    ("calls_per_sec", calls_per_sec.to_json()),
                ])
            })
            .collect();
        let host_tp: Vec<Json> = self
            .host_throughput
            .iter()
            .map(|t| {
                let (ns_per_op, ops_per_sec, speedup) = t.rates();
                let mut fields = vec![
                    ("label", t.label.to_json()),
                    ("ops", t.ops.to_json()),
                    ("elapsed_ns", t.elapsed_ns.to_json()),
                    ("ns_per_op", ns_per_op.to_json()),
                    ("ops_per_sec", ops_per_sec.to_json()),
                ];
                if let Some(base) = t.baseline_ns_per_op {
                    fields.push(("baseline_ns_per_op", base.to_json()));
                }
                if let Some(s) = speedup {
                    fields.push(("speedup_vs_baseline", s.to_json()));
                }
                Json::obj(fields)
            })
            .collect();
        let host_scaling: Vec<Json> = scaled(&self.host_scaling)
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("threads", s.point.threads.to_json()),
                    ("ops", s.point.ops.to_json()),
                    ("elapsed_ns", s.point.elapsed_ns.to_json()),
                    ("repeats", s.point.repeats.to_json()),
                    ("ops_per_sec", s.ops_per_sec.to_json()),
                    ("speedup_vs_1t", s.speedup.to_json()),
                    ("efficiency", s.efficiency.to_json()),
                ])
            })
            .collect();
        let mut host_fields = vec![
            ("timebase", "wall_clock_ns".to_json()),
            ("scenarios", Json::Arr(host_scenarios)),
            ("throughput", Json::Arr(host_tp)),
            ("scaling", Json::Arr(host_scaling)),
        ];
        if let Some(ratio) = self.host_telemetry_overhead {
            host_fields.push(("telemetry_overhead", ratio.to_json()));
        }
        if let Some((threads, efficiency)) = self.host_scaling_floor {
            host_fields.push((
                "scaling_floor",
                Json::obj(vec![
                    ("threads", threads.to_json()),
                    ("efficiency", efficiency.to_json()),
                ]),
            ));
        }
        if let Some((threads, ratio)) = self.host_parallel_capacity {
            host_fields.push((
                "parallel_capacity",
                Json::obj(vec![
                    ("threads", threads.to_json()),
                    ("ratio", ratio.to_json()),
                ]),
            ));
        }
        let repro = Json::obj(vec![
            ("seed", self.seed.to_json()),
            ("threads", self.threads.to_json()),
            ("params", Json::Obj(self.params.clone())),
        ]);
        Json::obj(vec![
            ("bench", self.name.to_json()),
            ("timebase", "simulated".to_json()),
            ("iters", self.iters.to_json()),
            ("repro", repro),
            ("results", Json::Arr(results)),
            ("host", Json::obj(host_fields)),
            (
                "counters",
                self.counters
                    .as_ref()
                    .map_or_else(|| Json::obj(vec![]), ToJson::to_json),
            ),
            ("latency", Json::Arr(latency)),
            (
                "telemetry",
                metrics::telemetry_json(self.telemetry_cadence_ns, &self.telemetry),
            ),
            ("artifacts", Json::Obj(self.artifacts.clone())),
        ])
    }

    /// Prints the summary table, then checks and writes
    /// `BENCH_<name>.json` with [`write()`].
    pub fn finish(self) -> Result<PathBuf, String> {
        println!("\n== bench {} (simulated time) ==", self.name);
        println!(
            "{:<36} {:>9} {:>12} {:>12} {:>12}",
            "scenario", "unit", "median", "p10", "p90"
        );
        for s in &self.scenarios {
            let sum = summarize(&s.samples);
            println!(
                "{:<36} {:>9} {:>12.2} {:>12.2} {:>12.2}",
                s.label,
                s.unit.label(),
                sum.median,
                sum.p10,
                sum.p90
            );
        }
        for t in &self.host_throughput {
            let (ns_per_op, ops_per_sec, speedup) = t.rates();
            print!(
                "host: {:<29} {:>10} ops in {:>8.1} ms -> {:>8.1} ns/op, {:>11.0} ops/s",
                t.label,
                t.ops,
                t.elapsed_ns as f64 / 1e6,
                ns_per_op,
                ops_per_sec
            );
            match (speedup, t.baseline_ns_per_op) {
                (Some(s), Some(base)) => println!(" ({s:.2}x vs baseline {base:.1} ns/op)"),
                _ => println!(),
            }
        }
        if !self.host_scaling.is_empty() {
            println!("host scaling (wall-clock):");
            for s in scaled(&self.host_scaling) {
                println!(
                    "  {:>2} thread(s): {:>11.0} ops/s  ({:.2}x vs first, {:.0}% of linear)",
                    s.point.threads,
                    s.ops_per_sec,
                    s.speedup,
                    s.efficiency * 100.0
                );
            }
        }
        write(&format!("BENCH_{}.json", self.name), &self.report())
    }
}

/// The `LEDGER_fleet.json` document of a fleet run: the ledger tables,
/// the fleet's whole-life counters, the notice-plane summary
/// (`[batches, tokens, orphans]`) and the conservation verdict.
pub fn ledger_doc(
    shards: u64,
    cycles: u64,
    ledger: &Ledger,
    life: &StatsSnapshot,
    [batches, tokens, orphans]: [u64; 3],
    violations: &[String],
) -> Json {
    Json::obj(vec![
        ("name", "ledger_fleet".to_json()),
        ("shards", shards.to_json()),
        ("cycles", cycles.to_json()),
        ("ledger", ledger.to_json()),
        ("counters", life.to_json()),
        (
            "notice_plane",
            Json::obj(vec![
                ("batches", batches.to_json()),
                ("tokens", tokens.to_json()),
                ("orphans", orphans.to_json()),
            ]),
        ),
        (
            "conservation",
            Json::obj(vec![("violations", violations.to_json())]),
        ),
    ])
}

/// Checks `doc` against the contract for the file name `file`, then
/// writes it into the report directory ([`knobs::bench_dir`]).
///
/// The document is checked as it will be read back: rendered, then
/// re-parsed with the in-repo parser.
pub fn write(file: &str, doc: &Json) -> Result<PathBuf, String> {
    let text = doc.render();
    let back = Json::parse(&text).map_err(|e| format!("{file}: JSON parse failed: {e:?}"))?;
    check(file, &back)?;
    let dir = knobs::bench_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(path)
}

/// The document kinds of the contract, by file-name prefix.
const PREFIXES: [&str; 3] = ["BENCH_", "LEDGER_", "TRACE_"];

/// Checks one document against the contract its file name selects:
///
/// * `BENCH_*` — a `host` block with `timebase: wall_clock_ns`, the
///   `repro` header (`check_repro`), the `telemetry` block
///   (`check_telemetry`) and any scaling curve (`check_scaling`);
///   `BENCH_stress.json` must also carry the shard gauges and a curve;
/// * `LEDGER_*` — `check_ledger`;
/// * `TRACE_*` — `check_trace`.
pub fn check(file: &str, doc: &Json) -> Result<(), String> {
    if file.starts_with("LEDGER_") {
        return check_ledger(file, doc);
    }
    if file.starts_with("TRACE_") {
        return check_trace(file, doc);
    }
    if !file.starts_with("BENCH_") {
        return Err(format!(
            "{file}: not a report name (want one of {PREFIXES:?})"
        ));
    }
    let host = doc
        .get("host")
        .ok_or(format!("{file}: missing `host` block"))?;
    host.get("timebase")
        .and_then(Json::as_str)
        .filter(|&t| t == "wall_clock_ns")
        .ok_or(format!("{file}: `host.timebase` is not wall_clock_ns"))?;
    let stress = file == "BENCH_stress.json";
    check_repro(file, doc)?;
    check_telemetry(file, doc, stress)?;
    check_scaling(file, doc, stress)
}

/// Checks every `BENCH_*.json`, `LEDGER_*.json` and `TRACE_*.json` in
/// `dir` with [`check`], in file-name order. Returns how many it checked;
/// a directory without any is an error.
pub fn check_dir(dir: &Path) -> Result<usize, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let name = entry
            .map_err(|e| format!("read_dir entry: {e}"))?
            .file_name()
            .to_string_lossy()
            .into_owned();
        if name.ends_with(".json") && PREFIXES.iter().any(|p| name.starts_with(p)) {
            files.push(name);
        }
    }
    if files.is_empty() {
        return Err(format!("no reports found in {}", dir.display()));
    }
    files.sort();
    for name in &files {
        let path = dir.join(name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{name}: JSON parse failed: {e:?}"))?;
        check(name, &doc)?;
    }
    Ok(files.len())
}

/// Validates the `repro` header every report must carry: a numeric seed,
/// a thread count of at least 1, and a params object that names the
/// chunk-admission policy the run executed under (a string, or a
/// non-empty array of strings for multi-policy sweeps).
fn check_repro(name: &str, doc: &Json) -> Result<(), String> {
    let repro = doc
        .get("repro")
        .ok_or(format!("{name}: missing `repro` header"))?;
    repro
        .get("seed")
        .and_then(Json::as_f64)
        .ok_or(format!("{name}: `repro.seed` is not a number"))?;
    let threads = repro
        .get("threads")
        .and_then(Json::as_f64)
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

/// Validates the `telemetry` block every report must carry: a positive
/// sampling cadence and a (possibly empty) series array whose entries
/// each name a gauge and hold `[t, v]` points with non-decreasing
/// timestamps. `shard_gauges` additionally requires the batched-plane
/// gauges (per shard, namespace-prefixed `s<N>.<gauge>`) — only the
/// stress report runs a shard fleet, so only it can carry them — and
/// what telemetry cost the run (`host.telemetry_overhead`, a positive
/// ratio), unless the report says it ran with telemetry off
/// (`repro.params.telemetry` false), in which case it must carry no
/// points at all.
fn check_telemetry(name: &str, doc: &Json, shard_gauges: bool) -> Result<(), String> {
    let tel = doc
        .get("telemetry")
        .ok_or(format!("{name}: missing `telemetry` block"))?;
    let cadence = tel
        .get("cadence_ns")
        .and_then(Json::as_f64)
        .ok_or(format!("{name}: `telemetry.cadence_ns` is not a number"))?;
    if cadence <= 0.0 {
        return Err(format!("{name}: telemetry cadence {cadence} (want > 0)"));
    }
    let series = tel
        .get("series")
        .and_then(Json::as_arr)
        .ok_or(format!("{name}: `telemetry.series` is not an array"))?;
    let mut names = Vec::new();
    for s in series {
        let sname = s
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("{name}: a telemetry series lacks a name"))?;
        names.push(sname);
        let points = s
            .get("points")
            .and_then(Json::as_arr)
            .ok_or(format!("{name}: series {sname} lacks points"))?;
        let mut prev = f64::NEG_INFINITY;
        for (i, p) in points.iter().enumerate() {
            let t = p
                .as_arr()
                .and_then(<[Json]>::first)
                .and_then(Json::as_f64)
                .ok_or(format!(
                    "{name}: series {sname} point {i} lacks a timestamp"
                ))?;
            if t < prev {
                return Err(format!(
                    "{name}: series {sname} timestamps go backwards at point {i}"
                ));
            }
            prev = t;
        }
    }
    let off = doc
        .get("repro")
        .and_then(|r| r.get("params"))
        .and_then(|p| p.get("telemetry"))
        == Some(&Json::Bool(false));
    if off {
        let points: usize = series
            .iter()
            .filter_map(|s| s.get("points").and_then(Json::as_arr))
            .map(<[Json]>::len)
            .sum();
        if points > 0 {
            return Err(format!(
                "{name}: telemetry off, yet the report carries {points} telemetry points"
            ));
        }
    } else if shard_gauges {
        for gauge in [
            metrics::GAUGE_RING_BATCH_OCCUPANCY,
            metrics::GAUGE_NOTICE_COALESCE_FACTOR,
        ] {
            if !names.iter().any(|n| n.ends_with(gauge)) {
                return Err(format!("{name}: telemetry lacks a `{gauge}` series"));
            }
        }
        let overhead = doc
            .get("host")
            .and_then(|h| h.get("telemetry_overhead"))
            .and_then(Json::as_f64)
            .ok_or(format!("{name}: `host.telemetry_overhead` is not a number"))?;
        if overhead <= 0.0 {
            return Err(format!("{name}: telemetry overhead {overhead} (want > 0)"));
        }
    }
    Ok(())
}

/// Validates a `host.scaling` curve: strictly increasing thread counts,
/// positive ops/sec, efficiency in (0, 1.05], and any recorded
/// `host.scaling_floor` still met, judged against a positive
/// `host.parallel_capacity` at its thread count when there is one.
/// `required` makes an empty (or absent) curve an error — the stress
/// report must carry one.
fn check_scaling(name: &str, doc: &Json, required: bool) -> Result<(), String> {
    let host = doc.get("host");
    let scaling = host
        .and_then(|h| h.get("scaling"))
        .and_then(Json::as_arr)
        .unwrap_or_default();
    if scaling.is_empty() {
        if required {
            return Err(format!("{name}: stress report lacks a host.scaling curve"));
        }
        return Ok(());
    }
    let mut prev_threads = 0.0;
    for (i, point) in scaling.iter().enumerate() {
        let field = |key: &str| {
            point
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: scaling[{i}] lacks a numeric `{key}`"))
        };
        let threads = field("threads")?;
        if threads <= prev_threads {
            return Err(format!(
                "{name}: scaling thread counts not strictly increasing at index {i}"
            ));
        }
        prev_threads = threads;
        let ops_per_sec = field("ops_per_sec")?;
        if ops_per_sec <= 0.0 {
            return Err(format!(
                "{name}: scaling[{i}] ops_per_sec = {ops_per_sec} (want > 0)"
            ));
        }
        let efficiency = field("efficiency")?;
        if efficiency <= 0.0 || efficiency > 1.05 {
            return Err(format!(
                "{name}: scaling[{i}] efficiency = {efficiency} (want in (0, 1.05])"
            ));
        }
    }
    // A recorded floor is a ratchet: the report promised this parallel
    // efficiency when it was written, so it must still hold every time
    // the document is checked.
    if let Some(floor) = host.and_then(|h| h.get("scaling_floor")) {
        let ft = floor
            .get("threads")
            .and_then(Json::as_f64)
            .ok_or(format!("{name}: `scaling_floor.threads` is not a number"))?;
        let fe = floor
            .get("efficiency")
            .and_then(Json::as_f64)
            .ok_or(format!(
                "{name}: `scaling_floor.efficiency` is not a number"
            ))?;
        let point = scaling
            .iter()
            .find(|p| p.get("threads").and_then(Json::as_f64) == Some(ft))
            .ok_or(format!(
                "{name}: scaling_floor names {ft} thread(s), absent from the scaling curve"
            ))?;
        let mut eff = point
            .get("efficiency")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        // Measured at the floor's thread count, the host's capacity is
        // what the fleet's speedup is judged against.
        if let Some(cap) = host.and_then(|h| h.get("parallel_capacity")) {
            let ratio = cap
                .get("ratio")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: `parallel_capacity.ratio` is not a number"))?;
            if ratio <= 0.0 {
                return Err(format!("{name}: parallel capacity {ratio} (want > 0)"));
            }
            if cap.get("threads").and_then(Json::as_f64) == Some(ft) {
                // As the gate did: a reading above linear is noise.
                eff = point
                    .get("speedup_vs_1t")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    / ratio.min(ft);
            }
        }
        if eff < fe {
            return Err(format!(
                "{name}: efficiency {eff:.3} at {ft} thread(s) is below the recorded floor {fe:.3}"
            ));
        }
    }
    Ok(())
}

/// Validates a `LEDGER_*.json` document: the domain/path tables with
/// totals, the counter snapshot, and an empty
/// `conservation.violations` array.
fn check_ledger(name: &str, doc: &Json) -> Result<(), String> {
    let ledger = doc
        .get("ledger")
        .ok_or(format!("{name}: missing `ledger`"))?;
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
        .and_then(Json::as_arr)
        .map(<[Json]>::len)
        .ok_or(format!("{name}: missing `conservation.violations`"))?;
    if violations > 0 {
        return Err(format!(
            "{name}: ledger does not conserve its counters ({violations} violation(s))"
        ));
    }
    Ok(())
}

/// Validates a `TRACE_*.json` Chrome trace: its events include the
/// `Alloc`, `Transfer`, `CacheHit` and `Free` kinds, and it carries the
/// `dropped_events` counter.
fn check_trace(name: &str, doc: &Json) -> Result<(), String> {
    let kinds: Vec<&str> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map(|evs| {
            evs.iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str))
                .collect()
        })
        .unwrap_or_default();
    for required in ["Alloc", "Transfer", "CacheHit", "Free"] {
        if !kinds.contains(&required) {
            return Err(format!(
                "{name}: trace is missing required event kind {required}"
            ));
        }
    }
    doc.get("dropped_events")
        .and_then(Json::as_f64)
        .ok_or(format!(
            "{name}: trace is missing the dropped_events counter"
        ))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_sim::metrics::Gauge;
    use fbuf_sim::Ns;

    #[test]
    fn summarize_order_statistics() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p10, 1.0);
        assert_eq!(s.p90, 5.0);
        let one = summarize(&[7.5]);
        assert_eq!((one.median, one.p10, one.p90), (7.5, 7.5, 7.5));
    }

    #[test]
    fn report_schema_has_expected_fields() {
        let mut r = BenchRunner::named("schema_check", 4);
        let mut x = 0.0;
        r.measure("ramp", Unit::Mbps, || {
            x += 10.0;
            x
        });
        r.artifact(
            "rows",
            Json::Arr(vec![Json::obj(vec![("a", 1u64.to_json())])]),
        );
        let doc = r.report();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("schema_check"));
        assert_eq!(doc.get("timebase").unwrap().as_str(), Some("simulated"));
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 1);
        let row = &results[0];
        assert_eq!(row.get("label").unwrap().as_str(), Some("ramp"));
        assert_eq!(row.get("unit").unwrap().as_str(), Some("mbps"));
        assert_eq!(row.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(row.get("median").unwrap().as_f64(), Some(30.0));
        assert_eq!(row.get("p10").unwrap().as_f64(), Some(10.0));
        assert_eq!(row.get("p90").unwrap().as_f64(), Some(40.0));
        assert!(doc.get("artifacts").unwrap().get("rows").is_some());
    }

    #[test]
    fn report_carries_counters_and_latency_blocks() {
        use fbuf_sim::Stats;
        let mut r = BenchRunner::named("observed", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        // Counter delta over a fake measured section.
        let mut s = Stats::new();
        let before = s.snapshot();
        s.inc_fbuf_cache_hits();
        s.inc_fbuf_cache_hits();
        r.counters(&s.snapshot().delta(&before));
        // Accumulation across workloads.
        let mark = s.snapshot();
        s.inc_pdus_sent();
        r.counters(&s.snapshot().delta(&mark));
        let mut h = Histogram::new();
        h.record(5_000);
        h.record(6_000);
        r.latency("transfer", &h);
        r.latency("empty", &Histogram::new()); // skipped
        let doc = r.report();
        let counters = doc.get("counters").expect("counters object");
        assert!(counters.get("fbuf_cache_hits").unwrap().as_f64().unwrap() >= 2.0);
        let lat = doc.get("latency").unwrap().as_arr().unwrap();
        assert_eq!(lat.len(), 1, "empty histogram skipped");
        assert_eq!(lat[0].get("label").unwrap().as_str(), Some("transfer"));
        assert!(lat[0].get("p50_ns").unwrap().as_f64().unwrap() >= 5_000.0);
        assert!(lat[0].get("p99_ns").is_some());
    }

    #[test]
    fn counters_and_latency_keys_always_present() {
        let mut r = BenchRunner::named("bare", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        let doc = r.report();
        assert!(doc.get("counters").is_some(), "counters key is stable");
        assert_eq!(doc.get("latency").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn telemetry_block_always_present_and_carries_series() {
        // Bare report: the block exists with the default cadence and no
        // series, so the checker can rely on the key unconditionally.
        let mut r = BenchRunner::named("bare_telemetry", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        let doc = r.report();
        let t = doc.get("telemetry").expect("telemetry key is stable");
        assert_eq!(
            t.get("cadence_ns").unwrap().as_f64(),
            Some(metrics::DEFAULT_CADENCE_NS as f64)
        );
        assert_eq!(t.get("series").unwrap().as_arr().unwrap().len(), 0);

        // Attached series come through with name, drop count, and
        // [t, v] points in sampling order.
        let m = metrics::Metrics::new();
        m.set_enabled(true);
        m.sampler(Ns(10))
            .unwrap()
            .record(metrics::Gauge::Inbox(0), || 3);
        m.advance(Ns(20_000));
        m.sampler(Ns(20_000))
            .unwrap()
            .record(metrics::Gauge::Inbox(0), || 5);
        let mut r = BenchRunner::named("with_telemetry", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        r.telemetry(metrics::DEFAULT_CADENCE_NS, &m.series());
        let doc = r.report();
        let tele = doc.get("telemetry").unwrap();
        let series = tele.get("series").unwrap().as_arr().unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].get("name").unwrap().as_str(), Some("inbox0"));
        let points = series[0].get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 2);
        let ts: Vec<f64> = points
            .iter()
            .map(|p| p.as_arr().unwrap()[0].as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "points time-ordered");
    }

    #[test]
    fn host_block_reports_wall_clock_for_every_scenario() {
        let mut r = BenchRunner::named("hosted", 3);
        r.measure("work", Unit::SimUs, || 1.0);
        r.host_throughput("steady_state", 1_000, 2_000_000, None);
        let doc = r.report();
        let host = doc.get("host").expect("host block present");
        assert_eq!(
            host.get("timebase").unwrap().as_str(),
            Some("wall_clock_ns")
        );
        let scen = host.get("scenarios").unwrap().as_arr().unwrap();
        assert_eq!(scen.len(), 1);
        assert_eq!(scen[0].get("label").unwrap().as_str(), Some("work"));
        assert!(scen[0].get("median_ns").unwrap().as_f64().is_some());
        let tp = host.get("throughput").unwrap().as_arr().unwrap();
        assert_eq!(tp.len(), 1);
        assert_eq!(tp[0].get("ops").unwrap().as_f64(), Some(1_000.0));
        assert_eq!(tp[0].get("ns_per_op").unwrap().as_f64(), Some(2_000.0));
        assert_eq!(tp[0].get("ops_per_sec").unwrap().as_f64(), Some(500_000.0));
        assert!(tp[0].get("baseline_ns_per_op").is_none());
    }

    #[test]
    fn host_throughput_carries_baseline_speedup() {
        let mut r = BenchRunner::named("speedup", 1);
        r.host_throughput("steady_state", 100, 100_000, Some(4_000.0));
        let doc = r.report();
        let tp = &doc
            .get("host")
            .unwrap()
            .get("throughput")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert_eq!(
            tp.get("baseline_ns_per_op").unwrap().as_f64(),
            Some(4_000.0)
        );
        // 1000 ns/op measured vs 4000 ns/op baseline = 4x.
        assert_eq!(tp.get("speedup_vs_baseline").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn every_report_carries_a_repro_header() {
        let mut r = BenchRunner::named("reproducible", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        let doc = r.report();
        let repro = doc.get("repro").expect("repro header always present");
        assert!(repro.get("seed").unwrap().as_f64().is_some());
        assert_eq!(repro.get("threads").unwrap().as_f64(), Some(1.0));
        assert!(
            repro.get("params").is_some(),
            "params object always present"
        );
    }

    #[test]
    fn repro_header_records_seed_threads_and_params() {
        let mut r = BenchRunner::named("knobs", 1);
        r.set_seed(0xdead_beef);
        r.set_threads(4);
        r.param("msgs", 128u64);
        r.param("size", 65_536u64);
        let doc = Json::parse(&r.report().render()).unwrap();
        let repro = doc.get("repro").unwrap();
        assert_eq!(
            repro.get("seed").unwrap().as_f64(),
            Some(0xdead_beefu32 as f64)
        );
        assert_eq!(repro.get("threads").unwrap().as_f64(), Some(4.0));
        let params = repro.get("params").unwrap();
        assert_eq!(params.get("msgs").unwrap().as_f64(), Some(128.0));
        assert_eq!(params.get("size").unwrap().as_f64(), Some(65_536.0));
    }

    #[test]
    fn scaling_block_derives_speedup_and_efficiency() {
        let mut r = BenchRunner::named("scaled", 1);
        r.host_scaling(&[
            ScalingPoint {
                threads: 1,
                ops: 1_000,
                elapsed_ns: 1_000_000,
                repeats: 1,
            },
            ScalingPoint {
                threads: 2,
                ops: 2_000,
                elapsed_ns: 1_250_000,
                repeats: 1,
            },
            ScalingPoint {
                threads: 4,
                ops: 4_000,
                elapsed_ns: 1_600_000,
                repeats: 1,
            },
        ]);
        let doc = r.report();
        let scaling = doc
            .get("host")
            .unwrap()
            .get("scaling")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(scaling.len(), 3);
        assert_eq!(scaling[0].get("threads").unwrap().as_f64(), Some(1.0));
        assert_eq!(scaling[0].get("ops_per_sec").unwrap().as_f64(), Some(1e6));
        assert_eq!(scaling[0].get("speedup_vs_1t").unwrap().as_f64(), Some(1.0));
        assert_eq!(scaling[0].get("efficiency").unwrap().as_f64(), Some(1.0));
        // 2 threads: 1.6x speedup -> 80% efficiency.
        assert_eq!(scaling[1].get("speedup_vs_1t").unwrap().as_f64(), Some(1.6));
        assert!((scaling[1].get("efficiency").unwrap().as_f64().unwrap() - 0.8).abs() < 1e-9);
        // 4 threads: 2.5x speedup -> 62.5% efficiency.
        assert_eq!(scaling[2].get("speedup_vs_1t").unwrap().as_f64(), Some(2.5));
        assert!((scaling[2].get("efficiency").unwrap().as_f64().unwrap() - 0.625).abs() < 1e-9);
    }

    #[test]
    fn scaling_floor_travels_in_the_host_block() {
        let mut r = BenchRunner::named("floored", 1);
        r.host_scaling(&[ScalingPoint {
            threads: 2,
            ops: 2_000,
            elapsed_ns: 1_000_000,
            repeats: 1,
        }]);
        r.host_scaling_floor(2, 0.6);
        let doc = r.report();
        let floor = doc
            .get("host")
            .unwrap()
            .get("scaling_floor")
            .expect("floor recorded");
        assert_eq!(floor.get("threads").unwrap().as_f64(), Some(2.0));
        assert_eq!(floor.get("efficiency").unwrap().as_f64(), Some(0.6));
        // Absent unless explicitly set.
        let bare = BenchRunner::named("bare", 1).report();
        assert!(bare.get("host").unwrap().get("scaling_floor").is_none());
    }

    #[test]
    fn scaling_block_is_an_empty_array_when_unused() {
        let mut r = BenchRunner::named("unscaled", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        let doc = r.report();
        let scaling = doc
            .get("host")
            .unwrap()
            .get("scaling")
            .unwrap()
            .as_arr()
            .unwrap();
        assert!(scaling.is_empty());
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let mut r = BenchRunner::named("roundtrip", 2);
        r.measure("slope", Unit::SimUs, || 21.0);
        let text = r.report().render();
        let back = Json::parse(&text).unwrap();
        let row = &back.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("median").unwrap().as_f64(), Some(21.0));
        assert_eq!(row.get("unit").unwrap().as_str(), Some("sim_us"));
    }

    #[test]
    fn param_replaces_in_place_and_policy_comes_first() {
        let mut r = BenchRunner::named("params", 1);
        r.param("flows", 8u64);
        r.param("policy", Json::Arr(vec!["static".to_json()]));
        let doc = r.report();
        let Some(Json::Obj(params)) = doc.get("repro").and_then(|p| p.get("params")) else {
            panic!("params object");
        };
        let keys: Vec<&str> = params.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["policy", "flows"]);
        assert_eq!(params[0].1.as_arr().map(<[Json]>::len), Some(1));
    }

    #[test]
    fn scaled_rates_match_the_report() {
        let points = [
            ScalingPoint {
                threads: 2,
                ops: 2_000,
                elapsed_ns: 1_000_000,
                repeats: 1,
            },
            ScalingPoint {
                threads: 4,
                ops: 3_000,
                elapsed_ns: 1_000_000,
                repeats: 1,
            },
        ];
        let s = scaled(&points);
        assert_eq!((s[0].speedup, s[0].efficiency), (1.0, 1.0));
        assert_eq!(
            (s[1].ops_per_sec, s[1].speedup, s[1].efficiency),
            (3e6, 1.5, 0.75)
        );
        assert_eq!(host_rate(0, 0), (0.0, 0.0));
        assert_eq!(host_rate(4, 2_000), (500.0, 2e6));
        let idle = scaled(&[ScalingPoint {
            threads: 1,
            ops: 0,
            elapsed_ns: 0,
            repeats: 1,
        }]);
        assert_eq!((idle[0].speedup, idle[0].efficiency), (0.0, 0.0));
    }

    /// A well-formed runner report. As `stress`, it also carries what
    /// only the stress report must: a scaling curve with a floor, and
    /// the shard gauges.
    fn bench_doc(stress: bool) -> Json {
        let mut r = BenchRunner::named(if stress { "stress" } else { "plain" }, 2);
        r.measure("x", Unit::SimUs, || 1.0);
        if stress {
            r.param("telemetry", true);
        }
        let m = fbuf_sim::Metrics::new();
        m.set_enabled(true);
        for t in [10, 20_000] {
            m.advance(Ns(t));
            let mut s = m.sampler(Ns(t)).expect("enabled");
            s.record(Gauge::Inbox(0), || t);
            if stress {
                s.record(Gauge::RingBatchOccupancy, || 1);
                s.record(Gauge::NoticeCoalesceFactor, || 2);
            }
        }
        r.telemetry(metrics::DEFAULT_CADENCE_NS, &m.series());
        if stress {
            r.host_scaling(&[
                ScalingPoint {
                    threads: 1,
                    ops: 1_000,
                    elapsed_ns: 1_000_000,
                    repeats: 1,
                },
                ScalingPoint {
                    threads: 2,
                    ops: 1_600,
                    elapsed_ns: 1_000_000,
                    repeats: 1,
                },
            ]);
            r.host_scaling_floor(2, 0.6);
            r.host_parallel_capacity(2, 1.9);
            r.host_telemetry_overhead(1.1);
        }
        Json::parse(&r.report().render()).expect("report parses")
    }

    fn ledger_good() -> Json {
        ledger_doc(
            2,
            10,
            &Ledger::new(),
            &StatsSnapshot::default(),
            [0; 3],
            &[],
        )
    }

    fn trace_good() -> Json {
        let ev = |name: &str| Json::obj(vec![("name", name.to_json())]);
        Json::obj(vec![
            (
                "traceEvents",
                Json::Arr(["Alloc", "Transfer", "CacheHit", "Free"].map(ev).to_vec()),
            ),
            ("dropped_events", 0u64.to_json()),
        ])
    }

    /// The member `key` of an object, or element `key` of an array.
    fn member<'a>(node: &'a mut Json, key: &str) -> &'a mut Json {
        match node {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            Json::Arr(items) => &mut items[key.parse::<usize>().expect(key)],
            _ => panic!("{key}: not a container"),
        }
    }

    /// Replaces (`Some`) or removes (`None`) the value at a dotted path.
    fn edit(doc: &mut Json, path: &str, value: Option<Json>) {
        let (parent, last) = path.rsplit_once('.').unwrap_or(("", path));
        let node = parent
            .split('.')
            .filter(|k| !k.is_empty())
            .fold(doc, |node, key| member(node, key));
        match value {
            Some(v) => *member(node, last) = v,
            None => match node {
                Json::Obj(fields) => fields.retain(|(k, _)| k != last),
                Json::Arr(items) => drop(items.remove(last.parse::<usize>().expect(last))),
                _ => panic!("{path}: not a container"),
            },
        }
    }

    #[test]
    fn contract_accepts_well_formed_documents_and_rejects_each_defect() {
        for (file, doc) in [
            ("BENCH_plain.json", bench_doc(false)),
            ("BENCH_stress.json", bench_doc(true)),
            ("LEDGER_fleet.json", ledger_good()),
            ("TRACE_loopback.json", trace_good()),
        ] {
            assert_eq!(check(file, &doc), Ok(()), "{file} is well-formed");
        }
        // A stress run with telemetry off carries no series, shard
        // gauges included.
        let mut off = bench_doc(true);
        edit(&mut off, "repro.params.telemetry", Some(false.to_json()));
        edit(&mut off, "telemetry.series", Some(Json::Arr(vec![])));
        assert_eq!(
            check("BENCH_stress.json", &off),
            Ok(()),
            "telemetry off is well-formed"
        );

        let s = |v: &str| Some(v.to_json());
        let n = |v: f64| Some(v.to_json());
        let arr = |v: Vec<Json>| Some(Json::Arr(v));
        let pt = |t: f64| Json::Arr(vec![t.to_json(), 1.0.to_json()]);
        // (file, base document, edit path, new value or removal, error
        // the checker must give).
        let plain = "BENCH_plain.json";
        let stress = "BENCH_stress.json";
        let ledger = "LEDGER_fleet.json";
        let trace = "TRACE_loopback.json";
        #[rustfmt::skip]
        let cases: Vec<(&str, &str, Option<Json>, &str)> = vec![
            (plain, "host", None, "missing `host` block"),
            (plain, "host.timebase", s("simulated"), "not wall_clock_ns"),
            (plain, "repro", None, "missing `repro` header"),
            (plain, "repro.seed", s("7"), "`repro.seed` is not a number"),
            (plain, "repro.threads", s("1"), "`repro.threads` is not a number"),
            (plain, "repro.threads", n(0.0), "`repro.threads` = 0"),
            (plain, "repro.params", arr(vec![]), "`repro.params` is not an object"),
            (plain, "repro.params.policy", None, "must name the admission policy"),
            (plain, "repro.params.policy", arr(vec![]), "must name the admission policy"),
            (plain, "repro.params.policy", arr(vec![1.0.to_json()]), "must name the admission policy"),
            (plain, "telemetry", None, "missing `telemetry` block"),
            (plain, "telemetry.cadence_ns", s("10"), "`telemetry.cadence_ns` is not a number"),
            (plain, "telemetry.cadence_ns", n(0.0), "telemetry cadence 0"),
            (plain, "telemetry.series", None, "`telemetry.series` is not an array"),
            (plain, "telemetry.series.0.name", None, "a telemetry series lacks a name"),
            (plain, "telemetry.series.0.points", None, "lacks points"),
            (plain, "telemetry.series.0.points.0", Some(Json::Arr(vec![])), "point 0 lacks a timestamp"),
            (plain, "telemetry.series.0.points", arr(vec![pt(20.0), pt(10.0)]), "timestamps go backwards"),
            (stress, "telemetry.series.2", None, "lacks a `notice_coalesce_factor` series"),
            (stress, "telemetry.series.1", None, "lacks a `ring_batch_occupancy` series"),
            (stress, "repro.params.telemetry", Some(false.to_json()), "telemetry off, yet the report carries 6 telemetry points"),
            (stress, "host.telemetry_overhead", None, "`host.telemetry_overhead` is not a number"),
            (stress, "host.telemetry_overhead", n(0.0), "telemetry overhead 0"),
            (stress, "host.scaling", arr(vec![]), "lacks a host.scaling curve"),
            (stress, "host.scaling.1.threads", None, "scaling[1] lacks a numeric `threads`"),
            (stress, "host.scaling.1.threads", n(1.0), "not strictly increasing at index 1"),
            (stress, "host.scaling.1.ops_per_sec", None, "scaling[1] lacks a numeric `ops_per_sec`"),
            (stress, "host.scaling.1.ops_per_sec", n(0.0), "ops_per_sec = 0"),
            (stress, "host.scaling.1.efficiency", None, "scaling[1] lacks a numeric `efficiency`"),
            (stress, "host.scaling.1.efficiency", n(0.0), "efficiency = 0"),
            (stress, "host.scaling.1.efficiency", n(1.2), "efficiency = 1.2"),
            (stress, "host.scaling_floor.threads", s("2"), "`scaling_floor.threads` is not a number"),
            (stress, "host.scaling_floor.efficiency", s("0.6"), "`scaling_floor.efficiency` is not a number"),
            (stress, "host.scaling_floor.threads", n(4.0), "absent from the scaling curve"),
            (stress, "host.scaling_floor.efficiency", n(0.9), "below the recorded floor"),
            (stress, "host.parallel_capacity.ratio", s("1.9"), "`parallel_capacity.ratio` is not a number"),
            (stress, "host.parallel_capacity.ratio", n(0.0), "parallel capacity 0"),
            (ledger, "ledger", None, "missing `ledger`"),
            (ledger, "ledger.domains", None, "`ledger.domains` missing"),
            (ledger, "ledger.paths", None, "`ledger.paths` missing"),
            (ledger, "ledger.totals", None, "`ledger.totals` missing"),
            (ledger, "counters", None, "missing `counters` snapshot"),
            (ledger, "conservation", None, "missing `conservation.violations`"),
            (ledger, "conservation.violations", arr(vec!["x".to_json()]), "does not conserve"),
            (trace, "traceEvents.0", None, "missing required event kind Alloc"),
            (trace, "traceEvents.1", None, "missing required event kind Transfer"),
            (trace, "traceEvents.2", None, "missing required event kind CacheHit"),
            (trace, "traceEvents.3", None, "missing required event kind Free"),
            (trace, "dropped_events", None, "missing the dropped_events counter"),
        ];
        for (file, path, value, want) in cases {
            let mut doc = match file {
                "BENCH_plain.json" => bench_doc(false),
                "BENCH_stress.json" => bench_doc(true),
                "LEDGER_fleet.json" => ledger_good(),
                _ => trace_good(),
            };
            edit(&mut doc, path, value.clone());
            match check(file, &doc) {
                Err(e) => assert!(
                    e.contains(want),
                    "{file} {path} = {value:?}: got `{e}`, want `{want}`"
                ),
                Ok(()) => panic!("{file} {path} = {value:?}: accepted, want `{want}`"),
            }
        }
        assert!(
            check("REPORT.json", &bench_doc(false)).is_err(),
            "unknown names are refused"
        );
    }

    #[test]
    fn a_scaling_floor_is_judged_against_the_hosts_parallel_capacity() {
        let check_stress = |floor: f64, ratio: f64| {
            let mut doc = bench_doc(true);
            edit(
                &mut doc,
                "host.scaling_floor.efficiency",
                Some(floor.to_json()),
            );
            edit(
                &mut doc,
                "host.parallel_capacity.ratio",
                Some(ratio.to_json()),
            );
            check("BENCH_stress.json", &doc)
        };
        // The 1.6x fleet is 84% of a 1.9x host, but 80% of linear.
        assert_eq!(check_stress(0.82, 1.9), Ok(()));
        assert!(check_stress(0.82, 2.0)
            .unwrap_err()
            .contains("below the recorded floor"));
        // A capacity read above linear counts as linear.
        assert!(check_stress(0.82, 3.0)
            .unwrap_err()
            .contains("below the recorded floor"));
        assert_eq!(check_stress(0.8, 3.0), Ok(()));
    }
}
