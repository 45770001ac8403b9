//! `repro`: the one harness binary. It regenerates the paper's tables and
//! figures and runs every harness, each as a subcommand:
//!
//! ```text
//! repro [all]          # every paper experiment below, in order
//! repro table1         # Table 1                          BENCH_table1.json
//! repro fig3           # Figure 3                         BENCH_fig3_single_crossing.json
//! repro fig4           # Figure 4                         BENCH_fig4_loopback.json
//! repro fig5           # Figure 5                         BENCH_fig5_endtoend_cached.json
//! repro fig6           # Figure 6 and the §4 CPU load     BENCH_fig6_endtoend_uncached.json
//! repro remap          # §2.2.1 remap re-measurement      BENCH_remap.json
//! repro trace          # trace-driven mixed workload      (text only)
//! repro ablate         # §3.2/§3.3/§5.2 ablations         BENCH_optstack.json
//! repro aggregate      # aggregate-object machinery       BENCH_aggregate_ops.json
//!
//! repro stress         # wall-clock multi-shard stress    BENCH_stress.json
//! repro queue          # offered-load queueing sweep      BENCH_queue.json
//! repro fanin          # admission-policy fan-in          BENCH_fanin.json
//! repro ledger         # per-tenant fleet ledger          LEDGER_fleet.json
//! repro adversary      # hostile-tenant containment       BENCH_adversary.json
//! repro lifecycle      # traced loopback + audit          TRACE_loopback.json
//! repro fuzz [--replay <dir>]  # lockstep campaign, or corpus replay
//! repro check [<dir>]  # check every report in <dir>
//! ```
//!
//! Reports go to `FBUF_BENCH_DIR` (default `target/bench-reports`), and
//! each is checked against the report contract (`fbuf_bench::report`)
//! before it is written. `check` runs the same checks over a directory
//! (default: the report directory). A subcommand exits nonzero when its
//! run breaks one of its gates or its report breaks the contract; an
//! unknown subcommand exits 2. Each harness documents its environment
//! knobs in its module.

use std::path::PathBuf;
use std::process::ExitCode;

use fbuf_bench::{knobs, report};

mod adversary;
mod fanin;
mod fuzz;
mod ledger;
mod lifecycle;
mod paper;
mod queue;
mod stress;

/// A harness run on the arguments after its subcommand.
type Harness = fn(&[String]) -> Result<(), String>;

/// The harnesses that have no paper figure, by subcommand.
const HARNESSES: [(&str, Harness); 8] = [
    ("stress", |_| stress::run()),
    ("queue", |_| queue::run()),
    ("fanin", |_| fanin::run()),
    ("ledger", |_| ledger::run()),
    ("adversary", |_| adversary::run()),
    ("lifecycle", |_| lifecycle::run()),
    ("fuzz", fuzz::run),
    ("check", check),
];

/// Checks every report in the directory given, or in the report
/// directory.
fn check(args: &[String]) -> Result<(), String> {
    let dir = args.first().map_or_else(knobs::bench_dir, PathBuf::from);
    let n = report::check_dir(&dir)?;
    println!(
        "repro check: {n} report(s) in {} meet the report contract",
        dir.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = args.first().map_or("all", String::as_str);
    let paper = paper::EXPERIMENTS.iter().find(|(name, _)| *name == sub);
    let harness = HARNESSES.iter().find(|(name, _)| *name == sub);
    let result = match (paper, harness) {
        _ if sub == "all" => paper::EXPERIMENTS.iter().try_for_each(|(_, run)| run()),
        (Some((_, run)), _) => run(),
        (_, Some((_, run))) => run(args.get(1..).unwrap_or_default()),
        (None, None) => {
            let paper = paper::EXPERIMENTS.iter().map(|(name, _)| *name);
            let names: Vec<&str> = paper
                .chain(HARNESSES.iter().map(|(name, _)| *name))
                .collect();
            eprintln!(
                "unknown subcommand '{sub}'; one of: all, {}",
                names.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro {sub} FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
