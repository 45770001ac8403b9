//! `fbufbench`: the fbufs benchmark.
//!
//! ```text
//! fbufbench --workload <cached-loop|fanin-observed|osiris-mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! fbufbench compare <result dir A> <result dir B> [--spec BENCHMARK.json]
//! ```
//!
//! A run builds its workload from the seed, measures it for the given
//! seconds, checks its outputs, writes the full result (repro header
//! included) under `--out` (default `.bench_results`), and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics untraced, the per-layer split traced.
//! It exits nonzero when any check fails. Every load is one closed loop
//! on one thread. See `BENCHMARK.json` for what each workload is for.

mod cached_loop;
mod compare;
mod cpus;
mod fanin;
mod osiris;
mod probe;
mod report;
mod runner;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cached_loop::CachedLoop;
use fanin::Fanin;
use osiris::Osiris;
use report::Request;
use runner::{Kind, Outcome};
use workload::Workload;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["cached-loop", "fanin-observed", "osiris-mix"];

fn run_workload<W: Workload>(req: &Request) -> Result<Outcome, String> {
    runner::run::<W>(req.seed, req.seconds, req.trace)
}

fn parse_run(args: &[String]) -> Result<Request, String> {
    let mut req = Request {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => req.workload = value.clone(),
            "--seed" => req.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                req.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(req.seconds >= 0.0 && req.seconds.is_finite()) {
                    return Err(bad("a finite, non-negative number"));
                }
            }
            "--trace" => {
                req.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => req.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&req.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(req)
}

fn run(req: &Request) -> Result<bool, String> {
    let outcome = match req.workload.as_str() {
        "cached-loop" => run_workload::<CachedLoop>(req)?,
        "fanin-observed" => run_workload::<Fanin>(req)?,
        _ => run_workload::<Osiris>(req)?,
    };
    let metrics = if req.trace {
        outcome.per_layer()
    } else {
        outcome.end_to_end()
    };
    let line = report::result_line(&outcome, &metrics);
    let path = report::write(req, &outcome, &line)?;

    let (untraced, traced, latency_samples) = outcome.samples();
    println!("repro: {}", report::repro(req, &outcome).render());
    println!(
        "rounds: {untraced} untraced, {traced} traced, taking turns on {} CPU(s); {latency_samples} transfers in the latency distribution",
        outcome.cpus
    );
    println!(
        "transfers: {} attempted, {} failed, {} dropped by admission (failed_frac {})",
        outcome.total.attempted,
        outcome.total.failed,
        outcome.total.dropped,
        outcome.failed_frac()
    );
    if let Some(e) = &outcome.error {
        println!("check FAILED: {e}");
    }
    for m in &metrics {
        let kind = if m.kind == Kind::Exact {
            "exact"
        } else {
            "host"
        };
        println!("{:<34} {:>16.6} {:<12} {kind}", m.name, m.value, m.unit);
    }
    println!("result: {}", path.display());
    println!("{}", line.render());
    Ok(outcome.error.is_none())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            eprintln!("usage: fbufbench compare <dir A> <dir B> [--spec BENCHMARK.json]");
            return ExitCode::from(2);
        };
        let spec = match args.get(3).map(String::as_str) {
            Some("--spec") => args.get(4).map_or("BENCHMARK.json", String::as_str),
            _ => "BENCHMARK.json",
        };
        return match compare::compare(Path::new(a), Path::new(b), Path::new(spec)) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                println!("{n} end-to-end metric(s) regressed beyond their bound");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let req = match parse_run(&args) {
        Ok(req) => req,
        Err(e) => {
            eprintln!("fbufbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&req) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fbufbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod selftests {
    //! The benchmark's own checks, on the workloads as the benchmark runs
    //! them (`seconds` 0 gives the fewest rounds): the simulated side
    //! repeats exactly at a fixed seed, and different seeds generate
    //! different inputs.

    use super::*;

    /// Every exact metric (simulated time and counts) plus failed_frac.
    fn exact_metrics<W: Workload>(seed: u64) -> Vec<(String, f64)> {
        let o = runner::run::<W>(seed, 0.0, true).expect("set-up");
        assert!(o.error.is_none(), "{:?}", o.error);
        let mut v: Vec<(String, f64)> = o
            .end_to_end()
            .into_iter()
            .chain(o.per_layer())
            .filter(|m| m.kind == Kind::Exact)
            .map(|m| (m.name, m.value))
            .collect();
        v.push(("failed_frac".into(), o.failed_frac()));
        v
    }

    fn repeats<W: Workload>() {
        let a = exact_metrics::<W>(7);
        assert_eq!(a, exact_metrics::<W>(7));
        let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
        for required in [
            "sim_mbps",
            "sim.vm_us",
            "vm.pte_updates_per_transfer",
            "policy.drops",
            "failed_frac",
        ] {
            assert!(names.contains(&required), "{required} missing");
        }
    }

    #[test]
    fn cached_loop_repeats_exactly_at_a_seed() {
        repeats::<CachedLoop>();
    }

    #[test]
    fn fanin_repeats_exactly_at_a_seed() {
        repeats::<Fanin>();
    }

    #[test]
    fn osiris_repeats_exactly_at_a_seed() {
        repeats::<Osiris>();
    }

    fn digest_of<W: Workload>(seed: u64) -> u64 {
        W::setup(seed).expect("set-up").inputs_digest()
    }

    #[test]
    fn seeds_generate_different_inputs() {
        for seed in [1, 2, 3] {
            let next = seed + 1;
            assert_ne!(digest_of::<CachedLoop>(seed), digest_of::<CachedLoop>(next));
            assert_ne!(digest_of::<Fanin>(seed), digest_of::<Fanin>(next));
            assert_ne!(digest_of::<Osiris>(seed), digest_of::<Osiris>(next));
        }
        assert_eq!(digest_of::<Osiris>(5), digest_of::<Osiris>(5));
    }
}
