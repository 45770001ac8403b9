//! Experiment runners regenerating every table and figure of the paper,
//! and the harness that runs them.
//!
//! Each module produces structured rows; the one binary, `repro`, prints
//! them in the paper's format and writes each experiment's
//! `BENCH_<name>.json` report through [`report`], and `EXPERIMENTS.md`
//! records paper-vs-measured.
//!
//! | module | artifact |
//! |---|---|
//! | [`table1`] | Table 1: per-page cost and asymptotic throughput of six mechanisms |
//! | [`fig3`] | Figure 3: throughput vs message size across one boundary |
//! | [`fig4`] | Figure 4: UDP/IP local loopback, 1 vs 3 domains |
//! | [`fig5`] | Figures 5 and 6: end-to-end UDP/IP over the Osiris model |
//! | [`cpuload`] | §4 prose: receive-side CPU load at 16/32 KB PDUs |
//! | [`remap`] | §2.2.1: DASH-style remap, ping-pong vs streaming |
//! | [`ablations`] | design-choice ablations (optimization stack, LIFO, VCI cache, notices, bus contention) |
//! | [`workload`] | the trace-driven mixed workload (`repro trace`) |
//! | [`fanin`] | the Zipf fan-in across admission policies (`repro fanin`) |
//!
//! [`report`] is the report contract: the [`report::BenchRunner`] that
//! writes `BENCH_*.json`, the `LEDGER_fleet.json` format, and the checks
//! every document passes before it is written and again under
//! `repro check <dir>`. [`rows`] holds the paper's row and curve formats,
//! [`observe`] the traced workloads behind each report's counters and
//! latency blocks, and [`knobs`] the environment knobs.
//!
//! `repro` also runs the harnesses that have no paper figure: `stress`,
//! `queue`, `fanin`, `ledger`, `adversary`, `lifecycle` (traced loopback,
//! audit and Chrome export) and `fuzz` (lockstep campaigns and corpus
//! replay). An unknown subcommand prints the list.
//!
//! Design notes: `DESIGN.md` §5 (the per-table/per-figure experiment
//! index) and `EXPERIMENTS.md` (paper-vs-measured, command matrix).

pub mod ablations;
pub mod cpuload;
pub mod fanin;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod knobs;
pub mod observe;
pub mod remap;
pub mod report;
pub mod rows;
pub mod table1;
pub mod workload;

/// The message sizes (bytes) used by the figure sweeps, paper-style
/// powers of two.
pub fn sweep_sizes(from: u64, to: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = from;
    while s <= to {
        v.push(s);
        s *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_powers_of_two() {
        assert_eq!(sweep_sizes(1024, 8192), vec![1024, 2048, 4096, 8192]);
        assert_eq!(sweep_sizes(4096, 4096), vec![4096]);
    }
}
