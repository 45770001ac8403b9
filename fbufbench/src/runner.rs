//! One benchmark run: repeated set-up, timed rounds, and the metrics.
//!
//! Set-up (build every engine, domain and path, warm every cache) runs
//! [`SETUPS`] times and the last build is measured; further set-ups
//! between rounds sample it across the run, and `setup_s` is the median.
//! Rounds then run until `--seconds` have passed (and at least
//! [`MIN_ROUNDS`]), taking turns of [`CPU_TURN_S`] on each CPU the thread
//! may use ([`crate::cpus`]). Every round of a workload is the same seeded work,
//! so rounds differ in host time only by how disturbed the host was.
//! On a shared host that swings by up to 1.6× over seconds to minutes,
//! and the time the thread spends off its CPU is nil (its on-CPU time
//! equals its wall time), so CPU time does not remove it; nor does a
//! fixed reference loop timed beside each round follow it closely
//! enough to divide it out. Host metrics therefore report the
//! least-disturbed share of a run: throughput is the rate the fastest
//! [`FAST_SHARE`] of untraced rounds reach, and a latency quantile the
//! value the fastest [`FAST_SHARE`] of blocks of untraced transfers stay
//! under (see [`crate::probe`]). A change to the code moves every round,
//! the fastest too. Simulated metrics and counts come from the first
//! [`EXACT_ROUNDS`] rounds only, a fixed amount of seeded work, so they
//! repeat bit for bit at a seed. With tracing on, odd rounds are traced:
//! their spans give the per-layer split, and their throughput against
//! the untraced rounds' gives the tracing overhead.

use std::time::{Duration, Instant};

use fbuf_sim::{CostCategory, Json};

use crate::cpus::Cpus;
use crate::probe::{Layer, Probe};
use crate::workload::{Round, Sim, Workload};

/// Set-ups before the rounds; the last one is measured.
pub const SETUPS: usize = 5;
/// Share of the measuring time given to further set-ups, one after a
/// round while the share allows, so that `setup_s`, their median over
/// the run, samples every speed plateau the host went through.
pub const SETUP_SHARE: f64 = 0.05;
/// Rounds whose simulated state and counts are reported.
pub const EXACT_ROUNDS: usize = 2;
/// Fewest rounds a run measures, however short `--seconds`.
pub const MIN_ROUNDS: usize = 6;
/// Share of the fastest rounds and latency blocks the host metrics
/// report on.
pub const FAST_SHARE: f64 = 0.05;
/// Seconds of rounds on one CPU before the thread moves to the next: long
/// enough that the rounds after a move, which refill the caches, are few.
pub const CPU_TURN_S: f64 = 0.5;
const _: () = assert!(EXACT_ROUNDS <= MIN_ROUNDS);

/// Which numbers a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time: differs run to run.
    Host,
    /// Simulated time or a count over the exact window: repeats exactly
    /// at a fixed seed.
    Exact,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        kind,
    }
}

/// Host time and work of one measured round.
#[derive(Debug, Clone, Copy)]
struct Timed {
    round: Round,
    secs: f64,
}

/// Everything one run measured.
pub struct Outcome {
    /// Workload parameters and machine geometry.
    pub describe: Json,
    /// Digest of the inputs generated from the seed.
    pub inputs_digest: u64,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    untraced: Vec<Timed>,
    traced: Vec<Timed>,
    /// Work over the exact window.
    pub exact_round: Round,
    /// Simulated state over the exact window.
    pub exact: Sim,
    exact_calls: Vec<u64>,
    /// Work over every measured round.
    pub total: Round,
    /// The probe, with latency and spans.
    pub probe: Probe,
    /// The check or call that failed, if one did.
    pub error: Option<String>,
    /// CPUs the rounds took turns on.
    pub cpus: usize,
}

/// Runs a workload for `seconds` (and at least [`MIN_ROUNDS`] rounds).
/// Errors only when set-up fails; a failing round ends the run and is
/// reported in [`Outcome::error`].
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut cpus = Cpus::allowed();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(W::setup(seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");

    let mut out = Outcome {
        describe: w.describe(),
        inputs_digest: w.inputs_digest(),
        setup_s,
        untraced: Vec::new(),
        traced: Vec::new(),
        exact_round: Round::default(),
        exact: Sim::default(),
        exact_calls: Vec::new(),
        total: Round::default(),
        probe: Probe::default(),
        error: None,
        cpus: cpus.count(),
    };
    let base = w.sim();
    let deadline = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut setup_spent = 0.0;
    let mut rounds = 0;
    let mut turn: Option<Instant> = None;
    while rounds < MIN_ROUNDS || start.elapsed() < deadline {
        let traced = trace && rounds % 2 == 1;
        out.probe.set_traced(traced);
        if turn.is_none_or(|t| t.elapsed().as_secs_f64() >= CPU_TURN_S) {
            cpus.advance();
            turn = Some(Instant::now());
        }
        let t0 = Instant::now();
        let round = match w.round(&mut out.probe) {
            Ok(round) => round,
            Err(e) => {
                out.error = Some(e);
                out.total.attempted += 1;
                out.total.failed += 1;
                break;
            }
        };
        let timed = Timed {
            round,
            secs: t0.elapsed().as_secs_f64(),
        };
        if traced {
            out.traced.push(timed);
        } else {
            out.untraced.push(timed);
        }
        add(&mut out.total, &round);
        rounds += 1;
        if rounds <= EXACT_ROUNDS {
            add(&mut out.exact_round, &round);
        }
        if rounds == EXACT_ROUNDS {
            out.exact = w.sim().delta(&base);
            out.exact_calls = out.probe.all_calls().to_vec();
        }
        if setup_spent < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t0 = Instant::now();
            let extra = W::setup(seed)?;
            let secs = t0.elapsed().as_secs_f64();
            drop(extra);
            setup_spent += secs;
            out.setup_s.push(secs);
        }
    }
    cpus.release();
    Ok(out)
}

fn add(acc: &mut Round, r: &Round) {
    acc.attempted += r.attempted;
    acc.transfers += r.transfers;
    acc.bytes += r.bytes;
    acc.failed += r.failed;
    acc.dropped += r.dropped;
}

/// The `q`-quantile (0..=1) of `xs`, interpolating linearly between
/// neighbouring values (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * frac,
        None => v[i],
    }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Work per host second that the fastest [`FAST_SHARE`] of `rounds`
/// reach.
fn rate(rounds: &[Timed], per_round: impl Fn(&Round) -> f64) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .filter(|t| t.secs > 0.0)
        .map(|t| per_round(&t.round) / t.secs)
        .collect();
    quantile(&rates, 1.0 - FAST_SHARE)
}

/// Peak resident set of this process, MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

impl Outcome {
    /// Failed, dropped or mis-verified transfers over those attempted.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.total.failed + self.total.dropped, self.total.attempted)
    }

    /// Simulated goodput over the exact window, Mb/s.
    fn sim_mbps(&self) -> f64 {
        ratio(self.exact_round.bytes * 8 * 1000, self.exact.elapsed_ns)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        use Kind::*;
        let lat = &self.probe.latency;
        vec![
            metric("setup_s", median(&self.setup_s), "s", Host),
            metric(
                "transfers_per_s",
                rate(&self.untraced, |r| r.transfers as f64),
                "1/s",
                Host,
            ),
            metric(
                "payload_mb_s",
                rate(&self.untraced, |r| r.bytes as f64 / 1e6),
                "MB/s",
                Host,
            ),
            metric("transfer_p50_us", lat.p50_ns() / 1e3, "us", Host),
            metric("transfer_p99_us", lat.p99_ns() / 1e3, "us", Host),
            metric("sim_mbps", self.sim_mbps(), "Mb/s", Exact),
            metric("peak_rss_mb", peak_rss_mb(), "MB", Host),
        ]
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. Timings come
    /// from traced rounds (0 when none ran); counts from the exact window.
    pub fn per_layer(&self) -> Vec<Metric> {
        use Kind::*;
        let (s, x, n) = (
            &self.exact.stats,
            &self.exact.extra,
            self.exact_round.transfers,
        );
        let traced_ns: f64 = self.traced.iter().map(|t| t.secs * 1e9).sum();
        let mut m = Vec::new();
        for layer in Layer::ALL {
            let name = layer.name();
            if layer != Layer::Transfer {
                let calls = self.exact_calls.get(layer as usize).copied().unwrap_or(0);
                m.push(metric(
                    format!("{name}.calls"),
                    ratio(calls, n),
                    "1/transfer",
                    Exact,
                ));
                m.push(metric(
                    format!("{name}.p50_ns"),
                    self.probe.p50_ns(layer),
                    "ns",
                    Host,
                ));
            }
            let self_frac = if traced_ns > 0.0 {
                self.probe.self_ns(layer) as f64 / traced_ns
            } else {
                0.0
            };
            m.push(metric(
                format!("{name}.self_frac"),
                self_frac,
                "ratio",
                Host,
            ));
        }
        let hits = s.fbuf_cache_hits;
        m.extend([
            metric(
                "system.cache_hit_ratio",
                ratio(hits, hits + s.fbuf_cache_misses),
                "ratio",
                Exact,
            ),
            metric(
                "engine.hops_per_transfer",
                ratio(s.ipc_messages.saturating_sub(s.explicit_notice_messages), n),
                "1/transfer",
                Exact,
            ),
            metric(
                "ipc.messages_per_transfer",
                ratio(s.ipc_messages, n),
                "1/transfer",
                Exact,
            ),
            metric(
                "ipc.piggybacked_per_transfer",
                ratio(s.piggybacked_notices, n),
                "1/transfer",
                Exact,
            ),
            metric(
                "shard.ring_payloads",
                ratio(x.ring_payloads, n),
                "1/transfer",
                Exact,
            ),
            metric(
                "shard.notice_coalesce",
                ratio(x.notice_tokens, x.notice_batches),
                "tokens/batch",
                Exact,
            ),
            metric(
                "metrics.points_per_transfer",
                ratio(x.metric_points, n),
                "1/transfer",
                Exact,
            ),
            metric(
                "metrics.refused_names",
                ratio(x.refused_names, n),
                "1/transfer",
                Exact,
            ),
            metric(
                "policy.denials_per_attempt",
                ratio(x.denied, x.attempts),
                "ratio",
                Exact,
            ),
            metric(
                "policy.retries_per_transfer",
                ratio(x.retries, n),
                "1/transfer",
                Exact,
            ),
            metric("policy.drops", ratio(x.drops, n), "1/transfer", Exact),
            metric(
                "vm.pte_updates_per_transfer",
                ratio(s.pte_updates, n),
                "1/transfer",
                Exact,
            ),
            metric(
                "vm.tlb_refills_per_transfer",
                ratio(s.tlb_refills, n),
                "1/transfer",
                Exact,
            ),
            metric(
                "vm.pages_cleared_per_transfer",
                ratio(s.pages_cleared, n),
                "1/transfer",
                Exact,
            ),
            metric(
                "net.pdus_per_msg",
                ratio(s.pdus_sent, n),
                "1/transfer",
                Exact,
            ),
            metric(
                "net.uncached_rx_frac",
                ratio(
                    s.driver_uncached_rx,
                    s.driver_cached_rx + s.driver_uncached_rx,
                ),
                "ratio",
                Exact,
            ),
        ]);
        for (c, &ns) in CostCategory::ALL.iter().zip(&self.exact.cat_ns) {
            let us = ns as f64 / 1e3 / n.max(1) as f64;
            m.push(metric(
                format!("sim.{}_us", c.label()),
                us,
                "us/transfer",
                Exact,
            ));
        }
        let tps = |rounds: &[Timed]| rate(rounds, |r| r.transfers as f64);
        let overhead = if self.traced.is_empty() {
            0.0
        } else {
            1.0 - tps(&self.traced) / tps(&self.untraced)
        };
        m.push(metric("trace.overhead_frac", overhead, "ratio", Host));
        m
    }

    /// Rounds measured untraced and traced, and transfers in the latency
    /// distribution.
    pub fn samples(&self) -> (usize, usize, u64) {
        (
            self.untraced.len(),
            self.traced.len(),
            self.probe.latency.count(),
        )
    }
}
