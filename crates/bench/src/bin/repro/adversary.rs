//! `repro adversary`: hostile-tenant containment under load.
//!
//! Runs the same benign transfer schedule twice through the per-shard
//! event-loop engine at **identical** machine config (same region, same
//! path caches, containment armed both times):
//!
//! 1. **baseline** — N benign tenants only;
//! 2. **contested** — the same N benign tenants interleaved with K = 3
//!    hostile personas:
//!    * a **hoarder** that parks a pile of cached fbufs and then
//!      allocates without ever freeing, until the quota jail escalates
//!      from admission denial to forced revocation of its cache;
//!    * a **stalled receiver** that lets deadline-stamped transfers rot
//!      in its inbox until the engine's timeout revocation reclaims
//!      them mid-route;
//!    * a **token forger** that probes the system with
//!      generation-flipped fbuf tokens, which must be rejected and
//!      counted — never dereferenced.
//!
//! The run fails unless all of the following hold:
//!
//! * benign goodput in the contested run is ≥ 95% of baseline —
//!   containment, not collapse, is what isolates the benign tenants;
//! * **zero** forged tokens dereferenced (every probe rejected);
//! * each persona demonstrably fired: jail denials, forced and timeout
//!   revocations, and token rejections are all nonzero;
//! * the per-tenant ledger still conserves against the fleet counters —
//!   revocations and rejected tokens included — and the baseline run
//!   never tripped the jail.
//!
//! Environment knobs:
//!
//! * `FBUF_ADV_TENANTS` — benign tenants N (default 8);
//! * `FBUF_ADV_ROUNDS`  — transfers per benign tenant (default 64);
//! * `FBUF_ADV_PAGES`   — pages per transfer (default 2);
//! * `FBUF_BENCH_DIR`   — report directory (default
//!   `target/bench-reports`).
//!
//! Report: `BENCH_adversary.json`.

use std::time::Instant;

use fbuf::{AllocMode, FbufError, FbufId, FbufSystem, JailConfig, PathId, SubmitOutcome};
use fbuf_bench::knobs::env_u64;
use fbuf_bench::report::{BenchRunner, Unit};
use fbuf_sim::{Json, MachineConfig, Ns, ToJson};
use fbuf_vm::DomainId;

struct Config {
    tenants: usize,
    rounds: u64,
    pages: u64,
}

/// One benign tenant: its own originator and sink domains and a
/// dedicated two-domain path, so ledger rows and jail charges are
/// attributable per tenant.
struct Tenant {
    route: [DomainId; 2],
    path: PathId,
}

struct RunReport {
    /// Payload bytes delivered end to end on benign routes.
    benign_goodput: u64,
    /// Benign transfers completed / refused admission.
    benign_completed: u64,
    benign_refused: u64,
    jail_denials: u64,
    fbufs_revoked: u64,
    timeout_revocations: u64,
    tokens_rejected: u64,
    /// Forged probes that resolved to a live buffer — must stay 0.
    forged_derefs: u64,
    ledger_violations: Vec<String>,
    sim_ns: u64,
}

/// The containment configuration both runs arm: tight enough that the
/// hoarder trips it within its schedule, generous enough that a benign
/// tenant — which frees every buffer promptly — never comes close.
fn containment() -> JailConfig {
    JailConfig {
        hoard_bytes: 48 * 4096,
        hoard_age: 12,
        revoke_strikes: 2,
    }
}

fn schedule(cfg: &Config, hostile: bool) -> Result<RunReport, FbufError> {
    let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
    sys.set_jail(Some(containment()));
    // 800 µs: far above a drained benign hop's queueing delay, far
    // below what a deliberately un-pumped 16-transfer burst at the
    // stalled receiver accumulates.
    sys.set_revoke_timeout(Some(Ns(800_000)));

    let tenants: Vec<Tenant> = (0..cfg.tenants)
        .map(|_| {
            let a = sys.create_domain();
            let b = sys.create_domain();
            let path = sys.create_path(vec![a, b])?;
            Ok(Tenant {
                route: [a, b],
                path,
            })
        })
        .collect::<Result<_, FbufError>>()?;

    // The hostile cast is created either way so domain numbering — and
    // therefore the benign schedule — is identical in both runs.
    let hoarder = sys.create_domain();
    let hoard_sink = sys.create_domain();
    let hoard_path = sys.create_path(vec![hoarder, hoard_sink])?;
    let stall_origin = sys.create_domain();
    let stalled = sys.create_domain();
    let stall_path = sys.create_path(vec![stall_origin, stalled])?;
    let forger = sys.create_domain();

    let len = cfg.pages * sys.machine().page_size();
    let t0 = sys.machine().now();
    let mut benign_completed_before = 0u64;
    let mut benign_goodput = 0u64;
    let mut benign_refused = 0u64;
    let mut timeout_revocations = 0u64;
    let mut forged_derefs = 0u64;
    let mut hoard_pile: Vec<FbufId> = Vec::new();

    for round in 0..cfg.rounds {
        // The benign schedule: every tenant moves one buffer through
        // its path, each drained promptly (a well-behaved receiver
        // services its inbox). Identical in both runs.
        for t in &tenants {
            let buf = match sys.alloc(t.route[0], AllocMode::Cached(t.path), len) {
                Ok(b) => b,
                Err(FbufError::TenantJailed(_) | FbufError::QuotaExceeded { .. }) => {
                    benign_refused += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match sys.submit_transfer(buf, &t.route) {
                SubmitOutcome::Queued(_) => {}
                SubmitOutcome::Overload => {
                    sys.free(buf, t.route[0])?;
                    benign_refused += 1;
                }
                SubmitOutcome::Refused(e) => return Err(e),
            }
            sys.pump();
        }
        let done = sys.transfers_completed();
        benign_goodput += (done - benign_completed_before) * len;
        benign_completed_before = done;

        if !hostile {
            continue;
        }

        // Hoarder: round 0 parks a pile of eight distinct cached fbufs
        // on its path (pinning region memory through cache retention);
        // after that it switches to the default allocator and holds
        // everything it touches — no frees, so its jail age runs out
        // while its charge stays over threshold, and escalation
        // forcibly reclaims the parked pile.
        if round == 0 {
            let pile: Vec<FbufId> = (0..8)
                .map(|_| sys.alloc(hoarder, AllocMode::Cached(hoard_path), len))
                .collect::<Result<_, FbufError>>()?;
            for b in pile {
                sys.free(b, hoarder)?;
            }
        } else {
            match sys.alloc(hoarder, AllocMode::Uncached, len) {
                Ok(b) => hoard_pile.push(b),
                Err(FbufError::TenantJailed(_)) => {}
                Err(FbufError::QuotaExceeded { .. } | FbufError::RegionExhausted) => {}
                Err(e) => return Err(e),
            }
        }

        // Stalled receiver: every few rounds, burst transfers at a
        // domain that is never pumped between posts; the queueing delay
        // the burst accumulates blows the revocation deadline and the
        // engine reclaims the in-flight frames.
        if round % 8 == 7 {
            let before = sys.transfers_revoked();
            for _ in 0..16 {
                match sys.alloc(stall_origin, AllocMode::Cached(stall_path), len) {
                    Ok(b) => match sys.submit_transfer(b, &[stall_origin, stalled]) {
                        SubmitOutcome::Queued(_) => {}
                        SubmitOutcome::Overload => sys.free(b, stall_origin)?,
                        SubmitOutcome::Refused(e) => return Err(e),
                    },
                    Err(
                        FbufError::TenantJailed(_)
                        | FbufError::QuotaExceeded { .. }
                        | FbufError::RegionExhausted,
                    ) => {}
                    Err(e) => return Err(e),
                }
            }
            sys.pump();
            timeout_revocations += sys.transfers_revoked() - before;
            benign_completed_before = sys.transfers_completed();
        }

        // Forger: flip generation bits on a token shape it could have
        // observed on the wire. The probe must never resolve.
        let probe = FbufId(((round + 1) << 32) ^ 0x5a5a_0000_0000_0000 | (round % 7));
        if sys.check_token(forger, None, probe.0) {
            forged_derefs += 1;
        }
    }
    sys.pump();

    let stats = sys.stats();
    let ledger_violations = sys.ledger_snapshot().conserves(&stats.snapshot());
    Ok(RunReport {
        benign_goodput,
        benign_completed: benign_goodput / len,
        benign_refused,
        jail_denials: stats.jail_denials(),
        fbufs_revoked: stats.fbufs_revoked(),
        timeout_revocations,
        tokens_rejected: stats.tokens_rejected(),
        forged_derefs,
        ledger_violations,
        sim_ns: (sys.machine().now() - t0).as_ns(),
    })
}

/// Runs the baseline and contested schedules, applies the containment
/// gates and writes `BENCH_adversary.json`.
pub fn run() -> Result<(), String> {
    let cfg = Config {
        tenants: env_u64("FBUF_ADV_TENANTS", 8) as usize,
        rounds: env_u64("FBUF_ADV_ROUNDS", 64),
        pages: env_u64("FBUF_ADV_PAGES", 2),
    };
    println!(
        "== repro adversary: {} benign tenant(s) × {} round(s) × {} page(s) vs 3 hostile personas ==",
        cfg.tenants, cfg.rounds, cfg.pages
    );

    let host_t0 = Instant::now();
    let base = schedule(&cfg, false).map_err(|e| e.to_string())?;
    let adv = schedule(&cfg, true).map_err(|e| e.to_string())?;
    let host_ns = host_t0.elapsed().as_nanos().max(1) as u64;

    for (name, r) in [("baseline", &base), ("contested", &adv)] {
        println!(
            "{name:>10}: goodput {} KiB ({} transfer(s), {} refused), jail denials {}, revoked {} ({} by timeout), tokens rejected {}, forged derefs {}",
            r.benign_goodput / 1024,
            r.benign_completed,
            r.benign_refused,
            r.jail_denials,
            r.fbufs_revoked,
            r.timeout_revocations,
            r.tokens_rejected,
            r.forged_derefs,
        );
    }

    let ratio = adv.benign_goodput as f64 / base.benign_goodput.max(1) as f64;
    let mut failures: Vec<String> = Vec::new();
    if ratio < 0.95 {
        failures.push(format!(
            "benign goodput under attack is {:.1}% of baseline (< 95%)",
            ratio * 100.0
        ));
    }
    if base.jail_denials != 0 || base.fbufs_revoked != 0 || base.tokens_rejected != 0 {
        failures.push(format!(
            "baseline tripped containment with no adversary present: jail {}, revoked {}, rejected {}",
            base.jail_denials, base.fbufs_revoked, base.tokens_rejected
        ));
    }
    if adv.forged_derefs != 0 || base.forged_derefs != 0 {
        failures.push(format!(
            "{} forged token(s) dereferenced — must be zero",
            adv.forged_derefs + base.forged_derefs
        ));
    }
    if adv.jail_denials == 0 {
        failures.push("the hoarder never hit the quota jail".into());
    }
    let forced = adv.fbufs_revoked.saturating_sub(adv.timeout_revocations);
    if forced == 0 || adv.timeout_revocations == 0 {
        failures.push(format!(
            "a revocation path never fired ({} forced by the jail, {} by timeout)",
            forced, adv.timeout_revocations
        ));
    }
    if adv.tokens_rejected == 0 {
        failures.push("the forger's probes were never counted".into());
    }
    for (name, r) in [("baseline", &base), ("contested", &adv)] {
        for v in &r.ledger_violations {
            failures.push(format!("{name} ledger does not conserve: {v}"));
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    println!(
        "gate: benign goodput {:.1}% of baseline, zero forged derefs, jail + both revocation paths exercised, ledger conserves",
        ratio * 100.0
    );

    let mut runner = BenchRunner::named("adversary", 1);
    runner.set_threads(1);
    runner.param("tenants", cfg.tenants as u64);
    runner.param("rounds", cfg.rounds);
    runner.param("pages", cfg.pages);
    runner.param("hostile_personas", 3u64);
    runner.param("jail_hoard_bytes", containment().hoard_bytes);
    runner.param("jail_hoard_age", containment().hoard_age);
    runner.param("jail_revoke_strikes", containment().revoke_strikes as u64);
    runner.measure("benign_goodput_ratio", Unit::Fraction, || ratio);
    runner.measure("baseline_goodput_mbps", Unit::Mbps, || {
        Ns(base.sim_ns).mbps(base.benign_goodput)
    });
    runner.measure("contested_goodput_mbps", Unit::Mbps, || {
        Ns(adv.sim_ns).mbps(adv.benign_goodput)
    });
    runner.host_throughput(
        "benign_transfers_completed",
        base.benign_completed + adv.benign_completed,
        host_ns,
        None,
    );
    let side = |r: &RunReport| {
        Json::obj(vec![
            ("benign_goodput_bytes", r.benign_goodput.to_json()),
            ("benign_completed", r.benign_completed.to_json()),
            ("benign_refused", r.benign_refused.to_json()),
            ("jail_denials", r.jail_denials.to_json()),
            ("fbufs_revoked", r.fbufs_revoked.to_json()),
            ("timeout_revocations", r.timeout_revocations.to_json()),
            ("tokens_rejected", r.tokens_rejected.to_json()),
            ("forged_derefs", r.forged_derefs.to_json()),
            ("sim_elapsed_us", Ns(r.sim_ns).as_us_f64().to_json()),
        ])
    };
    runner.artifact("baseline", side(&base));
    runner.artifact("contested", side(&adv));

    runner.finish().map(drop)
}
