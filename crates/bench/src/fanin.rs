//! Massive fan-in under pluggable chunk-admission policies.
//!
//! This is the workload the quota-policy layer (`fbuf::policy`,
//! DESIGN.md §15) exists for: tens of thousands of flows funnel into a
//! sharded fleet of fbuf engines, path popularity follows a Zipf law,
//! and arrivals are bursty on/off processes. Under that shape a static
//! per-path chunk quota fails in both directions at once — the handful
//! of hot paths starve at their cap while hundreds of cold paths
//! strand free chunks behind headroom they never use. The dynamic
//! policies size each path's cap from the free pool instead, so the
//! same total buffer memory absorbs the skew.
//!
//! Structure of one run ([`run_fanin`]):
//!
//! * The coordinator assigns every flow a home path by sampling
//!   [`Zipf`] ranks, then partitions paths across shards by rank
//!   (`rank % shards`), one independent [`FbufSystem`] per shard on
//!   its own OS thread — the sharded event-loop engine of DESIGN.md
//!   §12/§14, with every control transfer posted through
//!   [`FbufSystem::hop`].
//! * Each flow gates its arrivals with an [`OnOff`] burst process.
//!   An active step offers one transfer: allocate a cached fbuf on the
//!   home path, stamp it, send it producer → consumer, and hold the
//!   references for `hold_steps` steps before freeing (the in-flight
//!   window that creates real buffer pressure).
//! * An allocation denied by admission (quota or region) is retried on
//!   subsequent steps; after `retries` failures the transfer is
//!   **dropped**. The wait from arrival to the successful grant is the
//!   **alloc latency** (simulated ns; zero for a first-try grant).
//!
//! Everything is a pure function of [`FaninConfig::seed`]: the Zipf
//! assignment, every gate, and each shard's step loop replay bit for
//! bit, so two runs at the same config produce identical reports
//! (pinned by the tests below).

use std::thread;

use fbuf::{AllocMode, FbufError, FbufId, FbufSystem, PathId, QuotaPolicy, SendMode};
use fbuf_sim::metrics::DEFAULT_CADENCE_NS;
use fbuf_sim::workload::{OnOff, Zipf};
use fbuf_sim::{Histogram, MachineConfig, Rng, SeriesSnapshot, StatsSnapshot};
use fbuf_vm::DomainId;

/// Parameters of one fan-in run. All policies are compared at the same
/// config — in particular the same [`MachineConfig`], so every policy
/// works with **equal total buffer memory**.
#[derive(Debug, Clone)]
pub struct FaninConfig {
    /// Total simulated flows across all shards.
    pub flows: usize,
    /// Data paths (each is a producer → consumer domain pair).
    pub paths: usize,
    /// Independent engine shards (one OS thread each).
    pub shards: usize,
    /// Steps of the per-shard arrival loop.
    pub steps: u64,
    /// Zipf skew of path popularity (`s = 0` is uniform).
    pub zipf_s: f64,
    /// Mean burst length of a flow, in steps.
    pub mean_on: u64,
    /// Mean silence between bursts, in steps.
    pub mean_off: u64,
    /// Steps a delivered buffer is held before both references drop.
    pub hold_steps: u64,
    /// Admission-denied retries before an arrival is dropped.
    pub retries: u32,
    /// Pages per fbuf.
    pub pages: u64,
    /// The chunk-admission policy under test.
    pub policy: QuotaPolicy,
    /// Master seed; every random choice derives from it.
    pub seed: u64,
    /// Machine geometry (identical across compared policies).
    pub machine: MachineConfig,
}

impl FaninConfig {
    /// The default fan-in scenario: 20 k flows over 512 paths on
    /// 4 shards, Zipf 1.1, 20% duty cycle in bursts of mean 40 steps.
    pub fn new(policy: QuotaPolicy, seed: u64) -> FaninConfig {
        FaninConfig {
            flows: 20_000,
            paths: 512,
            shards: 4,
            steps: 400,
            zipf_s: 1.1,
            mean_on: 40,
            mean_off: 160,
            hold_steps: 4,
            retries: 3,
            pages: 1,
            policy,
            seed,
            machine: fanin_machine(),
        }
    }

    /// Chunks in one shard's fbuf region.
    pub fn chunks_per_shard(&self) -> u64 {
        self.machine.fbuf_region_size / self.machine.chunk_size
    }
}

/// The fan-in machine: DecStation timing, but a region sized so that
/// **admission policy** is the binding constraint — 1024 chunks per
/// shard against a static per-path quota of 4, with physical memory
/// generous enough that frame reclamation never interferes. The free
/// pool covers the skewed aggregate demand, so what separates the
/// policies is purely how much of it each lets a hot path reach.
pub fn fanin_machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 128 << 20;
    cfg.fbuf_region_size = 64 << 20; // 1024 chunks of 64 KB per shard
    cfg.max_chunks_per_path = 4; // the static quota under test
    cfg
}

/// Priority class of a path by popularity rank: the hottest sixteenth
/// of paths are class 3 (highest weight under
/// [`QuotaPolicy::PriorityWeighted`]), the next fractions step down to
/// class 0 for the cold half. Static and FbDynamic ignore the class.
pub fn class_of_rank(rank: usize, paths: usize) -> u8 {
    if rank < paths.div_ceil(16) {
        3
    } else if rank < paths.div_ceil(4) {
        2
    } else if rank < paths.div_ceil(2) {
        1
    } else {
        0
    }
}

/// What one fan-in run measured, merged across shards.
#[derive(Debug, Clone)]
pub struct FaninReport {
    /// Transfers offered (arrivals that reached a first alloc attempt).
    pub offered: u64,
    /// Transfers delivered producer → consumer.
    pub completed: u64,
    /// Arrivals dropped after exhausting admission retries.
    pub drops: u64,
    /// Arrivals still waiting on admission when the run ended.
    pub unresolved: u64,
    /// Organic chunk-admission denials (the `chunk_quota_denials`
    /// counter; one retry loop can accrue several).
    pub denials: u64,
    /// Payload bytes delivered.
    pub goodput_bytes: u64,
    /// Arrival-to-grant wait of every delivered transfer, simulated ns.
    pub alloc_wait: Histogram,
    /// Mean granted chunks across all shards' step samples.
    pub occupancy_mean: f64,
    /// Peak granted chunks on any single shard.
    pub occupancy_peak: u64,
    /// Largest per-shard simulated clock at the end, ns.
    pub sim_ns: u64,
    /// Fleet-merged whole-run counters.
    pub counters: StatsSnapshot,
    /// Shard 0's gauge telemetry (occupancy, thresholds, inboxes).
    pub telemetry: Vec<SeriesSnapshot>,
}

impl FaninReport {
    /// `offered` must equal `completed + drops + unresolved`; returns
    /// the conservation violation if it does not.
    pub fn check_conservation(&self) -> Result<(), String> {
        let accounted = self.completed + self.drops + self.unresolved;
        if self.offered != accounted {
            return Err(format!(
                "fan-in lost arrivals: {} offered != {} completed + {} dropped + {} unresolved",
                self.offered, self.completed, self.drops, self.unresolved
            ));
        }
        Ok(())
    }
}

/// An arrival waiting for admission: when it first asked, and how many
/// times it has been refused.
struct Pending {
    first_ns: u64,
    tries: u32,
}

/// One flow's per-shard state.
struct Flow {
    /// Index into the shard's local path table.
    local_path: usize,
    gate: OnOff,
    pending: Option<Pending>,
}

/// A delivered buffer waiting out its hold window.
struct Held {
    id: FbufId,
    prod: DomainId,
    cons: DomainId,
}

struct ShardOutcome {
    offered: u64,
    completed: u64,
    drops: u64,
    unresolved: u64,
    bytes: u64,
    alloc_wait: Histogram,
    occ_sum: u128,
    occ_samples: u64,
    occ_peak: u64,
    sim_ns: u64,
    counters: StatsSnapshot,
    telemetry: Vec<SeriesSnapshot>,
}

/// Runs the fan-in workload and merges every shard's outcome.
///
/// Errors only on structural failure (a path refused, an unexpected
/// fault); admission denials are data, not errors.
pub fn run_fanin(cfg: &FaninConfig) -> Result<FaninReport, String> {
    assert!(cfg.flows >= 1 && cfg.paths >= 1 && cfg.shards >= 1);
    assert!(cfg.paths >= cfg.shards, "every shard needs a path");

    // Coordinator: Zipf-assign each flow a home path rank, then hand
    // each shard the ranks it owns. Domain-separated stream tag so the
    // assignment never correlates with the per-shard loops.
    let zipf = Zipf::new(cfg.paths, cfg.zipf_s);
    let mut rng = Rng::new(cfg.seed ^ 0xfa91_0a55_1697_0001);
    let mut shard_flows: Vec<Vec<usize>> = vec![Vec::new(); cfg.shards];
    for _ in 0..cfg.flows {
        let rank = zipf.sample(&mut rng);
        shard_flows[rank % cfg.shards].push(rank);
    }

    let outcomes: Vec<Result<ShardOutcome, String>> = thread::scope(|scope| {
        let handles: Vec<_> = shard_flows
            .into_iter()
            .enumerate()
            .map(|(shard, ranks)| scope.spawn(move || run_shard(cfg, shard, &ranks)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });

    let mut report = FaninReport {
        offered: 0,
        completed: 0,
        drops: 0,
        unresolved: 0,
        denials: 0,
        goodput_bytes: 0,
        alloc_wait: Histogram::new(),
        occupancy_mean: 0.0,
        occupancy_peak: 0,
        sim_ns: 0,
        counters: StatsSnapshot::default(),
        telemetry: Vec::new(),
    };
    let (mut occ_sum, mut occ_samples) = (0u128, 0u64);
    for outcome in outcomes {
        let o = outcome?;
        report.offered += o.offered;
        report.completed += o.completed;
        report.drops += o.drops;
        report.unresolved += o.unresolved;
        report.goodput_bytes += o.bytes;
        report.alloc_wait.merge(&o.alloc_wait);
        occ_sum += o.occ_sum;
        occ_samples += o.occ_samples;
        report.occupancy_peak = report.occupancy_peak.max(o.occ_peak);
        report.sim_ns = report.sim_ns.max(o.sim_ns);
        report.counters = report.counters.merge(&o.counters);
        if report.telemetry.is_empty() {
            report.telemetry = o.telemetry;
        }
    }
    report.denials = report.counters.chunk_quota_denials;
    report.occupancy_mean = if occ_samples == 0 {
        0.0
    } else {
        occ_sum as f64 / occ_samples as f64
    };
    report.check_conservation()?;
    Ok(report)
}

/// One shard's whole run: build its engine, its slice of the path
/// table, and its flows, then drive the arrival loop to completion.
fn run_shard(cfg: &FaninConfig, shard: usize, ranks: &[usize]) -> Result<ShardOutcome, String> {
    let mut sys = FbufSystem::new(cfg.machine.clone());
    sys.set_quota_policy(cfg.policy);
    if shard == 0 {
        // Gauge telemetry from one shard is representative; the series
        // registry's capacity bounds the per-path explosion by refusing
        // (and counting) the excess.
        let m = sys.machine().metrics();
        m.set_enabled(true);
        m.set_cadence(DEFAULT_CADENCE_NS);
    }

    // Local path table: every rank this shard owns, densely indexed.
    let mut paths: Vec<(PathId, DomainId, DomainId)> = Vec::new();
    let mut local_of = vec![usize::MAX; cfg.paths];
    for rank in (shard..cfg.paths).step_by(cfg.shards) {
        let prod = sys.create_domain();
        let cons = sys.create_domain();
        let path = sys
            .create_path(vec![prod, cons])
            .map_err(|e| format!("shard {shard}: create_path rank {rank}: {e}"))?;
        sys.set_path_class(path, class_of_rank(rank, cfg.paths))
            .map_err(|e| format!("shard {shard}: set_path_class rank {rank}: {e}"))?;
        local_of[rank] = paths.len();
        paths.push((path, prod, cons));
    }

    let mut rng = Rng::new(cfg.seed ^ 0xfa91_5bad_0000_0002 ^ ((shard as u64) << 32));
    let mut flows: Vec<Flow> = ranks
        .iter()
        .map(|&rank| Flow {
            local_path: local_of[rank],
            gate: OnOff::new(&mut rng, cfg.mean_on, cfg.mean_off),
            pending: None,
        })
        .collect();

    let len = cfg.pages * cfg.machine.page_size;
    let total_chunks = cfg.chunks_per_shard();
    let ring_len = (cfg.hold_steps + 1) as usize;
    let mut release_ring: Vec<Vec<Held>> = (0..ring_len).map(|_| Vec::new()).collect();

    let mut out = ShardOutcome {
        offered: 0,
        completed: 0,
        drops: 0,
        unresolved: 0,
        bytes: 0,
        alloc_wait: Histogram::new(),
        occ_sum: 0,
        occ_samples: 0,
        occ_peak: 0,
        sim_ns: 0,
        counters: StatsSnapshot::default(),
        telemetry: Vec::new(),
    };

    for step in 0..cfg.steps {
        // Buffers whose hold window expires this step drop both
        // references (consumer first, then the originating producer,
        // which parks the cached buffer on its path free list).
        for held in release_ring[(step as usize) % ring_len].drain(..) {
            sys.free(held.id, held.cons)
                .map_err(|e| format!("shard {shard}: consumer free: {e}"))?;
            sys.free(held.id, held.prod)
                .map_err(|e| format!("shard {shard}: producer free: {e}"))?;
        }

        for flow in &mut flows {
            // A refused arrival retries before the gate may offer new
            // work — it is head-of-line for its flow.
            let arrival = match flow.pending.take() {
                Some(p) => p,
                None => {
                    if !flow.gate.step(&mut rng) {
                        continue;
                    }
                    out.offered += 1;
                    Pending {
                        first_ns: sys.machine().now().0,
                        tries: 0,
                    }
                }
            };
            let (path, prod, cons) = paths[flow.local_path];
            let wait = sys.machine().now().0 - arrival.first_ns;
            match sys.alloc(prod, AllocMode::Cached(path), len) {
                Ok(id) => {
                    sys.write_fbuf(prod, id, 0, &arrival.first_ns.to_le_bytes())
                        .map_err(|e| format!("shard {shard}: stamp: {e}"))?;
                    sys.send(id, prod, cons, SendMode::Volatile)
                        .map_err(|e| format!("shard {shard}: send: {e}"))?;
                    // The control transfer rides the event-loop engine.
                    sys.hop(prod, cons);
                    out.alloc_wait.record(wait);
                    out.completed += 1;
                    out.bytes += len;
                    release_ring[((step + cfg.hold_steps) as usize) % ring_len].push(Held {
                        id,
                        prod,
                        cons,
                    });
                }
                Err(FbufError::QuotaExceeded { .. }) | Err(FbufError::RegionExhausted) => {
                    if arrival.tries >= cfg.retries {
                        out.drops += 1;
                    } else {
                        flow.pending = Some(Pending {
                            first_ns: arrival.first_ns,
                            tries: arrival.tries + 1,
                        });
                    }
                }
                Err(e) => return Err(format!("shard {shard}: alloc: {e}")),
            }
        }

        let occ = total_chunks - sys.free_chunks();
        out.occ_sum += u128::from(occ);
        out.occ_samples += 1;
        out.occ_peak = out.occ_peak.max(occ);
        sys.sample_metrics();

        debug_assert_eq!(sys.engine_pending(), 0, "hop() drains the loop");
    }

    // Drain the hold windows so every delivered buffer is freed; the
    // arrivals still mid-retry are reported, not silently forgotten.
    for bucket in &mut release_ring {
        for held in bucket.drain(..) {
            sys.free(held.id, held.cons)
                .map_err(|e| format!("shard {shard}: drain consumer free: {e}"))?;
            sys.free(held.id, held.prod)
                .map_err(|e| format!("shard {shard}: drain producer free: {e}"))?;
        }
    }
    out.unresolved = flows.iter().filter(|f| f.pending.is_some()).count() as u64;
    out.sim_ns = sys.machine().now().0;
    out.counters = sys.stats().snapshot();
    if shard == 0 {
        out.telemetry = sys.machine().metrics().series();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: QuotaPolicy) -> FaninConfig {
        let mut cfg = FaninConfig::new(policy, 0xfa21_0001);
        cfg.flows = 600;
        cfg.paths = 32;
        cfg.shards = 2;
        cfg.steps = 80;
        cfg.machine.fbuf_region_size = 8 << 20; // 128 chunks per shard
        cfg
    }

    #[test]
    fn fan_in_conserves_arrivals_and_replays_deterministically() {
        let cfg = small(QuotaPolicy::Static);
        let a = run_fanin(&cfg).unwrap();
        let b = run_fanin(&cfg).unwrap();
        assert!(a.offered > 0 && a.completed > 0, "workload must do work");
        a.check_conservation().unwrap();
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.denials, b.denials);
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.alloc_wait.count(), b.alloc_wait.count());
        assert_eq!(a.alloc_wait.max(), b.alloc_wait.max());
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn skewed_fan_in_favours_the_dynamic_policy() {
        // The acceptance scenario in miniature: same memory, same
        // flows, Zipf-hot paths. The static quota must drop strictly
        // more arrivals and stall the tail strictly longer.
        let st = run_fanin(&small(QuotaPolicy::Static)).unwrap();
        let dy = run_fanin(&small(QuotaPolicy::fb_dynamic())).unwrap();
        assert!(
            dy.drops < st.drops,
            "dynamic {} drops vs static {}",
            dy.drops,
            st.drops
        );
        assert!(
            dy.alloc_wait.p99() < st.alloc_wait.p99(),
            "dynamic p99 {} vs static {}",
            dy.alloc_wait.p99(),
            st.alloc_wait.p99()
        );
    }

    #[test]
    fn telemetry_and_occupancy_are_populated() {
        let r = run_fanin(&small(QuotaPolicy::priority_weighted())).unwrap();
        assert!(!r.telemetry.is_empty(), "shard 0 samples gauges");
        assert!(r.telemetry.iter().any(|s| s.name == "free_chunks"));
        assert!(r.occupancy_peak > 0);
        assert!(r.occupancy_mean > 0.0);
        assert!(r.goodput_bytes > 0);
    }

    #[test]
    fn priority_classes_cover_the_popularity_buckets() {
        let classes: Vec<u8> = (0..64).map(|r| class_of_rank(r, 64)).collect();
        assert_eq!(classes[0], 3);
        assert_eq!(classes[8], 2);
        assert_eq!(classes[20], 1);
        assert_eq!(classes[40], 0);
        assert!(classes.windows(2).all(|w| w[0] >= w[1]), "monotone");
    }
}
