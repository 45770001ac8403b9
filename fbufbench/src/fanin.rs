//! `fanin-observed`: Zipf fan-in under the `fb-dynamic` admission policy
//! with telemetry on.
//!
//! The fan-in loop of `fbuf-fanin`, driven here so that each call can be
//! timed: flows are assigned to 128 two-domain paths by a Zipf(1.1) law
//! and gated by on/off bursts. An active step offers one transfer —
//! allocate a cached fbuf on the flow's path, stamp it, send it producer
//! → consumer, hop — and the buffer is held for a few steps before both
//! references drop. An allocation admission refuses is retried on the
//! following steps, up to [`RETRIES`] times, and then dropped. Telemetry
//! samples at the default cadence inside the system, and the benchmark
//! records every gauge once per step with a direct `sample_gauges_at`
//! call.
//!
//! Admission pressure comes from chunk growth, which no cache warm-up
//! can precede, so every round is one whole episode from a cold engine:
//! the region fills while hot paths grow, and from then on admission
//! refuses a visible share of attempts. Each episode replays the same
//! seeded flows on a freshly built engine, so rounds are identical.
//!
//! Every episode checks the system's own counters against what the
//! benchmark saw: every allocation call is a cache hit or a miss, and
//! the quota denials the system counted are the refusals it returned.
//! A drop is the admission policy's decision, not a failed operation: it
//! is reported (`policy.drops`, and `failed_frac` in the result file)
//! without failing the run.

use fbuf::{AllocMode, FbufError, FbufId, FbufSystem, PathId, QuotaPolicy, SendMode};
use fbuf_sim::metrics::DEFAULT_CADENCE_NS;
use fbuf_sim::workload::{OnOff, Zipf};
use fbuf_sim::{Json, MachineConfig, Rng, StatsSnapshot, ToJson};
use fbuf_vm::DomainId;

use crate::probe::{Layer, Probe};
use crate::workload::{digest, geometry, Extra, Round, Sim, Workload};

/// Two-domain paths on the engine.
const PATHS: usize = 128;
/// Flows funnelled into the paths.
const FLOWS: usize = 1_000;
/// Zipf skew of path popularity.
const ZIPF_S: f64 = 1.1;
/// Mean burst and silence lengths of a flow, in steps.
const MEAN_ON: u64 = 40;
const MEAN_OFF: u64 = 160;
/// Steps a delivered buffer is held before both references drop.
const HOLD_STEPS: u64 = 4;
/// Retries of a refused arrival before it is dropped, as in `fbuf-fanin`.
const RETRIES: u32 = 3;
/// Steps per episode (one episode per round).
const STEPS: u64 = 40;
/// The fbuf region: 96 chunks of 64 KB, which the hot paths fill within
/// an episode's first steps.
const REGION_BYTES: u64 = 6 << 20;

struct Flow {
    path: usize,
    gate: OnOff,
    /// Refusals so far of the arrival waiting for admission, if any.
    waiting: Option<u32>,
}

struct Held {
    id: FbufId,
    prod: DomainId,
    cons: DomainId,
}

/// One episode: a cold engine and the seeded flows.
struct Episode {
    sys: FbufSystem,
    /// The engine's counters before the first step.
    base: StatsSnapshot,
    paths: Vec<(PathId, DomainId, DomainId)>,
    flows: Vec<Flow>,
    rng: Rng,
    release: Vec<Vec<Held>>,
    step: u64,
    offered: u64,
    completed: u64,
    /// Refusals that were quota denials (the rest found the region empty).
    quota_refusals: u64,
    extra: Extra,
}

/// The workload: the episode under way and the episodes finished.
pub struct Fanin {
    seed: u64,
    episode: Episode,
    finished: Sim,
}

impl Episode {
    fn new(seed: u64) -> Result<Episode, String> {
        let mut cfg = MachineConfig::decstation_5000_200();
        cfg.phys_mem = 64 << 20;
        cfg.fbuf_region_size = REGION_BYTES;
        let mut sys = FbufSystem::new(cfg);
        sys.set_quota_policy(QuotaPolicy::fb_dynamic());
        let metrics = sys.machine().metrics_ref();
        metrics.set_enabled(true);
        metrics.set_cadence(DEFAULT_CADENCE_NS);
        let mut paths = Vec::with_capacity(PATHS);
        for _ in 0..PATHS {
            let (prod, cons) = (sys.create_domain(), sys.create_domain());
            let path = sys
                .create_path(vec![prod, cons])
                .map_err(|e| format!("create_path: {e}"))?;
            paths.push((path, prod, cons));
        }
        let zipf = Zipf::new(PATHS, ZIPF_S);
        let mut rng = Rng::new(seed ^ 0xfa91_0b5e_0000_0001);
        let flows = (0..FLOWS)
            .map(|_| Flow {
                path: zipf.sample(&mut rng),
                gate: OnOff::new(&mut rng, MEAN_ON, MEAN_OFF),
                waiting: None,
            })
            .collect();
        Ok(Episode {
            base: sys.stats().snapshot(),
            sys,
            paths,
            flows,
            rng,
            release: (0..=HOLD_STEPS).map(|_| Vec::new()).collect(),
            step: 0,
            offered: 0,
            completed: 0,
            quota_refusals: 0,
            extra: Extra::default(),
        })
    }

    /// Drops both references of every buffer held in `slot`.
    fn release_slot(&mut self, slot: usize, probe: &mut Probe) -> Result<(), String> {
        let sys = &mut self.sys;
        for held in std::mem::take(&mut self.release[slot]) {
            for dom in [held.cons, held.prod] {
                probe
                    .call(Layer::SystemFree, || sys.free(held.id, dom))
                    .map_err(|e| format!("free: {e}"))?;
            }
        }
        Ok(())
    }

    fn step(&mut self, probe: &mut Probe, out: &mut Round) -> Result<(), String> {
        let ring_len = self.release.len();
        self.release_slot((self.step as usize) % ring_len, probe)?;
        let len = self.sys.machine().config().page_size;
        let sys = &mut self.sys;
        for flow in &mut self.flows {
            let tries = match flow.waiting.take() {
                Some(tries) => {
                    self.extra.retries += 1;
                    tries
                }
                None if flow.gate.step(&mut self.rng) => {
                    self.offered += 1;
                    out.attempted += 1;
                    0
                }
                None => continue,
            };
            self.extra.attempts += 1;
            let (path, prod, cons) = self.paths[flow.path];
            probe.begin_transfer();
            match probe.call(Layer::SystemAlloc, || {
                sys.alloc(prod, AllocMode::Cached(path), len)
            }) {
                Ok(id) => {
                    let sent = sys
                        .write_fbuf(prod, id, 0, &self.step.to_le_bytes())
                        .and_then(|()| {
                            probe.call(Layer::SystemSend, || {
                                sys.send(id, prod, cons, SendMode::Volatile)
                            })
                        });
                    if let Err(e) = sent {
                        probe.end_transfer(false);
                        return Err(format!("stamp or send: {e}"));
                    }
                    probe.call(Layer::EngineHop, || sys.hop(prod, cons));
                    probe.end_transfer(true);
                    self.completed += 1;
                    out.transfers += 1;
                    out.bytes += len;
                    let due = (self.step + HOLD_STEPS) as usize % ring_len;
                    self.release[due].push(Held { id, prod, cons });
                }
                Err(e @ (FbufError::QuotaExceeded { .. } | FbufError::RegionExhausted)) => {
                    probe.end_transfer(false);
                    self.extra.denied += 1;
                    if matches!(e, FbufError::QuotaExceeded { .. }) {
                        self.quota_refusals += 1;
                    }
                    if tries >= RETRIES {
                        self.extra.drops += 1;
                        out.dropped += 1;
                    } else {
                        flow.waiting = Some(tries + 1);
                    }
                }
                Err(e) => {
                    probe.end_transfer(false);
                    return Err(format!("alloc: {e}"));
                }
            }
        }
        probe.call(Layer::MetricsSample, || {
            sys.sample_gauges_at(sys.machine().now())
        });
        self.step += 1;
        Ok(())
    }

    /// Frees every held buffer and checks the engine's counters against
    /// the calls the benchmark made and the outcomes it saw.
    fn finish(&mut self, probe: &mut Probe) -> Result<(), String> {
        for slot in 0..self.release.len() {
            self.release_slot(slot, probe)?;
        }
        let d = self.sys.stats().snapshot().delta(&self.base);
        let unresolved = self.flows.iter().filter(|f| f.waiting.is_some()).count() as u64;
        let mut broken = Vec::new();
        if d.fbuf_cache_hits + d.fbuf_cache_misses != self.extra.attempts {
            broken.push(format!(
                "{} cache hits + {} misses != {} allocation calls",
                d.fbuf_cache_hits, d.fbuf_cache_misses, self.extra.attempts
            ));
        }
        if d.chunk_quota_denials != self.quota_refusals {
            broken.push(format!(
                "{} quota denials counted != {} refused",
                d.chunk_quota_denials, self.quota_refusals
            ));
        }
        if self.offered != self.completed + self.extra.drops + unresolved {
            broken.push(format!(
                "{} offered != {} completed + {} dropped + {unresolved} unresolved",
                self.offered, self.completed, self.extra.drops
            ));
        }
        if broken.is_empty() {
            Ok(())
        } else {
            Err(format!("fan-in episode: {}", broken.join("; ")))
        }
    }

    fn sim(&self) -> Sim {
        let mut sim = Sim::default();
        let m = self.sys.machine();
        sim.add_machine(m, true);
        let metrics = m.metrics_ref();
        sim.extra = Extra {
            metric_points: metrics
                .series()
                .iter()
                .map(|s| s.points.len() as u64 + s.dropped)
                .sum(),
            refused_names: metrics.refused_names(),
            ..self.extra
        };
        sim
    }
}

impl Workload for Fanin {
    fn setup(seed: u64) -> Result<Fanin, String> {
        Ok(Fanin {
            seed,
            episode: Episode::new(seed)?,
            finished: Sim::default(),
        })
    }

    fn round(&mut self, probe: &mut Probe) -> Result<Round, String> {
        let mut out = Round::default();
        for _ in 0..STEPS {
            self.episode.step(probe, &mut out)?;
        }
        self.episode.finish(probe)?;
        self.finished = self.finished.plus(&self.episode.sim());
        self.episode = Episode::new(self.seed)?;
        Ok(out)
    }

    fn sim(&self) -> Sim {
        self.finished.plus(&self.episode.sim())
    }

    fn describe(&self) -> Json {
        let sys = &self.episode.sys;
        Json::obj(vec![
            ("paths", PATHS.to_json()),
            ("domains_per_path", 2u64.to_json()),
            ("flows", FLOWS.to_json()),
            ("zipf_s", ZIPF_S.to_json()),
            ("mean_on_steps", MEAN_ON.to_json()),
            ("mean_off_steps", MEAN_OFF.to_json()),
            ("hold_steps", HOLD_STEPS.to_json()),
            ("retries", RETRIES.to_json()),
            ("steps_per_episode", STEPS.to_json()),
            (
                "bytes_per_buffer",
                sys.machine().config().page_size.to_json(),
            ),
            ("telemetry_cadence_ns", DEFAULT_CADENCE_NS.to_json()),
            (
                "machine",
                geometry(sys.machine().config(), sys.quota_policy()),
            ),
        ])
    }

    fn inputs_digest(&self) -> u64 {
        let ep = &self.episode;
        digest(
            ep.flows
                .iter()
                .map(|f| (f.path as u64) << 1 | f.gate.is_on() as u64),
        )
    }
}
