//! What every workload gives the runner: a seeded set-up, a fixed round
//! of transfers, and the simulated state of its machines.

use fbuf_sim::{CostCategory, Json, StatsSnapshot};
use fbuf_vm::Machine;

use crate::probe::Probe;

/// The outcome of one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Round {
    /// Transfers attempted (cycles, fan-in arrivals, messages).
    pub attempted: u64,
    /// Transfers completed and verified.
    pub transfers: u64,
    /// Payload bytes those transfers delivered.
    pub bytes: u64,
    /// Transfers that failed or did not verify.
    pub failed: u64,
    /// Arrivals the admission policy refused for good.
    pub dropped: u64,
}

/// Layer counts the simulated machines do not keep themselves:
/// cumulative, read by the workload from the layers' public state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extra {
    /// Cross-shard payloads sent over the data ring.
    pub ring_payloads: u64,
    /// Dealloc-notice batches flushed onto the reverse ring.
    pub notice_batches: u64,
    /// Tokens those batches carried.
    pub notice_tokens: u64,
    /// Telemetry points recorded (retained plus evicted).
    pub metric_points: u64,
    /// Telemetry series names refused at the series cap.
    pub refused_names: u64,
    /// Allocation attempts under chunk admission (first tries + retries).
    pub attempts: u64,
    /// Attempts admission refused.
    pub denied: u64,
    /// Attempts that were retries of a refused arrival.
    pub retries: u64,
    /// Arrivals dropped after exhausting their retries.
    pub drops: u64,
}

impl Extra {
    fn zip(&self, o: &Extra, f: impl Fn(u64, u64) -> u64) -> Extra {
        Extra {
            ring_payloads: f(self.ring_payloads, o.ring_payloads),
            notice_batches: f(self.notice_batches, o.notice_batches),
            notice_tokens: f(self.notice_tokens, o.notice_tokens),
            metric_points: f(self.metric_points, o.metric_points),
            refused_names: f(self.refused_names, o.refused_names),
            attempts: f(self.attempts, o.attempts),
            denied: f(self.denied, o.denied),
            retries: f(self.retries, o.retries),
            drops: f(self.drops, o.drops),
        }
    }
}

/// Cumulative simulated state of a workload's machines, summed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sim {
    /// Busy time per [`CostCategory`], ns, in `CostCategory::ALL` order.
    pub cat_ns: [u64; CostCategory::ALL.len()],
    /// Simulated time on the clocks that deliver the payload, ns.
    pub elapsed_ns: u64,
    /// Operation counters.
    pub stats: StatsSnapshot,
    /// Counts kept outside the machines.
    pub extra: Extra,
}

impl Sim {
    /// Adds one machine's clock and counters; `delivers` marks a machine
    /// whose clock times payload delivery (its `now` joins `elapsed_ns`).
    pub fn add_machine(&mut self, m: &Machine, delivers: bool) {
        for (slot, (_, ns)) in self.cat_ns.iter_mut().zip(m.clock().breakdown()) {
            *slot += ns.0;
        }
        if delivers {
            self.elapsed_ns += m.clock().now().0;
        }
        self.stats = self.stats.plus(&m.stats().snapshot());
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Sim) -> Sim {
        self.zip(other, u64::saturating_add, self.stats.plus(&other.stats))
    }

    /// `self - earlier`, field by field.
    pub fn delta(&self, earlier: &Sim) -> Sim {
        self.zip(
            earlier,
            u64::saturating_sub,
            self.stats.delta(&earlier.stats),
        )
    }

    fn zip(&self, o: &Sim, f: impl Fn(u64, u64) -> u64 + Copy, stats: StatsSnapshot) -> Sim {
        let mut cat_ns = self.cat_ns;
        for (c, &x) in cat_ns.iter_mut().zip(&o.cat_ns) {
            *c = f(*c, x);
        }
        Sim {
            cat_ns,
            elapsed_ns: f(self.elapsed_ns, o.elapsed_ns),
            stats,
            extra: self.extra.zip(&o.extra, f),
        }
    }
}

/// One benchmark workload. Everything it does is a pure function of the
/// seed, so the simulated side repeats bit for bit.
pub trait Workload: Sized {
    /// Builds every engine, domain and path from the seed and warms every
    /// cache the rounds will use.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Runs one round: the same seeded work every time it is called.
    fn round(&mut self, probe: &mut Probe) -> Result<Round, String>;

    /// The machines' cumulative simulated state.
    fn sim(&self) -> Sim;

    /// Workload parameters and machine geometry, for the repro header.
    fn describe(&self) -> Json;

    /// A digest of the inputs generated from the seed (the self-tests
    /// check that seeds differ).
    fn inputs_digest(&self) -> u64;
}

/// FNV-1a over a sequence of words: a stable digest of generated inputs.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The machine geometry every repro header names.
pub fn geometry(cfg: &fbuf_sim::MachineConfig, policy: fbuf::QuotaPolicy) -> Json {
    use fbuf_sim::ToJson;
    Json::obj(vec![
        ("fbuf_region_bytes", cfg.fbuf_region_size.to_json()),
        ("chunk_bytes", cfg.chunk_size.to_json()),
        ("phys_mem_bytes", cfg.phys_mem.to_json()),
        ("page_bytes", cfg.page_size.to_json()),
        ("max_chunks_per_path", cfg.max_chunks_per_path.to_json()),
        ("policy", policy.name().to_json()),
    ])
}
