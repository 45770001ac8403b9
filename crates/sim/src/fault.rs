//! Deterministic fault injection.
//!
//! A [`FaultSpec`] is a plain-data, `Send` description of *which* failures
//! to inject and *how often*: a SplitMix64 seed, a per-site firing rate
//! (numerator over 65 536), and an optional "crash domain after step k"
//! directive. Arming a spec produces a [`FaultPlan`] — the single-threaded
//! runtime object that subsystems consult at named [`FaultSite`]s.
//!
//! The contract mirrors `trace::Tracer`: hook points cost one
//! `Option::is_some()` branch when no plan is armed, and consulting a plan
//! whose rate for that site is zero draws **no** random number, so adding
//! hook points never perturbs the random stream of an existing plan.
//!
//! # Replay
//!
//! Every consult advances shared state deterministically, so the same spec
//! replays the same fault schedule bit-for-bit. When the decision log is
//! enabled ([`FaultPlan::set_log`]), each consult is recorded as a
//! [`FaultDecision`]; the lockstep model fuzzer drains this log after every
//! command and replays the decisions positionally inside its reference
//! model, so the oracle fails exactly where the real system failed.
//!
//! ```
//! use fbuf_sim::fault::{FaultSite, FaultSpec};
//!
//! let plan = FaultSpec::new(42).rate(FaultSite::ChunkGrant, u16::MAX).arm();
//! let fired = (0..16).filter(|_| plan.fires(FaultSite::ChunkGrant)).count();
//! assert!(fired >= 15); // rate ≈ 1.0: (almost) always fires
//! assert!(!plan.fires(FaultSite::FrameAlloc)); // rate = 0: never fires
//! assert_eq!(plan.injected(FaultSite::ChunkGrant) as usize, fired);
//! ```

use std::cell::{Cell, RefCell};

use crate::rng::splitmix64;

/// Named places in the stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// `ChunkAllocator::grant` refuses (simulated fbuf-region exhaustion).
    ChunkGrant = 0,
    /// A per-(domain, path) allocator behaves as if at quota.
    QuotaExhausted = 1,
    /// `Machine::alloc_frame` refuses (simulated physical-memory pressure).
    FrameAlloc = 2,
    /// `reclaim_frames` stops early, as if the coldest parked buffer were
    /// pinned (e.g. wired for DMA) and could not be reclaimed.
    ReclaimRefusal = 3,
    /// A cross-shard SPSC push behaves as if the ring were full.
    RingFull = 4,
    /// A protection domain is torn down after a configured step count.
    DomainCrash = 5,
}

/// Number of distinct [`FaultSite`]s.
pub const SITE_COUNT: usize = 6;

impl FaultSite {
    /// All sites, in discriminant order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::ChunkGrant,
        FaultSite::QuotaExhausted,
        FaultSite::FrameAlloc,
        FaultSite::ReclaimRefusal,
        FaultSite::RingFull,
        FaultSite::DomainCrash,
    ];

    /// Stable lowercase name for reports and corpus files.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ChunkGrant => "chunk_grant",
            FaultSite::QuotaExhausted => "quota_exhausted",
            FaultSite::FrameAlloc => "frame_alloc",
            FaultSite::ReclaimRefusal => "reclaim_refusal",
            FaultSite::RingFull => "ring_full",
            FaultSite::DomainCrash => "domain_crash",
        }
    }
}

/// One recorded consult: which site asked, and whether the fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    pub site: FaultSite,
    pub fired: bool,
}

/// Plain-data description of a fault schedule. `Send + Clone`, so it can
/// cross into shard threads; arm it on the owning thread with
/// [`FaultSpec::arm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// SplitMix64 seed for the draw stream.
    pub seed: u64,
    /// Per-site firing probability, as a numerator over 65 536.
    pub rates: [u16; SITE_COUNT],
    /// Crash a domain once the driver's step counter reaches this value.
    /// Interpreted by the harness driving the system, not by the hooks.
    pub crash_after: Option<u64>,
}

impl FaultSpec {
    /// A quiet spec: nothing fires until rates are set.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            rates: [0; SITE_COUNT],
            crash_after: None,
        }
    }

    /// Sets the firing rate for `site` to `per_64k` / 65 536.
    pub fn rate(mut self, site: FaultSite, per_64k: u16) -> Self {
        self.rates[site as usize] = per_64k;
        self
    }

    /// Requests a domain crash once the driver reaches step `k`.
    pub fn crash_after(mut self, k: u64) -> Self {
        self.crash_after = Some(k);
        self
    }

    /// True if this spec can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.crash_after.is_none() && self.rates.iter().all(|&r| r == 0)
    }

    /// Builds the runtime plan for this spec.
    pub fn arm(&self) -> FaultPlan {
        FaultPlan {
            state: Cell::new(self.seed),
            rates: self.rates,
            crash_after: Cell::new(self.crash_after),
            consulted: Default::default(),
            injected: Default::default(),
            log_enabled: Cell::new(false),
            log: RefCell::new(Vec::new()),
        }
    }
}

/// Runtime fault schedule, shared by `Rc` between the layers of one
/// engine (machine, fbuf system, shard). Single-threaded by design, like
/// `Tracer`.
#[derive(Debug)]
pub struct FaultPlan {
    state: Cell<u64>,
    rates: [u16; SITE_COUNT],
    crash_after: Cell<Option<u64>>,
    consulted: [Cell<u64>; SITE_COUNT],
    injected: [Cell<u64>; SITE_COUNT],
    log_enabled: Cell<bool>,
    log: RefCell<Vec<FaultDecision>>,
}

impl FaultPlan {
    /// Consults the plan at `site`. Returns true if the fault fires.
    ///
    /// Sites with rate zero never draw from the random stream, so they
    /// are both free and invisible to other sites' schedules.
    pub fn fires(&self, site: FaultSite) -> bool {
        let i = site as usize;
        self.consulted[i].set(self.consulted[i].get() + 1);
        let fired = if self.rates[i] == 0 {
            false
        } else {
            let mut s = self.state.get();
            let draw = splitmix64(&mut s);
            self.state.set(s);
            (draw & 0xffff) < u64::from(self.rates[i])
        };
        if fired {
            self.injected[i].set(self.injected[i].get() + 1);
        }
        if self.log_enabled.get() {
            self.log.borrow_mut().push(FaultDecision { site, fired });
        }
        fired
    }

    /// One-shot crash check: true exactly once, the first time `step`
    /// reaches the configured threshold. Driver-level — not logged, since
    /// the lockstep harness handles the crash itself.
    pub fn crash_due(&self, step: u64) -> bool {
        match self.crash_after.get() {
            Some(k) if step >= k => {
                self.crash_after.set(None);
                let i = FaultSite::DomainCrash as usize;
                self.consulted[i].set(self.consulted[i].get() + 1);
                self.injected[i].set(self.injected[i].get() + 1);
                true
            }
            _ => false,
        }
    }

    /// Times `site` has been consulted.
    pub fn consulted(&self, site: FaultSite) -> u64 {
        self.consulted[site as usize].get()
    }

    /// Times `site` actually fired.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site as usize].get()
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().map(Cell::get).sum()
    }

    /// Enables or disables the per-consult decision log.
    pub fn set_log(&self, on: bool) {
        self.log_enabled.set(on);
    }

    /// Takes every decision recorded since the last drain.
    pub fn drain_log(&self) -> Vec<FaultDecision> {
        std::mem::take(&mut *self.log.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_spec_never_fires_and_never_draws() {
        let plan = FaultSpec::new(7).arm();
        for _ in 0..100 {
            for site in FaultSite::ALL {
                assert!(!plan.fires(site));
            }
        }
        assert_eq!(plan.total_injected(), 0);
        assert_eq!(plan.consulted(FaultSite::ChunkGrant), 100);
    }

    #[test]
    fn full_rate_always_fires() {
        let plan = FaultSpec::new(1).rate(FaultSite::FrameAlloc, u16::MAX).arm();
        // u16::MAX / 65536 is not quite 1.0; use a seed-independent check
        // at the true ceiling instead.
        let certain = FaultSpec::new(1).rate(FaultSite::FrameAlloc, u16::MAX).arm();
        let mut fired = 0;
        for _ in 0..1000 {
            if certain.fires(FaultSite::FrameAlloc) {
                fired += 1;
            }
        }
        assert!(fired > 980, "near-certain rate fired only {fired}/1000");
        drop(plan);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultSpec::new(0xdead_beef).rate(FaultSite::ChunkGrant, 20_000);
        let b = a.clone();
        let (pa, pb) = (a.arm(), b.arm());
        for _ in 0..500 {
            assert_eq!(
                pa.fires(FaultSite::ChunkGrant),
                pb.fires(FaultSite::ChunkGrant)
            );
        }
        assert_eq!(pa.injected(FaultSite::ChunkGrant), pb.injected(FaultSite::ChunkGrant));
    }

    #[test]
    fn zero_rate_sites_do_not_perturb_the_stream() {
        let spec = FaultSpec::new(99).rate(FaultSite::RingFull, 30_000);
        let lone = spec.clone().arm();
        let mixed = spec.arm();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..200 {
            a.push(lone.fires(FaultSite::RingFull));
            // Interleave consults of zero-rate sites: must not shift draws.
            mixed.fires(FaultSite::FrameAlloc);
            mixed.fires(FaultSite::QuotaExhausted);
            b.push(mixed.fires(FaultSite::RingFull));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn crash_due_is_one_shot() {
        let plan = FaultSpec::new(3).crash_after(10).arm();
        assert!(!plan.crash_due(9));
        assert!(plan.crash_due(10));
        assert!(!plan.crash_due(11));
        assert_eq!(plan.injected(FaultSite::DomainCrash), 1);
    }

    #[test]
    fn decision_log_records_consults_in_order() {
        let plan = FaultSpec::new(5).rate(FaultSite::ChunkGrant, u16::MAX).arm();
        plan.set_log(true);
        plan.fires(FaultSite::FrameAlloc);
        plan.fires(FaultSite::ChunkGrant);
        let log = plan.drain_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].site, FaultSite::FrameAlloc);
        assert!(!log[0].fired);
        assert_eq!(log[1].site, FaultSite::ChunkGrant);
        assert!(plan.drain_log().is_empty());
    }

    #[test]
    fn is_quiet_reflects_rates_and_crash() {
        assert!(FaultSpec::new(0).is_quiet());
        assert!(!FaultSpec::new(0).rate(FaultSite::RingFull, 1).is_quiet());
        assert!(!FaultSpec::new(0).crash_after(5).is_quiet());
    }
}
