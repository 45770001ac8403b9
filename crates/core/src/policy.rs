//! Pluggable chunk-admission policies (dynamic buffer sharing).
//!
//! The paper's only defence against a path that never deallocates is a
//! *static* per-allocator chunk cap (`max_chunks_per_path`, §3.3). Under
//! skewed traffic a static cap is wrong in both directions: hot paths
//! starve at their cap while cold paths strand the region's free chunks
//! behind quota headroom they never use. This module makes the admission
//! decision pluggable — the FB paper's dynamic-threshold scheme ("FB: A
//! Flexible Buffer Management Scheme for Data Center Switches", see
//! PAPERS.md) mapped onto the fbuf region's two-level chunk allocation.
//!
//! A policy answers exactly one question, at the single point where
//! `FbufSystem::build` is about to request a chunk from the kernel
//! dispenser: *may this (domain, path) allocator grow by one chunk?* The
//! inputs are O(1) snapshots the system already maintains — the
//! allocator's current chunk count, the dispenser's free-chunk count, the
//! static quota, and the path's priority class — so recomputing the
//! threshold on every allocation costs a handful of integer ops
//! (the FB paper's O(1)-per-operation requirement).
//!
//! Three implementations:
//!
//! * [`QuotaPolicy::Static`] — the paper's behaviour, bit-identical:
//!   deny once the allocator holds `max_chunks_per_path` chunks
//!   (pinned in `tests/counter_exactness.rs`).
//! * [`QuotaPolicy::FbDynamic`] — FB-style dynamic threshold: the cap is
//!   `alpha × free_chunks` (never below one chunk), so a hot path may
//!   keep growing exactly as long as the region has slack, and the
//!   shrinking free pool itself throttles every path as pressure rises.
//! * [`QuotaPolicy::PriorityWeighted`] — the dynamic threshold scaled by
//!   a per-priority-class weight, so gold-class paths see a higher
//!   effective alpha than best-effort ones under the same pressure.
//!
//! The active policy flows through the lockstep oracle
//! (`crates/model/src/oracle.rs` reimplements the threshold math
//! independently) and `repro fuzz` derives a policy per case from the case
//! seed, so dynamic thresholds are fuzzed, not hand-picked. The fan-in
//! harness (`repro fanin`) measures the policies against each other under
//! Zipf-skewed load. See `DESIGN.md` §15.

/// Number of priority classes [`QuotaPolicy::PriorityWeighted`]
/// distinguishes; classes at or above this index wrap around.
pub const PRIORITY_CLASSES: usize = 4;

/// The default priority-class weights, in percent of the base alpha:
/// class 0 (best effort) at 50%, up to class 3 (gold) at 200%.
pub const DEFAULT_WEIGHTS: [u64; PRIORITY_CLASSES] = [50, 100, 150, 200];

/// A chunk-admission policy: decides whether a per-(domain, path)
/// allocator may be granted one more chunk. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuotaPolicy {
    /// The paper's static per-allocator cap: deny at
    /// `max_chunks_per_path` chunks, regardless of global slack.
    #[default]
    Static,
    /// FB-style dynamic threshold: cap = `alpha_num × free_chunks /
    /// alpha_den`, floored at one chunk. `free_chunks` is the kernel
    /// dispenser's remaining supply, so the threshold falls as the
    /// region fills — self-throttling without any per-path state.
    FbDynamic {
        /// Numerator of alpha.
        alpha_num: u64,
        /// Denominator of alpha (must be non-zero).
        alpha_den: u64,
    },
    /// The dynamic threshold scaled per priority class:
    /// cap = `alpha × free_chunks × weights[class] / 100`, floored at
    /// one chunk. Class indices wrap at [`PRIORITY_CLASSES`].
    PriorityWeighted {
        /// Numerator of the base alpha.
        alpha_num: u64,
        /// Denominator of the base alpha (must be non-zero).
        alpha_den: u64,
        /// Per-class weight in percent of the base alpha.
        weights: [u64; PRIORITY_CLASSES],
    },
}

impl QuotaPolicy {
    /// The FB-style dynamic policy at alpha = 1 (a path may hold as many
    /// chunks as remain free — the FB paper's classic operating point).
    pub fn fb_dynamic() -> QuotaPolicy {
        QuotaPolicy::FbDynamic {
            alpha_num: 1,
            alpha_den: 1,
        }
    }

    /// The priority-weighted dynamic policy at alpha = 1 with the
    /// [`DEFAULT_WEIGHTS`] class ladder.
    pub fn priority_weighted() -> QuotaPolicy {
        QuotaPolicy::PriorityWeighted {
            alpha_num: 1,
            alpha_den: 1,
            weights: DEFAULT_WEIGHTS,
        }
    }

    /// The allocator-size cap this policy imposes right now, given the
    /// dispenser's free-chunk count, the static quota, and the path's
    /// priority class. Dynamic caps never fall below one chunk, so a
    /// path can always hold *something* while the region has supply.
    pub fn threshold(&self, free_chunks: u64, quota: usize, class: u8) -> u64 {
        match *self {
            QuotaPolicy::Static => quota as u64,
            QuotaPolicy::FbDynamic {
                alpha_num,
                alpha_den,
            } => (alpha_num * free_chunks / alpha_den.max(1)).max(1),
            QuotaPolicy::PriorityWeighted {
                alpha_num,
                alpha_den,
                weights,
            } => {
                let w = weights[class as usize % PRIORITY_CLASSES];
                (alpha_num * free_chunks * w / (alpha_den.max(1) * 100)).max(1)
            }
        }
    }

    /// Whether an allocator currently holding `held` chunks may be
    /// granted one more.
    pub fn admits(&self, held: usize, free_chunks: u64, quota: usize, class: u8) -> bool {
        (held as u64) < self.threshold(free_chunks, quota, class)
    }

    /// Stable lowercase name, used in `BENCH_*.json` repro headers and
    /// accepted back by [`QuotaPolicy::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            QuotaPolicy::Static => "static",
            QuotaPolicy::FbDynamic { .. } => "fb-dynamic",
            QuotaPolicy::PriorityWeighted { .. } => "priority",
        }
    }

    /// Parses a policy name (as emitted by [`QuotaPolicy::name`]) into
    /// the default-parameter policy of that family.
    pub fn parse(s: &str) -> Option<QuotaPolicy> {
        match s {
            "static" => Some(QuotaPolicy::Static),
            "fb-dynamic" => Some(QuotaPolicy::fb_dynamic()),
            "priority" => Some(QuotaPolicy::priority_weighted()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_is_the_quota_bit_for_bit() {
        let p = QuotaPolicy::Static;
        for quota in [1usize, 8, 64] {
            for held in 0..(quota + 2) {
                // Free-chunk count and class are irrelevant to Static.
                for free in [0u64, 1, 1000] {
                    assert_eq!(p.admits(held, free, quota, 3), held < quota);
                }
            }
        }
    }

    #[test]
    fn dynamic_threshold_tracks_free_chunks() {
        let p = QuotaPolicy::fb_dynamic();
        assert_eq!(p.threshold(100, 8, 0), 100);
        assert_eq!(p.threshold(1, 8, 0), 1);
        // Floored at one chunk even with zero supply.
        assert_eq!(p.threshold(0, 8, 0), 1);
        let half = QuotaPolicy::FbDynamic {
            alpha_num: 1,
            alpha_den: 2,
        };
        assert_eq!(half.threshold(100, 8, 0), 50);
        assert_eq!(half.threshold(1, 8, 0), 1);
    }

    #[test]
    fn dynamic_ignores_the_static_quota() {
        let p = QuotaPolicy::fb_dynamic();
        // With plenty of free chunks, a path sails past the static cap.
        assert!(p.admits(64, 500, 64, 0));
        // With the region nearly full, even a small holder is throttled.
        assert!(!p.admits(3, 2, 64, 0));
    }

    #[test]
    fn priority_classes_scale_the_threshold() {
        let p = QuotaPolicy::priority_weighted();
        let free = 100;
        let t: Vec<u64> = (0..4).map(|c| p.threshold(free, 8, c)).collect();
        assert_eq!(t, vec![50, 100, 150, 200]);
        // Classes wrap.
        assert_eq!(p.threshold(free, 8, 4), t[0]);
        // Gold admits where best-effort denies under the same pressure.
        assert!(p.admits(60, free, 8, 3));
        assert!(!p.admits(60, free, 8, 0));
    }

    #[test]
    fn names_round_trip() {
        for p in [
            QuotaPolicy::Static,
            QuotaPolicy::fb_dynamic(),
            QuotaPolicy::priority_weighted(),
        ] {
            assert_eq!(QuotaPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(QuotaPolicy::parse("nonsense"), None);
    }
}
