//! A minimal seeded property-test harness (in-repo `proptest` replacement).
//!
//! A property is a closure over an [`Rng`]: it generates its own inputs and
//! asserts its invariant with ordinary `assert!`/`assert_eq!`. The harness
//! runs it for a configurable number of cases, each with a seed derived
//! deterministically from a base seed, and on failure prints the exact
//! per-case seed plus the environment incantation that replays just that
//! case. Every failure is reproducible bit-for-bit, and properties here
//! draw from small, readable ranges so counterexamples stay inspectable.
//!
//! For *sequence-shaped* failures (a generated command stream drives a
//! stateful system until something diverges), the module also provides
//! shrinking: [`shortest_failing_prefix`] cuts the sequence at the first
//! failing prefix, and [`minimize`] then greedily deletes commands until
//! no single removal still fails — the classic delta-debug reduction,
//! deterministic because replaying a sub-sequence is just re-running it.
//!
//! Environment knobs (read by [`Checker::new`]):
//!
//! * `FBUF_PROP_SEED` — base seed (decimal, or hex with `0x` prefix). When
//!   set, the *first* case uses this value as its rng seed directly, which
//!   is what makes the printed failure seed replayable.
//! * `FBUF_PROP_CASES` — overrides the case count (usually `1` for replay).
//! * `FBUF_CHECK_REPLAY=<seed>` — one-knob replay: equivalent to setting
//!   `FBUF_PROP_SEED=<seed>` *and* `FBUF_PROP_CASES=1`, so the incantation
//!   a failure report prints can be pasted as a single variable. Takes
//!   precedence over both other knobs.
//!
//! # Examples
//!
//! ```
//! use fbuf_sim::Checker;
//!
//! // Reversing a vector twice is the identity.
//! Checker::new("reverse_twice_is_identity").cases(64).run(|rng| {
//!     let v = rng.vec_with(0, 20, |r| r.below(100));
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```

use std::panic::{self, AssertUnwindSafe};

use crate::rng::{splitmix64, Rng};

/// Default number of cases per property (matches the former proptest
/// configuration of the workspace's cheapest suites).
pub const DEFAULT_CASES: u64 = 64;

/// Default base seed. Fixed — CI failures are reproducible without any
/// environment capture — and overridable via `FBUF_PROP_SEED`.
pub const DEFAULT_SEED: u64 = 0xfb0f_5eed_1993_0001;

/// Runs one property for many seeded cases. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Checker {
    name: String,
    cases: u64,
    seed: u64,
    /// When the seed came from `FBUF_PROP_SEED`, case 0 uses it verbatim.
    replay: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl Checker {
    /// Creates a checker for the property `name` (used in failure reports),
    /// honoring the `FBUF_CHECK_REPLAY` / `FBUF_PROP_SEED` /
    /// `FBUF_PROP_CASES` environment.
    pub fn new(name: &str) -> Checker {
        Checker::from_env_values(
            name,
            std::env::var("FBUF_CHECK_REPLAY").ok().as_deref(),
            std::env::var("FBUF_PROP_SEED").ok().as_deref(),
            std::env::var("FBUF_PROP_CASES").ok().as_deref(),
        )
    }

    /// The environment-interpretation logic behind [`Checker::new`],
    /// factored out so it is testable without mutating process state.
    fn from_env_values(
        name: &str,
        replay_knob: Option<&str>,
        seed_knob: Option<&str>,
        cases_knob: Option<&str>,
    ) -> Checker {
        // A malformed knob fails loudly: silently falling back to the
        // default seed would make a typo'd replay look like a pass.
        if let Some(s) = replay_knob {
            let seed =
                parse_u64(s).unwrap_or_else(|| panic!("FBUF_CHECK_REPLAY={s:?} is not a u64"));
            return Checker {
                name: name.to_string(),
                cases: 1,
                seed,
                replay: true,
            };
        }
        let env_seed = seed_knob
            .map(|s| parse_u64(s).unwrap_or_else(|| panic!("FBUF_PROP_SEED={s:?} is not a u64")));
        let cases = cases_knob
            .map(|s| parse_u64(s).unwrap_or_else(|| panic!("FBUF_PROP_CASES={s:?} is not a u64")))
            .unwrap_or(DEFAULT_CASES);
        Checker {
            name: name.to_string(),
            cases,
            seed: env_seed.unwrap_or(DEFAULT_SEED),
            replay: env_seed.is_some(),
        }
    }

    /// Sets the number of cases (unless `FBUF_PROP_CASES` or
    /// `FBUF_CHECK_REPLAY` overrides it).
    pub fn cases(mut self, n: u64) -> Checker {
        if std::env::var("FBUF_PROP_CASES").is_err() && std::env::var("FBUF_CHECK_REPLAY").is_err()
        {
            self.cases = n;
        }
        self
    }

    /// Sets the base seed (unless `FBUF_PROP_SEED` overrides it).
    pub fn seed(mut self, seed: u64) -> Checker {
        if !self.replay {
            self.seed = seed;
        }
        self
    }

    /// The rng seed for case `i`: a SplitMix64 stream over the base seed,
    /// except that a replayed base seed is used verbatim for case 0.
    fn case_seed(&self, i: u64) -> u64 {
        if self.replay && i == 0 {
            return self.seed;
        }
        let mut s = self.seed;
        let mut out = 0;
        for _ in 0..=i {
            out = splitmix64(&mut s);
        }
        out
    }

    /// Runs the property. Panics (re-raising the case's own panic) after
    /// printing the failing case's seed and the replay command.
    pub fn run(self, f: impl Fn(&mut Rng)) {
        for i in 0..self.cases {
            let case_seed = self.case_seed(i);
            let mut rng = Rng::new(case_seed);
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&mut rng)));
            if let Err(cause) = result {
                eprintln!(
                    "property '{}' failed at case {}/{} (seed {:#018x})\n\
                     replay just this case with:\n  \
                     FBUF_CHECK_REPLAY={:#x} cargo test {}",
                    self.name, i, self.cases, case_seed, case_seed, self.name
                );
                panic::resume_unwind(cause);
            }
        }
    }
}

/// The shortest prefix of `cmds` for which `fails` still returns true,
/// or `None` if no prefix (including the full sequence) fails.
///
/// Runs `fails` on prefixes of increasing length, so the predicate must
/// be a pure replay (build fresh state, run the slice, report). Cost is
/// O(n) replays of O(n) commands — fine at fuzzer scales, where a replay
/// is milliseconds.
pub fn shortest_failing_prefix<T: Clone>(
    cmds: &[T],
    mut fails: impl FnMut(&[T]) -> bool,
) -> Option<Vec<T>> {
    for len in 1..=cmds.len() {
        if fails(&cmds[..len]) {
            return Some(cmds[..len].to_vec());
        }
    }
    None
}

/// Shrinks a failing command sequence: first cuts it to the shortest
/// failing prefix, then repeatedly deletes single commands (greedy
/// passes to a fixpoint) while the result still fails. Returns the
/// reduced sequence, which is guaranteed to fail, or `None` if `cmds`
/// has no failing prefix at all.
///
/// This is a deterministic ddmin-style reduction: because every replay
/// is seeded and pure, the minimization itself replays identically.
pub fn minimize<T: Clone>(cmds: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Option<Vec<T>> {
    let mut cur = shortest_failing_prefix(cmds, &mut fails)?;
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < cur.len() {
            let mut candidate = cur.clone();
            candidate.remove(i);
            if fails(&candidate) {
                cur = candidate;
                removed_any = true;
                // Re-test the same index: it now holds the next command.
            } else {
                i += 1;
            }
        }
        if !removed_any {
            return Some(cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u64);
        Checker::new("counts_cases").cases(17).run(|rng| {
            let _ = rng.below(5);
            counter.set(counter.get() + 1);
        });
        assert_eq!(counter.get(), 17);
    }

    #[test]
    fn cases_are_distinct_and_deterministic() {
        let c = Checker::new("x").seed(42);
        let seeds: Vec<u64> = (0..8).map(|i| c.case_seed(i)).collect();
        let again: Vec<u64> = (0..8).map(|i| c.case_seed(i)).collect();
        assert_eq!(seeds, again);
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "case seeds must differ");
    }

    #[test]
    fn failing_property_reports_and_panics() {
        let result = std::panic::catch_unwind(|| {
            Checker::new("always_fails").cases(5).run(|rng| {
                let v = rng.below(100);
                assert!(v > 1_000, "forced failure, drew {v}");
            });
        });
        assert!(result.is_err(), "failure must propagate");
    }

    #[test]
    fn replayed_seed_reproduces_the_case_draws() {
        // The failure report prints `case_seed`; feeding it back as the
        // base seed in replay mode must regenerate the same draws.
        let c = Checker::new("x").seed(7);
        let failing_seed = c.case_seed(3);
        let mut original = Rng::new(failing_seed);
        let replayed = Checker {
            name: "x".into(),
            cases: 1,
            seed: failing_seed,
            replay: true,
        };
        assert_eq!(replayed.case_seed(0), failing_seed);
        let mut replay_rng = Rng::new(replayed.case_seed(0));
        for _ in 0..32 {
            assert_eq!(original.next_u64(), replay_rng.next_u64());
        }
    }

    #[test]
    fn parses_decimal_and_hex() {
        assert_eq!(parse_u64("123"), Some(123));
        assert_eq!(parse_u64("0xff"), Some(255));
        assert_eq!(parse_u64(" 0X10 "), Some(16));
        assert_eq!(parse_u64("nope"), None);
    }

    #[test]
    fn check_replay_knob_is_seed_plus_single_case() {
        let c = Checker::from_env_values("x", Some("0xabc"), None, None);
        assert_eq!(c.seed, 0xabc);
        assert_eq!(c.cases, 1);
        assert!(c.replay);
        assert_eq!(c.case_seed(0), 0xabc, "replay seed used verbatim");
    }

    #[test]
    fn check_replay_takes_precedence_over_prop_knobs() {
        let c = Checker::from_env_values("x", Some("7"), Some("9"), Some("100"));
        assert_eq!(c.seed, 7);
        assert_eq!(c.cases, 1);
    }

    #[test]
    fn prop_knobs_still_work_without_replay() {
        let c = Checker::from_env_values("x", None, Some("0x9"), Some("3"));
        assert_eq!((c.seed, c.cases, c.replay), (9, 3, true));
        let d = Checker::from_env_values("x", None, None, None);
        assert_eq!(
            (d.seed, d.cases, d.replay),
            (DEFAULT_SEED, DEFAULT_CASES, false)
        );
    }

    #[test]
    fn shortest_failing_prefix_finds_the_first_bad_cut() {
        // Fails as soon as the slice contains a 9.
        let cmds = vec![1, 2, 9, 4, 9];
        let p = shortest_failing_prefix(&cmds, |s| s.contains(&9)).unwrap();
        assert_eq!(p, vec![1, 2, 9]);
        assert!(shortest_failing_prefix(&cmds, |_| false).is_none());
    }

    #[test]
    fn minimize_reaches_a_one_removal_fixpoint() {
        // Fails iff the slice holds at least two 9s.
        let cmds = vec![1, 9, 2, 3, 9, 4, 9];
        let m = minimize(&cmds, |s| s.iter().filter(|&&x| x == 9).count() >= 2).unwrap();
        assert_eq!(m, vec![9, 9], "only the failure-relevant commands remain");
    }

    #[test]
    fn minimize_result_always_fails() {
        let cmds: Vec<u32> = (0..30).collect();
        let fails = |s: &[u32]| s.iter().sum::<u32>() >= 40;
        let m = minimize(&cmds, fails).unwrap();
        assert!(fails(&m));
        // Dropping any single command must make it pass (1-minimality).
        for i in 0..m.len() {
            let mut c = m.clone();
            c.remove(i);
            assert!(!fails(&c), "not 1-minimal at {i}: {m:?}");
        }
    }
}
