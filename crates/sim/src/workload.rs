//! Skewed, bursty workload generators for the fan-in harness.
//!
//! The fan-in scenario (`repro fanin`) models tens of thousands of flows
//! whose path popularity follows a Zipf law and whose arrivals are
//! on/off bursts — the traffic shape under which static per-path chunk
//! quotas fail in both directions (hot paths starve at their cap, cold
//! paths strand free chunks behind unused headroom; see
//! `crates/core/src/policy.rs` and DESIGN.md §15).
//!
//! Both generators draw from the workspace [`Rng`], so a seed reproduces
//! the exact workload bit for bit — the property the seeded tests in
//! this module pin (replay determinism, and an empirical distribution
//! that matches the requested skew parameter).

use crate::rng::Rng;

/// A Zipf(s) sampler over ranks `0..n`: rank `r` is drawn with
/// probability proportional to `1 / (r + 1)^s`. Built once (O(n)), each
/// sample is a binary search over the precomputed CDF (O(log n)).
///
/// # Examples
///
/// ```
/// use fbuf_sim::{Rng, workload::Zipf};
///
/// let zipf = Zipf::new(1000, 1.1);
/// let mut rng = Rng::new(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    s: f64,
}

impl Zipf {
    /// Builds the sampler over `n >= 1` ranks with skew `s >= 0`
    /// (`s = 0` is uniform; larger `s` concentrates mass on low ranks).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf over an empty rank set");
        assert!(s >= 0.0 && s.is_finite(), "skew must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf, s }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has exactly one rank (it never has zero).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The skew parameter this sampler was built with.
    pub fn skew(&self) -> f64 {
        self.s
    }

    /// Probability mass of `rank`.
    pub fn mass(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        // First index with cdf[i] > u; partition_point is a binary
        // search over the sorted CDF.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A two-state on/off burst gate with geometric sojourn times: while in
/// a state of mean duration `m` steps, each [`OnOff::step`] leaves it
/// with probability `1/m` — memoryless bursts whose mean on/off lengths
/// are exactly the configured values.
///
/// # Examples
///
/// ```
/// use fbuf_sim::{Rng, workload::OnOff};
///
/// let mut rng = Rng::new(3);
/// let mut gate = OnOff::new(&mut rng, 50, 200);
/// let active = gate.step(&mut rng); // true while the flow bursts
/// let _ = active;
/// ```
#[derive(Debug, Clone)]
pub struct OnOff {
    mean_on: u64,
    mean_off: u64,
    on: bool,
}

impl OnOff {
    /// Creates the gate with mean burst length `mean_on` steps and mean
    /// silence `mean_off` steps (both >= 1). The initial state is drawn
    /// from the stationary distribution, so a large flow population
    /// starts with the steady-state on-fraction rather than a
    /// synchronized thundering herd.
    pub fn new(rng: &mut Rng, mean_on: u64, mean_off: u64) -> OnOff {
        assert!(mean_on >= 1 && mean_off >= 1, "mean durations must be >= 1");
        let duty = mean_on as f64 / (mean_on + mean_off) as f64;
        OnOff {
            mean_on,
            mean_off,
            on: rng.chance(duty),
        }
    }

    /// Advances one step; returns whether the flow is active this step.
    pub fn step(&mut self, rng: &mut Rng) -> bool {
        let was = self.on;
        let leave = if self.on {
            1.0 / self.mean_on as f64
        } else {
            1.0 / self.mean_off as f64
        };
        if rng.chance(leave) {
            self.on = !self.on;
        }
        was
    }

    /// Whether the flow is currently in its on state.
    pub fn is_on(&self) -> bool {
        self.on
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Least-squares slope of log(frequency) against log(rank + 1) over
    /// the top ranks: for a Zipf(s) sample the slope estimates `-s`.
    fn fitted_skew(counts: &[u64], top: usize) -> f64 {
        let pts: Vec<(f64, f64)> = counts
            .iter()
            .take(top)
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(r, &c)| (((r + 1) as f64).ln(), (c as f64).ln()))
            .collect();
        let n = pts.len() as f64;
        let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
        let (sxx, sxy): (f64, f64) = pts
            .iter()
            .fold((0.0, 0.0), |(a, b), p| (a + p.0 * p.0, b + p.0 * p.1));
        -((n * sxy - sx * sy) / (n * sxx - sx * sx))
    }

    #[test]
    fn empirical_distribution_matches_the_requested_skew() {
        for s in [0.8, 1.0, 1.3] {
            let zipf = Zipf::new(500, s);
            let mut rng = Rng::new(0x21bf_0001);
            let mut counts = vec![0u64; 500];
            for _ in 0..200_000 {
                counts[zipf.sample(&mut rng)] += 1;
            }
            let fitted = fitted_skew(&counts, 30);
            assert!(
                (fitted - s).abs() < 0.1,
                "requested s={s}, fitted {fitted}"
            );
            // The analytic mass of the head matches the sample within
            // sampling noise.
            let head = counts[0] as f64 / 200_000.0;
            assert!(
                (head - zipf.mass(0)).abs() < 0.01,
                "s={s}: head mass {head} vs analytic {}",
                zipf.mass(0)
            );
        }
    }

    #[test]
    fn higher_skew_concentrates_the_head() {
        let mut rng = Rng::new(5);
        let mut heads = Vec::new();
        for s in [0.0, 0.7, 1.0, 1.4] {
            let zipf = Zipf::new(200, s);
            let hits = (0..50_000).filter(|_| zipf.sample(&mut rng) == 0).count();
            heads.push(hits);
        }
        assert!(
            heads.windows(2).all(|w| w[0] < w[1]),
            "head hits must grow with skew: {heads:?}"
        );
    }

    #[test]
    fn zipf_replay_is_deterministic() {
        let zipf = Zipf::new(10_000, 1.1);
        let draw = |seed: u64| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        // Rebuilding the sampler changes nothing: the CDF is a pure
        // function of (n, s).
        let again = Zipf::new(10_000, 1.1);
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        for _ in 0..500 {
            assert_eq!(zipf.sample(&mut a), again.sample(&mut b));
        }
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let zipf = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((zipf.mass(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn on_off_duty_cycle_matches_the_means() {
        let mut rng = Rng::new(0xb125_0001);
        for (on, off) in [(50u64, 150u64), (10, 10), (200, 50)] {
            let want = on as f64 / (on + off) as f64;
            let mut gate = OnOff::new(&mut rng, on, off);
            let steps = 400_000;
            let active = (0..steps).filter(|_| gate.step(&mut rng)).count();
            let got = active as f64 / steps as f64;
            assert!(
                (got - want).abs() < 0.02,
                "on={on} off={off}: duty {got} vs {want}"
            );
        }
    }

    #[test]
    fn on_off_produces_bursts_not_noise() {
        // Mean sojourns of 100 steps mean far fewer transitions than a
        // per-step coin flip would produce.
        let mut rng = Rng::new(17);
        let mut gate = OnOff::new(&mut rng, 100, 100);
        let mut transitions = 0;
        let mut prev = gate.is_on();
        for _ in 0..100_000 {
            gate.step(&mut rng);
            if gate.is_on() != prev {
                transitions += 1;
                prev = gate.is_on();
            }
        }
        // Expected ~1000 transitions (rate 1/100); a per-step flip
        // would produce ~50_000.
        assert!(
            (500..2000).contains(&transitions),
            "transitions {transitions}"
        );
    }

    #[test]
    fn on_off_replay_is_deterministic() {
        let run = |seed: u64| {
            let mut rng = Rng::new(seed);
            let mut gate = OnOff::new(&mut rng, 30, 70);
            (0..5000).map(|_| gate.step(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(8), run(8));
        assert_ne!(run(8), run(9));
    }
}
