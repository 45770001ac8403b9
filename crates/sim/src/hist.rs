//! Log-bucketed latency histograms.
//!
//! A [`Histogram`] records `u64` samples (simulated nanoseconds, by
//! convention) into power-of-two buckets: bucket `b` holds every value
//! whose highest set bit is `b - 1`, i.e. the range `[2^(b-1), 2^b)`,
//! with bucket 0 reserved for the value zero. That gives a fixed 65
//! buckets regardless of the dynamic range — the same trick hdrhistogram
//! and the kernel's blk-iolatency use, traded down to one-bucket-per-
//! octave resolution because the simulator's cost model only produces a
//! handful of distinct latencies per regime anyway.
//!
//! Percentiles use the nearest-rank rule over bucket counts and report
//! the bucket's upper bound clamped to the observed min/max, so an
//! all-identical population reports that exact value at every
//! percentile.
//!
//! Histograms form a commutative monoid under [`Histogram::merge`]
//! (bucket-wise addition; min/max/sum combine associatively), and
//! [`Histogram::split_at_bucket`] is its inverse-by-partition: the two
//! halves merge back to a histogram with the original counts. The
//! property suite pins both laws.

use crate::json::{Json, ToJson};

/// Number of buckets: one for zero plus one per possible bit position.
pub const BUCKETS: usize = 65;

/// A log-bucketed histogram over `u64` samples. See the [module
/// docs](self).
///
/// # Examples
///
/// ```
/// use fbuf_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for ns in [100, 100, 100, 900] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
/// assert!(h.p99() <= h.max());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The bucket a value lands in: 0 for 0, else one past the highest set
/// bit.
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The largest value bucket `b` can hold (inclusive).
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank percentile `p` (0.0–100.0): the upper bound of
    /// the bucket containing the rank-`ceil(p/100·n)` sample, clamped to
    /// the observed `[min, max]`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_hi(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The bucket-quantization error bound on [`Histogram::percentile`]:
    /// the inclusive `[lo, hi]` range of the bucket holding the rank-`p`
    /// sample, clamped to the observed `[min, max]`. The true percentile
    /// lies somewhere in this interval; `hi` is exactly what
    /// [`Histogram::percentile`] reports. `(0, 0)` when empty.
    pub fn percentile_bounds(&self, p: f64) -> (u64, u64) {
        if self.is_empty() {
            return (0, 0);
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = if b == 0 { 0 } else { bucket_hi(b - 1) + 1 };
                return (
                    lo.clamp(self.min, self.max),
                    bucket_hi(b).clamp(self.min, self.max),
                );
            }
        }
        (self.max, self.max)
    }

    /// Median (see [`Histogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Adds every sample of `other` into `self` (bucket-wise; min/max
    /// and sum combine exactly).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Partitions the histogram at bucket index `b`: the first result
    /// holds buckets `[0, b)`, the second `[b, 65)`. Merging the halves
    /// restores the original bucket counts and total; min/max of the
    /// halves are reconstructed from bucket bounds (clamped to the
    /// observed range), so the rejoined extrema may widen to bucket
    /// granularity but never past the source histogram's bounds.
    pub fn split_at_bucket(&self, b: usize) -> (Histogram, Histogram) {
        let b = b.min(BUCKETS);
        let mut lo = Histogram::new();
        let mut hi = Histogram::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let side = if i < b { &mut lo } else { &mut hi };
            side.counts[i] += c;
            side.count += c;
            // Approximate the lost per-sample values by the bucket
            // bounds, clamped to what this histogram actually saw.
            let bucket_lo = if i == 0 { 0 } else { bucket_hi(i - 1) + 1 };
            let lo_v = bucket_lo.clamp(self.min, self.max);
            let hi_v = bucket_hi(i).clamp(self.min, self.max);
            side.min = side.min.min(lo_v);
            side.max = side.max.max(hi_v);
            side.sum += (c as u128) * (hi_v as u128);
        }
        (lo, hi)
    }

    /// Raw bucket counts (index = [`bucket_of`]).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }
}

impl ToJson for Histogram {
    /// A percentile block: counts, the exact observed min/max, and the
    /// p50/p90/p99 summary in nanoseconds and microseconds (the latter
    /// for human eyes; the ns fields are exact). Each reported
    /// percentile additionally carries its bucket-quantization error
    /// bound (`*_lo_ns`/`*_hi_ns`, see [`Histogram::percentile_bounds`])
    /// so a consumer knows how much the log bucketing may have rounded.
    fn to_json(&self) -> Json {
        let (p50_lo, p50_hi) = self.percentile_bounds(50.0);
        let (p99_lo, p99_hi) = self.percentile_bounds(99.0);
        Json::obj(vec![
            ("count", self.count().to_json()),
            ("min_ns", self.min().to_json()),
            ("max_ns", self.max().to_json()),
            ("mean_ns", self.mean().to_json()),
            ("p50_ns", self.p50().to_json()),
            ("p90_ns", self.p90().to_json()),
            ("p99_ns", self.p99().to_json()),
            ("p50_lo_ns", p50_lo.to_json()),
            ("p50_hi_ns", p50_hi.to_json()),
            ("p99_lo_ns", p99_lo.to_json()),
            ("p99_hi_ns", p99_hi.to_json()),
            ("p50_us", (self.p50() as f64 / 1_000.0).to_json()),
            ("p99_us", (self.p99() as f64 / 1_000.0).to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_hi(0), 0);
        assert_eq!(bucket_hi(1), 1);
        assert_eq!(bucket_hi(2), 3);
        assert_eq!(bucket_hi(64), u64::MAX);
    }

    #[test]
    fn identical_samples_report_exactly() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(7_500);
        }
        assert_eq!(h.p50(), 7_500);
        assert_eq!(h.p99(), 7_500);
        assert_eq!(h.min(), 7_500);
        assert_eq!(h.max(), 7_500);
        assert_eq!(h.mean(), 7_500.0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in [1u64, 5, 9, 100, 1_000, 50_000, 50_000, 1_000_000] {
            h.record(v);
        }
        assert!(h.min() <= h.p50());
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn split_then_merge_preserves_counts() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 5_000, 1 << 40] {
            h.record(v);
        }
        let (lo, hi) = h.split_at_bucket(8);
        assert_eq!(lo.count() + hi.count(), h.count());
        let mut rejoined = lo.clone();
        rejoined.merge(&hi);
        assert_eq!(rejoined.buckets(), h.buckets());
        assert_eq!(rejoined.count(), h.count());
    }

    #[test]
    fn percentile_bounds_bracket_the_reported_value() {
        let mut h = Histogram::new();
        for v in [3u64, 5, 9, 100, 1_000, 50_000, 50_001, 1_000_000] {
            h.record(v);
        }
        for p in [50.0, 90.0, 99.0] {
            let (lo, hi) = h.percentile_bounds(p);
            assert!(lo <= hi, "bounds ordered at p{p}");
            assert_eq!(hi, h.percentile(p), "hi is the reported value at p{p}");
            assert!(lo >= h.min() && hi <= h.max());
        }
        // All-identical populations have zero quantization error.
        let mut exact = Histogram::new();
        for _ in 0..100 {
            exact.record(7_500);
        }
        assert_eq!(exact.percentile_bounds(99.0), (7_500, 7_500));
        assert_eq!(Histogram::new().percentile_bounds(50.0), (0, 0));
    }

    #[test]
    fn json_block_has_percentile_fields() {
        let mut h = Histogram::new();
        h.record(2_000);
        let j = h.to_json();
        for key in [
            "count",
            "p50_ns",
            "p90_ns",
            "p99_ns",
            "min_ns",
            "max_ns",
            "p50_lo_ns",
            "p50_hi_ns",
            "p99_lo_ns",
            "p99_hi_ns",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("count").and_then(Json::as_f64), Some(1.0));
    }
}
