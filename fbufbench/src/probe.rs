//! Host-time measurement from outside the layers.
//!
//! Every transfer is timed as a whole (its host latency). In a traced
//! round, each call the benchmark makes into a layer's public function is
//! also wrapped in a span — name, start, end, parent span and transfer id
//! — so a layer's *self* time (its span minus the time its child spans
//! cover) can be split out. Spans are aggregated as they close and the
//! first [`SPAN_CAP`] are kept in memory for the span file written at
//! exit. Untraced rounds pay only the two clock reads per transfer.

use std::time::Instant;

use crate::runner::{quantile, FAST_SHARE};

/// Spans kept verbatim for the span file (the aggregates cover all).
pub const SPAN_CAP: usize = 50_000;

/// Transfers per latency block: enough that a block's p99 has 20
/// samples beyond it.
pub const BLOCK: u64 = 2_000;

/// A timed boundary: one public function of one layer, or the whole
/// transfer (the root of every span tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Transfer,
    SystemAlloc,
    SystemSend,
    SystemFree,
    EngineHop,
    ShardEgress,
    ShardPoll,
    MetricsSample,
    NetSendSmall,
    NetSendLarge,
}

impl Layer {
    /// Every boundary, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Transfer,
        Layer::SystemAlloc,
        Layer::SystemSend,
        Layer::SystemFree,
        Layer::EngineHop,
        Layer::ShardEgress,
        Layer::ShardPoll,
        Layer::MetricsSample,
        Layer::NetSendSmall,
        Layer::NetSendLarge,
    ];

    /// The metric-name prefix of this boundary.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Transfer => "transfer",
            Layer::SystemAlloc => "system.alloc",
            Layer::SystemSend => "system.send",
            Layer::SystemFree => "system.free",
            Layer::EngineHop => "engine.hop",
            Layer::ShardEgress => "shard.egress",
            Layer::ShardPoll => "shard.poll",
            Layer::MetricsSample => "metrics.sample",
            Layer::NetSendSmall => "net.send_message.le16k",
            Layer::NetSendLarge => "net.send_message.gt16k",
        }
    }
}

const LAYERS: usize = Layer::ALL.len();

/// Linear sub-buckets per power of two: bucket width is at most 1/64 of
/// its lower bound.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of nanosecond samples in fixed memory.
/// Percentiles interpolate linearly by rank inside the bucket that holds
/// them, so they move continuously with the data instead of snapping to
/// bucket edges.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// `(lower bound, width)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        let mantissa = i % SUB + SUB;
        ((mantissa << shift) as f64, (1u64 << shift) as f64)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Hist::index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile (0..=1) in ns; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).max(0.5);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = Hist::bounds(i);
                return lo + width * (rank - below as f64) / c as f64;
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (lo, width) = Hist::bounds(last);
        lo + width
    }
}

/// Host latency of transfers, in blocks of [`BLOCK`]: each full block
/// keeps its quantiles, and a quantile is reported as the value the
/// fastest [`FAST_SHARE`] of blocks stay under. The host's speed moves
/// between plateaus; pooling every transfer would put a quantile in
/// whichever plateau held most of them (see [`crate::runner`]).
#[derive(Debug, Default)]
pub struct Latency {
    block: Hist,
    /// The p50 and p99 of every full block.
    blocks: [Vec<f64>; 2],
    count: u64,
}

const QUANTILES: [f64; 2] = [0.50, 0.99];

impl Latency {
    fn record(&mut self, ns: u64) {
        self.block.record(ns);
        self.count += 1;
        if self.block.count() == BLOCK {
            for (kept, q) in self.blocks.iter_mut().zip(QUANTILES) {
                kept.push(self.block.quantile(q));
            }
            self.block.clear();
        }
    }

    /// Transfers recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn fast(&self, i: usize) -> f64 {
        if self.blocks[i].is_empty() {
            return self.block.quantile(QUANTILES[i]);
        }
        quantile(&self.blocks[i], FAST_SHARE)
    }

    /// Block median of the fastest blocks, ns (the partial block's
    /// before a block fills).
    pub fn p50_ns(&self) -> f64 {
        self.fast(0)
    }

    /// Block 99th percentile of the fastest blocks, ns.
    pub fn p99_ns(&self) -> f64 {
        self.fast(1)
    }
}

/// One closed span, as written to the span file. Ids start at 1; a
/// parent or transfer of 0 means none.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: Layer,
    pub transfer: u64,
    /// Host ns since the probe was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    id: u64,
    start: Instant,
    child_ns: u64,
}

/// The benchmark's clock: per-transfer latency always, spans in traced
/// rounds. See the [module docs](self).
#[derive(Debug)]
pub struct Probe {
    traced: bool,
    epoch: Instant,
    transfer: u64,
    transfer_start: Option<Instant>,
    /// Host latency of every transfer completed in an untraced round.
    pub latency: Latency,
    calls: [u64; LAYERS],
    self_ns: [u64; LAYERS],
    durations: Vec<Hist>,
    stack: Vec<Open>,
    next_span: u64,
    spans: Vec<Span>,
    spans_dropped: u64,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            traced: false,
            epoch: Instant::now(),
            transfer: 0,
            transfer_start: None,
            latency: Latency::default(),
            calls: [0; LAYERS],
            self_ns: [0; LAYERS],
            durations: vec![Hist::default(); LAYERS],
            stack: Vec::new(),
            next_span: 0,
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }
}

impl Probe {
    /// Switches span recording on or off for the rounds that follow.
    pub fn set_traced(&mut self, traced: bool) {
        assert!(self.stack.is_empty(), "switch tracing between rounds only");
        self.traced = traced;
    }

    /// Starts timing one transfer attempt.
    pub fn begin_transfer(&mut self) {
        self.transfer += 1;
        if self.traced {
            self.open(Layer::Transfer);
        } else {
            self.transfer_start = Some(Instant::now());
        }
    }

    /// Ends the attempt begun last. Only a `delivered` untraced attempt
    /// counts toward the latency distribution.
    pub fn end_transfer(&mut self, delivered: bool) {
        if self.traced {
            self.close();
        } else if let Some(t0) = self.transfer_start.take() {
            if delivered {
                self.latency.record(t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Calls `f`, a call into `layer`, counting it and — when traced —
    /// wrapping it in a span.
    #[inline]
    pub fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.calls[layer as usize] += 1;
        if !self.traced {
            return f();
        }
        self.open(layer);
        let out = f();
        self.close();
        out
    }

    fn open(&mut self, layer: Layer) {
        self.next_span += 1;
        self.stack.push(Open {
            layer,
            id: self.next_span,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("close matches an open span");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let l = open.layer as usize;
        self.self_ns[l] += dur.saturating_sub(open.child_ns);
        self.durations[l].record(dur);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        // A transfer span, when open, is the root of the stack.
        let root = self.stack.first().map_or(open.layer, |o| o.layer);
        let in_transfer = root == Layer::Transfer;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id: open.id,
                parent,
                layer: open.layer,
                transfer: if in_transfer { self.transfer } else { 0 },
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        } else {
            self.spans_dropped += 1;
        }
    }

    /// Every per-layer call count, in [`Layer::ALL`] order.
    pub fn all_calls(&self) -> [u64; LAYERS] {
        self.calls
    }

    /// Traced self time of `layer`, ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Median traced span duration of `layer`, ns.
    pub fn p50_ns(&self, layer: Layer) -> f64 {
        self.durations[layer as usize].quantile(0.5)
    }

    /// The spans kept for the span file, and how many were not kept.
    pub fn spans(&self) -> (&[Span], u64) {
        (&self.spans, self.spans_dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_every_value_in_order() {
        let mut prev = 0;
        for v in (0..5000u64).chain([1 << 20, (1 << 40) + 7, (1 << 62) + 12_345]) {
            let i = Hist::index(v);
            assert!(i < BUCKETS && i >= prev, "value {v}");
            let (lo, width) = Hist::bounds(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "value {v} outside its bucket"
            );
            prev = i;
        }
    }

    #[test]
    fn quantiles_interpolate_within_two_percent() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 1_000_000.0;
            assert!(
                (h.quantile(q) - exact).abs() / exact < 0.02,
                "q {q}: {}",
                h.quantile(q)
            );
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut p = Probe::default();
        p.set_traced(true);
        p.begin_transfer();
        p.call(Layer::SystemAlloc, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        p.end_transfer(true);
        let (spans, dropped) = p.spans();
        assert_eq!((spans.len(), dropped), (2, 0));
        assert_eq!(
            spans[0].parent, spans[1].id,
            "the call is a child of the transfer"
        );
        assert!(p.self_ns(Layer::SystemAlloc) >= 2_000_000);
        assert!(p.self_ns(Layer::Transfer) < p.self_ns(Layer::SystemAlloc));
        assert_eq!(
            p.latency.count(),
            0,
            "traced transfers stay out of the latency"
        );
    }
}
