//! Simulated time, calibrated cost model, and statistics for the fbufs
//! reproduction.
//!
//! The fbufs paper ([Druschel & Peterson, SOSP '93]) evaluates a kernel
//! virtual-memory mechanism on a DecStation 5000/200. Neither the hardware
//! nor privileged VM operations are available here, so the reproduction runs
//! every mechanism against a *simulated machine*: data lives in simulated
//! physical frames, mappings live in simulated page tables, and every
//! primitive operation (PTE update, TLB refill, page clear, IPC control
//! transfer, DMA start-up, ...) charges a calibrated number of nanoseconds to
//! a [`Clock`].
//!
//! This crate holds the pieces shared by every layer of the stack:
//!
//! * [`Ns`] — simulated time, in nanoseconds.
//! * [`Clock`] — a monotonically advancing clock with per-category cost
//!   accounting and a busy/idle split (used by the CPU-load experiment).
//! * [`CostModel`] — the named constants, with
//!   [`CostModel::decstation_5000_200`] as the calibrated instance.
//! * [`MachineConfig`] — structural parameters (page size, TLB size, memory
//!   size, fbuf region geometry).
//! * [`Stats`] — operation counters that tests assert on, pinning the
//!   *mechanism* (which operations happen) independently of the timing.
//!
//! It also holds the workspace's zero-dependency tooling substrate, so the
//! whole repository builds offline from path crates alone:
//!
//! * [`Rng`] — deterministic SplitMix64 pseudo-random numbers (replaces
//!   `rand` for trace generation and test-case shaping).
//! * [`Checker`] — a seeded, replayable property-test harness (replaces
//!   `proptest`).
//! * [`json`] — a minimal JSON value/writer/parser (replaces `serde` for
//!   the bench reports, which `fbuf_bench::report` writes and checks).
//! * [`Arena`] — a generational slab arena backing the hot-path id tables
//!   (fbufs, VM objects): O(1) index derefs, stale handles error instead
//!   of aliasing recycled slots.
//! * [`fxhash`] — a keyless word hasher ([`fxhash::FxHashMap`]) for the
//!   hot tables keyed by simulator-minted integers (page tables, the TLB
//!   index, message reference counts).
//!
//! And the observability layer threaded through every crate:
//!
//! * [`spsc`] — fixed-capacity single-producer/single-consumer ring
//!   channels (bare atomics, no locks), carrying payloads and dealloc
//!   notices between the sharded engines of `fbuf::shard`.
//! * [`trace`] — a bounded ring buffer of typed lifecycle events
//!   ([`Tracer`]), clock-stamped, exportable as Chrome `trace_event` JSON;
//!   [`trace::merge_rings`] folds per-shard rings into one stream.
//! * [`hist`] — log-bucketed latency [`Histogram`]s (p50/p90/p99) fed by
//!   `Alloc`/`Transfer` spans and surfaced in every bench report.
//! * [`mod@audit`] — a replay auditor checking fbuf lifecycle invariants over
//!   a recorded event stream.
//! * [`fault`] — seeded, replayable fault injection ([`FaultPlan`]):
//!   chunk-grant denial, quota exhaustion, frame-allocation failure,
//!   reclaim refusal, ring backpressure, and scheduled domain crashes,
//!   zero-cost at every hook point while no plan is armed.
//! * [`event`] — a deterministic binary [`EventHeap`] ordered by
//!   `(time, admission id)`, the scheduling substrate under the
//!   event-loop transfer engine (`fbuf_ipc::EventLoop`).
//! * [`spans`] — causal transfer spans: hop-tree reconstruction from
//!   span-tagged trace events and critical-path decomposition
//!   (queueing vs. service vs. ring-crossing, p50/p99 per stage).
//! * [`metrics`] — time-series telemetry: gauges sampled on a
//!   simulated-time cadence into bounded series stored as runs against
//!   a pass timeline (a pass costs what changed), fleet-merged and
//!   exported as the `telemetry` block of every bench report.
//!
//! Design notes: `DESIGN.md` §6 (how the cost constants were
//! calibrated/reconstructed), §8 (tracing, histograms, and the replay
//! auditor), §11 (fault injection), §12 (heap ordering guarantees
//! and the audited fbuf lifecycle state machine), and §13 (spans,
//! telemetry cadence, and the per-tenant ledger).
//!
//! [Druschel & Peterson, SOSP '93]: https://dl.acm.org/doi/10.1145/168619.168634

pub mod arena;
pub mod audit;
pub mod check;
pub mod config;
pub mod costs;
pub mod event;
pub mod fault;
pub mod fxhash;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod spans;
pub mod spsc;
pub mod stats;
pub mod time;
pub mod trace;
pub mod workload;

pub use arena::{slot_of, Arena};
pub use audit::{audit, audit_tracer, AuditReport, Violation};
pub use check::{minimize, shortest_failing_prefix, Checker};
pub use config::{MachineConfig, MAX_TLB_ENTRIES};
pub use costs::CostModel;
pub use event::{EventHeap, EventId, Scheduled};
pub use fault::{FaultDecision, FaultPlan, FaultSite, FaultSpec};
pub use hist::Histogram;
pub use json::{Json, ToJson};
pub use metrics::{MetricPoint, Metrics, SeriesSnapshot};
pub use rng::Rng;
pub use spans::{SpanNode, SpanTree, StageDecomposition};
pub use stats::{Counter, Stats, StatsSnapshot};
pub use time::{Clock, CostCategory, Ns};
pub use trace::{EventKind, TraceEvent, Tracer};
