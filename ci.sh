#!/bin/sh
# Tier-1 CI: build and test the workspace fully offline. The workspace is
# hermetic (path-only dependencies), so an empty cargo registry must be
# sufficient; CARGO_NET_OFFLINE enforces that on every run.
set -eu

export CARGO_NET_OFFLINE=true

cargo build --release --workspace
# Unit, integration and property tests, plus every crate's doctests.
cargo test -q --workspace

# Documentation gate: rustdoc must build clean with warnings denied
# (broken intra-doc links, missing docs on public items, bad code fences
# all fail the build).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
# The run above resolves intra-doc links on public items only (and alone
# checks `private_intra_doc_links`); this one also resolves the links in
# private items' doc comments.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet --document-private-items

# Benchmark compile gate: the benchmark package (its own cargo workspace,
# built against the public API of crates/{core,sim,vm,net}) must still
# build and pass its self-tests, which run every workload at zero
# seconds. Its build output stays in fbufbench/target/.
cargo test -q --release --manifest-path fbufbench/Cargo.toml

# Lint when the toolchain ships clippy; skip silently otherwise.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
fi

# Formatting gate when the toolchain ships rustfmt; skip silently
# otherwise. The benchmark package is its own workspace and is not
# checked here.
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
fi

# Examples: the test run above compiles them but never runs them, and
# each one asserts the story it tells (examples/image_retrieval.rs is
# the only run of §5.2 fill-in-place I/O and of resending from a held
# fbuf). Each runs to completion in release mode; a nonzero exit fails
# CI.
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

# Every harness is a subcommand of the one binary, `repro`; each checks
# its report against the report contract before it writes it, and the
# `repro check` pass at the end re-reads every report written here.
REPRO="cargo run --release -q -p fbuf-bench --"

# Paper experiments: Table 1 and Figures 3-6, the remap re-measurement,
# the ablations and the aggregate-object machinery, each writing its
# BENCH_*.json report.
FBUF_BENCH_DIR=target/bench-reports $REPRO all

# Trace smoke test: a tiny traced loopback run must audit clean and
# write a Chrome trace that round-trips through the in-repo JSON parser
# and carries the lifecycle event kinds (the run exits nonzero on
# either failure).
FBUF_TRACE_MSGS=4 FBUF_TRACE_SIZE=8192 FBUF_BENCH_DIR=target/bench-reports \
    $REPRO lifecycle
test -s target/bench-reports/TRACE_loopback.json

# Ledger smoke: a small fleet run must render the per-tenant table and
# conserve — summed tenant bytes/transfers/IPC calls must reproduce the
# fleet's whole-life counters exactly (the run exits nonzero otherwise,
# and the report contract refuses to write a ledger that does not).
FBUF_LEDGER_SHARDS=2 FBUF_LEDGER_CYCLES=2000 FBUF_BENCH_DIR=target/bench-reports \
    $REPRO ledger
test -s target/bench-reports/LEDGER_fleet.json

# Stress smoke test, single- and multi-shard: a small fixed op budget
# must hold the §3.2.2 steady-state invariants *per shard* (the run
# exits nonzero otherwise), drive cross-shard payloads over the SPSC
# rings at 2 threads, and write a report with a well-formed scaling
# curve.
#
# Scaling gates are host-adaptive: a 2-thread run on fewer than two
# vCPUs just timeslices, so the speedup/efficiency floors are only armed
# when the host has two. Two vCPUs need not run two threads at once, so
# each repeat of the sweep first times pure arithmetic on one and two
# threads (host.parallel_capacity, from the medians) and the fleet's
# speedup is judged against that capacity, not against 2x; a gate is
# skipped, with the reason printed, only when the capacity itself is
# below it. A gated floor is recorded
# under host.scaling_floor, which every later check re-enforces against
# the written report. Each point of the curve is the median of seven
# interleaved runs (1, 2, 1, 2, ...), so one slow timeslice cannot
# decide a gate.
CORES=$(nproc 2>/dev/null || echo 1)
if [ "$CORES" -ge 2 ]; then
    export FBUF_STRESS_MIN_SPEEDUP="2:1.2"
    export FBUF_STRESS_EFF_FLOOR="2:0.60"
fi
FBUF_STRESS_OPS=20000 FBUF_STRESS_PATHS=4 FBUF_STRESS_THREADS=1,2 \
    FBUF_BENCH_DIR=target/bench-reports \
    $REPRO stress
# What telemetry costs the run: host time with telemetry on over off at
# one thread, the median of seven interleaved pairs. Printed, not gated:
# it reads above the 1.15 a gate would need at this op budget
# (EXPERIMENTS.md, "Telemetry recorded on write").
grep -o '"telemetry_overhead":[0-9.e+-]*' target/bench-reports/BENCH_stress.json

# Wide-shard stress smoke: 64 paths on one shard. The per-path gauges
# fill the telemetry series cap and the fbuf region must hold a chunk
# per path; the run must complete, and its report must still carry the
# shard's fixed gauges (ring_batch_occupancy, notice_coalesce_factor).
# Its report goes to a directory of its own so the default reports above
# stay as they are. A one-point sweep has no speedup to gate, so the
# scaling gates exported above are unset for it.
(
    unset FBUF_STRESS_MIN_SPEEDUP FBUF_STRESS_EFF_FLOOR
    FBUF_STRESS_OPS=20000 FBUF_STRESS_PATHS=64 FBUF_STRESS_THREADS=1 \
        FBUF_BENCH_DIR=target/bench-reports/wide-shard \
        $REPRO stress
)
$REPRO check target/bench-reports/wide-shard

# Telemetry-off stress smoke: FBUF_STRESS_METRICS=0 runs the fleet
# without the sampler, the configuration the hop-cost gate is stated
# in. The report records `repro.params.telemetry: false`, and the report
# contract refuses a telemetry-off report that carries any telemetry
# point, so the `repro check` below asserts there are none. It writes to
# a directory of its own; a one-point sweep has no speedup to gate.
(
    unset FBUF_STRESS_MIN_SPEEDUP FBUF_STRESS_EFF_FLOOR
    FBUF_STRESS_METRICS=0 FBUF_STRESS_OPS=20000 FBUF_STRESS_PATHS=4 FBUF_STRESS_THREADS=1 \
        FBUF_BENCH_DIR=target/bench-reports/telemetry-off \
        $REPRO stress
)
grep -q '"telemetry":false' target/bench-reports/telemetry-off/BENCH_stress.json
$REPRO check target/bench-reports/telemetry-off

# Queueing smoke: an offered-load sweep through the event-loop engine
# must conserve transfers at every point (completed + aborted == offered),
# show zero queueing delay in the drained burst-1 regime (enforced twice:
# the built-in invariant plus the explicit SLO gate below), build real
# delay under load, and refuse work explicitly once a burst exceeds the
# bounded inbox depth (the run exits nonzero on any violation).
FBUF_QUEUE_TRANSFERS=128 FBUF_QUEUE_BURSTS=1,4,16 FBUF_QUEUE_DEPTH=8 \
    FBUF_QUEUE_SLO_P99_NS=0 \
    FBUF_BENCH_DIR=target/bench-reports \
    $REPRO queue

# Fan-in smoke: all three chunk-admission policies drive the same
# Zipf-skewed, bursty fan-in workload at equal total buffer memory
# through the sharded event-loop engine. The run exits nonzero
# unless every policy conserves arrivals (offered == completed +
# dropped + unresolved) and fb-dynamic strictly beats the static quota
# on both drops and p99 alloc wait — the policy layer's reason to
# exist, enforced at smoke scale on every CI run.
FBUF_FANIN_FLOWS=2000 FBUF_FANIN_PATHS=64 FBUF_FANIN_SHARDS=2 FBUF_FANIN_STEPS=120 \
    FBUF_BENCH_DIR=target/bench-reports \
    $REPRO fanin
test -s target/bench-reports/BENCH_fanin.json

# Lockstep-fuzzer smoke: a bounded fixed-seed campaign against the
# reference model must finish with zero divergences (long campaigns run
# the same subcommand with FBUF_FUZZ_CASES/FBUF_FUZZ_CMDS raised), and
# every pinned corpus case must replay clean — including the adversarial
# cases (adv = K in the corpus header), which replay with containment
# armed and the hostile personas overlaid.
FBUF_FUZZ_CASES=${FBUF_FUZZ_CASES:-16} FBUF_FUZZ_CMDS=${FBUF_FUZZ_CMDS:-150} \
    $REPRO fuzz
$REPRO fuzz --replay tests/corpus

# Adversarial lockstep smoke: the same differ with three hostile
# personas (hoarder, stalled receiver, token forger) overlaid on every
# case and the quota jail armed on both sides. Divergence-free means
# the oracle mirrors jail denials, forced revocations, and token
# rejections exactly.
FBUF_FUZZ_CASES=8 FBUF_FUZZ_CMDS=150 FBUF_FUZZ_ADV=3 \
    $REPRO fuzz

# Hostile-tenant containment smoke: N benign tenants vs the three
# personas through the engine at equal memory. The run exits nonzero
# unless benign goodput stays >= 95% of the adversary-free baseline,
# zero forged tokens dereference, the jail and both revocation paths
# (forced + timeout) all fire, and the per-tenant ledger conserves —
# revocations and rejected tokens included.
FBUF_ADV_TENANTS=4 FBUF_ADV_ROUNDS=32 FBUF_BENCH_DIR=target/bench-reports \
    $REPRO adversary
test -s target/bench-reports/BENCH_adversary.json

# One check after the last writer: every BENCH_*.json (the paper
# reports, stress, queue, fanin, adversary) for host + repro + telemetry
# blocks — including the chunk-admission policy every repro header must
# name — plus scaling-curve sanity, every LEDGER_*.json for schema and
# conservation, and every TRACE_*.json for the lifecycle event kinds.
$REPRO check target/bench-reports

echo "ci: ok"
