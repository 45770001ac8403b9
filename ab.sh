#!/bin/sh
# A/B the benchmark: the working tree against a base revision.
#
#   ./ab.sh <base-rev> [workload...]
#
# Builds <base-rev>'s fbufbench from a snapshot of that revision
# (`git archive`, so no worktree bookkeeping is left in .git) under
# target/ab/<commit>/, and the working tree's fbufbench in place. It
# then runs AB_PAIRS interleaved pairs of each named workload (default:
# every workload in BENCHMARK.json) at BENCHMARK.json's run length,
# alternating which side runs first, into target/ab/results/base/ and
# target/ab/results/head/ (emptied first). For every end-to-end metric
# of BENCHMARK.json it prints the pairs the head won and each pair's
# head/base ratio; then `fbufbench compare` on the two result
# directories prints both medians with their quartiles (A is the base).
#
# Knobs: AB_PAIRS (pairs per workload, default 10), AB_SEED (default 1).
#
# Exits 1 if sim_mbps (simulated time, exact at a seed) differs between
# any two runs of a workload or if compare flags an end-to-end metric
# beyond its bound, and 2 on a usage, build or run error.
set -eu
# Both builds must land in their own package's target/.
unset CARGO_TARGET_DIR

usage() {
    echo "usage: $0 <base-rev> [workload...]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify --quiet "$1^{commit}") || usage
shift
spec=BENCHMARK.json
pairs=${AB_PAIRS:-10}
seed=${AB_SEED:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")

# The names in one top-level array of the spec, and for end_to_end the
# direction each metric improves in ("name:lower").
spec_list() {
    awk -v want="$1" '
        /^  "[a-z_]+": \[/ { split($0, q, "\""); section = q[2] }
        section == want && /"name":/ { split($0, q, "\""); name = q[4]; if (want != "end_to_end") print name }
        section == want && /"better":/ { split($0, q, "\""); print name ":" q[4] }
    ' "$spec"
}
if [ $# -eq 0 ]; then
    set -- $(spec_list workloads)
fi
metrics=$(spec_list end_to_end)

snapshot=target/ab/$base
if [ ! -f "$snapshot/fbufbench/Cargo.toml" ]; then
    rm -rf "$snapshot"
    mkdir -p "$snapshot"
    git archive "$base" | tar -x -C "$snapshot"
fi
echo "building base $base and the working tree" >&2
cargo build --offline --release --quiet --manifest-path "$snapshot/fbufbench/Cargo.toml" || exit 2
cargo build --offline --release --quiet --manifest-path fbufbench/Cargo.toml || exit 2
bin_base=$snapshot/fbufbench/target/release/fbufbench
bin_head=fbufbench/target/release/fbufbench

results=target/ab/results
rm -rf "$results"
mkdir -p "$results/base" "$results/head"

# run <side> <workload>: one untraced run; its result line is appended
# to <side>/<workload>.lines.
run() {
    eval "bin=\$bin_$1"
    out=$("$bin" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$results/$1") || {
        echo "$1 run of $2 failed:" >&2
        echo "$out" >&2
        exit 2
    }
    echo "$out" | tail -n 1 >>"$results/$1/$2.lines"
}

status=0
for w in "$@"; do
    echo "== $w: $pairs pairs of ${seconds} s at seed $seed (base ${base%"${base#???????}"}, head: working tree)"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run base "$w"
            run head "$w"
        else
            run head "$w"
            run base "$w"
        fi
        i=$((i + 1))
    done
    awk -v metrics="$metrics" '
        function val(line, m,   s) {
            if (!match(line, "\"" m "\":\\{\"value\":[^,}]+")) return ""
            s = substr(line, RSTART, RLENGTH)
            sub(/.*"value":/, "", s)
            return s
        }
        FNR == 1 { side++ }
        { line[side, FNR] = $0; n[side] = FNR }
        END {
            pairs = n[1] < n[2] ? n[1] : n[2]
            sim = val(line[1, 1], "sim_mbps")
            for (s = 1; s <= 2; s++)
                for (p = 1; p <= n[s]; p++)
                    if (val(line[s, p], "sim_mbps") != sim) differs = 1
            printf "%-16s %-6s %-5s %s\n", "metric", "better", "wins", "head/base by pair"
            k = split(metrics, ms, " ")
            for (i = 1; i <= k; i++) {
                split(ms[i], nb, ":")
                wins = 0
                ratios = ""
                for (p = 1; p <= pairs; p++) {
                    b = val(line[1, p], nb[1]) + 0
                    h = val(line[2, p], nb[1]) + 0
                    ratios = ratios sprintf(" %.3f", b != 0 ? h / b : 0)
                    if ((nb[2] == "lower" && h < b) || (nb[2] == "higher" && h > b)) wins++
                }
                printf "%-16s %-6s %2d/%-2d %s\n", nb[1], nb[2], wins, pairs, ratios
            }
            if (differs) {
                print "sim_mbps DIFFERS between runs: simulated time moved"
                exit 1
            }
        }
    ' "$results/base/$w.lines" "$results/head/$w.lines" || status=1
done

echo "== fbufbench compare base head (A = base, B = head)"
"$bin_head" compare "$results/base" "$results/head" --spec "$spec" || status=1
exit $status
