#!/usr/bin/env sh
# CI gate: the serving engine's canonical smoke benchmarks must stay
# bit-identical to the committed baselines.
#
# Regenerates each example's `--smoke --bench-json` output with the
# current binary and diffs it against the committed file under
# `benches/canonical/`, with the machine-dependent `"wall_s"` lines
# stripped from both sides. Every remaining field (preemption and
# recompute schedules, DMA seconds, percentile latencies, goodput,
# migration counts, bisected sustainable rates) is deterministic, so
# ANY diff means the engine's schedule drifted — the event-driven turn
# selection is pinned to the historical step-scan schedules (and the
# single, order-checked DMA lane path to the old lane scans), and this
# script is the cheap whole-trajectory check on top of the unit pins.
#
# Usage: ./benches/compare_canonical_results.sh
#   (run from the repo root; builds the examples if needed)

set -eu

cd "$(dirname "$0")/.."

fail=0

# compare <example> <canonical-json>
compare() {
    example=$1
    canonical=$2
    current=$(mktemp)

    cargo build --release --example "$example" --quiet
    "./target/release/examples/$example" --smoke --bench-json "$current" >/dev/null

    grep -v '"wall_s"' "$canonical" >"$canonical.strip"
    grep -v '"wall_s"' "$current" >"$current.strip"

    if ! diff -u "$canonical.strip" "$current.strip"; then
        echo "FAIL: $example benchmark drifted from $canonical" >&2
        echo "      (if the change is intentional, regenerate the canonical file with" >&2
        echo "       ./target/release/examples/$example --smoke --bench-json $canonical)" >&2
        fail=1
    else
        echo "OK: canonical $example benchmark is bit-identical (wall-clock ignored)"
    fi
    rm -f "$current" "$current.strip" "$canonical.strip"
}

compare policy_sweep benches/canonical/BENCH_serving.json
compare disaggregated benches/canonical/BENCH_disaggregated.json
compare agentic_workflows benches/canonical/BENCH_workflows.json
compare traffic_shapes benches/canonical/BENCH_traffic.json

exit "$fail"
