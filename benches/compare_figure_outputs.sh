#!/usr/bin/env sh
# CI gate: the paper-figure binaries must print byte-identical output.
#
# Runs every `crates/bench` binary (Fig. 2 and 8-18, ablations, tables,
# cost analysis, motivation) and diffs its stdout against the committed
# golden under `benches/figures/<bin>.txt`. The binaries are fully
# deterministic and print no wall-clock, so ANY diff means a device-layer
# number behind a paper figure moved: PIM timing, the PAS compiler,
# Algorithm 1, NPU execution or a baseline model.
#
# Usage: ./benches/compare_figure_outputs.sh
#   (run from the repo root; builds the binaries if needed)

set -eu

cd "$(dirname "$0")/.."

cargo build --release -p ianus-bench --bins --quiet

fail=0
for golden in benches/figures/*.txt; do
    bin=$(basename "$golden" .txt)
    current=$(mktemp)
    "./target/release/$bin" >"$current"
    if ! diff -u "$golden" "$current"; then
        echo "FAIL: $bin output drifted from $golden" >&2
        echo "      (if the change is intentional, regenerate the golden with" >&2
        echo "       ./target/release/$bin > $golden)" >&2
        fail=1
    else
        echo "OK: $bin output is byte-identical"
    fi
    rm -f "$current"
done

exit "$fail"
