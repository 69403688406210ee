#!/usr/bin/env bash
# Runs one filtered release test selection, failing when the filter
# matches no test.
#
# A bare `cargo test <filter>` exits 0 when the filter matches nothing,
# so a renamed test would silently drop out of CI. This lists the
# selection first (`-- --list`) and fails unless at least one test is
# listed, then runs it.
#
# Usage: .github/scripts/filtered_test.sh <cargo test selection...> FILTER
#   e.g. .github/scripts/filtered_test.sh -p ianus-core --lib preflight
#        .github/scripts/filtered_test.sh -p ianus-npu --test scheduler_stress lanes

set -euo pipefail
if [ "$#" -lt 2 ]; then
  echo "usage: $0 <cargo test selection...> FILTER" >&2
  exit 2
fi
filter=${*: -1}
selection=("${@:1:$#-1}")
list=$(cargo test --release -q "${selection[@]}" "$filter" -- --list)
if ! grep -q ': test$' <<<"$list"; then
  echo "FAIL: no test in '${selection[*]}' matches '$filter'" >&2
  exit 1
fi
cargo test --release -q "${selection[@]}" "$filter"
