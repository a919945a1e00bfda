#!/usr/bin/env bash
# Bench-trajectory tracking: runs `cargo bench -p emc-bench --bench NAME`
# (every microbench is a criterion-stand-in target), then
# `scripts/bench-gate.py` compares each fresh record's minimum against the
# confirmed best in BENCH_<NAME>.json and FAILS on a regression beyond the
# limit (default 25 %, override with BENCH_REGRESSION_LIMIT, percent).
# Passing runs append their records, so the committed file accumulates a
# per-run trajectory. A bench target that checks a floor of its own (the
# store bench's >= 10x lazy-open speedup) fails the run before the gate.
#
# The criterion stand-in appends one JSON object per benchmark when
# BENCH_BASELINE_JSON is set; this script drives it through a temp file.
#
# Usage: scripts/bench-baseline.sh [NAME]   (default: table1)
set -euo pipefail

bench="${1:-table1}"
# Absolute path: cargo runs bench binaries with the *package* directory as
# their working directory, not the workspace root.
committed="$(pwd)/BENCH_${bench}.json"
limit="${BENCH_REGRESSION_LIMIT:-25}"

fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT

BENCH_BASELINE_JSON="$fresh" cargo bench -p emc-bench --bench "$bench"

python3 "$(dirname "$0")/bench-gate.py" "$committed" "$fresh" "$limit"

echo "baseline trajectory:"
cat "$committed"
