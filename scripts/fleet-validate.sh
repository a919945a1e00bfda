#!/usr/bin/env bash
# The model-fleet CI gate: extracts the standard artifact set into a store
# directory — md1 PW-RBF driver (v1), the three md1 IBIS corners as one
# mdlx 2 bundle, md4 receiver (v2 + provenance), md4 C–R̂ baseline (v1) —
# then serves the whole library through `mdl store`:
#
#   ls        inventory (fails on unloadable artifacts)
#   validate  batch re-certification of every model against its
#             transistor-level reference, per-kind accuracy gates
#   sweep     the scenario matrix (fixtures + bus ladders + mixed-backend
#             bus) with per-cell pass/fail and SolveStats; its peak
#             resident memory is printed by scripts/peak-rss.py (a report,
#             not a gate)
#
# Both engine passes write machine-readable JSON reports into
# $FLEET_REPORT_DIR (default: fleet-reports/) for upload as a workflow
# artifact; any failing cell or unloadable file exits nonzero.
#
# Usage: scripts/fleet-validate.sh [store-dir]
set -euo pipefail

# Temp dirs to remove on exit (a user-supplied store dir is never listed).
scratch=()
cleanup() { if [ ${#scratch[@]} -gt 0 ]; then rm -rf "${scratch[@]}"; fi; }
trap cleanup EXIT

store="${1:-}"
if [ -z "$store" ]; then
    store="$(mktemp -d)"
    scratch+=("$store")
fi
report_dir="${FLEET_REPORT_DIR:-fleet-reports}"
mkdir -p "$report_dir"

mdl() {
    cargo run --release -q -p emc-bench --bin mdl -- "$@"
}
scripts_dir="$(cd "$(dirname "$0")" && pwd)"

echo "== extracting the standard fleet into $store"
mdl extract md1 --fast --out "$store/md1-pwrbf.mdlx"
mdl extract md1 --kind ibis --fast --corners --out "$store/md1-ibis-corners.mdlx"
mdl extract md4 --kind receiver --fast --v2 --out "$store/md4-receiver.mdlx"
mdl extract md4 --kind cr --out "$store/md4-cr.mdlx"

echo "== store inventory"
mdl store ls "$store"

echo "== batch validation against transistor-level references"
mdl store validate "$store" --fast --json "$report_dir/fleet-validate.json"

echo "== scenario-matrix sweep"
# The built binary, not `cargo run`, so the peak is the sweep's own.
target_dir="$(cargo metadata --format-version 1 --no-deps |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["target_directory"])')"
python3 -S "$scripts_dir/peak-rss.py" "$target_dir/release/mdl" \
    store sweep "$store" --fast --json "$report_dir/fleet-sweep.json"

# The binary-container leg: convert every fleet artifact — all four model
# kinds, v1 and v2, with and without provenance — to the .mdlxb container
# and back (convert verifies text -> binary -> text byte-identity itself;
# the cmp below re-asserts it end to end through separate invocations),
# build a mixed text+binary store from them, and require the sweep to
# produce the identical report — the container must be a pure encoding
# change, invisible to every result downstream.
echo "== binary container round-trip + mixed-store sweep"
bin_store="$(mktemp -d)"
scratch+=("$bin_store")
cp "$store"/*.mdlx "$bin_store/"
for name in md1-pwrbf md1-ibis-corners md4-receiver md4-cr; do
    mdl convert "$bin_store/$name.mdlx" "$bin_store/$name.mdlxb"
    mdl convert "$bin_store/$name.mdlxb" "$bin_store/$name.roundtrip.mdlx"
    cmp "$bin_store/$name.mdlx" "$bin_store/$name.roundtrip.mdlx"
    rm "$bin_store/$name.roundtrip.mdlx"
done
# Serve two entries from each container.
rm "$bin_store/md1-pwrbf.mdlx" "$bin_store/md4-receiver.mdlx" \
   "$bin_store/md1-ibis-corners.mdlxb" "$bin_store/md4-cr.mdlxb"

mdl store ls "$bin_store"
mdl store sweep "$bin_store" --fast --json "$report_dir/fleet-sweep-bin.json"

# Identical up to the volatile fields: the store root (a throwaway temp
# dir each run) and per-cell wall-clock times. Every numerical result —
# waveforms, eye metrics, MC aggregates, solver statistics — must match
# the text run exactly.
python3 - "$report_dir/fleet-sweep.json" "$report_dir/fleet-sweep-bin.json" <<'EOF'
import json
import sys


def normalize(node):
    if isinstance(node, dict):
        return {
            k: normalize(v)
            for k, v in node.items()
            if k not in ("store", "elapsed_s")
        }
    if isinstance(node, list):
        out = [normalize(v) for v in node]
        if all(isinstance(v, dict) and "model" in v for v in out):
            out.sort(key=lambda c: (c["model"], c.get("scenario", "")))
        return out
    return node


with open(sys.argv[1]) as f:
    text_report = normalize(json.load(f))
with open(sys.argv[2]) as f:
    bin_report = normalize(json.load(f))
if text_report != bin_report:
    sys.exit("binary-store sweep report differs from the text-store report")
print("binary-store sweep report matches the text-store report")
EOF

echo "model fleet: ok (reports in $report_dir/)"
