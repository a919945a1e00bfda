#!/usr/bin/env bash
# Paired A/B timing of perfbench against another revision: builds perfbench
# at REV (exported with `git archive` into a temporary directory) and in the
# working tree, each in its own target dir outside the repo, then runs
# untraced pairs in ABBA order (A = REV, B = working tree; odd pairs run A
# first, even pairs B first) so that host drift lands on both sides evenly.
# Every run uses the same seed.
#
# Prints every pair's op_s, setup_s and peak_rss_mb, the number of pairs
# in which B's op_s is lower, each side's median and interquartile range
# of all three end-to-end metrics, and each side's minimum and maximum
# peak_rss_mb (a side whose runs fall into two memory modes shows a wide
# range there), then one JSON line with the same numbers. Exits nonzero if
# any run reports `correct: false` or fails. `perfbench/Cargo.lock` is left
# as it was. Not a CI step: it runs 2 x PAIRS x SECONDS of benchmark plus
# two release builds.
#
# Usage: scripts/perf-ab.sh REV [workload] [pairs] [seconds] [seed]
#        (defaults: paper, 8 pairs, 30 s per run, seed 1)
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/perf-ab.sh REV [workload] [pairs] [seconds] [seed]" >&2
    exit 2
fi
rev="$1"
workload="${2:-paper}"
pairs="${3:-8}"
seconds="${4:-30}"
seed="${5:-1}"
root="$(git rev-parse --show-toplevel)"
cd "$root"
git rev-parse --verify -q "$rev^{commit}" >/dev/null || {
    echo "unknown revision '$rev'" >&2
    exit 2
}

work="$(mktemp -d)"
lock_saved="$work/Cargo.lock.saved"
cp perfbench/Cargo.lock "$lock_saved"
cleanup() {
    cp "$lock_saved" "$root/perfbench/Cargo.lock"
    rm -rf "$work"
}
trap cleanup EXIT

mkdir "$work/rev"
git archive "$rev" | tar -x -C "$work/rev"
echo "building perfbench at $rev ..."
(cd "$work/rev" && cargo build --release --offline -q \
    --manifest-path perfbench/Cargo.toml --target-dir "$work/target-a")
echo "building perfbench in the working tree ..."
cargo build --release --offline -q \
    --manifest-path perfbench/Cargo.toml --target-dir "$work/target-b"
cp "$lock_saved" perfbench/Cargo.lock

mkdir -p "$work/run-a" "$work/run-b" "$work/out"
# Runs side $1 (a or b) once; prints the last (JSON) line of its output.
run_side() {
    local side="$1" tag="$2"
    local log="$work/out/$tag-$side.log"
    if ! (cd "$work/run-$side" && "$work/target-$side/release/perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) >"$log" 2>&1; then
        echo "perf-ab: run $tag-$side failed; its output:" >&2
        cat "$log" >&2
        return 1
    fi
    tail -n 1 "$log"
}

results="$work/out/results.jsonl"
: >"$results"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then order="a b"; else order="b a"; fi
    for side in $order; do
        line="$(run_side "$side" "$i")"
        printf '{"pair": %d, "side": "%s", "run": %s}\n' "$i" "$side" "$line" >>"$results"
    done
done

python3 - "$results" "$rev" "$workload" "$pairs" "$seconds" "$seed" <<'EOF'
import json
import statistics
import sys

path, rev, workload, pairs, seconds, seed = sys.argv[1:]
rows = [json.loads(line) for line in open(path) if line.strip()]
runs = {}
correct = True
for row in rows:
    run = row["run"]
    correct &= bool(run.get("correct")) and run.get("failed", 1) == 0
    m = run["metrics"]
    runs[(row["pair"], row["side"])] = {
        k: m[k]["value"] for k in ("op_s", "setup_s", "peak_rss_mb")
    }

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

metrics = ("op_s", "setup_s", "peak_rss_mb")
series = {(k, s): [] for k in metrics for s in "ab"}
wins = 0
print(f"perf-ab {workload}: A = {rev}, B = working tree, {pairs} pairs x {seconds} s, seed {seed}")
print("pair  op_s A    op_s B    change   setup_s A  setup_s B  rss A  rss B")
for i in range(1, int(pairs) + 1):
    a, b = runs[(i, "a")], runs[(i, "b")]
    for k in metrics:
        series[(k, "a")].append(a[k])
        series[(k, "b")].append(b[k])
    wins += b["op_s"] < a["op_s"]
    change = (b["op_s"] / a["op_s"] - 1.0) * 100.0
    print(
        f"{i:>4}  {a['op_s']:<8.4f}  {b['op_s']:<8.4f}  {change:+6.1f}%  "
        f"{a['setup_s']:<9.4f}  {b['setup_s']:<9.4f}  {a['peak_rss_mb']:<5.0f}  {b['peak_rss_mb']:.0f}"
    )
print(f"B faster (op_s) in {wins}/{pairs} pairs")
summary = {
    "workload": workload,
    "rev": rev,
    "pairs": int(pairs),
    "seconds": float(seconds),
    "seed": int(seed),
    "wins_b": wins,
}
for k in metrics:
    xa, xb = series[(k, "a")], series[(k, "b")]
    ma, mb = statistics.median(xa), statistics.median(xb)
    qa, qb = quartiles(xa), quartiles(xb)
    line = (f"median {k}: A {ma:.4f} (IQR {qa[0]:.4f}-{qa[1]:.4f}), "
            f"B {mb:.4f} (IQR {qb[0]:.4f}-{qb[1]:.4f}), change {(mb / ma - 1) * 100:+.1f}%")
    if k == "peak_rss_mb":
        line += f"; range A {min(xa):.1f}-{max(xa):.1f}, B {min(xb):.1f}-{max(xb):.1f}"
        summary.update({
            "min_peak_rss_mb_a": min(xa),
            "max_peak_rss_mb_a": max(xa),
            "min_peak_rss_mb_b": min(xb),
            "max_peak_rss_mb_b": max(xb),
        })
    print(line)
    summary.update({
        f"median_{k}_a": ma,
        f"median_{k}_b": mb,
        f"iqr_{k}_a": list(qa),
        f"iqr_{k}_b": list(qb),
        f"{k}_a": xa,
        f"{k}_b": xb,
    })
summary["correct"] = correct
print(json.dumps(summary))
sys.exit(0 if correct else 1)
EOF
