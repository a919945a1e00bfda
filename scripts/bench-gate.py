#!/usr/bin/env python3
"""Bench-trajectory gate: compares fresh bench records against the
confirmed best of the committed trajectory and appends them if they pass.

Each record is one JSON line: {"bench", "median_s", "min_s", "max_s",
"samples"}. The gate statistic is `min_s`, the fastest sample (per unit
for throughput benches). Legacy records without `min_s` (the `eval`, `eye`
and `store` trajectories written before those benches moved onto the
criterion stand-in) are read from `median_s`, which already held a
best-of-reps there.

"Confirmed best" is the minimum over rolling median-of-3 windows of the
committed trajectory: a speedup only tightens the gate once two
neighbouring runs corroborate it, so a single lucky outlier run cannot
ratchet the baseline below what the machine can actually sustain — while
still comparing against the best confirmed level ever committed, so a
sequence of sub-limit slowdowns can never compound either. With fewer than
three committed records the plain minimum is the only option.

A fresh id with no committed history is recorded without a verdict. Any
record more than LIMIT percent over its confirmed best fails the gate
(exit 1) and nothing is appended; otherwise every fresh record is appended
to COMMITTED.

Usage: scripts/bench-gate.py COMMITTED FRESH LIMIT
"""
import json
import sys


def read_records(path):
    records = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    except FileNotFoundError:
        pass
    return records


def statistic(rec):
    return rec.get("min_s", rec["median_s"])


def confirmed_best(values):
    if len(values) < 3:
        return min(values)
    return min(sorted(values[i : i + 3])[1] for i in range(len(values) - 2))


def main(argv):
    if len(argv) != 4:
        sys.exit("usage: bench-gate.py COMMITTED FRESH LIMIT")
    committed_path, fresh_path, limit = argv[1], argv[2], float(argv[3])

    fresh = read_records(fresh_path)
    if not fresh:
        sys.exit(f"no fresh bench records in {fresh_path}")

    history = {}
    for rec in read_records(committed_path):
        history.setdefault(rec["bench"], []).append(statistic(rec))
    baseline = {name: confirmed_best(values) for name, values in history.items()}

    failed = False
    for rec in fresh:
        name, value = rec["bench"], statistic(rec)
        base = baseline.get(name)
        if base is None:
            print(f"{name}: no committed baseline, recording {value:.4e} s")
            continue
        delta_pct = 100.0 * (value - base) / base
        verdict = "ok"
        if delta_pct > limit:
            verdict = f"REGRESSION (> {limit:.0f}% limit)"
            failed = True
        print(
            f"{name}: {value:.4e} s vs confirmed best {base:.4e} s "
            f"({delta_pct:+.1f}%) {verdict}"
        )

    if failed:
        sys.exit(1)

    # Append the passing run so the committed file accumulates a trajectory.
    with open(committed_path, "a") as f:
        for rec in fresh:
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")
    print(f"trajectory appended to {committed_path} ({len(fresh)} record(s))")


if __name__ == "__main__":
    main(sys.argv)
