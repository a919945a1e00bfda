#!/usr/bin/env python3
"""Self-test of scripts/bench-gate.py on synthetic trajectories.

Usage: python3 scripts/bench-gate-test.py   (exits nonzero on a failure)
"""
import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench-gate.py")


def gate(committed, fresh, limit=25):
    """Runs the gate; returns (exit code, stdout, committed lines after)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, recs in (("committed", committed), ("fresh", fresh)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                f.writelines(json.dumps(r) + "\n" for r in recs)
            paths.append(path)
        run = subprocess.run(
            [sys.executable, GATE, paths[0], paths[1], str(limit)],
            capture_output=True,
            text=True,
        )
        with open(paths[0]) as f:
            after = [json.loads(line) for line in f if line.strip()]
    return run.returncode, run.stdout, after


def rec(bench, median_s, min_s=None):
    r = {"bench": bench, "median_s": median_s}
    if min_s is not None:
        r["min_s"] = min_s
    return r


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


# Legacy records have no min_s; their median_s is the statistic.
legacy = [rec("x", 1.0), rec("x", 1.0), rec("x", 1.0)]
code, out, _ = gate(legacy, [rec("x", 9.0, min_s=1.2)])
check(code == 0 and "vs confirmed best 1.0000e+00" in out, "legacy record read from median_s")

# +30 % fails and appends nothing; +10 % passes and appends.
new = [rec("x", 5.0, min_s=1.0)] * 3
code, out, after = gate(new, [rec("x", 1.0, min_s=1.3)])
check(code == 1 and "REGRESSION" in out and len(after) == 3, "+30 % fails")
code, out, after = gate(new, [rec("x", 9.0, min_s=1.1)])
check(code == 0 and "+10.0%" in out and len(after) == 4, "+10 % passes and appends")

# Below three records the baseline is the plain minimum; from three on it
# is the best rolling median of three.
code, out, _ = gate([rec("x", 0, 2.0), rec("x", 0, 1.0)], [rec("x", 0, 1.0)])
check("vs confirmed best 1.0000e+00" in out, "two records: plain minimum")
code, out, _ = gate(
    [rec("x", 0, 2.0), rec("x", 0, 1.0), rec("x", 0, 2.0)], [rec("x", 0, 2.0)]
)
check("vs confirmed best 2.0000e+00" in out, "three records: median of three")

# A fresh id with no history is recorded without a verdict.
code, out, after = gate(new, [rec("y", 1.0, min_s=1.0)])
check(
    code == 0
    and "y: no committed baseline" in out
    and "confirmed best" not in out
    and after[-1]["bench"] == "y",
    "new id recorded without a verdict",
)
