#!/usr/bin/env bash
# Non-test code lines per crate: every `.rs` file under each crate's `src/`
# and `benches/` (the umbrella crate and the `vendor/*` stand-ins
# included), minus blank lines, `//` comment lines (doc comments too) and
# `#[cfg(test)]` items. `tests/` and `examples/` are not counted, so code
# moving between a crate's library and its bench targets shows as moved,
# not deleted. With REV, the same count is taken of
# REV (exported with `git archive` into a temporary directory) and each
# crate's delta is printed beside it.
#
# A report, not a gate: it exits nonzero only on bad usage.
#
# Usage: scripts/loc.sh [REV]      (e.g. scripts/loc.sh HEAD~1)
set -euo pipefail

if [ $# -gt 1 ]; then
    echo "usage: scripts/loc.sh [REV]" >&2
    exit 2
fi
root="$(git rev-parse --show-toplevel)"
cd "$root"

args=("$root")
if [ $# -eq 1 ]; then
    git rev-parse --verify -q "$1^{commit}" >/dev/null || {
        echo "unknown revision '$1'" >&2
        exit 2
    }
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    git archive "$1" | tar -x -C "$work"
    args+=("$work" "$1")
fi

python3 - "${args[@]}" <<'EOF'
import os
import sys


def code_lines(path):
    """Non-blank, non-comment lines outside `#[cfg(test)]` items."""
    count = 0
    skip_next_item = False
    depth = 0  # brace depth inside a skipped item
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if depth > 0:
                depth += line.count("{") - line.count("}")
                continue
            if not line or line.startswith("//"):
                continue
            if line == "#[cfg(test)]":
                skip_next_item = True
                continue
            if skip_next_item:
                if line.startswith("#["):
                    continue
                skip_next_item = False
                depth = line.count("{") - line.count("}")
                continue
            count += 1
    return count


def crates(tree):
    """`{crate: lines}` for the umbrella crate, every `crates/*` and every
    `vendor/*`, each counting its `src/` and `benches/`."""
    dirs = [("(root)", tree)]
    for group in ("crates", "vendor"):
        base = os.path.join(tree, group)
        if os.path.isdir(base):
            for name in sorted(os.listdir(base)):
                dirs.append((name, os.path.join(base, name)))
    out = {}
    for name, crate in dirs:
        roots = [os.path.join(crate, d) for d in ("src", "benches")]
        roots = [r for r in roots if os.path.isdir(r)]
        if not roots:
            continue
        total = 0
        for root in roots:
            for parent, _, files in os.walk(root):
                for f in files:
                    if f.endswith(".rs"):
                        total += code_lines(os.path.join(parent, f))
        out[name] = total
    return out


now = crates(sys.argv[1])
if len(sys.argv) == 2:
    print(f"{'crate':<10} {'lines':>7}")
    for name, n in now.items():
        print(f"{name:<10} {n:>7}")
    print(f"{'total':<10} {sum(now.values()):>7}")
    sys.exit(0)

then, rev = crates(sys.argv[2]), sys.argv[3]
names = list(now) + [n for n in then if n not in now]
print(f"{'crate':<10} {'lines':>7} {rev[:12]:>12} {'delta':>7}")
for name in names:
    a, b = then.get(name, 0), now.get(name, 0)
    print(f"{name:<10} {b:>7} {a:>12} {b - a:>+7}")
ta, tb = sum(then.values()), sum(now.values())
print(f"{'total':<10} {tb:>7} {ta:>12} {tb - ta:>+7}")
EOF
