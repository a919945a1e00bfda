#!/usr/bin/env bash
# Byte-identity check of extracted models against another revision: builds
# `mdl` at REV (exported with `git archive` into a temporary directory, with
# its own target dir) and in the working tree, extracts the same artifact
# list with both binaries and `cmp`s each pair. Exits nonzero on the first
# difference.
#
# Use it when a change must leave every extracted model unchanged (numeric
# refactors of the capture or fitting path). Not a CI step: it builds a
# second copy of the workspace and runs every extraction twice (minutes).
#
# Usage: scripts/artifact-cmp.sh REV      (e.g. scripts/artifact-cmp.sh HEAD~1)
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: scripts/artifact-cmp.sh REV" >&2
    exit 2
fi
rev="$1"
root="$(git rev-parse --show-toplevel)"
cd "$root"
git rev-parse --verify -q "$rev^{commit}" >/dev/null || {
    echo "unknown revision '$rev'" >&2
    exit 2
}

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/rev"
git archive "$rev" | tar -x -C "$work/rev"
echo "building mdl at $rev ..."
(cd "$work/rev" && CARGO_TARGET_DIR="$work/target" cargo build --release -q -p emc-bench --bin mdl)
echo "building mdl in the working tree ..."
cargo build --release -q -p emc-bench --bin mdl
old="$work/target/release/mdl"
new="${CARGO_TARGET_DIR:-$root/target}/release/mdl"

# One extraction per line: device, then flags.
cases=(
    "md1"
    "md1 --bin"
    "md2"
    "md2 --bin"
    "md3"
    "md3 --bin"
    "md2 --fast"
    "md1 --kind ibis --corners"
    "md4 --kind receiver"
    "md4 --kind receiver --v2"
    "md4 --kind receiver --bin"
    "md4 --kind cr"
)
mkdir -p "$work/old" "$work/new"
for case in "${cases[@]}"; do
    # shellcheck disable=SC2086 # the case line is a word list on purpose
    name="$(echo $case | tr ' ' '_' | tr -d '-')"
    # shellcheck disable=SC2086
    "$old" extract $case --out "$work/old/$name" >/dev/null
    # shellcheck disable=SC2086
    "$new" extract $case --out "$work/new/$name" >/dev/null
    if ! cmp "$work/old/$name" "$work/new/$name"; then
        echo "artifact-cmp: '$case' differs from $rev" >&2
        exit 1
    fi
    echo "identical: $case ($(wc -c <"$work/new/$name") bytes)"
done
echo "artifact-cmp: all ${#cases[@]} artifacts byte-identical to $rev"
