#!/usr/bin/env bash
# CPU profile of one run of a workspace binary, by sampling: a report, not
# a gate. There is no `perf` here, and the phase timers stop at public
# calls; this splits the time below them too.
#
# Builds the workspace (or the crate at MANIFEST) in release with
# `-C force-frame-pointers=yes` into its own target directory
# (target/sample-profile), builds the SIGPROF sampler
# `scripts/sample-profile.c` with the system `cc`, runs
# `BIN ARGS...` with the sampler preloaded, and
# prints the inclusive and self tables of `scripts/sample-symbolize.py`
# (ROWS rows each, default 30). Frames outside frame-pointer code (libc,
# libm) end their stack walk early: their callers are missing from those
# samples. The command's exit code is kept. The sampler asks for 997
# samples per CPU second but gets one per kernel tick at most: 250 per CPU
# second on a 250 Hz kernel (measured on a C busy loop), and the tick
# bounds the whole process, not each thread, so a parallel run gets fewer
# samples per CPU second. A command that execs another program runs on
# unprofiled and unharmed.
#
# Usage: scripts/sample-profile.sh [-m MANIFEST] [-n ROWS] BIN [ARGS...]
#   e.g. scripts/sample-profile.sh mdl store sweep STORE --fast
#        scripts/sample-profile.sh -m perfbench/Cargo.toml perfbench \
#            --workload fleet --seed 1 --seconds 15 --trace 0
set -euo pipefail

usage() {
    echo "usage: scripts/sample-profile.sh [-m MANIFEST] [-n ROWS] BIN [ARGS...]" >&2
    exit 2
}
manifest=
rows=30
while getopts m:n: opt; do
    case "$opt" in
        m) manifest="$OPTARG" ;;
        n) rows="$OPTARG" ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || usage
bin="$1"
shift

root="$(git rev-parse --show-toplevel)"
scripts="$root/scripts"
manifest="${manifest:-$root/Cargo.toml}"
manifest="$(cd "$(dirname "$manifest")" && pwd)/$(basename "$manifest")"
target="$root/target/sample-profile"
work="$(mktemp -d)"
# A build of a crate outside the workspace rewrites its lock file.
lock="$(dirname "$manifest")/Cargo.lock"
[ -f "$lock" ] && cp "$lock" "$work/Cargo.lock.saved"
restore() {
    [ -f "$work/Cargo.lock.saved" ] && cp "$work/Cargo.lock.saved" "$lock"
    rm -rf "$work"
}
trap restore EXIT

echo "building $(basename "$(dirname "$manifest")") with frame pointers ..." >&2
RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline --quiet \
    --manifest-path "$manifest" --target-dir "$target"
cc -O2 -fPIC -shared -o "$work/sampler.so" "$scripts/sample-profile.c" -ldl -lpthread

status=0
SAMPLE_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" \
    "$target/release/$bin" "$@" || status=$?
python3 "$scripts/sample-symbolize.py" "$work/samples" "$rows"
exit "$status"
