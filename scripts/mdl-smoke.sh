#!/usr/bin/env bash
# CI smoke for the model-artifact lifecycle: extract the md1 PW-RBF driver
# to a .mdlx file, print its inventory, then `mdl validate` — which checks
# the bit-exact re-save guarantee AND re-simulates the artifact against the
# transistor-level reference, failing on round-trip or accuracy
# regressions. A simulate run proves a loaded artifact drives a fixture
# end-to-end without re-estimation. Finally the container must not matter:
# the artifact is converted to .mdlxb, and info, lint, validate and
# simulate run on the binary file and on a copy of its bytes named .mdlx
# (the loader decides by the leading bytes, not the name); simulate must
# print the text file's CSV exactly.
#
# Usage: scripts/mdl-smoke.sh
set -euo pipefail

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

mdl() {
    cargo run --release -q -p emc-bench --bin mdl -- "$@"
}

artifact="$workdir/md1-pwrbf.mdlx"
mdl extract md1 --fast --out "$artifact"
mdl info "$artifact"
mdl validate "$artifact" --fast
# A loaded artifact must drive the Fig.1 fixture purely from the file.
fixture=(--fixture linecap --pattern 01 --t-stop 12e-9)
mdl simulate "$artifact" "${fixture[@]}" >"$workdir/text.csv"
lines="$(wc -l <"$workdir/text.csv")"
if [ "$lines" -lt 100 ]; then
    echo "simulate produced only $lines CSV lines" >&2
    exit 1
fi

# The same artifact in the binary container, under its own extension and
# under the text one.
mdl convert "$artifact" "$workdir/md1-pwrbf.mdlxb"
cp "$workdir/md1-pwrbf.mdlxb" "$workdir/binary-bytes.mdlx"
for bin in "$workdir/md1-pwrbf.mdlxb" "$workdir/binary-bytes.mdlx"; do
    info="$(mdl info "$bin")"
    grep -q 'binary container' <<<"$info" || {
        echo "info does not report $bin as a binary container" >&2
        exit 1
    }
    mdl lint "$bin"
    mdl validate "$bin" --fast
    mdl simulate "$bin" "${fixture[@]}" >"$workdir/bin.csv"
    cmp "$workdir/text.csv" "$workdir/bin.csv" || {
        echo "simulate on $bin differs from the text artifact" >&2
        exit 1
    }
done
echo "mdl artifact lifecycle smoke: ok ($lines waveform samples, both containers)"
