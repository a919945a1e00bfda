#!/usr/bin/env bash
# Model-server smoke: extracts the standard fleet into a store directory,
# keeps it resident behind `mdl serve` on a Unix socket, and drives the
# daemon through the framed protocol:
#
#   ls / info / simulate / stats   one-shot `mdl request` checks — every
#                                  response must carry "ok":true
#   descriptor leak                200 sequential `request ls` calls must
#                                  not grow the daemon's open descriptors
#   hot reload                     rewrites an artifact in place and polls
#                                  until the daemon's reload counter moves
#                                  without dropping the connection
#   concurrent burst               4 background loops of 24 `mdl request`
#                                  calls each (simulate, a validate every
#                                  8th, a sweep every 16th) round-robin
#                                  over the served models; the daemon's
#                                  final `stats` is printed
#
# The daemon is told to shut down over the socket; the script fails if any
# request errors, the reload never surfaces, or any request of the burst
# comes back "ok":false. Daemon latency is measured by
# `perfbench --workload serve`, not here.
#
# Usage: scripts/serve-smoke.sh [store-dir]
set -euo pipefail

store="${1:-}"
if [ -z "$store" ]; then
    store="$(mktemp -d)"
    cleanup_store=1
else
    cleanup_store=0
fi
sock="$(mktemp -u)/serve-smoke.sock"
mkdir -p "$(dirname "$sock")"

mdl() {
    cargo run --release -q -p emc-bench --bin mdl -- "$@"
}
root="$(cd "$(dirname "$0")/.." && pwd)"
mdl_bin="${CARGO_TARGET_DIR:-$root/target}/release/mdl"

serve_pid=""
cleanup() {
    if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
        mdl request --socket "$sock" shutdown >/dev/null 2>&1 || kill "$serve_pid"
        wait "$serve_pid" 2>/dev/null || true
    fi
    rm -rf "$(dirname "$sock")"
    [ "$cleanup_store" = 1 ] && rm -rf "$store"
    return 0
}
trap cleanup EXIT

echo "== extracting the standard fleet into $store"
mdl extract md1 --fast --out "$store/md1-pwrbf.mdlx"
mdl extract md4 --kind receiver --fast --v2 --out "$store/md4-receiver.mdlx"
mdl extract md4 --kind cr --out "$store/md4-cr.mdlx"

echo "== starting mdl serve"
mdl serve "$store" --socket "$sock" --poll-ms 100 --fast &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
done
[ -S "$sock" ] || { echo "daemon never bound $sock" >&2; exit 1; }

echo "== protocol checks (ls / info / simulate / stats)"
mdl request --socket "$sock" ls
mdl request --socket "$sock" info md1 >/dev/null
mdl request --socket "$sock" simulate md1 >/dev/null
mdl request --socket "$sock" stats >/dev/null

echo "== descriptor leak: 200 sequential requests"
# $serve_pid is the backgrounded shell; the daemon is the `mdl` process
# serving this socket. The requests call the built binary directly to keep
# the loop fast.
daemon_pid=""
for pid in $(pgrep -f -- "--socket $sock --poll-ms"); do
    [ "$(cat "/proc/$pid/comm" 2>/dev/null)" = mdl ] && daemon_pid="$pid"
done
[ -n "$daemon_pid" ] || { echo "no mdl process serves $sock" >&2; exit 1; }
open_fds() { ls "/proc/$daemon_pid/fd" | wc -l; }
fds_before="$(open_fds)"
for _ in $(seq 1 200); do
    "$mdl_bin" request --socket "$sock" ls >/dev/null
done
fds_after="$(open_fds)"
if [ "$fds_after" -gt $((fds_before + 8)) ]; then
    echo "daemon leaks descriptors: $fds_before -> $fds_after after 200 requests" >&2
    exit 1
fi
echo "descriptors: ok ($fds_before -> $fds_after after 200 requests)"

echo "== hot reload: rewrite an artifact, wait for the daemon to notice"
reloads() {
    mdl request --socket "$sock" stats | sed -n 's/.*"reloads":\([0-9]*\).*/\1/p'
}
before="$(reloads)"
touch -d '2001-01-01 00:00:00' "$store/md1-pwrbf.mdlx" 2>/dev/null \
    || touch -t 200101010000 "$store/md1-pwrbf.mdlx"
after="$before"
for _ in $(seq 1 50); do
    after="$(reloads)"
    [ "$after" -gt "$before" ] && break
    sleep 0.1
done
if [ "$after" -le "$before" ]; then
    echo "daemon never registered the artifact rewrite" >&2
    exit 1
fi
# The bytes did not change, so the reload must have been a cache hit and
# the model must still answer.
mdl request --socket "$sock" simulate md1 >/dev/null
echo "hot reload: ok (reloads $before -> $after)"

echo "== concurrent burst: 4 clients x 24 requests"
# Served model names, in inventory order.
mapfile -t models < <("$mdl_bin" request --socket "$sock" ls \
    | grep -o '"name":"[^"]*"' | sed 's/^"name":"//; s/"$//')
[ "${#models[@]}" -gt 0 ] || { echo "daemon serves no models" >&2; exit 1; }
client_loop() {
    local client="$1" k serial target line
    for k in $(seq 0 23); do
        serial=$((k + 1))
        target="${models[$(((client + k) % ${#models[@]}))]}"
        if [ $((serial % 16)) -eq 0 ]; then
            line="sweep --fast"
        elif [ $((serial % 8)) -eq 0 ]; then
            line="validate $target --fast"
        else
            line="simulate $target"
        fi
        "$mdl_bin" request --socket "$sock" "$line" >/dev/null \
            || { echo "client $client: '$line' failed" >&2; return 1; }
    done
}
pids=()
for client in 0 1 2 3; do
    client_loop "$client" &
    pids+=("$!")
done
failed=0
for pid in "${pids[@]}"; do
    wait "$pid" || failed=1
done
[ "$failed" = 0 ] || { echo "burst: a request failed" >&2; exit 1; }
mdl request --socket "$sock" stats

echo "== shutdown over the socket"
mdl request --socket "$sock" shutdown >/dev/null
wait "$serve_pid"
serve_pid=""

echo "model server: ok"
