#!/usr/bin/env -S python3 -S
"""Runs a command and reports its peak resident memory.

Usage: scripts/peak-rss.py CMD [ARG...]

Runs CMD with the given arguments (stdin, stdout and stderr inherited),
then prints `peak rss: <MB> MB (<command>)` on stderr, read from
`getrusage(RUSAGE_CHILDREN).ru_maxrss`: the largest resident set of CMD
and of every descendant it waited for. Exits with CMD's exit code (128 + N
if signal N ended it). A report, not a gate: nothing is compared.

Linux also counts, for a spawned child, the peak of the process that
spawned it: this script's interpreter, about 10 MB when started with
`python3 -S` (as the shebang does) and 13 MB without. A command that stays
below that prints `peak rss: at most <MB> MB`. Run a built binary rather
than `cargo run`, whose own process would be counted too.
"""

import os
import resource
import shlex
import signal
import sys


def max_rss_mb(who):
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024


def main(argv):
    if not argv:
        sys.stderr.write("usage: scripts/peak-rss.py CMD [ARG...]\n")
        return 2
    try:
        pid = os.posix_spawnp(argv[0], argv, os.environ)
    except OSError as e:
        sys.stderr.write(f"peak-rss: cannot run {argv[0]}: {e}\n")
        return 127
    # posix_spawn shares this process's memory until the child's exec, so
    # the floor the kernel kept for the child is this process's own peak
    # so far.
    floor_mb = max_rss_mb(resource.RUSAGE_SELF)
    # Ctrl-C reaches the command; keep waiting so its status is reported.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _, status = os.waitpid(pid, 0)
    peak_mb = max_rss_mb(resource.RUSAGE_CHILDREN)
    shown = f"{peak_mb:.1f} MB" if peak_mb > floor_mb else f"at most {floor_mb:.1f} MB"
    sys.stderr.write(f"peak rss: {shown} ({shlex.join(argv)})\n")
    code = os.waitstatus_to_exitcode(status)
    return 128 - code if code < 0 else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
