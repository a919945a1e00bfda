#!/usr/bin/env python3
"""Symbolizes the samples `scripts/sample-profile.c` wrote and prints two
tables: inclusive (share of samples with the function anywhere on the
stack, inlined frames included) and self (share with the function at the
sampled PC, innermost inlined frame).

Each address is mapped to its file as `address - base`, where base is the
start of that file's offset-0 mapping: in a PIE the text segment's file
offset and virtual address differ (by 0x1000 in a Rust release binary),
so `address - start + offset` of the text mapping would be wrong. A
non-PIE executable (ELF type EXEC) is looked up at the address itself.
Return addresses are looked up one byte back, inside their call.

Usage: scripts/sample-symbolize.py SAMPLES [ROWS]   (reads SAMPLES.maps)
"""
import collections
import re
import struct
import subprocess
import sys


ADDRESS = re.compile(r"0x[0-9a-f]+")


def read_samples(path):
    with open(path, "rb") as f:
        data = f.read()
    words = struct.unpack(f"<{len(data) // 8}Q", data[: len(data) // 8 * 8])
    samples, i = [], 0
    while i < len(words):
        n = words[i]
        if n == 0 or i + 1 + n > len(words):
            break
        samples.append(words[i + 1 : i + 1 + n])
        i += 1 + n
    return samples


def read_maps(path):
    """[(start, end, file)] of file-backed mappings, and each file's base."""
    ranges, base = [], {}
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip()
            ranges.append((start, end, name))
            if int(parts[2], 16) == 0:
                base.setdefault(name, start)
    return ranges, base


def is_pie(path):
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return True
    return head[:4] != b"\x7fELF" or struct.unpack("<H", head[16:18])[0] != 2


def symbolize(samples, ranges, base):
    """{address: [function names, innermost inlined frame first]}."""
    wanted = {a if k == 0 else a - 1 for stack in samples for k, a in enumerate(stack)}
    by_file = collections.defaultdict(set)
    for a in wanted:
        for start, end, name in ranges:
            if start <= a < end:
                by_file[name].add(a)
                break
    names = {}
    for name, addrs in by_file.items():
        addrs = sorted(addrs)
        shift = base.get(name, 0) if is_pie(name) else 0
        query = "".join(f"{a - shift:x}\n" for a in addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", name],
            input=query, capture_output=True, text=True,
        ).stdout.splitlines()
        # Per address: the address line, then function and location lines
        # for each inlined frame, innermost first. Without debug info (a
        # stripped libc or libm) the name is the nearest exported symbol
        # before the address, often the wrong one: such names carry their
        # file's name.
        groups, func = [], None
        for line in out:
            if ADDRESS.fullmatch(line):
                groups.append([])
            elif groups and func is None:
                func = line
            elif func is not None:
                if line.startswith("??:"):
                    func = f"{func} [{name.rsplit('/', 1)[-1]}]"
                groups[-1].append(func)
                func = None
        for a, funcs in zip(addrs, groups):
            names[a] = funcs or ["??"]
    return names


def frames(stack, names):
    out = []
    for k, a in enumerate(stack):
        out.extend(names.get(a if k == 0 else a - 1, [f"[{a:#x}]"]))
    return out


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit("usage: sample-symbolize.py SAMPLES [ROWS]")
    rows = int(argv[2]) if len(argv) == 3 else 30
    samples = read_samples(argv[1])
    if not samples:
        sys.exit("no samples recorded")
    ranges, base = read_maps(argv[1] + ".maps")
    names = symbolize(samples, ranges, base)
    incl, self_ = collections.Counter(), collections.Counter()
    for stack in samples:
        fs = frames(stack, names)
        self_[fs[0]] += 1
        incl.update(set(fs))
    total = len(samples)
    for title, table in (("inclusive", incl), ("self", self_)):
        print(f"\n{title} ({total} samples)")
        for fn, n in table.most_common(rows):
            print(f"{100.0 * n / total:6.1f} %  {fn[:150]}")


if __name__ == "__main__":
    main(sys.argv)
