#!/usr/bin/env python3
"""Compare the run fingerprints of two benchmark result files.

    python3 perfbench/compare.py perfbench/out/BENCH_a.json perfbench/out/BENCH_b.json

Runs present in both files must have identical fingerprints (same trace,
final best and, where recorded, best solution). Runs present in only one
file are counted, not compared: a longer run simply did more rounds. Exits 0
when at least one run is shared and none differs, 1 otherwise.
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    first, second = (load(path) for path in argv)
    a, b = first["fingerprints"], second["fingerprints"]
    shared = sorted(a.keys() & b.keys())
    differing = [key for key in shared if a[key] != b[key]]
    for key in differing:
        print(f"differs: {key}  {a[key]} != {b[key]}")
    print(f"shared runs: {len(shared)}, differing: {len(differing)}, "
          f"only in first: {len(a.keys() - b.keys())}, only in second: {len(b.keys() - a.keys())}")
    same = bool(shared) and not differing
    print("fingerprints match" if same else "fingerprints do NOT match")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
