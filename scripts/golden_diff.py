#!/usr/bin/env python3
"""Structural diff of two merged stats-JSON files (tests/golden/*.json).

Walks both JSON trees in parallel and prints every path whose value
differs. With --allow NAME (repeatable), differences in a statistic
whose leaf name is NAME are tallied instead of reported, and the exit
status is 0 only when nothing else differs.

Used to check that a change which alters only failed-attempt
counters leaves every other number in the goldens untouched:

    python3 scripts/golden_diff.py --allow rejects \\
        --allow subEntryRejects OLD.json NEW.json
"""

import argparse
import json
import sys


def walk(a, b, path, out):
    """Append (path, a, b) for every differing leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            walk(a.get(key), b.get(key), path + [str(key)], out)
    elif isinstance(a, list) and isinstance(b, list) and \
            len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            walk(x, y, path + [str(i)], out)
    elif a != b:
        out.append((path, a, b))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--allow", action="append", default=[],
                    help="statistic name whose values may differ")
    args = ap.parse_args()

    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    diffs = []
    walk(old, new, [], diffs)
    allowed = {}
    bad = []
    for path, a, b in diffs:
        # Stats leaves look like .../stats/<component>/<stat>/value.
        stat = path[-2] if len(path) >= 2 else ""
        if stat in args.allow and path[-1] == "value":
            allowed[stat] = allowed.get(stat, 0) + 1
        else:
            bad.append((path, a, b))

    runs = len(old.get("runs", []))
    print(f"{args.old} -> {args.new}: {runs} runs, "
          f"{len(diffs)} differing values")
    for stat, n in sorted(allowed.items()):
        print(f"  allowed: {n} '{stat}' values")
    for path, a, b in bad[:40]:
        print(f"  DIFF {'/'.join(path)}: {a!r} -> {b!r}")
    if len(bad) > 40:
        print(f"  ... {len(bad) - 40} more")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
