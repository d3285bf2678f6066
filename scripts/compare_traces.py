#!/usr/bin/env python3
"""Compare two campaign CSVs (trace.csv or summary.csv) row by row.

    python3 scripts/compare_traces.py OLD NEW

Key columns (the sweep and row coordinates), `iterations` and
`measurements` must match exactly, and so must the header and the row
count; any difference prints the first offending row and exits 1. Every
other column is compared as a number (a text field, such as a blank
summary prediction, must match exactly): the script prints how many rows
are byte-identical and the largest relative deviation, |old - new| /
max(|old|, |new|), with the column and row where it occurs. A roundoff-only
change exits 0 and reports that deviation. Wrong usage exits 2.
"""

import csv
import math
import sys

# key columns, then counts
EXACT = ("schema_version", "trial", "block", "scheme", "snr_db", "phase_bits",
         "iterations", "measurements")


def _read(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _rel(a: str, b: str) -> float | None:
    """Relative deviation of two numeric fields; None unless both are numbers."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def compare(old_path: str, new_path: str, out=sys.stdout) -> int:
    old_header, old = _read(old_path)
    new_header, new = _read(new_path)
    if old_header != new_header:
        print(f"headers differ:\n  {old_header}\n  {new_header}", file=out)
        return 1
    if len(old) != len(new):
        print(f"row counts differ: {len(old)} against {len(new)}", file=out)
        return 1
    identical = 0
    worst, worst_at = 0.0, None
    for row, (a, b) in enumerate(zip(old, new), start=1):
        if a == b:
            identical += 1
            continue
        for name, x, y in zip(old_header, a, b):
            dev = None if name in EXACT else _rel(x, y)
            if dev is None and x != y:
                print(f"row {row}: {name} differs: {x!r} against {y!r}", file=out)
                return 1
            if dev is not None and dev > worst:
                worst, worst_at = dev, (name, row)
    print(f"{len(old)} rows, {identical} byte-identical", file=out)
    if worst_at is None:
        print("largest relative deviation: 0", file=out)
    else:
        print(f"largest relative deviation: {worst:.2g} in {worst_at[0]} at row {worst_at[1]}", file=out)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print("usage: compare_traces.py OLD NEW", file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
