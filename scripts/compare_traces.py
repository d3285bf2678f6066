#!/usr/bin/env python3
"""Compare two campaign CSVs (trace.csv or summary.csv) row by row.

    python3 scripts/compare_traces.py OLD NEW
    python3 scripts/compare_traces.py OLD_DIR NEW_DIR

Key columns (the sweep and row coordinates), `iterations` and
`measurements` must match exactly, and so must the header and the row
count; any difference prints the first offending row and exits 1. When
the difference is in `iterations` or `measurements`, both files'
per-scheme summary comes first: rows, mean 0.5 * (du^2 + dv^2) of the
estimated against the true angles, mean iterations and mean
measurements. Every other column is compared as a number (a text field,
such as a blank summary prediction, must match exactly): the script
prints how many rows are byte-identical and the largest relative
deviation, |old - new| / max(|old|, |new|), with the column and row where
it occurs. A roundoff-only change exits 0 and reports that deviation.
Wrong usage, or a file that is missing, unreadable or without a header,
exits 2 with a one-line message.

Given two directories, as scripts/reference_runs.py writes them, the
script compares every */trace.csv and */summary.csv in them and prints
one block per file, headed by its relative path. A file on one side only
counts as a difference (1), an unreadable one as 2, and the exit status
is the worst of all files. Two directories without any such file exit 2.
"""

import csv
import glob
import math
import os
import sys

# key columns, then counts
EXACT = ("schema_version", "trial", "block", "scheme", "snr_db", "phase_bits",
         "iterations", "measurements")


class InputError(Exception):
    """An input file that cannot be compared at all."""


def _read(path):
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise InputError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from e
    if not rows or not rows[0]:
        raise InputError(f"{path} has no header")
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


COUNTS = ("iterations", "measurements")
ANGLES = ("est_u", "true_u", "est_v", "true_v")


def _per_scheme(header, rows):
    """{scheme: [rows, sum 0.5 (du^2 + dv^2), sum iterations, sum measurements]}"""
    col = {name: i for i, name in enumerate(header)}
    eu, tu, ev, tv = (col[name] for name in ANGLES)
    it, ms = (col[name] for name in COUNTS)
    sums = {}
    for r in rows:
        s = sums.setdefault(r[col["scheme"]], [0, 0.0, 0, 0])
        du, dv = float(r[eu]) - float(r[tu]), float(r[ev]) - float(r[tv])
        s[0] += 1
        s[1] += 0.5 * (du * du + dv * dv)
        s[2] += int(r[it])
        s[3] += int(r[ms])
    return sums


def _report_schemes(header, old, new, out) -> None:
    if not set(ANGLES + COUNTS + ("scheme",)) <= set(header):
        return
    print("per scheme: rows, mean 0.5*(du^2 + dv^2), mean iterations, mean measurements", file=out)
    for label, rows in (("old", old), ("new", new)):
        for scheme, (n, err2, its, meas) in _per_scheme(header, rows).items():
            means = f"{err2 / n:.4g}, {its / n:.3f}, {meas / n:.3f}"
            print(f"  {label} {scheme}: {n}, {means}", file=out)


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
                if name in COUNTS:
                    _report_schemes(old_header, old, new, out)
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


def _campaign_csvs(root: str) -> set[str]:
    return {
        os.path.relpath(path, root)
        for name in ("trace.csv", "summary.csv")
        for path in glob.glob(os.path.join(glob.escape(root), "*", name))
    }


def compare_dirs(old_dir: str, new_dir: str, out=sys.stdout) -> int:
    """Compare every campaign CSV of two directories; the worst status wins."""
    old, new = _campaign_csvs(old_dir), _campaign_csvs(new_dir)
    if not old | new:
        raise InputError(f"no */trace.csv or */summary.csv under {old_dir} or {new_dir}")
    worst = 0
    for rel in sorted(old | new):
        print(f"== {rel}", file=out)
        if rel not in new or rel not in old:
            print(f"only in {old_dir if rel in old else new_dir}", file=out)
            worst = max(worst, 1)
            continue
        try:
            status = compare(os.path.join(old_dir, rel), os.path.join(new_dir, rel), out)
        except InputError as e:
            print(e, file=out)
            status = 2
        worst = max(worst, status)
    return worst


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print("usage: compare_traces.py OLD NEW", file=sys.stderr)
        sys.exit(2)
    both_dirs = all(map(os.path.isdir, sys.argv[1:]))
    try:
        sys.exit((compare_dirs if both_dirs else compare)(sys.argv[1], sys.argv[2]))
    except InputError as e:
        print(f"compare_traces.py: {e}", file=sys.stderr)
        sys.exit(2)
