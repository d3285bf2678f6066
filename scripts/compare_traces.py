#!/usr/bin/env python3
"""Compare two campaign CSVs (trace.csv, summary.csv or a figure table) row by row.

    python3 scripts/compare_traces.py OLD NEW
    python3 scripts/compare_traces.py OLD_DIR NEW_DIR
    python3 scripts/compare_traces.py --paired MARGIN OLD_TRACE NEW_TRACE

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
script compares every */trace.csv, */summary.csv and */fig*.csv (the
figure tables) in them and prints one block per file, headed by its
relative path. A file on one side only counts as a difference (1), an
unreadable one as 2, and the exit status is the worst of all files. Two
directories without any such file exit 2.

--paired judges a change that moves the estimator on purpose. It reads
two trace.csv files of one campaign, run by two trees at the same seed,
so the rows pair on (trial, block, scheme, snr_db, phase_bits): truth,
sensors and pilot noise are the same on both sides. Rows whose keys
differ, or a row count that does, exit 1. For each (scheme, snr_db,
phase_bits) group it prints the paired mean difference new - old of the
squared angle error 0.5 * (du^2 + dv^2) and of norm_gain, each with a 95 %
percentile-bootstrap interval (RESAMPLES resamples from a generator seeded
with BOOTSTRAP_SEED, so the verdict repeats), stated relative to the old
group mean; then the mean change in iterations and in measurements. The
change passes when every interval lies within +-MARGIN (0.10 is +-10 %).
Per group this is Schuirmann's (1987) two one-sided tests of equivalence,
each at alpha = 0.025 because the interval is two-sided 95 %; there is no
correction across groups, so the error rate holds per group, not for the
campaign. The last line is `paired gate: pass` (exit 0) or `paired gate:
fail` (exit 1). A bad margin, a missing column or a field that is not a
number exits 2.
"""

import csv
import glob
import math
import os
import sys

import numpy as np

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
        for name in ("trace.csv", "summary.csv", "fig*.csv")
        for path in glob.glob(os.path.join(glob.escape(root), "*", name))
    }


def compare_dirs(old_dir: str, new_dir: str, out=sys.stdout) -> int:
    """Compare every campaign CSV of two directories; the worst status wins."""
    old, new = _campaign_csvs(old_dir), _campaign_csvs(new_dir)
    if not old | new:
        raise InputError(
            f"no */trace.csv, */summary.csv or */fig*.csv under {old_dir} or {new_dir}"
        )
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


PAIR_KEY = ("trial", "block", "scheme", "snr_db", "phase_bits")
RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def _paired_columns(path):
    """Row keys, and per row [0.5 (du^2 + dv^2), norm_gain, iterations, measurements]."""
    header, rows = _read(path)
    col = {name: i for i, name in enumerate(header)}
    missing = [n for n in PAIR_KEY + ANGLES + ("norm_gain",) + COUNTS if n not in col]
    if missing:
        raise InputError(f"{path} has no column {', '.join(missing)}")
    try:
        keys = [tuple(r[col[n]] for n in PAIR_KEY) for r in rows]
        eu, tu, ev, tv, gain, its, meas = (
            np.array([float(r[col[n]]) for r in rows]) for n in ANGLES + ("norm_gain",) + COUNTS
        )
    except (ValueError, IndexError) as e:
        raise InputError(f"{path}: {e}") from e
    err2 = 0.5 * ((eu - tu) ** 2 + (ev - tv) ** 2)
    return keys, np.column_stack([err2, gain, its, meas])


def bootstrap_interval(d: np.ndarray, rng) -> np.ndarray:
    """95 % percentile-bootstrap intervals of the column means of d, shape (2, columns)."""
    n, chunk = len(d), 100  # resamples per draw, to bound the index array
    means = np.concatenate(
        [d[rng.integers(0, n, (chunk, n))].mean(axis=1) for _ in range(RESAMPLES // chunk)]
    )
    return np.percentile(means, [2.5, 97.5], axis=0)


def _relative(bound: float, base: float) -> float:
    if base != 0.0:
        return bound / abs(base)
    return 0.0 if bound == 0.0 else math.copysign(math.inf, bound)


def compare_paired(margin: float, old_path: str, new_path: str, out=sys.stdout) -> int:
    old_keys, old = _paired_columns(old_path)
    new_keys, new = _paired_columns(new_path)
    if len(old_keys) != len(new_keys):
        print(f"row counts differ: {len(old_keys)} against {len(new_keys)}", file=out)
        return 1
    for row, (a, b) in enumerate(zip(old_keys, new_keys), start=1):
        if a != b:
            print(f"row {row}: key {PAIR_KEY} differs: {a} against {b}", file=out)
            return 1
    groups = {}  # (scheme, snr_db, phase_bits): row indices
    for i, key in enumerate(old_keys):
        groups.setdefault(key[2:], []).append(i)
    print(f"paired: {len(old_keys)} rows, margin +-{margin:.0%}; per group the old mean, the "
          f"mean change and its 95 % interval ({RESAMPLES} resamples), relative to the old "
          "mean, then the mean change in counts", file=out)
    passed = True
    for group, idx in groups.items():
        diff = new[idx] - old[idx]
        lo_hi = bootstrap_interval(diff[:, :2], np.random.default_rng(BOOTSTRAP_SEED))
        parts = []
        for j, name in enumerate(("err2", "norm_gain")):
            base = float(old[idx, j].mean())
            lo, hi = (_relative(float(b), base) for b in lo_hi[:, j])
            passed &= -margin <= lo and hi <= margin
            change = _relative(float(diff[:, j].mean()), base)
            parts.append(f"{name} {base:.4g} {change:+.2%} [{lo:+.2%}, {hi:+.2%}]")
        counts = diff[:, 2:].mean(axis=0)
        parts.append(f"iterations {counts[0]:+.3f}, measurements {counts[1]:+.3f}")
        scheme, snr_db, bits = group
        print(f"  {scheme} {snr_db} dB {bits} bits, {len(idx)} pairs: " + "; ".join(parts),
              file=out)
    print(f"paired gate: {'pass' if passed else 'fail'}", file=out)
    return 0 if passed else 1


def _main(args) -> int:
    if len(args) == 4 and args[0] == "--paired":
        try:
            margin = float(args[1])
        except ValueError:
            margin = math.nan
        if not 0.0 < margin < math.inf:
            raise InputError(f"MARGIN must be a positive number, got {args[1]!r}")
        return compare_paired(margin, args[2], args[3])
    if len(args) != 2 or args[0].startswith("--"):
        raise InputError("usage: compare_traces.py OLD NEW | --paired MARGIN OLD_TRACE NEW_TRACE")
    both_dirs = all(map(os.path.isdir, args))
    return (compare_dirs if both_dirs else compare)(*args)


if __name__ == "__main__":
    try:
        sys.exit(_main(sys.argv[1:]))
    except InputError as e:
        print(f"compare_traces.py: {e}", file=sys.stderr)
        sys.exit(2)
