"""Golden-trace guard: a small campaign must replay the checked-in trace.

The campaign, configs/golden.conf, covers every scheme at two SNRs and two
phase-bit settings over a few trials and blocks. Iteration and measurement counts, and every
key column, must match exactly; float columns may move only by the stated
roundoff tolerance, so a change that reorders floating-point arithmetic
in the GP fit (say, a different LAPACK entry point) passes while a change
to the estimator itself fails.

Regenerate the reference only when the estimator is meant to change:

    PYTHONPATH=src python tests/test_golden_trace.py
"""

import csv
import math
from pathlib import Path

from uavtrack.campaign import TRACE_HEADER, run_campaign, write_trace_csv
from uavtrack.config import SCHEMES, ScenarioConfig

GOLDEN = Path(__file__).parent / "data" / "golden_trace.csv"

CFG = ScenarioConfig.from_file(str(Path(__file__).resolve().parents[1] / "configs" / "golden.conf"))

EXACT = ("schema_version", "trial", "block", "scheme", "snr_db", "phase_bits",
         "iterations", "measurements")
FLOATS = tuple(c for c in TRACE_HEADER if c not in EXACT)
# Roundoff allowance on the float columns. Two LAPACK-level changes that
# keep the estimator (solving with the factor in the other memory order;
# the inverse from dpotri instead of dpotrs) moved this trace by at most
# 2.3e-12 relative and 1.0e-10 absolute (est_x, in metres), with every
# count unchanged; the file itself holds 12 significant digits. RTOL
# leaves room for other BLAS kernels; any change to the estimator moves
# the estimates by orders of magnitude more.
RTOL = 1e-9
ATOL = 1e-12


def _read(path):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == TRACE_HEADER
        return list(reader)


def test_golden_trace_replays(tmp_path):
    fresh_path = tmp_path / "trace.csv"
    write_trace_csv(str(fresh_path), run_campaign(CFG))
    golden = _read(GOLDEN)
    fresh = _read(fresh_path)
    assert len(fresh) == len(golden)
    assert {r["scheme"] for r in golden} == set(SCHEMES)
    worst = 0.0
    for i, (g, f) in enumerate(zip(golden, fresh)):
        for col in EXACT:
            assert f[col] == g[col], f"row {i} column {col}: {f[col]} != {g[col]}"
        for col in FLOATS:
            a, b = float(f[col]), float(g[col])
            worst = max(worst, abs(a - b))
            assert math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL), (
                f"row {i} ({g['scheme']}, trial {g['trial']}, block {g['block']}) "
                f"column {col}: {a!r} vs golden {b!r}"
            )
    print(f"golden trace: {len(golden)} rows, largest float deviation {worst:.2e}")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    write_trace_csv(str(GOLDEN), run_campaign(CFG))
    print(f"wrote {GOLDEN}")
