#!/usr/bin/env python3
"""Run the equivalence campaigns and print one sha256 line per output file.

    python3 scripts/reference_runs.py OUT_DIR

Each campaign writes trace.csv and summary.csv under OUT_DIR/<campaign>/:

  golden             the golden-trace config of tests/test_golden_trace.py
  criterion7         acceptance criterion 7's campaign at 40 trials
  criterion7_single  the same campaign at 1 trial, which run_campaign splits
                     at its GPS fixes on a machine with 2 or more CPUs
  estimation_sweep   configs/estimation_sweep.conf at 30 trials
  phase_bits         analog_gpr and codebook_max at 4-8 phase bits and
                     10 and 20 dB, 12 trials of the estimation sweep

The CSVs hold 12 significant digits, which hide the last bits of a float,
so each campaign also gets one line ending in rows.float64: the sha256 of
the float fields of its trace rows as float64 bits, taken in memory. Equal
lines mean bitwise equal rows. To check that a change keeps the
arithmetic, run this script on both checkouts (PYTHONPATH set to each
one's src) and diff the two printouts; scripts/compare_traces.py tells
roundoff from a changed estimate on any file that differs.
"""

import argparse
import hashlib
import operator
import os
from dataclasses import fields

import numpy as np

from uavtrack.campaign import TraceRow, run_campaign, write_summary_csv, write_trace_csv
from uavtrack.config import SCHEMES, ScenarioConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the degraded sensors of criterion 7 and of the golden trace
_DEGRADED = dict(sensors_sigma_gps_m=5.0, sensors_sigma_ins_m=5.0, sensors_sigma_heading_deg=0.05)


def campaigns() -> dict[str, ScenarioConfig]:
    """Campaign name to config, in run order."""
    sweep = ScenarioConfig.from_file(os.path.join(ROOT, "configs", "estimation_sweep.conf"))
    criterion7 = ScenarioConfig(
        run_trials=40, run_blocks=20, run_schemes=("hybrid_gpr", "gps_only"),
        link_snr_db=(10.0,), **_DEGRADED,
    )
    return {
        "golden": ScenarioConfig(
            run_trials=2, run_blocks=4, run_seed=2024, run_schemes=SCHEMES,
            link_snr_db=(10.0, 30.0), estimator_phase_bits=(5, 6), **_DEGRADED,
        ),
        "criterion7": criterion7,
        "criterion7_single": criterion7.override(run_trials=1),
        "estimation_sweep": sweep.override(run_trials=30),
        "phase_bits": sweep.override(
            run_trials=12, run_schemes=("analog_gpr", "codebook_max"),
            link_snr_db=(10.0, 20.0), estimator_phase_bits=(4, 5, 6, 7, 8),
        ),
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def float_digest(rows) -> str:
    """sha256 of the float fields of rows as float64 bits, row by row."""
    values = operator.attrgetter(*[f.name for f in fields(TraceRow) if f.type == "float"])
    floats = np.array(list(map(values, rows)), dtype=np.float64)
    return hashlib.sha256(floats.tobytes()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory for the campaigns' CSVs")
    out_dir = parser.parse_args().out_dir
    for name, cfg in campaigns().items():
        result = run_campaign(cfg)
        trace = os.path.join(out_dir, name, "trace.csv")
        summary = os.path.join(out_dir, name, "summary.csv")
        write_trace_csv(trace, result)
        write_summary_csv(summary, result.summary_rows())
        for path in (trace, summary):
            print(f"{_sha256(path)}  {os.path.relpath(path, out_dir)}", flush=True)
        print(f"{float_digest(result.rows)}  {name}/rows.float64", flush=True)


if __name__ == "__main__":
    main()
