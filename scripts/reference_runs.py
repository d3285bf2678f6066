#!/usr/bin/env python3
"""Run the equivalence campaigns and print one sha256 line per output file.

    python3 scripts/reference_runs.py OUT_DIR

Each campaign loads its file from configs/, sets its trial count, and
writes trace.csv and summary.csv under OUT_DIR/<campaign>/ and beside them
every figure table (fig5.csv .. fig9.csv) the summary supports, through
scripts/figures.py's write_campaign:

  golden             configs/golden.conf, the golden-trace test's campaign,
                     at the file's own trial count
  criterion7         configs/criterion7.conf, acceptance criterion 7's
                     campaign, at 40 trials
  criterion7_single  the same at 1 trial, which run_campaign splits at its
                     GPS fixes on a machine with 2 or more CPUs
  estimation_sweep   configs/estimation_sweep.conf at 30 trials
  phase_bits         configs/phase_bits.conf (analog_gpr and codebook_max
                     at 4-8 phase bits and 10 and 20 dB) at 12 trials
  gps_outage         configs/gps_outage.conf at 4 trials: 100 blocks and
                     one GPS fix, so hybrid_gpr refits 99 blocks in a row

The CSVs hold 12 significant digits, which hide the last bits of a float,
so each campaign also gets one line ending in rows.float64: the sha256 of
the float fields of its trace rows as float64 bits, taken in memory. Equal
lines mean bitwise equal rows. The six campaigns print 33 lines: 18 for
traces, summaries and rows, and 15 figure tables (golden 5, the others 2
each). To check that a change keeps the arithmetic and the bytes, run this
script on both checkouts (PYTHONPATH set to each one's src) and diff the
two printouts; scripts/compare_traces.py tells roundoff from a changed
estimate on any file that differs.
"""

import argparse
import hashlib
import operator
import os
import sys
from dataclasses import fields

import numpy as np

from uavtrack.campaign import TraceRow
from uavtrack.config import ScenarioConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))  # also when this file is loaded by its path
from figures import load_config, write_campaign  # noqa: E402

# campaign: (config file in configs/, trials or None for the file's), in run order
_CAMPAIGNS = {
    "golden": ("golden.conf", None),
    "criterion7": ("criterion7.conf", 40),
    "criterion7_single": ("criterion7.conf", 1),
    "estimation_sweep": ("estimation_sweep.conf", 30),
    "phase_bits": ("phase_bits.conf", 12),
    "gps_outage": ("gps_outage.conf", 4),
}


def campaigns() -> dict[str, ScenarioConfig]:
    """Campaign name to config, in run order."""
    return {
        name: load_config(os.path.join(ROOT, "configs", conf), trials)
        for name, (conf, trials) in _CAMPAIGNS.items()
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
        result, (trace, summary, *tables) = write_campaign(cfg, os.path.join(out_dir, name))
        for path in (trace, summary):
            print(f"{_sha256(path)}  {os.path.relpath(path, out_dir)}", flush=True)
        print(f"{float_digest(result.rows)}  {name}/rows.float64", flush=True)
        for path in tables:
            print(f"{_sha256(path)}  {os.path.relpath(path, out_dir)}", flush=True)


if __name__ == "__main__":
    main()
