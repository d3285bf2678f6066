#!/usr/bin/env python3
"""Run campaigns from config files and write every figure table they support.

    python3 scripts/figures.py [--trials N] OUT_DIR CONFIG...

Each config runs as written (--trials overrides its run.trials) and writes
trace.csv and summary.csv under OUT_DIR/<config stem>/. The summary is read
back and every figure table it supports (fig5.csv .. fig9.csv) is written
beside it, as `uavtrack tables` would. All five of the paper's tables:

    python3 scripts/figures.py runs configs/tracking_nominal.conf \\
        configs/estimation_sweep.conf configs/phase_bits.conf

writes fig5 and fig6 under runs/tracking_nominal/, fig7 and fig9 under
runs/estimation_sweep/, and fig8 and fig9 under runs/phase_bits/. The
configs are read as files only: no UAVTRACK_* environment variable applies.
"""

import argparse
import os

from uavtrack.campaign import (
    FIGURES, emit_figure_tables, read_summary_csv, run_campaign, write_csv,
    write_summary_csv, write_trace_csv,
)
from uavtrack.config import ConfigError, ScenarioConfig


def load_config(path: str, trials: int | None = None) -> ScenarioConfig:
    """The config file at path, with run.trials set to trials unless that is None."""
    cfg = ScenarioConfig.from_file(path)
    return cfg if trials is None else cfg.override(run_trials=trials)


def write_figure_tables(summary: str) -> list[str]:
    """Write beside summary each figure table it supports; their paths, in FIGURES order."""
    rows = read_summary_csv(summary)
    paths = []
    for figure in FIGURES:
        try:
            header, table = emit_figure_tables(rows, figure)
        except ConfigError:  # the campaign lacks the figure's axis or schemes
            continue
        paths.append(os.path.join(os.path.dirname(summary), f"{figure}.csv"))
        write_csv(paths[-1], header, table)
    return paths


def write_campaign(cfg: ScenarioConfig, run_dir: str):
    """Run cfg and write its trace, summary and figure tables into run_dir.

    Returns the campaign result and the paths written: trace.csv,
    summary.csv, then the figure tables in FIGURES order.
    """
    result = run_campaign(cfg)
    trace = os.path.join(run_dir, "trace.csv")
    summary = os.path.join(run_dir, "summary.csv")
    write_trace_csv(trace, result)
    write_summary_csv(summary, result.summary_rows())
    return result, [trace, summary, *write_figure_tables(summary)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, help="override each config's run.trials")
    parser.add_argument("out_dir", metavar="OUT_DIR", help="one subdirectory per config goes here")
    parser.add_argument("configs", nargs="+", metavar="CONFIG", help="scenario config file")
    args = parser.parse_args()
    try:
        runs = [(path, load_config(path, args.trials)) for path in args.configs]
    except (ConfigError, OSError) as e:
        parser.error(str(e))
    for path, cfg in runs:
        run_dir = os.path.join(args.out_dir, os.path.splitext(os.path.basename(path))[0])
        for written in write_campaign(cfg, run_dir)[1]:
            print(f"wrote {written}", flush=True)


if __name__ == "__main__":
    main()
