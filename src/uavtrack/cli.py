"""Command line front end.

`uavtrack simulate` runs a campaign from a config file and writes
trace.csv, summary.csv and beside them every figure table (fig5.csv ..
fig9.csv) the campaign supports into the output directory. Exit codes: 0
success, 2 for configuration or validation problems, 3 for file system
problems.
"""

from __future__ import annotations

import argparse
import os
import sys

from .campaign import (
    FIGURES, CampaignResult, emit_figure_tables, run_campaign, write_csv, write_summary_csv,
    write_trace_csv,
)
from .config import FIELD_TYPES, SCHEMES, ConfigError, ScenarioConfig, parse_value

__all__ = ["main", "simulate"]

# simulate's overrides: (option, config field, help); each parses as its field's schema type
_OVERRIDES = (
    ("--trials", "run_trials", "override run.trials"),
    ("--seed", "run_seed", "override run.seed"),
    ("--schemes", "run_schemes", f"comma list, subset of: {', '.join(SCHEMES)}"),
    ("--snr-db", "link_snr_db", "comma list, overrides link.snr_db"),
    ("--phase-bits", "estimator_phase_bits", "comma list, overrides estimator.phase_bits"),
)


def simulate(cfg: ScenarioConfig, out_dir: str) -> tuple[CampaignResult, list[str]]:
    """Run cfg and write its trace, summary and figure tables into out_dir.

    A figure whose axis or schemes the campaign lacks is skipped. Returns
    the campaign result and the paths written: trace.csv, summary.csv,
    then the figure tables in FIGURES order.
    """
    result = run_campaign(cfg)
    summary = result.summary_rows()
    paths = [os.path.join(out_dir, "trace.csv"), os.path.join(out_dir, "summary.csv")]
    write_trace_csv(paths[0], result)
    write_summary_csv(paths[1], summary)
    for figure in FIGURES:
        try:
            header, table = emit_figure_tables(summary, figure)
        except ConfigError:
            continue
        paths.append(os.path.join(out_dir, f"{figure}.csv"))
        write_csv(paths[-1], header, table)
    return result, paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavtrack", description="Link-level UAV beam-tracking simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser(
        "simulate", help="run a Monte Carlo campaign from a config file and write its tables"
    )
    sim.add_argument("--config", default=None, help="path to a scenario config file")
    sim.add_argument("--out", default="runs", help="output directory (default: runs)")
    for option, _, text in _OVERRIDES:
        sim.add_argument(option, default=None, help=text)
    return parser


def _cmd_simulate(args) -> int:
    cfg = ScenarioConfig() if args.config is None else ScenarioConfig.from_file(args.config)
    overrides = {}
    for option, field, _ in _OVERRIDES:
        raw = getattr(args, option[2:].replace("-", "_"))
        if raw is not None:
            try:
                overrides[field] = parse_value(raw, FIELD_TYPES[field])
            except ValueError as e:
                raise ConfigError(f"bad value {option}={raw!r}: {e}") from e
    if overrides:
        cfg = cfg.override(**overrides)
    result, paths = simulate(cfg, args.out)
    print(f"wrote {paths[0]} ({len(result.rows)} rows)", *(f"wrote {p}" for p in paths[1:]), sep="\n")
    return 0


def _report(kind: str, e: Exception) -> None:
    """The error's message, then its notes (such as the trial that raised)."""
    print(f"{kind}: {e}", *getattr(e, "__notes__", ()), sep="\n  ", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _cmd_simulate(args)
    except ConfigError as e:
        _report("error", e)
        return 2
    except OSError as e:
        _report("i/o error", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
