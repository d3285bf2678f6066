"""Command line front end.

Two subcommands: `simulate` runs a campaign from a config file and writes
trace.csv plus summary.csv into the output directory; `tables` turns a
summary into a per-figure CSV. Options other than tables --out fall back
to UAVTRACK_* environment variables before their built-in defaults. Exit
codes: 0 success, 2 for configuration or validation problems, 3 for file
system problems.
"""

from __future__ import annotations

import argparse
import os
import sys

from .campaign import (
    FIGURES, emit_figure_tables, read_summary_csv, run_campaign, write_csv, write_summary_csv,
    write_trace_csv,
)
from .config import SCHEMES, ConfigError, ScenarioConfig, parse_value

__all__ = ["main"]

ENV_PREFIX = "UAVTRACK"


def _option(flag: str | None, name: str, typ=str):
    """A flag's text, else UAVTRACK_<name>, parsed like a config file value.

    None when neither is set; a malformed value is a ConfigError naming
    where it came from.
    """
    source, raw = f"--{name.lower().replace('_', '-')}", flag
    if raw is None:
        source = f"{ENV_PREFIX}_{name}"
        raw = os.environ.get(source)
    if raw is None:
        return None
    try:
        return parse_value(raw, typ)
    except ValueError as e:
        raise ConfigError(f"bad value {source}={raw!r}: {e}") from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavtrack",
        description="Link-level UAV beam-tracking simulator",
        epilog=(
            "Every option except tables --out can be preset via UAVTRACK_<OPTION>"
            " (e.g. UAVTRACK_SEED)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo campaign from a config file")
    sim.add_argument("--config", default=None, help="path to a scenario config file")
    sim.add_argument("--trials", default=None, help="override run.trials")
    sim.add_argument("--seed", default=None, help="override run.seed")
    sim.add_argument("--out", default=None, help="output directory (default: runs)")
    sim.add_argument(
        "--schemes", default=None, help=f"comma list, subset of: {', '.join(SCHEMES)}"
    )
    sim.add_argument("--snr-db", default=None, help="comma list, overrides link.snr_db")
    sim.add_argument("--phase-bits", default=None, help="comma list, overrides estimator.phase_bits")

    tab = sub.add_parser("tables", help="emit a per-figure CSV from a summary")
    tab.add_argument("--summary", default=None, help="path to a summary.csv")
    tab.add_argument(
        "--figure", default=None, choices=list(FIGURES), help="which figure table to emit"
    )
    tab.add_argument("--out", default=None, help="output CSV path (default: <figure>.csv beside the summary)")
    return parser


def _cmd_simulate(args) -> int:
    config_path = _option(args.config, "CONFIG")
    cfg = ScenarioConfig() if config_path is None else ScenarioConfig.from_file(config_path)
    overrides = {
        field: value
        for field, value in (
            ("run_trials", _option(args.trials, "TRIALS", int)),
            ("run_seed", _option(args.seed, "SEED", int)),
            ("run_schemes", _option(args.schemes, "SCHEMES", tuple[str, ...])),
            ("link_snr_db", _option(args.snr_db, "SNR_DB", tuple[float, ...])),
            ("estimator_phase_bits", _option(args.phase_bits, "PHASE_BITS", tuple[int, ...])),
        )
        if value is not None
    }
    if overrides:
        cfg = cfg.override(**overrides)

    out_dir = _option(args.out, "OUT")
    if out_dir is None:
        out_dir = "runs"
    result = run_campaign(cfg)
    trace_path = os.path.join(out_dir, "trace.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    write_trace_csv(trace_path, result)
    write_summary_csv(summary_path, result.summary_rows())
    print(f"wrote {trace_path} ({len(result.rows)} rows) and {summary_path}")
    return 0


def _cmd_tables(args) -> int:
    summary_path = _option(args.summary, "SUMMARY")
    figure = _option(args.figure, "FIGURE")
    if summary_path is None or figure is None:
        raise ConfigError("tables needs --summary and --figure")
    rows = read_summary_csv(summary_path)
    header, table = emit_figure_tables(rows, figure)
    out_path = args.out if args.out is not None else os.path.join(
        os.path.dirname(os.path.abspath(summary_path)), f"{figure}.csv"
    )
    write_csv(out_path, header, table)
    print(f"wrote {out_path} ({len(table)} rows)")
    return 0


def _report(kind: str, e: Exception) -> None:
    """The error's message, then its notes (such as the trial that raised)."""
    print(f"{kind}: {e}", *getattr(e, "__notes__", ()), sep="\n  ", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_tables(args)
    except ConfigError as e:
        _report("error", e)
        return 2
    except OSError as e:
        _report("i/o error", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
