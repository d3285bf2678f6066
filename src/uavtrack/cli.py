"""Command line front end.

Two subcommands: `simulate` runs a campaign from a config file and writes
trace.csv plus summary.csv into the output directory; `tables` turns a
summary into a per-figure CSV. Options fall back to UAVTRACK_* environment
variables before their built-in defaults. Exit codes: 0 success, 2 for
configuration or validation problems, 3 for file system problems.
"""

from __future__ import annotations

import argparse
import os
import sys

from .campaign import (
    emit_figure_tables, read_summary_csv, run_campaign, write_csv, write_summary_csv, write_trace_csv
)
from .config import SCHEMES, ConfigError, ScenarioConfig

__all__ = ["main"]

ENV_PREFIX = "UAVTRACK"


def _env(name: str, cast, fallback):
    raw = os.environ.get(f"{ENV_PREFIX}_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as e:
        raise ConfigError(f"bad environment override {ENV_PREFIX}_{name}={raw!r}: {e}") from e


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavtrack",
        description="Link-level UAV beam-tracking simulator",
        epilog="Every option can be preset via UAVTRACK_<OPTION> (e.g. UAVTRACK_SEED).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo campaign from a config file")
    sim.add_argument("--config", default=None, help="path to a scenario config file")
    sim.add_argument("--trials", type=int, default=None, help="override run.trials")
    sim.add_argument("--seed", type=int, default=None, help="override run.seed")
    sim.add_argument("--out", default=None, help="output directory (default: runs)")
    sim.add_argument(
        "--schemes", type=_str_list, default=None,
        help=f"comma list, subset of: {', '.join(SCHEMES)}",
    )
    sim.add_argument("--snr-db", type=_float_list, default=None, help="comma list, overrides link.snr_db")
    sim.add_argument(
        "--phase-bits", type=_int_list, default=None, help="comma list, overrides estimator.phase_bits"
    )

    tab = sub.add_parser("tables", help="emit a per-figure CSV from a summary")
    tab.add_argument("--summary", default=None, help="path to a summary.csv")
    tab.add_argument(
        "--figure", default=None, choices=["fig5", "fig6", "fig7", "fig8", "fig9"],
        help="which figure table to emit",
    )
    tab.add_argument("--out", default=None, help="output CSV path (default: <figure>.csv beside the summary)")
    return parser


def _cmd_simulate(args) -> int:
    config_path = args.config if args.config is not None else _env("CONFIG", str, None)
    if config_path is None:
        cfg = ScenarioConfig()
    else:
        cfg = ScenarioConfig.from_file(config_path)
    overrides = {}
    trials = args.trials if args.trials is not None else _env("TRIALS", int, None)
    seed = args.seed if args.seed is not None else _env("SEED", int, None)
    schemes = args.schemes if args.schemes is not None else _env("SCHEMES", _str_list, None)
    snr = args.snr_db if args.snr_db is not None else _env("SNR_DB", _float_list, None)
    bits = args.phase_bits if args.phase_bits is not None else _env("PHASE_BITS", _int_list, None)
    if trials is not None:
        overrides["run_trials"] = trials
    if seed is not None:
        overrides["run_seed"] = seed
    if schemes is not None:
        overrides["run_schemes"] = schemes
    if snr is not None:
        overrides["link_snr_db"] = snr
    if bits is not None:
        overrides["estimator_phase_bits"] = bits
    if overrides:
        cfg = cfg.override(**overrides)

    out_dir = args.out if args.out is not None else _env("OUT", str, "runs")
    result = run_campaign(cfg)
    trace_path = os.path.join(out_dir, "trace.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    write_trace_csv(trace_path, result)
    write_summary_csv(summary_path, result.summary_rows())
    print(f"wrote {trace_path} ({len(result.rows)} rows) and {summary_path}")
    return 0


def _cmd_tables(args) -> int:
    summary_path = args.summary if args.summary is not None else _env("SUMMARY", str, None)
    figure = args.figure if args.figure is not None else _env("FIGURE", str, None)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_tables(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
