"""Monte Carlo campaign runner with deterministic, paired noise streams.

Every random draw comes from a counter-keyed Philox stream derived from
the master seed and a (trial, purpose[, block]) spawn key, so any trial
is reproducible in isolation and all schemes and sweep points replay the
same trajectory, the same sensor errors, and the same pilot-noise draws
for shared measurement indices. Outputs are flat CSVs written atomically
with a fixed float format, so identical configurations produce byte-
identical files.
"""

from __future__ import annotations

import csv
import itertools
import os
import tempfile
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .beamforming import build_precoder, steer_weights
from .blas import one_blas_thread
from .channel import effective_channel
from .config import ANALOG_SCHEMES, SCHEMES, ConfigError, ScenarioConfig
from .geometry import Position3, SpatialAngles, arrival_angles, departure_angle
from .metrics import normalized_gain, predicted_gain_from_mae, realized_gain, spectral_efficiency
from .mobility import sample_initial, step
from .sensors import derive_velocity, egi_measure, ground_gps_measure
from .tracking import (
    RefineResult,
    baseline_codebook,
    baseline_gps_only,
    baseline_perturbation,
    fuse_position,
    predict_position,
    refine_analog,
    refine_hybrid,
)

__all__ = [
    "SCHEMA_VERSION",
    "TraceRow",
    "CampaignResult",
    "stream",
    "simulate_truth",
    "simulate_readings",
    "run_campaign",
    "write_trace_csv",
    "write_summary_csv",
    "read_summary_csv",
    "write_csv",
    "FIGURES",
    "emit_figure_tables",
]

SCHEMA_VERSION = 1

# purpose tags for the per-trial random streams
_TRAJ, _GPS, _EGI, _PILOT, _MU = 0, 1, 2, 3, 4

SUMMARY_HEADER = [
    "schema_version",
    "scheme",
    "snr_db",
    "phase_bits",
    "block",
    "n",
    "mse_u",
    "mse_v",
    "mse_angle",
    "mae_u",
    "mae_v",
    "mae_angle",
    "rmse_pos_m",
    "mean_gain",
    "mean_norm_gain",
    "mean_se",
    "pred_gain_at_mae",
    "pred_se_at_mae",
    "mean_iterations",
    "mean_measurements",
]
_SUMMARY_INT_COLUMNS = ("schema_version", "phase_bits", "block", "n")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator keyed by the master seed and a stable spawn key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class TraceRow:
    trial: int
    block: int
    scheme: str
    snr_db: float
    phase_bits: int
    true_x: float
    true_y: float
    true_u: float
    true_v: float
    true_ua: float
    est_u: float
    est_v: float
    est_x: float
    est_y: float
    gain: float
    norm_gain: float
    se_bits: float
    iterations: int
    measurements: int


TRACE_HEADER = ["schema_version"] + [f.name for f in fields(TraceRow)]


@dataclass(frozen=True)
class CampaignResult:
    config: ScenarioConfig
    rows: tuple[TraceRow, ...]

    def summary_rows(self) -> list[dict]:
        return summarize(self.rows, self.config)


def simulate_truth(cfg: ScenarioConfig, trial: int):
    """Trajectory states and per-block fading phases for one trial."""
    mob = cfg.mobility()
    rng = stream(cfg.run_seed, trial, _TRAJ)
    states = [sample_initial(mob, rng)]
    for _ in range(cfg.run_blocks - 1):
        states.append(step(states[-1], mob, rng))
    mu_rng = stream(cfg.run_seed, trial, _MU)
    mus = np.exp(2j * np.pi * mu_rng.uniform(0.0, 1.0, size=cfg.run_blocks))
    return states, mus


def simulate_readings(cfg: ScenarioConfig, trial: int, states):
    """Sensor readings on their schedules, shared by all schemes."""
    sched = cfg.schedule()
    noise = cfg.sensors()
    gps_rng = stream(cfg.run_seed, trial, _GPS)
    egi_rng = stream(cfg.run_seed, trial, _EGI)
    gps = {}
    egi = {}
    for k, state in enumerate(states):
        if sched.gps_due(k):
            gps[k] = ground_gps_measure(state, noise, gps_rng)
        if sched.ins_due(k):
            egi[k] = egi_measure(state, noise, egi_rng)
    return gps, egi


def _refine(scheme: str, heff, seed: SpatialAngles, arr, budget, est, pilot_key) -> RefineResult:
    # an if-chain, not a table: bench/layers.py traces each scheme by its name here.
    # Only the pilot schemes build their stream(*pilot_key); gps_only sounds none.
    if scheme == "gps_only":
        return baseline_gps_only(seed)
    rng = stream(*pilot_key)
    if scheme == "hybrid_gpr":
        return refine_hybrid(heff, seed, arr, budget, est, rng)
    if scheme == "analog_gpr":
        return refine_analog(heff, seed, arr, budget, est, rng)
    if scheme == "perturbation":
        return baseline_perturbation(heff, seed, arr, budget, est, rng)
    if scheme == "codebook_max":
        return baseline_codebook(heff, seed, arr, budget, est, rng)
    raise ConfigError(f"unknown scheme {scheme!r}")


def _run_trial(cfg: ScenarioConfig, trial: int, blocks: range) -> list[TraceRow]:
    """Every row of one trial's blocks, in (SNR, phase bits, scheme, block) order.

    The world is built once: the trajectory, the fading and the sensor
    readings, and per block the GPS fix, the velocity differenced from the
    two latest fixes, the precoder from the latest navigation-unit reading,
    the effective channel and the true angles. No scheme can change any of
    these, so each scheme run carries only its own position estimate.

    The truth and sensor streams are sequential, so they are drawn for the
    whole trial, and the velocity and the latest reading advance through
    the blocks before `blocks`; the channel, the precoder and the schemes
    run on `blocks` alone. Its first block must carry a GPS fix, which
    predict_position takes as is: no estimate carries into a span.
    """
    arr = cfg.arrays()
    sched = cfg.schedule()
    gs_pos = Position3(cfg.scenario_gs_x, cfg.scenario_gs_y, cfg.scenario_gs_height)
    delta_h = cfg.scenario_uav_height - cfg.scenario_gs_height

    states, mus = simulate_truth(cfg, trial)
    gps_readings, egi_readings = simulate_readings(cfg, trial, states)
    world = []
    velocity, last_fix, last_egi = (0.0, 0.0), None, None
    for k, state in enumerate(states[: blocks.stop]):
        gps = gps_readings.get(k)
        if gps is not None:
            if last_fix is not None:
                velocity = derive_velocity(last_fix, gps, sched.t_gps)
            last_fix = gps
        last_egi = egi_readings.get(k, last_egi)
        if k < blocks.start:
            continue
        arrival = arrival_angles(state.position, gs_pos)
        g_u = Position3(
            gs_pos.x - state.position.x,
            gs_pos.y - state.position.y,
            gs_pos.h - state.position.h,
        )
        truth = SpatialAngles(arrival.u, arrival.v, departure_angle(g_u, state.heading))
        precoder = build_precoder(last_egi, gs_pos, arr)
        heff = effective_channel(truth, precoder, complex(mus[k]), arr)
        world.append((k, state.position, gps, velocity, truth, heff))

    rows = []
    for snr_db in cfg.link_snr_db:
        budget = cfg.budget(snr_db)
        for phase_bits in cfg.estimator_phase_bits:
            est = cfg.estimator(phase_bits)
            for scheme in cfg.run_schemes:
                quantize_data = phase_bits if scheme in ANALOG_SCHEMES else None
                estimate = None  # the span's first block has a fix
                for k, position, gps, velocity, truth, heff in world:
                    prior = predict_position(estimate, velocity, gps, sched.t_block)
                    seed = arrival_angles(prior, gs_pos)
                    pilot_key = (cfg.run_seed, trial, _PILOT, k)
                    res = _refine(scheme, heff, seed, arr, budget, est, pilot_key)
                    estimate = fuse_position(SpatialAngles(res.u, res.v), gs_pos, delta_h)
                    gain = realized_gain(steer_weights(res.u, res.v, arr, quantize_data), heff)
                    rows.append(
                        TraceRow(
                            trial=trial,
                            block=k,
                            scheme=scheme,
                            snr_db=snr_db,
                            phase_bits=phase_bits,
                            true_x=position.x,
                            true_y=position.y,
                            true_u=truth.u,
                            true_v=truth.v,
                            true_ua=truth.u_a,
                            est_u=res.u,
                            est_v=res.v,
                            est_x=estimate.x,
                            est_y=estimate.y,
                            gain=gain,
                            norm_gain=normalized_gain(gain, arr),
                            se_bits=spectral_efficiency(gain, budget),
                            iterations=res.iterations,
                            measurements=res.measurements,
                        )
                    )
    return rows


def _unit_rows(cfg: ScenarioConfig, trial: int, blocks: range) -> list[TraceRow]:
    """_run_trial, with the trial, the blocks of a split trial and the seed
    noted on what it raises."""
    try:
        return _run_trial(cfg, trial, blocks)
    except Exception as e:
        span = "" if len(blocks) == cfg.run_blocks else f", blocks {blocks.start}-{blocks[-1]},"
        e.add_note(f"in trial {trial}{span} of run.seed {cfg.run_seed}")
        raise


def _cpus() -> int:
    """CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def _worker_count(units: int) -> int:
    """One worker per CPU this process may run on, at most one per unit."""
    return min(_cpus(), units)


def _units(cfg: ScenarioConfig, cpus: int) -> list[tuple[int, range]]:
    """(trial, blocks) units of work, in trial and block order.

    With at least as many trials as CPUs each unit is a whole trial.
    Otherwise each trial splits into spans that start at its GPS-fix
    blocks, which depend on no earlier block of any scheme's chain.
    """
    every = cfg.run_blocks if cfg.run_trials >= cpus else cfg.schedule().gps_every
    return [
        (trial, range(a, min(a + every, cfg.run_blocks)))
        for trial in range(cfg.run_trials)
        for a in range(0, cfg.run_blocks, every)
    ]


def run_campaign(cfg: ScenarioConfig) -> CampaignResult:
    """Run trials x sweep x schemes with paired noise, in a fixed order.

    Units of work run in forked worker processes, one per CPU of the
    affinity mask (`taskset -c 0` gives a serial run). A unit is a whole
    trial, or, when there are fewer trials than CPUs, the blocks from one
    GPS fix to the next: a fix re-anchors every scheme's track, so a span
    needs no estimate from the one before it. Each unit draws only from
    its trial's streams, and pilot streams are keyed by (trial, block), so
    the rows, merged back in (trial, SNR, phase bits, scheme, block) order,
    do not depend on the worker count. BLAS runs on one thread meanwhile
    (see uavtrack.blas).
    """
    units = _units(cfg, _cpus())
    workers = _worker_count(len(units))
    trials, spans = zip(*units)
    with one_blas_thread():
        if workers == 1:
            per_unit = list(map(_unit_rows, itertools.repeat(cfg), trials, spans))
        else:
            # imported here: multiprocessing adds about 8 ms to the start of
            # every interpreter, and one-unit runs never need it
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            # Workers fork, not spawn, inside one_blas_thread(), so they
            # inherit the loaded modules and the one BLAS thread. They must
            # not set it again: OpenBLAS stops its thread pools at fork, a
            # setter call in the child starts them again, and their idle
            # threads spin, which doubled a worker's CPU time. Leaving the
            # block joins every worker, so their CPU time is in
            # RUSAGE_CHILDREN and none of them runs after this returns.
            with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
                per_unit = list(pool.map(_unit_rows, itertools.repeat(cfg), trials, spans))
    # a unit's rows are one run of len(blocks) rows per (SNR, phase bits,
    # scheme) chain; interleave a trial's spans chain by chain
    chains = len(cfg.link_snr_db) * len(cfg.estimator_phase_bits) * len(cfg.run_schemes)
    rows = []
    for _, group in itertools.groupby(zip(spans, per_unit, trials), key=lambda unit: unit[2]):
        parts = [(len(blocks), unit_rows) for blocks, unit_rows, _ in group]
        for c in range(chains):
            for n, unit_rows in parts:
                rows.extend(unit_rows[c * n : (c + 1) * n])
    return CampaignResult(config=cfg, rows=tuple(rows))


# aggregation ---------------------------------------------------------------


def _agg(rows: list[TraceRow], cfg: ScenarioConfig, scheme, snr_db, phase_bits, block) -> dict:
    arr = cfg.arrays()
    budget = cfg.budget(snr_db)
    du = np.array([r.est_u - r.true_u for r in rows])
    dv = np.array([r.est_v - r.true_v for r in rows])
    pos2 = np.array([(r.est_x - r.true_x) ** 2 + (r.est_y - r.true_y) ** 2 for r in rows])
    mae_u = float(np.mean(np.abs(du)))
    mae_v = float(np.mean(np.abs(dv)))
    mae = 0.5 * (mae_u + mae_v)
    out = {
        "schema_version": SCHEMA_VERSION,
        "scheme": scheme,
        "snr_db": snr_db,
        "phase_bits": phase_bits,
        "block": block,
        "n": len(rows),
        "mse_u": float(np.mean(du**2)),
        "mse_v": float(np.mean(dv**2)),
        "mse_angle": float(0.5 * (np.mean(du**2) + np.mean(dv**2))),
        "mae_u": mae_u,
        "mae_v": mae_v,
        "mae_angle": mae,
        "rmse_pos_m": float(np.sqrt(np.mean(pos2))),
        "mean_gain": float(np.mean([r.gain for r in rows])),
        "mean_norm_gain": float(np.mean([r.norm_gain for r in rows])),
        "mean_se": float(np.mean([r.se_bits for r in rows])),
        "mean_iterations": float(np.mean([r.iterations for r in rows])),
        "mean_measurements": float(np.mean([r.measurements for r in rows])),
    }
    try:
        gain = predicted_gain_from_mae(mae, arr)
        out["pred_gain_at_mae"] = gain
        out["pred_se_at_mae"] = spectral_efficiency(gain, budget)
    except ValueError:
        out["pred_gain_at_mae"] = ""
        out["pred_se_at_mae"] = ""
    return out


def summarize(rows, cfg: ScenarioConfig) -> list[dict]:
    """Per-block rows for every group, plus campaign rows under block -1."""
    groups: dict[tuple, list[TraceRow]] = {}
    for r in rows:
        groups.setdefault((r.scheme, r.snr_db, r.phase_bits), []).append(r)
    out = []
    for (scheme, snr_db, phase_bits), grp in groups.items():
        by_block: dict[int, list[TraceRow]] = {}
        for r in grp:
            by_block.setdefault(r.block, []).append(r)
        for block in sorted(by_block):
            out.append(_agg(by_block[block], cfg, scheme, snr_db, phase_bits, block))
        out.append(_agg(grp, cfg, scheme, snr_db, phase_bits, -1))
    return out


# CSV I/O --------------------------------------------------------------------


def _fmt(value):
    """Floats to 12 significant digits; other values as they are."""
    return f"{value:.12g}" if isinstance(value, float) else value


def write_csv(path: str, header: list[str], rows) -> None:
    """Write header and rows to path atomically: a complete file or none."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(path: str, result: CampaignResult) -> None:
    names = TRACE_HEADER[1:]
    rows = ([SCHEMA_VERSION] + [_fmt(getattr(r, name)) for name in names] for r in result.rows)
    write_csv(path, TRACE_HEADER, rows)


def write_summary_csv(path: str, summary_rows: list[dict]) -> None:
    rows = ([_fmt(row[col]) for col in SUMMARY_HEADER] for row in summary_rows)
    write_csv(path, SUMMARY_HEADER, rows)


def read_summary_csv(path: str) -> list[dict]:
    """Summary rows typed by column: the counts as ints, scheme as text, and
    every other column as a float, a blank (no prediction) read as NaN. A
    cell that does not parse is a ConfigError naming its line and column."""
    with open(path, "r", newline="") as f:
        reader = csv.DictReader(f)
        missing = set(SUMMARY_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ConfigError(f"summary file lacks columns: {sorted(missing)}")
        out = []
        for row in reader:
            for col in SUMMARY_HEADER:
                text = row[col]
                try:
                    if col in _SUMMARY_INT_COLUMNS:
                        row[col] = int(text)
                    elif col != "scheme":
                        row[col] = float(text) if text != "" else float("nan")
                except (TypeError, ValueError) as e:
                    raise ConfigError(f"{path}:{reader.line_num}: bad {col} value {text!r}") from e
            out.append(row)
        return out


# figure tables ---------------------------------------------------------------


class _Figure(NamedTuple):
    per_block: bool  # per-block rows, else campaign rows (block -1)
    family: tuple[str, ...] | None  # schemes shown, None for all
    axis: str  # column that needs at least two values
    missing: str  # error when it has fewer
    keys: tuple[str, ...]  # key columns, in sort order
    values: tuple[str, ...]


_BLOCK_KEYS = ("scheme", "snr_db", "phase_bits", "block")
_BLOCKS = "needs per-block rows from a run with blocks >= 2"
_SNR_KEYS = ("scheme", "snr_db", "phase_bits")
_SNR_SWEEP = "needs an snr_db sweep (at least two SNR points)"
_SNR_VALUES = ("mse_angle", "mean_iterations", "mean_se")
FIGURES = {
    "fig5": _Figure(True, None, "block", _BLOCKS, _BLOCK_KEYS, ("rmse_pos_m",)),
    "fig6": _Figure(True, None, "block", _BLOCKS, _BLOCK_KEYS, ("mean_norm_gain", "mean_se")),
    "fig7": _Figure(
        False, tuple(s for s in SCHEMES if s not in ANALOG_SCHEMES), "snr_db", _SNR_SWEEP,
        _SNR_KEYS, _SNR_VALUES,
    ),
    "fig8": _Figure(
        False, None, "phase_bits", "needs a phase_bits sweep (at least two values)",
        ("scheme", "phase_bits", "snr_db"), ("mse_angle",),
    ),
    "fig9": _Figure(False, ANALOG_SCHEMES, "snr_db", _SNR_SWEEP, _SNR_KEYS, _SNR_VALUES),
}


def emit_figure_tables(summary_rows: list[dict], figure: str) -> tuple[list[str], list[list]]:
    """Tidy per-figure table from a summary, cut as FIGURES says; errors
    name the figure and any missing axis."""
    name = figure.lower()
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; expected fig5..fig9")
    fig = FIGURES[name]
    rows = [
        r for r in summary_rows
        if (r["block"] >= 0) == fig.per_block and (fig.family is None or r["scheme"] in fig.family)
    ]
    if fig.family is not None and not rows:
        raise ConfigError(f"{name} needs schemes from {fig.family} in the summary")
    if len({r[fig.axis] for r in rows}) < 2:
        raise ConfigError(f"{name} {fig.missing}")
    rows.sort(key=lambda r: tuple(r[c] for c in fig.keys))
    header = list(fig.keys + fig.values)
    return header, [[_fmt(r[c]) for c in header] for r in rows]
