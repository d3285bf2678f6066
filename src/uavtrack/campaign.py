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

import itertools
import operator
import os
import pickle
import select
import signal
from dataclasses import dataclass, fields
from typing import NamedTuple, NoReturn

import numpy as np
# loaded here, though only workers draw: a module a forked worker imports
# is imported again by every worker of every campaign
from numpy.random import Generator, Philox, SeedSequence

from .beamforming import build_precoder, steer_weights
from .blas import one_blas_thread
from .channel import effective_channel
from .config import ANALOG_SCHEMES, SCHEMES, ConfigError, ScenarioConfig
from .geometry import Position3, SpatialAngles, arrival_angles, departure_angle
from .metrics import (
    beam_gain,
    main_lobe_limit,
    normalized_gain,
    realized_gain,
    spectral_efficiency,
)
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


def stream(seed: int, *key: int) -> Generator:
    """Philox generator keyed by the master seed and a stable spawn key."""
    return Generator(Philox(SeedSequence(seed, spawn_key=key)))


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
    """What the sensors have reported by each block, shared by all schemes:
    (GPS fix or None, velocity, latest navigation-unit reading) per block.

    The velocity is differenced from the two latest fixes, (0, 0) before
    the second fix.
    """
    sched = cfg.schedule()
    noise = cfg.sensors()
    gps_rng = stream(cfg.run_seed, trial, _GPS)
    egi_rng = stream(cfg.run_seed, trial, _EGI)
    timeline = []
    last_fix, velocity, egi = None, (0.0, 0.0), None
    for k, state in enumerate(states):
        fix = ground_gps_measure(state, noise, gps_rng) if sched.gps_due(k) else None
        if fix is not None:
            if last_fix is not None:
                velocity = derive_velocity(last_fix, fix, sched.t_gps)
            last_fix = fix
        if sched.ins_due(k):
            egi = egi_measure(state, noise, egi_rng)
        timeline.append((fix, velocity, egi))
    return timeline


def _refine(
    scheme: str, heff, seed: SpatialAngles, arr, budget, est, pilot_key, *, grids
) -> RefineResult:
    if scheme == "gps_only":  # sounds no pilots, so builds no stream(*pilot_key)
        return baseline_gps_only(seed)
    # built from this module's names at each call, so a wrapper put in their
    # place (bench/layers.py's tracer, a test's monkeypatch) is the one called
    pilot = {"hybrid_gpr": refine_hybrid, "analog_gpr": refine_analog,
             "perturbation": baseline_perturbation, "codebook_max": baseline_codebook}
    return pilot[scheme](heff, seed, arr, budget, est, stream(*pilot_key), grids=grids)


def _run_trial(cfg: ScenarioConfig, trial: int, blocks: range) -> list[list[TraceRow]]:
    """One trial's rows over `blocks`: a list per (SNR, phase bits, scheme)
    chain, in that order, each in block order.

    The truth and sensor streams are sequential, so they are drawn for the
    whole trial; the rest runs on `blocks` alone, one block at a time. A
    block's world (the precoder from the latest navigation-unit reading,
    the effective channel and the true angles) is built once, and no
    scheme can change it, so each chain carries only its own position
    estimate. The chains of a block share one table of seeded grids (see
    tracking._grid), which goes with the block. The first block must carry
    a GPS fix, which predict_position takes as is: no estimate carries into
    a span.
    """
    arr = cfg.arrays()
    gs_pos = Position3(0.0, 0.0, cfg.scenario_gs_height)
    delta_h = cfg.scenario_uav_height - cfg.scenario_gs_height
    # snr_db, budget, phase_bits, estimator, scheme and the data beam's quantization
    chains = [
        (snr_db, cfg.budget(snr_db), phase_bits, cfg.estimator(phase_bits), scheme,
         phase_bits if scheme in ANALOG_SCHEMES else None)
        for snr_db in cfg.link_snr_db
        for phase_bits in cfg.estimator_phase_bits
        for scheme in cfg.run_schemes
    ]
    estimates = [None] * len(chains)  # the span's first block has a fix
    rows = [[] for _ in chains]

    states, mus = simulate_truth(cfg, trial)
    timeline = simulate_readings(cfg, trial, states)
    for k in blocks:
        position, heading = states[k].position, states[k].heading
        gps, velocity, egi = timeline[k]
        arrival = arrival_angles(position, gs_pos)
        truth = SpatialAngles(arrival.u, arrival.v, departure_angle(position, gs_pos, heading))
        heff = effective_channel(truth, build_precoder(egi, gs_pos, arr), complex(mus[k]), arr)
        pilot_key = (cfg.run_seed, trial, _PILOT, k)
        grids = {}
        for c, (snr_db, budget, phase_bits, est, scheme, quantize_data) in enumerate(chains):
            prior = predict_position(estimates[c], velocity, gps, cfg.schedule_t_block)
            seed = arrival_angles(prior, gs_pos)
            try:
                res = _refine(scheme, heff, seed, arr, budget, est, pilot_key, grids=grids)
            except Exception as e:
                e.add_note(
                    f"in scheme {scheme}, snr_db {snr_db}, phase_bits {phase_bits}, block {k}"
                )
                raise
            estimate = estimates[c] = fuse_position(SpatialAngles(res.u, res.v), gs_pos, delta_h)
            gain = realized_gain(steer_weights(res.u, res.v, arr, quantize_data), heff)
            rows[c].append(
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
    noted on what it raises, after _run_trial's note of the failing chain."""
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
    split, sched = cfg.run_trials < cpus, cfg.schedule()
    starts = [k for k in range(cfg.run_blocks) if k == 0 or (split and sched.gps_due(k))]
    return [
        (trial, range(a, b))
        for trial in range(cfg.run_trials)
        for a, b in itertools.pairwise(starts + [cfg.run_blocks])
    ]


class _WorkerTraceback(Exception):
    """A worker's formatted traceback, set as the cause of what it raised."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _work(w: int, ends, cfg: ScenarioConfig, units, first: int, step: int) -> NoReturn:
    """A forked worker: runs units first, first + step, ... and exits.

    Sends one pickled message to the pipe end w: the rows of every unit,
    or the index, exception and traceback of the first unit that raised.
    It never returns into the caller's stack.
    """
    try:
        for fd in ends:  # the parent's read ends, this worker's own among them
            os.close(fd)
        out = []
        for i in range(first, len(units), step):
            try:
                out.append(_unit_rows(cfg, *units[i]))
            except Exception as e:
                import traceback  # loaded by a failing worker only: 3 ms of every start-up

                out = (i, e, traceback.format_exc())
                break
        with open(w, "wb") as f:
            pickle.dump(out, f)
        os._exit(0)
    except Exception:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(1)  # nothing sent: the parent names this worker's units


def _lost_worker(j: int, status: int, share) -> str:
    """The error for worker j, which ended without reporting: how it ended, and its units."""
    code = os.waitstatus_to_exitcode(status)
    how = f"signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exit status {code}"
    names = ", ".join(f"trial {t} blocks {b.start}-{b[-1]}" for t, b in share)
    return f"campaign worker {j} ended by {how} before reporting its units: {names}"


def _fork_join(cfg: ScenarioConfig, units, workers: int) -> list:
    """Every unit's rows, in unit order, from `workers` forked children.

    Child j runs units j, j + workers, ... (see _work). The parent reads
    every pipe as data comes, and reaps every child before it returns or
    raises, killing first any child still running. A child that ends
    without a whole message is an error at once. Of the units that raised,
    the lowest one's exception is raised, with its worker's traceback as
    the cause.
    """
    pids, ends = [], []  # worker j's pid (0 once reaped) and its pipe's read end
    try:
        for j in range(workers):
            r, w = os.pipe()
            ends.append(r)
            try:
                pids.append(os.fork())  # one statement: the outer finally reaps every child
                if pids[j] == 0:
                    _work(w, ends, cfg, units, j, workers)  # exits
            finally:  # in the parent, whether the fork succeeded or raised
                os.close(w)
        poller = select.poll()
        for r in ends:
            poller.register(r)
        chunks = [[] for _ in ends]
        per_unit, raised = [None] * len(units), []
        while any(pids):
            for r, _ in poller.poll():
                j = ends.index(r)
                data = os.read(r, 1 << 16)
                if data:
                    chunks[j].append(data)
                    continue
                poller.unregister(r)
                _, status = os.waitpid(pids[j], 0)
                pids[j] = 0
                if status != 0:
                    raise RuntimeError(_lost_worker(j, status, units[j::workers]))
                out = pickle.loads(b"".join(chunks[j]))
                if isinstance(out, tuple):
                    raised.append(out)
                else:
                    per_unit[j::workers] = out
        if raised:
            _, e, tb = min(raised, key=operator.itemgetter(0))
            raise e from _WorkerTraceback(tb)
        return per_unit
    finally:
        for r in ends:
            os.close(r)
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    with one_blas_thread():
        if workers == 1:
            per_unit = [_unit_rows(cfg, trial, blocks) for trial, blocks in units]
        else:
            # Workers fork inside one_blas_thread(), so they inherit the
            # loaded modules and the one BLAS thread. They must not set it
            # again: OpenBLAS stops its thread pools at fork, a setter call
            # in the child starts them again, and their idle threads spin,
            # which doubled a worker's CPU time. _fork_join reaps every
            # worker, so their CPU time is in RUSAGE_CHILDREN and none of
            # them runs after this returns.
            per_unit = _fork_join(cfg, units, workers)
    # a unit's rows are a list per chain; join a trial's spans chain by chain
    rows = []
    for _, group in itertools.groupby(zip(units, per_unit), key=lambda u: u[0][0]):
        for spans_of_chain in zip(*(chain_rows for _, chain_rows in group)):
            rows.extend(itertools.chain(*spans_of_chain))
    return CampaignResult(config=cfg, rows=tuple(rows))


# aggregation ---------------------------------------------------------------


def summarize(rows, cfg: ScenarioConfig) -> list[dict]:
    """Per-block rows for every group, plus campaign rows under block -1.

    One grouped reduction: each output row averages a list of trace rows,
    and the lists of one length are stacked and averaged along their
    contiguous last axis. Numpy sums each such row pairwise, as np.mean
    sums the list alone, so every mean keeps its bytes.
    """
    blocks: dict[tuple, dict[int, list[int]]] = {}
    per_row = []  # |du| |dv| du^2 dv^2 pos^2 gain norm_gain se_bits iterations measurements
    for i, r in enumerate(rows):
        blocks.setdefault((r.scheme, r.snr_db, r.phase_bits), {}).setdefault(r.block, []).append(i)
        du, dv = r.est_u - r.true_u, r.est_v - r.true_v
        pos2 = (r.est_x - r.true_x) ** 2 + (r.est_y - r.true_y) ** 2
        per_row.append((abs(du), abs(dv), du * du, dv * dv, pos2, r.gain, r.norm_gain, r.se_bits,
                        r.iterations, r.measurements))
    groups = []  # (scheme, snr_db, phase_bits, block) and its trace-row indices, per output row
    for key, by_block in blocks.items():
        groups += [((*key, block), by_block[block]) for block in sorted(by_block)]
        groups.append(((*key, -1), sorted(itertools.chain(*by_block.values()))))
    q = np.array(per_row, dtype=float).T
    means = np.empty((10, len(groups)))
    by_length: dict[int, list[int]] = {}
    for j, (_, idx) in enumerate(groups):
        by_length.setdefault(len(idx), []).append(j)
    for js in by_length.values():
        means[:, js] = np.take(q, [groups[j][1] for j in js], axis=1).mean(axis=-1)
    mae = 0.5 * (means[0] + means[1])
    arr = cfg.arrays()
    inside = np.flatnonzero(~(mae > main_lobe_limit(arr)))  # a NaN MAE is not past it
    pred = dict(zip(inside.tolist(), beam_gain(mae[inside], mae[inside], arr).tolist()))
    budgets = {snr_db: cfg.budget(snr_db) for _, snr_db, _ in blocks}
    # mse_u, mse_v, mse_angle, mae_u, mae_v, mae_angle, rmse_pos_m, then the plain means
    cols = [means[2:4], 0.5 * (means[2] + means[3]), means[:2], mae, np.sqrt(means[4]), means[5:]]
    names = [c for c in SUMMARY_HEADER if not c.startswith("pred_")]
    out = []
    for j, ((key, idx), values) in enumerate(zip(groups, np.vstack(cols).T.tolist())):
        gain = pred.get(j, "")
        se = "" if gain == "" else spectral_efficiency(gain, budgets[key[1]])
        out.append({**dict(zip(names, [SCHEMA_VERSION, *key, len(idx), *values])),
                    "pred_gain_at_mae": gain, "pred_se_at_mae": se})
    return out


# CSV I/O --------------------------------------------------------------------


def _fmt(value):
    """Floats to 12 significant digits; other values as they are."""
    return f"{value:.12g}" if isinstance(value, float) else value


def _write_lines(path: str, header: list[str], lines) -> None:
    """Write the header row and the formatted lines to a new file beside path,
    then move it there: a complete file or none, with the mode open(path, "w")
    would create (0o666 less the umask)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(",".join(header) + "\n")
            f.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    """Write header and rows to path atomically, each row's cells joined by commas."""
    _write_lines(path, header, (",".join(map(str, row)) + "\n" for row in rows))


# A trace row's line: floats as _fmt writes them ("%.12g" gives its bytes),
# the rest with str; schemes are plain config.SCHEMES names, so none is quoted.
_TRACE_LINE = ",".join(
    [str(SCHEMA_VERSION)] + ["%.12g" if f.type == "float" else "%s" for f in fields(TraceRow)]
) + "\n"
_TRACE_VALUES = operator.attrgetter(*TRACE_HEADER[1:])


def write_trace_csv(path: str, result: CampaignResult) -> None:
    _write_lines(path, TRACE_HEADER, (_TRACE_LINE % _TRACE_VALUES(r) for r in result.rows))


# A summary row's line, written as _TRACE_LINE is: floats "%.12g", counts
# and the scheme "%s". The pred_ cells are blank past the main lobe, so
# _fmt formats them first.
_PRED_COLUMNS = [i for i, col in enumerate(SUMMARY_HEADER) if col.startswith("pred_")]
_SUMMARY_LINE = ",".join(
    "%s" if col in _SUMMARY_INT_COLUMNS or col == "scheme" or col.startswith("pred_") else "%.12g"
    for col in SUMMARY_HEADER
) + "\n"


def _summary_line(row: dict) -> str:
    cells = [row[col] for col in SUMMARY_HEADER]
    for i in _PRED_COLUMNS:
        cells[i] = _fmt(cells[i])
    return _SUMMARY_LINE % tuple(cells)


def write_summary_csv(path: str, summary_rows: list[dict]) -> None:
    _write_lines(path, SUMMARY_HEADER, map(_summary_line, summary_rows))


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
    """Tidy per-figure table from a summary, cut as FIGURES says for one of
    its keys; errors name the figure and any missing axis."""
    fig = FIGURES[figure]
    rows = [
        r for r in summary_rows
        if (r["block"] >= 0) == fig.per_block and (fig.family is None or r["scheme"] in fig.family)
    ]
    if fig.family is not None and not rows:
        raise ConfigError(f"{figure} needs schemes from {fig.family} in the summary")
    if len({r[fig.axis] for r in rows}) < 2:
        raise ConfigError(f"{figure} {fig.missing}")
    rows.sort(key=lambda r: tuple(r[c] for c in fig.keys))
    header = list(fig.keys + fig.values)
    return header, [[_fmt(r[c]) for c in header] for r in rows]
