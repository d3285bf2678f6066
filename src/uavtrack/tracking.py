"""Angle trackers: sensor-seeded search refined on the beam surface.

All schemes receive the same seeded candidate geometry and the same
measurement interface. Measured magnitudes are rescaled by the known
coherent array factor sqrt(nu * nx * ny) before entering any estimator,
so surfaces peak near sqrt(es) regardless of array size and the step and
stop constants keep their meaning across configurations.

The surrogate-model schemes ascend the predictive mean of a Gaussian
process fitted to the measurements. The hybrid scheme may measure
anywhere and adds one off-grid probe per iteration; the analog scheme is
restricted to the phase-quantized grid it already measured and iterates
on predictions alone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .beamforming import CandidateSet, candidate_set, grid_weights, steer_weights
from .channel import ArrayConfig, LinkBudget, measure_beams
from .geometry import Position3, SpatialAngles, position_from_angles
from .gpr import fit_hyperparams, make_model, posterior, posterior_mean_gradient
from .metrics import normalized_gain
from .sensors import SensorReading

__all__ = [
    "EstimatorConfig",
    "RefineResult",
    "predict_position",
    "fuse_position",
    "refine_hybrid",
    "refine_analog",
    "baseline_gps_only",
    "baseline_perturbation",
    "baseline_codebook",
]

# iteration caps of the initial hyperparameter fit and of each warm-started refit
FIT_MAX_ITER = 15
REFIT_MAX_ITER = 6


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by the refinement schemes.

    epsilon_scale multiplies sqrt(es) to form the stop threshold on
    consecutive magnitudes (or powers for the perturbation baseline).
    """

    eta: float = 0.01
    epsilon_scale: float = 1e-3
    max_iterations: int = 50
    refit_every: int = 5
    phase_bits: int = 6

    def __post_init__(self):
        if self.eta <= 0.0 or self.epsilon_scale < 0.0:
            raise ValueError("eta must be positive and epsilon_scale nonnegative")
        if self.max_iterations < 0 or self.refit_every < 1:
            raise ValueError("bad iteration limits")
        if self.phase_bits < 1:
            raise ValueError(f"phase_bits must be at least 1, got {self.phase_bits}")


@dataclass(frozen=True)
class RefineResult:
    u: float
    v: float
    iterations: int
    measurements: int


def predict_position(
    estimate: Position3, velocity: tuple[float, float], gps: SensorReading | None, t_block: float
) -> Position3:
    """Position prior for the current block.

    A fresh GPS fix is taken as is; otherwise the previous fused estimate
    is dead-reckoned by one block of the latest differenced velocity.
    """
    if gps is not None:
        return gps.position
    vx, vy = velocity
    return Position3(estimate.x + t_block * vx, estimate.y + t_block * vy, estimate.h)


def fuse_position(angles: SpatialAngles, gs_pos: Position3, delta_h: float) -> Position3:
    """Absolute position implied by estimated angles at a known height gap."""
    rel = position_from_angles(angles.u, angles.v, delta_h)
    return Position3(gs_pos.x + rel.x, gs_pos.y + rel.y, gs_pos.h + delta_h)


def _clip_unit_disk(point: np.ndarray) -> np.ndarray:
    r2 = float(point @ point)
    if r2 >= 1.0:
        point = point * (math.sqrt(1.0 - 1e-9) / math.sqrt(r2))
    return point


def _grid(seed: SpatialAngles, cfg: ArrayConfig, est: EstimatorConfig, grids, beams=None):
    """The seeded search grid and, when beams is "plain" or "quantized", one
    beam per grid point, phase-quantized to est.phase_bits for "quantized".

    The grid is None when it carries no angular information: a single
    ground antenna has a flat beamspace, and a grid that clips to a point
    near the horizon cannot support a surrogate; both make the caller fall
    back to the seed angles.

    grids is one block's table, a dict, or None: at a GPS-fix block every SNR point and
    scheme is seeded at the fix and sounds the same beams. It is keyed on
    the seed's exact bits (0.0 and -0.0 differ), the array, the phase bits
    and the quantization, and its arrays are read-only because chains
    share them. With no table, both are built afresh.
    """
    table = {} if grids is None else grids
    key = (struct.pack("2d", seed.u, seed.v), cfg, est.phase_bits)
    if key not in table:
        cands = None
        if cfg.nx * cfg.ny > 1:
            try:
                cands = candidate_set(seed.u, seed.v, cfg, est.phase_bits)
            except ValueError:
                pass
        if cands is not None and cands.size >= 2:
            for a in (cands.u_values, cands.v_values, cands.points, cands.lo, cands.hi):
                a.flags.writeable = False
        else:
            cands = None
        table[key] = cands
    cands = table[key]
    if cands is None or beams is None:
        return cands, None
    stack_key = key + (beams,)
    if stack_key not in table:
        w = grid_weights(cands, cfg, est.phase_bits if beams == "quantized" else None)
        w.flags.writeable = False
        table[stack_key] = w
    return cands, table[stack_key]


def _sounder(
    heff: np.ndarray, cfg: ArrayConfig, budget: LinkBudget, rng: np.random.Generator
):
    """Beam magnitudes over the coherent array factor (metrics.normalized_gain)."""
    return lambda weights: normalized_gain(measure_beams(heff, weights, budget, rng), cfg)


def _sweep(sound, cands: CandidateSet, beams: np.ndarray):
    """Sound every candidate beam: the magnitudes, and the loudest grid point
    pulled inside the unit disk (grid corners can stick past it for
    near-horizon seeds, and infeasible cosines would break position fusion)."""
    y = sound(beams)
    return y, _clip_unit_disk(cands.points[int(np.argmax(y))])


def _initial_surface(sound, cands: CandidateSet, beams: np.ndarray):
    """The surrogate fitted to a grid sweep, and the sweep's loudest point."""
    y, x0 = _sweep(sound, cands, beams)
    fit = fit_hyperparams(cands.points, y, max_iter=FIT_MAX_ITER)
    return make_model(cands.points, y, fit.hyperparams), x0


def _ascend(x0: np.ndarray, cands: CandidateSet, est: EstimatorConfig, budget: LinkBudget, probe):
    """Ascent shared by the iterative schemes.

    Each iteration calls probe(x) -> (value, direction) at the iterate and
    steps to x + eta * direction, clipped to the candidate box, then into
    the unit disk (which near the horizon can leave the box). Stops when
    consecutive values differ by less than epsilon_scale * sqrt(es), or at
    the iteration cap. Returns the final iterate and the iteration count.
    """
    eps = est.epsilon_scale * math.sqrt(budget.es)
    x, t, f_prev = x0, 0, None
    for t in range(1, est.max_iterations + 1):
        f, g = probe(x)
        x = _clip_unit_disk(cands.clip(x + est.eta * g))
        if f_prev is not None and abs(f - f_prev) < eps:
            break
        f_prev = f
    return x, t


def _result(x: np.ndarray, iterations: int, measurements: int) -> RefineResult:
    return RefineResult(
        u=float(x[0]), v=float(x[1]), iterations=iterations, measurements=measurements
    )


def refine_hybrid(
    heff: np.ndarray,
    seed: SpatialAngles,
    cfg: ArrayConfig,
    budget: LinkBudget,
    est: EstimatorConfig,
    rng: np.random.Generator,
    *,
    grids: dict | None = None,
) -> RefineResult:
    """Grid sweep, then one adaptive probe per iteration.

    Each iteration measures a single beam at the current iterate, appends
    it to the training set (hyperparameters refitted every refit_every
    appends), and moves the iterate along the predictive-mean gradient.
    Stops when consecutive probe magnitudes differ by less than the
    threshold, or at the iteration cap. The iterate stays inside the
    unit disk, after a clip to the candidate box.
    """
    cands, beams = _grid(seed, cfg, est, grids, "plain")
    if cands is None:
        return baseline_gps_only(seed)
    sound = _sounder(heff, cfg, budget, rng)
    model, x0 = _initial_surface(sound, cands, beams)

    def probe(x):
        nonlocal model
        y = float(sound(steer_weights(float(x[0]), float(x[1]), cfg))[0])
        model = model.with_point(x, y)
        if (model.n - cands.size) % est.refit_every == 0:
            fit = fit_hyperparams(model.x, model.y, model.hp, REFIT_MAX_ITER)
            model = make_model(model.x, model.y, fit.hyperparams)
        return y, posterior_mean_gradient(model, x)

    x, iterations = _ascend(x0, cands, est, budget, probe)
    return _result(x, iterations, cands.size + iterations)


def refine_analog(
    heff: np.ndarray,
    seed: SpatialAngles,
    cfg: ArrayConfig,
    budget: LinkBudget,
    est: EstimatorConfig,
    rng: np.random.Generator,
    *,
    grids: dict | None = None,
) -> RefineResult:
    """Phase-quantized sweep, then prediction-only ascent.

    The training set stays the initial grid; iterations move the iterate
    along the predictive-mean gradient and stop when consecutive
    predictive means differ by less than the threshold. No beam outside
    the quantized grid is ever sounded.
    """
    cands, beams = _grid(seed, cfg, est, grids, "quantized")
    if cands is None:
        return baseline_gps_only(seed)
    model, x0 = _initial_surface(_sounder(heff, cfg, budget, rng), cands, beams)

    def probe(x):
        return float(posterior(model, x)[0][0]), posterior_mean_gradient(model, x)

    x, iterations = _ascend(x0, cands, est, budget, probe)
    return _result(x, iterations, cands.size)


def baseline_gps_only(seed: SpatialAngles) -> RefineResult:
    """No pilots: the sensor-seeded angles are the estimate. Every pilot
    scheme falls back to it when the seeded grid carries no information."""
    return RefineResult(u=seed.u, v=seed.v, iterations=0, measurements=0)


def baseline_perturbation(
    heff: np.ndarray,
    seed: SpatialAngles,
    cfg: ArrayConfig,
    budget: LinkBudget,
    est: EstimatorConfig,
    rng: np.random.Generator,
    *,
    grids: dict | None = None,
) -> RefineResult:
    """Stochastic power ascent with forward-difference gradients.

    Each iteration sounds the current beam plus one beam offset by half
    the grid step per axis (three measurements), forms forward
    differences of received power, and steps along them. Stops when consecutive center powers differ by
    less than the threshold, or at the iteration cap.
    """
    cands, _ = _grid(seed, cfg, est, grids)
    if cands is None:
        return baseline_gps_only(seed)
    delta_p = cands.delta / 2.0
    sound = _sounder(heff, cfg, budget, rng)

    def probe(x):
        u, v = x
        y3 = sound(steer_weights(np.array([u, u + delta_p, u]), np.array([v, v, v + delta_p]), cfg))
        p0, pu, pv = (y3**2).tolist()
        return p0, np.array([(pu - p0) / delta_p, (pv - p0) / delta_p])

    x, iterations = _ascend(np.array([seed.u, seed.v]), cands, est, budget, probe)
    return _result(x, iterations, 3 * iterations)


def baseline_codebook(
    heff: np.ndarray,
    seed: SpatialAngles,
    cfg: ArrayConfig,
    budget: LinkBudget,
    est: EstimatorConfig,
    rng: np.random.Generator,
    *,
    grids: dict | None = None,
) -> RefineResult:
    """Exhaustive argmax over the quantized candidate grid.

    Ties resolve to the lowest flat index. The estimate is always a grid
    point, so its error floor is set by the grid pitch.
    """
    cands, beams = _grid(seed, cfg, est, grids, "quantized")
    if cands is None:
        return baseline_gps_only(seed)
    _, x = _sweep(_sounder(heff, cfg, budget, rng), cands, beams)
    return _result(x, 0, cands.size)
