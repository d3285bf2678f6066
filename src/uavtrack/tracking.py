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
from dataclasses import dataclass

import numpy as np

from .beamforming import CandidateSet, candidate_set, grid_weights, steer_weights
from .channel import ArrayConfig, EffectiveChannel, LinkBudget, measure_beams
from .geometry import Position3, SpatialAngles, position_from_angles
from .gpr import fit_hyperparams, make_model, posterior, posterior_mean_gradient
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
    perturbation_delta defaults to half the grid step.
    """

    eta: float = 0.01
    epsilon_scale: float = 1e-3
    max_iterations: int = 50
    refit_every: int = 5
    phase_bits: int = 6
    perturbation_delta: float | None = None
    fit_noise: bool = True

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


def _norm_factor(cfg: ArrayConfig) -> float:
    return math.sqrt(cfg.nu * cfg.nx * cfg.ny)


def _clip_unit_disk(point: np.ndarray) -> np.ndarray:
    r2 = float(point @ point)
    if r2 >= 1.0:
        point = point * (math.sqrt(1.0 - 1e-9) / math.sqrt(r2))
    return point


def _candidates(seed: SpatialAngles, cfg: ArrayConfig, est: EstimatorConfig) -> CandidateSet | None:
    """Seeded search grid, or None when it carries no angular information.

    A single ground antenna has a flat beamspace, and a grid that clips
    to a point near the horizon cannot support a surrogate; both cases
    make the caller fall back to the seed angles.
    """
    if cfg.nx * cfg.ny == 1:
        return None
    try:
        cands = candidate_set(seed.u, seed.v, cfg, est.phase_bits)
    except ValueError:
        return None
    if cands.size < 2:
        return None
    return cands


def _initial_surface(
    heff: EffectiveChannel,
    cands: CandidateSet,
    cfg: ArrayConfig,
    budget: LinkBudget,
    est: EstimatorConfig,
    rng: np.random.Generator,
    quantized: bool,
):
    """Measure every candidate beam and fit the surrogate to the sweep.

    Returns the model and the grid point with the largest magnitude."""
    weights = grid_weights(cands, cfg, est.phase_bits if quantized else None)
    y = measure_beams(heff, weights, budget, rng) / _norm_factor(cfg)
    x = cands.points
    fit = fit_hyperparams(x, y, max_iter=FIT_MAX_ITER, fit_noise=est.fit_noise)
    model = make_model(x, y, fit.hyperparams)
    return model, x[int(np.argmax(y))]


def refine_hybrid(
    heff: EffectiveChannel,
    seed: SpatialAngles,
    cfg: ArrayConfig,
    budget: LinkBudget,
    est: EstimatorConfig,
    rng: np.random.Generator,
) -> RefineResult:
    """Grid sweep, then one adaptive probe per iteration.

    Each iteration measures a single beam at the current iterate, appends
    it to the training set (hyperparameters refitted every refit_every
    appends), and moves the iterate along the predictive-mean gradient.
    Stops when consecutive probe magnitudes differ by less than the
    threshold, or at the iteration cap. The iterate stays inside the
    candidate box and the unit disk.
    """
    cands = _candidates(seed, cfg, est)
    if cands is None:
        return RefineResult(u=seed.u, v=seed.v, iterations=0, measurements=0)
    model, xstar = _initial_surface(heff, cands, cfg, budget, est, rng, quantized=False)
    xstar = _clip_unit_disk(xstar)
    measurements = cands.size
    eps = est.epsilon_scale * math.sqrt(budget.es)
    iterations = 0
    appended = 0
    y_prev = None
    for t in range(1, est.max_iterations + 1):
        w = steer_weights(float(xstar[0]), float(xstar[1]), cfg)
        y_star = float(measure_beams(heff, w, budget, rng)[0]) / _norm_factor(cfg)
        measurements += 1
        iterations = t
        model = model.with_point(xstar, y_star)
        appended += 1
        if appended % est.refit_every == 0:
            fit = fit_hyperparams(model.x, model.y, model.hp, REFIT_MAX_ITER, est.fit_noise)
            model = make_model(model.x, model.y, fit.hyperparams)
        g = posterior_mean_gradient(model, xstar)
        xstar = _clip_unit_disk(cands.clip(xstar + est.eta * g))
        if y_prev is not None and abs(y_star - y_prev) < eps:
            break
        y_prev = y_star
    return RefineResult(
        u=float(xstar[0]), v=float(xstar[1]), iterations=iterations, measurements=measurements
    )


def refine_analog(
    heff: EffectiveChannel,
    seed: SpatialAngles,
    cfg: ArrayConfig,
    budget: LinkBudget,
    est: EstimatorConfig,
    rng: np.random.Generator,
) -> RefineResult:
    """Phase-quantized sweep, then prediction-only ascent.

    The training set stays the initial grid; iterations move the iterate
    along the predictive-mean gradient and stop when consecutive
    predictive means differ by less than the threshold. No beam outside
    the quantized grid is ever sounded.
    """
    cands = _candidates(seed, cfg, est)
    if cands is None:
        return RefineResult(u=seed.u, v=seed.v, iterations=0, measurements=0)
    model, xstar = _initial_surface(heff, cands, cfg, budget, est, rng, quantized=True)
    xstar = _clip_unit_disk(xstar)
    eps = est.epsilon_scale * math.sqrt(budget.es)
    iterations = 0
    f_prev = None
    for t in range(1, est.max_iterations + 1):
        f_star = float(posterior(model, xstar)[0][0])
        g = posterior_mean_gradient(model, xstar)
        xstar = _clip_unit_disk(cands.clip(xstar + est.eta * g))
        iterations = t
        if f_prev is not None and abs(f_star - f_prev) < eps:
            break
        f_prev = f_star
    return RefineResult(
        u=float(xstar[0]), v=float(xstar[1]), iterations=iterations, measurements=cands.size
    )


def baseline_gps_only(seed: SpatialAngles) -> RefineResult:
    """No pilots: the sensor-seeded angles are the estimate."""
    return RefineResult(u=seed.u, v=seed.v, iterations=0, measurements=0)


def baseline_perturbation(
    heff: EffectiveChannel,
    seed: SpatialAngles,
    cfg: ArrayConfig,
    budget: LinkBudget,
    est: EstimatorConfig,
    rng: np.random.Generator,
) -> RefineResult:
    """Stochastic power ascent with forward-difference gradients.

    Each iteration sounds the current beam plus one offset beam per axis
    (three measurements), forms forward differences of received power,
    and steps along them. Stops when consecutive center powers differ by
    less than the threshold, or at the iteration cap.
    """
    cands = _candidates(seed, cfg, est)
    if cands is None:
        return RefineResult(u=seed.u, v=seed.v, iterations=0, measurements=0)
    delta_p = est.perturbation_delta if est.perturbation_delta is not None else cands.delta / 2.0
    eps = est.epsilon_scale * math.sqrt(budget.es)
    norm = _norm_factor(cfg)
    xstar = np.array([seed.u, seed.v])
    iterations = 0
    measurements = 0
    p_prev = None
    for t in range(1, est.max_iterations + 1):
        u, v = xstar
        probes = steer_weights(np.array([u, u + delta_p, u]), np.array([v, v, v + delta_p]), cfg)
        y3 = measure_beams(heff, probes, budget, rng) / norm
        p0, pu, pv = (y3**2).tolist()
        measurements += 3
        iterations = t
        if delta_p == 0.0:
            g = np.zeros(2)
        else:
            g = np.array([(pu - p0) / delta_p, (pv - p0) / delta_p])
        xstar = _clip_unit_disk(cands.clip(xstar + est.eta * g))
        if p_prev is not None and abs(p0 - p_prev) < eps:
            break
        p_prev = p0
    return RefineResult(
        u=float(xstar[0]), v=float(xstar[1]), iterations=iterations, measurements=measurements
    )


def baseline_codebook(
    heff: EffectiveChannel,
    seed: SpatialAngles,
    cfg: ArrayConfig,
    budget: LinkBudget,
    est: EstimatorConfig,
    rng: np.random.Generator,
) -> RefineResult:
    """Exhaustive argmax over the quantized candidate grid.

    Ties resolve to the lowest flat index. The estimate is always a grid
    point, so its error floor is set by the grid pitch.
    """
    cands = _candidates(seed, cfg, est)
    if cands is None:
        return RefineResult(u=seed.u, v=seed.v, iterations=0, measurements=0)
    weights = grid_weights(cands, cfg, est.phase_bits)
    y = measure_beams(heff, weights, budget, rng)
    # grid corners can stick past the unit disk for near-horizon seeds;
    # infeasible direction cosines would break position fusion downstream
    best = _clip_unit_disk(cands.points[int(np.argmax(y))])
    return RefineResult(
        u=float(best[0]), v=float(best[1]), iterations=0, measurements=cands.size
    )
