"""Reference formulas the tests check the package against.

None of these is on a campaign's path: the UAV flies level, so only its
heading reaches the body frame; the GP likelihood is evaluated inside the
hyperparameter fit; and the summary predicts its gain from the MAE in one
vectorized call. Each is kept here in its plain scalar form, as an oracle
for the code that computes the same quantity in the package. pytest does
not collect this module (its name has no test_ prefix); test modules
import it by name from their own directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from uavtrack.channel import ArrayConfig
from uavtrack.gpr import Hyperparams, _Objective
from uavtrack.metrics import beam_gain, main_lobe_limit

__all__ = [
    "Attitude",
    "rotation_matrix",
    "log_marginal_likelihood",
    "likelihood_gradient",
    "predicted_gain_from_mae",
]


# Body attitude ---------------------------------------------------------------


@dataclass(frozen=True)
class Attitude:
    """Body attitude in radians: yaw about h, pitch about y, roll about x."""

    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0


def _t1(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def _t2(pitch: float) -> np.ndarray:
    c, s = math.cos(pitch), math.sin(pitch)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def _t3(roll: float) -> np.ndarray:
    c, s = math.cos(roll), math.sin(roll)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rotation_matrix(att: Attitude) -> np.ndarray:
    """Direction cosine matrix from the u-frame to the a-frame.

    Composed as roll @ pitch @ yaw, each factor a single-axis rotation
    applied to column vectors of u-frame coordinates.

    Parameters
    ----------
    att : Attitude
        Yaw, pitch, roll in radians.

    Returns
    -------
    np.ndarray, shape (3, 3)
        Orthonormal with determinant +1.
    """
    return _t3(att.roll) @ _t2(att.pitch) @ _t1(att.yaw)


# GP likelihood ---------------------------------------------------------------


def log_marginal_likelihood(x: np.ndarray, y: np.ndarray, hp: Hyperparams) -> float:
    """-0.5 y^T Kn^-1 y - 0.5 log|Kn| - n/2 log(2 pi), Kn = K + sigma_n^2 I."""
    return _Objective(x, y).evaluate(hp.as_list())[-1]


def likelihood_gradient(x: np.ndarray, y: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Gradient of the log marginal likelihood in natural parameters.

    For each parameter theta, 0.5 * alpha^T dK alpha - 0.5 tr(Kn^-1 dK)
    with alpha = Kn^-1 y. Order: sigma_s, ell_u, ell_v, sigma_n. This is
    the fit's log-space gradient, divided by the parameter values.
    """
    obj = _Objective(x, y)
    v = hp.as_list()
    k, chol, jitter, alpha, _ = obj.evaluate(v)
    g = obj.derivatives(v, k, chol, jitter, alpha)[0]
    vals = np.array(v)
    # d/d sigma_n is sigma_n * tr(A), which is 0 at sigma_n = 0
    return np.divide(g, vals, out=np.zeros_like(g), where=vals > 0.0)


# Gain predicted from a campaign's MAE ----------------------------------------


def predicted_gain_from_mae(mae: float, cfg: ArrayConfig) -> float:
    """Closed-form gain at equal per-axis offsets set to the MAE.

    Only meaningful inside the main lobe; offsets past main_lobe_limit are
    rejected rather than extrapolated.
    """
    if mae < 0.0:
        raise ValueError("mae must be nonnegative")
    lim = main_lobe_limit(cfg)
    if mae > lim:
        raise ValueError(f"mae {mae:.4f} is outside the main lobe (limit {lim:.4f})")
    return beam_gain(mae, mae, cfg)
