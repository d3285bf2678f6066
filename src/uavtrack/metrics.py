"""Beamforming gain, its closed form in the angle errors, and link metrics.

For half-wavelength uniform arrays the gain of a beam steered with
per-axis cosine errors (du, dv) against the effective channel factors
into Dirichlet-kernel ratios, one per axis, times the sqrt(nu) precoder
gain. The same expression evaluated at a campaign's mean absolute error
predicts the campaign's spectral efficiency.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ArrayConfig, LinkBudget

__all__ = [
    "axis_gain_ratio",
    "beam_gain",
    "realized_gain",
    "normalized_gain",
    "spectral_efficiency",
    "main_lobe_limit",
]


def axis_gain_ratio(delta, n: int):
    """Dirichlet ratio sin(pi n d / 2) / (sqrt(n) sin(pi d / 2)), signed.

    Evaluated through normalized sinc so the removable singularity at
    d = 0 yields sqrt(n) exactly. Valid for |d| < 2, which covers any
    difference of direction cosines except the degenerate end points.
    """
    d = np.asarray(delta, dtype=float)
    out = math.sqrt(n) * np.sinc(n * d / 2.0) / np.sinc(d / 2.0)
    return out if out.ndim else float(out)


def beam_gain(du, dv, cfg: ArrayConfig):
    """Closed-form |w^H h| for steering errors (du, dv), perfect precoder.

    sqrt(nu) times the product of the per-axis Dirichlet ratios; absolute
    value, since only the magnitude reaches the link metrics. Peaks at
    sqrt(nu * nx * ny) for zero error and hits the first null at 2 / n
    per axis.
    """
    val = math.sqrt(cfg.nu) * axis_gain_ratio(du, cfg.nx) * axis_gain_ratio(dv, cfg.ny)
    return abs(val) if np.ndim(val) == 0 else np.abs(val)


def realized_gain(weights: np.ndarray, heff: np.ndarray) -> float:
    """|w^H h| against a simulated effective channel."""
    return float(np.abs(weights.conj() @ heff))


def normalized_gain(gain, cfg: ArrayConfig):
    """Gain, a float or an array of them, relative to the coherent maximum
    sqrt(nu * nx * ny)."""
    return gain / math.sqrt(cfg.nu * cfg.nx * cfg.ny)


def spectral_efficiency(gain: float, budget: LinkBudget) -> float:
    """log2(1 + gain^2 / sigma_n^2), bits/s/Hz, for unit-energy pilots.

    Noise is not scaled by the beam's norm: every beam the package builds,
    ground or UAV, is unit-norm.
    """
    return math.log2(1.0 + gain * gain / budget.sigma_n2)


def main_lobe_limit(cfg: ArrayConfig) -> float:
    """First null 2 / n of the wider axis; only a MAE past it (>) gets no prediction."""
    return 2.0 / max(cfg.nx, cfg.ny)
