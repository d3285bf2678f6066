"""UAV precoding and ground-side candidate beams.

The UAV phase-steers its line array from its own navigation data; the
ground station sweeps a square grid of beams around the sensor-seeded
direction cosines. Grid pitch follows the phase-shifter resolution: with
l-bit shifters the step is 2 pi / 2^l in direction-cosine units, and the
analog mode also rounds every weight phase to that lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ArrayConfig, steering_ula, steering_upa
from .geometry import Position3, departure_angle
from .sensors import SensorReading

__all__ = [
    "CandidateSet",
    "precoder_from_angle",
    "build_precoder",
    "steer_weights",
    "quantize_phases",
    "axis_points",
    "candidate_set",
    "grid_weights",
]


def precoder_from_angle(u_a: float, nu: int) -> np.ndarray:
    """UAV weights: the phase conjugate of the array response at departure
    cosine u_a, scaled to unit norm.

    The inner product of the response at the true cosine with this vector
    has magnitude sqrt(nu) when the steering cosine is exact.
    """
    return steering_ula(u_a, nu).conj() / math.sqrt(nu)


def build_precoder(egi: SensorReading, gs_pos: Position3, cfg: ArrayConfig) -> np.ndarray:
    """Steer the UAV array from a navigation-unit reading.

    The departure cosine is taken from the measured UAV position, and the
    measured heading gives the body axis.
    """
    if egi.heading is None:
        raise ValueError("precoder needs a reading that carries heading")
    return precoder_from_angle(departure_angle(egi.position, gs_pos, egi.heading), cfg.nu)


def quantize_phases(w: np.ndarray, phase_bits: int) -> np.ndarray:
    """Round weight phases to multiples of 2 pi / 2^phase_bits.

    Magnitudes are kept and nothing is renormalized, so a unit-norm
    constant-modulus beam stays unit-norm. Per-entry phase error is at
    most pi / 2^phase_bits.
    """
    step = 2.0 * math.pi / 2.0**phase_bits
    phases = np.round(np.angle(w) / step) * step
    return np.abs(w) * np.exp(1j * phases)


def steer_weights(u0, v0, cfg: ArrayConfig, phase_bits: int | None = None) -> np.ndarray:
    """Unit-norm ground beam pointed at (u0, v0), optionally phase-quantized.

    Array-valued cosines broadcast against each other and give one beam
    per entry, along the last axis.
    """
    w = steering_upa(u0, v0, cfg.nx, cfg.ny) / math.sqrt(cfg.n_ground)
    if phase_bits is not None:
        w = quantize_phases(w, phase_bits)
    return w


@dataclass(frozen=True)
class CandidateSet:
    """Square search grid of direction cosines around a seeded center.

    points enumerates the grid row-major over (u, v): flat index
    i * len(v_values) + j holds (u_values[i], v_values[j]). lo and hi are
    the corners of the box seed -/+ 2 / nx, the half main-lobe width.
    """

    u_values: np.ndarray
    v_values: np.ndarray
    points: np.ndarray
    delta: float
    lo: np.ndarray
    hi: np.ndarray

    @property
    def size(self) -> int:
        return len(self.points)


def axis_points(cfg: ArrayConfig, phase_bits: int) -> float:
    """Points per axis of candidate_set's grid: floor(2 B / delta) + 1, with
    B = 2 / nx and delta = 2 pi / 2^l. Nothing is allocated, and a count
    past the float range is inf rather than an OverflowError."""
    try:
        return int(math.floor(2.0 * (2.0 / cfg.nx) / (2.0 * math.pi / 2.0**phase_bits))) + 1
    except OverflowError:
        return math.inf


def candidate_set(seed_u: float, seed_v: float, cfg: ArrayConfig, phase_bits: int = 6) -> CandidateSet:
    """Grid [seed - B : delta : seed + B] per axis, B = 2 / nx, delta = 2 pi / 2^l.

    Each axis holds axis_points(cfg, phase_bits) values anchored at the
    lower edge, so the seed itself need not be a grid point.
    """
    delta = 2.0 * math.pi / 2.0**phase_bits
    b = 2.0 / cfg.nx
    g_axis = axis_points(cfg, phase_bits)
    offsets = -b + delta * np.arange(g_axis)
    u_values = np.clip(seed_u + offsets, -1.0, 1.0)
    v_values = np.clip(seed_v + offsets, -1.0, 1.0)
    # not np.unique: its first call imports numpy.ma, in every forked worker
    for vals in (u_values, v_values):
        if g_axis >= 2 and not vals.max() > vals.min():
            raise ValueError("candidate grid degenerates to a point after clipping")
    uu, vv = np.meshgrid(u_values, v_values, indexing="ij")
    return CandidateSet(
        u_values=u_values,
        v_values=v_values,
        points=np.column_stack([uu.ravel(), vv.ravel()]),
        delta=delta,
        lo=np.array([seed_u - b, seed_v - b]),
        hi=np.array([seed_u + b, seed_v + b]),
    )


def grid_weights(cands: CandidateSet, cfg: ArrayConfig, phase_bits: int | None = None) -> np.ndarray:
    """Stack of beams for every grid point, ordered like cands.points.

    One steer_weights call on the per-axis cosines, so each axis response
    is formed once per grid value. A named function still, because the
    benchmark's layer tracer wraps tracking.grid_weights.
    """
    w = steer_weights(cands.u_values[:, None], cands.v_values[None, :], cfg, phase_bits)
    return w.reshape(cands.size, cfg.n_ground)
