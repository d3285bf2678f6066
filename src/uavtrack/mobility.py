"""Gauss-Markov flight dynamics on a block clock.

Speed and heading each follow a first-order autoregression; the position
integrates the velocity vector once per block. The UAV flies level at a
constant height, its body axis along its course.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Position3

TAU = 2.0 * math.pi

__all__ = ["MobilityConfig", "FlightState", "sample_initial", "step", "velocity_vector"]


@dataclass(frozen=True)
class MobilityConfig:
    """Random-walk parameters and scenario geometry.

    The process noise has variance (1 - rho^2) * sigma^2, so the unclamped
    autoregression has stationary variance sigma^2.
    """

    rho: float = 0.99
    speed_min: float = 40.0 / 3.6  # m/s
    speed_max: float = 160.0 / 3.6
    sigma_speed: float = 5.0  # stationary std of the speed process, m/s
    sigma_heading: float = 0.5  # stationary std of the heading process, rad
    t_block: float = 0.010  # s
    init_xy_min: float = 10.0  # m, uniform box for the initial position
    init_xy_max: float = 100.0
    uav_height: float = 200.0  # m

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.speed_min > self.speed_max:
            raise ValueError("speed_min exceeds speed_max")
        for name in ("sigma_speed", "sigma_heading"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} = {getattr(self, name)} must be nonnegative")
        if self.init_xy_min > self.init_xy_max:
            raise ValueError(
                f"init_xy_min = {self.init_xy_min} exceeds init_xy_max = {self.init_xy_max}"
            )


@dataclass(frozen=True)
class FlightState:
    position: Position3
    speed: float  # m/s, in [speed_min, speed_max]
    heading: float  # rad, in (-pi, pi]


def _wrap_angle(phi: float) -> float:
    w = math.remainder(phi, TAU)
    if w <= -math.pi:
        w += TAU
    return w


def _noise_std(cfg: MobilityConfig, sigma: float) -> float:
    return sigma * math.sqrt(1.0 - cfg.rho * cfg.rho)


def velocity_vector(state: FlightState) -> np.ndarray:
    """Planar velocity (vx, vy, 0) in m/s from speed and heading."""
    return state.speed * np.array([math.cos(state.heading), math.sin(state.heading), 0.0])


def sample_initial(cfg: MobilityConfig, rng: np.random.Generator) -> FlightState:
    """Draw the initial state: uniform position box, uniform speed and heading."""
    x, y = rng.uniform(cfg.init_xy_min, cfg.init_xy_max, size=2)
    speed = rng.uniform(cfg.speed_min, cfg.speed_max)
    heading = _wrap_angle(rng.uniform(-math.pi, math.pi))
    return FlightState(
        position=Position3(float(x), float(y), cfg.uav_height),
        speed=float(speed),
        heading=float(heading),
    )


def step(state: FlightState, cfg: MobilityConfig, rng: np.random.Generator) -> FlightState:
    """Advance one block: integrate position, then update speed and heading.

    The position increment uses the pre-update velocity, matching a
    zero-order hold over the block. Speed is clamped to the configured
    band after the autoregression; heading is wrapped to (-pi, pi].
    """
    vel = velocity_vector(state)
    pos = Position3(
        state.position.x + cfg.t_block * vel[0],
        state.position.y + cfg.t_block * vel[1],
        state.position.h,
    )
    eps_v = rng.normal(0.0, _noise_std(cfg, cfg.sigma_speed))
    eps_d = rng.normal(0.0, _noise_std(cfg, cfg.sigma_heading))
    speed = min(max(cfg.rho * state.speed + eps_v, cfg.speed_min), cfg.speed_max)
    heading = _wrap_angle(cfg.rho * state.heading + eps_d)
    return FlightState(position=pos, speed=speed, heading=heading)
