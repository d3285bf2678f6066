"""Flight sensor models and the measurement schedule.

Two sources feed the tracker: a ground-station-side GPS fix of the UAV
(horizontal position, with velocity derived by differencing consecutive
fixes) and the UAV's own navigation unit (position plus heading). Both
report on their own periods, which must be integer multiples of the
transmission block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Position3
from .mobility import FlightState

__all__ = [
    "SensorNoiseConfig",
    "Schedule",
    "SensorReading",
    "ground_gps_measure",
    "egi_measure",
    "derive_velocity",
]


@dataclass(frozen=True)
class SensorNoiseConfig:
    sigma_gps: float = 2.0  # m, per horizontal axis
    sigma_ins_pos: float = 0.0  # m, per horizontal axis
    sigma_heading: float = math.radians(0.01)  # rad

    def __post_init__(self):
        if min(self.sigma_gps, self.sigma_ins_pos, self.sigma_heading) < 0.0:
            raise ValueError("noise levels must be nonnegative")


def _ratio(period: float, base: float, name: str) -> int:
    k = period / base
    if abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise ValueError(f"{name} = {period} is not an integer multiple of the block {base}")
    return int(round(k))


@dataclass(frozen=True)
class Schedule:
    """Block clock t_block with sensor periods t_gps and t_ins, seconds."""

    t_block: float = 0.010
    t_gps: float = 0.050
    t_ins: float = 0.020

    def __post_init__(self):
        if self.t_block <= 0.0:
            raise ValueError(f"t_block must be positive, got {self.t_block}")
        _ratio(self.t_gps, self.t_block, "t_gps")
        _ratio(self.t_ins, self.t_block, "t_ins")
        if not self.t_block <= self.t_ins <= self.t_gps:
            raise ValueError("periods must satisfy t_block <= t_ins <= t_gps")

    @property
    def gps_every(self) -> int:
        return _ratio(self.t_gps, self.t_block, "t_gps")

    @property
    def ins_every(self) -> int:
        return _ratio(self.t_ins, self.t_block, "t_ins")

    def gps_due(self, block: int) -> bool:
        return block % self.gps_every == 0

    def ins_due(self, block: int) -> bool:
        return block % self.ins_every == 0


@dataclass(frozen=True)
class SensorReading:
    """One sensor output; truth is never stored here. Only navigation-unit
    readings carry a heading."""

    position: Position3
    heading: float | None = None


def ground_gps_measure(
    state: FlightState, cfg: SensorNoiseConfig, rng: np.random.Generator
) -> SensorReading:
    """GPS fix of the UAV: horizontal position plus per-axis Gaussian noise.

    Height is reported exactly; horizontal errors dominate at the
    altitudes of interest. Velocity comes from differencing two fixes with
    derive_velocity.
    """
    ex, ey = rng.normal(0.0, cfg.sigma_gps, size=2)
    pos = Position3(state.position.x + float(ex), state.position.y + float(ey), state.position.h)
    return SensorReading(position=pos)


def egi_measure(
    state: FlightState, cfg: SensorNoiseConfig, rng: np.random.Generator
) -> SensorReading:
    """Navigation-unit reading: own position and heading."""
    ex, ey = rng.normal(0.0, cfg.sigma_ins_pos, size=2)
    eh = rng.normal(0.0, cfg.sigma_heading)
    pos = Position3(state.position.x + float(ex), state.position.y + float(ey), state.position.h)
    heading = state.heading + float(eh)
    return SensorReading(position=pos, heading=heading)


def derive_velocity(prev: SensorReading, cur: SensorReading, t_gps: float) -> tuple[float, float]:
    """Horizontal velocity from two consecutive GPS fixes, m/s."""
    if t_gps <= 0.0:
        raise ValueError("t_gps must be positive")
    return (
        (cur.position.x - prev.position.x) / t_gps,
        (cur.position.y - prev.position.y) / t_gps,
    )
