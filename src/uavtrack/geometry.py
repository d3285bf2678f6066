"""Coordinate frames and spatial-angle conversions.

Three frames are used throughout:

* n-frame: fixed navigation frame, x/y horizontal in meters, h up.
* u-frame: UAV-carried frame, axes parallel to the n-frame, origin at the
  UAV antenna center.
* a-frame: UAV body frame. The UAV flies level, so this is the u-frame
  rotated by its heading about h.

The ground station's planar array sees the UAV under the direction cosines
(u, v); the UAV's linear array sees the ground station under the departure
cosine u_a measured from the body x-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Position3",
    "SpatialAngles",
    "arrival_angles",
    "departure_angle",
    "position_from_angles",
]


@dataclass(frozen=True)
class Position3:
    """Point in the n-frame: horizontal x, y and height h, all in meters."""

    x: float
    y: float
    h: float


@dataclass(frozen=True)
class SpatialAngles:
    """Direction cosines (u, v) at the planar array, optionally the
    departure cosine u_a at the linear array."""

    u: float
    v: float
    u_a: float | None = None


def arrival_angles(uav_pos: Position3, gs_pos: Position3) -> SpatialAngles:
    """Direction cosines of the UAV as seen by the ground station array.

    u = dx / r and v = dy / r with r = sqrt(dx^2 + dy^2 + dh^2), where
    (dx, dy, dh) is the UAV position relative to the ground station. The
    height difference dh keeps u^2 + v^2 strictly below one whenever the
    UAV flies above (or below) the array.

    Parameters
    ----------
    uav_pos, gs_pos : Position3
        Both in the n-frame.

    Returns
    -------
    SpatialAngles
        With u_a left unset.
    """
    dx = uav_pos.x - gs_pos.x
    dy = uav_pos.y - gs_pos.y
    dh = uav_pos.h - gs_pos.h
    r2 = dx * dx + dy * dy + dh * dh
    if r2 == 0.0:
        raise ValueError("UAV and ground station positions coincide")
    r = math.sqrt(r2)
    return SpatialAngles(u=dx / r, v=dy / r)


def departure_angle(uav_pos: Position3, gs_pos: Position3, heading: float) -> float:
    """Departure cosine u_a of the ground station from the UAV body array.

    The UAV flies level with its body x-axis along its course, so the
    body frame is the u-frame rotated by the heading angle. The azimuth of
    the ground station is the two-quadrant arctangent of its horizontal
    offset gs_pos - uav_pos; for a body-axis linear array only the
    azimuth offset is observable.

    Parameters
    ----------
    uav_pos, gs_pos : Position3
        Both in the n-frame.
    heading : float
        Course angle of the velocity vector, radians.

    Returns
    -------
    float
        u_a = cos(azimuth + heading), in [-1, 1].
    """
    gx, gy = gs_pos.x - uav_pos.x, gs_pos.y - uav_pos.y
    if gx == 0.0 and gy == 0.0:
        raise ValueError("ground station projects onto the a-frame origin")
    if gx < 0.0:
        gx, gy = -gx, -gy
    phi = math.atan2(gy, gx)
    return math.cos(phi + heading)


def position_from_angles(u: float, v: float, delta_h: float) -> Position3:
    """Invert arrival_angles for a known height difference.

    x = u * dh / w and y = v * dh / w with w = sqrt(1 - u^2 - v^2). The
    returned position is relative to the ground station, so its h field
    equals delta_h.

    Parameters
    ----------
    u, v : float
        Direction cosines with u^2 + v^2 < 1.
    delta_h : float
        UAV height above the ground station, meters, nonzero.

    Returns
    -------
    Position3
        Offsets (x, y, delta_h) from the ground station.
    """
    s = u * u + v * v
    if s >= 1.0:
        raise ValueError(f"u^2 + v^2 = {s:.6f} is not inside the unit disk")
    if delta_h == 0.0:
        raise ValueError("height difference must be nonzero to invert the projection")
    w = math.sqrt(1.0 - s)
    return Position3(x=u * delta_h / w, y=v * delta_h / w, h=delta_h)
