import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reference import Attitude, rotation_matrix
from uavtrack.geometry import Position3, arrival_angles, departure_angle, position_from_angles

GS = Position3(0.0, 0.0, 25.0)
UAV = Position3(0.0, 0.0, 200.0)  # gs - UAV is the station's offset (x, y, -175)


def test_rotation_identity_at_zero():
    assert np.allclose(rotation_matrix(Attitude()), np.eye(3), atol=1e-15)


def test_rotation_quarter_yaw_maps_x_to_minus_y():
    r = rotation_matrix(Attitude(yaw=math.pi / 2))
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-12)


def test_rotation_orthonormal_proper():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        yaw, pitch, roll = rng.uniform(-math.pi, math.pi, size=3)
        r = rotation_matrix(Attitude(yaw=yaw, pitch=pitch, roll=roll))
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_arrival_zenith():
    a = arrival_angles(Position3(0.0, 0.0, 200.0), GS)
    assert a.u == 0.0 and a.v == 0.0


def test_arrival_worked_example():
    a = arrival_angles(Position3(30.0, 40.0, 200.0), GS)
    assert abs(a.u - 0.16483267673842683) < 1e-12
    assert abs(a.v - 0.21977690231790245) < 1e-12


def test_arrival_coincident_raises():
    with pytest.raises(ValueError):
        arrival_angles(GS, GS)


def test_position_from_angles_center():
    p = position_from_angles(0.0, 0.0, 175.0)
    assert p.x == 0.0 and p.y == 0.0 and p.h == 175.0


def test_position_from_angles_worked_example():
    # inputs rounded to five decimals land within a couple of millimeters
    p = position_from_angles(0.16484, 0.21978, 175.0)
    assert abs(p.x - 30.0) < 2e-3
    assert abs(p.y - 40.0) < 2e-3
    exact = arrival_angles(Position3(30.0, 40.0, 200.0), GS)
    q = position_from_angles(exact.u, exact.v, 175.0)
    assert abs(q.x - 30.0) < 1e-9
    assert abs(q.y - 40.0) < 1e-9


def test_position_from_angles_horizon_raises():
    with pytest.raises(ValueError):
        position_from_angles(0.8, 0.7, 175.0)
    with pytest.raises(ValueError):
        position_from_angles(0.1, 0.1, 0.0)


def test_reference_operating_point_roundtrip():
    p = position_from_angles(0.1504, 0.0868, 175.0)
    a = arrival_angles(Position3(p.x, p.y, 200.0), GS)
    assert abs(a.u - 0.1504) < 1e-9
    assert abs(a.v - 0.0868) < 1e-9


@given(
    st.floats(-0.99, 0.99),
    st.floats(-0.99, 0.99),
)
def test_roundtrip_property(u, v):
    if u * u + v * v > 0.99:
        return
    p = position_from_angles(u, v, 175.0)
    a = arrival_angles(Position3(p.x, p.y, 200.0), GS)
    assert abs(a.u - u) < 1e-9
    assert abs(a.v - v) < 1e-9


def test_departure_forward_unity():
    assert abs(departure_angle(UAV, Position3(50.0, 0.0, 25.0), 0.0) - 1.0) < 1e-12


def test_departure_broadside_zero():
    assert abs(departure_angle(UAV, Position3(0.0, 50.0, 25.0), 0.0)) < 1e-12


def test_departure_worked_example():
    # azimuth 30 degrees plus heading 15 degrees -> cos(45 degrees)
    g = Position3(50.0 * math.cos(math.radians(30)), 50.0 * math.sin(math.radians(30)), 25.0)
    u_a = departure_angle(UAV, g, math.radians(15))
    assert abs(u_a - math.cos(math.pi / 4)) < 1e-12


def test_departure_degenerate_raises():
    with pytest.raises(ValueError):
        departure_angle(UAV, Position3(0.0, 0.0, 25.0), 0.0)


@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
def test_departure_bounded(heading, az):
    g = Position3(40.0 * math.cos(az), 40.0 * math.sin(az), 25.0)
    assert abs(departure_angle(UAV, g, heading)) <= 1.0


def _departure_of_offset(g: Position3, heading: float) -> float:
    # the formula as it stood when departure_angle took the offset gs - uav
    gx, gy = g.x, g.y
    if gx == 0.0 and gy == 0.0:
        raise ValueError("ground station projects onto the a-frame origin")
    if gx < 0.0:
        gx, gy = -gx, -gy
    return math.cos(math.atan2(gy, gx) + heading)


_coord = st.floats(-1e4, 1e4, allow_nan=False)


@given(_coord, _coord, _coord, _coord, st.floats(-math.pi, math.pi))
@example(30.0, -40.0, 30.0, -40.0, 0.5)  # the station straight below
def test_departure_from_positions_equals_offset_formula(ux, uy, gx, gy, heading):
    uav, gs = Position3(ux, uy, 200.0), Position3(gx, gy, 25.0)
    offset = Position3(gs.x - uav.x, gs.y - uav.y, gs.h - uav.h)
    try:
        want = _departure_of_offset(offset, heading)
    except ValueError:
        with pytest.raises(ValueError):
            departure_angle(uav, gs, heading)
        return
    assert departure_angle(uav, gs, heading) == want
