import math

import numpy as np
import pytest

from uavtrack.geometry import Position3
from uavtrack.mobility import FlightState
from uavtrack.sensors import (
    Schedule,
    SensorNoiseConfig,
    derive_velocity,
    egi_measure,
    ground_gps_measure,
)

STATE = FlightState(Position3(30.0, 40.0, 200.0), speed=30.0, heading=0.25)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        SensorNoiseConfig(sigma_gps=-1.0)
    SensorNoiseConfig(sigma_gps=0.0, sigma_ins_pos=0.0, sigma_heading=0.0)


def test_schedule_ratios_and_flags():
    sched = Schedule()
    assert sched.gps_every == 5
    assert sched.ins_every == 2
    assert [k for k in range(20) if sched.gps_due(k)] == [0, 5, 10, 15]
    assert [k for k in range(10) if sched.ins_due(k)] == [0, 2, 4, 6, 8]


def test_schedule_rejects_non_integer_ratio():
    with pytest.raises(ValueError):
        Schedule(t_block=0.010, t_gps=0.033, t_ins=0.020)


def test_schedule_rejects_misordered_periods():
    with pytest.raises(ValueError):
        Schedule(t_block=0.010, t_gps=0.020, t_ins=0.050)


@pytest.mark.parametrize("t_block", [0.0, -0.010])
def test_schedule_rejects_nonpositive_block(t_block):
    with pytest.raises(ValueError, match="t_block must be positive"):
        Schedule(t_block=t_block)


def test_gps_exact_when_noiseless():
    cfg = SensorNoiseConfig(sigma_gps=0.0)
    r = ground_gps_measure(STATE, cfg, np.random.default_rng(0))
    assert r.position == STATE.position
    assert r.heading is None


def test_gps_rms_error():
    cfg = SensorNoiseConfig(sigma_gps=2.0)
    rng = np.random.default_rng(1)
    sq = [
        (r.position.x - 30.0) ** 2 + (r.position.y - 40.0) ** 2
        for r in (ground_gps_measure(STATE, cfg, rng) for _ in range(10_000))
    ]
    rms = math.sqrt(np.mean(sq))
    assert abs(rms - 2.0 * math.sqrt(2.0)) < 0.05 * 2.0 * math.sqrt(2.0)


def test_gps_height_exact():
    cfg = SensorNoiseConfig(sigma_gps=5.0)
    r = ground_gps_measure(STATE, cfg, np.random.default_rng(2))
    assert r.position.h == 200.0


def test_egi_exact_when_noiseless():
    cfg = SensorNoiseConfig(sigma_ins_pos=0.0, sigma_heading=0.0)
    r = egi_measure(STATE, cfg, np.random.default_rng(0))
    assert r.position == STATE.position
    assert r.heading == STATE.heading


def test_egi_heading_noise_std():
    cfg = SensorNoiseConfig(sigma_heading=math.radians(0.01))
    rng = np.random.default_rng(3)
    errs = [egi_measure(STATE, cfg, rng).heading - 0.25 for _ in range(10_000)]
    want = math.radians(0.01)  # 1.745e-4 rad
    assert abs(want - 1.745e-4) < 1e-7
    assert abs(np.std(errs) - want) < 0.05 * want


def test_errors_independent_across_draws():
    cfg = SensorNoiseConfig(sigma_gps=2.0)
    rng = np.random.default_rng(4)
    ex = np.array([ground_gps_measure(STATE, cfg, rng).position.x - 30.0 for _ in range(30_000)])
    ex = ex - ex.mean()
    lag1 = float(ex[1:] @ ex[:-1] / (ex @ ex))
    assert abs(lag1) < 0.05


def test_velocity_differencing():
    a = ground_gps_measure(STATE, SensorNoiseConfig(sigma_gps=0.0), np.random.default_rng(0))
    later = FlightState(Position3(31.5, 40.5, 200.0), 30.0, 0.25)
    b = ground_gps_measure(later, SensorNoiseConfig(sigma_gps=0.0), np.random.default_rng(0))
    vx, vy = derive_velocity(a, b, 0.050)
    assert abs(vx - 30.0) < 1e-9
    assert abs(vy - 10.0) < 1e-9
    with pytest.raises(ValueError):
        derive_velocity(a, b, 0.0)
