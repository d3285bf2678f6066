import math

import numpy as np
import pytest

from uavtrack.mobility import FlightState, MobilityConfig, sample_initial, step, velocity_vector
from uavtrack.geometry import Position3


def _run(cfg, seed, n, state=None):
    rng = np.random.default_rng(seed)
    s = state if state is not None else sample_initial(cfg, rng)
    out = [s]
    for _ in range(n):
        s = step(s, cfg, rng)
        out.append(s)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        MobilityConfig(rho=0.0)
    with pytest.raises(ValueError):
        MobilityConfig(rho=1.1)
    with pytest.raises(ValueError):
        MobilityConfig(speed_min=50.0, speed_max=40.0)
    with pytest.raises(ValueError, match="init_xy_min = 60.0 exceeds init_xy_max = 50.0"):
        MobilityConfig(init_xy_min=60.0, init_xy_max=50.0)
    MobilityConfig(rho=1.0)  # closed upper end allowed


def test_rho_one_zero_noise_is_linear_flight():
    cfg = MobilityConfig(rho=1.0)
    s0 = FlightState(Position3(10.0, 20.0, 200.0), speed=30.0, heading=0.5)
    traj = _run(cfg, 0, 50, state=s0)
    for k, s in enumerate(traj):
        assert s.speed == 30.0
        assert s.heading == 0.5
        assert abs(s.position.x - (10.0 + k * cfg.t_block * 30.0 * math.cos(0.5))) < 1e-9
        assert abs(s.position.y - (20.0 + k * cfg.t_block * 30.0 * math.sin(0.5))) < 1e-9


def test_block_advance_arithmetic():
    cfg = MobilityConfig(rho=1.0)
    s0 = FlightState(Position3(0.0, 0.0, 200.0), speed=30.0, heading=0.0)
    s1 = step(s0, cfg, np.random.default_rng(0))
    assert abs(s1.position.x - 0.30) < 1e-12
    assert s1.position.y == 0.0
    assert s1.position.h == 200.0


def test_velocity_vector():
    s = FlightState(Position3(0, 0, 200.0), speed=10.0, heading=math.pi / 2)
    v = velocity_vector(s)
    assert abs(v[0]) < 1e-12 and abs(v[1] - 10.0) < 1e-12 and v[2] == 0.0


def test_same_seed_bitwise_identical():
    cfg = MobilityConfig()
    a = _run(cfg, 42, 200)
    b = _run(cfg, 42, 200)
    for sa, sb in zip(a, b):
        assert sa == sb


def test_speed_stays_clamped():
    cfg = MobilityConfig(sigma_speed=50.0)
    for s in _run(cfg, 1, 2000):
        assert cfg.speed_min <= s.speed <= cfg.speed_max


def test_heading_stays_wrapped():
    cfg = MobilityConfig(sigma_heading=3.0)
    for s in _run(cfg, 2, 2000):
        assert -math.pi < s.heading <= math.pi


def test_initial_degenerate_box():
    cfg = MobilityConfig(init_xy_min=50.0, init_xy_max=50.0)
    s = sample_initial(cfg, np.random.default_rng(0))
    assert s.position.x == 50.0 and s.position.y == 50.0


def test_initial_bounds_and_mean():
    cfg = MobilityConfig()
    rng = np.random.default_rng(3)
    xs = []
    for _ in range(10_000):
        s = sample_initial(cfg, rng)
        assert 10.0 <= s.position.x <= 100.0
        assert 10.0 <= s.position.y <= 100.0
        assert cfg.speed_min <= s.speed <= cfg.speed_max
        assert -math.pi < s.heading <= math.pi
        assert s.position.h == 200.0
        xs.append(s.position.x)
    assert abs(np.mean(xs) - 55.0) < 1.0


def test_speed_lag1_autocorrelation():
    # wide band so the clamp never binds; the raw AR(1) shows through
    cfg = MobilityConfig(rho=0.99, sigma_speed=5.0, speed_min=-1e9, speed_max=1e9)
    s = FlightState(Position3(0, 0, 200.0), speed=0.0, heading=0.0)
    rng = np.random.default_rng(4)
    v = np.empty(100_000)
    for i in range(len(v)):
        s = step(s, cfg, rng)
        v[i] = s.speed
    v = v - v.mean()
    rho_hat = float(v[1:] @ v[:-1] / (v @ v))
    assert abs(rho_hat - 0.99) < 0.01


def test_stationary_variance_matches_noise_over_one_minus_rho_sq():
    # stationary mode draws noise with variance sigma^2 (1 - rho^2), so the
    # unclamped process variance settles at sigma^2
    rho, sigma = 0.9, 5.0
    cfg = MobilityConfig(rho=rho, sigma_speed=sigma, speed_min=-1e9, speed_max=1e9)
    s = FlightState(Position3(0, 0, 200.0), speed=0.0, heading=0.0)
    rng = np.random.default_rng(5)
    v = np.empty(300_000)
    for i in range(len(v)):
        s = step(s, cfg, rng)
        v[i] = s.speed
    noise_var = sigma**2 * (1 - rho**2)
    assert abs(np.var(v) - noise_var / (1 - rho**2)) < 0.05 * sigma**2

