import math

import numpy as np
import pytest

from uavtrack.beamforming import (
    axis_points,
    build_precoder,
    candidate_set,
    grid_weights,
    precoder_from_angle,
    quantize_phases,
    steer_weights,
)
from uavtrack.channel import ArrayConfig, effective_channel, steering_ula, steering_upa
from uavtrack.geometry import Position3, SpatialAngles
from uavtrack.sensors import SensorReading

CFG = ArrayConfig()


def test_precoder_unit_norm_constant_modulus():
    p = precoder_from_angle(0.37, 8)
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12
    assert np.max(np.abs(np.abs(p) - 1.0 / math.sqrt(8))) < 1e-12


def test_precoder_alignment_peaks_at_truth():
    p = precoder_from_angle(0.37, 8)
    assert abs(abs(steering_ula(0.37, 8) @ p) - math.sqrt(8)) < 1e-12


def test_precoder_single_antenna():
    p = precoder_from_angle(0.9, 1)
    assert abs(abs(steering_ula(-0.3, 1) @ p) - 1.0) < 1e-12


def test_build_precoder_exact_reading():
    # measured position equals truth: steering is exact, alignment sqrt(nu)
    uav = Position3(30.0, 40.0, 200.0)
    gs = Position3(0.0, 0.0, 25.0)
    egi = SensorReading(position=uav, heading=0.25)
    p = build_precoder(egi, gs, CFG)
    from uavtrack.geometry import departure_angle

    true_ua = departure_angle(uav, gs, 0.25)
    h = effective_channel(SpatialAngles(0.1, 0.1, u_a=true_ua), p, 1.0, CFG)
    # ||h|| = |alignment| * sqrt(nx * ny) with |mu| = 1
    assert abs(np.linalg.norm(h) / 8.0 - math.sqrt(8)) < 1e-12


def test_build_precoder_requires_heading():
    egi = SensorReading(position=Position3(30, 40, 200))
    with pytest.raises(ValueError):
        build_precoder(egi, Position3(0, 0, 25), CFG)


def test_alignment_loss_at_small_steering_error():
    p = precoder_from_angle(0.35, 8)
    a = steering_ula(0.30, 8)
    ratio = abs(a @ p) / math.sqrt(8)
    assert abs(ratio - 0.9364517377490459) < 1e-9


def test_candidate_set_default_geometry():
    c = candidate_set(0.1, -0.2, CFG, 6)
    assert len(c.u_values) == len(c.v_values) == 6
    assert c.size == 36
    assert c.points.shape == (36, 2)
    assert abs(c.delta - 2.0 * math.pi / 64.0) < 1e-15
    # the box is seed -/+ 2 / nx, the half main-lobe width
    assert np.array_equal(c.lo, [0.1 - 0.25, -0.2 - 0.25])
    assert np.array_equal(c.hi, [0.1 + 0.25, -0.2 + 0.25])
    assert np.all(c.u_values >= 0.1 - 0.25 - 1e-12)
    assert np.all(c.u_values <= 0.1 + 0.25 + 1e-12)


def test_candidate_counts_over_phase_bits():
    counts = [len(candidate_set(0.0, 0.0, CFG, l).u_values) for l in (4, 5, 6, 7, 8)]
    assert counts == [2, 3, 6, 11, 21]
    assert [axis_points(CFG, l) for l in (4, 5, 6, 7, 8)] == counts
    # counted without a grid; past the float range inf, not an OverflowError
    assert axis_points(CFG, 40) == 87496355274
    assert axis_points(CFG, 1024) == axis_points(CFG, 10**12) == math.inf


def test_candidate_endpoints_when_step_spans_grid():
    # 4 bits: one step of 2 pi / 16 fits in the 0.5-wide box, not two
    c = candidate_set(0.0, 0.0, CFG, 4)
    assert len(c.u_values) == 2
    assert c.u_values[0] == c.lo[0] == -0.25
    assert c.u_values[1] == -0.25 + c.delta < c.hi[0]


def test_candidate_grid_clips_to_unit_interval():
    c = candidate_set(0.99, 0.0, CFG, 6)
    assert c.u_values.max() <= 1.0
    with pytest.raises(ValueError):
        candidate_set(1.5, 0.0, CFG, 6)


@pytest.mark.parametrize(
    "seed_u, degenerate",
    [(1.2, False), (-1.2, False), (1.5, True), (-1.5, True), (math.inf, True), (math.nan, True)],
)
def test_candidate_grid_degenerates_when_one_value_is_left(seed_u, degenerate):
    # the box reaches 0.25 past the seed: 1.2 keeps a strip inside [-1, 1],
    # 1.5 clips every value onto the edge, and a NaN seed has no value at all
    if degenerate:
        with pytest.raises(ValueError, match="degenerates"):
            candidate_set(seed_u, 0.0, CFG, 6)
    else:
        assert len(np.unique(candidate_set(seed_u, 0.0, CFG, 6).u_values)) >= 2


def test_candidate_points_row_major():
    c = candidate_set(0.1, -0.2, CFG, 6)
    pts = c.points
    g_axis = len(c.v_values)
    for i in range(len(c.u_values)):
        for j in range(g_axis):
            assert pts[i * g_axis + j, 0] == c.u_values[i]
            assert pts[i * g_axis + j, 1] == c.v_values[j]


def test_steer_weights_center():
    w = steer_weights(0.0, 0.0, CFG)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    assert np.max(np.abs(np.angle(w))) < 1e-12


def test_steer_weights_gain_at_pointing_angle():
    w = steer_weights(0.3, -0.4, CFG)
    a = steering_upa(0.3, -0.4, 8, 8)
    assert abs(abs(np.vdot(w, a)) - 8.0) < 1e-12


def test_quantize_phase_lattice_and_error_bound():
    rng = np.random.default_rng(0)
    step = 2.0 * math.pi / 64.0
    for _ in range(50):
        u, v = rng.uniform(-0.9, 0.9, 2)
        w = steer_weights(u, v, CFG, phase_bits=6)
        ph = np.angle(w)
        assert np.max(np.abs(ph / step - np.round(ph / step))) < 1e-9
        wu = steer_weights(u, v, CFG)
        err = np.angle(w * wu.conj())
        assert np.max(np.abs(err)) <= math.pi / 64.0 + 1e-12
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12


@pytest.mark.parametrize("nx, ny", [(nx, ny) for nx in range(1, 9) for ny in range(1, 9)])
def test_every_beam_is_unit_norm(nx, ny):
    # measure_beams and spectral_efficiency take ||w|| = 1 from here
    cfg = ArrayConfig(nx, ny, 8)
    rng = np.random.default_rng(nx * 8 + ny)
    eps = np.finfo(float).eps
    for bits in (None, *range(1, 9)):
        u, v = rng.uniform(-1.0, 1.0, (2, 5))
        for w in (
            steer_weights(float(u[0]), float(v[0]), cfg, bits),
            steer_weights(u[:, None], v[None, :4], cfg, bits),
        ):
            assert w.shape[-1] == nx * ny
            assert np.max(np.abs(np.linalg.norm(w, axis=-1) - 1.0)) <= 4 * eps


def test_quantize_idempotent_on_lattice():
    w = steer_weights(0.25, 0.125, CFG, phase_bits=6)
    again = quantize_phases(w, 6)
    assert np.max(np.abs(w - again)) < 1e-12


def test_quantized_gain_within_half_percent():
    rng = np.random.default_rng(1)
    for _ in range(300):
        u, v = rng.uniform(-0.6, 0.6, 2)
        a = steering_upa(u, v, 8, 8)
        ratio = abs(np.vdot(steer_weights(u, v, CFG, 6), a)) / abs(
            np.vdot(steer_weights(u, v, CFG), a)
        )
        assert ratio >= 0.995


def test_grid_weights_matches_per_point_construction():
    c = candidate_set(0.123, -0.321, CFG, 6)
    for bits in (None, 6):
        stack = grid_weights(c, CFG, bits)
        ref = np.array([steer_weights(u, v, CFG, bits) for u, v in c.points])
        assert np.array_equal(stack, ref)


@pytest.mark.parametrize("bits", [4, 5, 6, 7, 8])
def test_grid_weights_from_axis_responses_equal_steer_weights_on_points(bits):
    # random seeds and arrays, some seeds past the horizon so the grid clips
    rng = np.random.default_rng(bits)
    for _ in range(40):
        cfg = ArrayConfig(*rng.integers(2, 9, 2), 8)
        u, v = rng.uniform(-1.05, 1.05, 2)
        try:
            c = candidate_set(u, v, cfg, bits)
        except ValueError:  # clipped down to one value
            continue
        for q in (None, bits):
            ref = steer_weights(c.points[:, 0], c.points[:, 1], cfg, q)
            assert np.array_equal(grid_weights(c, cfg, q), ref)


def test_array_valued_cosines_equal_scalar_calls():
    rng = np.random.default_rng(4)
    u, v = rng.uniform(-0.9, 0.9, (2, 3, 5))
    a = steering_upa(u, v, 8, 4)
    assert a.shape == (3, 5, 32)
    assert steering_ula(u, 8).shape == (3, 5, 8)
    for bits in (None, 3, 6):
        w = steer_weights(u, v, CFG, bits)
        assert w.shape == (3, 5, 64)
        for i, j in np.ndindex(u.shape):
            assert np.array_equal(a[i, j], steering_upa(u[i, j], v[i, j], 8, 4))
            assert np.array_equal(w[i, j], steer_weights(float(u[i, j]), float(v[i, j]), CFG, bits))


def test_kronecker_index_consistency():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u, v, u0, v0 = rng.uniform(-0.8, 0.8, 4)
        flat = np.vdot(steering_upa(u0, v0, 8, 8), steering_upa(u, v, 8, 8))
        factored = np.vdot(steering_ula(u0, 8), steering_ula(u, 8)) * np.vdot(
            steering_ula(v0, 8), steering_ula(v, 8)
        )
        assert abs(flat - factored) < 1e-9


def test_noiseless_grid_argmax_is_nearest_point():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        seed_u, seed_v = rng.uniform(-0.4, 0.4, 2)
        tu = seed_u + rng.uniform(-0.25, 0.25)
        tv = seed_v + rng.uniform(-0.25, 0.25)
        h = effective_channel(
            SpatialAngles(tu, tv, u_a=0.3), precoder_from_angle(0.3, 8), 1.0, CFG
        )
        c = candidate_set(seed_u, seed_v, CFG, 6)
        surf = np.abs(grid_weights(c, CFG).conj() @ h)
        pick = c.points[int(np.argmax(surf))]
        assert pick[0] == c.u_values[np.argmin(np.abs(c.u_values - tu))]
        assert pick[1] == c.v_values[np.argmin(np.abs(c.v_values - tv))]
