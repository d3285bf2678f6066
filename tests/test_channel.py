import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavtrack.beamforming import candidate_set, grid_weights, precoder_from_angle, steer_weights
from uavtrack.channel import (
    ArrayConfig,
    BeamSounder,
    LinkBudget,
    effective_channel,
    measure_beams,
    steering_ula,
    steering_upa,
)
from uavtrack.geometry import SpatialAngles
from uavtrack.metrics import beam_gain, realized_gain

CFG = ArrayConfig()


def _aligned_channel(u=0.1, v=-0.2, u_a=0.3, mu=1.0 + 0.0j):
    return effective_channel(SpatialAngles(u, v, u_a=u_a), precoder_from_angle(u_a, CFG.nu), mu, CFG)


def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(nx=0)
    assert ArrayConfig(nx=4, ny=2).n_ground == 8


def test_link_budget_noise_variance():
    b = LinkBudget(snr_db=20.0)
    assert abs(b.sigma_n2 - 1.0e-2) < 1e-15


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
def test_link_budget_rejects_noise_variance_out_of_range(snr_db):
    with pytest.raises(ValueError, match=f"snr_db = {snr_db} puts the noise variance"):
        LinkBudget(snr_db=snr_db)


def test_steering_upa_broadside_is_ones():
    a = steering_upa(0.0, 0.0, 8, 8)
    assert a.shape == (64,)
    assert np.allclose(a, 1.0)


def test_steering_upa_entry_formula():
    u, v = 0.37, -0.12
    a = steering_upa(u, v, 8, 8)
    for m, n in ((0, 0), (1, 0), (0, 1), (3, 5), (7, 7)):
        want = np.exp(-1j * math.pi * (m * u + n * v))
        assert abs(a[m * 8 + n] - want) < 1e-12


def test_steering_upa_norm():
    assert abs(np.linalg.norm(steering_upa(0.3, 0.4, 8, 8)) - 8.0) < 1e-12


def test_steering_ula_basics():
    assert np.allclose(steering_ula(0.0, 8), 1.0)
    assert np.allclose(steering_ula(1.0, 2), [1.0, -1.0])
    a = steering_ula(0.41, 16)
    assert abs(np.vdot(a, a).real - 16.0) < 1e-12


def test_effective_channel_requires_departure_cosine():
    with pytest.raises(ValueError):
        effective_channel(SpatialAngles(0.1, 0.1), precoder_from_angle(0.0, 8), 1.0, CFG)


# |mu| = 1 and ||a_g|| = sqrt(nx * ny) = 8, so ||h|| = 8 |alignment|


def test_alignment_at_truth_is_sqrt_nu():
    h = _aligned_channel()
    assert abs(np.linalg.norm(h) / 8.0 - math.sqrt(8)) < 1e-12
    assert abs(np.linalg.norm(h) / 8.0 - 2.8284271247461903) < 1e-12


def test_alignment_at_first_null_is_zero():
    ang = SpatialAngles(0.1, -0.2, u_a=0.3)
    f = precoder_from_angle(0.3 + 2.0 / 8.0, CFG.nu)
    h = effective_channel(ang, f, 1.0, CFG)
    assert np.linalg.norm(h) / 8.0 < 1e-12


def test_alignment_small_error_dirichlet_value():
    # |sum_k exp(j pi k 0.05)| = 7.491613901992367 over 8 elements; the
    # unit-norm precoder divides that by sqrt(8)
    ang = SpatialAngles(0.1, -0.2, u_a=0.3)
    f = precoder_from_angle(0.3 + 0.05, CFG.nu)
    h = effective_channel(ang, f, 1.0, CFG)
    assert abs(np.linalg.norm(h) / 8.0 - 7.491613901992367 / math.sqrt(8)) < 1e-9


def test_effective_vector_structure():
    mu = np.exp(1j * 0.7)
    h = _aligned_channel(mu=mu)
    alignment = steering_ula(0.3, 8) @ precoder_from_angle(0.3, 8)
    want = mu * alignment * steering_upa(0.1, -0.2, 8, 8)
    assert h.shape == (64,)
    assert np.max(np.abs(h - want)) < 1e-12


def test_measure_noiseless_coherent_limit():
    h = _aligned_channel()
    w = steering_upa(0.1, -0.2, 8, 8) / 8.0
    y = measure_beams(h, w[None, :], LinkBudget(snr_db=200.0), np.random.default_rng(0))
    assert abs(y[0] - math.sqrt(512.0)) < 1e-6


def test_measure_at_null_is_noise_only():
    h = _aligned_channel()
    w = steering_upa(0.1 + 0.25, -0.2, 8, 8) / 8.0
    y = measure_beams(h, w[None, :], LinkBudget(snr_db=200.0), np.random.default_rng(0))
    assert y[0] < 1e-6


def test_measure_deterministic_given_seed():
    h = _aligned_channel()
    cands = candidate_set(0.1, -0.2, CFG, 6)
    weights = grid_weights(cands, CFG)
    budget = LinkBudget()
    y1 = measure_beams(h, weights, budget, np.random.default_rng(9))
    y2 = measure_beams(h, weights, budget, np.random.default_rng(9))
    assert np.array_equal(y1, y2)


def test_rician_mean_against_direct_oracle():
    # aligned beam at SNR 20 dB: signal magnitude sqrt(512), projected noise
    # CN(0, sigma_n^2); compare the sampler against a direct 1e6-draw oracle
    h = _aligned_channel()
    w = steering_upa(0.1, -0.2, 8, 8) / 8.0
    budget = LinkBudget(snr_db=20.0)
    rng = np.random.default_rng(2)
    n = 20_000
    ys = measure_beams(h, np.tile(w, (n, 1)), budget, rng)
    oracle_rng = np.random.default_rng(3)
    z = oracle_rng.standard_normal((1_000_000, 2))
    noise = math.sqrt(budget.sigma_n2 / 2.0) * (z[:, 0] + 1j * z[:, 1])
    oracle = np.mean(np.abs(math.sqrt(512.0) + noise))
    assert abs(np.mean(ys) - oracle) < 0.02 * oracle


def test_closed_form_gain_matches_inner_product():
    rng = np.random.default_rng(4)
    for _ in range(200):
        u, v = rng.uniform(-0.6, 0.6, 2)
        du, dv = rng.uniform(-0.2, 0.2, 2)
        h = _aligned_channel(u=u, v=v)
        w = steering_upa(u + du, v + dv, 8, 8) / 8.0
        direct = abs(np.vdot(w, h))
        assert abs(direct - beam_gain(du, dv, CFG)) < 1e-10


def test_grid_surface_unimodal():
    rng = np.random.default_rng(5)
    for _ in range(200):
        seed_u, seed_v = rng.uniform(-0.4, 0.4, 2)
        tu = seed_u + rng.uniform(-0.2, 0.2)
        tv = seed_v + rng.uniform(-0.2, 0.2)
        h = _aligned_channel(u=tu, v=tv)
        cands = candidate_set(seed_u, seed_v, CFG, 6)
        surf = np.abs(grid_weights(cands, CFG).conj() @ h)
        top = np.sort(surf)
        assert top[-1] > top[-2] + 1e-12


def test_measure_beams_bitwise_equals_unit_norm_formula():
    # the noise is not scaled by ||w||: every beam the package builds is unit-norm
    h = _aligned_channel(mu=np.exp(0.4j))
    grid = grid_weights(candidate_set(0.1, -0.2, CFG, 6), CFG, 6)
    for weights in (grid[7], grid, steer_weights(0.05, -0.15, CFG)):
        w = np.atleast_2d(weights)
        for budget in (LinkBudget(snr_db=-3.0), LinkBudget(snr_db=17.3)):
            got = measure_beams(h, weights, budget, np.random.default_rng(5))
            z = np.random.default_rng(5).standard_normal((len(w), 2))
            noise = np.sqrt(budget.sigma_n2 / 2.0) * (z[:, 0] + 1j * z[:, 1])
            want = np.abs(w.conj() @ h + noise)
            assert np.array_equal(got, want)


_COSINE = st.floats(-1.0, 1.0)


@settings(max_examples=150)
@given(
    cfg=st.sampled_from([ArrayConfig(8, 8), ArrayConfig(4, 6), ArrayConfig(8, 3)]),
    seed=st.integers(0, 2**32 - 1),
    rank_one=st.booleans(),
    snr_db=st.floats(0.0, 30.0),
    u=st.lists(_COSINE, min_size=1, max_size=5),
    v=st.lists(_COSINE, min_size=1, max_size=5),
)
def test_sounder_is_measure_beams_on_steered_beams(cfg, seed, rank_one, snr_db, u, v):
    # one point and a grid of random cosines, against the steered weight
    # stack measure_beams sounds; the generators must agree on their next
    # draw afterwards, so the sounder takes the same normals. The noiseless
    # response, checked last, is the identity itself.
    g = np.random.default_rng(seed)
    if rank_one:
        ua = g.uniform(-1.0, 1.0)
        angles = SpatialAngles(g.uniform(-1.0, 1.0), g.uniform(-1.0, 1.0), u_a=ua)
        heff = effective_channel(angles, precoder_from_angle(ua + 0.1, cfg.nu), np.exp(2j), cfg)
    else:
        heff = g.standard_normal(cfg.n_ground) + 1j * g.standard_normal(cfg.n_ground)
    budget = LinkBudget(snr_db=snr_db)
    u, v = np.array(u), np.array(v)
    # roundoff of either sum scales with ||h||, not with a magnitude near a null
    floor = 1e-12 * np.linalg.norm(heff)
    cases = [
        (lambda s: s.point(u[0], v[0]), steer_weights(u[0], v[0], cfg)),
        (lambda s: s.grid(u, v), steer_weights(u[:, None], v[None, :], cfg).reshape(-1, cfg.n_ground)),
    ]
    for sound, weights in cases:
        mine, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = sound(BeamSounder(heff, cfg, budget, mine))
        want = measure_beams(heff, weights, budget, theirs)
        assert np.shape(got) == (() if weights.ndim == 1 else want.shape)
        assert np.allclose(got, want, rtol=1e-12, atol=floor)
        assert mine.standard_normal() == theirs.standard_normal()
    sounder = BeamSounder(heff, cfg, budget, np.random.default_rng(seed))
    for a, b in zip(u, v):
        want = realized_gain(steer_weights(a, b, cfg), heff)
        assert math.isclose(abs(sounder._response(a, b)), want, rel_tol=1e-12, abs_tol=floor)

