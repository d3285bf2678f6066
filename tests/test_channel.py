import math

import numpy as np
import pytest

from uavtrack.beamforming import candidate_set, grid_weights, precoder_from_angle
from uavtrack.channel import (
    ArrayConfig,
    LinkBudget,
    effective_channel,
    measure_beams,
    steering_ula,
    steering_upa,
)
from uavtrack.geometry import SpatialAngles
from uavtrack.metrics import beam_gain

CFG = ArrayConfig()


def _aligned_channel(u=0.1, v=-0.2, u_a=0.3, mu=1.0 + 0.0j):
    return effective_channel(SpatialAngles(u, v, u_a=u_a), precoder_from_angle(u_a, CFG.nu), mu, CFG)


def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(nx=0)
    assert ArrayConfig(nx=4, ny=2).n_ground == 8


def test_link_budget_noise_variance():
    b = LinkBudget(es=2.0, snr_db=20.0)
    assert abs(b.sigma_n2 - 2.0e-2) < 1e-15
    with pytest.raises(ValueError):
        LinkBudget(es=0.0)


@pytest.mark.parametrize("es, snr_db", [(1.0, 4000.0), (1.0, -4000.0), (1e300, -100.0)])
def test_link_budget_rejects_noise_variance_out_of_range(es, snr_db):
    with pytest.raises(ValueError, match=f"snr_db = {snr_db} puts the noise variance"):
        LinkBudget(es=es, snr_db=snr_db)


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
    y = measure_beams(h, w[None, :], LinkBudget(es=1.0, snr_db=200.0), np.random.default_rng(0))
    assert abs(y[0] - math.sqrt(512.0)) < 1e-6


def test_measure_at_null_is_noise_only():
    h = _aligned_channel()
    w = steering_upa(0.1 + 0.25, -0.2, 8, 8) / 8.0
    y = measure_beams(h, w[None, :], LinkBudget(es=1.0, snr_db=200.0), np.random.default_rng(0))
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
    budget = LinkBudget(es=1.0, snr_db=20.0)
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


def _measure_beams_by_norm(heff, weights, budget, rng):
    # measure_beams with np.linalg.norm and np.sqrt, as it was first written
    w = np.atleast_2d(weights)
    s = np.sqrt(budget.es)
    signal = w.conj() @ heff * s
    sig_n = np.sqrt(budget.sigma_n2 / 2.0)
    norms = np.linalg.norm(w, axis=1)
    z = rng.standard_normal((w.shape[0], 2))
    noise = sig_n * norms * (z[:, 0] + 1j * z[:, 1])
    return np.abs(signal + noise)


def test_measure_beams_bitwise_equals_norm_formula():
    rng = np.random.default_rng(31)
    h = _aligned_channel(mu=np.exp(0.4j))
    grid = grid_weights(candidate_set(0.1, -0.2, CFG, 6), CFG, 6)
    scale = rng.uniform(0.01, 7.0, (40, 1))  # rows far from unit norm
    stack = scale * (rng.standard_normal((40, 64)) + 1j * rng.standard_normal((40, 64)))
    for weights in (grid[7], grid, stack, stack[3]):
        for budget in (LinkBudget(es=2.5, snr_db=-3.0), LinkBudget(es=0.3, snr_db=17.3)):
            got = measure_beams(h, weights, budget, np.random.default_rng(5))
            want = _measure_beams_by_norm(h, weights, budget, np.random.default_rng(5))
            assert np.array_equal(got, want)
