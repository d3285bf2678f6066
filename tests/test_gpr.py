import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import likelihood_gradient, log_marginal_likelihood
from uavtrack import gpr
from uavtrack import tracking as tr
from uavtrack.gpr import (
    Hyperparams,
    default_init,
    fit_hyperparams,
    kernel,
    make_model,
    posterior,
    posterior_mean_gradient,
)

HP = Hyperparams(sigma_s=1.2, lengthscales=(0.15, 0.2), sigma_n=0.1)


def _random_set(rng, n=10):
    x = rng.uniform(-0.3, 0.3, (n, 2))
    y = rng.standard_normal(n)
    return x, y


def _sample_surface(rng, x, hp):
    # draw targets from the model's own prior so fits have something to find
    k = kernel(x, x, hp) + 1e-12 * np.eye(len(x))
    f = np.linalg.cholesky(k) @ rng.standard_normal(len(x))
    return f + hp.sigma_n * rng.standard_normal(len(x))


def _perturbed(hp, idx, eps):
    v = hp.as_vector()
    v[idx] += eps
    return Hyperparams(sigma_s=v[0], lengthscales=(v[1], v[2]), sigma_n=v[3])


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(sigma_s=0.0, lengthscales=(0.1, 0.1), sigma_n=0.1)
    with pytest.raises(ValueError):
        Hyperparams(sigma_s=1.0, lengthscales=(0.1, -0.1), sigma_n=0.1)
    with pytest.raises(ValueError):
        Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.1), sigma_n=-0.1)
    Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.1), sigma_n=0.0)


def test_kernel_diagonal_is_signal_variance():
    x = np.array([[0.1, -0.2], [0.0, 0.3]])
    k = kernel(x, x, HP)
    assert np.max(np.abs(np.diag(k) - HP.sigma_s**2)) < 1e-12


def test_kernel_one_lengthscale_away():
    hp = Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.2), sigma_n=0.0)
    k = kernel(np.array([[0.0, 0.0]]), np.array([[0.1, 0.0]]), hp)
    assert abs(k[0, 0] - 0.6065306597126334) < 1e-12
    k = kernel(np.array([[0.0, 0.0]]), np.array([[0.0, 0.2]]), hp)
    assert abs(k[0, 0] - 0.6065306597126334) < 1e-12


def test_kernel_decays_with_distance_and_is_symmetric():
    rng = np.random.default_rng(0)
    x, _ = _random_set(rng, 12)
    k = kernel(x, x, HP)
    assert np.max(np.abs(k - k.T)) < 1e-12
    d = kernel(np.zeros((1, 2)), np.array([[0.05, 0.0], [0.10, 0.0], [0.20, 0.0]]), HP)[0]
    assert d[0] > d[1] > d[2]


def test_kernel_at_one_point_is_the_matrix_column_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in range(1, 91):
        x = rng.uniform(-1.0, 1.0, (n, 2))
        p = rng.uniform(-1.0, 1.0, 2)
        hp = Hyperparams(
            sigma_s=float(rng.uniform(0.01, 10.0)),
            lengthscales=tuple(rng.uniform(0.01, 2.0, 2).tolist()),
            sigma_n=0.1,
        )
        col = kernel(x, p, hp)
        assert col.shape == (n,)
        assert np.array_equal(col, kernel(x, p[None], hp)[:, 0])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    sigma_s=st.floats(0.01, 10.0),
    ell_u=st.floats(0.01, 2.0),
    ell_v=st.floats(0.01, 2.0),
)
# an ell whose ell ** 2 is one ulp off ell * ell
@example(seed=7, n=20, sigma_s=1.3, ell_u=0.15295623654813156, ell_v=0.15295623654813156)
def test_kernel_is_the_fits_gram_matrix_bit_for_bit(seed, n, sigma_s, ell_u, ell_v):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    hp = Hyperparams(sigma_s=sigma_s, lengthscales=(ell_u, ell_v), sigma_n=0.1)
    gram = gpr._Objective(x, rng.standard_normal(n)).gram(sigma_s, hp.lengthscales)
    assert np.array_equal(kernel(x, x, hp), gram)
    for i in range(n):
        assert np.array_equal(kernel(x, x[i], hp), gram[:, i])


def test_kernel_gram_near_psd():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, _ = _random_set(rng, 15)
        k = kernel(x, x, HP)
        assert np.min(np.linalg.eigvalsh(k)) >= -1e-10 * HP.sigma_s**2


def test_lml_single_zero_point():
    x = np.array([[0.0, 0.0]])
    y = np.array([0.0])
    for hp in (
        Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.1), sigma_n=0.0),
        Hyperparams(sigma_s=0.8, lengthscales=(0.1, 0.1), sigma_n=0.6),
    ):
        assert abs(log_marginal_likelihood(x, y, hp) - (-0.9189385332046727)) < 1e-8


def test_lml_duplicate_inputs_penalize_mismatched_outputs():
    # at equal inputs and a fixed common mean, any output split lowers the
    # likelihood whenever sigma_n > 0
    x = np.array([[0.1, -0.2], [0.1, -0.2]])
    rng = np.random.default_rng(2)
    for _ in range(200):
        center = rng.normal()
        half_gap = rng.uniform(0.01, 2.0)
        hp = Hyperparams(
            sigma_s=rng.uniform(0.3, 2.0),
            lengthscales=(0.1, 0.1),
            sigma_n=rng.uniform(0.05, 1.0),
        )
        matched = log_marginal_likelihood(x, np.array([center, center]), hp)
        split = log_marginal_likelihood(
            x, np.array([center + half_gap, center - half_gap]), hp
        )
        assert split < matched


def test_lml_permutation_invariant():
    rng = np.random.default_rng(3)
    x, y = _random_set(rng)
    perm = rng.permutation(len(y))
    a = log_marginal_likelihood(x, y, HP)
    b = log_marginal_likelihood(x[perm], y[perm], HP)
    assert abs(a - b) < 1e-9


def test_likelihood_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    h = 1e-6
    # 20 small sets, then campaign-sized ones (a grid sweep has 36-86 points)
    for n in [10] * 20 + [36, 86] * 3:
        x, y = _random_set(rng, n)
        hp = Hyperparams(
            sigma_s=rng.uniform(0.5, 2.0),
            lengthscales=(rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)),
            sigma_n=rng.uniform(0.05, 0.5),
        )
        grad = likelihood_gradient(x, y, hp)
        fd = np.array(
            [
                (
                    log_marginal_likelihood(x, y, _perturbed(hp, i, h))
                    - log_marginal_likelihood(x, y, _perturbed(hp, i, -h))
                )
                / (2.0 * h)
                for i in range(4)
            ]
        )
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5


def test_likelihood_gradient_scalar_case_by_hand():
    x = np.array([[0.0, 0.0]])
    y = np.array([0.7])
    hp = Hyperparams(sigma_s=1.3, lengthscales=(0.1, 0.2), sigma_n=0.4)
    kn = hp.sigma_s**2 + hp.sigma_n**2
    alpha = y[0] / kn
    grad = likelihood_gradient(x, y, hp)
    assert abs(grad[0] - (alpha**2 - 1.0 / kn) * hp.sigma_s) < 1e-8
    assert abs(grad[1]) < 1e-12 and abs(grad[2]) < 1e-12
    assert abs(grad[3] - (alpha**2 - 1.0 / kn) * hp.sigma_n) < 1e-8
    # d/d sigma_n = sigma_n * tr(A) vanishes at sigma_n = 0
    assert likelihood_gradient(x, y, replace(hp, sigma_n=0.0))[3] == 0.0


def test_default_init_spans_and_std():
    x = np.array([[0.0, 0.0], [0.2, 0.4]])
    y = np.array([1.0, 3.0])
    hp = default_init(x, y)
    assert abs(hp.sigma_s - 1.0) < 1e-12
    assert abs(hp.lengthscales[0] - 0.1) < 1e-12
    assert abs(hp.lengthscales[1] - 0.2) < 1e-12


def test_fit_trace_is_monotone():
    rng = np.random.default_rng(6)
    x = rng.uniform(-0.3, 0.3, (40, 2))
    truth = Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.1), sigma_n=0.05)
    y = _sample_surface(rng, x, truth)
    res = fit_hyperparams(x, y, max_iter=30)
    assert len(res.trace) >= 2
    assert np.all(np.diff(res.trace) > 0.0)
    assert res.log_marginal == res.trace[-1]


def _random_hyperparams(rng):
    return Hyperparams(
        sigma_s=rng.uniform(0.5, 2.0),
        lengthscales=(rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)),
        sigma_n=rng.uniform(0.05, 0.5),
    )


def _derivatives(x, y, hp):
    """(g, F, H) in log parameters, and the jitter they were taken at."""
    obj = gpr._Objective(x, y)
    params = (hp.sigma_s, hp.lengthscales, hp.sigma_n)
    k, chol, jitter, alpha, _ = obj.evaluate(*params)
    return obj.derivatives(*params, k, chol, jitter, alpha), jitter


# at_init: at the point every cold fit starts from (default_init), else at
# random hyperparameters
@pytest.mark.parametrize("at_init", [True, False])
@pytest.mark.parametrize("n", [10, 36, 86])
def test_log_space_hessian_matches_central_differences(n, at_init):
    rng = np.random.default_rng(20 + n)
    x, y = _random_set(rng, n)
    hp = default_init(x, y) if at_init else _random_hyperparams(rng)
    (g, _, hess), _ = _derivatives(x, y, hp)
    # the fit's gradient is likelihood_gradient's, by the chain rule to log space
    vals = hp.as_vector()
    assert np.allclose(g, likelihood_gradient(x, y, hp) * vals, rtol=1e-12, atol=0.0)
    h = 1e-5
    fd = np.empty_like(hess)
    for j in range(len(vals)):
        ends = []
        for sign in (1.0, -1.0):
            v = hp.as_vector()
            v[j] *= math.exp(sign * h)
            moved = Hyperparams(sigma_s=v[0], lengthscales=(v[1], v[2]), sigma_n=v[3])
            ends.append(likelihood_gradient(x, y, moved) * moved.as_vector())
        fd[:, j] = (ends[0] - ends[1]) / (2.0 * h)
    assert np.max(np.abs(hess - fd)) < 1e-6 * np.max(np.abs(fd))
    assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))


@pytest.mark.parametrize("at_init", [True, False])
@pytest.mark.parametrize("n", [10, 36, 86])
def test_fisher_matches_dense_trace_formula(n, at_init):
    rng = np.random.default_rng(30 + n)
    x, y = _random_set(rng, n)
    hp = default_init(x, y) if at_init else _random_hyperparams(rng)
    (_, fisher, _), jitter = _derivatives(x, y, hp)
    k = kernel(x, x, hp)
    kinv = np.linalg.inv(k + (hp.sigma_n**2 + jitter) * np.eye(n))
    dk = [2.0 * k]  # d Kn / d log theta
    for d, ell in enumerate(hp.lengthscales):
        dk.append(k * (x[:, None, d] - x[None, :, d]) ** 2 / ell**2)
    dk.append(2.0 * hp.sigma_n**2 * np.eye(n))
    dense = np.array([[0.5 * np.trace(kinv @ a @ kinv @ b) for b in dk] for a in dk])
    assert np.max(np.abs(fisher - dense)) < 1e-9 * np.max(np.abs(dense))


def _prior_draw(seed, n=50):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.3, 0.3, (n, 2))
    truth = Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.1), sigma_n=0.05)
    return x, _sample_surface(rng, x, truth)


def test_fit_warm_started_at_its_optimum_takes_no_step():
    x, y = _prior_draw(14)
    first = fit_hyperparams(x, y, max_iter=200)
    assert first.warning is None
    assert first.iterations < 200
    again = fit_hyperparams(x, y, init=first.hyperparams, max_iter=200)
    assert again.warning is None
    assert again.iterations == 0
    assert again.hyperparams == first.hyperparams
    assert again.trace == (first.log_marginal,)


def test_fit_ends_within_tolerance_of_converged_reference(monkeypatch):
    for seed in range(14, 19):
        x, y = _prior_draw(seed)
        res = fit_hyperparams(x, y)
        assert res.warning is None
        assert res.iterations < tr.FIT_MAX_ITER
        with monkeypatch.context() as m:
            m.setattr(gpr, "FIT_TOL", 1e-9)
            ref = fit_hyperparams(x, y, max_iter=200)
        # the reference repeats the fit's steps, then keeps going
        assert ref.trace[: len(res.trace)] == res.trace
        assert ref.log_marginal - res.log_marginal <= gpr.FIT_TOL


def test_fit_stops_with_noise_held_at_lower_bound():
    # On a noiseless 3x3 grid this faint, sigma_n at BOUND_LO still matters
    # and its gradient pushes it further down. Left in the step, that
    # coordinate would keep the predicted gain above FIT_TOL at every
    # iterate, and the fit would run to its cap.
    axis = np.array([-0.1, 0.0, 0.1])
    x = np.array([(u, v) for u in axis for v in axis])
    y = 1e-8 * np.exp(-((x[:, 0] - 0.02) ** 2 + (x[:, 1] + 0.01) ** 2) / (2.0 * 0.1**2))
    init = Hyperparams(sigma_s=float(np.std(y)), lengthscales=(0.1, 0.1), sigma_n=0.0)
    res = fit_hyperparams(x, y, init=init, max_iter=200)
    assert res.warning is None
    assert res.iterations < 10
    assert res.hyperparams.sigma_n == pytest.approx(gpr.BOUND_LO)


def test_fitted_parameters_stay_inside_bounds():
    # sigma_n starts on BOUND_LO and stays there while the others move; a
    # value held at a bound must come back as the bound, not exp(log(bound))
    axis = np.array([-0.1, 0.0, 0.1])
    x = np.array([(u, v) for u in axis for v in axis])
    rng = np.random.default_rng(12)
    for _ in range(10):
        c = rng.uniform(-0.05, 0.05, 2)
        y = np.exp(-((x - c) ** 2).sum(axis=1) / 0.02)
        init = replace(default_init(x, y), sigma_n=gpr.BOUND_LO)
        res = fit_hyperparams(x, y, init=init)
        assert res.iterations >= 1
        values = res.hyperparams.as_vector()
        assert np.all((values >= gpr.BOUND_LO) & (values <= gpr.BOUND_HI)), values
        assert res.hyperparams.sigma_n == gpr.BOUND_LO


def test_fit_recovers_lengthscale_within_factor():
    truth = Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.1), sigma_n=0.05)
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-0.3, 0.3, (50, 2))
        y = _sample_surface(rng, x, truth)
        res = fit_hyperparams(x, y)
        ratios.append(res.hyperparams.lengthscales[0] / truth.lengthscales[0])
    med = float(np.median(ratios))
    assert 1.0 / 1.5 <= med <= 1.5


def test_fit_shrinks_signal_on_zero_data():
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.3, 0.3, (30, 2))
    y = np.zeros(30)
    init = Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.1), sigma_n=0.1)
    res = fit_hyperparams(x, y, init=init)
    assert res.hyperparams.sigma_s < init.sigma_s / 10.0


def test_fit_warns_when_no_step_possible(monkeypatch):
    rng = np.random.default_rng(9)
    x, _ = _random_set(rng, 20)
    y = _sample_surface(rng, x, HP)
    init = Hyperparams(sigma_s=2.0, lengthscales=(0.2, 0.2), sigma_n=0.2)
    monkeypatch.setattr(gpr, "MAX_HALVINGS", 0)
    res = fit_hyperparams(x, y, init=init)
    assert res.warning is not None
    assert res.iterations == 1
    assert res.hyperparams == init
    assert len(res.trace) == 1


def test_posterior_interpolates_noiseless_data():
    rng = np.random.default_rng(10)
    x = rng.uniform(-0.3, 0.3, (5, 2))
    y = rng.standard_normal(5)
    hp = Hyperparams(sigma_s=1.0, lengthscales=(0.15, 0.15), sigma_n=0.0)
    mean, var = posterior(make_model(x, y, hp), x)
    assert np.max(np.abs(mean - y)) < 1e-8
    assert np.max(var) < 1e-6


def test_posterior_far_query_reverts_to_prior():
    x = np.array([[0.0, 0.0]])
    y = np.array([3.0])
    model = make_model(x, y, HP)
    mean, var = posterior(model, np.array([[50.0, 50.0]]))
    assert abs(mean[0]) < 1e-12
    assert abs(var[0] - HP.sigma_s**2) < 1e-12


def test_posterior_matches_dense_solve():
    rng = np.random.default_rng(11)
    x, y = _random_set(rng, 5)
    model = make_model(x, y, HP)
    xq = rng.uniform(-0.3, 0.3, (7, 2))
    kn = kernel(x, x, HP) + (HP.sigma_n**2 + model.jitter) * np.eye(5)
    kc = kernel(x, xq, HP)
    mean = kc.T @ np.linalg.solve(kn, y)
    var = HP.sigma_s**2 - np.sum(kc * np.linalg.solve(kn, kc), axis=0)
    pm, pv = posterior(model, xq)
    assert np.max(np.abs(pm - mean)) < 1e-10
    assert np.max(np.abs(pv - var)) < 1e-10


def test_posterior_single_point_shrinkage():
    x = np.array([[0.0, 0.0]])
    y = np.array([2.0])
    hp = Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.1), sigma_n=0.5)
    mean, _ = posterior(make_model(x, y, hp), x)
    want = hp.sigma_s**2 * y[0] / (hp.sigma_s**2 + hp.sigma_n**2)
    assert abs(mean[0] - want) < 1e-8


def test_mean_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(100):
        x, y = _random_set(rng)
        model = make_model(x, y, HP)
        q = rng.uniform(-0.3, 0.3, 2)
        grad = posterior_mean_gradient(model, q)
        fd = np.empty(2)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd[d] = (posterior(model, q + e)[0][0] - posterior(model, q - e)[0][0]) / (
                2.0 * h
            )
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-9) < 1e-5


def test_mean_gradient_zero_at_lone_training_point():
    x = np.array([[0.12, -0.07]])
    y = np.array([1.5])
    model = make_model(x, y, HP)
    assert np.max(np.abs(posterior_mean_gradient(model, x[0]))) < 1e-15


def test_mean_gradient_points_toward_positive_observation():
    x = np.array([[0.0, 0.0]])
    y = np.array([1.0])
    model = make_model(x, y, HP)
    g = posterior_mean_gradient(model, np.array([0.05, -0.03]))
    assert g[0] < 0.0 and g[1] > 0.0


def test_variance_never_grows_with_data():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x, y = _random_set(rng, 8)
        model = make_model(x, y, HP)
        q = rng.uniform(-0.3, 0.3, (1, 2))
        before = posterior(model, q)[1][0]
        grown = model.with_point(rng.uniform(-0.3, 0.3, 2), rng.standard_normal())
        after = posterior(grown, q)[1][0]
        assert after <= before + 1e-10


def test_incremental_append_matches_fresh_factorization():
    rng = np.random.default_rng(14)
    x, y = _random_set(rng, 10)
    model = make_model(x, y, HP)
    extra_x = rng.uniform(-0.3, 0.3, (5, 2))
    extra_y = rng.standard_normal(5)
    for px, py in zip(extra_x, extra_y):
        model = model.with_point(px, py)
    fresh = make_model(np.vstack([x, extra_x]), np.append(y, extra_y), HP)
    assert np.max(np.abs(model.chol - fresh.chol)) < 1e-9
    assert np.max(np.abs(model.alpha - fresh.alpha)) < 1e-9
    xq = rng.uniform(-0.3, 0.3, (9, 2))
    m1, v1 = posterior(model, xq)
    m2, v2 = posterior(fresh, xq)
    assert np.max(np.abs(m1 - m2)) < 1e-9
    assert np.max(np.abs(v1 - v2)) < 1e-9


def test_cholesky_factor_is_fortran_ordered():
    # LAPACK reads Fortran order; a factor in C order would be copied on
    # every solve, and solved in the transposed form
    rng = np.random.default_rng(19)
    x, y = _random_set(rng, 8)
    model = make_model(x, y, HP)
    assert model.chol.flags.f_contiguous
    grown = model
    for px, py in zip(rng.uniform(-0.3, 0.3, (3, 2)), rng.standard_normal(3)):
        grown = grown.with_point(px, py)
        assert grown.chol.flags.f_contiguous
    # a negative recorded jitter drives the new diagonal below zero, which
    # sends the append to its fresh-factorization fallback
    refactored = replace(model, jitter=-10.0).with_point(np.array([0.05, -0.1]), 0.3)
    assert refactored.jitter == model.jitter
    assert refactored.chol.flags.f_contiguous
    fresh = make_model(refactored.x, refactored.y, HP)
    assert np.array_equal(refactored.chol, fresh.chol)


def _factorization_failing(monkeypatch, failures):
    """Make gpr's Cholesky report 'not positive definite' `failures` times.

    Returns the diagonals of every matrix handed to the factorization.
    Finite real inputs never needed jitter escalation in any probe, so the
    escalation loop is reached only through this stub.
    """
    real = gpr.dpotrf
    diagonals = []

    def stub(a, **kwargs):
        diagonals.append(np.diag(a).copy())
        if len(diagonals) <= failures:
            return a, 1  # info > 0: leading minor 1 not positive definite
        return real(a, **kwargs)

    monkeypatch.setattr(gpr, "dpotrf", stub)
    return diagonals


def test_jitter_escalates_tenfold_and_is_recorded(monkeypatch):
    rng = np.random.default_rng(15)
    x, y = _random_set(rng, 8)
    hp = Hyperparams(sigma_s=1.0, lengthscales=(0.15, 0.2), sigma_n=0.0)
    diagonals = _factorization_failing(monkeypatch, failures=3)
    model = make_model(x, y, hp)
    assert len(diagonals) == 4
    # the Gram diagonal is sigma_s^2 = 1, so the excess is the jitter tried
    tried = [float(np.mean(d)) - 1.0 for d in diagonals]
    assert abs(tried[0] - gpr.JITTER_BASE) <= 1e-5 * gpr.JITTER_BASE
    for before, after in zip(tried, tried[1:]):
        assert abs(after / before - 10.0) < 1e-4
    assert model.jitter == gpr.JITTER_BASE * 10.0 * 10.0 * 10.0
    kn = kernel(x, x, hp) + model.jitter * np.eye(len(x))
    assert np.max(np.abs(model.chol @ model.chol.T - kn)) < 1e-12


def test_jitter_gives_up_at_the_cap(monkeypatch):
    rng = np.random.default_rng(16)
    x, y = _random_set(rng, 8)
    hp = Hyperparams(sigma_s=2.0, lengthscales=(0.15, 0.2), sigma_n=0.0)
    diagonals = _factorization_failing(monkeypatch, failures=10**6)
    cap = gpr.JITTER_MAX * hp.sigma_s**2
    with pytest.raises(
        np.linalg.LinAlgError, match=f"^Gram matrix not positive definite up to jitter {cap:.1e}$"
    ):
        make_model(x, y, hp)
    # base, then tenfold steps up to and including the cap, then no more
    assert len(diagonals) == 5
    assert abs(float(np.mean(diagonals[-1])) - hp.sigma_s**2 - cap) <= 1e-6 * cap


@pytest.mark.parametrize("where", ["x", "y"])
def test_non_finite_training_data_raises(where):
    rng = np.random.default_rng(17)
    x, y = _random_set(rng, 8)
    if where == "x":
        x[5, 1] = np.nan
    else:
        y[5] = np.nan
    for call in (
        lambda: make_model(x, y, HP),
        lambda: fit_hyperparams(x, y),
        lambda: log_marginal_likelihood(x, y, HP),
    ):
        with pytest.raises(ValueError, match="non-finite training point at row 5"):
            call()


def test_with_point_rejects_non_finite_point():
    rng = np.random.default_rng(18)
    x, y = _random_set(rng, 8)
    model = make_model(x, y, HP)
    with pytest.raises(ValueError, match="non-finite training point at row 8"):
        model.with_point(np.array([0.1, np.nan]), 0.5)
    with pytest.raises(ValueError, match="non-finite training point at row 8"):
        model.with_point(np.array([0.1, 0.2]), float("inf"))
    assert model.n == 8 and np.isfinite(model.alpha).all()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    appends=st.integers(1, 8),
    sigma_s=st.floats(0.05, 5.0),
    ell_u=st.floats(0.01, 2.0),
    ell_v=st.floats(0.01, 2.0),
    sigma_n=st.floats(0.0, 0.5),
)
def test_carried_kernel_column_gives_the_recomputed_gradient(
    seed, n, appends, sigma_s, ell_u, ell_v, sigma_n
):
    rng = np.random.default_rng(seed)
    hp = Hyperparams(sigma_s=sigma_s, lengthscales=(ell_u, ell_v), sigma_n=sigma_n)
    x, y = _random_set(rng, n)
    model = make_model(x, y, hp)
    for px, py in zip(rng.uniform(-0.4, 0.4, (appends, 2)), rng.standard_normal(appends)):
        model = model.with_point(px, py)
        if model.k_last is None:  # the append fell back to a fresh factorization
            continue
        assert np.array_equal(model.k_last, kernel(model.x, model.x[-1:], hp)[:, 0])
        assert model.k_last[-1] == sigma_s**2
        carried = posterior_mean_gradient(model, px)
        assert np.array_equal(carried, posterior_mean_gradient(replace(model, k_last=None), px))


def test_carried_kernel_column_serves_only_the_appended_point():
    rng = np.random.default_rng(23)
    x, y = _random_set(rng, 9)
    model = make_model(x, y, HP)
    assert model.k_last is None
    p = np.array([0.05, -0.1])
    model = model.with_point(p, 0.3)
    # a poisoned column shows where it is read
    poisoned = replace(model, k_last=np.full(model.n, np.nan))
    assert np.isnan(posterior_mean_gradient(poisoned, p)).all()
    plain = replace(model, k_last=None)
    for q in (np.array([0.05, -0.1 + 1e-12]), x[0], np.array([0.2, 0.2])):
        assert np.array_equal(posterior_mean_gradient(poisoned, q), posterior_mean_gradient(plain, q))
    # a refit, or an append that falls back to one, carries no column
    assert make_model(model.x, model.y, HP).k_last is None
    assert replace(model, jitter=-10.0).with_point(np.array([0.1, 0.1]), 0.2).k_last is None
