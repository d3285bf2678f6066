import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavtrack import tracking as tr
from uavtrack.beamforming import candidate_set, grid_weights, precoder_from_angle
from uavtrack.channel import ArrayConfig, LinkBudget, effective_channel, measure_beams
from uavtrack.geometry import Position3, SpatialAngles, arrival_angles
from uavtrack.gpr import fit_hyperparams, make_model, posterior, posterior_mean_gradient
from uavtrack.tracking import (
    EstimatorConfig,
    baseline_codebook,
    baseline_gps_only,
    baseline_perturbation,
    fuse_position,
    predict_position,
    refine_analog,
    refine_hybrid,
)

CFG = ArrayConfig()
QUIET = LinkBudget(es=1.0, snr_db=300.0)
EST = EstimatorConfig()
NORM = math.sqrt(CFG.nu * CFG.nx * CFG.ny)


def _chan(tu, tv, ua=0.3, cfg=CFG):
    return effective_channel(
        SpatialAngles(tu, tv, u_a=ua), precoder_from_angle(ua, cfg.nu).vector, 1.0, cfg
    )


def test_predict_uses_fresh_fix():
    from uavtrack.sensors import SensorReading

    fix = SensorReading(kind="gps", block=5, position=Position3(12.0, -3.0, 200.0))
    assert predict_position(Position3(0.0, 0.0, 200.0), (9.0, 9.0), fix, 0.01) == fix.position


def test_predict_dead_reckons_with_latest_velocity():
    p = predict_position(Position3(10.0, 20.0, 200.0), (10.0, 0.0), None, 0.01)
    assert abs(p.x - 10.1) < 1e-12
    assert abs(p.y - 20.0) < 1e-12
    assert p.h == 200.0


def test_prediction_holds_last_estimate_between_fixes():
    # an erroneous fused position persists until the next fix arrives
    bad = Position3(500.0, 0.0, 200.0)
    assert predict_position(bad, (0.0, 0.0), None, 0.01) == bad


def test_fuse_inverts_arrival_geometry():
    gs = Position3(0.0, 0.0, 25.0)
    uav = Position3(30.0, 40.0, 200.0)
    ang = arrival_angles(uav, gs)
    fused = fuse_position(ang, gs, uav.h - gs.h)
    assert abs(fused.x - uav.x) < 1e-9
    assert abs(fused.y - uav.y) < 1e-9
    assert fused.h == uav.h


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(eta=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon_scale=-1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        EstimatorConfig(refit_every=0)
    with pytest.raises(ValueError, match="phase_bits must be at least 1"):
        EstimatorConfig(phase_bits=0)
    EstimatorConfig(max_iterations=0)
    EstimatorConfig(phase_bits=1)


def test_hybrid_noiseless_converges_to_grid_point_truth():
    for trial in range(30):
        g = np.random.default_rng(trial)
        su, sv = g.uniform(-0.4, 0.4, 2)
        c = candidate_set(su, sv, CFG, 6)
        i, j = g.integers(1, 5, 2)
        tu, tv = c.u_values[i], c.v_values[j]
        r = refine_hybrid(
            _chan(tu, tv), SpatialAngles(su, sv), CFG, QUIET, EST,
            np.random.default_rng(1000 + trial),
        )
        assert abs(r.u - tu) <= c.delta / 2.0 + 1e-12
        assert abs(r.v - tv) <= c.delta / 2.0 + 1e-12


def test_flat_beamspace_returns_seed():
    cfg1 = ArrayConfig(nx=1, ny=1, nu=8)
    h = _chan(0.1, -0.2, cfg=cfg1)
    seed = SpatialAngles(0.1, -0.2)
    rng = np.random.default_rng(0)
    for fn in (refine_hybrid, refine_analog, baseline_perturbation, baseline_codebook):
        r = fn(h, seed, cfg1, QUIET, EST, rng)
        assert (r.u, r.v) == (seed.u, seed.v)
        assert r.iterations == 0 and r.measurements == 0


def test_degenerate_clipped_grid_returns_seed():
    # a seed so far out that every candidate clips onto the same edge point
    h = _chan(0.1, -0.2)
    seed = SpatialAngles(1.3, 0.0)
    r = refine_hybrid(h, seed, CFG, QUIET, EST, np.random.default_rng(0))
    assert (r.u, r.v) == (seed.u, seed.v)
    assert r.iterations == 0 and r.measurements == 0


def test_measurement_accounting_audited(monkeypatch):
    rows = {"n": 0}
    real = tr.measure_beams

    def counting(heff, weights, budget, rng, **kw):
        rows["n"] += len(np.atleast_2d(weights))
        return real(heff, weights, budget, rng, **kw)

    monkeypatch.setattr(tr, "measure_beams", counting)
    h = _chan(0.15, -0.05)
    seed = SpatialAngles(0.1, -0.1)
    budget = LinkBudget(es=1.0, snr_db=20.0)

    r = refine_hybrid(h, seed, CFG, budget, EST, np.random.default_rng(1))
    assert r.iterations >= 1
    assert r.measurements == 36 + r.iterations == rows["n"]

    rows["n"] = 0
    r = refine_analog(h, seed, CFG, budget, EST, np.random.default_rng(2))
    assert r.iterations >= 1
    assert r.measurements == 36 == rows["n"]

    rows["n"] = 0
    r = baseline_perturbation(h, seed, CFG, budget, EST, np.random.default_rng(3))
    assert r.measurements == 3 * r.iterations == rows["n"]

    rows["n"] = 0
    r = baseline_codebook(h, seed, CFG, budget, EST, np.random.default_rng(4))
    assert r.iterations == 0
    assert r.measurements == 36 == rows["n"]


def test_hybrid_zero_iterations_is_unquantized_grid_argmax():
    h = _chan(0.12, -0.08)
    budget = LinkBudget(es=1.0, snr_db=20.0)
    r = refine_hybrid(
        h, SpatialAngles(0.1, -0.1), CFG, budget,
        EstimatorConfig(max_iterations=0), np.random.default_rng(5),
    )
    c = candidate_set(0.1, -0.1, CFG, 6)
    y = measure_beams(h, grid_weights(c, CFG, None), budget, np.random.default_rng(5)) / NORM
    start = c.points[int(np.argmax(y))]
    assert r.u == start[0] and r.v == start[1]
    assert r.iterations == 0 and r.measurements == 36


def test_analog_noiseless_beats_quantization_floor():
    # truth midway between grid points is the worst case for any on-grid
    # pick; the off-grid ascent must land strictly inside delta/2
    for trial in range(30):
        g = np.random.default_rng(50 + trial)
        su, sv = g.uniform(-0.4, 0.4, 2)
        c = candidate_set(su, sv, CFG, 6)
        i, j = g.integers(1, 4, 2)
        tu, tv = c.u_values[i] + c.delta / 2.0, c.v_values[j] + c.delta / 2.0
        r = refine_analog(
            _chan(tu, tv), SpatialAngles(su, sv), CFG, QUIET, EST,
            np.random.default_rng(2000 + trial),
        )
        assert abs(r.u - tu) < c.delta / 2.0
        assert abs(r.v - tv) < c.delta / 2.0


def test_analog_measurement_count_independent_of_iterations():
    h = _chan(0.15, -0.05)
    for cap in (1, 50):
        r = refine_analog(
            h, SpatialAngles(0.1, -0.1), CFG, QUIET,
            EstimatorConfig(max_iterations=cap), np.random.default_rng(6),
        )
        assert r.measurements == 36


def test_analog_iteration_count_stable_across_snr():
    means = []
    for snr in (0.0, 30.0):
        budget = LinkBudget(es=1.0, snr_db=snr)
        counts = []
        for trial in range(100):
            g = np.random.default_rng(3000 + trial)
            su, sv = g.uniform(-0.3, 0.3, 2)
            tu, tv = su + g.uniform(-0.1, 0.1), sv + g.uniform(-0.1, 0.1)
            r = refine_analog(
                _chan(tu, tv), SpatialAngles(su, sv), CFG, budget, EST,
                np.random.default_rng(4000 + trial),
            )
            counts.append(r.iterations)
        means.append(float(np.mean(counts)))
    assert 0.8 <= means[0] / means[1] <= 1.25


def test_analog_iterate_sequence_monotone_on_noiseless_surface():
    for trial in range(100):
        g = np.random.default_rng(trial)
        su, sv = g.uniform(-0.3, 0.3, 2)
        tu, tv = su + g.uniform(-0.2, 0.2), sv + g.uniform(-0.2, 0.2)
        h = _chan(tu, tv)
        c = candidate_set(su, sv, CFG, 6)
        y = np.abs(grid_weights(c, CFG, 6).conj() @ h.vector) / NORM
        fit = fit_hyperparams(c.points, y, max_iter=tr.FIT_MAX_ITER)
        model = make_model(c.points, y, fit.hyperparams)
        x = c.points[int(np.argmax(y))]
        path = []
        f_prev = None
        for _ in range(50):
            f = float(posterior(model, x)[0][0])
            path.append(f)
            x = c.clip(x + 0.005 * posterior_mean_gradient(model, x))
            if f_prev is not None and abs(f - f_prev) < 1e-3:
                break
            f_prev = f
        assert np.all(np.diff(path) >= -1e-9)


def test_gps_only_is_seed_passthrough():
    seed = SpatialAngles(0.123, -0.456)
    r = baseline_gps_only(seed)
    assert (r.u, r.v) == (seed.u, seed.v)
    assert r.iterations == 0 and r.measurements == 0


def test_seed_angle_error_grows_with_gps_noise():
    gs = Position3(0.0, 0.0, 25.0)
    uav = Position3(100.0, -50.0, 200.0)
    truth = arrival_angles(uav, gs)
    stds = []
    for sig in (1.0, 5.0):
        rng = np.random.default_rng(42)
        errs = []
        for _ in range(4000):
            noisy = Position3(
                uav.x + rng.normal(0.0, sig), uav.y + rng.normal(0.0, sig), uav.h
            )
            errs.append(arrival_angles(noisy, gs).u - truth.u)
        stds.append(float(np.std(errs)))
    assert stds[1] > 3.0 * stds[0]
    assert abs(stds[1] / stds[0] - 5.0) < 1.0


def test_perturbation_noiseless_converges_within_probe_size():
    est = EstimatorConfig(max_iterations=100)
    for trial in range(30):
        g = np.random.default_rng(200 + trial)
        su, sv = g.uniform(-0.3, 0.3, 2)
        c = candidate_set(su, sv, CFG, 6)
        tu, tv = su + g.uniform(-0.08, 0.08), sv + g.uniform(-0.08, 0.08)
        r = baseline_perturbation(
            _chan(tu, tv), SpatialAngles(su, sv), CFG, QUIET, est,
            np.random.default_rng(300 + trial),
        )
        dp = c.delta / 2.0
        assert abs(r.u - tu) <= dp
        assert abs(r.v - tv) <= dp


def test_perturbation_zero_probe_never_moves():
    est = EstimatorConfig(perturbation_delta=0.0)
    seed = SpatialAngles(0.1, -0.1)
    r = baseline_perturbation(
        _chan(0.15, -0.05), seed, CFG, QUIET, est, np.random.default_rng(7)
    )
    assert (r.u, r.v) == (seed.u, seed.v)
    assert r.measurements == 3 * r.iterations


def test_codebook_noiseless_picks_nearest_grid_point():
    # phase quantization ripples the gain by ~0.05%, which can flip the
    # argmax when the truth sits almost exactly between two grid points;
    # away from such ties the pick is exactly the nearest point
    for trial in range(200):
        g = np.random.default_rng(500 + trial)
        su, sv = g.uniform(-0.4, 0.4, 2)
        tu, tv = su + g.uniform(-0.2, 0.2), sv + g.uniform(-0.2, 0.2)
        c = candidate_set(su, sv, CFG, 6)
        r = baseline_codebook(
            _chan(tu, tv), SpatialAngles(su, sv), CFG, QUIET, EST,
            np.random.default_rng(600 + trial),
        )
        for got, truth, grid in ((r.u, tu, c.u_values), (r.v, tv, c.v_values)):
            gaps = np.abs(grid - truth)
            order = np.sort(gaps)
            if len(order) > 1 and order[1] - order[0] < 0.01:
                assert abs(got - truth) <= c.delta / 2.0 + 2e-3
            else:
                assert got == grid[np.argmin(gaps)]


def test_codebook_selection_disperses_under_heavy_noise():
    h = _chan(0.05, -0.03)
    seed = SpatialAngles(0.0, 0.0)
    modal = {}
    distinct = {}
    for snr in (-10.0, -30.0):
        budget = LinkBudget(es=1.0, snr_db=snr)
        rng = np.random.default_rng(7)
        picks = [
            (r.u, r.v)
            for r in (
                baseline_codebook(h, seed, CFG, budget, EST, rng) for _ in range(2000)
            )
        ]
        _, counts = np.unique(picks, axis=0, return_counts=True)
        modal[snr] = counts.max() / 2000.0
        distinct[snr] = len(counts)
    assert distinct[-10.0] >= 5
    assert modal[-10.0] <= 0.9
    assert distinct[-30.0] == 36
    assert modal[-30.0] <= 0.15
    assert modal[-30.0] < modal[-10.0]


def test_near_horizon_results_stay_in_unit_disk():
    budget = LinkBudget(es=1.0, snr_db=10.0)
    seed = SpatialAngles(0.97, 0.12)
    h = _chan(0.98, 0.05)
    for trial in range(10):
        rng = np.random.default_rng(800 + trial)
        for fn in (refine_hybrid, refine_analog, baseline_perturbation, baseline_codebook):
            r = fn(h, seed, CFG, budget, EST, rng)
            assert r.u**2 + r.v**2 <= 1.0


@settings(max_examples=15)
@given(
    su=st.floats(-0.9, 0.9),
    sv=st.floats(-0.9, 0.9),
    noise_seed=st.integers(0, 10**6),
)
def test_all_estimators_return_feasible_angles(su, sv, noise_seed):
    if su * su + sv * sv > 0.95:
        return
    est = EstimatorConfig(max_iterations=6, refit_every=3)
    budget = LinkBudget(es=1.0, snr_db=0.0)
    h = _chan(su + 0.05, sv - 0.05)
    seed = SpatialAngles(su, sv)
    for fn in (refine_hybrid, refine_analog, baseline_perturbation, baseline_codebook):
        r = fn(h, seed, CFG, budget, est, np.random.default_rng(noise_seed))
        assert r.u**2 + r.v**2 <= 1.0
