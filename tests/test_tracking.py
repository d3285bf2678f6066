import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavtrack import gpr
from uavtrack import tracking as tr
from uavtrack.beamforming import candidate_set, grid_weights, precoder_from_angle
from uavtrack.channel import (
    ArrayConfig,
    BeamSounder,
    LinkBudget,
    effective_channel,
    measure_beams,
)
from uavtrack.geometry import Position3, SpatialAngles, arrival_angles
from uavtrack.gpr import (
    GprModel,
    fit_hyperparams,
    kernel,
    make_model,
    posterior,
    posterior_mean_gradient,
)
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
QUIET = LinkBudget(snr_db=300.0)
EST = EstimatorConfig()
NORM = math.sqrt(CFG.nu * CFG.nx * CFG.ny)


def _chan(tu, tv, ua=0.3, cfg=CFG):
    return effective_channel(
        SpatialAngles(tu, tv, u_a=ua), precoder_from_angle(ua, cfg.nu), 1.0, cfg
    )


def test_predict_uses_fresh_fix():
    from uavtrack.sensors import SensorReading

    fix = SensorReading(position=Position3(12.0, -3.0, 200.0))
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


def _audit(monkeypatch, skip=None):
    """Run each pilot scheme once and check its reported measurements against
    the beams counted where they are sounded: tracking.measure_beams for
    weight stacks, and BeamSounder's point and grid for plain beams. skip
    names one of these three that goes uncounted."""
    rows = {"n": 0}

    def counted(owner, name, beams):
        real = getattr(owner, name)

        def counting(*args):
            if name != skip:
                rows["n"] += beams(*args)
            return real(*args)

        monkeypatch.setattr(owner, name, counting)

    counted(tr, "measure_beams", lambda heff, weights, *_: len(np.atleast_2d(weights)))
    counted(BeamSounder, "point", lambda *_: 1)
    counted(BeamSounder, "grid", lambda _, u, v: len(u) * len(v))
    h = _chan(0.15, -0.05)
    seed = SpatialAngles(0.1, -0.1)
    budget = LinkBudget(snr_db=20.0)

    r = refine_hybrid(h, seed, CFG, budget, EST, np.random.default_rng(1))
    assert r.iterations >= 1
    assert r.measurements == 36 + r.iterations == rows["n"]

    rows["n"] = 0
    r = refine_analog(h, seed, CFG, budget, EST, np.random.default_rng(2))
    assert r.iterations >= 1
    assert r.measurements == 36 == rows["n"]

    rows["n"] = 0
    r = baseline_perturbation(h, seed, CFG, budget, EST, np.random.default_rng(3))
    assert r.iterations >= 1
    assert r.measurements == 3 * r.iterations == rows["n"]

    rows["n"] = 0
    r = baseline_codebook(h, seed, CFG, budget, EST, np.random.default_rng(4))
    assert r.iterations == 0
    assert r.measurements == 36 == rows["n"]


def test_measurement_accounting_audited(monkeypatch):
    _audit(monkeypatch)


@pytest.mark.parametrize("skip", ["measure_beams", "point", "grid"])
def test_measurement_audit_fails_when_a_sounding_goes_uncounted(monkeypatch, skip):
    # each way of sounding carries some scheme's beams: the hybrid's sweep and
    # probes, the perturbation's triples, the quantized stacks
    with pytest.raises(AssertionError):
        _audit(monkeypatch, skip=skip)


# the iterative schemes share one ascent loop: (scheme, sweep beams, beams per iteration)
ASCENT = pytest.mark.parametrize(
    "fn, grid, per_iteration",
    [(refine_hybrid, 36, 1), (refine_analog, 36, 0), (baseline_perturbation, 0, 3)],
    ids=["hybrid", "analog", "perturbation"],
)


def _ascent_run(fn, **est):
    budget = LinkBudget(snr_db=20.0)
    seed = SpatialAngles(0.1, -0.1)
    est = EstimatorConfig(**est)
    return fn(_chan(0.15, -0.05), seed, CFG, budget, est, np.random.default_rng(9))


@ASCENT
def test_ascent_without_threshold_runs_to_cap(fn, grid, per_iteration):
    r = _ascent_run(fn, epsilon_scale=0.0, max_iterations=7)
    assert r.iterations == 7
    assert r.measurements == grid + 7 * per_iteration


@ASCENT
def test_ascent_with_huge_threshold_stops_at_second_iteration(fn, grid, per_iteration):
    r = _ascent_run(fn, epsilon_scale=1e9)
    assert r.iterations == 2
    assert r.measurements == grid + 2 * per_iteration


@ASCENT
def test_ascent_without_iterations_returns_start(fn, grid, per_iteration):
    # the hybrid starts at the unquantized sweep's argmax, the analog at the
    # quantized one's
    r = _ascent_run(fn, max_iterations=0)
    assert r.iterations == 0 and r.measurements == grid
    if fn is baseline_perturbation:
        start = (0.1, -0.1)  # the seed
    else:
        c = candidate_set(0.1, -0.1, CFG, 6)
        bits = 6 if fn is refine_analog else None
        y = measure_beams(
            _chan(0.15, -0.05), grid_weights(c, CFG, bits), LinkBudget(snr_db=20.0),
            np.random.default_rng(9),
        )
        start = tuple(c.points[int(np.argmax(y))])
    assert (r.u, r.v) == start


def test_hybrid_refits_every_refit_every_appends(monkeypatch):
    calls = {"n": 0}
    real = tr.fit_hyperparams

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(tr, "fit_hyperparams", counting)
    r = _ascent_run(refine_hybrid, epsilon_scale=0.0, max_iterations=7, refit_every=3)
    assert r.iterations == 7
    assert calls["n"] == 1 + 7 // 3  # the sweep's fit, then after appends 3 and 6


@pytest.mark.parametrize("fn, refits", [(refine_hybrid, 4), (refine_analog, 0)])
def test_no_refine_factorizes_a_matrix_twice(monkeypatch, fn, refits):
    grams, made, fits = [], [], []
    evaluations = {"n": 0}
    real_dpotrf, real_make = gpr.dpotrf, gpr.make_model
    real_fit, real_evaluate = tr.fit_hyperparams, gpr._Objective.evaluate

    def dpotrf(a, **kwargs):
        if a.shape[0] > 4:  # a Gram matrix, not a fit step's 4 x 4 metric
            grams.append(a.copy())  # before dpotrf overwrites it
        return real_dpotrf(a, **kwargs)

    def counting_make(*args):
        made.append(args)
        return real_make(*args)

    def evaluate(self, v):
        evaluations["n"] += 1
        return real_evaluate(self, v)

    def fit(*args, **kwargs):
        g0, e0 = len(grams), evaluations["n"]
        out = real_fit(*args, **kwargs)
        init = args[2] if len(args) > 2 else kwargs.get("init")
        fits.append((init, grams[g0:], evaluations["n"] - e0))
        return out

    monkeypatch.setattr(gpr, "dpotrf", dpotrf)
    monkeypatch.setattr(gpr, "make_model", counting_make)  # with_point's fallback
    monkeypatch.setattr(tr, "make_model", counting_make)
    monkeypatch.setattr(gpr._Objective, "evaluate", evaluate)
    monkeypatch.setattr(tr, "fit_hyperparams", fit)
    r = _ascent_run(fn, epsilon_scale=0.0, max_iterations=12, refit_every=3)
    assert r.iterations == 12
    assert len(made) == 1  # the initial surface's
    assert len(fits) == 1 + refits
    # every factorization is of a new matrix: no fit is followed by a
    # make_model of its accepted iterate
    assert len({g.tobytes() for g in grams}) == len(grams)
    # one factorization per evaluation, and no fit evaluates at its start:
    # each starts from a model and takes that model's factor
    assert len(grams) == 1 + sum(n for *_, n in fits)
    for init, during, n in fits:
        assert isinstance(init, GprModel)
        assert len(during) == n
        kn = kernel(init.x, init.x, init.hp)
        kn.ravel()[:: init.n + 1] += init.hp.sigma_n**2 + init.jitter
        assert not any(np.array_equal(g, kn) for g in during)


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
        budget = LinkBudget(snr_db=snr)
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
        y = np.abs(grid_weights(c, CFG, 6).conj() @ h) / NORM
        fit = fit_hyperparams(c.points, y, max_iter=tr.FIT_MAX_ITER)
        model = make_model(c.points, y, fit.hyperparams)
        x = c.points[int(np.argmax(y))]
        path = []
        f_prev = None
        for _ in range(50):
            f = float(posterior(model, x)[0][0])
            path.append(f)
            x = np.clip(x + 0.005 * posterior_mean_gradient(model, x), c.lo, c.hi)
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
        budget = LinkBudget(snr_db=snr)
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
    budget = LinkBudget(snr_db=10.0)
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
    budget = LinkBudget(snr_db=0.0)
    h = _chan(su + 0.05, sv - 0.05)
    seed = SpatialAngles(su, sv)
    for fn in (refine_hybrid, refine_analog, baseline_perturbation, baseline_codebook):
        r = fn(h, seed, CFG, budget, est, np.random.default_rng(noise_seed))
        assert r.u**2 + r.v**2 <= 1.0


def test_shared_grid_arrays_are_read_only():
    seed = SpatialAngles(0.1, -0.2)
    grids = {}
    cands, quantized = tr._grid(seed, CFG, EST, grids, beams=True)
    arrays = [cands.u_values, cands.v_values, cands.points, cands.lo, cands.hi, quantized]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_shared_grids_are_keyed_on_exact_inputs():
    grids = {}
    seed = SpatialAngles(0.0, -0.2)
    cands, no_beams = tr._grid(seed, CFG, EST, grids)
    assert no_beams is None
    assert tr._grid(SpatialAngles(0.0, -0.2), CFG, EST, grids)[0] is cands
    for other in [
        tr._grid(SpatialAngles(-0.0, -0.2), CFG, EST, grids)[0],
        tr._grid(SpatialAngles(0.0, np.nextafter(-0.2, 0.0)), CFG, EST, grids)[0],
        tr._grid(seed, ArrayConfig(nx=8, ny=8, nu=4), EST, grids)[0],
        tr._grid(seed, CFG, EstimatorConfig(phase_bits=5), grids)[0],
    ]:
        assert other is not cands
    quantized = tr._grid(seed, CFG, EST, grids, beams=True)[1]
    again = tr._grid(seed, CFG, EST, grids, beams=True)
    assert again[0] is cands and again[1] is quantized
    assert np.array_equal(quantized, grid_weights(cands, CFG, EST.phase_bits))


def test_grids_without_a_table_are_built_afresh():
    seed = SpatialAngles(0.1, -0.2)
    first, second = (tr._grid(seed, CFG, EST, None, beams=True) for _ in range(2))
    assert first[0] is not second[0] and first[1] is not second[1]
    assert np.array_equal(first[0].points, second[0].points)
    assert np.array_equal(first[1], second[1])


def test_a_scheme_fills_the_table_it_is_given():
    h = _chan(0.12, -0.18)
    seed = SpatialAngles(0.1, -0.2)
    grids = {}
    # the grid, then its quantized beams as well
    for fn, beams, entries in [(refine_hybrid, False, 1), (refine_analog, True, 2)]:
        alone = fn(h, seed, CFG, QUIET, EST, np.random.default_rng(3))
        assert fn(h, seed, CFG, QUIET, EST, np.random.default_rng(3), grids=grids) == alone
        assert len(grids) == entries
        cands, w = tr._grid(seed, CFG, EST, None, beams)
        kept = tr._grid(seed, CFG, EST, grids, beams)
        assert np.array_equal(kept[0].points, cands.points)
        assert (kept[1] is w is None) or np.array_equal(kept[1], w)
