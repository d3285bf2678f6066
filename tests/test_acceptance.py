"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s) and
enforces its runtime budget. Statistical comparisons use a paired
bootstrap over trials: schemes inside a trial share the trajectory, the
sensor errors, and the pilot noise, so per-trial differences isolate the
estimator.
"""

import math
import pathlib
import time

import numpy as np

from uavtrack.beamforming import candidate_set, precoder_from_angle, steer_weights
from uavtrack.campaign import run_campaign, write_trace_csv
from uavtrack.channel import ArrayConfig, LinkBudget, effective_channel
from uavtrack.config import ScenarioConfig
from uavtrack.geometry import (
    Attitude,
    Position3,
    SpatialAngles,
    arrival_angles,
    position_from_angles,
    rotation_matrix,
)
from uavtrack.gpr import (
    Hyperparams,
    kernel,
    likelihood_gradient,
    log_marginal_likelihood,
    make_model,
    posterior,
    posterior_mean_gradient,
)
from uavtrack.metrics import beam_gain, realized_gain
from uavtrack.tracking import EstimatorConfig, baseline_codebook

CFG = ArrayConfig()
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
QUIET = LinkBudget(es=1.0, snr_db=300.0)


def _report(num: int, ok: bool, detail: str, elapsed: float, cap: float | None):
    # the verdict covers the runtime cap as well as the statistic
    in_time = cap is None or elapsed < cap
    timing = ""
    if cap is not None:
        over = "" if in_time else f", over the {cap:.0f} s cap"
        timing = f" ({elapsed:.1f} s{over})"
    print(f"[{'PASS' if ok and in_time else 'FAIL'}] criterion {num}: {detail}{timing}")
    assert ok, f"criterion {num}: {detail}"
    if cap is not None:
        assert elapsed < cap, f"criterion {num} runtime {elapsed:.1f} s exceeds {cap:.0f} s"


def _bootstrap_mean_quantile(diffs, q: float, seed: int = 0, resamples: int = 2000) -> float:
    diffs = np.asarray(diffs, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(diffs), size=(resamples, len(diffs)))
    return float(np.quantile(diffs[idx].mean(axis=1), q))


def _chan(tu, tv, ua=0.3):
    return effective_channel(
        SpatialAngles(tu, tv, u_a=ua), precoder_from_angle(ua, CFG.nu), 1.0, CFG
    )


def test_criterion_1_geometry_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    delta_h = 175.0
    gs = Position3(0.0, 0.0, 25.0)
    worst = 0.0
    done = 0
    while done < 10_000:
        u, v = rng.uniform(-1.0, 1.0, 2)
        if u * u + v * v > 0.99:
            continue
        done += 1
        rel = position_from_angles(u, v, delta_h)
        ang = arrival_angles(Position3(rel.x, rel.y, gs.h + delta_h), gs)
        worst = max(worst, abs(ang.u - u), abs(ang.v - v))
    ortho = 0.0
    for _ in range(1000):
        yaw, pitch, roll = rng.uniform(-math.pi, math.pi, 3)
        c = rotation_matrix(Attitude(yaw=yaw, pitch=pitch, roll=roll))
        ortho = max(ortho, float(np.max(np.abs(c @ c.T - np.eye(3)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and ortho < 1e-12
    _report(1, ok, f"round-trip max err {worst:.2e}, orthonormality {ortho:.2e}", elapsed, 1.0)


def test_criterion_2_beam_gain_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        tu, tv = rng.uniform(-0.6, 0.6, 2)
        du, dv = rng.uniform(-0.25, 0.25, 2)
        h = _chan(tu, tv)
        direct = realized_gain(steer_weights(tu + du, tv + dv, CFG), h)
        worst = max(worst, abs(direct - beam_gain(du, dv, CFG)))
    peak_err = abs(beam_gain(0.0, 0.0, CFG) - math.sqrt(512.0))
    null = beam_gain(2.0 / 8.0, 0.0, CFG)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and peak_err < 1e-9 and null < 1e-10
    _report(
        2,
        ok,
        f"direct vs closed form max err {worst:.2e}, peak err {peak_err:.1e}, null {null:.1e}",
        elapsed,
        1.0,
    )


def test_criterion_3_gpr_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    interp_worst = 0.0
    for _ in range(20):
        # keep the points separated so the noiseless Gram matrix stays well
        # conditioned; near-duplicate inputs make exact interpolation moot
        pts = [rng.uniform(-0.3, 0.3, 2)]
        while len(pts) < 6:
            p = rng.uniform(-0.3, 0.3, 2)
            if min(np.linalg.norm(p - q) for q in pts) >= 0.12:
                pts.append(p)
        x = np.array(pts)
        y = rng.standard_normal(6)
        hp = Hyperparams(sigma_s=1.0, lengthscales=(0.1, 0.1), sigma_n=0.0)
        mean, _ = posterior(make_model(x, y, hp), x)
        interp_worst = max(interp_worst, float(np.max(np.abs(mean - y))))

    def perturbed(hp, i, eps):
        v = hp.as_vector()
        v[i] += eps
        return Hyperparams(sigma_s=v[0], lengthscales=(v[1], v[2]), sigma_n=v[3])

    h = 1e-6
    grad_worst = 0.0
    mean_grad_worst = 0.0
    for _ in range(100):
        x = rng.uniform(-0.3, 0.3, (10, 2))
        y = rng.standard_normal(10)
        hp = Hyperparams(
            sigma_s=rng.uniform(0.5, 2.0),
            lengthscales=(rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)),
            sigma_n=rng.uniform(0.05, 0.5),
        )
        grad = likelihood_gradient(x, y, hp)
        fd = np.array(
            [
                (
                    log_marginal_likelihood(x, y, perturbed(hp, i, h))
                    - log_marginal_likelihood(x, y, perturbed(hp, i, -h))
                )
                / (2.0 * h)
                for i in range(4)
            ]
        )
        grad_worst = max(grad_worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(fd)))

        model = make_model(x, y, hp)
        q = rng.uniform(-0.3, 0.3, 2)
        g = posterior_mean_gradient(model, q)
        fd2 = np.empty(2)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd2[d] = (
                posterior(model, q + e)[0][0] - posterior(model, q - e)[0][0]
            ) / (2.0 * h)
        mean_grad_worst = max(
            mean_grad_worst, float(np.linalg.norm(g - fd2) / max(np.linalg.norm(fd2), 1e-12))
        )

    elapsed = time.perf_counter() - t0
    ok = interp_worst < 1e-8 and grad_worst < 1e-5 and mean_grad_worst < 1e-5
    _report(
        3,
        ok,
        f"interpolation {interp_worst:.1e}, likelihood-grad rel {grad_worst:.1e}, "
        f"mean-grad rel {mean_grad_worst:.1e}",
        elapsed,
        30.0,
    )


def test_criterion_4_hybrid_beats_perturbation():
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        run_trials=500,
        run_blocks=1,
        run_schemes=("hybrid_gpr", "perturbation"),
        link_snr_db=(20.0,),
    )
    rows = run_campaign(cfg).rows
    err2 = {}
    iters = {}
    for r in rows:
        err2.setdefault(r.scheme, {})[r.trial] = 0.5 * (
            (r.est_u - r.true_u) ** 2 + (r.est_v - r.true_v) ** 2
        )
        iters.setdefault(r.scheme, {})[r.trial] = r.iterations
        if r.scheme == "hybrid_gpr":
            assert r.measurements == 36 + r.iterations
        else:
            assert r.measurements == 3 * r.iterations
    trials = sorted(err2["hybrid_gpr"])
    d_mse = [err2["hybrid_gpr"][t] - err2["perturbation"][t] for t in trials]
    d_it = [iters["hybrid_gpr"][t] - iters["perturbation"][t] for t in trials]
    mse_h = float(np.mean([err2["hybrid_gpr"][t] for t in trials]))
    mse_p = float(np.mean([err2["perturbation"][t] for t in trials]))
    it_h = float(np.mean([iters["hybrid_gpr"][t] for t in trials]))
    it_p = float(np.mean([iters["perturbation"][t] for t in trials]))
    up_mse = _bootstrap_mean_quantile(d_mse, 0.95, seed=4)
    up_it = _bootstrap_mean_quantile(d_it, 0.95, seed=5)
    elapsed = time.perf_counter() - t0
    ok = up_mse < 0.0 and up_it < 0.0
    _report(
        4,
        ok,
        f"mse {mse_h:.2e} vs {mse_p:.2e}, iterations {it_h:.1f} vs {it_p:.1f}, "
        f"95% upper bounds {up_mse:.2e} / {up_it:.2f} (both < 0); "
        f"1 vs 3 measurements per iteration exact",
        elapsed,
        180.0,
    )


def test_criterion_5_analog_vs_codebook():
    t0 = time.perf_counter()
    # (a) noiseless codebook error vs the uniform-quantization floor
    rng = np.random.default_rng(50)
    est = EstimatorConfig()
    errs = {"u": [], "v": []}
    delta = candidate_set(0.0, 0.0, CFG, 6).delta
    for _ in range(4000):
        su, sv = rng.uniform(-0.3, 0.3, 2)
        c = candidate_set(su, sv, CFG, 6)
        tu = rng.uniform(c.u_values[0], c.u_values[-1])
        tv = rng.uniform(c.v_values[0], c.v_values[-1])
        r = baseline_codebook(_chan(tu, tv), SpatialAngles(su, sv), CFG, QUIET, est, rng)
        errs["u"].append(r.u - tu)
        errs["v"].append(r.v - tv)
    floor = delta**2 / 12.0
    mse_u = float(np.mean(np.square(errs["u"])))
    mse_v = float(np.mean(np.square(errs["v"])))
    ok_floor = abs(mse_u - floor) <= 0.2 * floor and abs(mse_v - floor) <= 0.2 * floor

    # (b) + (c) paired campaign over phase bits at SNR 10 dB
    cfg = ScenarioConfig(
        run_trials=500,
        run_blocks=1,
        run_schemes=("analog_gpr", "codebook_max"),
        link_snr_db=(10.0,),
        estimator_phase_bits=(4, 5, 6),
    )
    summary = run_campaign(cfg).summary_rows()
    mse = {
        (row["scheme"], row["phase_bits"]): row["mse_angle"]
        for row in summary
        if row["block"] == -1
    }
    ok_beats = mse[("analog_gpr", 6)] < mse[("codebook_max", 6)]
    ok_mono = all(
        mse[(s, 4)] > mse[(s, 5)] > mse[(s, 6)] for s in ("analog_gpr", "codebook_max")
    )
    elapsed = time.perf_counter() - t0
    ok = ok_floor and ok_beats and ok_mono
    _report(
        5,
        ok,
        f"noiseless codebook per-axis mse {mse_u:.2e}/{mse_v:.2e} vs floor {floor:.2e}; "
        f"analog {mse[('analog_gpr', 6)]:.2e} < codebook {mse[('codebook_max', 6)]:.2e} at l=6; "
        f"monotone over l=4,5,6",
        elapsed,
        180.0,
    )


def test_criterion_6_mae_predicts_se():
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        run_trials=300,
        run_blocks=1,
        run_schemes=("hybrid_gpr",),
        link_snr_db=(10.0, 20.0, 30.0),
    )
    summary = run_campaign(cfg).summary_rows()
    checked = []
    worst = 0.0
    for row in summary:
        if row["block"] != -1:
            continue
        if row["mae_angle"] > 1.0 / 8.0:
            continue
        rel = abs(row["pred_se_at_mae"] - row["mean_se"]) / row["mean_se"]
        worst = max(worst, rel)
        checked.append(row["snr_db"])
    elapsed = time.perf_counter() - t0
    ok = sorted(checked) == [10.0, 20.0, 30.0] and worst <= 0.05
    _report(
        6,
        ok,
        f"predicted vs realized SE rel err {worst:.2%} over SNR {sorted(checked)}",
        elapsed,
        120.0,
    )


def test_criterion_7_integrated_beats_gps_only():
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        run_trials=500,
        run_blocks=20,
        run_schemes=("hybrid_gpr", "gps_only"),
        link_snr_db=(10.0,),
        sensors_sigma_gps_m=5.0,
        sensors_sigma_ins_m=5.0,
        sensors_sigma_heading_deg=0.05,
    )
    rows = run_campaign(cfg).rows
    per_trial = {}
    for r in rows:
        per_trial.setdefault(r.scheme, {}).setdefault(r.trial, []).append(r.norm_gain)
    trials = sorted(per_trial["hybrid_gpr"])
    diffs = [
        float(np.mean(per_trial["hybrid_gpr"][t])) - float(np.mean(per_trial["gps_only"][t]))
        for t in trials
    ]
    mean_gain = float(np.mean(diffs))
    lo = _bootstrap_mean_quantile(diffs, 0.05, seed=7)
    elapsed = time.perf_counter() - t0
    ok = lo >= 0.01
    _report(
        7,
        ok,
        f"norm-gain advantage {mean_gain:.4f}, 95% lower bound {lo:.4f} (floor 0.01)",
        elapsed,
        180.0,
    )


def test_criterion_8_byte_identical_traces(tmp_path):
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        run_trials=3,
        run_blocks=5,
        run_schemes=("hybrid_gpr", "gps_only"),
        link_snr_db=(10.0, 20.0),
        run_seed=77,
    )
    blobs = []
    for tag in ("a", "b"):
        path = tmp_path / f"trace_{tag}.csv"
        write_trace_csv(str(path), run_campaign(cfg))
        blobs.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _report(8, ok, f"repeated runs byte-identical ({len(blobs[0])} bytes)", elapsed, None)


def test_criterion_9_gain_holds_when_sensor_data_is_absent():
    # the abstract: the beamforming signal "keeps high gain even when the
    # flight sensor data is absent". With t_gps at the run's length only
    # block 0 has a fix, so gps_only dead-reckons from there on.
    t0 = time.perf_counter()
    cfg = ScenarioConfig.from_file(str(CONFIGS / "gps_outage.conf")).override(run_trials=8)
    assert [k for k in range(cfg.run_blocks) if cfg.schedule().gps_due(k)] == [0]
    # the last quarter's even blocks: odd blocks steer the UAV precoder from a
    # navigation reading one block old, which costs both schemes alike
    per_trial = {}
    for r in run_campaign(cfg).rows:
        if r.block >= 3 * cfg.run_blocks // 4 and r.block % 2 == 0:
            per_trial.setdefault(r.scheme, {}).setdefault(r.trial, []).append(r.norm_gain)
    trials = sorted(per_trial["hybrid_gpr"])
    hybrid = [float(np.mean(per_trial["hybrid_gpr"][t])) for t in trials]
    gps = [float(np.mean(per_trial["gps_only"][t])) for t in trials]
    hybrid_lo = _bootstrap_mean_quantile(hybrid, 0.05, seed=91)
    gps_hi = _bootstrap_mean_quantile(gps, 0.95, seed=92)
    diff_lo = _bootstrap_mean_quantile(np.subtract(hybrid, gps), 0.05, seed=93)
    elapsed = time.perf_counter() - t0
    ok = hybrid_lo >= 0.99 and gps_hi <= 0.97 and diff_lo >= 0.03
    _report(
        9,
        ok,
        f"last-quarter norm gain without fixes: hybrid_gpr {np.mean(hybrid):.4f} "
        f"(95% lower bound {hybrid_lo:.4f}, floor 0.99), gps_only {np.mean(gps):.4f} "
        f"(95% upper bound {gps_hi:.4f}, ceiling 0.97), advantage lower bound "
        f"{diff_lo:.4f} (floor 0.03)",
        elapsed,
        60.0,
    )
