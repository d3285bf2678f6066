import csv
import dataclasses
import io
import math
import os
import signal
import stat
import struct
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reference import predicted_gain_from_mae
from uavtrack import campaign, tracking
from uavtrack.beamforming import candidate_set
from uavtrack.campaign import (
    SCHEMA_VERSION,
    SUMMARY_HEADER,
    TRACE_HEADER,
    CampaignResult,
    TraceRow,
    emit_figure_tables,
    read_summary_csv,
    run_campaign,
    simulate_readings,
    simulate_truth,
    stream,
    summarize,
    write_csv,
    write_summary_csv,
    write_trace_csv,
)
from uavtrack.channel import ArrayConfig
from uavtrack.config import (
    FIELD_TYPES, MAX_GRID_POINTS, SCHEMES, ConfigError, ScenarioConfig, parse_value,
)
from uavtrack.metrics import main_lobe_limit, spectral_efficiency
from uavtrack.sensors import derive_velocity, ground_gps_measure


def _small_cfg(**kw):
    base = dict(
        run_trials=2,
        run_blocks=3,
        run_schemes=("hybrid_gpr", "gps_only"),
        link_snr_db=(10.0, 20.0),
    )
    base.update(kw)
    return ScenarioConfig(**base)


def _mk_row(trial, block, du, dv=0.0, scheme="hybrid_gpr", snr=20.0, bits=6, gain=10.0):
    tu, tv = 0.1, 0.2
    return TraceRow(
        trial=trial,
        block=block,
        scheme=scheme,
        snr_db=snr,
        phase_bits=bits,
        true_x=30.0,
        true_y=40.0,
        true_u=tu,
        true_v=tv,
        true_ua=0.3,
        est_u=tu + du,
        est_v=tv + dv,
        est_x=31.0,
        est_y=40.0,
        gain=gain,
        norm_gain=gain / math.sqrt(512.0),
        se_bits=1.5,
        iterations=3,
        measurements=39,
    )


def test_trace_header_mirrors_row_fields():
    import dataclasses

    names = [f.name for f in dataclasses.fields(TraceRow)]
    assert TRACE_HEADER == ["schema_version"] + names


def test_stream_is_reproducible_and_keyed():
    a = stream(5, 1, 2).standard_normal(8)
    b = stream(5, 1, 2).standard_normal(8)
    c = stream(5, 1, 3).standard_normal(8)
    d = stream(6, 1, 2).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_zero_noise_single_trial_gps_only():
    cfg = ScenarioConfig(
        run_trials=1,
        run_blocks=1,
        run_schemes=("gps_only",),
        sensors_sigma_gps_m=0.0,
        sensors_sigma_heading_deg=0.0,
    )
    res = run_campaign(cfg)
    assert len(res.rows) == 1
    r = res.rows[0]
    assert abs(r.est_u - r.true_u) < 1e-12
    assert abs(r.est_v - r.true_v) < 1e-12
    assert abs(r.norm_gain - 1.0) < 1e-9
    assert r.iterations == 0 and r.measurements == 0


def test_same_config_is_byte_identical(tmp_path):
    cfg = _small_cfg()
    paths = []
    for run in ("a", "b"):
        res = run_campaign(cfg)
        trace = tmp_path / f"trace_{run}.csv"
        summary = tmp_path / f"summary_{run}.csv"
        write_trace_csv(str(trace), res)
        write_summary_csv(str(summary), res.summary_rows())
        paths.append((trace, summary))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_truth_is_paired_across_schemes_and_sweeps():
    cfg = _small_cfg(run_trials=1, run_schemes=("hybrid_gpr", "gps_only", "codebook_max"))
    res = run_campaign(cfg)
    seen = {}
    for r in res.rows:
        key = (r.trial, r.block)
        truth = (r.true_x, r.true_y, r.true_u, r.true_v, r.true_ua)
        if key in seen:
            assert seen[key] == truth
        else:
            seen[key] = truth


def test_gps_only_dead_reckons_between_fixes():
    # with fixes every 5 blocks, the estimate between fixes advances by a
    # constant velocity increment per block: a block-15 GPS error persists
    cfg = ScenarioConfig(
        run_trials=1,
        run_blocks=20,
        run_schemes=("gps_only",),
        sensors_sigma_gps_m=10.0,
    )
    rows = run_campaign(cfg).rows
    est_x = [r.est_x for r in rows]
    diffs = [est_x[k] - est_x[k - 1] for k in range(16, 20)]
    assert max(diffs) - min(diffs) < 1e-6


def test_gps_only_block_after_a_fix_pair_is_dead_reckoned():
    # fixes arrive at blocks 0 and 5; block 6 has none, so its estimate is
    # the block-5 fix advanced by one block of the velocity between them
    cfg = ScenarioConfig(run_trials=1, run_blocks=7, run_schemes=("gps_only",))
    timeline = simulate_readings(cfg, 0, simulate_truth(cfg, 0)[0])
    gps = {k: fix for k, (fix, _, _) in enumerate(timeline) if fix is not None}
    assert sorted(gps) == [0, 5]
    first, last = gps[0].position, gps[5].position
    t_gps, t_block = cfg.schedule_t_gps, cfg.schedule_t_block
    want_x = last.x + t_block * ((last.x - first.x) / t_gps)
    want_y = last.y + t_block * ((last.y - first.y) / t_gps)
    row = run_campaign(cfg).rows[6]
    assert row.block == 6
    assert abs(row.est_x - want_x) < 1e-9
    assert abs(row.est_y - want_y) < 1e-9


def test_readings_timeline_per_block():
    # fixes every 5 blocks and navigation readings every 2; with no
    # navigation noise a reading is the state of the block that drew it
    cfg = ScenarioConfig(run_trials=1, run_blocks=12, sensors_sigma_heading_deg=0.0)
    states = simulate_truth(cfg, 0)[0]
    timeline = simulate_readings(cfg, 0, states)
    assert len(timeline) == 12
    gps_rng = stream(cfg.run_seed, 0, campaign._GPS)
    fixes = {k: ground_gps_measure(states[k], cfg.sensors(), gps_rng) for k in (0, 5, 10)}
    for k, (fix, velocity, egi) in enumerate(timeline):
        assert fix == fixes.get(k)
        if k < 5:
            assert velocity == (0.0, 0.0)
        else:
            prev, cur = (0, 5) if k < 10 else (5, 10)
            assert velocity == derive_velocity(fixes[prev], fixes[cur], cfg.schedule_t_gps)
        due = states[k - k % 2]
        assert egi.position == due.position and egi.heading == due.heading


def _force_workers(monkeypatch, n):
    # as if the affinity mask held n CPUs: both the split and the worker count follow
    monkeypatch.setattr(campaign, "_cpus", lambda: n)


def test_worker_count_is_cpus_capped_by_trials():
    cpus = len(os.sched_getaffinity(0))
    assert campaign._worker_count(1) == 1
    assert campaign._worker_count(10**6) == cpus


def test_outputs_are_byte_equal_across_worker_counts(tmp_path, monkeypatch):
    cfg = ScenarioConfig(
        run_trials=3,
        run_blocks=2,
        run_schemes=SCHEMES,
        link_snr_db=(10.0, 20.0),
        estimator_phase_bits=(5, 6),
    )
    outputs = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        res = run_campaign(cfg)
        trace = tmp_path / f"trace_{workers}.csv"
        summary = tmp_path / f"summary_{workers}.csv"
        write_trace_csv(str(trace), res)
        write_summary_csv(str(summary), res.summary_rows())
        outputs.append((trace.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_trial_error_keeps_type_and_message_and_names_trial(monkeypatch, workers):
    real_run_trial = campaign._run_trial

    def fail_trial_1(cfg, trial, blocks):
        if trial == 1:
            raise ConfigError("trial 1 failed")
        return real_run_trial(cfg, trial, blocks)

    _force_workers(monkeypatch, workers)
    monkeypatch.setattr(campaign, "_run_trial", fail_trial_1)
    cfg = ScenarioConfig(run_trials=2, run_blocks=1, run_schemes=("gps_only",), run_seed=17)
    with pytest.raises(ConfigError) as info:
        run_campaign(cfg)
    assert str(info.value) == "trial 1 failed"
    assert info.value.__notes__ == ["in trial 1 of run.seed 17"]


def test_split_trial_error_names_its_blocks(monkeypatch):
    real_run_trial = campaign._run_trial

    def fail_blocks_5_on(cfg, trial, blocks):
        if blocks.start == 5:
            raise ConfigError("span failed")
        return real_run_trial(cfg, trial, blocks)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(campaign, "_run_trial", fail_blocks_5_on)
    cfg = ScenarioConfig(run_trials=1, run_blocks=10, run_schemes=("gps_only",), run_seed=17)
    with pytest.raises(ConfigError) as info:
        run_campaign(cfg)
    assert str(info.value) == "span failed"
    assert info.value.__notes__ == ["in trial 0, blocks 5-9, of run.seed 17"]


@pytest.mark.parametrize("workers", [1, 2])
def test_scheme_error_names_its_chain_then_its_trial(monkeypatch, workers):
    real_refine = campaign.refine_hybrid

    def fail_at_block_3(heff, seed, arr, budget, est, rng, **kwargs):
        if rng.bit_generator.seed_seq.spawn_key[-1] == 3:  # the pilot stream's block
            raise np.linalg.LinAlgError("block 3 failed")
        return real_refine(heff, seed, arr, budget, est, rng, **kwargs)

    _force_workers(monkeypatch, workers)
    monkeypatch.setattr(campaign, "refine_hybrid", fail_at_block_3)
    cfg = ScenarioConfig(
        run_trials=2, run_blocks=4, run_schemes=("gps_only", "hybrid_gpr"),
        link_snr_db=(20.0, 10.0), estimator_phase_bits=(6,), run_seed=17,
    )
    with pytest.raises(np.linalg.LinAlgError) as info:
        run_campaign(cfg)
    assert str(info.value) == "block 3 failed"
    assert info.value.__notes__ == [
        "in scheme hybrid_gpr, snr_db 20.0, phase_bits 6, block 3",
        "in trial 0 of run.seed 17",
    ]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_campaign_leaves_no_child(monkeypatch):
    _force_workers(monkeypatch, 2)
    assert len(run_campaign(ScenarioConfig(run_trials=3, run_blocks=2)).rows) == 12
    _assert_no_child_left()


def test_failed_fork_raises_and_leaves_no_child_and_no_descriptor(monkeypatch):
    real_fork, forked = os.fork, []

    def fork_once():  # as at the process limit: the second worker cannot start
        if forked:
            raise BlockingIOError("fork refused")
        forked.append(real_fork())
        return forked[-1]

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork_once)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="fork refused"):
        run_campaign(ScenarioConfig(run_trials=2, run_blocks=1, run_schemes=("gps_only",)))
    assert len(forked) == 1
    assert sorted(os.listdir("/proc/self/fd")) == fds
    _assert_no_child_left()


def test_killed_worker_raises_at_once_names_its_units_and_leaves_no_child(monkeypatch):
    def kill_worker_of_trial_1(cfg, trial, blocks):
        if trial == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(20)  # trial 0's worker is still running when trial 1's dies
        return [[]]

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(campaign, "_run_trial", kill_worker_of_trial_1)
    cfg = ScenarioConfig(run_trials=4, run_blocks=1, run_schemes=("gps_only",))
    t0 = time.monotonic()
    with pytest.raises(RuntimeError) as info:
        run_campaign(cfg)
    assert time.monotonic() - t0 < 10
    message = str(info.value)
    assert message.startswith("campaign worker 1 ended by signal 9 ")
    assert message.endswith("before reporting its units: trial 1 blocks 0-0, trial 3 blocks 0-0")
    _assert_no_child_left()


def test_lowest_failing_unit_raises_with_its_notes_and_worker_traceback(monkeypatch):
    def fail_from_trial_1(cfg, trial, blocks):
        if trial == 1:
            time.sleep(0.5)  # trial 2's error reaches the parent first
        if trial >= 1:
            raise ConfigError(f"trial {trial} failed")
        return [[]]

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(campaign, "_run_trial", fail_from_trial_1)
    cfg = ScenarioConfig(run_trials=4, run_blocks=1, run_schemes=("gps_only",), run_seed=17)
    with pytest.raises(ConfigError) as info:
        run_campaign(cfg)
    assert str(info.value) == "trial 1 failed"
    assert info.value.__notes__ == ["in trial 1 of run.seed 17"]
    # the worker's traceback, as the cause
    assert isinstance(info.value.__cause__, campaign._WorkerTraceback)
    assert "in fail_from_trial_1" in str(info.value.__cause__)
    assert "trial 1 failed" in str(info.value.__cause__)
    _assert_no_child_left()


def test_fix_block_grid_is_built_once_per_trial(monkeypatch):
    # every SNR point and pilot scheme of a GPS-fix block is seeded at the fix
    cfg = ScenarioConfig(
        run_trials=2, run_blocks=1, run_schemes=tuple(s for s in SCHEMES if s != "gps_only"),
        link_snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
    )
    _force_workers(monkeypatch, 1)  # the calls are counted in this process
    calls = {"candidate_set": 0, "grid_weights": 0}
    for name in calls:
        original = getattr(tracking, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(tracking, name, counted)
    run_campaign(cfg)
    # one grid, and one quantized beam stack (analog_gpr, codebook_max), per
    # trial; hybrid_gpr and perturbation sound plain beams without a stack
    assert calls == {"candidate_set": cfg.run_trials, "grid_weights": cfg.run_trials}


def test_shared_grids_change_no_row(monkeypatch):
    cfg = ScenarioConfig(
        run_trials=1, run_blocks=7, run_schemes=SCHEMES, link_snr_db=(10.0, 30.0),
        estimator_phase_bits=(5, 6),
    )
    _force_workers(monkeypatch, 1)
    built = []
    real_candidate_set = tracking.candidate_set

    def counted(*args):
        built.append(args)
        return real_candidate_set(*args)

    monkeypatch.setattr(tracking, "candidate_set", counted)
    shared = repr(run_campaign(cfg).rows)
    with_table = len(built)
    real_refine = campaign._refine
    monkeypatch.setattr(campaign, "_refine", lambda *args, grids: real_refine(*args, grids=None))
    assert repr(run_campaign(cfg).rows) == shared
    assert len(built) - with_table > with_table  # without a table, fix blocks build more


def test_no_grid_is_built_twice_in_a_block(monkeypatch):
    cfg = ScenarioConfig(
        run_trials=1, run_blocks=20, run_schemes=SCHEMES, link_snr_db=(10.0, 20.0)
    )
    _force_workers(monkeypatch, 1)  # the calls are counted in this process
    block = [None]
    real_refine = campaign._refine

    def refine(*args, **kwargs):
        block[0] = args[6][-1]  # the pilot key's block
        return real_refine(*args, **kwargs)

    grids, stacks = [], []
    origin = {}  # id of each grid built: its input, and the grid, kept alive
    real_candidate_set, real_grid_weights = tracking.candidate_set, tracking.grid_weights

    def candidate_set(u, v, arr, phase_bits):
        grids.append((block[0], struct.pack("2d", u, v), phase_bits))
        cands = real_candidate_set(u, v, arr, phase_bits)
        origin[id(cands)] = (grids[-1], cands)
        return cands

    def grid_weights(cands, arr, phase_bits=None):
        stacks.append((origin[id(cands)][0], phase_bits))
        return real_grid_weights(cands, arr, phase_bits)

    monkeypatch.setattr(campaign, "_refine", refine)
    monkeypatch.setattr(tracking, "candidate_set", candidate_set)
    monkeypatch.setattr(tracking, "grid_weights", grid_weights)
    run_campaign(cfg)
    assert len(grids) == len(set(grids))
    assert len(stacks) == len(set(stacks))
    # the four pilot schemes at both SNRs share each fix block's grid
    pilot_refines = 4 * len(cfg.link_snr_db) * cfg.run_blocks
    fixes = cfg.run_blocks // cfg.schedule().gps_every
    assert len(grids) <= pilot_refines - fixes * (4 * len(cfg.link_snr_db) - 1)


def _spans(cfg, cpus):
    return [(trial, blocks.start, blocks.stop) for trial, blocks in campaign._units(cfg, cpus)]


@example(gps_every=5, blocks=20, trials=1, cpus=2)  # a span per fix
@example(gps_every=5, blocks=23, trials=1, cpus=2)  # a short last span
@given(
    gps_every=st.integers(1, 12),
    blocks=st.integers(1, 40),
    trials=st.integers(1, 4),
    cpus=st.integers(1, 6),
)
def test_units_split_a_trial_at_its_gps_fixes(gps_every, blocks, trials, cpus):
    t_block = ScenarioConfig.schedule_t_block
    cfg = ScenarioConfig(
        run_trials=trials, run_blocks=blocks,
        schedule_t_gps=gps_every * t_block, schedule_t_ins=t_block,
    )
    units = campaign._units(cfg, cpus)
    # each trial's blocks exactly once, in order
    assert [(t, k) for t, span in units for k in span] == [
        (t, k) for t in range(trials) for k in range(blocks)
    ]
    for trial in range(trials):
        timeline = simulate_readings(cfg, trial, simulate_truth(cfg, trial)[0])
        fixes = [k for k, (fix, _, _) in enumerate(timeline) if fix is not None]
        starts = [span.start for t, span in units if t == trial]
        # _run_trial's precondition: every unit starts at a fix; split
        # trials start one at each fix
        assert set(starts) <= set(fixes)
        assert starts == (fixes if trials < cpus else [0])


def test_units_keep_a_trial_with_one_fix_whole():
    cfg = ScenarioConfig(run_trials=1, run_blocks=4)
    cfg = cfg.override(schedule_t_gps=cfg.run_blocks * cfg.schedule_t_block)
    assert _spans(cfg, 2) == [(0, 0, 4)]


def test_units_are_whole_trials_once_trials_reach_cpus():
    cfg = ScenarioConfig(run_trials=2, run_blocks=20)
    assert _spans(cfg, 2) == [(0, 0, 20), (1, 0, 20)]
    assert _spans(cfg, 1) == [(0, 0, 20), (1, 0, 20)]
    assert _spans(cfg, 3) == [(t, a, a + 5) for t in (0, 1) for a in (0, 5, 10, 15)]


def test_split_trial_outputs_are_byte_equal_to_whole(tmp_path, monkeypatch):
    # 23 blocks leave a short last span; a carried estimate that reached a
    # fix block would make the split rows differ from the whole-trial ones
    cfg = ScenarioConfig(
        run_trials=1, run_blocks=23, run_schemes=SCHEMES, link_snr_db=(10.0, 20.0)
    )
    outputs = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        res = run_campaign(cfg)
        trace = tmp_path / f"trace_{workers}.csv"
        summary = tmp_path / f"summary_{workers}.csv"
        write_trace_csv(str(trace), res)
        write_summary_csv(str(summary), res.summary_rows())
        outputs.append((trace.read_bytes(), summary.read_bytes()))
    assert len(campaign._units(cfg, 2)) == 5
    assert outputs[0] == outputs[1]


def test_channel_and_precoder_built_once_per_trial_block(monkeypatch):
    cfg = _small_cfg()  # 2 schemes x 2 SNRs share each trial's world
    _force_workers(monkeypatch, 1)  # the calls are counted in this process
    calls = {"effective_channel": 0, "build_precoder": 0}
    for name in calls:
        original = getattr(campaign, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(campaign, name, counted)
    run_campaign(cfg)
    assert calls == {name: cfg.run_trials * cfg.run_blocks for name in calls}


def test_span_builds_channel_and_precoder_for_its_blocks_only(monkeypatch):
    cfg = ScenarioConfig(run_trials=1, run_blocks=12, run_schemes=("gps_only",))
    calls = {"effective_channel": 0, "build_precoder": 0}
    for name in calls:
        original = getattr(campaign, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(campaign, name, counted)
    chains = campaign._run_trial(cfg, 0, range(5, 10))
    assert [[r.block for r in rows] for rows in chains] == [[5, 6, 7, 8, 9]]
    assert calls == {"effective_channel": 5, "build_precoder": 5}


def test_only_pilot_schemes_build_pilot_streams(monkeypatch):
    keys = []
    real_stream = campaign.stream

    def recorded(seed, *key):
        keys.append(key)
        return real_stream(seed, *key)

    monkeypatch.setattr(campaign, "stream", recorded)
    cfg = ScenarioConfig(run_trials=1, run_blocks=3, run_schemes=("gps_only", "codebook_max"))
    run_campaign(cfg)
    pilot_keys = [key for key in keys if key[1:2] == (campaign._PILOT,)]
    assert pilot_keys == [(0, campaign._PILOT, k) for k in range(3)] * len(cfg.link_snr_db)


def test_summarize_per_block_and_campaign_rows():
    rows = [
        _mk_row(0, 0, +0.01),
        _mk_row(1, 0, -0.01),
        _mk_row(0, 1, +0.01),
        _mk_row(1, 1, -0.01),
    ]
    cfg = ScenarioConfig()
    out = summarize(rows, cfg)
    assert len(out) == 3
    blocks = [o["block"] for o in out]
    assert blocks == [0, 1, -1]
    camp = out[-1]
    assert camp["n"] == 4
    assert abs(camp["mse_u"] - 1e-4) < 1e-18
    assert abs(camp["mae_u"] - 0.01) < 1e-15
    assert abs(camp["mae_angle"] - 0.005) < 1e-15
    assert abs(camp["rmse_pos_m"] - 1.0) < 1e-12
    assert abs(camp["mean_gain"] - 10.0) < 1e-12
    gain = predicted_gain_from_mae(camp["mae_angle"], cfg.arrays())
    assert abs(camp["pred_gain_at_mae"] - gain) < 1e-12
    assert abs(camp["pred_se_at_mae"] - spectral_efficiency(gain, cfg.budget(20.0))) < 1e-12


def test_summarize_blank_prediction_outside_main_lobe():
    rows = [_mk_row(0, 0, 0.6, scheme="gps_only"), _mk_row(1, 0, 0.6, scheme="gps_only")]
    out = summarize(rows, ScenarioConfig())
    camp = [o for o in out if o["block"] == -1][0]
    assert camp["pred_gain_at_mae"] == ""
    assert camp["pred_se_at_mae"] == ""


def _at_offsets(row, du, dv):
    """row with true (u, v) = (0, 0), so that the errors are exactly (du, dv)."""
    return dataclasses.replace(row, true_u=0.0, true_v=0.0, est_u=du, est_v=dv)


def test_summarize_predicts_at_main_lobe_limit():
    cfg = ScenarioConfig()
    lim = main_lobe_limit(cfg.arrays())
    rows = [_at_offsets(_mk_row(0, 0, 0.0), lim, -lim), _at_offsets(_mk_row(1, 0, 0.0), -lim, lim)]
    camp = summarize(rows, cfg)[-1]
    assert camp["mae_angle"] == lim
    assert camp["pred_gain_at_mae"] == predicted_gain_from_mae(lim, cfg.arrays())
    assert camp["pred_se_at_mae"] == spectral_efficiency(camp["pred_gain_at_mae"], cfg.budget(20.0))


def test_summarize_nan_mae_predicts_nan():
    rows = [_mk_row(0, 0, math.nan), _mk_row(1, 0, 0.01)]
    for out in summarize(rows, ScenarioConfig()):
        assert math.isnan(out["mae_angle"])
        assert math.isnan(out["pred_gain_at_mae"])
        assert math.isnan(out["pred_se_at_mae"])


# The summary as it was built group by group before the grouped reduction,
# kept verbatim as the oracle that summarize must match byte for byte.
def _agg(rows: list[TraceRow], cfg: ScenarioConfig, scheme, snr_db, phase_bits, block) -> dict:
    arr = cfg.arrays()
    budget = cfg.budget(snr_db)
    du = np.array([r.est_u - r.true_u for r in rows])
    dv = np.array([r.est_v - r.true_v for r in rows])
    pos2 = np.array([(r.est_x - r.true_x) ** 2 + (r.est_y - r.true_y) ** 2 for r in rows])
    mae_u = float(np.mean(np.abs(du)))
    mae_v = float(np.mean(np.abs(dv)))
    mae = 0.5 * (mae_u + mae_v)
    out = {
        "schema_version": SCHEMA_VERSION,
        "scheme": scheme,
        "snr_db": snr_db,
        "phase_bits": phase_bits,
        "block": block,
        "n": len(rows),
        "mse_u": float(np.mean(du**2)),
        "mse_v": float(np.mean(dv**2)),
        "mse_angle": float(0.5 * (np.mean(du**2) + np.mean(dv**2))),
        "mae_u": mae_u,
        "mae_v": mae_v,
        "mae_angle": mae,
        "rmse_pos_m": float(np.sqrt(np.mean(pos2))),
        "mean_gain": float(np.mean([r.gain for r in rows])),
        "mean_norm_gain": float(np.mean([r.norm_gain for r in rows])),
        "mean_se": float(np.mean([r.se_bits for r in rows])),
        "mean_iterations": float(np.mean([r.iterations for r in rows])),
        "mean_measurements": float(np.mean([r.measurements for r in rows])),
    }
    try:
        gain = predicted_gain_from_mae(mae, arr)
        out["pred_gain_at_mae"] = gain
        out["pred_se_at_mae"] = spectral_efficiency(gain, budget)
    except ValueError:
        out["pred_gain_at_mae"] = ""
        out["pred_se_at_mae"] = ""
    return out


def _summarize_oracle(rows, cfg: ScenarioConfig) -> list[dict]:
    """Per-block rows for every group, plus campaign rows under block -1."""
    groups: dict[tuple, list[TraceRow]] = {}
    for r in rows:
        groups.setdefault((r.scheme, r.snr_db, r.phase_bits), []).append(r)
    out = []
    for (scheme, snr_db, phase_bits), grp in groups.items():
        by_block: dict[int, list[TraceRow]] = {}
        for r in grp:
            by_block.setdefault(r.block, []).append(r)
        for block in sorted(by_block):
            out.append(_agg(by_block[block], cfg, scheme, snr_db, phase_bits, block))
        out.append(_agg(grp, cfg, scheme, snr_db, phase_bits, -1))
    return out


_LIM = main_lobe_limit(ScenarioConfig().arrays())
_FINITE = st.floats(-1.0, 1.0)
_ESTIMATE = st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))
# per group: errors of random size, all exactly at the lobe limit, or all just past it
_AT_LIMIT = st.sampled_from([_LIM, -_LIM])
_PAST_LIMIT = st.sampled_from([math.nextafter(_LIM, 1.0), -0.3])


@st.composite
def _trace_rows(draw):
    keys = draw(st.lists(
        st.tuples(
            st.sampled_from(SCHEMES), st.sampled_from([0.0, 10.0, 30.0]), st.sampled_from([4, 6])
        ),
        min_size=1, max_size=3, unique=True,
    ))
    rows = []
    for scheme, snr, bits in keys:
        errors = draw(st.sampled_from([None, _AT_LIMIT, _PAST_LIMIT]))
        for block in draw(st.lists(st.integers(0, 4), min_size=1, max_size=40)):
            if errors is None:
                true_u, true_v = draw(_FINITE), draw(_FINITE)
                est_u, est_v = draw(_ESTIMATE), draw(_ESTIMATE)
            else:
                true_u, true_v, est_u, est_v = 0.0, 0.0, draw(errors), draw(errors)
            rows.append(TraceRow(
                trial=len(rows), block=block, scheme=scheme, snr_db=snr, phase_bits=bits,
                true_x=draw(st.floats(-500.0, 500.0)), true_y=draw(st.floats(-500.0, 500.0)),
                true_u=true_u, true_v=true_v, true_ua=0.3, est_u=est_u, est_v=est_v,
                est_x=draw(st.one_of(st.floats(-500.0, 500.0), st.just(math.inf))),
                est_y=draw(st.floats(-500.0, 500.0)),
                gain=draw(st.floats(0.0, 25.0)), norm_gain=draw(st.floats(0.0, 1.0)),
                se_bits=draw(st.floats(0.0, 12.0)), iterations=draw(st.integers(0, 50)),
                measurements=draw(st.integers(0, 400)),
            ))
    # interleave the groups and send blocks out of order
    return draw(st.permutations(rows))


def _same(got, want) -> bool:
    if type(got) is not type(want):
        return False
    return got == want or (isinstance(got, float) and math.isnan(got) and math.isnan(want))


@settings(max_examples=300)
@given(_trace_rows())
def test_summarize_equals_group_by_group_oracle(rows):
    cfg = ScenarioConfig()
    got, want = summarize(rows, cfg), _summarize_oracle(rows, cfg)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g) == list(w)
        bad = {k: (g[k], w[k]) for k in w if not _same(g[k], w[k])}
        assert not bad, (g["scheme"], g["snr_db"], g["phase_bits"], g["block"], bad)


def test_summarize_of_no_rows_is_empty():
    assert summarize([], ScenarioConfig()) == []


def test_trace_csv_bytes_equal_fmt_and_csv_writer(tmp_path):
    odd = [-0.0, 1e-300, math.nan, math.inf, -math.inf, 0.12345678901234568]
    base = _mk_row(0, 0, 0.01)
    rows = [
        dataclasses.replace(base, trial=i, true_x=x, est_u=x, gain=x, se_bits=-x, snr_db=x)
        for i, x in enumerate(odd)
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), CampaignResult(config=ScenarioConfig(), rows=tuple(rows)))
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(TRACE_HEADER)
    for r in rows:
        w.writerow([SCHEMA_VERSION] + [campaign._fmt(getattr(r, n)) for n in TRACE_HEADER[1:]])
    assert path.read_bytes() == buf.getvalue().encode()


def test_summary_csv_bytes_equal_fmt_and_csv_writer(tmp_path):
    odd = [-0.0, 1e-300, math.nan, math.inf, -math.inf, 0.12345678901234568]
    base = summarize([_mk_row(0, 0, 0.01), _mk_row(1, 0, -0.01)], ScenarioConfig())[0]
    rows = []
    for i, x in enumerate(odd):
        row = {col: (x if isinstance(v, float) else v) for col, v in base.items()}
        row["block"] = i
        row["pred_gain_at_mae"] = "" if i % 2 else x  # blank past the main lobe
        row["pred_se_at_mae"] = "" if i % 3 else -x
        rows.append(row)
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), rows)
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SUMMARY_HEADER)
    for row in rows:
        w.writerow([campaign._fmt(row[col]) for col in SUMMARY_HEADER])
    assert path.read_bytes() == buf.getvalue().encode()
    assert ",," in path.read_text()  # the blank cells are there


def test_trace_csv_format(tmp_path):
    cfg = ScenarioConfig(run_trials=1, run_blocks=1, run_schemes=("gps_only",))
    res = run_campaign(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), res)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_HEADER)
    assert len(lines) == 1 + len(res.rows)
    first = lines[1].split(",")
    assert first[0] == str(SCHEMA_VERSION)
    assert first[6] == f"{res.rows[0].true_x:.12g}"


def test_summary_csv_round_trip(tmp_path):
    rows = [_mk_row(0, 0, 0.01), _mk_row(1, 0, -0.01)]
    summary = summarize(rows, ScenarioConfig())
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), summary)
    back = read_summary_csv(str(path))
    assert len(back) == len(summary)
    for got, want in zip(back, summary):
        assert got["scheme"] == want["scheme"]
        assert got["block"] == want["block"]
        assert got["n"] == want["n"]
        assert abs(got["mse_u"] - want["mse_u"]) < 1e-12 * max(1.0, want["mse_u"])
        assert abs(got["mean_norm_gain"] - want["mean_norm_gain"]) < 1e-12


def test_summary_csv_round_trip_types_every_column(tmp_path):
    # a mae past the main lobe leaves the prediction columns blank
    rows = [_mk_row(0, 0, 0.01), _mk_row(1, 0, -0.01), _mk_row(0, 0, 0.8, scheme="gps_only")]
    summary = summarize(rows, ScenarioConfig())
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), summary)
    back = read_summary_csv(str(path))
    assert len(back) == len(summary)
    ints = {"schema_version", "phase_bits", "block", "n"}
    for got, want in zip(back, summary):
        for col in SUMMARY_HEADER:
            if col in ints:
                assert type(got[col]) is int and got[col] == want[col], col
            elif col == "scheme":
                assert got[col] == want[col]
            elif want[col] == "":
                assert math.isnan(got[col]), col
            else:
                assert type(got[col]) is float and got[col] == float(f"{want[col]:.12g}"), col
    assert math.isnan(back[-1]["pred_gain_at_mae"]) and math.isnan(back[-1]["pred_se_at_mae"])


def test_read_summary_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("scheme,snr_db\nhybrid_gpr,20\n")
    with pytest.raises(ConfigError, match="lacks columns"):
        read_summary_csv(str(path))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    rows = [_mk_row(0, 0, 0.01)]
    path = tmp_path / "out" / "summary.csv"
    write_summary_csv(str(path), summarize(rows, ScenarioConfig()))
    assert sorted(p.name for p in path.parent.iterdir()) == ["summary.csv"]


def test_atomic_write_cleans_up_on_failure(tmp_path):
    def bad_rows():
        yield ["1"]
        raise RuntimeError("boom")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        write_csv(str(target), ["col"], bad_rows())
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o027])  # the usual default, and a group-only one
def test_written_csv_has_the_mode_open_creates(tmp_path, umask):
    saved = os.umask(umask)
    try:
        write_csv(str(tmp_path / "out.csv"), ["col"], [["1"]])
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(saved)
    mode = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("out.csv", "plain.csv")]
    assert mode[0] == mode[1]


def _sweep_summary():
    rows = []
    for snr in (0.0, 10.0):
        for scheme in ("hybrid_gpr", "perturbation", "gps_only"):
            rows.append(_mk_row(0, 0, 0.01, scheme=scheme, snr=snr))
            rows.append(_mk_row(1, 0, -0.01, scheme=scheme, snr=snr))
    return summarize(rows, ScenarioConfig(link_snr_db=(0.0, 10.0)))


def test_fig7_table_from_snr_sweep():
    header, rows = emit_figure_tables(_sweep_summary(), "fig7")
    assert header[:2] == ["scheme", "snr_db"]
    # 3 family schemes x 2 SNR points, campaign rows only
    assert len(rows) == 6
    assert {r[0] for r in rows} == {"hybrid_gpr", "perturbation", "gps_only"}


def test_fig7_requires_snr_sweep():
    rows = [_mk_row(0, 0, 0.01), _mk_row(1, 0, -0.01)]
    with pytest.raises(ConfigError, match="snr_db sweep"):
        emit_figure_tables(summarize(rows, ScenarioConfig()), "fig7")


def test_fig9_requires_family_schemes():
    with pytest.raises(ConfigError, match="fig9 needs schemes"):
        emit_figure_tables(_sweep_summary(), "fig9")


def test_fig8_table_from_phase_bits_sweep():
    rows = []
    for bits in (4, 6):
        rows.append(_mk_row(0, 0, 0.01, scheme="analog_gpr", bits=bits))
        rows.append(_mk_row(1, 0, -0.01, scheme="analog_gpr", bits=bits))
    summary = summarize(rows, ScenarioConfig(estimator_phase_bits=(4, 6)))
    header, table = emit_figure_tables(summary, "fig8")
    assert header == ["scheme", "phase_bits", "snr_db", "mse_angle"]
    assert [r[1] for r in table] == [4, 6]


def test_fig8_requires_phase_bits_sweep():
    rows = [_mk_row(0, 0, 0.01), _mk_row(1, 0, -0.01)]
    with pytest.raises(ConfigError, match="phase_bits sweep"):
        emit_figure_tables(summarize(rows, ScenarioConfig()), "fig8")


def test_fig5_needs_multiple_blocks():
    rows = [_mk_row(0, 0, 0.01), _mk_row(1, 0, -0.01)]
    with pytest.raises(ConfigError, match="blocks >= 2"):
        emit_figure_tables(summarize(rows, ScenarioConfig()), "fig5")


def test_fig5_per_block_table():
    cfg = ScenarioConfig(run_trials=1, run_blocks=4, run_schemes=("gps_only",))
    res = run_campaign(cfg)
    header, rows = emit_figure_tables(res.summary_rows(), "fig5")
    assert header == ["scheme", "snr_db", "phase_bits", "block", "rmse_pos_m"]
    assert [r[3] for r in rows] == [0, 1, 2, 3]


def test_unknown_figure_rejected():
    with pytest.raises(ConfigError, match="unknown figure"):
        emit_figure_tables(_sweep_summary(), "fig99")


def test_summary_rows_carry_schema_version():
    rows = [_mk_row(0, 0, 0.01)]
    out = summarize(rows, ScenarioConfig())
    assert all(o["schema_version"] == SCHEMA_VERSION for o in out)


def test_campaign_result_wraps_rows():
    cfg = ScenarioConfig(run_trials=1, run_blocks=2, run_schemes=("gps_only",))
    res = run_campaign(cfg)
    assert isinstance(res, CampaignResult)
    assert res.config is cfg
    assert len(res.rows) == 2
    assert {r.block for r in res.rows} == {0, 1}


def _checked_measurements(r, cfg, size):
    """Assert that row r is finite, inside the unit disk and within the
    iteration cap; return the measurements its scheme takes on a size-point grid."""
    assert all(math.isfinite(v) for v in dataclasses.astuple(r) if isinstance(v, float)), r
    assert r.est_u**2 + r.est_v**2 < 1.0
    assert 0 <= r.iterations <= cfg.estimator_max_iterations
    return {
        "hybrid_gpr": size + r.iterations,
        "analog_gpr": size,
        "gps_only": 0,
        "perturbation": 3 * r.iterations,
        "codebook_max": size,
    }[r.scheme]


# Grid points per axis grow as 2^phase_bits / nx, so a 1x8 array at 7 bits
# sweeps 82^2 points, which the config refuses; to bound run time, the
# examples that run stop at the nominal 8x8 array's grid at 7 bits
_FUZZ_GRID_CAP = 121


@settings(max_examples=50, deadline=None)
@example(nx=8, ny=8, nu=8, snr_db=300.0, phase_bits=7, horizon_dh=None, blocks=3, seed=0)
@example(nx=1, ny=8, nu=1, snr_db=-10.0, phase_bits=4, horizon_dh=0.5, blocks=3, seed=1)
@example(nx=8, ny=1, nu=8, snr_db=300.0, phase_bits=7, horizon_dh=5.0, blocks=3, seed=2)
@example(nx=1, ny=1, nu=1, snr_db=10.0, phase_bits=1, horizon_dh=None, blocks=1, seed=3)
@given(
    nx=st.integers(1, 8),
    ny=st.integers(1, 8),
    nu=st.integers(1, 8),
    snr_db=st.floats(-10.0, 300.0),
    phase_bits=st.integers(1, 7),
    horizon_dh=st.none() | st.floats(0.5, 5.0),
    blocks=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_edge_configurations_run_clean(nx, ny, nu, snr_db, phase_bits, horizon_dh, blocks, seed):
    arr = ArrayConfig(nx=nx, ny=ny, nu=nu)
    size = candidate_set(0.0, 0.0, arr, phase_bits).size
    # horizon_dh meters above the station and 2-3 km out along both axes:
    # elevations of about 0.007 to 0.1 degrees
    geometry = {} if horizon_dh is None else dict(
        scenario_uav_height=ScenarioConfig.scenario_gs_height + horizon_dh,
        scenario_init_min=2000.0, scenario_init_max=3000.0,
    )
    config = dict(
        array_nx=nx, array_ny=ny, array_nu=nu, link_snr_db=(snr_db,),
        estimator_phase_bits=(phase_bits,), run_trials=1, run_blocks=blocks, run_seed=seed,
        run_schemes=SCHEMES, **geometry,
    )
    if size > MAX_GRID_POINTS:  # refused at load, before any trial
        with pytest.raises(ConfigError, match=f"sweeps {size} grid points"):
            ScenarioConfig(**config)
    assume(size <= _FUZZ_GRID_CAP)
    cfg = ScenarioConfig(**config)
    # one trial of at most 3 blocks is one unit, which runs in this process;
    # any exception, np.linalg.LinAlgError included, fails the example
    rows = run_campaign(cfg).rows
    assert len(rows) == blocks * len(SCHEMES)
    pilots = nx * ny > 1 and size >= 2  # else every pilot scheme falls back to the seed
    for r in rows:
        measurements = _checked_measurements(r, cfg, size)
        fallback = (r.iterations, r.measurements) == (0, 0)
        if r.scheme == "codebook_max":
            assert r.iterations == 0
        # a grid that clips to a point near the horizon falls back as well
        assert (r.measurements == measurements and pilots) or fallback, r


def test_largest_admitted_grid_runs_clean():
    # the nominal 8x8 array at 8 phase bits sweeps the largest grid the
    # config admits; at -10 dB hybrid_gpr runs to its iteration cap, on a
    # model of up to 491 points
    cfg = ScenarioConfig(
        link_snr_db=(-10.0, 10.0, 300.0), estimator_phase_bits=(8,), run_trials=1,
        run_blocks=1, run_seed=3, run_schemes=SCHEMES,
    )
    size = candidate_set(0.0, 0.0, cfg.arrays(), 8).size
    assert size == MAX_GRID_POINTS
    rows = run_campaign(cfg).rows
    assert len(rows) == len(cfg.link_snr_db) * len(SCHEMES)
    for r in rows:
        assert r.measurements == _checked_measurements(r, cfg, size), r


# one alternate value per config key, as written in a config file, against
# the base campaign of test_every_config_key_reaches_the_trace
ALTERNATES = {
    "array.nx": "6",
    "array.ny": "6",
    "array.nu": "4",
    "link.snr_db": "20",
    "schedule.t_block": "0.005",
    "schedule.t_gps": "0.03",
    "schedule.t_ins": "0.03",
    "sensors.sigma_gps_m": "4.0",
    "sensors.sigma_ins_m": "1.0",
    "sensors.sigma_heading_deg": "1.0",
    "mobility.rho": "0.9",
    "mobility.speed_min_kmh": "60",
    "mobility.speed_max_kmh": "120",
    "mobility.sigma_speed": "10",
    "mobility.sigma_heading": "1.0",
    "scenario.gs_height": "50",
    "scenario.uav_height": "150",
    "scenario.init_min": "20",
    "scenario.init_max": "80",
    "estimator.eta": "0.02",
    "estimator.epsilon_scale": "0.01",
    "estimator.max_iterations": "5",
    "estimator.refit_every": "2",
    "estimator.phase_bits": "5",
    "run.trials": "2",
    "run.blocks": "5",
    "run.seed": "1",
    "run.schemes": "hybrid_gpr, analog_gpr, gps_only, perturbation",
}


def test_every_config_key_reaches_the_trace(monkeypatch):
    # a key whose value no trace row depends on is dead; a new key needs a
    # case here. Swapping the one value must change the rows of a small
    # campaign that runs every scheme.
    attrs = {key.replace(".", "_", 1): key for key in ALTERNATES}
    assert set(attrs) == set(FIELD_TYPES)
    _force_workers(monkeypatch, 1)
    base = ScenarioConfig(run_trials=1, run_blocks=6, run_schemes=SCHEMES, link_snr_db=(10.0,))
    rows = run_campaign(base).rows
    for attr, key in attrs.items():
        swapped = base.override(**{attr: parse_value(ALTERNATES[key], FIELD_TYPES[attr])})
        assert getattr(swapped, attr) != getattr(base, attr), key
        assert run_campaign(swapped).rows != rows, key
