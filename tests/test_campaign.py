import math
import os

import numpy as np
import pytest

from uavtrack import campaign
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
from uavtrack.config import SCHEMES, ConfigError, ScenarioConfig
from uavtrack.metrics import predicted_gain_from_mae, spectral_efficiency


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
    gps, _ = simulate_readings(cfg, 0, simulate_truth(cfg, 0)[0])
    assert sorted(gps) == [0, 5]
    first, last = gps[0].position, gps[5].position
    t_gps, t_block = cfg.schedule_t_gps, cfg.schedule_t_block
    want_x = last.x + t_block * ((last.x - first.x) / t_gps)
    want_y = last.y + t_block * ((last.y - first.y) / t_gps)
    row = run_campaign(cfg).rows[6]
    assert row.block == 6
    assert abs(row.est_x - want_x) < 1e-9
    assert abs(row.est_y - want_y) < 1e-9


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


def _spans(cfg, cpus):
    return [(trial, blocks.start, blocks.stop) for trial, blocks in campaign._units(cfg, cpus)]


def test_units_split_a_trial_at_its_gps_fixes():
    cfg = ScenarioConfig(run_trials=1, run_blocks=20)  # a fix every 5 blocks
    assert cfg.schedule().gps_every == 5
    assert _spans(cfg, 2) == [(0, 0, 5), (0, 5, 10), (0, 10, 15), (0, 15, 20)]
    assert _spans(cfg.override(run_blocks=23), 2)[-1] == (0, 20, 23)


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
    rows = campaign._run_trial(cfg, 0, range(5, 10))
    assert [r.block for r in rows] == [5, 6, 7, 8, 9]
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
