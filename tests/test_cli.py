import csv
import io
import os

import pytest

from uavtrack import campaign
from uavtrack.cli import main
from uavtrack.config import SCHEMES, ConfigError, ScenarioConfig


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("UAVTRACK_"):
            monkeypatch.delenv(key)


def _write_config(tmp_path, text):
    path = tmp_path / "scenario.conf"
    path.write_text(text)
    return str(path)


SMALL = """
run.trials = 1
run.blocks = 2
run.schemes = gps_only
"""


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "trace.csv").exists()
    assert (out / "summary.csv").exists()
    stdout = capsys.readouterr().out
    assert "trace.csv" in stdout and "summary.csv" in stdout


def test_simulate_flags_override_config(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    code = main(
        ["simulate", "--config", cfg, "--out", str(out), "--trials", "2", "--seed", "9"]
    )
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    # 2 trials x 2 blocks, plus the header
    assert len(lines) == 5
    trials = {line.split(",")[1] for line in lines[1:]}
    assert trials == {"0", "1"}


def test_simulate_config_error_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.trials = nope\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "run.trials" in err


def test_simulate_missing_config_is_io_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.conf")])
    assert code == 3
    assert "i/o error:" in capsys.readouterr().err


def test_env_overrides_apply(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, SMALL)
    monkeypatch.setenv("UAVTRACK_CONFIG", cfg)
    monkeypatch.setenv("UAVTRACK_OUT", str(tmp_path / "envruns"))
    monkeypatch.setenv("UAVTRACK_TRIALS", "2")
    code = main(["simulate"])
    assert code == 0
    lines = (tmp_path / "envruns" / "trace.csv").read_text().splitlines()
    assert len(lines) == 5


def test_cli_flag_beats_env(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, SMALL)
    monkeypatch.setenv("UAVTRACK_TRIALS", "5")
    out = tmp_path / "runs"
    code = main(["simulate", "--config", cfg, "--out", str(out), "--trials", "1"])
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 3


def test_trial_config_error_in_a_worker_exits_2(tmp_path, monkeypatch, capsys):
    def fail_trial_1(cfg, trial, blocks):
        if trial == 1:
            raise ConfigError("trial 1 failed")
        return []

    monkeypatch.setattr(campaign, "_worker_count", lambda trials: min(2, trials))
    monkeypatch.setattr(campaign, "_run_trial", fail_trial_1)
    cfg = _write_config(tmp_path, SMALL)
    code = main(["simulate", "--config", cfg, "--trials", "2", "--seed", "9", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: trial 1 failed\n  in trial 1 of run.seed 9\n"


def test_scheme_config_error_prints_both_notes_and_exits_2(tmp_path, monkeypatch, capsys):
    def fail(heff, seed, arr, budget, est, rng, **kwargs):
        raise ConfigError("refine failed")

    monkeypatch.setattr(campaign, "refine_hybrid", fail)
    cfg = _write_config(tmp_path, SMALL)
    code = main([
        "simulate", "--config", cfg, "--schemes", "hybrid_gpr", "--snr-db", "10",
        "--phase-bits", "5", "--seed", "9", "--out", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        "error: refine failed\n"
        "  in scheme hybrid_gpr, snr_db 10.0, phase_bits 5, block 0\n"
        "  in trial 0 of run.seed 9\n"
    )


def test_bad_env_value_exit_2(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path, SMALL)
    monkeypatch.setenv("UAVTRACK_TRIALS", "many")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "UAVTRACK_TRIALS" in capsys.readouterr().err


def test_empty_scheme_list_exit_2(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--schemes", ","]) == 2
    assert "--schemes" in capsys.readouterr().err
    monkeypatch.setenv("UAVTRACK_SCHEMES", " , ")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "UAVTRACK_SCHEMES" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_flag_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--snr-db", "nan"]) == 2
    assert "link.snr_db must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_range_config_value_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL + "link.snr_db = 4000\n")
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "link: snr_db = 4000.0 puts the noise variance" in capsys.readouterr().err
    assert not out.exists()


def test_retired_key_exit_2(tmp_path, capsys):
    # pilots have unit energy; a config that still sets it is rejected at load
    cfg = _write_config(tmp_path, SMALL + "link.es = 1\n")
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"{cfg}:5: unknown key 'link.es'" in capsys.readouterr().err
    assert not out.exists()


def test_snr_out_of_range_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--snr-db", "10, 4000"]) == 2
    assert "link: snr_db = 4000.0 puts the noise variance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("schedule.t_block = 0", "schedule: t_block must be positive"),
        ("scenario.init_min = 150", "mobility: init_xy_min = 150.0 exceeds init_xy_max"),
        ("scenario.uav_height = 25", "scenario.uav_height = 25.0 must exceed scenario.gs_height"),
        ("link.snr_db = 10, 10", "link.snr_db repeats an entry"),
        ("mobility.sigma_speed = -1", "mobility: sigma_speed = -1.0 must be nonnegative"),
        ("mobility.sigma_heading = -1", "mobility: sigma_heading = -1.0 must be nonnegative"),
        ("array.nx = 1", "estimator.phase_bits = 6 on array.nx = 1 sweeps 1681 grid points"),
    ],
)
def test_load_time_rejections_exit_2(tmp_path, capsys, line, message):
    cfg = _write_config(tmp_path, SMALL + line + "\n")
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["file", "flag", "env"])
def test_negative_seed_exit_2(tmp_path, monkeypatch, capsys, source):
    cfg = _write_config(tmp_path, SMALL + ("run.seed = -1\n" if source == "file" else ""))
    out = tmp_path / "runs"
    argv = ["simulate", "--config", cfg, "--out", str(out)]
    if source == "flag":
        argv.append("--seed=-1")
    if source == "env":
        monkeypatch.setenv("UAVTRACK_SEED", "-1")
    assert main(argv) == 2
    assert "run.seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_scheme_flag_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--schemes", "gps_only,gps_only"]) == 2
    assert "run.schemes repeats an entry: gps_only, gps_only" in capsys.readouterr().err
    assert not out.exists()


def test_list_flags_parse_like_config_values(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    code = main(
        ["simulate", "--config", cfg, "--out", str(out), "--snr-db", "10, 20", "--phase-bits", "4,5"]
    )
    assert code == 0
    rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
    assert {(r[4], r[5]) for r in rows} == {(s, b) for s in ("10", "20") for b in ("4", "5")}


def test_tables_from_simulated_summary(tmp_path):
    cfg = _write_config(
        tmp_path,
        """
        run.trials = 1
        run.blocks = 3
        run.schemes = gps_only
        """,
    )
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    code = main(["tables", "--summary", str(out / "summary.csv"), "--figure", "fig6"])
    assert code == 0
    fig = out / "fig6.csv"
    assert fig.exists()
    header = fig.read_text().splitlines()[0]
    assert header.startswith("scheme,snr_db,phase_bits,block")


def test_tables_missing_sweep_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    code = main(["tables", "--summary", str(out / "summary.csv"), "--figure", "fig8"])
    assert code == 2
    assert "phase_bits sweep" in capsys.readouterr().err


def test_tables_figure_name_from_env_is_exact(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.setenv("UAVTRACK_FIGURE", "FIG5")
    code = main(["tables", "--summary", str(out / "summary.csv")])
    assert code == 2
    assert "unknown figure 'FIG5'" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "trace.csv"]


def test_tables_unparsable_cell_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = out / "summary.csv"
    lines = summary.read_text().splitlines()
    lines[2] = "x" + lines[2][1:]  # schema_version of the second data row
    summary.write_text("\n".join(lines) + "\n")
    code = main(["tables", "--summary", str(summary), "--figure", "fig5"])
    assert code == 2
    assert f"{summary}:3: bad schema_version value 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("cell, scheme", [("bogus", "bogus"), ('"hybrid,gpr"', "hybrid,gpr")])
def test_tables_unknown_scheme_exit_2(tmp_path, capsys, cell, scheme):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = out / "summary.csv"
    lines = summary.read_text().splitlines()
    cells = lines[2].split(",")
    cells[campaign.SUMMARY_HEADER.index("scheme")] = cell  # the second data row's
    lines[2] = ",".join(cells)
    summary.write_text("\n".join(lines) + "\n")
    code = main(["tables", "--summary", str(summary), "--figure", "fig5"])
    assert code == 2
    assert f"{summary}:3: bad scheme value {scheme!r}" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "trace.csv"]


@pytest.fixture(scope="module")
def every_figure_summary(tmp_path_factory):
    """A summary with per-block rows, every scheme and SNR and phase-bits sweeps."""
    cfg = ScenarioConfig(
        run_trials=1, run_blocks=2, run_schemes=SCHEMES, link_snr_db=(10.0, 20.0),
        estimator_phase_bits=(4, 5),
    )
    path = tmp_path_factory.mktemp("runs") / "summary.csv"
    campaign.write_summary_csv(str(path), campaign.run_campaign(cfg).summary_rows())
    return path


@pytest.mark.parametrize("figure", list(campaign.FIGURES))
def test_tables_bytes_equal_csv_writer(every_figure_summary, tmp_path, figure):
    target = tmp_path / f"{figure}.csv"
    argv = ["tables", "--summary", str(every_figure_summary), "--figure", figure]
    assert main(argv + ["--out", str(target)]) == 0
    rows = campaign.read_summary_csv(str(every_figure_summary))
    header, table = campaign.emit_figure_tables(rows, figure)
    assert len(table) >= 2
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerows([header, *table])
    assert target.read_bytes() == buf.getvalue().encode()


def test_tables_requires_arguments(capsys):
    code = main(["tables"])
    assert code == 2
    assert "--summary" in capsys.readouterr().err


def test_tables_custom_out_path(tmp_path):
    cfg = _write_config(
        tmp_path,
        """
        run.trials = 1
        run.blocks = 2
        run.schemes = gps_only
        """,
    )
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    target = tmp_path / "elsewhere" / "blocks.csv"
    code = main(
        ["tables", "--summary", str(out / "summary.csv"), "--figure", "fig5", "--out", str(target)]
    )
    assert code == 0
    assert target.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    # the one option without an environment variable
    assert "Every option except tables --out" in capsys.readouterr().out


def test_module_entry_point():
    import subprocess
    import sys

    # the child imports this checkout's package, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(campaign.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "uavtrack", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "tables" in proc.stdout
