import csv
import io
import os
from pathlib import Path

import pytest

from uavtrack import campaign
from uavtrack.cli import main, simulate
from uavtrack.config import SCHEMES, ConfigError, ScenarioConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_empty_scheme_list_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--schemes", " , "]) == 2
    assert "bad value --schemes=' , ': empty list" in capsys.readouterr().err
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
        # counted, not built: at 40 bits the grid outgrows memory, and 2^2000 overflows a float
        ("estimator.phase_bits = 40", "sweeps 7655612186234027615076 grid points, past the cap"),
        ("estimator.phase_bits = 2000", "phase_bits = 2000 on array.nx = 8 sweeps inf grid points, past the cap"),
    ],
)
def test_load_time_rejections_exit_2(tmp_path, capsys, line, message):
    cfg = _write_config(tmp_path, SMALL + line + "\n")
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["file", "flag"])
def test_negative_seed_exit_2(tmp_path, capsys, source):
    cfg = _write_config(tmp_path, SMALL + ("run.seed = -1\n" if source == "file" else ""))
    out = tmp_path / "runs"
    argv = ["simulate", "--config", cfg, "--out", str(out)]
    if source == "flag":
        argv.append("--seed=-1")
    assert main(argv) == 2
    assert "run.seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bits, size", [("40", "7655612186234027615076"), ("2000", "inf")])
def test_phase_bits_flag_past_the_grid_cap_exit_2(tmp_path, capsys, bits, size):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--phase-bits", bits]) == 2
    message = f"estimator.phase_bits = {bits} on array.nx = 8 sweeps {size} grid points, past the cap"
    assert message in capsys.readouterr().err
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


def test_tables_from_simulated_summary(tmp_path, capsys):
    # one scheme at one SNR over two blocks: the per-block tables, and no
    # fig7 for want of an SNR sweep
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["fig5.csv", "fig6.csv", "summary.csv", "trace.csv"]
    header = (out / "fig6.csv").read_text().splitlines()[0]
    assert header == "scheme,snr_db,phase_bits,block,mean_norm_gain,mean_se"
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out / 'fig6.csv'}"


# the paper's tables by the config that writes them
PAPER_TABLES = {
    "tracking_nominal": ["fig5.csv", "fig6.csv"],
    "estimation_sweep": ["fig7.csv", "fig9.csv"],
    "phase_bits": ["fig8.csv", "fig9.csv"],
}


@pytest.mark.parametrize("conf", list(PAPER_TABLES))
def test_simulate_writes_the_paper_tables(tmp_path, conf):
    tables = PAPER_TABLES[conf]
    out = tmp_path / conf
    argv = ["simulate", "--config", str(CONFIGS / f"{conf}.conf"), "--trials", "1", "--out", str(out)]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(["summary.csv", "trace.csv", *tables])
    for table in tables:
        rows = list(csv.reader((out / table).read_text().splitlines()))
        assert len(rows) >= 2, f"{table} has no data row"
        assert all(len(r) == len(rows[0]) for r in rows[1:])


@pytest.fixture(scope="module")
def every_figure_paths(tmp_path_factory):
    """simulate's files for a campaign with per-block rows, every scheme and
    SNR and phase-bits sweeps."""
    cfg = ScenarioConfig(
        run_trials=1, run_blocks=2, run_schemes=SCHEMES, link_snr_db=(10.0, 20.0),
        estimator_phase_bits=(4, 5),
    )
    return simulate(cfg, str(tmp_path_factory.mktemp("runs")))[1]


def _read_summary(path: str) -> list[dict]:
    """The summary's rows with every cell a float but the scheme and blank cells."""
    with open(path, newline="") as f:
        return [
            {col: text if col == "scheme" or text == "" else float(text) for col, text in row.items()}
            for row in csv.DictReader(f)
        ]


@pytest.mark.parametrize("figure", list(campaign.FIGURES))
def test_tables_bytes_equal_csv_writer(every_figure_paths, figure):
    # written from the summary rows in memory, a table has the bytes that
    # csv.writer gives the summary file read back: 12 digits round-trip
    trace, summary, *tables = every_figure_paths
    out = os.path.dirname(trace)
    assert tables == [os.path.join(out, f"{name}.csv") for name in campaign.FIGURES]
    header, table = campaign.emit_figure_tables(_read_summary(summary), figure)
    assert len(table) >= 2
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerows([header, *table])
    assert Path(out, f"{figure}.csv").read_bytes() == buf.getvalue().encode()


def test_simulate_ignores_uavtrack_environment(tmp_path, monkeypatch):
    # flags and the config file are the only inputs; read, any of these
    # variables would change the bytes or where they go
    cfg = _write_config(tmp_path, SMALL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    for name, value in [
        ("TRIALS", "2"), ("SEED", "7"), ("SCHEMES", "hybrid_gpr"), ("OUT", str(tmp_path / "env")),
    ]:
        monkeypatch.setenv(f"UAVTRACK_{name}", value)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0  # --out defaults to runs
    plain, runs = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("plain", "runs"))
    assert runs == plain
    assert not (tmp_path / "env").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{simulate}" in out and "UAVTRACK" not in out  # the one subcommand


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
    assert "{simulate}" in proc.stdout
