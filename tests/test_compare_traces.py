import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_traces.py"

HEADER = "schema_version,trial,block,scheme,est_u,iterations,measurements\n"
ROWS = ["1,0,0,hybrid_gpr,0.125,7,43\n", "1,0,1,gps_only,-0.5,0,0\n"]


def _run(tmp_path, new_rows, old_rows=ROWS):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(HEADER + "".join(old_rows))
    new.write_text(HEADER + "".join(new_rows))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True
    )
    return done.returncode, done.stdout


def test_identical_files(tmp_path):
    code, out = _run(tmp_path, ROWS)
    assert code == 0
    assert "2 rows, 2 byte-identical" in out
    assert "largest relative deviation: 0" in out


def test_roundoff_is_reported_with_its_column(tmp_path):
    code, out = _run(tmp_path, ["1,0,0,hybrid_gpr,0.125000000001,7,43\n", ROWS[1]])
    assert code == 0
    assert "2 rows, 1 byte-identical" in out
    assert "largest relative deviation: 8e-12 in est_u at row 1" in out


@pytest.mark.parametrize(
    "new_rows, message",
    [
        (["1,0,0,hybrid_gpr,0.125,8,43\n", ROWS[1]], "row 1: iterations differs"),
        ([ROWS[0], "1,0,1,gps_only,-0.5,0,1\n"], "row 2: measurements differs"),
        ([ROWS[0], "1,0,2,gps_only,-0.5,0,0\n"], "row 2: block differs"),
        ([ROWS[0], "1,0,1,perturbation,-0.5,0,0\n"], "row 2: scheme differs"),
        ([ROWS[0], "1,0,1,gps_only,,0,0\n"], "row 2: est_u differs"),
        (ROWS[:1], "row counts differ: 2 against 1"),
    ],
)
def test_count_key_or_length_mismatch_exits_1(tmp_path, new_rows, message):
    code, out = _run(tmp_path, new_rows)
    assert code == 1
    assert message in out


TRACE_HEADER = (
    "schema_version,trial,block,scheme,true_u,true_v,est_u,est_v,iterations,measurements\n"
)
TRACE_ROWS = [
    "1,0,0,hybrid_gpr,0.3,0.2,0.31,0.2,7,43\n",
    "1,0,0,gps_only,0.3,0.2,0.3,0.24,0,0\n",
    "1,1,0,hybrid_gpr,-0.1,0.1,-0.1,0.13,5,41\n",
    "1,1,0,gps_only,-0.1,0.1,-0.12,0.1,0,0\n",
]


def test_count_mismatch_reports_both_files_per_scheme(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(TRACE_HEADER + "".join(TRACE_ROWS))
    changed = "1,1,0,hybrid_gpr,-0.1,0.1,-0.1,0.11,9,45\n"
    new.write_text(TRACE_HEADER + "".join(TRACE_ROWS[:2]) + changed + TRACE_ROWS[3])
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True
    )
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "per scheme: rows, mean 0.5*(du^2 + dv^2), mean iterations, mean measurements",
        "  old hybrid_gpr: 2, 0.00025, 6.000, 42.000",
        "  old gps_only: 2, 0.0005, 0.000, 0.000",
        "  new hybrid_gpr: 2, 5e-05, 8.000, 44.000",
        "  new gps_only: 2, 0.0005, 0.000, 0.000",
        "row 3: iterations differs: '5' against '9'",
    ]


def test_usage_exits_2():
    assert subprocess.run([sys.executable, str(SCRIPT)], capture_output=True).returncode == 2


@pytest.mark.parametrize(
    "setup, message",
    [
        (lambda path: None, "cannot read"),
        (lambda path: path.mkdir(), "cannot read"),
        (lambda path: path.write_bytes(b"\xff\xfe\x00bad"), "cannot read"),
        (lambda path: path.write_text(""), "has no header"),
    ],
    ids=["missing", "directory", "not-text", "empty"],
)
def test_unreadable_file_exits_2(tmp_path, setup, message):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(HEADER + "".join(ROWS))
    setup(new)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True
    )
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0] and str(new) in lines[0]


def _campaign_dirs(tmp_path, new_trace_rows):
    """Two reference_runs.py-style directories with one campaign each."""
    for side, rows in (("old", ROWS), ("new", new_trace_rows)):
        campaign = tmp_path / side / "golden"
        campaign.mkdir(parents=True)
        (campaign / "trace.csv").write_text(HEADER + "".join(rows))
        (campaign / "summary.csv").write_text("scheme,mse_u\nhybrid_gpr,0.25\n")
    return tmp_path / "old", tmp_path / "new"


def _run_dirs(old, new):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True
    )


def test_directories_with_roundoff_only_exit_0(tmp_path):
    old, new = _campaign_dirs(tmp_path, ["1,0,0,hybrid_gpr,0.125000000001,7,43\n", ROWS[1]])
    done = _run_dirs(old, new)
    assert done.returncode == 0
    assert done.stdout.splitlines() == [
        "== golden/summary.csv",
        "1 rows, 1 byte-identical",
        "largest relative deviation: 0",
        "== golden/trace.csv",
        "2 rows, 1 byte-identical",
        "largest relative deviation: 8e-12 in est_u at row 1",
    ]


def test_directories_with_a_count_change_exit_1_and_name_the_file(tmp_path):
    old, new = _campaign_dirs(tmp_path, ["1,0,0,hybrid_gpr,0.125,8,43\n", ROWS[1]])
    done = _run_dirs(old, new)
    assert done.returncode == 1
    block = done.stdout.split("== golden/trace.csv\n")[1]
    assert block.startswith("row 1: iterations differs")


def test_directories_with_a_file_on_one_side_only_exit_1(tmp_path):
    old, new = _campaign_dirs(tmp_path, ROWS)
    (new / "golden" / "summary.csv").unlink()
    (new / "extra").mkdir()
    (new / "extra" / "trace.csv").write_text(HEADER + "".join(ROWS))
    done = _run_dirs(old, new)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert lines[:2] == ["== extra/trace.csv", f"only in {new}"]
    assert lines[2:4] == ["== golden/summary.csv", f"only in {old}"]


def test_directories_compare_the_figure_tables(tmp_path):
    old, new = _campaign_dirs(tmp_path, ROWS)
    fig7 = "scheme,snr_db,phase_bits,mse_angle,mean_iterations,mean_se\n"
    (old / "golden" / "fig7.csv").write_text(fig7 + "gps_only,10,6,0.002,0,7.5\n")
    (new / "golden" / "fig7.csv").write_text(fig7 + "gps_only,10,6,0.00200000000002,0,7.5\n")
    (new / "golden" / "fig8.csv").write_text("scheme,phase_bits,snr_db,mse_angle\n")
    done = _run_dirs(old, new)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert lines[:5] == [
        "== golden/fig7.csv",
        "1 rows, 0 byte-identical",
        "largest relative deviation: 1e-11 in mse_angle at row 1",
        "== golden/fig8.csv",
        f"only in {new}",
    ]


def test_directories_exit_with_the_worst_status(tmp_path):
    old, new = _campaign_dirs(tmp_path, ["1,0,0,hybrid_gpr,0.125,8,43\n", ROWS[1]])
    (new / "golden" / "summary.csv").write_text("")
    done = _run_dirs(old, new)
    assert done.returncode == 2
    assert f"{new / 'golden' / 'summary.csv'} has no header" in done.stdout
    assert "row 1: iterations differs" in done.stdout


def test_directories_without_campaign_csvs_exit_2(tmp_path):
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    done = _run_dirs(tmp_path / "old", tmp_path / "new")
    assert done.returncode == 2
    assert "no */trace.csv, */summary.csv or */fig*.csv" in done.stderr


PAIRED_HEADER = (
    "schema_version,trial,block,scheme,snr_db,phase_bits,true_u,true_v,est_u,est_v,"
    "norm_gain,iterations,measurements\n"
)


def _paired_trace(path, errors, scale=None):
    """A trace of two schemes at one SNR: row i of each scheme misses the
    truth by errors[i] on both axes, times sqrt(scale[scheme]) if given."""
    lines = [PAIRED_HEADER]
    for trial, e in enumerate(errors):
        for scheme in ("hybrid_gpr", "gps_only"):
            d = e * math.sqrt((scale or {}).get(scheme, 1.0))
            lines.append(f"1,{trial},0,{scheme},10,6,0.2,-0.1,{0.2 + d},{-0.1 + d},0.95,4,40\n")
    path.write_text("".join(lines))
    return path


def _run_paired(old, new, margin="0.1"):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--paired", margin, str(old), str(new)],
        capture_output=True, text=True,
    )


ERRORS = np.random.default_rng(3).normal(0.0, 0.01, 60)


def test_paired_file_against_itself_passes(tmp_path):
    trace = _paired_trace(tmp_path / "trace.csv", ERRORS)
    done = _run_paired(trace, trace)
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines[-1] == "paired gate: pass"
    assert lines[1].startswith("  hybrid_gpr 10 dB 6 bits, 60 pairs: err2 ")
    assert "+0.00% [+0.00%, +0.00%]" in lines[1]
    assert lines[1].endswith("iterations +0.000, measurements +0.000")
    assert lines[2].startswith("  gps_only 10 dB 6 bits, 60 pairs: ")


def test_paired_shift_of_thirty_percent_in_one_group_fails(tmp_path):
    old = _paired_trace(tmp_path / "old.csv", ERRORS)
    new = _paired_trace(tmp_path / "new.csv", ERRORS, scale={"hybrid_gpr": 1.3})
    done = _run_paired(old, new)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert lines[-1] == "paired gate: fail"
    assert "err2" in lines[1] and " +30.00% [" in lines[1]
    assert " +0.00% [+0.00%, +0.00%]" in lines[2]  # gps_only did not move


def test_paired_key_mismatch_exits_1(tmp_path):
    old = _paired_trace(tmp_path / "old.csv", ERRORS)
    new = tmp_path / "new.csv"
    new.write_text(old.read_text().replace("1,5,0,gps_only,10,", "1,5,0,gps_only,20,"))
    done = _run_paired(old, new)
    assert done.returncode == 1
    assert done.stdout.startswith("row 12: key ")
    new.write_text("".join(old.read_text().splitlines(keepends=True)[:-1]))
    done = _run_paired(old, new)
    assert (done.returncode, done.stdout) == (1, "row counts differ: 120 against 119\n")


@pytest.mark.parametrize(
    "margin, edit, message",
    [
        ("zero", None, "MARGIN must be a positive number"),
        ("-0.1", None, "MARGIN must be a positive number"),
        ("0.1", lambda text: text.replace(",norm_gain,", ",gain,"), "has no column norm_gain"),
        ("0.1", lambda text: text.replace("0.95,4,40\n", "x,4,40\n", 1), "could not convert"),
    ],
    ids=["word", "negative", "column", "number"],
)
def test_paired_bad_input_exits_2(tmp_path, margin, edit, message):
    old = _paired_trace(tmp_path / "old.csv", ERRORS)
    new = tmp_path / "new.csv"
    new.write_text(edit(old.read_text()) if edit else old.read_text())
    done = _run_paired(old, new, margin)
    assert done.returncode == 2
    assert done.stdout == ""
    assert message in done.stderr


def test_paired_interval_covers_a_known_mean():
    # 95 % intervals of the mean of 40 paired differences with mean 0.3
    # cover it in 90-99 % of replications
    spec = importlib.util.spec_from_file_location("compare_traces", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    data = np.random.default_rng(11)
    covered = 0
    for _ in range(200):
        d = 0.3 + data.standard_normal((40, 1))
        (lo,), (hi,) = script.bootstrap_interval(d, np.random.default_rng(script.BOOTSTRAP_SEED))
        covered += lo <= 0.3 <= hi
    assert 180 <= covered <= 198
