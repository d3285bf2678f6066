import subprocess
import sys
from pathlib import Path

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
