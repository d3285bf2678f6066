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


def test_usage_exits_2():
    assert subprocess.run([sys.executable, str(SCRIPT)], capture_output=True).returncode == 2
