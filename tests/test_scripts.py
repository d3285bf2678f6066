"""Smoke tests of the paper-figure scripts at one trial, and of the
equivalence campaigns' table."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uavtrack.config import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "script, figures",
    [
        ("run_tracking.py", {"tracking_nominal": ("fig5", "fig6")}),
        (
            "run_estimation_sweep.py",
            {"estimation_sweep": ("fig7", "fig9"), "phase_bits_sweep": ("fig8",)},
        ),
    ],
)
def test_figure_script_writes_its_tables(tmp_path, script, figures):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--trials", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    for run_dir, names in figures.items():
        for name in names:
            with open(tmp_path / run_dir / f"{name}.csv", newline="") as f:
                rows = list(csv.reader(f))
            assert len(rows) >= 2, f"{run_dir}/{name}.csv has no data row"
            assert all(len(r) == len(rows[0]) for r in rows[1:])


def test_reference_campaigns_are_valid_configs():
    campaigns = _load(ROOT / "scripts" / "reference_runs.py").campaigns()
    assert list(campaigns) == [
        "golden", "criterion7", "criterion7_single", "estimation_sweep", "phase_bits"
    ]
    assert all(isinstance(cfg, ScenarioConfig) for cfg in campaigns.values())
    # the golden campaign is the one the golden-trace test replays
    assert campaigns["golden"] == _load(ROOT / "tests" / "test_golden_trace.py").CFG

