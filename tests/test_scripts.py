"""Smoke tests of the paper-figure scripts at one trial, of the
equivalence campaigns' table, and of the paired timing script."""

import csv
import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uavtrack.campaign import run_campaign, write_trace_csv
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
        "golden", "criterion7", "criterion7_single", "estimation_sweep", "phase_bits",
        "gps_outage",
    ]
    assert all(isinstance(cfg, ScenarioConfig) for cfg in campaigns.values())
    # the longest hybrid chains: one fix, then 99 blocks refitted from it
    outage = campaigns["gps_outage"]
    assert (outage.run_trials, outage.run_blocks) == (4, 100)
    assert outage.schedule().gps_every >= outage.run_blocks
    assert "hybrid_gpr" in outage.run_schemes
    # the golden campaign is the one the golden-trace test replays
    assert campaigns["golden"] == _load(ROOT / "tests" / "test_golden_trace.py").CFG


def test_float_digest_sees_one_ulp_the_csv_hides(tmp_path):
    float_digest = _load(ROOT / "scripts" / "reference_runs.py").float_digest
    result = run_campaign(
        ScenarioConfig(run_trials=1, run_blocks=2, run_schemes=("hybrid_gpr", "gps_only"))
    )
    rows = list(result.rows)
    digest = float_digest(rows)
    assert float_digest(list(rows)) == digest
    for field in dataclasses.fields(rows[1]):
        if field.type == "float":
            up = float(np.nextafter(getattr(rows[1], field.name), np.inf))
            moved = rows[:1] + [dataclasses.replace(rows[1], **{field.name: up})] + rows[2:]
            assert float_digest(moved) != digest, field.name
    # one ulp on est_u leaves the 12-digit trace unchanged
    up = dataclasses.replace(rows[1], est_u=float(np.nextafter(rows[1].est_u, np.inf)))
    for name, trace_rows in [("old", rows), ("new", rows[:1] + [up] + rows[2:])]:
        write_trace_csv(str(tmp_path / name), dataclasses.replace(result, rows=tuple(trace_rows)))
    assert (tmp_path / "old").read_bytes() == (tmp_path / "new").read_bytes()


def test_paired_timing_compares_a_tree_with_itself():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paired_timing.py"), src, src,
         "--workload", "snr_sweep", "--passes", "2", "--trials", "1"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload snr_sweep, 1 trial(s) per pass, 2 passes each"
    assert "median per-pass ratio new/old" in done.stdout
    assert "median per-pass wall ratio new/old" in done.stdout
    assert all(" ms, wall " in line for line in lines[1:3])
    assert lines[-1].endswith("trace.csv equal in 2/2")
