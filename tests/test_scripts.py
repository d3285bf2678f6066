"""Smoke tests of the paper-figure script at one trial, of the
equivalence campaigns' table, and of the paired timing script."""

import csv
import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uavtrack.campaign import run_campaign, write_summary_csv, write_trace_csv
from uavtrack.config import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_figures(out_dir: Path, **environ) -> dict[str, bytes]:
    """figures.py at one trial over the paper's three configs, with no UAVTRACK_*
    variable set but those in environ; each CSV's bytes by its path under out_dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("UAVTRACK_")} | environ
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    configs = ("tracking_nominal.conf", "estimation_sweep.conf", "phase_bits.conf")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "figures.py"), "--trials", "1", str(out_dir),
         *(str(ROOT / "configs" / c) for c in configs)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    return {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in out_dir.rglob("*.csv")}


@pytest.fixture(scope="module")
def figures_run(tmp_path_factory):
    return _run_figures(tmp_path_factory.mktemp("figures"))


# figures.py writes the tables two scripts wrote before it; each case checks
# one script's tables, under the case id it had then
@pytest.mark.parametrize(
    "figures",
    [
        pytest.param({"tracking_nominal": {"fig5.csv", "fig6.csv"}}, id="run_tracking.py-figures0"),
        pytest.param(
            {"estimation_sweep": {"fig7.csv", "fig9.csv"}, "phase_bits": {"fig8.csv", "fig9.csv"}},
            id="run_estimation_sweep.py-figures1",
        ),
    ],
)
def test_figure_script_writes_its_tables(figures_run, figures):
    assert {name.split("/")[0] for name in figures_run} == {
        "tracking_nominal", "estimation_sweep", "phase_bits",
    }
    for run_dir, tables in figures.items():
        files = {name.split("/")[1] for name in figures_run if name.startswith(f"{run_dir}/")}
        assert files == {"trace.csv", "summary.csv"} | tables
        for table in tables:
            rows = list(csv.reader(figures_run[f"{run_dir}/{table}"].decode().splitlines()))
            assert len(rows) >= 2, f"{run_dir}/{table} has no data row"
            assert all(len(r) == len(rows[0]) for r in rows[1:])


def test_figures_ignores_uavtrack_environment(tmp_path, figures_run):
    # the configs are read as files, not through the CLI's UAVTRACK_* fallbacks
    assert _run_figures(tmp_path, UAVTRACK_SCHEMES="gps_only", UAVTRACK_SEED="7") == figures_run


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


def test_reference_campaigns_write_fifteen_figure_tables(tmp_path):
    # which figures a campaign supports depends on its axes and schemes, not
    # on its trial count, so one trial each shows the full run's tables
    write_figure_tables = _load(ROOT / "scripts" / "figures.py").write_figure_tables
    written = {}
    for name, cfg in _load(ROOT / "scripts" / "reference_runs.py").campaigns().items():
        summary = tmp_path / name / "summary.csv"
        write_summary_csv(str(summary), run_campaign(cfg.override(run_trials=1)).summary_rows())
        paths = write_figure_tables(str(summary))
        assert all(os.path.dirname(p) == str(summary.parent) for p in paths)
        written[name] = [os.path.basename(p) for p in paths]
    by_block = ["fig5.csv", "fig6.csv"]
    assert written == {
        "golden": ["fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv", "fig9.csv"],
        "criterion7": by_block,
        "criterion7_single": by_block,
        "estimation_sweep": ["fig7.csv", "fig9.csv"],
        "phase_bits": ["fig8.csv", "fig9.csv"],
        "gps_outage": by_block,
    }
    table = (tmp_path / "golden" / "fig8.csv").read_text().splitlines()
    assert table[0] == "scheme,phase_bits,snr_db,mse_angle" and len(table) > 1


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
         "--workload", "snr_sweep", "--passes", "10", "--trials", "1"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload snr_sweep, 1 trial(s) per pass, 10 passes each"
    assert "median per-pass ratio new/old" in done.stdout
    assert "median per-pass wall ratio new/old" in done.stdout
    assert all(" ms, wall " in line for line in lines[1:3])
    assert lines[-3].endswith("trace.csv equal in 10/10")
    assert lines[-2] == "  iterations and measurements equal in 10/10"
    # a tree is no faster than itself; ten pairs, since at two the first
    # pass's cold start alone let it read "yes" in 7 runs of 15
    assert lines[-1] == "gain shown: no"
    # quartiles of CPU and of wall time per version, each in order
    num = r"\s+(\d+\.\d+)"
    for name, line in zip(("old", "new"), lines[1:3]):
        m = re.fullmatch(
            rf"  {name}  CPU per pass Q1{num}  median{num}  Q3{num} ms,"
            rf" wall Q1{num}  median{num}  Q3{num} ms",
            line,
        )
        assert m, line
        q = [float(v) for v in m.groups()]
        assert 0.0 < q[0] <= q[1] <= q[2] and 0.0 < q[3] <= q[4] <= q[5]
    assert re.fullmatch(r"  new faster in \d+/10 pairs on CPU, \d+/10 on wall; .*", lines[-3])


@pytest.mark.parametrize(
    "old, new, shown",
    [
        ([10.0] * 9 + [11.0, 12.0], [8.0] * 11, True),  # 11/11 won, far below the old IQR
        ([10.0] * 10, [9.0] * 9 + [11.0], True),  # 9/10 won, IQR 0
        ([10.0] * 10, [9.0] * 8 + [11.0] * 2, False),  # 8/10 won
        ([8.0, 9.0, 10.0, 11.0, 12.0], [7.5, 8.5, 9.5, 10.5, 11.5], False),  # within the IQR
        ([10.0] * 10, [10.0] * 10, False),  # no pair won
    ],
)
def test_paired_timing_gain_rule(old, new, shown):
    assert _load(ROOT / "scripts" / "paired_timing.py").gain_shown(old, new) is shown


def test_paired_timing_counts_read_only_the_count_columns():
    counts = _load(ROOT / "scripts" / "paired_timing.py")._counts
    header = b"trial,scheme,est_u,iterations,measurements\n"
    base = counts(header + b"0,hybrid_gpr,0.25,11,20\n0,gps_only,0.5,0,0\n")
    assert base == [(b"11", b"20"), (b"0", b"0")]
    assert counts(header + b"0,hybrid_gpr,0.2500001,11,20\n0,gps_only,0.5,0,0\n") == base
    assert counts(header + b"0,hybrid_gpr,0.25,12,21\n0,gps_only,0.5,0,0\n") != base
