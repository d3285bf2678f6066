"""The benchmark's workloads keep the shapes of the campaigns in configs/.

bench/workloads.py writes its campaigns out as overrides of its own; these
tests load it by path, without changing it, and require each gated or
figure workload to equal the config file it measures, at the same trials
and seed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from uavtrack.config import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, conf",
    [
        ("track_degraded", "criterion7.conf"),
        ("snr_sweep", "estimation_sweep.conf"),
        ("phase_bits", "phase_bits.conf"),
    ],
)
def test_workload_equals_its_config_file(workloads, name, conf):
    seed, trials = workloads.campaign_seed(3, 2), 7
    cfg = ScenarioConfig.from_file(str(ROOT / "configs" / conf))
    assert workloads.load(name, seed, trials) == cfg.override(run_trials=trials, run_seed=seed)
