import os

import numpy as np
import pytest

from uavtrack import campaign
from uavtrack.blas import openblas_pools
from uavtrack.config import ScenarioConfig

CFG = ScenarioConfig(run_trials=1, run_blocks=1, run_schemes=("hybrid_gpr",))


def _counts():
    return [pool.get() for pool in openblas_pools()]


@pytest.fixture
def two_threads():
    """Every pool on two threads, so that both the limit inside a campaign
    and the restore after it show on any machine; the previous counts come
    back afterwards."""
    saved = _counts()
    for pool in openblas_pools():
        pool.set(2)
    yield [2] * len(saved)
    for pool, n in zip(openblas_pools(), saved):
        pool.set(n)


def test_openblas_pools_found():
    # numpy and scipy both load an OpenBLAS here; finding none would leave
    # every campaign multithreaded without notice
    assert openblas_pools()


def test_campaign_runs_on_one_blas_thread_and_restores(two_threads, monkeypatch):
    seen = []
    real_run_trial = campaign._run_trial

    def spy(cfg, trial, blocks):
        seen.append(_counts())
        return real_run_trial(cfg, trial, blocks)

    monkeypatch.setattr(campaign, "_run_trial", spy)
    rows = campaign.run_campaign(CFG).rows
    assert len(rows) == 1
    assert seen == [[1] * len(two_threads)]
    assert _counts() == two_threads


def test_campaign_restores_blas_threads_when_a_trial_raises(two_threads, monkeypatch):
    def fail(cfg, trial, blocks):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(campaign, "_run_trial", fail)
    with pytest.raises(RuntimeError, match="trial failed"):
        campaign.run_campaign(CFG)
    assert _counts() == two_threads


def test_campaign_workers_inherit_one_blas_thread(two_threads, monkeypatch):
    def spy(cfg, trial, blocks):
        # runs in a forked worker: it must see the parent's one thread, and
        # BLAS work must start no OpenBLAS threads, as a setter call would
        counts = _counts()
        np.ones((64, 64)) @ np.ones((64, 64))
        threads = len(os.listdir("/proc/self/task"))
        if counts != [1] * len(counts) or threads != 1:
            raise RuntimeError(f"worker BLAS threads {counts}, OS threads {threads}")
        return [[os.getpid()]]  # one chain of one row

    monkeypatch.setattr(campaign, "_worker_count", lambda trials: min(2, trials))
    monkeypatch.setattr(campaign, "_run_trial", spy)
    pids = campaign.run_campaign(CFG.override(run_trials=2)).rows
    assert len(pids) == 2 and os.getpid() not in pids
    assert _counts() == two_threads
