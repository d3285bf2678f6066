"""The benchmark's workloads: campaign configurations at a fixed size.

Run as a script (`python3 bench/workloads.py <name>`), it does what a user's
fresh interpreter does before a campaign: import the package along the
simulate path and load the workload's config. The benchmark times that
from outside as its set-up cost.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    """A campaign shape and the reason it is measured."""

    why: str
    config: str | None  # repo-relative config file; None = built-in defaults
    trials: int  # per campaign, i.e. per timed pass
    panel_trials: int  # of the accuracy-panel campaign
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    "track_degraded": Workload(
        why="criterion-7 shape (hybrid_gpr + gps_only, 20 blocks, 10 dB, degraded sensors): "
        "small GP fits and appends dominate",
        config=None,
        overrides=dict(
            run_schemes=("hybrid_gpr", "gps_only"),
            run_blocks=20,
            link_snr_db=(10.0,),
            sensors_sigma_gps_m=5.0,
            sensors_sigma_ins_m=5.0,
            sensors_sigma_heading_deg=0.05,
        ),
        trials=1,
        panel_trials=4,
    ),
    "snr_sweep": Workload(
        why="fig7/fig9 sweep, five schemes x seven SNRs x one block: baselines and beam "
        "construction carry weight",
        config="configs/estimation_sweep.conf",
        trials=2,
        panel_trials=8,
    ),
    "phase_bits": Workload(
        why="fig8 sweep, analog_gpr + codebook_max over 4..8 phase bits: GP fits up to "
        "n = 441, bound by floating-point work",
        config="configs/estimation_sweep.conf",
        overrides=dict(
            run_schemes=("analog_gpr", "codebook_max"),
            link_snr_db=(10.0, 20.0),
            estimator_phase_bits=(4, 5, 6, 7, 8),
        ),
        trials=1,
        panel_trials=2,
    ),
    "gps_only_nominal": Workload(
        why="nominal tracking with gps_only: no pilots, no GP; channel, data beam, truth, "
        "sensors, summary and CSV output carry the time",
        config="configs/tracking_nominal.conf",
        overrides=dict(run_schemes=("gps_only",)),
        trials=200,
        panel_trials=200,
    ),
}


SEED_STRIDE = 1_000_000  # timed campaigns per benchmark seed, at most


def campaign_seed(seed: int, i: int) -> int:
    """The run.seed of the i-th timed campaign, derived from the benchmark
    seed: every pass of a run, and of runs at other seeds, is distinct."""
    return seed * SEED_STRIDE + i


def load(name: str, seed: int, trials: int):
    """The workload's ScenarioConfig at a given campaign seed and size."""
    from uavtrack.config import ScenarioConfig

    w = WORKLOADS[name]
    cfg = ScenarioConfig() if w.config is None else ScenarioConfig.from_file(
        os.path.join(ROOT, w.config)
    )
    return cfg.override(**w.overrides, run_trials=trials, run_seed=seed)


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    import uavtrack.campaign  # noqa: F401  (the whole simulate path, scipy included)

    load(sys.argv[1], 0, WORKLOADS[sys.argv[1]].trials)
