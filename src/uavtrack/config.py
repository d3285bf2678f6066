"""Scenario configuration: flat dotted-key text files, strictly validated.

The on-disk format is one `section.key = value` pair per line, with `#`
comments and blank lines ignored. Every key must belong to the known
schema; unknown keys and malformed lines are rejected with their line
number. Lists (SNR sweeps, schemes, phase bits) are comma separated.
"""

import math
from dataclasses import dataclass, fields, replace
from functools import partial

from .beamforming import candidate_set
from .channel import ArrayConfig, LinkBudget
from .mobility import MobilityConfig
from .sensors import Schedule, SensorNoiseConfig
from .tracking import EstimatorConfig

__all__ = ["ConfigError", "ScenarioConfig", "SCHEMES", "ANALOG_SCHEMES", "FIELD_TYPES", "parse_value"]

SCHEMES = ("hybrid_gpr", "analog_gpr", "gps_only", "perturbation", "codebook_max")
# schemes with a phase-quantized data beam: the fig9 family; the rest make up fig7
ANALOG_SCHEMES = ("analog_gpr", "codebook_max")

KMH = 1.0 / 3.6
# the most points a sweep grid may have: 21 x 21, the 8x8 array's grid at 8 phase bits
MAX_GRID_POINTS = 441


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration input."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description with the nominal scenario as defaults.

    Heights and the ground station sit at their nominal values: station
    at the origin 25 m up, UAV at 200 m over a 10..100 m start box.
    snr_db and phase_bits are sweep axes; schemes run paired on identical
    trajectory, sensor and pilot noise.
    """

    # array geometry
    array_nx: int = 8
    array_ny: int = 8
    array_nu: int = 8
    # link
    link_snr_db: tuple[float, ...] = (20.0,)
    # schedule
    schedule_t_block: float = 0.010
    schedule_t_gps: float = 0.050
    schedule_t_ins: float = 0.020
    # sensors
    sensors_sigma_gps_m: float = 2.0
    sensors_sigma_ins_m: float = 0.0
    sensors_sigma_heading_deg: float = 0.01
    # mobility and scenario geometry
    mobility_rho: float = 0.99
    mobility_speed_min_kmh: float = 40.0
    mobility_speed_max_kmh: float = 160.0
    mobility_sigma_speed: float = 5.0
    mobility_sigma_heading: float = 0.5
    scenario_gs_height: float = 25.0
    scenario_uav_height: float = 200.0
    scenario_init_min: float = 10.0
    scenario_init_max: float = 100.0
    # estimator
    estimator_eta: float = 0.01
    estimator_epsilon_scale: float = 1e-3
    estimator_max_iterations: int = 50
    estimator_refit_every: int = 5
    estimator_phase_bits: tuple[int, ...] = (6,)
    # run
    run_trials: int = 200
    run_blocks: int = 20
    run_seed: int = 0
    run_schemes: tuple[str, ...] = ("hybrid_gpr", "gps_only")

    def __post_init__(self):
        for name in self.run_schemes:
            if name not in SCHEMES:
                raise ConfigError(f"unknown scheme {name!r}; valid: {', '.join(SCHEMES)}")
        if self.run_trials < 1 or self.run_blocks < 1:
            raise ConfigError("run.trials and run.blocks must be at least 1")
        if self.run_seed < 0:
            raise ConfigError(f"run.seed must be nonnegative, got {self.run_seed}")
        for key in ("run.schemes", "link.snr_db", "estimator.phase_bits"):
            values = getattr(self, key.replace(".", "_"))
            if not values:
                raise ConfigError(f"{key} must name at least one value")
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} repeats an entry: {', '.join(map(str, values))}")
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name.replace('_', '.', 1)} must be finite, got {v!r}")
        if self.scenario_uav_height <= self.scenario_gs_height:
            raise ConfigError(
                f"scenario.uav_height = {self.scenario_uav_height} must exceed "
                f"scenario.gs_height = {self.scenario_gs_height}"
            )
        # constructing the module configs validates their own ranges
        views = [("array", self.arrays), ("schedule", self.schedule), ("sensors", self.sensors)]
        views += [("mobility", self.mobility)]
        views += [("link", partial(self.budget, snr)) for snr in self.link_snr_db]
        views += [("estimator", partial(self.estimator, b)) for b in self.estimator_phase_bits]
        for section, view in views:
            try:
                view()
            except ValueError as e:
                raise ConfigError(f"{section}: {e}") from e
        for bits in self.estimator_phase_bits:
            size = candidate_set(0.0, 0.0, self.arrays(), bits).size
            if size > MAX_GRID_POINTS:
                raise ConfigError(
                    f"estimator.phase_bits = {bits} on array.nx = {self.array_nx} sweeps "
                    f"{size} grid points, past the cap of {MAX_GRID_POINTS}"
                )

    # module-config views -------------------------------------------------

    def arrays(self) -> ArrayConfig:
        return ArrayConfig(nx=self.array_nx, ny=self.array_ny, nu=self.array_nu)

    def budget(self, snr_db: float) -> LinkBudget:
        return LinkBudget(snr_db=snr_db)

    def schedule(self) -> Schedule:
        return Schedule(
            t_block=self.schedule_t_block,
            t_gps=self.schedule_t_gps,
            t_ins=self.schedule_t_ins,
        )

    def sensors(self) -> SensorNoiseConfig:
        return SensorNoiseConfig(
            sigma_gps=self.sensors_sigma_gps_m,
            sigma_ins_pos=self.sensors_sigma_ins_m,
            sigma_heading=math.radians(self.sensors_sigma_heading_deg),
        )

    def mobility(self) -> MobilityConfig:
        return MobilityConfig(
            rho=self.mobility_rho,
            speed_min=self.mobility_speed_min_kmh * KMH,
            speed_max=self.mobility_speed_max_kmh * KMH,
            sigma_speed=self.mobility_sigma_speed,
            sigma_heading=self.mobility_sigma_heading,
            t_block=self.schedule_t_block,
            init_xy_min=self.scenario_init_min,
            init_xy_max=self.scenario_init_max,
            uav_height=self.scenario_uav_height,
        )

    def estimator(self, phase_bits: int) -> EstimatorConfig:
        return EstimatorConfig(
            eta=self.estimator_eta,
            epsilon_scale=self.estimator_epsilon_scale,
            max_iterations=self.estimator_max_iterations,
            refit_every=self.estimator_refit_every,
            phase_bits=phase_bits,
        )

    # parsing --------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "ScenarioConfig":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected 'section.key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            attr = key.replace(".", "_")
            if attr not in FIELD_TYPES:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            if attr in values:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            try:
                values[attr] = parse_value(val.strip(), FIELD_TYPES[attr])
            except ValueError as e:
                raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {e}") from e
        try:
            return cls(**values)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{source}: {e}") from e

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_text(f.read(), source=path)

    def override(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


def parse_value(text: str, typ):
    """Convert one config token (or comma list) to its schema type."""
    if typ is int:
        return int(text)
    if typ is float:
        return float(text)
    if typ is str:
        return text
    if typ in (tuple[float, ...], tuple[int, ...], tuple[str, ...]):
        item = {tuple[float, ...]: float, tuple[int, ...]: int, tuple[str, ...]: str}[typ]
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty list")
        return tuple(item(p) for p in parts)
    raise ValueError(f"unsupported type {typ}")


FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
