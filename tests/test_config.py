import math

import pytest

from uavtrack.channel import ArrayConfig, LinkBudget
from uavtrack.config import FIELD_TYPES, SCHEMES, ConfigError, ScenarioConfig, parse_value
from uavtrack.mobility import MobilityConfig
from uavtrack.sensors import Schedule, SensorNoiseConfig
from uavtrack.tracking import EstimatorConfig


def test_defaults_describe_nominal_scenario():
    cfg = ScenarioConfig()
    assert (cfg.array_nx, cfg.array_ny, cfg.array_nu) == (8, 8, 8)
    assert cfg.link_snr_db == (20.0,)
    assert cfg.schedule_t_block == 0.010
    assert cfg.schedule_t_gps == 0.050
    assert cfg.sensors_sigma_gps_m == 2.0
    assert cfg.run_blocks == 20
    assert cfg.estimator_phase_bits == (6,)


def test_from_text_round_trip():
    cfg = ScenarioConfig.from_text(
        """
        # sweep two operating points
        link.snr_db = 10, 20
        run.trials = 7
        run.schemes = hybrid_gpr, codebook_max
        estimator.phase_bits = 4, 6
        sensors.sigma_gps_m = 5.0
        """
    )
    assert cfg.link_snr_db == (10.0, 20.0)
    assert cfg.run_trials == 7
    assert cfg.run_schemes == ("hybrid_gpr", "codebook_max")
    assert cfg.estimator_phase_bits == (4, 6)
    assert cfg.sensors_sigma_gps_m == 5.0
    # untouched keys keep their defaults
    assert cfg.run_blocks == 20


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"myfile:3: unknown key 'link\.snr'"):
        ScenarioConfig.from_text("\nrun.trials = 2\nlink.snr = 10\n", source="myfile")


def test_duplicate_key_reports_line_number():
    with pytest.raises(ConfigError, match=r":2: duplicate key"):
        ScenarioConfig.from_text("run.trials = 2\nrun.trials = 3\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError, match=r":1: expected 'section\.key = value'"):
        ScenarioConfig.from_text("run.trials 2\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match=r":1: bad value for 'run\.trials'"):
        ScenarioConfig.from_text("run.trials = many\n")


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigError, match="unknown scheme"):
        ScenarioConfig.from_text("run.schemes = hybrid_gpr, psychic\n")
    assert set(ScenarioConfig().run_schemes) <= set(SCHEMES)


def test_comments_and_blanks_ignored():
    cfg = ScenarioConfig.from_text("# all defaults\n\nrun.seed = 9  # trailing note\n")
    assert cfg.run_seed == 9


def test_unit_conversions():
    cfg = ScenarioConfig(sensors_sigma_heading_deg=0.01, mobility_speed_min_kmh=36.0)
    assert abs(cfg.sensors().sigma_heading - math.radians(0.01)) < 1e-15
    assert abs(cfg.mobility().speed_min - 10.0) < 1e-12


def test_budget_noise_from_snr():
    cfg = ScenarioConfig(link_es=2.0)
    assert abs(cfg.budget(20.0).sigma_n2 - 2e-2) < 1e-15


def test_estimator_view_carries_phase_bits():
    cfg = ScenarioConfig(estimator_phase_bits=(4, 8))
    assert cfg.estimator(4).phase_bits == 4
    assert cfg.estimator(8).phase_bits == 8


def test_invalid_module_values_become_config_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig(mobility_rho=1.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(schedule_t_gps=0.007)  # not a multiple of t_block
    with pytest.raises(ConfigError):
        ScenarioConfig(run_trials=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(link_snr_db=())


def test_empty_scheme_list_rejected():
    with pytest.raises(ConfigError, match="run.schemes"):
        ScenarioConfig(run_schemes=())
    with pytest.raises(ConfigError, match="empty list"):
        ScenarioConfig.from_text("run.schemes = ,\n")


def test_override_replaces_and_revalidates():
    cfg = ScenarioConfig().override(run_trials=3, run_seed=17)
    assert cfg.run_trials == 3 and cfg.run_seed == 17
    with pytest.raises(ConfigError):
        ScenarioConfig().override(run_schemes=("nope",))


def test_parse_value_lists():
    assert parse_value("1, 2,3", tuple[int, ...]) == (1, 2, 3)
    with pytest.raises(ValueError):
        parse_value(" , ", tuple[float, ...])


def test_shipped_configs_parse(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(root.glob("*.conf")):
        cfg = ScenarioConfig.from_file(str(path))
        assert cfg.run_trials >= 1


# (key, value as written in a config file, expected message); each of these
# loaded at one time and then corrupted or crashed the campaign
BAD_VALUES = [
    ("sensors.sigma_gps_m", "nan", "sensors.sigma_gps_m must be finite"),
    ("estimator.phase_bits", "0", "estimator: phase_bits must be at least 1"),
    ("estimator.phase_bits", "6, -1", "estimator: phase_bits must be at least 1"),
    ("estimator.epsilon_scale", "nan", "estimator.epsilon_scale must be finite"),
    ("estimator.eta", "nan", "estimator.eta must be finite"),
    ("link.snr_db", "nan", "link.snr_db must be finite"),
    ("link.snr_db", "10, -inf", "link.snr_db must be finite"),
    ("link.es", "nan", "link.es must be finite"),
    ("link.es", "-1", r"link: es \(pilot energy\) must be positive"),
    ("link.snr_db", "4000", r"link: snr_db = 4000.0 puts the noise variance"),
    ("link.snr_db", "-4000", r"link: snr_db = -4000.0 puts the noise variance"),
    ("link.snr_db", "10, 4000", r"link: snr_db = 4000.0 puts the noise variance"),
    ("schedule.t_block", "0", "schedule: t_block must be positive, got 0.0"),
    ("schedule.t_block", "-0.01", "schedule: t_block must be positive, got -0.01"),
    ("scenario.init_min", "150", "mobility: init_xy_min = 150.0 exceeds init_xy_max = 100.0"),
    ("scenario.uav_height", "25", "scenario.uav_height = 25.0 must exceed scenario.gs_height"),
    ("scenario.uav_height", "10", "scenario.uav_height = 10.0 must exceed scenario.gs_height"),
    ("run.schemes", "gps_only, gps_only", "run.schemes repeats an entry: gps_only, gps_only"),
    ("link.snr_db", "10, 20, 10", "link.snr_db repeats an entry: 10.0, 20.0, 10.0"),
    ("estimator.phase_bits", "6, 6", "estimator.phase_bits repeats an entry: 6, 6"),
    ("run.seed", "-1", "run.seed must be nonnegative, got -1"),
    ("mobility.sigma_speed", "-1", "mobility: sigma_speed = -1.0 must be nonnegative"),
    ("mobility.sigma_heading", "-0.5", "mobility: sigma_heading = -0.5 must be nonnegative"),
    ("estimator.phase_bits", "9", "estimator.phase_bits = 9 on array.nx = 8 sweeps 1681 grid points"),
    ("array.nx", "1", "estimator.phase_bits = 6 on array.nx = 1 sweeps 1681 grid points"),
]


@pytest.mark.parametrize("key, text, message", BAD_VALUES)
def test_bad_values_rejected_by_constructor(key, text, message):
    attr = key.replace(".", "_")
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(**{attr: parse_value(text, FIELD_TYPES[attr])})


@pytest.mark.parametrize("key, text, message", BAD_VALUES)
def test_bad_values_rejected_by_config_text(key, text, message):
    with pytest.raises(ConfigError, match=f"^myfile: {message}"):
        ScenarioConfig.from_text(f"run.trials = 2\n{key} = {text}\n", source="myfile")


def test_module_config_defaults_equal_the_scenario_defaults():
    # unit tests build the module configs with their own defaults; those
    # must be the scenario that a default campaign runs
    cfg = ScenarioConfig()
    assert cfg.arrays() == ArrayConfig()
    assert cfg.budget(20.0) == LinkBudget()
    assert cfg.schedule() == Schedule()
    assert cfg.sensors() == SensorNoiseConfig()
    assert cfg.mobility() == MobilityConfig()
    assert cfg.estimator(6) == EstimatorConfig()


def test_nominal_config_file_equals_the_defaults():
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "tracking_nominal.conf"
    assert ScenarioConfig.from_file(str(path)) == ScenarioConfig()


@pytest.mark.parametrize(
    "line", ["estimator.fit_noise = false", "estimator.perturbation_delta = 0.03",
             "mobility.noise_mode = literal"],
)
def test_retired_keys_are_unknown(line):
    key = line.split(" =")[0]
    with pytest.raises(ConfigError, match=f"^myfile:2: unknown key '{key}'"):
        ScenarioConfig.from_text(f"run.trials = 2\n{line}\n", source="myfile")
