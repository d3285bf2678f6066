import math
from dataclasses import fields

import pytest

from uavtrack.config import SCHEMES, ConfigError, ScenarioConfig, parse_value


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


def test_perturbation_delta_nan_means_default():
    assert ScenarioConfig().estimator(6).perturbation_delta is None
    cfg = ScenarioConfig(estimator_perturbation_delta=0.03)
    assert cfg.estimator(6).perturbation_delta == 0.03


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


def test_parse_value_lists_and_booleans():
    assert parse_value("1, 2,3", tuple[int, ...]) == (1, 2, 3)
    assert parse_value("on", bool) is True
    assert parse_value("no", bool) is False
    with pytest.raises(ValueError):
        parse_value("maybe", bool)
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
    ("estimator.perturbation_delta", "inf", "estimator.perturbation_delta must be finite"),
    ("link.snr_db", "nan", "link.snr_db must be finite"),
    ("link.snr_db", "10, -inf", "link.snr_db must be finite"),
    ("link.es", "nan", "link.es must be finite"),
    ("link.es", "-1", r"link: es \(pilot energy\) must be positive"),
]


@pytest.mark.parametrize("key, text, message", BAD_VALUES)
def test_bad_values_rejected_by_constructor(key, text, message):
    attr = key.replace(".", "_")
    typ = {f.name: f.type for f in fields(ScenarioConfig)}[attr]
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(**{attr: parse_value(text, typ)})


@pytest.mark.parametrize("key, text, message", BAD_VALUES)
def test_bad_values_rejected_by_config_text(key, text, message):
    with pytest.raises(ConfigError, match=f"^myfile: {message}"):
        ScenarioConfig.from_text(f"run.trials = 2\n{key} = {text}\n", source="myfile")


def test_nan_perturbation_delta_is_the_default_sentinel():
    cfg = ScenarioConfig.from_text("estimator.perturbation_delta = nan\n")
    assert cfg.estimator(6).perturbation_delta is None
