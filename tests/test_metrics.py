import math

import numpy as np
import pytest

from reference import predicted_gain_from_mae
from uavtrack.beamforming import precoder_from_angle, steer_weights
from uavtrack.channel import ArrayConfig, LinkBudget, effective_channel
from uavtrack.geometry import SpatialAngles
from uavtrack.metrics import (
    axis_gain_ratio,
    beam_gain,
    main_lobe_limit,
    normalized_gain,
    realized_gain,
    spectral_efficiency,
)

CFG = ArrayConfig()


def test_axis_ratio_peak_and_null():
    assert abs(axis_gain_ratio(0.0, 8) - math.sqrt(8)) < 1e-12
    assert abs(axis_gain_ratio(2.0 / 8.0, 8)) < 1e-12


def test_beam_gain_peak_value():
    assert abs(beam_gain(0.0, 0.0, CFG) - 22.627416997969522) < 1e-9
    assert abs(beam_gain(0.0, 0.0, CFG) - math.sqrt(512)) < 1e-9


def test_beam_gain_frozen_offset_value():
    assert abs(beam_gain(0.125, 0.125, CFG) - 9.28931211952152) < 1e-9


def test_beam_gain_null_per_axis():
    assert beam_gain(0.25, 0.0, CFG) < 1e-10
    assert beam_gain(0.0, 0.25, CFG) < 1e-10


def test_realized_equals_closed_form_for_ideal_precoder():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        tu, tv = rng.uniform(-0.6, 0.6, 2)
        du, dv = rng.uniform(-0.2, 0.2, 2)
        h = effective_channel(
            SpatialAngles(tu, tv, u_a=0.3),
            precoder_from_angle(0.3, CFG.nu),
            1.0,
            CFG,
        )
        w = steer_weights(tu + du, tv + dv, CFG)
        assert abs(realized_gain(w, h) - beam_gain(du, dv, CFG)) < 1e-10


def test_normalized_gain_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(500):
        du, dv = rng.uniform(-1.0, 1.0, 2)
        g = normalized_gain(beam_gain(du, dv, CFG), CFG)
        assert 0.0 <= g <= 1.0 + 1e-12
    assert abs(normalized_gain(beam_gain(0.0, 0.0, CFG), CFG) - 1.0) < 1e-12


def test_spectral_efficiency_values():
    budget = LinkBudget(snr_db=0.0)
    assert spectral_efficiency(0.0, budget) == 0.0
    # gain sqrt(512) at unit SNR: log2(1 + 512)
    assert abs(spectral_efficiency(math.sqrt(512.0), budget) - 9.002815015607053) < 1e-12


def test_spectral_efficiency_monotone_in_gain():
    budget = LinkBudget(snr_db=10.0)
    gains = np.linspace(0.0, 22.0, 50)
    ses = [spectral_efficiency(g, budget) for g in gains]
    assert np.all(np.diff(ses) > 0.0)


def test_predicted_gain_from_mae():
    assert abs(predicted_gain_from_mae(0.0, CFG) - math.sqrt(512.0)) < 1e-12
    assert abs(predicted_gain_from_mae(0.125, CFG) - 9.28931211952152) < 1e-9
    with pytest.raises(ValueError):
        predicted_gain_from_mae(0.26, CFG)
    with pytest.raises(ValueError):
        predicted_gain_from_mae(-0.01, CFG)


def test_main_lobe_limit_is_first_null_of_wider_axis():
    assert main_lobe_limit(CFG) == 0.25
    assert main_lobe_limit(ArrayConfig(nx=4, ny=16, nu=1)) == 0.125


def test_predicted_gain_at_main_lobe_limit():
    lim = main_lobe_limit(CFG)
    assert predicted_gain_from_mae(lim, CFG) == beam_gain(lim, lim, CFG)


def test_predicted_gain_past_main_lobe_limit_raises():
    with pytest.raises(ValueError, match="outside the main lobe"):
        predicted_gain_from_mae(math.nextafter(main_lobe_limit(CFG), 1.0), CFG)


def test_predicted_gain_of_nan_mae_is_nan():
    assert math.isnan(predicted_gain_from_mae(math.nan, CFG))


def test_predicted_matches_realized_at_equal_offsets():
    rng = np.random.default_rng(2)
    for _ in range(100):
        mae = rng.uniform(0.0, 0.24)
        assert abs(predicted_gain_from_mae(mae, CFG) - beam_gain(mae, mae, CFG)) < 1e-12


def test_predicted_se_at_mae():
    # the summary's pred_se_at_mae: log2(1 + es g^2 / sigma_n^2) at the
    # closed-form gain for equal per-axis offsets set to the MAE
    budget = LinkBudget(snr_db=20.0)
    gain = predicted_gain_from_mae(0.05, CFG)
    want = math.log2(1.0 + beam_gain(0.05, 0.05, CFG) ** 2 / 0.01)
    assert abs(spectral_efficiency(gain, budget) - want) < 1e-12
