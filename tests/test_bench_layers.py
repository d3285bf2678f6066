"""The per-layer tracer in bench/layers.py finds every function it wraps.

The tracer replaces functions by module attribute, where their callers look
them up. A rename or an inlined call in the package would silently drop a
layer from the traced benchmark, so these tests run a small campaign under
the tracer and check that every layer records calls.
"""

import importlib.util
from pathlib import Path

import pytest

from uavtrack import campaign
from uavtrack.config import SCHEMES, ScenarioConfig

_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(layers):
    for owner, attr, name in layers._WRAPPED:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} ({name}) is missing"


def test_traced_campaign_reaches_every_layer_and_restores(layers):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in layers._WRAPPED]
    cfg = ScenarioConfig(run_trials=1, run_blocks=2, run_schemes=SCHEMES, link_snr_db=(10.0,))
    tracer = layers.Tracer()
    with tracer.installed():
        campaign.run_campaign(cfg)
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    # the benchmark itself calls run, summary and write; everything else is
    # reached from inside run_campaign
    driver = {"campaign.run", "campaign.summary", "campaign.write"}
    for name in sorted({name for _, _, name in layers._WRAPPED} - driver):
        assert calls.get(name, 0) > 0, f"no calls recorded for {name}"
    assert calls["tracking.gps_only"] == cfg.run_blocks
    assert calls["beamforming.build_precoder"] == cfg.run_blocks
    assert calls["channel.effective_channel"] == cfg.run_blocks
    for owner, attr, orig in originals:
        assert vars(owner)[attr] is orig, f"{owner.__name__}.{attr} was not restored"
