"""Scenario configuration and seeded Monte Carlo sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from squintlab import (
    FieldModel,
    RngStream,
    ScenarioConfig,
    sample_paths,
    sample_scenario,
    sample_user_paths,
)


def mean_power(paths):
    """Average |gain|^2 over a path list."""
    return float(np.mean([abs(p.gain) ** 2 for p in paths]))


def test_defaults_are_the_reference_system_scale():
    cfg = ScenarioConfig()
    assert cfg.num_antennas == 1024
    assert cfg.center_freq_hz == 7.0e9
    assert cfg.bandwidth_hz == 600.0e6
    assert cfg.num_subcarriers == 256
    assert cfg.num_near_paths == 4
    assert cfg.num_far_paths == 1
    assert cfg.num_users == 8
    assert cfg.num_subarrays == 8
    assert cfg.snr_db == 10.0
    assert cfg.seed == 42
    assert (cfg.distance_min_m, cfg.distance_max_m) == (10.0, 100.0)


def test_derived_objects_echo_the_fields():
    cfg = ScenarioConfig(num_antennas=64, num_subcarriers=32, bandwidth_hz=1e8)
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    assert geom.num_antennas == 64
    assert geom.center_freq_hz == 7e9
    assert grid.num_subcarriers == 32
    assert grid.bandwidth_hz == pytest.approx(1e8, rel=1e-15)
    assert thr.kappa_a == 0.125 and thr.kappa_f == 0.125
    assert cfg.noise_power == 1.0
    assert cfg.power == pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize(
    "changes",
    [
        {"num_antennas": 0},
        {"num_subcarriers": 0},
        {"num_near_paths": -1},
        {"num_far_paths": -1},
        {"num_users": 0},
        {"num_subarrays": 0},
        {"trials": 0},
        {"distance_min_m": 0.0},
        {"distance_min_m": 50.0, "distance_max_m": 10.0},
        {"center_freq_hz": -1.0},
        {"bandwidth_hz": 0.0},
    ],
)
def test_config_validation(changes):
    with pytest.raises(ValueError):
        ScenarioConfig(**changes)


_FLOAT_FIELDS = ["center_freq_hz", "bandwidth_hz", "kappa_a", "kappa_f", "snr_db",
                 "distance_min_m", "distance_max_m", "far_gain_offset_db"]


def test_float_field_list_is_complete():
    assert _FLOAT_FIELDS == [name for name, value in ScenarioConfig().to_dict().items()
                             if isinstance(value, float)]


@pytest.mark.parametrize("build", [lambda d: ScenarioConfig(**d), ScenarioConfig.from_dict],
                         ids=["constructor", "from_dict"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_config_rejects_nonfinite_floats(name, value, build):
    with pytest.raises(ValueError, match=f"must be finite: {name}"):
        build({name: value})


def test_quick_caps_grid_and_trials_only():
    cfg = ScenarioConfig(num_subcarriers=256, trials=500)
    quick = cfg.quick()
    assert quick.num_subcarriers == 64
    assert quick.trials == 100
    assert quick.num_antennas == cfg.num_antennas
    assert quick.bandwidth_hz == cfg.bandwidth_hz
    small = ScenarioConfig(num_subcarriers=16, trials=5).quick()
    assert small.num_subcarriers == 16 and small.trials == 5


def test_dict_round_trip_and_unknown_keys():
    cfg = ScenarioConfig(num_antennas=128, snr_db=-3.0)
    clone = ScenarioConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    with pytest.raises(ValueError, match="carrier_hz"):
        ScenarioConfig.from_dict({"carrier_hz": 7e9})


def test_same_seed_and_trial_reproduce_exactly():
    cfg = ScenarioConfig(num_antennas=64)
    a = sample_scenario(cfg, 17)
    b = sample_scenario(cfg, 17)
    assert a == b
    c = sample_scenario(cfg, 18)
    assert a != c
    d = sample_scenario(cfg.replace(seed=43), 17)
    assert a != d


def test_substreams_do_not_depend_on_generation_order():
    cfg = ScenarioConfig(num_antennas=64)
    forward = [sample_scenario(cfg, t) for t in range(6)]
    backward = [sample_scenario(cfg, t) for t in reversed(range(6))]
    assert forward == list(reversed(backward))


def test_rng_stream_is_keyed_not_sequential():
    a = RngStream(42, 0).generator().standard_normal(4)
    b = RngStream(42, 1).generator().standard_normal(4)
    a2 = RngStream(42, 0).generator().standard_normal(4)
    np.testing.assert_array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_growing_user_count_preserves_earlier_users():
    cfg = ScenarioConfig()
    three = sample_user_paths(cfg, 4, num_users=3)
    eight = sample_user_paths(cfg, 4, num_users=8)
    assert eight[:3] == three
    assert len(eight) == 8


def test_path_layout_near_then_far():
    cfg = ScenarioConfig()
    paths = sample_scenario(cfg, 0)
    assert len(paths) == 5
    assert [p.field_model for p in paths[:4]] == [FieldModel.WIDEBAND_NEAR] * 4
    assert paths[4].field_model is FieldModel.FAR


def test_draws_stay_inside_the_documented_ranges():
    cfg = ScenarioConfig()
    for trial in range(200):
        for p in sample_scenario(cfg, trial):
            assert -1.0 < p.sine_angle < 1.0
            assert 10.0 <= p.scatterer_distance_m <= 100.0
            assert 10.0 <= p.ue_range_m <= 100.0


def test_small_scale_gain_has_unit_mean_power():
    rng = RngStream(0, 0).generator()
    cfg = ScenarioConfig()
    paths = sample_paths(rng, cfg, 100_000, 0)
    mean = mean_power(paths)
    assert 0.99 <= mean <= 1.01


def test_far_paths_sit_at_the_configured_power_offset():
    rng = RngStream(1, 0).generator()
    cfg = ScenarioConfig()
    paths = sample_paths(rng, cfg, 0, 20_000)
    mean = mean_power(paths)
    assert 0.0099 <= mean <= 0.0101
    louder = ScenarioConfig(far_gain_offset_db=0.0)
    rng = RngStream(1, 0).generator()
    flat = mean_power(sample_paths(rng, louder, 0, 20_000))
    assert 0.99 <= flat <= 1.01



def _bits(gain, theta, d, r, model):
    """A path's floats as integers, plus its field model."""
    values = [gain.real, gain.imag, theta, d, r]
    return np.array(values, dtype=np.float64).view(np.uint64).tolist(), model


def _path_bits(path):
    return _bits(path.gain, path.sine_angle, path.scatterer_distance_m, path.ue_range_m,
                 path.field_model)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 2**32), users=st.integers(1, 12),
       near=st.integers(0, 5), far=st.integers(0, 2), distance_min=st.floats(1e-3, 500.0),
       distance_span=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
       far_offset_db=st.floats(-40.0, 0.0))
def test_sampled_paths_equal_uniform_draws_bit_for_bit(seed, trial, users, near, far,
                                                       distance_min, distance_span,
                                                       far_offset_db):
    cfg = ScenarioConfig(seed=seed, num_near_paths=near, num_far_paths=far,
                         distance_min_m=distance_min,
                         distance_max_m=distance_min + distance_span,
                         far_gain_offset_db=far_offset_db)
    far_scale = 10.0 ** (far_offset_db / 20.0)

    def oracle(rng, num_far):
        kinds = [(FieldModel.WIDEBAND_NEAR, 1.0)] * near + [(FieldModel.FAR, far_scale)] * num_far
        return [_bits(*oracles.uniform_path_draws(rng, cfg.distance_min_m, cfg.distance_max_m,
                                                  scale), model)
                for model, scale in kinds]

    rng = RngStream(seed, trial).generator()
    want = [oracle(rng, 0) for _ in range(users)]
    got = [[_path_bits(p) for p in user] for user in sample_user_paths(cfg, trial, users)]
    assert got == want
    rng = RngStream(seed, trial).generator()
    assert [_path_bits(p) for p in sample_scenario(cfg, trial)] == oracle(rng, far)
