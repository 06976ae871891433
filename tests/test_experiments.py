"""Sweep experiments: registry, CSV emission, scheme orderings, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from squintlab import (
    CSV_HEADER,
    EXPERIMENTS,
    ArrayGeometry,
    CarrierGrid,
    InfeasiblePlanError,
    PathParams,
    ScenarioConfig,
    SquintThresholds,
    SubbandPlan,
    SweepResult,
    SweepRow,
    UserSubband,
    boundary_report,
    boundary_table,
    channel_columns,
    narrowband_mrt,
    plan_antenna_slices,
    run_experiment,
    sample_scenario,
    subcarrier_caps,
)
from squintlab import experiments, wavefield
from squintlab.cli import cli_main
from squintlab.experiments import (
    _AS_SCHEMES,
    _FS_SCHEMES,
    _allocate_adaptive,
    _antenna_slicing_amps,
    _binding_boundaries,
    _link_amps,
    _link_draws,
    _mean_se,
    resolve_threads,
)
from squintlab.slicing import _EDGE_EPS
from squintlab.wavefield import path_slots

# single deterministic near path at the sweep reference geometry
_SWEEP_PATH = PathParams(1.0, 0.1, 10.0, 10.0)
_MULTS = (0.25, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05,
          1.1, 1.15, 1.2, 1.3, 1.5, 2.0, 2.5, 3.0, 3.25)
_SNR_AXIS = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


def link_config(**overrides):
    """Small single-path config for the fixed-geometry sweeps."""
    base = dict(num_antennas=256, num_subcarriers=32, trials=3,
                num_near_paths=1, num_far_paths=0)
    base.update(overrides)
    return ScenarioConfig(**base)


def draw_config(**overrides):
    """Small multipath config for the Monte Carlo link experiments."""
    base = dict(num_antennas=128, num_subcarriers=16, trials=4,
                num_near_paths=2, num_far_paths=1)
    base.update(overrides)
    return ScenarioConfig(**base)


def mixed_width_config(**overrides):
    """Desk-scale multiuser config on a narrow band: sub-bands of several widths."""
    base = dict(num_antennas=256, num_subcarriers=64, num_near_paths=2,
                bandwidth_hz=100e6, seed=7)
    base.update(overrides)
    return ScenarioConfig(**base)


def subband_config(**overrides):
    """Small multiuser config for the sub-band experiments."""
    base = dict(num_antennas=64, num_subcarriers=16, num_users=2,
                num_subarrays=4, trials=3, num_near_paths=1, num_far_paths=0)
    base.update(overrides)
    return ScenarioConfig(**base)


def boundary_columns(result):
    """Map axis value -> the unique (b_wn, n_wn) pair of its rows."""
    per_axis = {}
    for row in result.rows:
        pair = (row.boundary_b_wn_hz, row.boundary_n_wn)
        per_axis.setdefault(row.axis, set()).add(pair)
    assert all(len(pairs) == 1 for pairs in per_axis.values())
    return {axis: next(iter(pairs)) for axis, pairs in per_axis.items()}


def scheme_ratio(result, numerator, denominator):
    per = result.se_per_scheme
    return np.array(per[numerator]) / np.array(per[denominator])


# ---------------------------------------------------------------------------
# registry and thread resolution
# ---------------------------------------------------------------------------


def test_registry_names():
    assert set(EXPERIMENTS) == {
        "gain-map", "sweep-bandwidth", "sweep-antennas",
        "se-snr-as", "se-subcarrier-as", "se-paths-as",
        "se-snr-fs", "se-subcarrier-fs", "se-paths-fs", "se-subarrays-fs",
    }


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment 'se-magic'"):
        run_experiment("se-magic", link_config())


def test_unknown_experiment_lists_known_names():
    with pytest.raises(ValueError, match="gain-map"):
        run_experiment("nope", link_config())


@pytest.mark.parametrize("raw, expected", [("1", 1), ("3", 3), ("17", 17)])
def test_thread_count_from_env(raw, expected, monkeypatch):
    monkeypatch.setenv("SQUINTLAB_THREADS", raw)
    assert resolve_threads() == expected


@pytest.mark.parametrize("env", [{}, {"SQUINTLAB_THREADS": "0"}])
def test_thread_count_auto(env, monkeypatch):
    monkeypatch.delenv("SQUINTLAB_THREADS", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert resolve_threads() >= 1


def test_thread_count_rejects_garbage(monkeypatch):
    monkeypatch.setenv("SQUINTLAB_THREADS", "many")
    with pytest.raises(ValueError, match="integer"):
        resolve_threads()


def test_thread_count_rejects_negative(monkeypatch):
    monkeypatch.setenv("SQUINTLAB_THREADS", "-1")
    with pytest.raises(ValueError, match="nonnegative"):
        resolve_threads()


# ---------------------------------------------------------------------------
# result container and CSV emission
# ---------------------------------------------------------------------------


def _toy_result():
    rows = (SweepRow(1.0, "a", 2.5, None, None),
            SweepRow(2.0, "a", 0.125, 119699244.53650245, 4.0))
    return SweepResult("x", rows, 5, 42, {"experiment": "toy"})


def test_csv_header_and_missing_boundary_fields():
    text = _toy_result().to_csv()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,a,2.5,5,42,,"
    assert lines[2] == "2,a,0.125,5,42,119699244.537,4"
    assert text.endswith("\n") and lines[3] == ""


def test_write_csv_matches_to_csv(tmp_path):
    result = _toy_result()
    target = tmp_path / "sweep.csv"
    result.write_csv(target)
    assert target.read_bytes() == result.to_csv().encode("ascii")


def test_axis_and_scheme_properties():
    rows = (SweepRow(0.0, "a", 1.0, None, None),
            SweepRow(0.0, "b", 2.0, None, None),
            SweepRow(5.0, "a", 3.0, None, None),
            SweepRow(5.0, "b", 4.0, None, None))
    result = SweepResult("x", rows, 1, 0, {})
    assert result.axis_values == (0.0, 5.0)
    assert result.schemes == ("a", "b")
    assert result.se_per_scheme == {"a": (1.0, 3.0), "b": (2.0, 4.0)}


# ---------------------------------------------------------------------------
# gain map
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gain_map():
    cfg = ScenarioConfig(num_antennas=512, num_subcarriers=64, trials=1)
    return cfg, run_experiment("gain-map", cfg)


def test_gain_map_axis_and_curve_labels(gain_map):
    cfg, result = gain_map
    assert result.axis_values == tuple(float(m) for m in range(64))
    assert result.schemes == ("eta_theta0.1_d20", "eta_theta0.3_d20",
                              "eta_theta0.5_d20", "eta_theta0.8_d20",
                              "eta_theta0.1_d10", "eta_theta0.1_d50",
                              "eta_theta0.1_d100")
    assert result.trials == 1
    assert result.meta["experiment"] == "gain-map"
    assert result.meta["config"] == cfg.to_dict()


def test_gain_map_peaks_at_carrier(gain_map):
    _, result = gain_map
    for curve in result.se_per_scheme.values():
        eta = np.asarray(curve)
        assert np.all(eta >= 0.0) and np.all(eta <= 1.0 + 1e-12)
        peak = max(eta[31], eta[32])
        assert peak == eta.max()
        assert peak > 0.95
        assert eta[0] < peak and eta[-1] < peak


def test_gain_map_boundary_columns_match_library(gain_map):
    cfg, result = gain_map
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    curves = ((0.1, 20.0), (0.3, 20.0), (0.5, 20.0), (0.8, 20.0),
              (0.1, 10.0), (0.1, 50.0), (0.1, 100.0))
    per = {scheme: [] for scheme in result.schemes}
    for row in result.rows:
        per[row.scheme].append((row.boundary_b_wn_hz, row.boundary_n_wn))
    for (theta, d), scheme in zip(curves, result.schemes):
        s, c = geom.spacing_m, geom.wave_speed
        expected_b = oracles.freq_boundary_from_variation(
            thr.total, c, oracles.near_distance_variation(geom.num_antennas, s, theta, d))
        expected_n = oracles.near_antenna_boundary(grid.bandwidth_hz, theta, d, thr.total, s, c)
        assert set(per[scheme]) == {(expected_b, expected_n)}


# ---------------------------------------------------------------------------
# fixed-geometry boundary sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bandwidth_sweep():
    cfg = link_config()
    return cfg, run_experiment("sweep-bandwidth", cfg)


@pytest.fixture(scope="module")
def antenna_sweep():
    cfg = link_config()
    return cfg, run_experiment("sweep-antennas", cfg)


def sweep_report(cfg, num_antennas=None):
    """Every boundary of the sweep path, at the configured bandwidth held exactly."""
    geom = cfg.geometry() if num_antennas is None else ArrayGeometry(num_antennas,
                                                                     cfg.center_freq_hz)
    return boundary_report(geom, CarrierGrid.from_bandwidth(cfg.bandwidth_hz, 1), _SWEEP_PATH,
                           cfg.thresholds())


def test_bandwidth_sweep_axis_spans_boundary_multiples(bandwidth_sweep):
    cfg, result = bandwidth_sweep
    b_ref = sweep_report(cfg).freq_boundary_near_hz
    assert result.axis_values == pytest.approx([b_ref * m for m in _MULTS])
    assert result.trials == 1
    assert result.meta == {"experiment": "sweep-bandwidth", "config": cfg.to_dict()}


def test_bandwidth_sweep_narrowband_decays(bandwidth_sweep):
    _, result = bandwidth_sweep
    ratio = scheme_ratio(result, "narrowband-mrt", "optimal")
    assert np.all(np.diff(ratio) < 0.0)
    assert np.all(ratio[:7] > 0.997)
    assert ratio[-1] < 0.98


def test_bandwidth_sweep_scheme_ordering(bandwidth_sweep):
    _, result = bandwidth_sweep
    per = result.se_per_scheme
    optimal = np.array(per["optimal"])
    assert np.all(optimal >= np.array(per["antenna-slicing"]) - 1e-12)
    assert np.all(optimal >= np.array(per["narrowband-mrt"]) - 1e-12)
    # below the boundary the plan keeps the whole array, so slicing == MRT
    np.testing.assert_allclose(np.array(per["antenna-slicing"])[:7],
                               np.array(per["narrowband-mrt"])[:7], rtol=1e-9)
    assert np.all(scheme_ratio(result, "antenna-slicing", "optimal") > 0.97)


def test_bandwidth_sweep_boundary_columns(bandwidth_sweep):
    cfg, result = bandwidth_sweep
    b_ref = sweep_report(cfg).freq_boundary_near_hz
    cols = boundary_columns(result)
    b_col = [cols[a][0] for a in result.axis_values]
    n_col = [cols[a][1] for a in result.axis_values]
    assert b_col == pytest.approx([b_ref] * len(_MULTS))
    assert all(x > y for x, y in zip(n_col, n_col[1:]))
    assert all(np.isfinite(n_col))


def sweep_point_se(cfg, geom, grid, path, power):
    """Every scheme's SE of one sweep path on (geom, grid) at ``power``."""
    slots = path_slots([[path]])
    amps = _link_amps(geom, slots, channel_columns(geom, grid, [slot[:, None] for slot in slots]),
                      boundary_table(geom, grid, cfg.thresholds(), slots))
    return _mean_se(amps, _AS_SCHEMES, (grid.num_subcarriers,), [power], cfg.noise_power)[0]


@pytest.mark.parametrize("axis, mult", [("bandwidth", 0.5), ("bandwidth", 1.0),
                                        ("bandwidth", 3.25), ("antennas", 0.5),
                                        ("antennas", 2.0), ("antennas", 3.25)])
def test_fixed_sweep_se_is_gain_invariant(axis, mult):
    # the sweeps evaluate their path once, at unit gain: a CN(0,1) gain g with
    # the power re-anchored to the SNR, P / |g|^2, gives the same SE
    cfg = link_config()
    report = sweep_report(cfg)
    if axis == "bandwidth":
        geom = cfg.geometry()
        grid = CarrierGrid.from_bandwidth(mult * report.freq_boundary_near_hz,
                                          cfg.num_subcarriers)
    else:
        geom = ArrayGeometry(round(mult * report.antenna_boundary_near), cfg.center_freq_hz)
        grid = cfg.grid()
    unit = sweep_point_se(cfg, geom, grid, _SWEEP_PATH, cfg.power)
    rng = np.random.default_rng(24)
    gains = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) / np.sqrt(2.0)
    for gain in gains.tolist():
        path = PathParams(gain, _SWEEP_PATH.sine_angle, _SWEEP_PATH.scatterer_distance_m,
                          _SWEEP_PATH.ue_range_m)
        power = 10 ** (cfg.snr_db / 10) * cfg.noise_power / abs(gain) ** 2
        np.testing.assert_allclose(sweep_point_se(cfg, geom, grid, path, power), unit,
                                   rtol=1e-14, atol=0.0)


def test_fixed_sweep_infeasible_point_raises():
    # a 16-antenna array at kappa_a = 1 cannot host a compliant subarray at
    # the first axis point, 0.25 B-bar; the sweep names the experiment and the
    # point instead of emitting the other points
    with pytest.raises(InfeasiblePlanError,
                       match=r"^sweep-bandwidth at bandwidth_hz=4863966379\.66: "):
        run_experiment("sweep-bandwidth", link_config(num_antennas=16, kappa_a=1.0))


def test_fixed_sweep_infeasible_point_exits_2(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code = cli_main(["run", "sweep-bandwidth", "--n", "16", "--m", "32", "--trials", "3",
                     "--num-near-paths", "1", "--num-far-paths", "0", "--kappa-a", "1",
                     "--output", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("infeasible scenario: sweep-bandwidth at bandwidth_hz=")
    assert not target.exists()


def test_antenna_sweep_axis_rounds_and_dedups(antenna_sweep):
    cfg, result = antenna_sweep
    n_ref = sweep_report(cfg).antenna_boundary_near
    counts = [max(4, round(n_ref * m)) for m in _MULTS]
    expected = tuple(float(n) for n in dict.fromkeys(counts))
    assert result.axis_values == expected
    assert min(result.axis_values) >= 4.0


def test_antenna_sweep_axis_dedup_collapses_small_targets():
    cfg = link_config(bandwidth_hz=6e9, trials=2)
    result = run_experiment("sweep-antennas", cfg)
    axis = result.axis_values
    assert len(set(axis)) == len(axis) < len(_MULTS)
    assert all(x < y for x, y in zip(axis, axis[1:]))
    assert axis[0] == 4.0


def test_antenna_sweep_narrowband_decays(antenna_sweep):
    _, result = antenna_sweep
    ratio = scheme_ratio(result, "narrowband-mrt", "optimal")
    assert np.all(np.diff(ratio) < 0.0)
    assert np.all(ratio[:6] > 0.995)
    assert ratio[-1] < 0.95
    assert np.all(scheme_ratio(result, "antenna-slicing", "optimal") > 0.97)


def test_antenna_sweep_boundary_columns(antenna_sweep):
    cfg, result = antenna_sweep
    n_ref = sweep_report(cfg).antenna_boundary_near
    cols = boundary_columns(result)
    for axis_value in result.axis_values:
        b_col, n_col = cols[axis_value]
        assert b_col == pytest.approx(sweep_report(cfg, int(axis_value)).freq_boundary_near_hz)
        assert n_col == pytest.approx(n_ref)


# ---------------------------------------------------------------------------
# Monte Carlo link experiments (antenna slicing)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def snr_sweep():
    cfg = draw_config()
    return cfg, run_experiment("se-snr-as", cfg)


def test_snr_sweep_axis_and_schemes(snr_sweep):
    cfg, result = snr_sweep
    assert result.axis_values == _SNR_AXIS
    assert result.schemes == ("antenna-slicing", "narrowband-mrt", "optimal")
    assert result.meta["infeasible_trials"] == dict.fromkeys(_SNR_AXIS, 0)
    assert result.meta["completed_trials"] == dict.fromkeys(_SNR_AXIS, cfg.trials)


def test_snr_sweep_rates_increase_with_power(snr_sweep):
    _, result = snr_sweep
    for curve in result.se_per_scheme.values():
        assert all(x < y for x, y in zip(curve, curve[1:]))


def test_snr_sweep_optimal_dominates(snr_sweep):
    _, result = snr_sweep
    per = result.se_per_scheme
    optimal = np.array(per["optimal"])
    assert np.all(optimal >= np.array(per["antenna-slicing"]) - 1e-12)
    assert np.all(optimal >= np.array(per["narrowband-mrt"]) - 1e-12)


def test_subcarrier_sweep_covers_grid_and_peaks_at_carrier():
    cfg = draw_config()
    result = run_experiment("se-subcarrier-as", cfg)
    assert result.axis_values == tuple(float(m) for m in range(cfg.num_subcarriers))
    narrowband = np.array(result.se_per_scheme["narrowband-mrt"])
    center = max(narrowband[7], narrowband[8])
    assert center >= narrowband[0] and center >= narrowband[-1]


def test_path_sweep_axis_and_per_point_infeasibility_keys():
    cfg = draw_config(trials=3)
    result = run_experiment("se-paths-as", cfg)
    assert result.axis_values == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert set(result.meta["infeasible_trials"]) == {1, 2, 3, 4, 5, 6}
    optimal = result.se_per_scheme["optimal"]
    assert optimal[-1] > optimal[0]


def test_infeasible_trials_are_counted_not_fatal():
    cfg = ScenarioConfig(num_antennas=6, num_subcarriers=8, trials=200,
                         num_near_paths=1, num_far_paths=0)
    result = run_experiment("se-snr-as", cfg)
    infeasible = result.meta["infeasible_trials"]
    completed = result.meta["completed_trials"]
    assert infeasible == dict.fromkeys(_SNR_AXIS, 14)
    assert all(infeasible[snr] + completed[snr] == cfg.trials for snr in _SNR_AXIS)
    assert np.all(np.isfinite([row.se for row in result.rows]))


def test_all_trials_infeasible_raises():
    cfg = ScenarioConfig(num_antennas=1, num_subcarriers=4, trials=2,
                         num_near_paths=1, num_far_paths=0)
    with pytest.raises(InfeasiblePlanError, match="every trial"):
        run_experiment("se-snr-as", cfg)


# ---------------------------------------------------------------------------
# multiuser sub-band experiments
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def subband_snr_sweep():
    cfg = subband_config()
    return cfg, run_experiment("se-snr-fs", cfg)


def test_subband_snr_schemes_and_meta(subband_snr_sweep):
    cfg, result = subband_snr_sweep
    assert result.axis_values == _SNR_AXIS
    assert result.schemes == ("subband-slicing", "antenna-slicing",
                              "narrowband-mrt", "optimal")
    assert result.meta["completed_trials"] == dict.fromkeys(_SNR_AXIS, cfg.trials)
    assert result.meta["infeasible_trials"] == dict.fromkeys(_SNR_AXIS, 0)
    assert result.meta["mean_users"] == pytest.approx(cfg.num_users)


def test_subband_snr_optimal_dominates(subband_snr_sweep):
    _, result = subband_snr_sweep
    per = result.se_per_scheme
    optimal = np.array(per["optimal"])
    for scheme in ("subband-slicing", "antenna-slicing", "narrowband-mrt"):
        values = np.array(per[scheme])
        assert np.all(optimal >= values - 1e-12)
        assert all(x < y for x, y in zip(values, values[1:]))


def test_subband_user_pool_grows_until_feasible():
    # four near paths per user push the delay-spread cap to one subcarrier,
    # so the user pool must double up to one user per subcarrier
    cfg = subband_config(num_near_paths=4, trials=2)
    result = run_experiment("se-snr-fs", cfg)
    assert result.meta["mean_users"] == pytest.approx(cfg.num_subcarriers)


def test_subband_subcarrier_axis_covers_grid():
    cfg = subband_config()
    result = run_experiment("se-subcarrier-fs", cfg)
    assert result.axis_values == tuple(float(m) for m in range(cfg.num_subcarriers))
    assert result.schemes == ("subband-slicing", "antenna-slicing",
                              "narrowband-mrt", "optimal")


def test_subband_path_axis_matches_link_experiment():
    cfg = subband_config(trials=2)
    result = run_experiment("se-paths-fs", cfg)
    assert result.axis_values == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert result.meta["mean_users"] >= cfg.num_users


def test_subband_path_sweep_counts_infeasibility_per_axis_point():
    # a trial infeasible at one path count still counts at the others, and
    # mean_users is the exact mean over the feasible (trial, point) draws
    cfg = ScenarioConfig(num_antennas=16, num_subcarriers=8, num_near_paths=1,
                         num_far_paths=0, num_users=2, num_subarrays=2,
                         trials=40, seed=3)
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    feasible, users_served = {}, []
    for l_n in (1, 2, 3, 4, 5, 6):
        feasible[float(l_n)] = 0
        for trial in range(cfg.trials):
            try:
                users, plan = _allocate_adaptive(cfg.replace(num_near_paths=l_n), trial)
                for subband in plan.subbands:
                    plan_antenna_slices(geom, grid, users[subband.user], thr)
            except InfeasiblePlanError:
                continue
            feasible[float(l_n)] += 1
            users_served.append(len(plan.subbands))
    assert len(set(feasible.values())) > 1 and max(feasible.values()) < cfg.trials
    result = run_experiment("se-paths-fs", cfg)
    assert result.meta["completed_trials"] == feasible
    assert result.meta["infeasible_trials"] == {
        axis: cfg.trials - count for axis, count in feasible.items()
    }
    assert result.meta["mean_users"] == np.mean(users_served)
    # 6 antennas cannot host a block for each of three near paths
    with pytest.raises(InfeasiblePlanError, match="num_near_paths=3 "):
        run_experiment("se-paths-fs", cfg.replace(num_antennas=6))


def test_subarray_axis_keeps_divisors_only():
    result = run_experiment("se-subarrays-fs", subband_config(trials=2))
    assert result.axis_values == (2.0, 4.0, 8.0, 16.0, 32.0)


def test_subarray_axis_without_divisor_rejected():
    cfg = ScenarioConfig(num_antennas=99, num_subcarriers=8, num_users=2,
                         num_subarrays=9, trials=2, num_near_paths=1,
                         num_far_paths=0)
    with pytest.raises(ValueError, match="divides num_antennas"):
        run_experiment("se-subarrays-fs", cfg)


# ---------------------------------------------------------------------------
# determinism across worker counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, cfg", [
    ("se-snr-as", draw_config(trials=6)),
    ("se-snr-fs", subband_config(trials=6)),
])
def test_csv_independent_of_thread_count(name, cfg, monkeypatch):
    # and of the chunk budget: link trials run 1, 4 (a ragged last chunk) or
    # all 6 to a chunk
    per_trial = 16 * cfg.num_antennas * cfg.num_subcarriers
    emitted = set()
    for budget in (per_trial, 4 * per_trial, experiments._CHUNK_BYTES):
        monkeypatch.setattr(experiments, "_CHUNK_BYTES", budget)
        for workers in ("1", "4", "8"):
            monkeypatch.setenv("SQUINTLAB_THREADS", workers)
            emitted.add(run_experiment(name, cfg).to_csv())
    assert len(emitted) == 1


def test_repeated_runs_are_identical():
    cfg = draw_config()
    first = run_experiment("se-snr-as", cfg).to_csv()
    second = run_experiment("se-snr-as", cfg).to_csv()
    assert first == second


# ---------------------------------------------------------------------------
# chunks of link draws
# ---------------------------------------------------------------------------


def one_trial_link_draw(config, trial):
    """One link draw evaluated alone: (amplitudes, widths, boundary columns), or None
    when its plan is infeasible.

    Its own channel and one-row table; antenna slicing through the one-owner
    multiuser helper, the baseline as one ``entries @ beam.conj()`` product and
    the matched filter as the norms of the channel's subcarrier rows.
    """
    geom, grid, thr = config.geometry(), config.grid(), config.thresholds()
    paths = sample_scenario(config, trial)
    slots = path_slots([paths])
    table = boundary_table(geom, grid, thr, slots)
    entries = channel_columns(geom, grid, [slot[:, None] for slot in slots])
    owners = np.zeros(grid.num_subcarriers, dtype=np.intp)
    try:
        slicing = _antenna_slicing_amps(geom, slots, table, owners, entries)
    except InfeasiblePlanError:
        return None
    amps = {"antenna-slicing": slicing,
            "narrowband-mrt": np.abs(entries @ narrowband_mrt(geom, paths).conj()),
            "optimal": np.linalg.norm(entries, axis=1)}
    return amps, (grid.num_subcarriers,), _binding_boundaries(table)


def assert_same_draw(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got[1:] == want[1:]
        assert got[0].keys() == want[0].keys()
        for scheme, values in want[0].items():
            assert got[0][scheme].shape == values.shape
            assert np.array_equal(got[0][scheme].view(np.uint64), values.view(np.uint64)), \
                scheme


@pytest.mark.parametrize("num_antennas, num_subcarriers, chunk",
                         [(n, m, chunk) for n, m in ((128, 16), (256, 64))
                          for chunk in (1, 2, 3, 7, 8)] + [(1024, 256, 2)])
def test_chunked_link_draws_equal_one_trial_draws_bit_for_bit(num_antennas, num_subcarriers,
                                                               chunk):
    cfg = ScenarioConfig(num_antennas=num_antennas, num_subcarriers=num_subcarriers, seed=11)
    trials = range(5, 5 + chunk)
    for trial, drawn in zip(trials, _link_draws(cfg, trials), strict=True):
        assert_same_draw(drawn, one_trial_link_draw(cfg, trial))


@pytest.mark.parametrize("workers, trials, num_antennas, num_subcarriers, chunk", [
    ("2", 10, 256, 64, 5),  # an even share: 5 + 5, not 8 + 2
    ("2", 100, 256, 64, 8),  # the budget: 2 MiB of 256 KiB channels
    ("1", 10, 256, 64, 8),
    ("2", 17, 256, 64, 8),
    ("4", 3, 256, 64, 1),
    ("2", 10, 1024, 256, 1),  # one 4 MiB channel is over the budget
    ("1", 1, 64, 16, 1),
])
def test_trials_per_task_fill_the_budget_but_leave_no_worker_idle(
        workers, trials, num_antennas, num_subcarriers, chunk, monkeypatch):
    monkeypatch.setenv("SQUINTLAB_THREADS", workers)
    cfg = ScenarioConfig(num_antennas=num_antennas, num_subcarriers=num_subcarriers,
                         trials=trials)
    assert experiments._trials_per_task(cfg, _link_draws) == chunk
    assert experiments._trials_per_task(cfg, experiments._fs_draws) == 1


def test_link_amps_equal_across_slab_budgets(monkeypatch):
    # the matched-filter norms run one slab of rows at a time, each row as
    # the norm of the whole chunk's channel gives it; one row per slab, a
    # ragged last slab (100 of 8 x 64 rows) and the whole chunk agree
    cfg = ScenarioConfig(num_antennas=256, num_subcarriers=64, seed=11)
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    slots = path_slots([sample_scenario(cfg, trial) for trial in range(8)])
    table = boundary_table(geom, grid, thr, slots)
    cols = channel_columns(geom, grid, [slot[:, None] for slot in slots])
    built = []
    for budget in (16 * 256, 100 * 16 * 256, 1 << 30):
        monkeypatch.setattr(wavefield, "_SLAB_BYTES", budget)
        built.append(_link_amps(geom, slots, cols, table))
    assert np.array_equal(built[-1]["optimal"].view(np.uint64),
                          np.linalg.norm(cols, axis=1).view(np.uint64))
    for amps in built[:-1]:
        for scheme, values in built[-1].items():
            assert np.array_equal(amps[scheme].view(np.uint64), values.view(np.uint64)), scheme


#: the declared rounding change of the subcarrier-major channel: the link
#: baseline is one BLAS product per draw over M x N rows instead of 1 x N by
#: N x M, and the norms reduce contiguous rows instead of strided columns;
#: every other amplitude keeps its bits
_BASELINE_RTOL, _OPTIMAL_RTOL = 1e-13, 1e-14


def rounding_moved(got, want):
    """Largest |got - want| / |want| over the entries that differ."""
    moved = got != want
    return float(np.max(np.abs(got - want)[moved] / np.abs(want[moved]), initial=0.0))


@pytest.mark.parametrize("num_antennas, num_subcarriers, trials",
                         [(256, 64, 12), (1024, 256, 3)])
def test_subcarrier_major_amplitudes_move_only_by_the_declared_rounding(
        num_antennas, num_subcarriers, trials):
    # slicing amplitudes equal the antenna-major expressions of
    # oracles.antenna_major_*_amps in every bit; the baseline and the optimum
    # move within the declared relative rounding
    cfg = ScenarioConfig(num_antennas=num_antennas, num_subcarriers=num_subcarriers, seed=23)
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    chunk = experiments._trials_per_task(cfg, _link_draws)
    for start in range(0, trials, chunk):
        got = _link_draws(cfg, range(start, start + chunk))
        slots = path_slots([sample_scenario(cfg, trial) for trial in range(start, start + chunk)])
        cols = channel_columns(geom, grid, [slot[:, None] for slot in slots])
        want = oracles.antenna_major_link_amps(
            geom, slots, boundary_table(geom, grid, thr, slots), cols)
        m = num_subcarriers
        for t, drawn in enumerate(got):
            assert drawn is not None
            old = {scheme: values[t * m:(t + 1) * m] for scheme, values in want.items()}
            assert np.array_equal(drawn[0]["antenna-slicing"].view(np.uint64),
                                  old["antenna-slicing"].view(np.uint64))
            assert rounding_moved(drawn[0]["narrowband-mrt"], old["narrowband-mrt"]) \
                <= _BASELINE_RTOL
            assert rounding_moved(drawn[0]["optimal"], old["optimal"]) <= _OPTIMAL_RTOL
    fs = cfg.replace(num_users=8, num_subarrays=8)
    for trial in range(2):
        got, _, _ = experiments._fs_trial_amps(fs, trial)
        old = oracles.antenna_major_fs_amps(fs, trial)
        for scheme in ("subband-slicing", "antenna-slicing", "narrowband-mrt"):
            assert np.array_equal(got[scheme].view(np.uint64), old[scheme].view(np.uint64)), \
                scheme
        assert rounding_moved(got["optimal"], old["optimal"]) <= _OPTIMAL_RTOL


def test_a_chunk_holding_an_infeasible_trial_voids_that_trial_alone():
    # the config of test_infeasible_trials_are_counted_not_fatal
    cfg = ScenarioConfig(num_antennas=6, num_subcarriers=8, trials=200,
                         num_near_paths=1, num_far_paths=0)
    want = [one_trial_link_draw(cfg, trial) for trial in range(cfg.trials)]
    infeasible = [trial for trial, drawn in enumerate(want) if drawn is None]
    assert len(infeasible) == 14
    trials = range(max(0, infeasible[0] - 3), max(0, infeasible[0] - 3) + 7)
    got = _link_draws(cfg, trials)
    assert 0 < got.count(None) < len(trials)
    for trial, drawn in zip(trials, got, strict=True):
        assert_same_draw(drawn, want[trial])


def test_link_draws_build_every_channel_through_the_metered_binding(monkeypatch):
    # the benchmark meters phase elements by wrapping experiments.channel_columns
    # and counting N x columns x paths per call; a link channel built any
    # other way would go uncounted
    built = []

    def spy(geom, grid, paths, *args):
        out = channel_columns(geom, grid, paths, *args)
        built.append(out.shape[0] * out.shape[1] * len(paths))
        return out

    monkeypatch.setattr(experiments, "channel_columns", spy)
    cfg = ScenarioConfig(num_antennas=256, num_subcarriers=64, trials=10)
    result = run_experiment("se-snr-as", cfg)
    assert set(result.meta["infeasible_trials"].values()) == {0}
    paths = cfg.num_near_paths + cfg.num_far_paths
    assert sum(built) == cfg.trials * 256 * 64 * paths


# ---------------------------------------------------------------------------
# the multiuser regime and the batched reduction
# ---------------------------------------------------------------------------


def test_desk_scale_multiuser_trials_run_one_tone_sub_bands():
    # ROADMAP item 3: with the default geometry the per-user delay-spread cap
    # admits about one subcarrier, so every desk trial doubles K from 8 to M
    # and serves 64 users one subcarrier each; changing that is deliberate
    cfg = ScenarioConfig(num_antennas=256, num_subcarriers=64, seed=42)
    served, widths = [], []
    for trial in range(20):
        _, plan = _allocate_adaptive(cfg, trial)
        served.append(len(plan.subbands))
        widths += plan.user_subcarriers
    assert served == [64] * 20
    assert len(widths) == 1280 and set(widths) == {1}


def test_mixed_width_config_realizes_several_sub_band_widths():
    cfg = mixed_width_config()
    widths = set()
    for trial in range(4):
        _, plan = _allocate_adaptive(cfg, trial)
        widths |= set(plan.user_subcarriers)
    assert len(widths) > 1


@pytest.mark.parametrize("seed, one_user_width",
                         [(seed, None) for seed in range(6)] + [(6, 64), (7, 256), (8, 1000)],
                         ids=[str(seed) for seed in range(6)]
                         + ["one-user-64", "one-user-256", "one-user-1000"])
def test_batched_mean_se_equals_the_per_user_loop(seed, one_user_width):
    # bit-equal to averaging each user's rates on its own, over ragged
    # sub-band widths in random order and several powers; one user of width
    # 256 or more (a single link) is past numpy's 128-element pairwise block
    rng = np.random.default_rng(seed)
    if one_user_width is None:
        widths = rng.integers(1, 41, size=rng.integers(1, 30))
    else:
        widths = np.array([one_user_width])
    starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
    plan = SubbandPlan(tuple(UserSubband(k, int(w), int(s), 1e6, 7e9)
                             for k, (w, s) in enumerate(zip(widths, starts))), 8)
    amps = {scheme.value: rng.uniform(0.0, 30.0, widths.sum()) * (rng.random() < 0.9)
            for scheme in _FS_SCHEMES}
    schemes = [scheme.value for scheme in _FS_SCHEMES]
    powers = [0.1, 1.0, 3.1622776601683795, 10.0, 100.0]
    got = _mean_se(amps, _FS_SCHEMES, plan.user_subcarriers, powers, 1.0)
    assert got.shape == (len(powers), len(schemes))
    for row, power in zip(got, powers):
        assert np.array_equal(row, oracles.per_user_mean_se(amps, plan.subbands, schemes,
                                                            power, 1.0))


# ---------------------------------------------------------------------------
# draw-level properties far beyond the defaults
# ---------------------------------------------------------------------------


#: unit roundoff of float64. Amplitudes and the matched filter sum up to N
#: terms each, in different orders, so a scheme may read above ||h|| by
#: rounding that grows with N. Over 1,100 random configs of the space below
#: (5,000 draws) the largest excess was 0.099 N u, sub-band slicing with one
#: antenna per subarray at N = 1631 (1.8e-14); the bound allows N u
_UNIT_ROUNDOFF = 2.0 ** -53


@st.composite
def draw_configs(draw):
    """Configs over N 2-2048, M 1-256 (N M <= 300,000), f_c 1-30 GHz, B 1 MHz-2 GHz,
    d 0.5 m-2.2 km, kappa 0.01-0.5, 1-5 near and 0-2 far paths, 1-8 users."""
    n = draw(st.integers(2, 2048))
    low = draw(st.floats(0.5, 2200.0))
    return ScenarioConfig(
        num_antennas=n, num_subcarriers=draw(st.integers(1, min(256, 300_000 // n))),
        center_freq_hz=draw(st.floats(1e9, 30e9)), bandwidth_hz=draw(st.floats(1e6, 2e9)),
        distance_min_m=low, distance_max_m=draw(st.floats(low, 2200.0)),
        kappa_a=draw(st.floats(0.01, 0.5)), kappa_f=draw(st.floats(0.01, 0.5)),
        num_near_paths=draw(st.integers(1, 5)), num_far_paths=draw(st.integers(0, 2)),
        num_users=draw(st.integers(1, 8)),
        num_subarrays=draw(st.sampled_from([t for t in range(1, n + 1) if n % t == 0])),
        seed=draw(st.integers(0, 2**32 - 1)))


def assert_amplitudes_bounded(amps, num_antennas):
    bound = (1.0 + num_antennas * _UNIT_ROUNDOFF) * amps["optimal"]
    for scheme, values in amps.items():
        assert np.all(np.isfinite(values)), scheme
        assert np.all(values <= bound), scheme


def assert_blocks_in_windows(config, paths):
    """Every antenna-slicing block of the user's plan lies inside its path's window."""
    geom, grid, thr = config.geometry(), config.grid(), config.thresholds()
    plan = plan_antenna_slices(geom, grid, paths, thr)
    assert sum(plan.subarray_sizes) == config.num_antennas
    for size, slot in zip(plan.subarray_sizes, plan.path_assignment):
        report = boundary_report(geom, grid, paths[plan.path_order[slot]], thr)
        assert report.near_field_threshold - _EDGE_EPS <= size <= report.antenna_boundary_near


@settings(max_examples=25, deadline=None)
@given(config=draw_configs())
def test_link_draws_hold_their_bounds_across_the_geometry(config):
    # any exception but InfeasiblePlanError escapes _link_draws and fails here
    drawn = _link_draws(config, range(3))
    for trial, got in enumerate(drawn):
        assert_same_draw(got, _link_draws(config, range(trial, trial + 1))[0])
        paths = sample_scenario(config, trial)
        if got is None:
            with pytest.raises(InfeasiblePlanError):
                assert_blocks_in_windows(config, paths)
            continue
        assert got[1] == (config.num_subcarriers,)
        assert_amplitudes_bounded(got[0], config.num_antennas)
        assert_blocks_in_windows(config, paths)


@settings(max_examples=25, deadline=None)
@given(config=draw_configs())
def test_multiuser_draws_hold_their_bounds_across_the_geometry(config):
    grid = config.grid()
    for trial, got in enumerate(experiments._fs_draws(config, range(2))):
        try:
            users, plan = _allocate_adaptive(config, trial)
        except InfeasiblePlanError:
            assert got is None
            continue
        if got is None:
            with pytest.raises(InfeasiblePlanError):
                for paths in users:
                    assert_blocks_in_windows(config, paths)
            continue
        amps, widths, _ = got
        assert widths == plan.user_subcarriers
        assert sum(widths) == config.num_subcarriers and min(widths) >= 1
        assert np.all(np.array(widths) <= subcarrier_caps(plan.boundaries, grid))
        assert_amplitudes_bounded(amps, config.num_antennas)
        for paths in users:
            assert_blocks_in_windows(config, paths)
