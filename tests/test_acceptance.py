"""Release gate: quantitative checks on boundaries, slicing, and SE, one verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see every PASS/FAIL line.
The relative-improvement check asserts the 1.5x antenna-slicing gain over the
narrowband baseline at desk scale (256 antennas, 64 subcarriers); the
supplementary run at the bottom checks the same margin at the full reference
scale (1024 antennas, 256 subcarriers).
"""

import json
import time

import numpy as np
import pytest

import oracles
from squintlab import (
    ArrayGeometry,
    CarrierGrid,
    FieldModel,
    InfeasiblePlanError,
    PathParams,
    ScenarioConfig,
    SliceBlocks,
    SquintThresholds,
    UserSubband,
    allocate_subbands,
    boundary_bounds,
    boundary_report,
    boundary_table,
    narrowband_mrt,
    run_experiment,
    sample_scenario,
    sample_user_paths,
    se_slicing_closed_form,
    se_subband_closed_form,
    slice_precoder_set,
    spectral_efficiency,
    subband_precoder_set,
    synth_channel,
)
from squintlab import experiments
from squintlab.cli import cli_main
from squintlab.experiments import _link_amps
from squintlab.wavefield import path_slots

THR = SquintThresholds()
PHASE_CAP = (THR.kappa_a + THR.kappa_f) * np.pi


def verdict(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}: {name} — {detail}"
    print(line, flush=True)
    assert ok, line


def mean_rate(amps, power):
    return float(np.mean(np.log2(1.0 + power * np.asarray(amps) ** 2)))


def draw_path(rng, theta_min=0.1):
    theta = rng.choice([-1.0, 1.0]) * rng.uniform(theta_min, 0.999)
    d = rng.uniform(10.0, 100.0)
    r = rng.uniform(10.0, 100.0)
    re, im = rng.standard_normal(2)
    return PathParams(complex(re, im) / np.sqrt(2.0), theta, d, r)


def test_boundary_window_numbers():
    # 512 antennas at 7 GHz, scatterer at 40 m: the bandwidth boundary must
    # fall between ~13.70 MHz (worst angle) and ~200 MHz (broadside)
    start = time.perf_counter()
    config = ScenarioConfig(num_antennas=512)
    bound = boundary_bounds(config.geometry(), config.grid(),
                            PathParams(1.0, 0.3, 40.0, 0.0), THR)["freq_boundary_near_hz"]
    elapsed = time.perf_counter() - start
    ok = (bound.lower == pytest.approx(13.70e6, rel=0.01)
          and bound.upper == pytest.approx(200e6, rel=0.02)
          and elapsed < 1.0)
    verdict("boundary-window", ok,
            f"lower {bound.lower/1e6:.4f} MHz (target 13.70 ±1%), "
            f"upper {bound.upper/1e6:.4f} MHz (target 200 ±2%), {elapsed:.2f}s (<1s)")


def test_antenna_boundary_matches_brute_force():
    # closed-form antenna boundary vs. exhaustive search over N on a 1024-point
    # grid, 100 random (theta, d, f_c, B) draws, agreement within one antenna
    start = time.perf_counter()
    rng = np.random.default_rng(20250802)
    worst = 0
    for _ in range(100):
        theta = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.999)
        d = rng.uniform(10.0, 100.0)
        fc = rng.uniform(6.425e9, 7.125e9)
        b = rng.uniform(2e8, 6e8)
        closed = boundary_table(ArrayGeometry(2, fc), CarrierGrid.from_bandwidth(b, 1), THR,
                                path_slots([[PathParams(1.0, theta, d, 0.0)]])).antenna[0, 0]
        brute = oracles.largest_admissible_antennas(theta, d, b, fc, 1024,
                                                    PHASE_CAP)
        worst = max(worst, abs(int(np.floor(closed)) - brute))
    elapsed = time.perf_counter() - start
    ok = worst <= 1 and elapsed < 30.0
    verdict("closed-form-vs-brute-force", ok,
            f"worst disagreement {worst} antennas (<=1) over 100 draws, "
            f"{elapsed:.2f}s (<30s)")


def test_near_threshold_below_wideband_boundaries():
    # the near-field threshold must sit strictly below both antenna boundaries
    # for every one of 10^4 random draws
    start = time.perf_counter()
    rng = np.random.default_rng(20250803)
    violations = 0
    for _ in range(10_000):
        theta = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.999)
        d = rng.uniform(10.0, 100.0)
        fc = rng.uniform(6.425e9, 7.125e9)
        b = rng.uniform(2e8, 6e8)
        report = boundary_report(ArrayGeometry(2, fc), CarrierGrid.from_bandwidth(b, 1),
                                 PathParams(1.0, theta, d, 0.0), THR)
        n_tilde = report.near_field_threshold
        if not n_tilde < min(report.antenna_boundary_near, report.antenna_boundary_far):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    verdict("near-threshold-ordering", ok,
            f"{violations} violations in 10000 draws (target 0), "
            f"{elapsed:.2f}s (<10s)")


def test_boundaries_monotone_in_angle():
    # all four boundaries decrease as |theta| grows, and the wideband-near
    # boundary sits below its far-field counterpart on a 1000-point grid
    start = time.perf_counter()
    config = ScenarioConfig(num_antennas=512)
    geom, grid = config.geometry(), config.grid()
    thetas = np.linspace(1e-3, 0.999, 1000)
    reports = [boundary_report(geom, grid, PathParams(1.0, t, 40.0, 0.0), THR)
               for t in thetas]
    curves = {
        "b_wn": [rep.freq_boundary_near_hz for rep in reports],
        "b_wf": [rep.freq_boundary_far_hz for rep in reports],
        "n_wn": [rep.antenna_boundary_near for rep in reports],
        "n_wf": [rep.antenna_boundary_far for rep in reports],
    }
    decreasing = {name: all(x > y for x, y in zip(vals, vals[1:]))
                  for name, vals in curves.items()}
    near_below_far = (all(x < y for x, y in zip(curves["b_wn"], curves["b_wf"]))
                      and all(x < y for x, y in zip(curves["n_wn"], curves["n_wf"])))
    elapsed = time.perf_counter() - start
    ok = all(decreasing.values()) and near_below_far
    verdict("boundary-monotonicity", ok,
            f"decreasing={decreasing}, near<far={near_below_far}, {elapsed:.2f}s")


def test_se_crosses_99_percent_at_the_boundaries():
    # single-path MRT keeps >=99% of SE_opt just below the boundary and loses
    # it at 3x the boundary, both when sweeping bandwidth and antenna count;
    # the antenna sweep fixes B at the 128-element array's own boundary so the
    # crossing sits exactly at N=128
    start = time.perf_counter()
    rng = np.random.default_rng(20250805)
    geom = ArrayGeometry(128, 7e9)
    ratios = {"b_low": [], "b_high": [], "n_low": [], "n_high": []}
    for _ in range(100):
        path = draw_path(rng)
        power = 10 ** (10.0 / 10) * 1.0 / abs(path.gain) ** 2
        # B_bar does not depend on the grid; N_bar is read at B = B_bar
        b_bar = float(boundary_table(geom, CarrierGrid(1, 1.0), THR,
                                     path_slots([[path]])).freq[0, 0])

        def mrt_over_opt(geometry, bandwidth):
            grid = CarrierGrid.from_bandwidth(bandwidth, 64)
            cols = synth_channel(geometry, grid, [path]).entries
            beam = narrowband_mrt(geometry, [path])
            return (mean_rate(np.abs(beam.conj() @ cols), power)
                    / mean_rate(np.linalg.norm(cols, axis=0), power))

        ratios["b_low"].append(mrt_over_opt(geom, 0.9 * b_bar))
        ratios["b_high"].append(mrt_over_opt(geom, 3.0 * b_bar))
        n_bar = boundary_table(geom, CarrierGrid.from_bandwidth(b_bar, 1), THR,
                               path_slots([[path]])).antenna[0, 0]
        low = ArrayGeometry(int(np.floor(0.9 * n_bar)), 7e9)
        high = ArrayGeometry(int(np.ceil(3.0 * n_bar)), 7e9)
        ratios["n_low"].append(mrt_over_opt(low, b_bar))
        ratios["n_high"].append(mrt_over_opt(high, b_bar))
    means = {name: float(np.mean(vals)) for name, vals in ratios.items()}
    elapsed = time.perf_counter() - start
    ok = (means["b_low"] >= 0.99 and means["b_high"] < 0.99
          and means["n_low"] >= 0.99 and means["n_high"] < 0.99
          and elapsed < 120.0)
    verdict("boundary-se-consistency", ok,
            f"MRT/opt at 0.9/3x bandwidth: {means['b_low']:.4f}/"
            f"{means['b_high']:.4f}; at 0.9/3x antennas: {means['n_low']:.4f}/"
            f"{means['n_high']:.4f} (>=0.99 low, <0.99 high), "
            f"{elapsed:.1f}s (<120s)")


def test_single_path_slicing_stays_near_optimal():
    # with one near path per link/user, both slicing domains must stay within
    # 3% of the per-subcarrier matched-filter optimum
    start = time.perf_counter()
    config = ScenarioConfig(num_antennas=128, num_subcarriers=64,
                            num_near_paths=1, num_far_paths=0, trials=100)
    geom, grid, thr = config.geometry(), config.grid(), config.thresholds()
    slicing_se, optimal_se = [], []
    for trial in range(config.trials):
        paths = sample_scenario(config, trial)
        entries = synth_channel(geom, grid, paths).entries.T
        slots = path_slots([paths])
        try:
            amps = _link_amps(geom, slots, entries, boundary_table(geom, grid, thr, slots))
        except InfeasiblePlanError:
            continue
        slicing_se.append(mean_rate(amps["antenna-slicing"], config.power))
        optimal_se.append(mean_rate(amps["optimal"], config.power))
    antenna_ratio = float(np.mean(slicing_se) / np.mean(optimal_se))

    fs_config = ScenarioConfig(num_antennas=128, num_subcarriers=64,
                               num_users=8, num_subarrays=8, num_near_paths=1,
                               num_far_paths=0, trials=30)
    geom, grid, thr = fs_config.geometry(), fs_config.grid(), fs_config.thresholds()
    subband_se, subband_opt = [], []
    for trial in range(fs_config.trials):
        users = sample_user_paths(fs_config, trial, fs_config.num_users)
        try:
            plan = allocate_subbands(users, geom, grid, thr,
                                     fs_config.num_subarrays)
        except InfeasiblePlanError:
            continue
        for subband in plan.subbands:
            paths = users[subband.user]
            w = subband.num_subcarriers
            cols = synth_channel(geom, grid, paths).entries[:, subband.start:subband.start + w]
            precoder = subband_precoder_set(geom, paths, subband,
                                            fs_config.num_subarrays, cols)
            amps = np.abs(np.einsum("nm,nm->m", precoder.combined().conj(), cols))
            subband_se.append(mean_rate(amps, fs_config.power))
            subband_opt.append(mean_rate(np.linalg.norm(cols, axis=0),
                                         fs_config.power))
    subband_ratio = float(np.mean(subband_se) / np.mean(subband_opt))
    elapsed = time.perf_counter() - start
    ok = antenna_ratio >= 0.97 and subband_ratio >= 0.97 and elapsed < 60.0
    verdict("single-path-slicing-optimality", ok,
            f"antenna slicing at {antenna_ratio:.4f} of optimum, sub-band "
            f"slicing at {subband_ratio:.4f} (both >=0.97), {elapsed:.1f}s (<60s)")


def test_closed_form_se_cross_check():
    # engineered orthogonal-path scenarios must reproduce the two closed-form
    # SINR expressions within 2%
    start = time.perf_counter()
    geom = ArrayGeometry(128, 7e9)
    grid = CarrierGrid.from_bandwidth(1e6, 16)
    paths = [
        PathParams(a * np.exp(0.31j * i), -0.3 + i / 16, 1e8, 0.0,
                   FieldModel.NARROWBAND_NEAR)
        for i, a in enumerate([1.0, 0.9, 0.8, 0.7])
    ]
    plan = SliceBlocks(np.full(4, 32), np.arange(4), np.array([-48.0, -16.0, 16.0, 48.0]))
    channel = synth_channel(geom, grid, paths)
    measured = spectral_efficiency(channel, slice_precoder_set(channel, plan),
                                   10.0, 1.0)
    closed = se_slicing_closed_form(10.0, 1.0, [p.gain for p in paths], [32] * 4)
    slicing_err = abs(measured - closed) / closed

    geom = ArrayGeometry(32, 7e9)
    grid = CarrierGrid.from_bandwidth(10e6, 20)
    user = [PathParams(1.0, 0.25, 30.0, 12.0),
            PathParams(0.6 * np.exp(0.9j), -0.4, 55.0, 5.0)]
    channel = synth_channel(geom, grid, user)
    start_idx, count = 5, 5
    freqs = 7e9 + grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    center = float(freqs[start_idx:start_idx + count].mean())
    subband = UserSubband(0, count, start_idx, grid.subcarrier_spacing_hz, center)
    block = channel.entries[:, start_idx:start_idx + count]
    precoder = subband_precoder_set(geom, user, subband, 4, block)
    measured = spectral_efficiency(block, precoder, 10.0, 1.0)
    mid = channel.entries[:, start_idx + count // 2]
    sums = [np.abs(mid[t * 8:(t + 1) * 8]).sum() for t in range(4)]
    closed = se_subband_closed_form(10.0, 1.0, sums, 8)
    subband_err = abs(measured - closed) / closed
    elapsed = time.perf_counter() - start
    ok = slicing_err <= 0.02 and subband_err <= 0.02
    verdict("closed-form-cross-check", ok,
            f"slicing formula off by {slicing_err:.2e}, sub-band formula off "
            f"by {subband_err:.2e} (both <=2%), {elapsed:.2f}s")


def test_desk_scale_relative_improvement():
    # desk-scale reference campaign at 10 dB: antenna slicing should beat the
    # narrowband full-array baseline by >=50% and sub-band slicing should beat
    # antenna slicing. The multiuser run's mean user count is reported because
    # at this scale every user ends up with a single subcarrier (K = M).
    start = time.perf_counter()
    config = ScenarioConfig(num_antennas=256, num_subcarriers=64, trials=100,
                            num_near_paths=4, num_far_paths=1, snr_db=10.0,
                            num_users=8, num_subarrays=8,
                            far_gain_offset_db=0.0)
    link = run_experiment("se-snr-as", config)
    at_10db = link.axis_values.index(10.0)
    antenna_se = link.se_per_scheme["antenna-slicing"][at_10db]
    baseline_se = link.se_per_scheme["narrowband-mrt"][at_10db]
    multiuser = run_experiment("se-snr-fs", config)
    subband_se = multiuser.se_per_scheme["subband-slicing"][
        multiuser.axis_values.index(10.0)]
    ratio = antenna_se / baseline_se
    elapsed = time.perf_counter() - start
    ok = ratio >= 1.5 and subband_se > antenna_se and elapsed < 300.0
    verdict("relative-improvement", ok,
            f"at 256x64: antenna slicing {antenna_se:.3f} vs baseline "
            f"{baseline_se:.3f} bits/s/Hz = {ratio:.4f}x (target >=1.5x), sub-band "
            f"slicing {subband_se:.3f} (> antenna: {subband_se > antenna_se}) over "
            f"{multiuser.meta['mean_users']:.1f} users on {config.num_subcarriers} "
            f"subcarriers, {elapsed:.1f}s (<300s)")


def emitted_per_worker_count(tmp_path, monkeypatch, argv):
    """CSV bytes of one run request at 1, 4 and 8 worker threads."""
    emitted = []
    for workers in ("1", "4", "8"):
        monkeypatch.setenv("SQUINTLAB_THREADS", workers)
        target = tmp_path / f"threads{workers}.csv"
        assert cli_main(argv + ["--output", str(target)]) == 0
        emitted.append(target.read_bytes())
    return emitted


def test_csv_identical_across_worker_counts(tmp_path, monkeypatch):
    # a rerun of the same experiment must emit byte-identical CSV no matter
    # how many worker threads execute the trials, or how many trials of the
    # link draw one chunk batches: 1, 3 (a ragged last chunk) or all 8
    start = time.perf_counter()
    emitted = []
    for chunk in (1, 3, 8):
        monkeypatch.setattr(experiments, "_CHUNK_BYTES", chunk * 16 * 64 * 8)
        emitted += emitted_per_worker_count(
            tmp_path, monkeypatch,
            ["run", "se-snr-as", "--n", "64", "--m", "8", "--trials", "8"])
    elapsed = time.perf_counter() - start
    ok = len(set(emitted)) == 1
    verdict("thread-determinism", ok,
            f"CSV bytes identical across 1/4/8 workers and chunks of 1/3/8 trials: {ok}, "
            f"{elapsed:.2f}s")


def test_multiuser_csv_identical_across_worker_counts(tmp_path, monkeypatch):
    # the same for the multiuser sweep, whose trials batch their users: 8 to
    # 32 users per trial on sub-bands of 1 to 39 subcarriers
    start = time.perf_counter()
    emitted = emitted_per_worker_count(
        tmp_path, monkeypatch,
        ["run", "se-snr-fs", "--n", "128", "--m", "64", "--bandwidth-hz", "100e6",
         "--num-near-paths", "2", "--trials", "8"])
    elapsed = time.perf_counter() - start
    ok = emitted[0] == emitted[1] == emitted[2]
    verdict("multiuser-thread-determinism", ok,
            f"se-snr-fs CSV bytes identical across 1/4/8 workers: {ok}, {elapsed:.2f}s")


def test_supplementary_full_scale_improvement():
    # not one of the release criteria: a 30-trial cross-check that the >=1.5x
    # margin also holds at the full reference scale (1024 antennas, 256
    # subcarriers), where the narrowband baseline's squint loss is larger
    config = ScenarioConfig(num_antennas=1024, num_subcarriers=256, trials=30,
                            num_near_paths=4, num_far_paths=1, snr_db=10.0,
                            far_gain_offset_db=0.0)
    link = run_experiment("se-snr-as", config)
    at_10db = link.axis_values.index(10.0)
    antenna_se = link.se_per_scheme["antenna-slicing"][at_10db]
    baseline_se = link.se_per_scheme["narrowband-mrt"][at_10db]
    ratio = antenna_se / baseline_se
    verdict("full-scale-improvement (supplementary)", ratio >= 1.5,
            f"antenna slicing {antenna_se:.3f} vs baseline {baseline_se:.3f} "
            f"bits/s/Hz = {ratio:.4f}x (>=1.5x)")
