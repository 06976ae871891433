"""Closed-form squint boundaries against the brute-force phase oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from squintlab import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CarrierGrid,
    FieldModel,
    PathParams,
    SquintThresholds,
    boundary_bounds,
    boundary_report,
    boundary_table,
    classify_path,
    beam_squint_matrix,
    subcarrier_caps,
)
from squintlab.wavefield import path_slots

THR = SquintThresholds()


def make_geom(n, fc=7e9):
    return ArrayGeometry(n, fc)


def make_path(theta=0.3, d=40.0, r=0.0):
    return PathParams(1.0 + 0j, theta, d, r)


def one_grid(bandwidth_hz=300e6):
    """A one-subcarrier grid, whose bandwidth is bandwidth_hz exactly."""
    return CarrierGrid.from_bandwidth(bandwidth_hz, 1)


def report_of(geom, path, bandwidth_hz=300e6):
    """Every boundary of one path."""
    return boundary_report(geom, one_grid(bandwidth_hz), path, THR)


def near_table(geom, paths, bandwidth_hz=300e6):
    """The near-mode boundaries of paths, one user's row of a boundary table."""
    table = boundary_table(geom, one_grid(bandwidth_hz), THR, path_slots([paths]))
    return table.near_threshold[0], table.antenna[0], table.freq[0]


# ---------------------------------------------------------------------------
# distance variation and phase extremes
# ---------------------------------------------------------------------------


def test_single_antenna_has_zero_variation():
    # no range spread, so neither bandwidth boundary exists
    rep = report_of(make_geom(1), make_path())
    assert rep.freq_boundary_near_hz == rep.freq_boundary_far_hz == math.inf


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.9])
def test_far_variation_is_linear_in_aperture(theta):
    geom = make_geom(513, 7e9)
    kc = THR.total * SPEED_OF_LIGHT
    got = report_of(geom, make_path(theta=theta)).freq_boundary_far_hz
    assert got == pytest.approx(kc / (512 * geom.spacing_m * theta / 2.0), rel=1e-15)
    # theta -> 1 limit is 128 wavelengths (~5.48 m at 7 GHz)
    limit = report_of(geom, make_path(theta=1 - 1e-12)).freq_boundary_far_hz
    assert limit == pytest.approx(kc / (128 * geom.wavelength_m), rel=1e-9)


def test_near_variation_matches_elementwise_scan():
    geom = make_geom(1024, 7e9)
    path = make_path(theta=0.1, d=10.0)
    got = THR.total * SPEED_OF_LIGHT / report_of(geom, path).freq_boundary_near_hz
    want = oracles.max_range_spread(1024, 0.1, 10.0, geom.spacing_m)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(5.55, rel=2e-2)


@pytest.mark.parametrize("seed", range(5))
def test_variation_is_even_in_angle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 512))
    theta = float(rng.uniform(0.01, 0.99))
    d = float(rng.uniform(1.0, 300.0))
    geom = make_geom(n)
    plus, minus = (report_of(geom, make_path(theta=t, d=d)) for t in (theta, -theta))
    for name in ("freq_boundary_near_hz", "freq_boundary_far_hz"):
        assert getattr(plus, name) == pytest.approx(getattr(minus, name), rel=1e-14)


def test_zero_bandwidth_limit_has_no_squint():
    geom = make_geom(256)
    grid = CarrierGrid(16, 1e-9)
    assert np.max(np.abs(np.angle(beam_squint_matrix(geom, grid, make_path())))) < 1e-12


def test_broadside_far_mode_has_no_squint():
    rep = report_of(make_geom(256), make_path(theta=0.0))
    assert rep.freq_boundary_far_hz == rep.antenna_boundary_far == math.inf


def test_phase_extreme_matches_grid_oracle_after_rescale():
    geom = make_geom(512, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 4096)
    path = make_path(theta=0.3, d=40.0)
    # continuous-band extreme (pi B / c) max |d_n - d| = kappa pi B / B_bar; the grid
    # reaches (M-1)/M of it
    closed = THR.total * math.pi * grid.bandwidth_hz / report_of(geom, path).freq_boundary_near_hz
    grid_max = oracles.squint_phase_grid_max(512, 4096, 0.3, 40.0, 300e6, 7e9)
    assert grid_max == pytest.approx(closed * 4095 / 4096, rel=1e-9)


# ---------------------------------------------------------------------------
# frequency-domain boundary
# ---------------------------------------------------------------------------


def test_freq_boundary_bounds_match_published_numbers():
    geom = make_geom(512, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 64)
    report = boundary_report(geom, grid, make_path(theta=0.3, d=40.0), THR)
    low = report.bounds["freq_boundary_near_hz"].lower
    high = report.bounds["freq_boundary_near_hz"].upper
    # angle->1 limit collapses to 4 (kappa_a+kappa_f) f_c / (N-1), exactly 7e9/511
    assert low == pytest.approx(7e9 / 511, rel=1e-12)
    assert low == pytest.approx(13.7e6, rel=1e-2)
    assert high == pytest.approx(200e6, rel=2e-2)


def test_freq_boundary_interpolates_between_its_bounds():
    geom = make_geom(512, 7e9)
    path = make_path(theta=0.999, d=40.0)
    value = report_of(geom, path).freq_boundary_near_hz
    want = THR.total * SPEED_OF_LIGHT / oracles.max_range_spread(512, 0.999, 40.0, geom.spacing_m)
    assert value == pytest.approx(want, rel=1e-12)
    assert 7e9 / 511 < value < 200e6


def test_freq_boundary_definition_ties_to_distance_variation():
    geom = make_geom(512, 7e9)
    path = make_path(theta=0.42, d=33.0)
    variation = oracles.near_distance_variation(512, geom.spacing_m, 0.42, 33.0)
    want = THR.total * SPEED_OF_LIGHT / variation
    assert report_of(geom, path).freq_boundary_near_hz == pytest.approx(want, rel=1e-14)


def test_far_freq_boundary_is_unbounded_at_broadside():
    rep = report_of(make_geom(512), make_path(theta=0.0))
    assert rep.freq_boundary_far_hz == math.inf
    assert math.isfinite(rep.freq_boundary_near_hz)


# ---------------------------------------------------------------------------
# antenna-domain boundary
# ---------------------------------------------------------------------------


def test_antenna_boundary_lower_bound_is_angle_one_limit():
    geom = make_geom(64, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 64)
    report = boundary_report(geom, grid, make_path(theta=0.5, d=40.0), THR)
    # 4 (kappa_a+kappa_f) f_c / B + 1 = 7e9/3e8 + 1, c cancels exactly
    assert report.bounds["antenna_boundary_near"].lower == pytest.approx(7e9 / 3e8 + 1, rel=1e-12)


def test_antenna_boundary_matches_brute_force_largest_n():
    value = report_of(make_geom(64), make_path(theta=0.3, d=40.0)).antenna_boundary_near
    assert value == pytest.approx(76.7, rel=5e-3)
    # largest integer below the closed form admits the phase budget; the next
    # integer violates it (continuous-band phase extreme, element-by-element scan)
    cap = THR.total * math.pi
    spacing = make_geom(1).spacing_m
    below, above = (math.pi * 300e6 / SPEED_OF_LIGHT
                    * oracles.max_range_spread(n, 0.3, 40.0, spacing)
                    for n in (int(value), int(value) + 1))
    assert below < cap <= above
    oracle_n = oracles.largest_admissible_antennas(0.3, 40.0, 300e6, 7e9, 4096, cap)
    assert abs(oracle_n - int(value)) <= 1


def test_far_antenna_boundary_closed_form():
    got = report_of(make_geom(64), make_path(theta=0.3)).antenna_boundary_far
    assert got == pytest.approx(7e9 / (3e8 * 0.3) + 1, rel=1e-12)
    assert got == pytest.approx(78.8, rel=1e-3)


def test_far_antenna_boundary_unbounded_at_broadside():
    assert report_of(make_geom(64), make_path(theta=0.0)).antenna_boundary_far == math.inf


def test_antenna_boundary_rejects_nonpositive_bandwidth():
    # the bandwidth reaches the boundaries only through a grid, which rejects it
    with pytest.raises(ValueError):
        report_of(make_geom(64), make_path(), 0.0)


def test_coefficients_follow_their_definitions():
    # N_bar - 1 and N_tilde - 1 solve A1 x^2 + A2 x = A3 and = A5, with A1 = s^2 / 4,
    # A2 = d s |theta| (linear in |theta| with the far-mode slope d s) and the budgets
    lam = SPEED_OF_LIGHT / 7e9
    s = lam / 2
    kc = THR.total * SPEED_OF_LIGHT
    ka_c = THR.kappa_a * SPEED_OF_LIGHT
    a3 = (kc * kc + 2 * kc * 40.0 * 300e6) / 300e6**2
    a5 = (ka_c * ka_c + 4 * ka_c * 40.0 * 7e9) / (4 * 7e9 * 7e9)
    for theta in (0.3, -0.3, 0.9):
        rep = report_of(make_geom(64), make_path(theta=theta, d=40.0))
        for value, rhs in ((rep.antenna_boundary_near, a3), (rep.near_field_threshold, a5)):
            x = value - 1.0
            assert s * s / 4 * x * x + 40.0 * s * abs(theta) * x == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# near-field threshold
# ---------------------------------------------------------------------------


def test_threshold_lower_bound_is_angle_one_limit():
    geom = make_geom(64, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 64)
    report = boundary_report(geom, grid, make_path(theta=0.9, d=40.0), THR)
    assert report.bounds["near_field_threshold"].lower == pytest.approx(1.25, rel=1e-12)


def test_threshold_matches_smallest_n_scan():
    value = report_of(make_geom(64), make_path(theta=0.3, d=40.0)).near_field_threshold
    assert value == pytest.approx(1.83, rel=5e-3)
    assert oracles.smallest_near_antennas(0.3, 40.0, 7e9, THR.kappa_a) == math.ceil(value)


def test_threshold_at_broadside_equals_its_upper_bound():
    geom = make_geom(64, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 64)
    path = make_path(theta=1e-300, d=40.0)
    report = boundary_report(geom, grid, path, THR)
    ka_c = THR.kappa_a * SPEED_OF_LIGHT
    a1 = geom.spacing_m * geom.spacing_m / 4
    a5 = (ka_c * ka_c + 4 * ka_c * 40.0 * 7e9) / (4 * 7e9 * 7e9)
    assert report.near_field_threshold == pytest.approx(math.sqrt(a5 / a1) + 1, rel=1e-9)
    assert report.bounds["near_field_threshold"].upper == pytest.approx(
        math.sqrt(a5 / a1) + 1, rel=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_threshold_approximation_tracks_closed_form(seed):
    rng = np.random.default_rng(40 + seed)
    draws = [(float(rng.uniform(0.1, 0.999)), float(rng.uniform(10.0, 500.0)))
             for _ in range(50)]
    exact, _, _ = near_table(make_geom(64), [make_path(theta=t, d=d) for t, d in draws])
    for (theta, _), value in zip(draws, exact):
        # large-|theta| approximation 2 kappa_a / |theta| + 1
        approx = 2 * THR.kappa_a / theta + 1
        assert abs(approx - value) / value < 0.10


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classification_covers_all_three_regimes():
    grid = CarrierGrid.from_bandwidth(300e6, 64)
    path = make_path(theta=0.3, d=40.0)
    assert classify_path(make_geom(8192), grid, path, THR) is FieldModel.WIDEBAND_NEAR
    assert classify_path(make_geom(1), grid, path, THR) is FieldModel.FAR
    narrow = CarrierGrid.from_bandwidth(1e6, 64)
    assert classify_path(make_geom(16), narrow, path, THR) is FieldModel.NARROWBAND_NEAR


def test_wideband_test_precedes_the_near_far_split():
    # Huge bandwidth marks even a tiny array wideband-near before the
    # near-field threshold can demote it to far-field.
    wide = CarrierGrid.from_bandwidth(8e10, 16)
    path = make_path(theta=0.1, d=10.0)
    geom = make_geom(2)
    assert boundary_report(geom, wide, path, THR).near_field_threshold > 2
    assert classify_path(geom, wide, path, THR) is FieldModel.WIDEBAND_NEAR


# ---------------------------------------------------------------------------
# sub-band delay-spread limit
# ---------------------------------------------------------------------------


def delay_spread(paths):
    """The user's delay-spread limit, from its row of the boundary table."""
    table = boundary_table(make_geom(16), CarrierGrid(16, 1e6), THR, path_slots([paths]), 16)
    return table.delay_spread[0]


def test_subband_limit_single_path_is_unbounded():
    assert delay_spread([make_path()]) == math.inf


def test_subband_limit_two_paths():
    paths = [make_path(d=30.0, r=10.0), make_path(d=50.0, r=10.0)]
    got = delay_spread(paths)
    assert got == pytest.approx(0.125 * SPEED_OF_LIGHT / 10.0, rel=1e-12)
    assert got == pytest.approx(3.75e6, rel=1e-2)


def test_subband_limit_identical_ranges_is_unbounded():
    paths = [make_path(d=30.0, r=20.0), make_path(d=40.0, r=10.0)]
    assert delay_spread(paths) == math.inf


def test_boundary_table_rejects_an_empty_user_list():
    with pytest.raises(ValueError):
        boundary_table(make_geom(16), CarrierGrid(16, 1e6), THR, [])


# ---------------------------------------------------------------------------
# ordering propositions and bound sandwiches
# ---------------------------------------------------------------------------


def _theta_grid():
    return np.linspace(1e-3, 0.999, 1000)


def test_near_boundaries_strictly_decrease_in_angle():
    _, ants, freqs = near_table(make_geom(512, 7e9),
                                [make_path(theta=t, d=40.0) for t in _theta_grid()])
    assert all(b < a for a, b in zip(freqs, freqs[1:]))
    assert all(b < a for a, b in zip(ants, ants[1:]))


def test_far_boundaries_strictly_decrease_in_angle():
    reports = [report_of(make_geom(512, 7e9), make_path(theta=t, d=40.0)) for t in _theta_grid()]
    freqs = [rep.freq_boundary_far_hz for rep in reports]
    ants = [rep.antenna_boundary_far for rep in reports]
    assert all(b < a for a, b in zip(freqs, freqs[1:]))
    assert all(b < a for a, b in zip(ants, ants[1:]))


def test_near_boundary_grows_with_distance():
    _, _, vals = near_table(make_geom(512),
                            [make_path(theta=0.3, d=d) for d in np.linspace(1.0, 500.0, 200)])
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("seed", range(5))
def test_near_boundaries_are_tighter_than_far(seed):
    rng = np.random.default_rng(60 + seed)
    geom = make_geom(512, 7e9)
    for _ in range(100):
        theta = float(rng.uniform(1e-3, 0.999)) * (1 if rng.random() < 0.5 else -1)
        d = float(rng.uniform(1.0, 500.0))
        rep = report_of(geom, make_path(theta=theta, d=d))
        assert rep.freq_boundary_near_hz < rep.freq_boundary_far_hz
        assert rep.antenna_boundary_near < rep.antenna_boundary_far


@pytest.mark.parametrize("seed", range(5))
def test_bound_sandwich_holds_for_all_rows(seed):
    rng = np.random.default_rng(80 + seed)
    for _ in range(50):
        theta = float(rng.uniform(1e-3, 0.999))
        d = float(rng.uniform(1.0, 500.0))
        n = int(rng.integers(2, 2048))
        b = float(rng.uniform(1e6, 2e9))
        geom = make_geom(n)
        grid = CarrierGrid.from_bandwidth(b, 16)
        report = boundary_report(geom, grid, make_path(theta=theta, d=d), THR)
        values = {
            "freq_boundary_near_hz": report.freq_boundary_near_hz,
            "antenna_boundary_near": report.antenna_boundary_near,
            "freq_boundary_far_hz": report.freq_boundary_far_hz,
            "antenna_boundary_far": report.antenna_boundary_far,
            "near_field_threshold": report.near_field_threshold,
        }
        for name, value in values.items():
            bound = report.bounds[name]
            assert bound.lower <= value
            assert value <= bound.upper


@pytest.mark.parametrize("seed", range(4))
def test_boundaries_are_even_in_angle(seed):
    rng = np.random.default_rng(90 + seed)
    geom = make_geom(256)
    for _ in range(25):
        theta = float(rng.uniform(1e-3, 0.999))
        d = float(rng.uniform(1.0, 500.0))
        # N_tilde, N_bar and B_bar of the path at +theta and at -theta
        for plus, minus in near_table(geom, [make_path(theta=t, d=d) for t in (theta, -theta)],
                                      3e8):
            assert plus == pytest.approx(minus, rel=1e-14)


def test_threshold_precedes_both_wideband_boundaries():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        theta = float(rng.uniform(1e-3, 0.999)) * (1 if rng.random() < 0.5 else -1)
        d = float(rng.uniform(1.0, 500.0))
        fc = float(rng.uniform(6.4e9, 7.2e9))
        b = float(rng.uniform(1e5, fc * 0.99))
        path = make_path(theta=theta, d=d)
        rep = boundary_report(ArrayGeometry(1, fc), one_grid(b), path, THR)
        tilde = rep.near_field_threshold
        assert tilde < rep.antenna_boundary_near
        assert tilde < rep.antenna_boundary_far
        # consequence: an array strictly below the threshold can only be
        # squint-limited through the bandwidth clause, never the antenna one
        n_small = max(math.floor(tilde) - 1, 1)
        geom = ArrayGeometry(n_small, fc)
        if b < boundary_report(geom, one_grid(b), path, THR).freq_boundary_near_hz:
            grid = CarrierGrid.from_bandwidth(b, 4)
            assert classify_path(geom, grid, path, THR) is FieldModel.FAR


def test_bounds_helper_matches_report_field():
    geom = make_geom(512, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 64)
    path = make_path(theta=0.3, d=40.0)
    direct = boundary_bounds(geom, grid, path, THR)
    report = boundary_report(geom, grid, path, THR)
    assert direct == report.bounds


def test_unbounded_value_orders_above_floats():
    # a boundary that does not exist is inf: above every float, kept out by min()
    unbounded = report_of(make_geom(1), make_path()).freq_boundary_near_hz
    assert unbounded > 1e300
    assert not unbounded < 1e300
    assert min(5.0, unbounded) == 5.0
    assert unbounded == unbounded == math.inf


# ---------------------------------------------------------------------------
# the boundary table and report against the scalar formulas, bit for bit
# ---------------------------------------------------------------------------

_ANGLES = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
_PATH = st.tuples(_ANGLES, st.floats(0.5, 200.0), st.floats(0.0, 200.0))
# a path of total range r + d = 200.5 exactly (d in halves)
_TIED_PATH = st.tuples(_ANGLES, st.integers(1, 400).map(lambda k: k / 2.0)).map(
    lambda path: (path[0], path[1], 200.5 - path[1]))
_FAR = st.lists(st.booleans(), min_size=1, max_size=10)


def _user(far):
    """One user's (theta, d, r, far) paths, path l far where far[l]; either every
    path of the user shares one total range or none is tied."""
    return st.sampled_from([_PATH, _TIED_PATH]).flatmap(
        lambda path: st.tuples(*[path] * len(far))).map(
        lambda paths: [(*path, is_far) for path, is_far in zip(paths, far)])


# users that share one sequence of field models, and a user of its own
_USERS = _FAR.flatmap(lambda far: st.lists(_user(far), min_size=1, max_size=6))
_SOLO = _FAR.flatmap(_user)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 2048), size=st.integers(1, 2048), bandwidth=st.floats(1e6, 1e9),
       subcarriers=st.integers(1, 64), center=st.floats(1e9, 30e9),
       kappa_a=st.sampled_from([0.125, 0.3, 1.0]), kappa_f=st.sampled_from([0.125, 0.05]),
       drawn=_USERS, solo=_SOLO)
# every inf: one antenna (and subarray), broadside in far mode, tied total ranges
@example(n=1, size=1, bandwidth=1e6, subcarriers=1, center=7e9, kappa_a=0.125, kappa_f=0.125,
         drawn=[[(0.0, 0.5, 0.0, False), (0.0, 200.0, 200.0, True)]],
         solo=[(0.3, 10.0, 190.5, False), (-0.3, 100.0, 100.5, False)])
@example(n=2048, size=64, bandwidth=1e9, subcarriers=64, center=7e9, kappa_a=0.125,
         kappa_f=0.125, drawn=[[(0.99, 200.0, 0.0, False)] * 5], solo=[(0.0, 0.5, 200.0, True)])
def test_boundary_table_equals_the_scalar_formulas_bit_for_bit(
        n, size, bandwidth, subcarriers, center, kappa_a, kappa_f, drawn, solo):
    geom, thr = ArrayGeometry(n, center), SquintThresholds(kappa_a, kappa_f)
    grid = CarrierGrid.from_bandwidth(bandwidth, subcarriers)
    sub = min(size, n)
    users = [[PathParams(1.0, theta, d, r, FieldModel.FAR if far else FieldModel.WIDEBAND_NEAR)
              for theta, d, r, far in user] for user in drawn + [solo]]
    # the drawn users share one sequence of field models, so they take one
    # table; the solo user, of any length and models, takes its own
    batch = boundary_table(geom, grid, thr, path_slots(users[:-1]), sub)
    alone = boundary_table(geom, grid, thr, path_slots(users[-1:]), sub)
    rows = [(batch, k) for k in range(len(drawn))] + [(alone, 0)]
    s, c, b = geom.spacing_m, geom.wave_speed, grid.bandwidth_hz
    kappa = thr.total
    for (table, k), user in zip(rows, users, strict=True):
        assert list(table.near[k]) == [p.field_model is not FieldModel.FAR for p in user]
        want = {"near_threshold": [], "antenna": [], "freq": [], "freq_subarray": []}
        for p in user:
            theta, d = p.sine_angle, p.scatterer_distance_m
            want["near_threshold"].append(
                oracles.near_field_threshold(theta, d, center, kappa_a, s, c))
            want["antenna"].append(oracles.near_antenna_boundary(b, theta, d, kappa, s, c))
            want["freq"].append(oracles.freq_boundary_from_variation(
                kappa, c, oracles.near_distance_variation(n, s, theta, d)))
            want["freq_subarray"].append(oracles.freq_boundary_from_variation(
                kappa, c, oracles.near_distance_variation(sub, s, theta, d)))
            # the path's report, far mode and broadside included
            rep = boundary_report(geom, grid, p, thr)
            got = [rep.near_field_threshold, rep.antenna_boundary_near, rep.antenna_boundary_far,
                   rep.freq_boundary_near_hz, rep.freq_boundary_far_hz]
            np.testing.assert_array_equal(_bits(got), _bits([
                want["near_threshold"][-1], want["antenna"][-1],
                oracles.far_antenna_boundary(b, theta, kappa, s, c), want["freq"][-1],
                oracles.freq_boundary_from_variation(
                    kappa, c, oracles.far_distance_variation(n, s, theta))]))
        for name, values in want.items():
            np.testing.assert_array_equal(_bits(getattr(table, name)[k]),
                                          _bits(values), err_msg=name)
        near = [p for p in user if p.field_model is not FieldModel.FAR]
        spread = oracles.delay_spread_limit([p.total_range_m for p in near], kappa_f, c)
        assert _bits(table.delay_spread[k]) == _bits(spread)
        limits = [f for f, p in zip(want["freq_subarray"], user)
                  if p.field_model is not FieldModel.FAR] + [spread]
        cap = oracles.subcarrier_cap(limits, grid.subcarrier_spacing_hz, subcarriers)
        assert subcarrier_caps(table, grid)[k] == cap


def test_package_exports_the_path_slots_the_consumers_take():
    # the slot consumers are public, so is the way to build their argument
    import squintlab

    geom, grid = make_geom(256), CarrierGrid.from_bandwidth(400e6, 16)
    path = PathParams(1.0, 0.3, 40.0, 5.0)
    slots = squintlab.path_slots([[path]])
    assert isinstance(slots[0], squintlab.PathBatch)
    table = squintlab.boundary_table(geom, grid, THR, slots)
    report = boundary_report(geom, grid, path, THR)
    assert table.antenna[0, 0] == report.antenna_boundary_near
    assert table.freq[0, 0] == report.freq_boundary_near_hz
