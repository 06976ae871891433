"""Antenna-domain and frequency-domain slicing planners."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from squintlab import (
    ArrayGeometry,
    BoundaryTable,
    CarrierGrid,
    FieldModel,
    InfeasiblePlanError,
    PathParams,
    ScenarioConfig,
    SlicingPlan,
    SquintThresholds,
    SubbandPlan,
    UserSubband,
    allocate_subbands,
    boundary_table,
    plan_antenna_rows,
    plan_antenna_slices,
    sample_scenario,
    sample_user_paths,
    subcarrier_caps,
)
from squintlab.wavefield import path_slots

THR = SquintThresholds()


def make_path(theta=0.3, d=40.0, r=0.0, gain=1.0 + 0j, model=FieldModel.WIDEBAND_NEAR):
    return PathParams(gain, theta, d, r, model)


def size_window(path, geom, grid):
    """(min, max) compliant subarray sizes for one path."""
    table = boundary_table(geom, grid, THR, path_slots([[path]]))
    lo, hi = table.near_threshold[0, 0], table.antenna[0, 0]
    return max(1, math.ceil(lo - 1e-9)), math.floor(hi - 1e-9)


# ---------------------------------------------------------------------------
# antenna-domain planner
# ---------------------------------------------------------------------------


def test_small_array_single_path_is_one_block():
    geom = ArrayGeometry(64, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 16)
    plan = plan_antenna_slices(geom, grid, [make_path()], THR)
    assert plan.subarray_sizes == (64,)
    assert plan.path_assignment == (0,)
    assert plan.path_order == (0,)
    assert plan.offsets == (0.0,)


def test_single_path_block_count_is_ceil_of_capped_split():
    # floor(upper size limit) is 76 for this draw, so 1024 antennas need
    # ceil(1024/76) = 14 blocks, split as evenly as 1024 = 14 * 73 + 2 allows
    geom = ArrayGeometry(1024, 7e9)
    grid = CarrierGrid.from_bandwidth(600e6, 16)
    path = make_path(theta=0.1345, d=20.0)
    lo, hi = size_window(path, geom, grid)
    assert hi == 76
    plan = plan_antenna_slices(geom, grid, [path], THR)
    assert len(plan.subarray_sizes) == 14
    assert plan.subarray_sizes == (74, 74) + (73,) * 12
    assert sum(plan.subarray_sizes) == 1024


def test_default_scenario_plan_is_compliant_everywhere():
    cfg = ScenarioConfig()
    geom, grid = cfg.geometry(), cfg.grid()
    paths = sample_scenario(cfg, 0)
    plan = plan_antenna_slices(geom, grid, paths, cfg.thresholds())
    assert sum(plan.subarray_sizes) == geom.num_antennas
    near = [i for i, p in enumerate(paths) if p.field_model is not FieldModel.FAR]
    assert sorted(plan.path_order) == near
    powers = [abs(paths[i].gain) ** 2 for i in plan.path_order]
    assert powers == sorted(powers, reverse=True)
    for t, size in enumerate(plan.subarray_sizes):
        path = paths[plan.path_order[plan.path_assignment[t]]]
        lo, hi = size_window(path, geom, grid)
        assert lo <= size <= hi
    # spot-check grid compliance of the widest block with the phase oracle
    t_max = plan.subarray_sizes.index(max(plan.subarray_sizes))
    path = paths[plan.path_order[plan.path_assignment[t_max]]]
    got = oracles.squint_phase_grid_max(
        plan.subarray_sizes[t_max], 64, path.sine_angle, path.scatterer_distance_m,
        grid.bandwidth_hz, geom.center_freq_hz,
    )
    assert got < THR.total * math.pi


@pytest.mark.parametrize("seed", range(4))
def test_plan_partition_offsets_and_cycle(seed):
    rng = np.random.default_rng(100 + seed)
    cfg = ScenarioConfig(num_antennas=int(rng.integers(128, 1025)),
                         seed=int(rng.integers(0, 1000)))
    geom, grid = cfg.geometry(), cfg.grid()
    paths = sample_scenario(cfg, int(rng.integers(0, 50)))
    plan = plan_antenna_slices(geom, grid, paths, cfg.thresholds())
    n = geom.num_antennas
    assert sum(plan.subarray_sizes) == n
    assert plan.num_antennas == n
    starts = np.cumsum((0,) + plan.subarray_sizes[:-1])
    for t, size in enumerate(plan.subarray_sizes):
        assert plan.offsets[t] == -n / 2.0 + starts[t] + size / 2.0
    # every near path is served once, weaker ones at their smallest compliant
    # size, and the strongest path takes the rest of the array
    num_near = len(plan.path_order)
    assign = plan.path_assignment
    assert assign == tuple(range(num_near)) + (0,) * (len(assign) - num_near)
    for t in range(1, num_near):
        lo, _ = size_window(paths[plan.path_order[t]], geom, grid)
        assert plan.subarray_sizes[t] == lo


def test_irreducible_runt_is_infeasible():
    # window is exactly [35, 35] for both paths, so 71 = 2*35 + 1 cannot be
    # partitioned: the strongest path's remainder of 36 needs q = 2 blocks of
    # at least 35 antennas each
    theta = 0.25 / 89.0
    geom71 = ArrayGeometry(71, 7e9)
    grid = CarrierGrid.from_bandwidth(2.7e10, 4)
    paths = [make_path(theta=theta, gain=2.0 + 0j), make_path(theta=theta, gain=1.0 + 0j)]
    lo, hi = size_window(paths[0], geom71, grid)
    assert (lo, hi) == (35, 35)
    with pytest.raises(InfeasiblePlanError) as err:
        plan_antenna_slices(geom71, grid, paths, THR)
    assert err.value.details == {"num_antennas": 71, "min_size": 35, "remainder": 36,
                                 "blocks": 2, "window": (35, 35)}
    # the same draw with a partitionable count stays fully compliant
    plan70 = plan_antenna_slices(ArrayGeometry(70, 7e9), grid, paths, THR)
    assert plan70.subarray_sizes == (35, 35)
    assert plan70.path_assignment == (0, 1)


def test_planner_shrinks_a_block_to_leave_room_for_the_next_path():
    # both paths have window [35, 35], so N = 105 leaves the strongest path
    # R = 70 antennas in two exact blocks around the weaker path's one
    theta = 0.25 / 89.0
    geom = ArrayGeometry(105, 7e9)
    grid = CarrierGrid.from_bandwidth(2.7e10, 4)
    paths = [make_path(theta=theta, gain=2.0 + 0j), make_path(theta=theta, gain=1.0 + 0j)]
    plan = plan_antenna_slices(geom, grid, paths, THR)
    assert plan.subarray_sizes == (35, 35, 35)
    assert plan.path_assignment == (0, 1, 0)


def test_array_below_first_threshold_is_infeasible():
    geom = ArrayGeometry(1, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 16)
    with pytest.raises(InfeasiblePlanError) as err:
        plan_antenna_slices(geom, grid, [make_path()], THR)
    assert err.value.details["num_antennas"] == 1
    assert err.value.details["min_size"] == 2


def test_empty_size_window_is_infeasible():
    # an extreme bandwidth pushes the squint cap below the curvature threshold
    geom = ArrayGeometry(1024, 7e9)
    grid = CarrierGrid.from_bandwidth(1e12, 4)
    path = make_path()
    lo, hi = size_window(path, geom, grid)
    assert hi < lo
    with pytest.raises(InfeasiblePlanError) as err:
        plan_antenna_slices(geom, grid, [path], THR)
    assert err.value.details["window"] == (lo, hi)


def test_planner_requires_a_near_path():
    geom = ArrayGeometry(64, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 16)
    far_only = [make_path(model=FieldModel.FAR)]
    with pytest.raises(InfeasiblePlanError):
        plan_antenna_slices(geom, grid, far_only, THR)


def test_every_near_path_is_served_when_the_strongest_window_spans_the_array():
    # trial 75 of the desk-scale gate config: the strongest path's window
    # admits all 256 antennas, and the three weaker near paths still get a
    # block each at their smallest compliant size
    cfg = ScenarioConfig(num_antennas=256, num_subcarriers=64, num_near_paths=4,
                         num_far_paths=1, far_gain_offset_db=0.0, seed=42)
    geom, grid = cfg.geometry(), cfg.grid()
    paths = sample_scenario(cfg, 75)
    plan = plan_antenna_slices(geom, grid, paths, cfg.thresholds())
    assert plan.path_assignment == (0, 1, 2, 3)
    lows = [size_window(paths[i], geom, grid)[0] for i in plan.path_order]
    assert plan.subarray_sizes == (256 - sum(lows[1:]),) + tuple(lows[1:])


def feasible_remainder(remainder, lo, hi):
    """Whether some block count q >= 1 has q * lo <= remainder <= q * hi."""
    return any(q * lo <= remainder <= q * hi for q in range(1, max(remainder, 0) + 1))


@settings(max_examples=300, deadline=None)
@given(num_antennas=st.integers(2, 2048), bandwidth=st.floats(1e6, 1e9),
       draws=st.lists(st.tuples(st.floats(0.01, 4.0), st.floats(-0.99, 0.99),
                                st.floats(0.5, 200.0), st.floats(0.0, 100.0),
                                st.sampled_from(FieldModel)),
                      min_size=1, max_size=5),
       first_model=st.sampled_from([FieldModel.WIDEBAND_NEAR, FieldModel.NARROWBAND_NEAR]))
def test_plan_serves_every_near_path_within_its_window(num_antennas, bandwidth, draws,
                                                       first_model):
    geom = ArrayGeometry(num_antennas, 7e9)
    grid = CarrierGrid.from_bandwidth(bandwidth, 16)
    paths = [make_path(theta, d, r, complex(amp), model)
             for amp, theta, d, r, model in draws]
    paths[0] = dataclasses.replace(paths[0], field_model=first_model)
    near = [i for i, p in enumerate(paths) if p.field_model is not FieldModel.FAR]
    order = sorted(near, key=lambda i: -abs(paths[i].gain) ** 2)
    windows = [size_window(paths[i], geom, grid) for i in order]
    remainder = num_antennas - sum(lo for lo, _ in windows[1:])
    feasible = (all(lo <= hi for lo, hi in windows)
                and feasible_remainder(remainder, *windows[0]))
    if not feasible:
        with pytest.raises(InfeasiblePlanError):
            plan_antenna_slices(geom, grid, paths, THR)
        return
    plan = plan_antenna_slices(geom, grid, paths, THR)
    assert plan.path_order == tuple(order)
    assert sum(plan.subarray_sizes) == num_antennas == plan.num_antennas
    starts = np.cumsum((0,) + plan.subarray_sizes[:-1])
    for t, size in enumerate(plan.subarray_sizes):
        assert plan.offsets[t] == -num_antennas / 2.0 + starts[t] + size / 2.0
        lo, hi = windows[plan.path_assignment[t]]
        assert lo <= size <= hi
    assert set(plan.path_assignment) == set(range(len(order)))
    for j in range(1, len(order)):
        assert plan.path_assignment.count(j) == 1
        assert plan.subarray_sizes[plan.path_assignment.index(j)] == windows[j][0]


_SHARED_MODELS = st.lists(st.sampled_from(FieldModel), min_size=1, max_size=7).filter(
    lambda models: 1 <= sum(m is not FieldModel.FAR for m in models) <= 5)


@settings(max_examples=150, deadline=None)
@given(num_antennas=st.integers(2, 2048), bandwidth=st.floats(1e6, 1e9), models=_SHARED_MODELS,
       num_users=st.integers(1, 64), data=st.data())
def test_row_planner_equals_the_one_user_planner_row_by_row(num_antennas, bandwidth, models,
                                                            num_users, data):
    # K users sharing one model sequence: row k of the batch is user k's plan
    # field for field, and the batch raises the first infeasible user's error
    geom = ArrayGeometry(num_antennas, 7e9)
    grid = CarrierGrid.from_bandwidth(bandwidth, 16)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    users = [[make_path(rng.uniform(-0.99, 0.99), rng.uniform(0.5, 200.0),
                        rng.uniform(0.0, 100.0), complex(rng.uniform(0.01, 4.0)), model)
              for model in models] for _ in range(num_users)]
    users[0] = [make_path(theta, d, r, complex(amp), model) for (amp, theta, d, r), model in zip(
        data.draw(st.lists(st.tuples(st.floats(0.01, 4.0), st.floats(-0.99, 0.99),
                                     st.floats(0.5, 200.0), st.floats(0.0, 100.0)),
                           min_size=len(models), max_size=len(models))), models)]
    plans, errors = [], []
    for user in users:
        try:
            plans.append(plan_antenna_slices(geom, grid, user, THR))
        except InfeasiblePlanError as err:
            errors.append(err)
    slots = path_slots(users)
    table = boundary_table(geom, grid, THR, slots)
    if errors:
        with pytest.raises(InfeasiblePlanError) as err:
            plan_antenna_rows(geom, slots, table)
        assert err.value.args == errors[0].args
        assert err.value.details == errors[0].details
        return
    blocks = plan_antenna_rows(geom, slots, table)
    split = np.cumsum([len(plan.subarray_sizes) for plan in plans])[:-1]
    rows = zip(plans, *(np.split(a, split) for a in (blocks.sizes, blocks.paths, blocks.offsets)))
    for plan, sizes, paths, offsets in rows:
        assert tuple(sizes.tolist()) == plan.subarray_sizes
        assert tuple(paths.tolist()) == tuple(plan.path_order[a] for a in plan.path_assignment)
        assert np.array_equal(offsets.view(np.uint64), np.array(plan.offsets).view(np.uint64))


def test_row_planner_ranks_gain_powers_as_python_abs_and_ties_keep_path_order():
    # the planner ranks |g|^2 from numpy's |z|, which differs from Python's
    # abs(z) in the last bit for most sampled users; only the order is used.
    # Windows that admit every size make each user's blocks its rank order
    cfg = ScenarioConfig(num_antennas=256, num_subcarriers=64)
    users = [paths for trial in range(300) for paths in sample_user_paths(cfg, trial, 65)]
    users += [[make_path(gain=complex(g)) for g in gains]
              for gains in ((1, 1j, -1, 0.5), (0.5, 1j, -1, 1), (2, 2, 2, 2))]
    slots = path_slots(users)
    shape = (len(users), cfg.num_near_paths)
    table = BoundaryTable(np.ones(shape, dtype=bool), np.ones(shape), np.full(shape, 257.0),
                          np.full(shape, math.inf))
    order = plan_antenna_rows(cfg.geometry(), slots, table).paths.reshape(shape)
    assert order.tolist() == [sorted(range(len(paths)), key=lambda l: -abs(paths[l].gain) ** 2)
                              for paths in users]
    assert order[-3:].tolist() == [[0, 1, 2, 3], [1, 2, 3, 0], [0, 1, 2, 3]]
    powers = np.abs(np.stack([slot.gain for slot in slots], axis=1)) ** 2
    assert np.any(powers != [[abs(p.gain) ** 2 for p in paths] for paths in users])


def test_planner_is_deterministic():
    cfg = ScenarioConfig(num_antennas=512)
    paths = sample_scenario(cfg, 3)
    a = plan_antenna_slices(cfg.geometry(), cfg.grid(), paths, cfg.thresholds())
    b = plan_antenna_slices(cfg.geometry(), cfg.grid(), paths, cfg.thresholds())
    assert a == b


def test_plan_serializes_subarray_records():
    geom = ArrayGeometry(64, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 16)
    plan = plan_antenna_slices(geom, grid, [make_path()], THR)
    doc = plan.to_json_dict()
    assert doc == {"subarrays": [{"size": 64, "path": 0, "offset": 0.0}]}


# ---------------------------------------------------------------------------
# per-user subcarrier caps
# ---------------------------------------------------------------------------


def user_subcarrier_cap(user, geom, grid, thr, subarray_size):
    """One user's sub-band size cap, from its row of the boundary table."""
    table = boundary_table(geom, grid, thr, path_slots([user]), subarray_size)
    return int(subcarrier_caps(table, grid)[0])


def test_far_only_user_is_uncapped():
    geom = ArrayGeometry(1024, 7e9)
    grid = CarrierGrid.from_bandwidth(600e6, 256)
    cap = user_subcarrier_cap([make_path(model=FieldModel.FAR)], geom, grid, THR, 128)
    assert cap == 256


def test_delay_spread_cap_counts_occupied_span():
    # two paths 20 m apart in total range cap the span at 3.75 MHz
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid(16, 1e6)
    user = [make_path(d=30.0, r=10.0), make_path(d=50.0, r=10.0)]
    limit = boundary_table(geom, grid, THR, path_slots([user]), 1).delay_spread[0]
    assert limit == pytest.approx(3.748e6, rel=1e-3)
    # span (M_s - 1) * df must stay below the limit: 4 subcarriers span 3 MHz
    assert user_subcarrier_cap(user, geom, grid, THR, 1) == 4


def test_exact_multiple_limit_keeps_span_strictly_inside():
    geom = ArrayGeometry(16, 7e9)
    # craft a delay-spread limit of exactly 3 * df
    df = 1e6
    dev = THR.kappa_f * 299792458.0 / (3 * df)
    user = [make_path(d=30.0, r=0.0), make_path(d=30.0 + 2 * dev, r=0.0)]
    grid = CarrierGrid(16, df)
    limit = boundary_table(geom, grid, THR, path_slots([user]), 1).delay_spread[0]
    assert limit == pytest.approx(3 * df, rel=1e-12)
    assert user_subcarrier_cap(user, geom, grid, THR, 1) == 3


def test_squint_cap_uses_the_subarray_scale():
    cfg = ScenarioConfig()
    geom, grid = cfg.geometry(), cfg.grid()
    user = [make_path(theta=0.3, d=40.0)]
    small = user_subcarrier_cap(user, geom, grid, THR, 128)
    tiny = user_subcarrier_cap(user, geom, grid, THR, 8)
    assert small < tiny <= grid.num_subcarriers


# ---------------------------------------------------------------------------
# frequency-domain allocator
# ---------------------------------------------------------------------------


def test_single_user_takes_the_whole_band():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid.from_bandwidth(1e6, 32)
    plan = allocate_subbands([[make_path()]], geom, grid, THR, 2)
    assert plan.user_subcarriers == (32,)
    assert plan.subbands[0].bandwidth_hz == 1e6
    assert plan.subbands[0].center_hz == 7e9
    assert plan.subarray_size == 8


def test_two_users_split_symmetrically():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid.from_bandwidth(1e6, 32)
    plan = allocate_subbands([[make_path()], [make_path(theta=-0.3)]], geom, grid, THR, 2)
    assert plan.user_subcarriers == (16, 16)
    assert tuple(sb.center_hz for sb in plan.subbands) == (7e9 - 0.25e6, 7e9 + 0.25e6)


def test_equal_share_remainder_prefers_leading_users():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid.from_bandwidth(1e6, 10)
    users = [[make_path(theta=t)] for t in (0.1, 0.2, 0.3, 0.4)]
    plan = allocate_subbands(users, geom, grid, THR, 2)
    assert plan.user_subcarriers == (3, 3, 2, 2)


def test_capped_user_releases_subcarriers_to_the_rest():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid(16, 1e6)
    capped = [make_path(d=30.0, r=10.0), make_path(d=50.0, r=10.0)]
    # one total range (40 m) on both paths: no delay-spread cap
    free = [make_path(theta=0.2), make_path(theta=-0.3, d=25.0, r=15.0)]
    plan = allocate_subbands([capped, free], geom, grid, THR, 16)
    assert plan.user_subcarriers == (4, 12)
    assert sum(plan.user_subcarriers) == 16
    sb = plan.subbands[1]
    assert sb.start == 4
    assert list(sb.global_indices()) == list(range(4, 16))


def test_sum_of_caps_below_band_is_infeasible():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid(16, 1e6)
    capped = [make_path(d=30.0, r=10.0), make_path(d=50.0, r=10.0)]
    with pytest.raises(InfeasiblePlanError) as err:
        allocate_subbands([capped, list(capped)], geom, grid, THR, 16)
    assert err.value.details["caps"] == [4, 4]
    assert err.value.details["required"] == 16


def test_default_scenario_subband_letter_is_infeasible():
    # at the default scale the multipath delay spread caps every user near one
    # subcarrier, so eight users cannot cover 256 of them
    cfg = ScenarioConfig()
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    users = sample_user_paths(cfg, 0, cfg.num_users)
    with pytest.raises(InfeasiblePlanError) as err:
        allocate_subbands(users, geom, grid, thr, cfg.num_subarrays)
    assert sum(err.value.details["caps"]) < grid.num_subcarriers


def test_single_path_users_at_default_scale_get_a_compliant_plan():
    cfg = dataclasses.replace(ScenarioConfig(), num_near_paths=1)
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    users = sample_user_paths(cfg, 0, cfg.num_users)
    plan = allocate_subbands(users, geom, grid, thr, cfg.num_subarrays)
    assert sum(plan.user_subcarriers) == grid.num_subcarriers
    assert sum(sb.bandwidth_hz for sb in plan.subbands) == pytest.approx(grid.bandwidth_hz, rel=1e-12)
    caps = [user_subcarrier_cap(u, geom, grid, thr, plan.subarray_size) for u in users]
    running = 0
    for k, sb in enumerate(plan.subbands):
        assert sb.num_subcarriers <= caps[k]
        assert sb.start == running
        want_center = (geom.center_freq_hz - grid.bandwidth_hz / 2.0
                       + running * grid.subcarrier_spacing_hz + sb.bandwidth_hz / 2.0)
        assert sb.center_hz == pytest.approx(want_center, rel=1e-15)
        running += sb.num_subcarriers
        # grid compliance of the user's path over one subarray and this sub-band
        path = users[k][0]
        got = oracles.squint_phase_grid_max(
            plan.subarray_size, sb.num_subcarriers, path.sine_angle,
            path.scatterer_distance_m, sb.bandwidth_hz, geom.center_freq_hz,
        )
        assert got < thr.total * math.pi


def test_multipath_user_span_respects_the_phase_oracle():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid(64, 1e6)
    capped = [make_path(d=30.0, r=10.0), make_path(d=50.0, r=10.0)]
    # one total range (40 m) on both paths: no delay-spread cap
    free = [make_path(theta=0.2), make_path(theta=-0.3, d=25.0, r=15.0)]
    plan = allocate_subbands([capped, free], geom, grid, THR, 16)
    ms = plan.subbands[0].num_subcarriers
    spread = oracles.user_phase_spread(
        [(30.0, 10.0), (50.0, 10.0)], ms, grid.subcarrier_spacing_hz
    )
    assert spread <= THR.kappa_f * math.pi
    # one more subcarrier would break the phase budget
    over = oracles.user_phase_spread(
        [(30.0, 10.0), (50.0, 10.0)], ms + 1, grid.subcarrier_spacing_hz
    )
    assert over > THR.kappa_f * math.pi


def test_equal_shares_ignore_path_power():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid.from_bandwidth(1e6, 10)
    users = [[make_path(gain=2.0 + 0j)], [make_path(gain=1.0 + 0j, theta=0.2)]]
    equal = allocate_subbands(users, geom, grid, THR, 2)
    assert equal.user_subcarriers == (5, 5)


def test_allocator_input_validation():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid.from_bandwidth(1e6, 8)
    user = [make_path()]
    with pytest.raises(ValueError):
        allocate_subbands([], geom, grid, THR, 2)
    with pytest.raises(ValueError):
        allocate_subbands([user], geom, grid, THR, 3)  # 3 does not divide 16
    with pytest.raises(InfeasiblePlanError):
        allocate_subbands([user] * 9, geom, grid, THR, 2)  # 9 users, 8 subcarriers


def test_allocator_is_deterministic():
    cfg = dataclasses.replace(ScenarioConfig(), num_near_paths=1)
    users = sample_user_paths(cfg, 5, cfg.num_users)
    a = allocate_subbands(users, cfg.geometry(), cfg.grid(), cfg.thresholds(), 8)
    b = allocate_subbands(users, cfg.geometry(), cfg.grid(), cfg.thresholds(), 8)
    assert a == b


def test_subband_plan_serializes_user_records():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid.from_bandwidth(1e6, 32)
    plan = allocate_subbands([[make_path()]], geom, grid, THR, 2)
    doc = plan.to_json_dict()
    assert doc == {
        "subbands": [{"bandwidth_hz": 1e6, "subcarriers": 32, "center_hz": 7e9}]
    }
