"""Precoder constructions, array-gain metrics, and SE cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from squintlab import (
    ArrayGeometry,
    CarrierGrid,
    FieldModel,
    PathParams,
    PrecoderSet,
    ScenarioConfig,
    Scheme,
    SliceBlocks,
    SquintThresholds,
    UserSubband,
    boundary_table,
    narrowband_beams,
    narrowband_mrt,
    normalized_array_gain,
    owner_gain_amplitudes,
    per_subcarrier_rates,
    plan_antenna_rows,
    plan_antenna_slices,
    sample_scenario,
    sample_user_paths,
    se_optimal,
    se_slicing_closed_form,
    se_subband_closed_form,
    slice_analog_rows,
    slice_precoder_set,
    spectral_efficiency,
    static_precoder_set,
    subband_analog_rows,
    subband_precoder_set,
    synth_channel,
)
from squintlab import wavefield
from squintlab.experiments import _fs_trial_amps, _link_amps
from squintlab.precoding import _hybrid_set, block_diagonal
from squintlab.wavefield import PathBatch, path_phases, path_slots, phasor

THR = SquintThresholds()


def make_path(theta=0.3, d=40.0, r=0.0, gain=1.0 + 0j, model=FieldModel.WIDEBAND_NEAR):
    return PathParams(gain, theta, d, r, model)


def equal_plan(n, num_blocks, num_paths=1):
    """Equal blocks of n // num_blocks antennas serving paths 0, 1, ..., num_paths - 1 in turn."""
    size = n // num_blocks
    t = np.arange(num_blocks)
    return SliceBlocks(np.full(num_blocks, size), t % num_paths, -n / 2.0 + t * size + size / 2.0)


def column_blocks(analog, sizes):
    """Nonzero block of each column of a block-diagonal analog matrix.

    Asserts that every entry outside the blocks is zero.
    """
    assert analog.shape == (sum(sizes), len(sizes))
    out, start = [], 0
    for t, size in enumerate(sizes):
        col = analog[:, t]
        assert not np.any(col[:start]) and not np.any(col[start + size :])
        out.append(col[start : start + size])
        start += size
    return out


def row_blocks(row, sizes):
    """Each block of one user's analog row, read through its block-diagonal matrix."""
    return column_blocks(block_diagonal(row, sizes), sizes)


# ---------------------------------------------------------------------------
# beams
# ---------------------------------------------------------------------------


def test_mrt_single_antenna_is_one():
    geom = ArrayGeometry(1, 7e9)
    assert narrowband_mrt(geom, [make_path()]) == pytest.approx([1.0 + 0j])


@pytest.mark.parametrize("n", [2, 17, 256])
def test_mrt_is_unit_norm(n):
    geom = ArrayGeometry(n, 7e9)
    assert np.linalg.norm(narrowband_mrt(geom, [make_path()])) == pytest.approx(1.0, abs=1e-12)


def test_mrt_center_subcarrier_gain_is_sqrt_n():
    geom = ArrayGeometry(1024, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 65)
    path = make_path(theta=0.1, d=10.0)
    ch = synth_channel(geom, grid, [path])
    f = narrowband_mrt(geom, [path])
    assert abs(np.vdot(f, ch.entries[:, 32])) == pytest.approx(math.sqrt(1024), rel=1e-12)


def test_narrowband_baseline_tracks_strongest_near_path():
    geom = ArrayGeometry(32, 7e9)
    weak = make_path(theta=0.1, gain=0.5 + 0j)
    strong = make_path(theta=-0.4, d=25.0, gain=2.0 + 0j)
    far = make_path(theta=0.7, gain=9.0 + 0j, model=FieldModel.FAR)
    beam = narrowband_mrt(geom, [weak, strong, far])
    ranges = oracles.element_distances(32, -0.4, 25.0, geom.spacing_m)
    want = np.exp(1j * 2 * math.pi / geom.wavelength_m * (ranges - 25.0)) / math.sqrt(32)
    np.testing.assert_allclose(beam, want, atol=1e-12)
    assert np.linalg.norm(beam) == pytest.approx(1.0, abs=1e-12)
    fallback = narrowband_mrt(geom, [far])
    assert np.linalg.norm(fallback) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# analog slice beams
# ---------------------------------------------------------------------------


def test_slice_beam_is_single_path_phase_without_far_paths():
    geom = ArrayGeometry(64, 7e9)
    path = make_path(gain=np.exp(0.7j))
    plan = equal_plan(64, 4)
    beams = row_blocks(slice_analog_rows(geom, path_slots([[path]]), plan)[0],
                       plan.sizes)
    for t, beam in enumerate(beams):
        np.testing.assert_allclose(np.abs(beam), 1.0, atol=1e-12)
        size = plan.sizes[t]
        want = [oracles.slice_beam_entry(np.exp(0.7j), 0.3, 40.0, [], plan.offsets[t], size, i, 7e9)
                for i in range(size)]
        np.testing.assert_allclose(beam, want, atol=1e-12)


def test_weak_far_path_barely_perturbs_the_slice_beam():
    geom = ArrayGeometry(64, 7e9)
    near = make_path(gain=1.0 + 0j)
    far = make_path(theta=-0.5, gain=1e-6 + 0j, model=FieldModel.FAR)
    plan = equal_plan(64, 2)
    clean = row_blocks(slice_analog_rows(geom, path_slots([[near]]), plan)[0],
                       plan.sizes)
    mixed = row_blocks(slice_analog_rows(geom, path_slots([[near, far]]), plan)[0],
                       plan.sizes)
    for a, b in zip(clean, mixed):
        assert np.abs(np.angle(b / a)).max() < 1e-4


def test_slice_beam_matches_scalar_oracle_with_far_paths():
    # two near and two far paths, planned by the library: every row of every
    # subarray against the coordinate-geometry oracle
    geom = ArrayGeometry(256, 7e9)
    grid = CarrierGrid.from_bandwidth(600e6, 64)
    paths = [
        make_path(theta=0.2, d=30.0, gain=1.3 * np.exp(0.4j)),
        make_path(theta=-0.5, gain=0.5 * np.exp(1.1j), model=FieldModel.FAR),
        make_path(theta=-0.35, d=55.0, r=8.0, gain=0.7 * np.exp(-1.9j)),
        make_path(theta=0.65, gain=0.25 * np.exp(-0.8j), model=FieldModel.FAR),
    ]
    plan = plan_antenna_slices(geom, grid, paths, THR)
    assert len(set(plan.sizes.tolist())) > 1
    assert set(plan.paths.tolist()) == {0, 2}
    far_terms = [(p.gain, p.sine_angle) for p in paths if p.field_model is FieldModel.FAR]
    beams = row_blocks(slice_analog_rows(geom, path_slots([paths]), plan)[0],
                       plan.sizes)
    for t, beam in enumerate(beams):
        near = paths[plan.paths[t]]
        size = plan.sizes[t]
        want = [
            oracles.slice_beam_entry(
                near.gain, near.sine_angle, near.scatterer_distance_m, far_terms,
                plan.offsets[t], size, i, 7e9,
            )
            for i in range(size)
        ]
        np.testing.assert_allclose(beam, want, rtol=1e-11, atol=0.0)


# ---------------------------------------------------------------------------
# digital MRT
# ---------------------------------------------------------------------------


def test_digital_mrt_single_block_normalizes_the_cascade():
    rng = np.random.default_rng(7)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    analog = np.exp(1j * np.angle(h))[:, None]
    hybrid = _hybrid_set(Scheme.ANTENNA_SLICING, analog, (16,), h[:, None])
    assert np.linalg.norm(hybrid.combined()) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(hybrid.digital[:, 0], oracles.digital_mrt(h, analog), rtol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_digital_mrt_denominator_forms_agree(seed):
    rng = np.random.default_rng(200 + seed)
    sizes = (5, 7, 4)
    n = sum(sizes)
    analog = np.zeros((n, 3), dtype=np.complex128)
    start = 0
    for t, size in enumerate(sizes):
        analog[start : start + size, t] = np.exp(1j * rng.uniform(-np.pi, np.pi, size))
        start += size
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    proj = analog.conj().T @ h
    direct = np.linalg.norm(analog @ (analog.conj().T @ h))
    blockwise = math.sqrt(sum(sz * abs(p) ** 2 for sz, p in zip(sizes, proj)))
    assert direct == pytest.approx(blockwise, rel=1e-12)
    f_d = _hybrid_set(Scheme.ANTENNA_SLICING, analog, sizes, h[:, None]).digital[:, 0]
    np.testing.assert_allclose(f_d, oracles.digital_mrt(h, analog), rtol=1e-12)


def test_digital_mrt_zero_channel_is_degenerate():
    # a column orthogonal to every analog beam gets a zero digital vector and amplitude
    analog = np.ones((4, 1), dtype=np.complex128)
    h = np.array([[1.0], [-1.0], [1.0], [-1.0]], dtype=np.complex128)
    assert not np.any(_hybrid_set(Scheme.ANTENNA_SLICING, analog, (4,), h).digital)
    assert owner_gain_amplitudes(analog.T, [4], np.zeros(1, dtype=np.intp), h.T)[0] == 0.0


def test_vectorized_amplitudes_match_the_scalar_route():
    rng = np.random.default_rng(11)
    sizes = (8, 8, 16)
    n = sum(sizes)
    row = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    analog = block_diagonal(row, sizes)
    cols = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    cols[:, 2] = 0.0  # degenerate column reports amplitude 0
    amps = owner_gain_amplitudes(row[None, :], sizes, np.zeros(6, dtype=np.intp), cols.T)
    for m in range(6):
        if m == 2:
            assert amps[m] == 0.0
            continue
        f_d = oracles.digital_mrt(cols[:, m], analog)
        want = abs(np.vdot(analog @ f_d, cols[:, m]))
        assert amps[m] == pytest.approx(want, rel=1e-12)



@st.composite
def _owned_columns(draw):
    """(rows, each row's block sizes, ascending owners, columns) with some zero columns."""
    n = draw(st.integers(1, 512))
    k = draw(st.integers(1, 6))
    sizes = []
    for _ in range(k):
        kind = draw(st.sampled_from(["one block", "single elements", "random"]))
        if kind == "one block":
            sizes.append([n])
        elif kind == "single elements":
            sizes.append([1] * n)
        else:
            cuts = draw(st.sets(st.integers(1, n - 1), max_size=min(n - 1, 40))) if n > 1 else ()
            sizes.append(np.diff([0, *sorted(cuts), n]).tolist())
    owners = np.repeat(np.arange(k), draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.exp(1j * rng.uniform(-np.pi, np.pi, (k, n)))
    cols = rng.standard_normal((n, len(owners))) + 1j * rng.standard_normal((n, len(owners)))
    cols[:, draw(st.lists(st.booleans(), min_size=len(owners), max_size=len(owners)))] = 0.0
    return rows, sizes, owners, cols


@settings(max_examples=100, deadline=None)
@given(case=_owned_columns())
def test_owner_amplitudes_equal_each_owners_digital_mrt(case):
    # every column's amplitude is that of the digital MRT on its owner's N x T
    # block-diagonal analog matrix, and a zero column reads exactly 0
    rows, sizes, owners, cols = case
    amps = owner_gain_amplitudes(rows, np.concatenate(sizes), owners, cols.T)
    for c, owner in enumerate(owners):
        if not np.any(cols[:, c]):
            assert amps[c] == 0.0
            continue
        analog = block_diagonal(rows[owner], sizes[owner])
        want = abs(np.vdot(analog @ oracles.digital_mrt(cols[:, c], analog), cols[:, c]))
        assert amps[c] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("draws", [1, 3, 8])
def test_owner_amplitudes_equal_across_slab_budgets(draws, monkeypatch):
    # the owners' products and segmented sums go through one scratch slab of
    # columns; every budget gives the same bits: one column per slab, seven (a
    # ragged last slab of 10, 30 or 80 columns), the whole array, and less
    # than one column; each of the draws owns M = 10 columns, its row split
    # into blocks of random sizes
    n, m = 24, 10
    rng = np.random.default_rng(draws)
    rows = phasor(rng.uniform(-np.pi, np.pi, (draws, n)))
    sizes = np.concatenate([np.diff([0, *sorted(rng.choice(np.arange(1, n), 4, replace=False)),
                                     n]) for _ in range(draws)])
    owners = np.repeat(np.arange(draws), m)
    cols = rng.standard_normal((draws * m, n)) + 1j * rng.standard_normal((draws * m, n))
    cols[3] = 0.0  # a degenerate column reads 0 in every slab
    built = {}
    for budget in (16 * n, 7 * 16 * n, 1 << 30, 1):
        monkeypatch.setattr(wavefield, "_SLAB_BYTES", budget)
        built[budget] = owner_gain_amplitudes(rows, sizes, owners, cols)
    whole = built.pop(1 << 30)
    assert whole[3] == 0.0
    for budget, amps in built.items():
        assert np.array_equal(amps.view(np.uint64), whole.view(np.uint64)), budget


DESK_USERS = ScenarioConfig(num_antennas=256, num_subcarriers=64, num_users=8,
                            num_subarrays=8, seed=11)
MIXED_WIDTHS = ScenarioConfig(num_antennas=256, num_subcarriers=64, num_near_paths=2,
                              bandwidth_hz=100e6, seed=7)


@pytest.mark.parametrize("trial", range(2))
def test_precoder_sets_match_the_single_link_amplitudes(trial):
    # the precoder sets and the experiments share one analog builder per
    # scheme and one digital MRT; a zero column gets a zero digital vector
    cfg = DESK_USERS
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    paths = sample_scenario(cfg, trial)
    ch = synth_channel(geom, grid, paths)
    entries = ch.entries.copy()
    entries[:, 5] = 0.0
    hybrid = slice_precoder_set(dataclasses.replace(ch, entries=entries),
                                plan_antenna_slices(geom, grid, paths, thr))
    amps = np.abs(np.einsum("nm,nm->m", hybrid.combined().conj(), entries))
    slots = path_slots([paths])
    table = boundary_table(geom, grid, thr, slots)
    want = _link_amps(geom, slots, entries.T, table)["antenna-slicing"]
    np.testing.assert_allclose(amps, want, rtol=1e-12, atol=0.0)
    assert not np.any(hybrid.digital[:, 5]) and amps[5] == 0.0 and want[5] == 0.0
    for m in (0, 31, 63):
        np.testing.assert_allclose(hybrid.digital[:, m],
                                   oracles.digital_mrt(entries[:, m], hybrid.analog),
                                   rtol=1e-12)


@pytest.mark.parametrize("cfg, trial", [(DESK_USERS, 0), (DESK_USERS, 1),
                                        (MIXED_WIDTHS, 0), (MIXED_WIDTHS, 1)],
                         ids=["0", "1", "mixed-0", "mixed-1"])
def test_precoder_sets_match_the_experiment_amplitudes(cfg, trial):
    # every user's library precoder sets, built one user at a time, give the
    # amplitudes the batched multiuser trial computes for its subcarriers
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    amps, plan, _ = _fs_trial_amps(cfg, trial)
    users = sample_user_paths(cfg, trial, len(plan.subbands))
    for subband in plan.subbands:
        user = users[subband.user]
        idx = list(subband.global_indices())
        ch = synth_channel(geom, grid, user)
        cols = ch.entries[:, idx]
        sets = {
            "subband-slicing": subband_precoder_set(geom, user, subband,
                                                    cfg.num_subarrays, cols),
            "antenna-slicing": slice_precoder_set(
                ch, plan_antenna_slices(geom, grid, user, thr)),
            "narrowband-mrt": static_precoder_set(narrowband_mrt(geom, user),
                                                  grid.num_subcarriers,
                                                  Scheme.NARROWBAND_BASELINE),
            "optimal": PrecoderSet(Scheme.OPTIMAL,
                                   ch.entries / np.linalg.norm(ch.entries, axis=0)),
        }
        for scheme, precoders in sets.items():
            combined = precoders.combined()
            if combined.shape[1] != len(idx):
                combined = combined[:, idx]
            got = np.abs(np.einsum("nm,nm->m", combined.conj(), cols))
            np.testing.assert_allclose(got, amps[scheme][idx], rtol=1e-12, atol=0.0,
                                       err_msg=f"{scheme}, user {subband.user}")
    if cfg is MIXED_WIDTHS:
        assert max(plan.user_subcarriers) > 1


@pytest.mark.parametrize("cfg", [DESK_USERS, MIXED_WIDTHS], ids=["desk", "mixed"])
def test_one_batch_trial_equals_the_chunked_loop_bit_for_bit(cfg):
    # the served users' sub-bands partition the band, so the whole trial is
    # one batch; it must give the chunk-of-16 loop's amplitudes in every bit
    for trial in range(10):
        amps, _, _ = _fs_trial_amps(cfg, trial)
        want = oracles.chunked_fs_amps(cfg, trial)
        assert amps.keys() == want.keys()
        for scheme, values in want.items():
            assert np.array_equal(amps[scheme].view(np.uint64), values.view(np.uint64)), \
                f"{scheme}, trial {trial}"


def test_one_batch_full_scale_trial_equals_the_chunked_loop_bit_for_bit():
    cfg = ScenarioConfig(num_antennas=1024, num_subcarriers=256, seed=3)
    amps, plan, _ = _fs_trial_amps(cfg, 0)
    want = oracles.chunked_fs_amps(cfg, 0)
    assert len(plan.subbands) > 16
    for scheme, values in want.items():
        assert np.array_equal(amps[scheme].view(np.uint64), values.view(np.uint64)), scheme


# ---------------------------------------------------------------------------
# sub-band beams
# ---------------------------------------------------------------------------


def test_subband_beam_at_carrier_matches_slice_beam_per_block():
    # the two constructions reference the near path differently (block center
    # vs scatterer distance), which is one constant phase per block and thus
    # invisible to the digital MRT stage
    path = make_path(gain=np.exp(0.4j))
    geom = ArrayGeometry(32, 7e9)
    plan = equal_plan(32, 4)
    grid = CarrierGrid.from_bandwidth(40e6, 8)
    ch = synth_channel(geom, grid, [path])
    slots = path_slots([[path]])
    slice_beams = row_blocks(slice_analog_rows(geom, slots, plan)[0], plan.sizes)
    sub_beams = row_blocks(subband_analog_rows(geom, slots, [7e9])[0], plan.sizes)
    for slice_beam, sub_beam in zip(slice_beams, sub_beams):
        ratio = sub_beam / slice_beam
        np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-12)
        assert np.std(ratio) < 1e-12
    full_band = UserSubband(0, 8, 0, grid.subcarrier_spacing_hz, 7e9)
    via_slice = spectral_efficiency(ch, slice_precoder_set(ch, plan), 10.0, 1.0)
    via_subband = spectral_efficiency(
        ch, subband_precoder_set(geom, [path], full_band, 4, ch.entries), 10.0, 1.0
    )
    assert via_subband == pytest.approx(via_slice, rel=1e-12)


def test_subband_beam_matches_two_path_scalar_oracle():
    geom = ArrayGeometry(32, 7e9)
    paths = [
        make_path(theta=0.25, d=30.0, r=12.0, gain=1.0 + 0j),
        make_path(theta=-0.4, d=55.0, r=5.0, gain=np.exp(0.9j)),
    ]
    f_sub = 7e9 + 17e6
    size = 8
    beams = row_blocks(subband_analog_rows(geom, path_slots([paths]), [f_sub])[0], (size,) * 4)
    terms = [(p.gain, p.sine_angle, p.scatterer_distance_m, p.ue_range_m) for p in paths]
    for t, beam in enumerate(beams):
        np.testing.assert_allclose(np.abs(beam), 1.0, atol=1e-12)
        center_offset = -16.0 + t * size + size / 2.0
        for i in range(size):
            want = oracles.subband_beam_entry(terms, f_sub, center_offset, size, i, 7e9)
            assert beam[i] == pytest.approx(want, rel=1e-12)


def test_subband_beam_ignores_far_paths_and_validates():
    geom = ArrayGeometry(32, 7e9)
    near = make_path()
    far = make_path(theta=0.6, model=FieldModel.FAR)
    with_far = subband_analog_rows(geom, path_slots([[near, far]]), [7e9])
    without = subband_analog_rows(geom, path_slots([[near]]), [7e9])
    np.testing.assert_allclose(with_far, without, atol=1e-14)
    with pytest.raises(ValueError):
        subband_analog_rows(geom, path_slots([[far]]), [7e9])
    band = UserSubband(0, 1, 0, 1e6, 7e9)
    with pytest.raises(ValueError, match="divide"):
        subband_precoder_set(geom, [near], band, 5, np.ones((32, 1), dtype=np.complex128))
    # -4 divides 32, and 0 divides nothing; both are refused as counts
    for count in (0, -4):
        with pytest.raises(ValueError, match="num_subarrays must be positive"):
            subband_precoder_set(geom, [near], band, count,
                                 np.ones((32, 1), dtype=np.complex128))


@pytest.mark.parametrize("num_antennas,num_users", [(128, 6), (1024, 16)])
def test_batched_analog_builders_equal_one_user_at_a_time(num_antennas, num_users):
    # each user's row in a batch is bit-equal to the one-user builder; the
    # users share one sequence of field models, and a far-only user, which
    # gets the planar beam of its strongest far path, takes its own batch of
    # two. 16 x 1024 complex rows fill 256 KiB, where numpy starts to
    # multiply temporaries in place, in the other operand order
    cfg = ScenarioConfig(num_antennas=num_antennas, num_subcarriers=16, num_near_paths=3,
                         num_far_paths=2, seed=5)
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    users = [sample_scenario(cfg, trial) for trial in range(num_users)]
    slots = path_slots(users)
    far_only = [[make_path(theta=0.2, gain=0.3j, model=FieldModel.FAR),
                 make_path(theta=-0.5, gain=0.6, model=FieldModel.FAR)],
                [make_path(theta=0.7, gain=0.2, model=FieldModel.FAR),
                 make_path(theta=-0.1, gain=0.1j, model=FieldModel.FAR)]]
    for group, beams in ((users, narrowband_beams(geom, slots)),
                         (far_only, narrowband_beams(geom, path_slots(far_only)))):
        for beam, user in zip(beams, group, strict=True):
            assert np.array_equal(beam, narrowband_mrt(geom, user))
    plans = [plan_antenna_slices(geom, grid, user, thr) for user in users]
    blocks = plan_antenna_rows(geom, slots, boundary_table(geom, grid, thr, slots))
    for row, user, plan in zip(slice_analog_rows(geom, slots, blocks), users, plans):
        assert np.array_equal(row, slice_analog_rows(geom, path_slots([user]), plan)[0])
    centers = 7e9 + np.linspace(-250e6, 250e6, len(users))
    rows = subband_analog_rows(geom, slots, centers)
    assert rows.shape == (len(users), num_antennas)
    for row, user, center in zip(rows, users, centers):
        assert np.array_equal(row, subband_analog_rows(geom, path_slots([user]), [center])[0])
    with pytest.raises(ValueError, match="field models"):
        subband_analog_rows(geom, path_slots([users[0], users[1][1:]]), centers[:2])


def test_narrowband_beams_pick_the_python_abs_strongest_path_and_ties_keep_path_order():
    # the beams pick numpy's argmax of |g|; numpy's |z| differs from Python's
    # abs(z) in the last bit for most sampled users, but the pick must be
    # max(near or paths, key=abs(gain)), which keeps the first of tied paths.
    # The pick does not depend on N, so 16 elements keep the beams small
    cfg = ScenarioConfig(num_antennas=256, num_subcarriers=64)
    geom = ArrayGeometry(16, cfg.center_freq_hz)
    users = [paths for trial in range(300) for paths in sample_user_paths(cfg, trial, 65)]
    users += [[make_path(gain=complex(g)) for g in gains]
              for gains in ((1, 1j, -1, 0.5), (0.5, 1j, -1, 1), (2, 2, 2, 2))]
    mixed = [sample_scenario(cfg, trial) for trial in range(300)]
    mixed.append([make_path(gain=0.5), make_path(gain=-0.5j), make_path(gain=0.1),
                  make_path(gain=-0.5), make_path(gain=2.0, model=FieldModel.FAR)])
    far = [[make_path(theta=t, gain=g, model=FieldModel.FAR) for t, g in gains]
           for gains in (((0.2, 0.5j), (-0.4, -0.5), (0.6, 0.1)),
                         ((0.2, 0.1), (-0.4, 0.2j), (0.6, -0.3)))]
    for group in (users, mixed, far):
        best = []
        for paths in group:
            near = [p for p in paths if p.field_model is not FieldModel.FAR]
            best.append(max(near or paths, key=lambda p: abs(p.gain)))
        model = FieldModel.FAR if group is far else FieldModel.NARROWBAND_NEAR
        want = phasor(path_phases(geom, PathBatch.stack(best, model)[:, None])) / 4.0
        assert np.array_equal(narrowband_beams(geom, path_slots(group)), want)
    assert [p.gain for p in best] == [0.5j, -0.3]
    assert np.any(np.abs(path_slots(users)[0].gain) != [abs(p[0].gain) for p in users])


def test_slice_analog_rows_equal_complex_exponential_form_bit_for_bit():
    # 16 x 1024 rows fill numpy's 256 KiB in-place threshold, so the far
    # terms are multiplied in place and the near term must not be
    cfg = ScenarioConfig(num_antennas=1024, num_subcarriers=16, num_near_paths=3,
                         num_far_paths=2, seed=5)
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    users = [sample_scenario(cfg, trial) for trial in range(16)]
    plans = [plan_antenna_slices(geom, grid, user, thr) for user in users]
    far = [[p for p in paths if p.field_model is FieldModel.FAR] for paths in users]
    far_terms = [(batch.gain[:, None], path_phases(geom, batch[:, None]))
                 for batch in path_slots(far)]
    served, centers = [], []
    for paths, plan in zip(users, plans):
        for t, size in enumerate(plan.sizes):
            served += [paths[plan.paths[t]]] * size
            centers += [plan.offsets[t]] * size
    rows = np.arange(16 * 1024).reshape(16, 1024)
    near = PathBatch.stack(served, FieldModel.NARROWBAND_NEAR)[rows]
    near_phases = path_phases(geom, near, reference=np.asarray(centers)[rows])
    want = oracles.exp_slice_rows(far_terms, near.gain, near_phases)
    slots = path_slots(users)
    got = slice_analog_rows(geom, slots,
                            plan_antenna_rows(geom, slots, boundary_table(geom, grid, thr, slots)))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# array gain metrics
# ---------------------------------------------------------------------------


def test_normalized_gain_is_one_at_center_and_for_single_antenna():
    geom = ArrayGeometry(256, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 17)
    gains = normalized_array_gain(geom, grid, make_path())
    assert gains[8] == pytest.approx(1.0, abs=1e-12)
    assert np.all(gains <= 1.0 + 1e-12) and np.all(gains >= 0.0)
    solo = normalized_array_gain(ArrayGeometry(1, 7e9), grid, make_path())
    np.testing.assert_allclose(solo, 1.0, atol=1e-14)


def test_normalized_gain_edge_subcarrier_matches_direct_sum():
    geom = ArrayGeometry(512, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 1024)
    path = make_path(theta=0.1, d=20.0)
    got = normalized_array_gain(geom, grid, path)[1023]
    dists = oracles.element_distances(512, 0.1, 20.0, geom.spacing_m)
    delta = (1023 - 1023 / 2.0) * grid.subcarrier_spacing_hz
    k = 2.0 * math.pi / 299792458.0
    want = abs(np.exp(1j * k * delta * dists).sum()) / 512
    assert got == pytest.approx(want, rel=1e-12)
    assert got < 1.0


# ---------------------------------------------------------------------------
# spectral efficiency
# ---------------------------------------------------------------------------


def test_se_vanishes_with_power():
    geom = ArrayGeometry(64, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 16)
    ch = synth_channel(geom, grid, [make_path()])
    pre = static_precoder_set(narrowband_mrt(geom, [make_path()]), 16, Scheme.NARROWBAND_BASELINE)
    assert spectral_efficiency(ch, pre, 1e-15, 1.0) < 1e-10
    with pytest.raises(ValueError):
        spectral_efficiency(ch, pre, 0.0, 1.0)
    with pytest.raises(ValueError):
        spectral_efficiency(ch, pre, 1.0, -1.0)


def test_flat_channel_mrt_hits_the_closed_form():
    geom = ArrayGeometry(1024, 7e9)
    grid = CarrierGrid.from_bandwidth(600e6, 64)
    path = make_path(gain=0.5 + 0.5j, model=FieldModel.NARROWBAND_NEAR)
    ch = synth_channel(geom, grid, [path])
    power = 10 ** (10.0 / 10) * 1.0 / abs(path.gain) ** 2
    pre = static_precoder_set(narrowband_mrt(geom, [path]), 64, Scheme.NARROWBAND_BASELINE)
    got = spectral_efficiency(ch, pre, power, 1.0)
    assert got == pytest.approx(math.log2(1.0 + 10.0 * 1024.0), rel=1e-12)
    # single-path fully digital bound log2(1 + P N |g|^2 / sigma^2)
    assert got == pytest.approx(math.log2(1.0 + power * 1024 * abs(path.gain) ** 2), rel=1e-12)


def test_mrt_collapses_below_the_boundary_and_degrades_above():
    geom = ArrayGeometry(512, 7e9)
    path = make_path()
    b_bar = float(boundary_table(geom, CarrierGrid.from_bandwidth(300e6, 64), THR,
                                 path_slots([[path]])).freq[0, 0])
    pre = None
    ratios = {}
    for mult in (0.5, 4.0):
        grid = CarrierGrid.from_bandwidth(mult * b_bar, 64)
        ch = synth_channel(geom, grid, [path])
        pre = static_precoder_set(narrowband_mrt(geom, [path]), 64, Scheme.NARROWBAND_BASELINE)
        ratios[mult] = spectral_efficiency(ch, pre, 10.0, 1.0) / se_optimal(ch, 10.0, 1.0)
    assert ratios[0.5] >= 0.99
    assert ratios[4.0] < 0.99


def test_per_subcarrier_rates_shape_and_mismatch():
    geom = ArrayGeometry(16, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 8)
    ch = synth_channel(geom, grid, [make_path()])
    pre = static_precoder_set(narrowband_mrt(geom, [make_path()]), 8, Scheme.NARROWBAND_BASELINE)
    rates = per_subcarrier_rates(ch, pre, 10.0, 1.0)
    assert rates.shape == (8,)
    assert np.all(rates >= 0.0)
    short = static_precoder_set(narrowband_mrt(geom, [make_path()]), 7, Scheme.NARROWBAND_BASELINE)
    with pytest.raises(ValueError):
        per_subcarrier_rates(ch, short, 10.0, 1.0)


def test_precoder_set_validates_chaining():
    with pytest.raises(ValueError):
        PrecoderSet(Scheme.ANTENNA_SLICING, np.ones((3, 4)), analog=np.ones((8, 2)))


@pytest.mark.parametrize("seed", range(3))
def test_hybrid_se_never_beats_the_matched_filter(seed):
    cfg = ScenarioConfig(num_antennas=256, num_subcarriers=32, seed=900 + seed)
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    path = sample_scenario(cfg, 0)[0]
    ch = synth_channel(geom, grid, [path])
    plan = plan_antenna_slices(geom, grid, [path], thr)
    hybrid = slice_precoder_set(ch, plan)
    assert spectral_efficiency(ch, hybrid, 10.0, 1.0) <= se_optimal(ch, 10.0, 1.0) + 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_constructed_sets_satisfy_the_power_constraint(seed):
    cfg = ScenarioConfig(num_antennas=128, num_subcarriers=16, seed=300 + seed)
    geom, grid, thr = cfg.geometry(), cfg.grid(), cfg.thresholds()
    paths = sample_scenario(cfg, 0)
    ch = synth_channel(geom, grid, paths)
    hybrid = slice_precoder_set(ch, plan_antenna_slices(geom, grid, paths, thr))
    assert np.abs(np.linalg.norm(hybrid.combined(), axis=0) - 1.0).max() < 1e-12
    assert np.abs(np.abs(hybrid.analog[hybrid.analog != 0]) - 1.0).max() < 1e-12
    sb = UserSubband(0, 16, 0, grid.subcarrier_spacing_hz, 7e9)
    near = [p for p in paths if p.field_model is not FieldModel.FAR]
    sub = subband_precoder_set(geom, near, sb, 8, ch.entries)
    assert np.abs(np.linalg.norm(sub.combined(), axis=0) - 1.0).max() < 1e-12


def test_se_strictly_increases_with_power():
    geom = ArrayGeometry(64, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 16)
    ch = synth_channel(geom, grid, [make_path()])
    pre = static_precoder_set(narrowband_mrt(geom, [make_path()]), 16, Scheme.NARROWBAND_BASELINE)
    values = [spectral_efficiency(ch, pre, p, 1.0) for p in (0.1, 1.0, 10.0, 100.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_collapses_to_the_single_path_bound():
    got = se_slicing_closed_form(10.0, 1.0, [0.8 + 0.6j], [256])
    single_path = math.log2(1.0 + 10.0 * 256 * abs(0.8 + 0.6j) ** 2 / 1.0)
    assert got == pytest.approx(single_path, rel=1e-12)
    assert got == pytest.approx(math.log2(1.0 + 10.0 * 256.0), rel=1e-12)


def test_equal_size_closed_form_is_the_literal_formula():
    # equal sizes N / T reduce the general form to log2(1 + P N sum_t |g_t|^2 / (T sigma^2))
    gains = [1.0, 0.5 + 0.5j, 0.3j]
    g2 = sum(abs(g) ** 2 for g in gains)
    general = se_slicing_closed_form(10.0, 2.0, gains, [170, 170, 170])
    assert general == pytest.approx(math.log2(1.0 + 10.0 * 510.0 * g2 / (3 * 2.0)), rel=1e-12)


def test_subband_closed_form_special_case_is_the_optimum():
    # single path, flat |h_n| = |g|: the sub-band form telescopes to P N |g|^2
    g, n, t = 0.9, 64, 4
    block_sums = [(n // t) * g] * t
    got = se_subband_closed_form(10.0, 1.0, block_sums, n // t)
    assert got == pytest.approx(math.log2(1.0 + 10.0 * n * g * g), rel=1e-12)


# ---------------------------------------------------------------------------
# engineered closed-form agreement scenarios
# ---------------------------------------------------------------------------


def test_orthogonal_paths_reproduce_the_slicing_closed_form():
    # quasi-planar paths (d = 1e8) whose sine angles differ by multiples of
    # 2/32 are exactly orthogonal over 32-element blocks, matching the
    # orthogonality assumption behind the slicing SINR formula
    geom = ArrayGeometry(128, 7e9)
    grid = CarrierGrid.from_bandwidth(1e6, 16)
    thetas = [-0.3 + i / 16 for i in range(4)]
    amps = [1.0, 0.9, 0.8, 0.7]
    paths = [
        PathParams(a * np.exp(0.31j * i), th, 1e8, 0.0, FieldModel.NARROWBAND_NEAR)
        for i, (a, th) in enumerate(zip(amps, thetas))
    ]
    plan = equal_plan(128, 4, 4)
    assert plan.offsets.tolist() == [-48.0, -16.0, 16.0, 48.0]
    ch = synth_channel(geom, grid, paths)
    measured = spectral_efficiency(ch, slice_precoder_set(ch, plan), 10.0, 1.0)
    closed = se_slicing_closed_form(10.0, 1.0, [p.gain for p in paths], [32] * 4)
    assert measured == pytest.approx(closed, rel=0.02)
    assert measured == pytest.approx(closed, rel=1e-6)  # orthogonality is exact here


def test_single_subcarrier_subband_matches_its_closed_form_exactly():
    # with one subcarrier the analog beam is the elementwise channel phase, so
    # the SINR expression holds with equality rather than as an approximation
    geom = ArrayGeometry(32, 7e9)
    grid = CarrierGrid.from_bandwidth(20e6, 8)
    user = [
        make_path(theta=0.25, d=30.0, r=12.0),
        make_path(theta=-0.4, d=55.0, r=5.0, gain=0.6 * np.exp(0.9j)),
    ]
    ch = synth_channel(geom, grid, user)
    m = 5
    f_sub = 7e9 + float(grid.subcarrier_offsets()[m]) * grid.subcarrier_spacing_hz
    sb = UserSubband(0, 1, m, grid.subcarrier_spacing_hz, f_sub)
    block = ch.entries[:, [m]]
    pre = subband_precoder_set(geom, user, sb, 4, block)
    measured = spectral_efficiency(block, pre, 10.0, 1.0)
    col = ch.entries[:, m]
    sums = [np.abs(col[t * 8 : (t + 1) * 8]).sum() for t in range(4)]
    closed = se_subband_closed_form(10.0, 1.0, sums, 8)
    assert measured == pytest.approx(closed, rel=1e-12)


def test_small_subband_stays_within_two_percent_of_closed_form():
    geom = ArrayGeometry(32, 7e9)
    grid = CarrierGrid.from_bandwidth(10e6, 20)
    user = [
        make_path(theta=0.25, d=30.0, r=12.0),
        make_path(theta=-0.4, d=55.0, r=5.0, gain=0.6 * np.exp(0.9j)),
    ]
    ch = synth_channel(geom, grid, user)
    start, count = 5, 5
    freqs = 7e9 + grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    center = float(freqs[start : start + count].mean())
    sb = UserSubband(0, count, start, grid.subcarrier_spacing_hz, center)
    block = ch.entries[:, start : start + count]
    pre = subband_precoder_set(geom, user, sb, 4, block)
    measured = spectral_efficiency(block, pre, 10.0, 1.0)
    mid = ch.entries[:, start + count // 2]
    sums = [np.abs(mid[t * 8 : (t + 1) * 8]).sum() for t in range(4)]
    closed = se_subband_closed_form(10.0, 1.0, sums, 8)
    assert measured == pytest.approx(closed, rel=0.02)
