"""Brute-force reference computations that pin expected values in the tests.

Everything here is deliberately dumb: scatterer/antenna placement in explicit
2-D coordinates instead of the closed-form distance, full-grid scans instead of
factored maxima, and per-entry cmath sums instead of vectorized phase algebra.
Test modules freeze values produced by these routines; the package has to
reproduce them through its own, faster math.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

WAVE_SPEED = 299792458.0


def default_spacing(center_freq_hz: float) -> float:
    """Half-wavelength element spacing at the carrier."""
    return WAVE_SPEED / center_freq_hz / 2.0


def element_offsets(num_antennas: int) -> list[float]:
    """Signed element offsets from the array center, in units of spacing."""
    return [n - (num_antennas - 1) / 2.0 for n in range(num_antennas)]


def subcarrier_offsets(num_subcarriers: int) -> list[float]:
    """Signed subcarrier offsets from the carrier, in units of spacing."""
    return [m - (num_subcarriers - 1) / 2.0 for m in range(num_subcarriers)]


def scatterer_position(sine_angle: float, distance_m: float) -> tuple[float, float]:
    """Scatterer coordinates; the array lies on the y axis, boresight along x."""
    cosine = math.sqrt(1.0 - sine_angle * sine_angle)
    return distance_m * cosine, distance_m * sine_angle


def element_distance(
    num_antennas: int,
    n: int,
    sine_angle: float,
    distance_m: float,
    spacing_m: float,
) -> float:
    """Scatterer-to-element distance by placing both in 2-D coordinates."""
    sx, sy = scatterer_position(sine_angle, distance_m)
    ey = element_offsets(num_antennas)[n] * spacing_m
    return math.hypot(sx, sy - ey)


def element_distances(
    num_antennas: int, sine_angle: float, distance_m: float, spacing_m: float
) -> np.ndarray:
    """Vector of scatterer-to-element distances (coordinate placement)."""
    sx, sy = scatterer_position(sine_angle, distance_m)
    ey = np.array(element_offsets(num_antennas)) * spacing_m
    return np.hypot(sx, sy - ey)


def max_range_spread(
    num_antennas: int, sine_angle: float, distance_m: float, spacing_m: float
) -> float:
    """max_n |d_n - d| over the array, scanned element by element."""
    dists = element_distances(num_antennas, sine_angle, distance_m, spacing_m)
    return float(np.max(np.abs(dists - distance_m)))


def squint_phase_grid_max(
    num_antennas: int,
    num_subcarriers: int,
    sine_angle: float,
    distance_m: float,
    bandwidth_hz: float,
    center_freq_hz: float,
    spacing_m: float | None = None,
) -> float:
    """Max |squint phase| over the full antenna x subcarrier grid.

    Phase of entry (n, m) is (2pi/c) * delta_m * df * (d_n - d); every grid
    point is evaluated, nothing is factored out.
    """
    if spacing_m is None:
        spacing_m = default_spacing(center_freq_hz)
    spread = element_distances(num_antennas, sine_angle, distance_m, spacing_m) - distance_m
    offs = np.array(subcarrier_offsets(num_subcarriers))
    df = bandwidth_hz / num_subcarriers
    phases = (2.0 * math.pi / WAVE_SPEED) * df * np.outer(spread, offs)
    return float(np.max(np.abs(phases)))


def largest_admissible_antennas(
    sine_angle: float,
    distance_m: float,
    bandwidth_hz: float,
    center_freq_hz: float,
    num_subcarriers: int,
    phase_cap_rad: float,
    spacing_m: float | None = None,
    hard_limit: int = 1 << 17,
) -> int:
    """Largest N whose grid max squint phase stays below the cap.

    Doubling then bisection; valid because widening the aperture can only grow
    the per-element range spread, so the grid max is nondecreasing in N.
    """

    def ok(num: int) -> bool:
        return (
            squint_phase_grid_max(
                num, num_subcarriers, sine_angle, distance_m,
                bandwidth_hz, center_freq_hz, spacing_m,
            )
            < phase_cap_rad
        )

    low, high = 1, 2
    while ok(high):
        low, high = high, high * 2
        if high > hard_limit:
            raise RuntimeError("no violation below hard limit; cap too generous")
    while high - low > 1:
        mid = (low + high) // 2
        if ok(mid):
            low = mid
        else:
            high = mid
    return low


def smallest_near_antennas(
    sine_angle: float,
    distance_m: float,
    center_freq_hz: float,
    kappa_a: float,
    spacing_m: float | None = None,
    hard_limit: int = 1 << 17,
) -> int:
    """Smallest N whose max carrier phase spread reaches kappa_a * pi.

    Scans N upward evaluating (2pi/c) * f_c * max_n |d_n - d| from coordinates.
    """
    if spacing_m is None:
        spacing_m = default_spacing(center_freq_hz)
    cap = kappa_a * math.pi
    for num in range(1, hard_limit):
        phase = (
            (2.0 * math.pi / WAVE_SPEED)
            * center_freq_hz
            * max_range_spread(num, sine_angle, distance_m, spacing_m)
        )
        if phase >= cap:
            return num
    raise RuntimeError("threshold never reached below hard limit")


def channel_entry(
    gain: complex,
    sine_angle: float,
    distance_m: float,
    range_m: float,
    n: int,
    m: int,
    num_antennas: int,
    num_subcarriers: int,
    bandwidth_hz: float,
    center_freq_hz: float,
    field: str = "wn",
    spacing_m: float | None = None,
) -> complex:
    """Single channel entry for one path, assembled term by term with cmath."""
    if spacing_m is None:
        spacing_m = default_spacing(center_freq_hz)
    k = 2.0 * math.pi / WAVE_SPEED
    df = bandwidth_hz / num_subcarriers
    delta_m = subcarrier_offsets(num_subcarriers)[m]
    delta_n = element_offsets(num_antennas)[n]
    if field == "far":
        phase = k * center_freq_hz * delta_n * spacing_m * sine_angle
        phase += k * delta_m * df * (range_m + distance_m)
        return gain * cmath.exp(1j * phase)
    d_n = element_distance(num_antennas, n, sine_angle, distance_m, spacing_m)
    phase = k * center_freq_hz * (d_n - distance_m)
    if field == "wn":
        phase += k * delta_m * df * (range_m + d_n)
    elif field == "nn":
        phase += k * delta_m * df * (range_m + distance_m)
    else:
        raise ValueError(f"unknown field {field!r}")
    return gain * cmath.exp(1j * phase)


def block_element_offsets(
    block_center_offset: float, block_size: int
) -> list[float]:
    """Global element offsets of a contiguous block given its center offset."""
    return [
        block_center_offset + nu - (block_size - 1) / 2.0 for nu in range(block_size)
    ]


def block_center_distance(
    sine_angle: float,
    distance_m: float,
    block_center_offset: float,
    spacing_m: float,
) -> float:
    """Scatterer distance to the block center, again via 2-D coordinates."""
    sx, sy = scatterer_position(sine_angle, distance_m)
    return math.hypot(sx, sy - block_center_offset * spacing_m)


def slice_beam_entry(
    near_gain: complex,
    near_sine: float,
    near_distance_m: float,
    far_terms: list[tuple[complex, float]],
    block_center_offset: float,
    block_size: int,
    nu: int,
    center_freq_hz: float,
    spacing_m: float | None = None,
) -> complex:
    """One analog entry of a subarray beam: far planar terms plus the near term.

    Far steerings use the element's global offset (so the block carries its
    position phase); the near spherical term is referenced to the block center.
    Returns the unit-modulus entry exp(j angle(sum)).
    """
    if spacing_m is None:
        spacing_m = default_spacing(center_freq_hz)
    k = 2.0 * math.pi / WAVE_SPEED
    offo = block_element_offsets(block_center_offset, block_size)[nu]
    acc = 0j
    for gain_f, sine_f in far_terms:
        acc += gain_f * cmath.exp(1j * k * center_freq_hz * offo * spacing_m * sine_f)
    sx, sy = scatterer_position(near_sine, near_distance_m)
    d_nu = math.hypot(sx, sy - offo * spacing_m)
    d_ref = block_center_distance(near_sine, near_distance_m, block_center_offset, spacing_m)
    acc += near_gain * cmath.exp(1j * k * center_freq_hz * (d_nu - d_ref))
    return acc / abs(acc)


def subband_beam_entry(
    near_paths: list[tuple[complex, float, float, float]],
    subband_center_hz: float,
    block_center_offset: float,
    block_size: int,
    nu: int,
    center_freq_hz: float,
    spacing_m: float | None = None,
) -> complex:
    """One analog entry of a sub-band beam: the user's near-path channel at the
    sub-band center frequency, per element, normalized to unit modulus.

    ``near_paths`` holds (gain, sine_angle, distance_m, range_m) tuples.
    """
    if spacing_m is None:
        spacing_m = default_spacing(center_freq_hz)
    k = 2.0 * math.pi / WAVE_SPEED
    offo = block_element_offsets(block_center_offset, block_size)[nu]
    detune = subband_center_hz - center_freq_hz
    acc = 0j
    for gain, sine, dist, rng in near_paths:
        sx, sy = scatterer_position(sine, dist)
        d_nu = math.hypot(sx, sy - offo * spacing_m)
        phase = k * center_freq_hz * (d_nu - dist) + k * detune * (rng + d_nu)
        acc += gain * cmath.exp(1j * phase)
    return acc / abs(acc)


def user_phase_spread(
    paths: list[tuple[float, float]],
    num_sub_subcarriers: int,
    subcarrier_spacing_hz: float,
) -> float:
    """Max |delay dephasing| over a user's sub-band, scanned per (path, m).

    ``paths`` holds (distance_m, range_m) pairs; the reference delay is the
    mean of r+d over the paths, and the subcarrier offset is local to the
    sub-band (its own center), matching the sub-band gain formula.
    """
    totals = [d + r for d, r in paths]
    ref = sum(totals) / len(totals)
    worst = 0.0
    for total in totals:
        for m in range(num_sub_subcarriers):
            local = m - (num_sub_subcarriers - 1) / 2.0
            phase = (
                (2.0 * math.pi / WAVE_SPEED)
                * local
                * subcarrier_spacing_hz
                * (total - ref)
            )
            worst = max(worst, abs(phase))
    return worst


def per_user_mean_se(amps, subbands, schemes, power, noise_power):
    """Multiuser SE per scheme, one user at a time.

    Each user's rates log2(1 + P a^2 / sigma^2) on its own sub-band are
    averaged with ``np.mean``, then the per-user SEs are averaged over the
    users: the loop the batched reduction replaced, kept as its reference.
    """
    per_user = []
    for sb in subbands:
        at = slice(sb.start, sb.start + sb.num_subcarriers)
        per_user.append(np.array([
            np.mean(np.log2(1.0 + power * amps[scheme][at] ** 2 / noise_power))
            for scheme in schemes
        ]))
    return np.mean(per_user, axis=0)


def chunked_fs_amps(config, trial: int, chunk: int = 16) -> dict:
    """Every scheme's amplitudes of one multiuser draw, ``chunk`` users at a time.

    Each user is planned alone (``plan_antenna_slices`` on its own one-row
    boundary table), and each chunk of users takes its own channel,
    analog-row and product calls on its own subcarriers: the loop the
    one-batch trial replaced, kept as its reference. A chunk's channel
    columns are the direct per-column terms gain * exp(j phase), summed in
    path order, one subcarrier per row.
    """
    from squintlab import (Scheme, SliceBlocks, narrowband_beams, owner_gain_amplitudes,
                           path_phases, plan_antenna_slices, slice_analog_rows,
                           subband_analog_rows)
    from squintlab.experiments import _allocate_adaptive
    from squintlab.wavefield import path_slots

    geom, grid, thr = config.geometry(), config.grid(), config.thresholds()
    freq_dev = grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    users, plan = _allocate_adaptive(config, trial)
    amps = {s.value: np.empty(config.num_subcarriers) for s in Scheme}
    for lo in range(0, len(plan.subbands), chunk):
        subbands = plan.subbands[lo:lo + chunk]
        paths = [users[sb.user] for sb in subbands]
        plans = [plan_antenna_slices(geom, grid, p, thr) for p in paths]
        blocks = SliceBlocks(*(np.concatenate([getattr(p.blocks, name) for p in plans])
                               for name in ("sizes", "paths", "offsets")))
        owners = np.repeat(np.arange(len(subbands)), [sb.num_subcarriers for sb in subbands])
        at = [m for sb in subbands for m in sb.global_indices()]
        cols = np.zeros((len(at), geom.num_antennas), dtype=np.complex128)
        slots = path_slots(paths)
        for slot in slots:
            batch = slot[owners][:, None]
            cols += exp_path_term(batch.gain, path_phases(geom, batch, freq_dev[at][:, None]))
        fs_rows = subband_analog_rows(geom, slots, [sb.center_hz for sb in subbands])
        fs_sizes = [plan.subarray_size] * (len(subbands) * config.num_subarrays)
        beams = narrowband_beams(geom, slots)
        amps[Scheme.SUBBAND_SLICING.value][at] = owner_gain_amplitudes(
            fs_rows, fs_sizes, owners, cols)
        amps[Scheme.ANTENNA_SLICING.value][at] = owner_gain_amplitudes(
            slice_analog_rows(geom, slots, blocks), blocks.sizes, owners, cols)
        amps[Scheme.NARROWBAND_BASELINE.value][at] = np.abs(
            np.sum(beams.conj()[owners] * cols, axis=1))
        amps[Scheme.OPTIMAL.value][at] = np.linalg.norm(cols, axis=1)
    return amps


# The amplitude expressions of the antenna-major channel (N x C, one column per
# subcarrier) that the subcarrier-major build replaced, kept as the reference of
# its declared rounding change. Each takes the package's C x N channel and
# copies it to the old layout first; the owner products then read it
# transposed, as they did.


def antenna_major_link_amps(geom, slots, table, cols: np.ndarray) -> dict:
    """Every scheme's amplitudes of T link draws, given as their path slots, from
    their antenna-major channel.

    The baseline is one ``beam.conj() @ entries`` product per draw and the
    optimum the channel's column norms.
    """
    from squintlab import (narrowband_beams, owner_gain_amplitudes, plan_antenna_rows,
                           slice_analog_rows)

    old = np.ascontiguousarray(cols.T)
    count = len(table.near)
    owners = np.repeat(np.arange(count), old.shape[1] // count)
    blocks = plan_antenna_rows(geom, slots, table)
    beams = narrowband_beams(geom, slots)
    per_draw = old.reshape(old.shape[0], count, -1).transpose(1, 0, 2)
    return {
        "antenna-slicing": owner_gain_amplitudes(slice_analog_rows(geom, slots, blocks),
                                                 blocks.sizes, owners, old.T),
        "narrowband-mrt": np.abs(np.matmul(beams.conj()[:, None, :], per_draw)).ravel(),
        "optimal": np.linalg.norm(old, axis=0),
    }


def antenna_major_fs_amps(config, trial: int) -> dict:
    """Every scheme's amplitudes of one multiuser draw from its antenna-major channel.

    The baseline sums ``beams.conj()[owners] * entries.T`` over the antennas
    and the optimum is the channel's column norms.
    """
    from squintlab import (narrowband_beams, owner_gain_amplitudes, plan_antenna_rows,
                           slice_analog_rows, subband_analog_rows)
    from squintlab.experiments import _allocate_adaptive
    from squintlab.wavefield import channel_columns, path_slots

    geom, grid = config.geometry(), config.grid()
    users, plan = _allocate_adaptive(config, trial)
    slots = path_slots(users)
    owners = np.repeat(np.arange(len(users)), plan.user_subcarriers)
    old = np.ascontiguousarray(channel_columns(geom, grid, [slot[owners] for slot in slots]).T)
    fs_rows = subband_analog_rows(geom, slots, [sb.center_hz for sb in plan.subbands])
    fs_sizes = np.full(len(users) * config.num_subarrays, plan.subarray_size)
    blocks = plan_antenna_rows(geom, slots, plan.boundaries)
    beams = narrowband_beams(geom, slots)
    return {
        "subband-slicing": owner_gain_amplitudes(fs_rows, fs_sizes, owners, old.T),
        "antenna-slicing": owner_gain_amplitudes(slice_analog_rows(geom, slots, blocks),
                                                 blocks.sizes, owners, old.T),
        "narrowband-mrt": np.abs(np.sum(beams.conj()[owners] * old.T, axis=1)),
        "optimal": np.linalg.norm(old, axis=0),
    }


def digital_mrt(channel_column: np.ndarray, analog: np.ndarray) -> np.ndarray:
    """Per-subcarrier digital MRT f_D = F^H h / ||F F^H h||, one column at a time.

    The cascade F f_D is unit-norm. The package forms every column at once
    with the block-size form of the denominator; this N-row product is its
    reference. A column orthogonal to every analog beam has no digital MRT.
    """
    projected = analog.conj().T @ np.asarray(channel_column)
    denom = float(np.linalg.norm(analog @ projected))
    if denom == 0.0:
        raise ValueError("channel column orthogonal to analog beams")
    return projected / denom


# The complex-exponential forms the package used before ``wavefield.phasor``.
# They keep each product's operand order: numpy multiplies a temporary of
# 256 KiB or more in place (temporary * gain), which rounds unlike
# gain * temporary. The analog rows, the batch columns of ``channel_columns``
# and its single-path terms in blocks of one column must match them in every
# bit, not just to the 12 digits of a CSV; blocked single-path terms are held
# to the accuracy of ``exp_path_term`` against ``path_term_longdouble``.


def exp_path_term(gain, phases: np.ndarray) -> np.ndarray:
    """One path's channel term gain * exp(j phases), in this operand order."""
    return gain * np.exp(1j * phases)


def exp_slice_rows(
    far_terms: list[tuple[np.ndarray, np.ndarray]],
    near_gain: np.ndarray,
    near_phases: np.ndarray,
) -> np.ndarray:
    """Antenna-slicing analog rows exp(j angle(acc)) from their phase tables.

    ``far_terms`` holds one (K x 1 gains, K x N phases) pair per far-path slot;
    the near term multiplies without numpy's in-place rewrite (np.multiply).
    """
    acc = np.zeros(near_phases.shape, dtype=np.complex128)
    for gain, phases in far_terms:
        acc += gain * np.exp(1j * phases)
    acc += np.multiply(near_gain, np.exp(1j * near_phases))
    return np.exp(1j * np.angle(acc))


def path_term_longdouble(
    gain: complex,
    sine_angle: float,
    distance_m: float,
    range_m: float,
    field: str,
    num_antennas: int,
    num_subcarriers: int,
    subcarrier_spacing_hz: float,
    indices,
    center_freq_hz: float,
    spacing_m: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One path's channel term on the requested subcarriers, in long double.

    The same phase as :func:`channel_entry`, for every element and requested
    subcarrier at once, from the same float64 inputs: each step, pi and the
    scatterer's 2-D placement included, runs in ``np.longdouble`` (64-bit
    mantissa on x86-64). Returns the real and imaginary parts.
    """
    if spacing_m is None:
        spacing_m = default_spacing(center_freq_hz)
    ld = np.longdouble
    k = 8 * np.arctan(ld(1)) / ld(WAVE_SPEED)
    d, theta = ld(distance_m), ld(sine_angle)
    # scatterer at (d cos, d sin); 1 - sin^2 factored to keep it exact near |sin| = 1
    sx, sy = d * np.sqrt((1 - theta) * (1 + theta)), d * theta
    ey = (np.arange(num_antennas, dtype=ld) - ld(num_antennas - 1) / 2) * ld(spacing_m)
    d_n = np.hypot(sx, sy - ey)
    freq_dev = ((np.asarray(indices, dtype=ld) - ld(num_subcarriers - 1) / 2)
                * ld(subcarrier_spacing_hz))
    if field == "far":
        carrier, ramp = k * ld(center_freq_hz) * ey * theta, ld(range_m) + d
    elif field in ("wn", "nn"):
        carrier = k * ld(center_freq_hz) * (d_n - d)
        ramp = ld(range_m) + (d_n if field == "wn" else d)
    else:
        raise ValueError(f"unknown field {field!r}")
    phase = carrier[:, None] + k * np.multiply.outer(np.broadcast_to(ramp, d_n.shape), freq_dev)
    cos, sin = np.cos(phase), np.sin(phase)
    return ld(gain.real) * cos - ld(gain.imag) * sin, ld(gain.real) * sin + ld(gain.imag) * cos


def phase_rounding_scale(
    sine_angle: float,
    distance_m: float,
    range_m: float,
    field: str,
    num_antennas: int,
    num_subcarriers: int,
    subcarrier_spacing_hz: float,
    indices,
    center_freq_hz: float,
    spacing_m: float | None = None,
) -> float:
    """Size, in radians, of what a float64 evaluation of a path's phases rounds.

    The largest |carrier| + |k ramp df| + 1 over the table, plus, for near
    paths, k f_c (and k |df| for wideband-near ones) times the conditioning
    (d^2 + 2 d |x theta| + x^2) / d_n of each element range d_n. A rounding
    error of the phase is at most a few machine epsilons times this; the last
    term is what a scatterer next to an element adds.
    """
    if spacing_m is None:
        spacing_m = default_spacing(center_freq_hz)
    k = 2.0 * math.pi / WAVE_SPEED
    x = np.array(element_offsets(num_antennas)) * spacing_m
    d_n = element_distances(num_antennas, sine_angle, distance_m, spacing_m)
    freq_dev = np.abs(np.array(subcarrier_offsets(num_subcarriers))[list(indices)]
                      * subcarrier_spacing_hz)
    if field == "far":
        carrier, ramp, cond = k * center_freq_hz * x * sine_angle, range_m + distance_m, 0.0 * x
    else:
        carrier = k * center_freq_hz * (d_n - distance_m)
        ramp = range_m + (d_n if field == "wn" else distance_m)
        cond = (distance_m ** 2 + 2.0 * distance_m * np.abs(x * sine_angle) + x * x) / d_n
    scale = (np.abs(carrier) + k * center_freq_hz * cond)[:, None] + 1.0
    scale = scale + k * np.multiply.outer(np.broadcast_to(ramp, x.shape), freq_dev)
    if field == "wn":
        scale = scale + k * np.multiply.outer(cond, freq_dev)
    return float(np.max(scale))


# ---------------------------------------------------------------------------
# one-path boundary formulas, in the scalar operation order of the package
# ---------------------------------------------------------------------------


def near_distance_variation(num_antennas: int, spacing_m: float, sine_angle: float,
                            distance_m: float) -> float:
    """max_n |d_n - d| in the cancellation-free closed form, with math floats."""
    if num_antennas == 1:
        return 0.0
    theta = abs(sine_angle)
    t2 = (num_antennas - 1) * distance_m * spacing_m * theta
    t3 = ((num_antennas - 1) * spacing_m / 2.0) ** 2
    return (t2 + t3) / (math.sqrt(distance_m * distance_m + t2 + t3) + distance_m)


def far_distance_variation(num_antennas: int, spacing_m: float, sine_angle: float) -> float:
    """(N - 1) s |theta| / 2, the planar limit of the range spread."""
    if num_antennas == 1:
        return 0.0
    return (num_antennas - 1) * spacing_m * abs(sine_angle) / 2.0


def freq_boundary_from_variation(kappa: float, wave_speed: float, variation: float) -> float:
    """kappa c / variation, inf when the range spread vanishes."""
    if variation == 0.0:
        return math.inf
    return kappa * wave_speed / variation


def _root_plus_one(a1: float, a2: float, rhs: float) -> float:
    return (-a2 + math.sqrt(a2 * a2 + 4.0 * a1 * rhs)) / (2.0 * a1) + 1.0


def near_antenna_boundary(bandwidth_hz: float, sine_angle: float, distance_m: float,
                          kappa: float, spacing_m: float, wave_speed: float) -> float:
    """N_bar: root of (s^2/4) x^2 + d s |theta| x = A3, plus one."""
    c, s, d, b = wave_speed, spacing_m, distance_m, bandwidth_hz
    a3 = (kappa * kappa * c * c + 2.0 * kappa * c * d * b) / (b * b)
    return _root_plus_one(s * s / 4.0, d * s * abs(sine_angle), a3)


def far_antenna_boundary(bandwidth_hz: float, sine_angle: float, kappa: float,
                         spacing_m: float, wave_speed: float) -> float:
    """2 kappa c / (B s |theta|) + 1, inf at broadside."""
    theta = abs(sine_angle)
    if theta == 0.0:
        return math.inf
    return 2.0 * kappa * wave_speed / (bandwidth_hz * spacing_m * theta) + 1.0


def near_field_threshold(sine_angle: float, distance_m: float, center_freq_hz: float,
                         kappa_a: float, spacing_m: float, wave_speed: float) -> float:
    """N_tilde: root of (s^2/4) x^2 + d s |theta| x = A5, plus one."""
    c, s, d, fc = wave_speed, spacing_m, distance_m, center_freq_hz
    a5 = (kappa_a * kappa_a * c * c + 4.0 * kappa_a * c * d * fc) / (4.0 * fc * fc)
    return _root_plus_one(s * s / 4.0, d * s * abs(sine_angle), a5)


def delay_spread_limit(total_ranges: list[float], kappa_f: float, wave_speed: float) -> float:
    """kappa_f c / max |t - mean t| over a user's near total ranges; inf at 0 or none."""
    if not total_ranges:
        return math.inf
    center = sum(total_ranges) / len(total_ranges)
    deviation = max(abs(t - center) for t in total_ranges)
    if deviation == 0.0:
        return math.inf
    return kappa_f * wave_speed / deviation


def subcarrier_cap(limits_hz: list[float], spacing_hz: float, total: int) -> int:
    """Largest sub-band size whose span (M_s - 1) df stays below every limit."""
    cap = total
    for limit in limits_hz:
        if limit != math.inf:
            cap = min(cap, max(1, min(total, math.floor(limit / spacing_hz - 1e-9) + 1)))
    return cap


# ---------------------------------------------------------------------------
# path draws with rng.uniform
# ---------------------------------------------------------------------------


def uniform_path_draws(rng: np.random.Generator, distance_min_m: float,
                       distance_max_m: float, gain_scale: float) -> tuple:
    """(gain, sine angle, d, r) of one path, every uniform drawn by rng.uniform."""
    re = rng.standard_normal()
    im = rng.standard_normal()
    gain = gain_scale * (re + 1j * im) / np.sqrt(2.0)
    theta = rng.uniform(-1.0, 1.0)
    while not -1.0 < theta < 1.0:
        theta = rng.uniform(-1.0, 1.0)
    d = rng.uniform(distance_min_m, distance_max_m)
    r = rng.uniform(distance_min_m, distance_max_m)
    return gain, theta, d, r
