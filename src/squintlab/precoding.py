"""Precoder construction and spectral-efficiency / array-gain metrics.

Hybrid precoders factor into a frequency-flat analog part (block-diagonal, unit
modulus per phase shifter) and a per-subcarrier digital part normalized so the
cascade has unit power. Spectral efficiency is the subcarrier-averaged
log2(1 + SNR) of the precoded link; the per-subcarrier matched filter gives the
fully digital upper bound every hybrid scheme is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .slicing import SliceBlocks, SlicingPlan, UserSubband
from .wavefield import (
    ArrayGeometry,
    CarrierGrid,
    ChannelTensor,
    ComplexMatrix,
    ComplexVector,
    FieldModel,
    PathBatch,
    PathParams,
    beam_squint_matrix,
    path_phases,
    path_slots,
    phasor,
    slab_rows,
)


class Scheme(Enum):
    """Which construction produced a precoder set (also the CSV curve label)."""

    NARROWBAND_BASELINE = "narrowband-mrt"
    OPTIMAL = "optimal"
    ANTENNA_SLICING = "antenna-slicing"
    SUBBAND_SLICING = "subband-slicing"


@dataclass(frozen=True, eq=False)
class PrecoderSet:
    """Analog/digital factorization of one scheme's precoders.

    ``digital`` is (T, M); ``analog`` is the (N, T) block-diagonal matrix, or
    ``None`` for fully digital schemes (then ``digital`` is (N, M) directly).
    """

    scheme: Scheme
    digital: ComplexMatrix
    analog: ComplexMatrix | None = None

    def __post_init__(self) -> None:
        if self.analog is not None and self.analog.shape[1] != self.digital.shape[0]:
            raise ValueError("analog/digital dimensions do not chain")

    def combined(self) -> ComplexMatrix:
        """Effective N x M per-subcarrier precoding vectors."""
        if self.analog is None:
            return self.digital
        return self.analog @ self.digital


# ---------------------------------------------------------------------------
# precoder constructions
# ---------------------------------------------------------------------------


def narrowband_beams(geom: ArrayGeometry, slots: Sequence[PathBatch]) -> ComplexMatrix:
    """K x N frequency-flat full-array MRT beams, row k matched to user k.

    Each beam is the narrowband baseline of its user: matched to the
    strongest near-field path, ignoring both beam squint and the weaker
    paths, or to the strongest far-field path if no near path exists. As the
    users' :func:`path_slots` share their field models, all beams take one
    :func:`path_phases` call.
    """
    near = [slot for slot in slots if slot.field_model is not FieldModel.FAR]
    paths = PathBatch.join(near or slots, FieldModel.NARROWBAND_NEAR if near else FieldModel.FAR)
    best = paths[np.arange(len(paths.gain)), np.argmax(np.abs(paths.gain), axis=1)]
    return phasor(path_phases(geom, best[:, None])) / np.sqrt(geom.num_antennas)


def narrowband_mrt(geom: ArrayGeometry, paths: Sequence[PathParams]) -> ComplexVector:
    """Narrowband baseline beam of one user (see :func:`narrowband_beams`)."""
    return narrowband_beams(geom, path_slots([paths]))[0]


def static_precoder_set(beam: ComplexVector, num_subcarriers: int, scheme: Scheme) -> PrecoderSet:
    """Frequency-flat beam wrapped as a fully digital per-subcarrier set."""
    digital = np.repeat(np.asarray(beam, dtype=np.complex128)[:, None], num_subcarriers, axis=1)
    return PrecoderSet(scheme, digital)


def block_diagonal(entries: ComplexVector, sizes: Sequence[int]) -> ComplexMatrix:
    """N x T analog matrix holding ``entries`` in contiguous column blocks of ``sizes``."""
    analog = np.zeros((len(entries), len(sizes)), dtype=np.complex128)
    analog[np.arange(len(entries)), np.repeat(np.arange(len(sizes)), sizes)] = entries
    return analog


def owner_gain_amplitudes(
    rows: ComplexMatrix,
    block_sizes: Sequence[int] | NDArray[np.int64],
    owners: NDArray[np.intp],
    columns: ComplexMatrix,
) -> NDArray[np.float64]:
    """|f_D^H F^H h| of each column under its owner's analog matrix and digital MRT.

    ``columns`` is C x N, one channel column h per row, as ``channel_columns``
    builds them. Column c belongs to user ``owners[c]``, whose analog matrix F
    holds row ``owners[c]`` of ``rows`` (K x N) in contiguous blocks.
    ``block_sizes`` lists every row's blocks, flat in row order; each row's
    sizes partition it. A single link is the case K = 1 with every owner 0.
    Uses |f_D^H F^H h| = ||F^H h||^2 / ||F F^H h|| and, for unit-modulus
    blocks, ||F F^H h||^2 = sum_t N_t |(F^H h)_t|^2. Then (F^H h)_t is the sum
    of conj(row) * h over block t, so all columns take one elementwise
    product and one segmented sum, formed one scratch slab of columns at a
    time (:func:`slab_rows`; each column's blocks lie in its slab), and the
    per-column sums over blocks are bincounts. Degenerate columns yield
    amplitude 0.
    """
    n = rows.shape[1]
    sizes = np.asarray(block_sizes)
    starts = np.cumsum(sizes) - sizes  # flat in the K x N rows
    counts = np.bincount(starts // n)  # blocks per row
    per_column = counts[owners]
    column = np.repeat(np.arange(len(owners)), per_column)
    # each column's blocks are its owner's, in row order
    shift = (np.cumsum(counts) - counts)[owners] - (np.cumsum(per_column) - per_column)
    block = np.arange(len(column)) + shift[column]
    first = column * n + starts[block] % n  # block starts in the flat C x N product
    conj = rows.conj()
    step = slab_rows(16 * n)
    scratch = np.empty((min(step, len(owners)), n), dtype=np.complex128)
    projected = np.empty(len(first), dtype=np.complex128)
    bounds = np.searchsorted(column, np.arange(0, len(owners) + step, step))
    for c, lo, hi in zip(range(0, len(owners), step), bounds, bounds[1:]):
        slab_owners = owners[c:c + step]
        slab = scratch[:len(slab_owners)]
        # mode="clip" writes straight to out=, which the default mode would buffer
        np.take(conj, slab_owners, axis=0, out=slab, mode="clip")
        np.multiply(slab, columns[c:c + step], out=slab)
        projected[lo:hi] = np.add.reduceat(slab.ravel(), first[lo:hi] - c * n)
    power = np.abs(projected) ** 2
    num = np.bincount(column, power, minlength=len(owners))
    den = np.sqrt(np.bincount(column, sizes[block] * power, minlength=len(owners)))
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _hybrid_set(
    scheme: Scheme,
    analog: ComplexMatrix,
    block_sizes: Sequence[int],
    entries: ComplexMatrix,
) -> PrecoderSet:
    """Hybrid set with every column's digital MRT at once (degenerate ones stay zero).

    For a block-diagonal F with unit-modulus entries,
    ||F F^H h||^2 = sum_t N_t |(F^H h)_t|^2, so the denominator needs no
    N-row product.
    """
    projected = analog.conj().T @ np.asarray(entries)
    weights = np.asarray(block_sizes, dtype=np.float64)[:, None]
    den = np.sqrt(np.sum(weights * np.abs(projected) ** 2, axis=0))
    digital = np.zeros_like(projected)
    good = den > 0.0
    digital[:, good] = projected[:, good] / den[good]
    return PrecoderSet(scheme, digital, analog)


def slice_analog_rows(
    geom: ArrayGeometry,
    slots: Sequence[PathBatch],
    blocks: SliceBlocks,
) -> ComplexMatrix:
    """K x N phase-shifter entries of each user's antenna-slicing plan.

    ``slots`` are the users' :func:`path_slots`, and ``blocks`` holds their
    plans, as :func:`plan_antenna_rows` returns them. Row n of subarray t
    carries exp(j angle(B_t)), with B_t the gain-weighted sum of the
    far-path planar steerings and the assigned near path's spherical
    steering referenced to the subarray center's offset;
    :func:`block_diagonal` scatters row k into user k's N x T analog matrix.
    Each far slot takes one :func:`path_phases` call, and the near paths one
    call with one path per element: the path its subarray serves. Each
    element's path and subarray center are one gather by its block.
    """
    n = geom.num_antennas
    acc = np.zeros((len(slots[0].gain), n), dtype=np.complex128)
    for batch in slots:
        if batch.field_model is FieldModel.FAR:
            acc += batch.gain[:, None] * phasor(path_phases(geom, batch[:, None]))
    block = np.repeat(np.arange(len(blocks.sizes)), blocks.sizes).reshape(acc.shape)
    centers = blocks.offsets[block]
    user = (np.cumsum(blocks.sizes) - blocks.sizes) // n  # the user of each block
    near = PathBatch.join(slots, FieldModel.NARROWBAND_NEAR)[user, blocks.paths][block]
    # np.multiply, not *: numpy would multiply a temporary of 256 KiB or more
    # in place as temporary * gain, which rounds unlike the one-user gain * term
    acc += np.multiply(near.gain, phasor(path_phases(geom, near, reference=centers)))
    return phasor(np.angle(acc))


def slice_precoder_set(
    channel: ChannelTensor,
    plan: SlicingPlan,
) -> PrecoderSet:
    """Antenna-slicing hybrid set: per-subarray analog beams + digital MRT."""
    rows = slice_analog_rows(channel.geometry, path_slots([channel.paths]), plan.blocks)
    analog = block_diagonal(rows[0], plan.subarray_sizes)
    return _hybrid_set(Scheme.ANTENNA_SLICING, analog, plan.subarray_sizes,
                       channel.entries)


def subband_analog_rows(
    geom: ArrayGeometry,
    slots: Sequence[PathBatch],
    subband_centers_hz: Sequence[float],
) -> ComplexMatrix:
    """K x N phase-shifter entries of each user's sub-band analog beams.

    Row k sums user k's near-field path terms at its sub-band center
    frequency — per element, gain times
    exp(j (2 pi/c) (f_c dd_n + (f_sub - f_c)(r + d_n))) — and keeps only the
    angles. Evaluating the steering at the sub-band frequency (rather than the
    carrier) keeps every element of a block phase-aligned to the channel at
    the sub-band center for any subarray size, and the full-array range
    reference preserves the paths' relative carrier phases. Far paths are
    ignored. ``slots`` are the users' :func:`path_slots`, and each near slot
    takes one :func:`path_phases` call.
    """
    detune = np.asarray(subband_centers_hz, dtype=np.float64) - geom.center_freq_hz
    acc = np.zeros((len(detune), geom.num_antennas), dtype=np.complex128)
    for batch in slots:
        if batch.field_model is not FieldModel.FAR:
            acc += batch.gain[:, None] * phasor(path_phases(
                geom, batch[:, None], detune[:, None], model=FieldModel.WIDEBAND_NEAR))
    if not np.all(np.any(acc, axis=1)):
        raise ValueError("user has no near-field paths")
    return phasor(np.angle(acc))


def subband_precoder_set(
    geom: ArrayGeometry,
    user_paths: Sequence[PathParams],
    subband: UserSubband,
    num_subarrays: int,
    channel_block: ComplexMatrix,
) -> PrecoderSet:
    """Sub-band hybrid set for one user over its own subcarriers, in equal subarrays."""
    if geom.num_antennas % num_subarrays != 0:
        raise ValueError("num_subarrays must divide num_antennas")
    sizes = (geom.num_antennas // num_subarrays,) * num_subarrays
    rows = subband_analog_rows(geom, path_slots([user_paths]), [subband.center_hz])[0]
    return _hybrid_set(Scheme.SUBBAND_SLICING, block_diagonal(rows, sizes), sizes, channel_block)


# ---------------------------------------------------------------------------
# gains and spectral efficiency
# ---------------------------------------------------------------------------


def normalized_array_gain(
    geom: ArrayGeometry, grid: CarrierGrid, path: PathParams
) -> NDArray[np.float64]:
    """MRT array gain |sum_n q_c(m)_n| / N at every subcarrier m.

    Equals 1 exactly at the center subcarrier offset and decays as squint
    dephases the elements; always in [0, 1].
    """
    squint = beam_squint_matrix(geom, grid, path)
    return np.abs(squint.sum(axis=0)) / geom.num_antennas


def per_subcarrier_rates(
    channel: ChannelTensor | ComplexMatrix,
    precoders: PrecoderSet,
    power: float,
    noise_power: float,
) -> NDArray[np.float64]:
    """log2(1 + P |f_m^H h_m|^2 / sigma^2) for each subcarrier."""
    if power <= 0.0 or noise_power <= 0.0:
        raise ValueError("power and noise_power must be positive")
    entries = channel.entries if isinstance(channel, ChannelTensor) else np.asarray(channel)
    combined = precoders.combined()
    if combined.shape != entries.shape:
        raise ValueError("precoders do not match the channel dimensions")
    amplitudes = np.abs(np.einsum("nm,nm->m", combined.conj(), entries))
    return np.log2(1.0 + power * amplitudes**2 / noise_power)


def spectral_efficiency(
    channel: ChannelTensor | ComplexMatrix,
    precoders: PrecoderSet,
    power: float,
    noise_power: float,
) -> float:
    """Subcarrier-averaged SE of the precoded link, in bits/s/Hz."""
    return float(np.mean(per_subcarrier_rates(channel, precoders, power, noise_power)))


def se_optimal(
    channel: ChannelTensor | ComplexMatrix, power: float, noise_power: float
) -> float:
    """Fully digital upper bound: per-subcarrier matched filter ||h_m||."""
    if power <= 0.0 or noise_power <= 0.0:
        raise ValueError("power and noise_power must be positive")
    entries = channel.entries if isinstance(channel, ChannelTensor) else np.asarray(channel)
    norms = np.linalg.norm(entries, axis=0)
    return float(np.mean(np.log2(1.0 + power * norms**2 / noise_power)))


# ---------------------------------------------------------------------------
# closed-form cross-checks
# ---------------------------------------------------------------------------


def se_slicing_closed_form(
    power: float,
    noise_power: float,
    gains: Sequence[complex],
    sizes: Sequence[int],
) -> float:
    """Orthogonal-path approximation of the antenna-slicing SE.

    ``gains[t]`` is the complex gain of the path served by subarray t of size
    ``sizes[t]``; SINR = P (sum |g| N^2)^2 / (sum |g|^2 N^3 sigma^2) with the
    per-subarray powers |g_t|^2.
    """
    g2 = np.asarray([abs(g) ** 2 for g in gains], dtype=np.float64)
    n = np.asarray(sizes, dtype=np.float64)
    num = power * (np.sum(g2 * n**2)) ** 2
    den = np.sum(g2 * n**3) * noise_power
    return float(np.log2(1.0 + num / den))


def se_subband_closed_form(
    power: float,
    noise_power: float,
    block_gain_sums: Sequence[float],
    subarray_size: int,
) -> float:
    """Coherent per-subcarrier bound for the sub-band scheme.

    ``block_gain_sums[t]`` is G_t = sum_n |h_n| over subarray t's rows of the
    channel column; SINR = P (sum G^2)^2 / (sum N_s G^2 sigma^2).
    """
    g = np.asarray(block_gain_sums, dtype=np.float64)
    num = power * (np.sum(g**2)) ** 2
    den = np.sum(subarray_size * g**2) * noise_power
    return float(np.log2(1.0 + num / den))
