"""Array/OFDM geometry, the phase kernel, squint matrices, and wideband channel synthesis.

The model is a uniform linear array (ULA) with N antennas at spacing s serving an
OFDM grid of M subcarriers spanning bandwidth B around a center frequency f_c.
Scatterers sit in the radiating near field, so per-antenna path lengths follow the
exact two-dimensional geometry (law of cosines) rather than a planar approximation;
the residual frequency dependence of the per-antenna phases is the "beam squint"
captured by a dedicated N x M phase matrix.

Sign convention: propagation phases are written with +j throughout. Distances in
meters, frequencies in Hz.
"""

from __future__ import annotations

import cmath
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

SPEED_OF_LIGHT = 299792458.0
"""Exact vacuum light speed (m/s)."""

DUMP_MAGIC = b"SQNT"
DUMP_VERSION = 1

ComplexVector = NDArray[np.complex128]
ComplexMatrix = NDArray[np.complex128]

#: bytes of one scratch slab: the channel-sized products of a link chunk
#: (the channel's blocks, the owners' projections, the matched-filter norms)
#: are formed one slab of rows at a time, so no temporary grows with the chunk
_SLAB_BYTES = 256 << 10


class FieldModel(Enum):
    """Per-path propagation regime."""

    WIDEBAND_NEAR = "wideband-near"
    NARROWBAND_NEAR = "narrowband-near"
    FAR = "far"


#: model_tag value for channels mixing near- and far-field path terms.
HYBRID = "hybrid"


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayGeometry:
    """ULA description: antenna count, spacing, carrier, wave speed.

    ``spacing_m=None`` selects the default half-wavelength spacing
    s = c / (2 f_c); pass an explicit spacing for anything else.
    """

    num_antennas: int
    center_freq_hz: float
    spacing_m: float | None = None
    wave_speed: float = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be >= 1")
        if not 0.0 < self.center_freq_hz < math.inf:
            raise ValueError("center_freq_hz must be positive and finite")
        if not 0.0 < self.wave_speed < math.inf:
            raise ValueError("wave_speed must be positive and finite")
        if self.spacing_m is None:
            object.__setattr__(self, "spacing_m", self.wavelength_m / 2.0)
        elif not 0.0 < self.spacing_m < math.inf:
            raise ValueError("spacing_m must be positive and finite")

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength c / f_c."""
        return self.wave_speed / self.center_freq_hz

    def element_offsets(self) -> NDArray[np.float64]:
        """Signed index offsets of each element from the array center.

        Offset of element n (0-based) is n - (N-1)/2; they sum to zero and are
        half-integers for even N.
        """
        n = self.num_antennas
        return np.arange(n, dtype=np.float64) - (n - 1) / 2.0


@dataclass(frozen=True)
class CarrierGrid:
    """OFDM subcarrier grid: M subcarriers at spacing df, bandwidth B = M*df."""

    num_subcarriers: int
    subcarrier_spacing_hz: float

    def __post_init__(self) -> None:
        if self.num_subcarriers < 1:
            raise ValueError("num_subcarriers must be >= 1")
        if not 0.0 < self.subcarrier_spacing_hz < math.inf:
            raise ValueError("subcarrier_spacing_hz must be positive and finite")

    @classmethod
    def from_bandwidth(cls, bandwidth_hz: float, num_subcarriers: int) -> "CarrierGrid":
        """Grid with spacing B / M (B = M*df holds exactly)."""
        if num_subcarriers < 1:
            raise ValueError("num_subcarriers must be >= 1")
        return cls(num_subcarriers, bandwidth_hz / num_subcarriers)

    @property
    def bandwidth_hz(self) -> float:
        return self.num_subcarriers * self.subcarrier_spacing_hz

    def subcarrier_offsets(self) -> NDArray[np.float64]:
        """Signed index offsets m - (M-1)/2 of each subcarrier from band center."""
        m = self.num_subcarriers
        return np.arange(m, dtype=np.float64) - (m - 1) / 2.0


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain, sine angle, and the two hop ranges.

    ``scatterer_distance_m`` is the scatterer-to-array-center distance d > 0 and
    ``ue_range_m`` the UE-to-scatterer range r >= 0 (r = 0 marks the LoS path).
    ``sine_angle`` is sin of the departure angle, strictly inside (-1, 1).
    """

    gain: complex
    sine_angle: float
    scatterer_distance_m: float
    ue_range_m: float = 0.0
    field_model: FieldModel = FieldModel.WIDEBAND_NEAR

    def __post_init__(self) -> None:
        if not -1.0 < self.sine_angle < 1.0:
            raise ValueError("sine_angle must lie strictly inside (-1, 1)")
        if not (math.isfinite(self.scatterer_distance_m) and math.isfinite(self.ue_range_m)):
            raise ValueError("scatterer_distance_m and ue_range_m must be finite")
        if self.scatterer_distance_m <= 0.0:
            raise ValueError("scatterer_distance_m must be positive")
        if self.ue_range_m < 0.0:
            raise ValueError("ue_range_m must be nonnegative")
        if not cmath.isfinite(self.gain):
            raise ValueError("gain must be finite")

    @property
    def total_range_m(self) -> float:
        """End-to-end path length r + d."""
        return self.ue_range_m + self.scatterer_distance_m

@dataclass(frozen=True, eq=False)
class ChannelTensor:
    """N x M complex channel with the geometry/grid/paths that produced it."""

    entries: ComplexMatrix
    geometry: ArrayGeometry
    grid: CarrierGrid
    paths: tuple[PathParams, ...]

    def __post_init__(self) -> None:
        expected = (self.geometry.num_antennas, self.grid.num_subcarriers)
        if self.entries.shape != expected:
            raise ValueError(f"entries shape {self.entries.shape} != {expected}")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("entries must be finite")

    @property
    def num_antennas(self) -> int:
        return self.geometry.num_antennas

    @property
    def num_subcarriers(self) -> int:
        return self.grid.num_subcarriers


# ---------------------------------------------------------------------------
# phase kernel and squint matrix
# ---------------------------------------------------------------------------


def _element_ranges(
    geom: ArrayGeometry, sine_angle: float, distance_m: float,
    offsets: float | NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Exact scatterer-to-element distances d_n for the given index offsets, and d_n - d.

    d_n - d is formed as (d_n^2 - d^2) / (d_n + d): subtracting two ranges of
    up to hundreds of meters would cost eps d, not eps |d_n - d|.
    """
    x = offsets * geom.spacing_m
    cross, square = 2.0 * distance_m * x * sine_angle, x * x
    ranges = np.sqrt(distance_m * distance_m - cross + square)
    return ranges, (square - cross) / (ranges + distance_m)


@dataclass(frozen=True, eq=False)
class PathBatch:
    """Several paths of one field model, each parameter an array of one shape.

    The batched :class:`PathParams` of :func:`path_phases`: its arrays
    broadcast against the element offsets, so shape (K, 1) gives K rows of
    the array and shape (N,) one path per element. Indexing indexes every
    parameter array.
    """

    gain: NDArray[np.complex128]
    sine_angle: NDArray[np.float64]
    scatterer_distance_m: NDArray[np.float64]
    ue_range_m: NDArray[np.float64]
    field_model: FieldModel

    @classmethod
    def stack(cls, paths: Sequence[PathParams], field_model: FieldModel) -> "PathBatch":
        """One batch entry per path, in order."""
        return cls(
            np.array([p.gain for p in paths], dtype=np.complex128),
            np.array([p.sine_angle for p in paths], dtype=np.float64),
            np.array([p.scatterer_distance_m for p in paths], dtype=np.float64),
            np.array([p.ue_range_m for p in paths], dtype=np.float64),
            field_model,
        )

    @classmethod
    def join(cls, slots: Sequence["PathBatch"], field_model: FieldModel) -> "PathBatch":
        """Slots of shape (K,) side by side: one (K, L) batch of ``field_model``."""
        return cls(*(np.stack([getattr(slot, name) for slot in slots], axis=1)
                     for name in ("gain", "sine_angle", "scatterer_distance_m", "ue_range_m")),
                   field_model)

    def __getitem__(self, key) -> "PathBatch":
        return PathBatch(self.gain[key], self.sine_angle[key],
                         self.scatterer_distance_m[key], self.ue_range_m[key],
                         self.field_model)

    @property
    def total_range_m(self) -> NDArray[np.float64]:
        return self.ue_range_m + self.scatterer_distance_m


def slab_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each that fill one scratch slab, at least one."""
    return max(1, _SLAB_BYTES // row_bytes)


def path_slots(users: Sequence[Sequence[PathParams]]) -> list[PathBatch]:
    """The l-th paths of every user as one batch per l, in path order.

    Every user must list the same sequence of field models, so each batch
    holds one model. The slots are a draw's array form, which every consumer
    of several users takes; one-user functions convert their list here once.
    """
    models = [p.field_model for p in users[0]]
    if any([p.field_model for p in paths] != models for paths in users):
        raise ValueError("users must share one sequence of path field models")
    return [PathBatch.stack([paths[l] for paths in users], model)
            for l, model in enumerate(models)]


def path_phases(
    geom: ArrayGeometry,
    path: PathParams | PathBatch,
    freq_dev: float | NDArray[np.float64] = 0.0,
    *,
    reference: float | NDArray[np.float64] | None = None,
    model: FieldModel | None = None,
) -> NDArray[np.float64]:
    """Real phase of one path, or a batch of paths, at each element.

    Element n's phase is (2 pi/c) (f_c (d_n - d_ref) + ramp_n df), with ramp_n
    the delay range r + d_n for wideband-near paths and r + d otherwise, and
    d_ref the range of the element offset ``reference`` (by default the array
    center, d_ref = d); far paths replace d_n - d_ref by the planar offset
    delta_n s theta. Every channel and beam builder evaluates its per-element
    phases here; ``model`` defaults to the path's own regime. The path
    parameters and the N element offsets broadcast into the element shape,
    which ``reference`` and ``freq_dev`` broadcast against: one path gives N
    phases (M x N at ``freq_dev[:, None]``), a :class:`PathBatch` of shape
    (K, 1) K x N.
    """
    carrier, ramp = _carrier_and_ramp(geom, path, reference,
                                      path.field_model if model is None else model)
    k = 2.0 * np.pi / geom.wave_speed
    return carrier + k * (ramp * freq_dev)


def _carrier_and_ramp(
    geom: ArrayGeometry,
    path: PathParams | PathBatch,
    reference: float | NDArray[np.float64] | None,
    model: FieldModel,
) -> tuple[NDArray[np.float64], NDArray[np.float64] | float]:
    """The two factors of :func:`path_phases`: phase = carrier + k (ramp df), k = 2 pi/c.

    The carrier phases have the element shape; the delay ramp has it too, or
    the path parameters' shape when it is one range per path.
    """
    k = 2.0 * np.pi / geom.wave_speed
    offsets = geom.element_offsets()
    ramp = path.total_range_m  # one per path, broadcast over the elements
    if model is FieldModel.FAR:
        carrier = k * geom.center_freq_hz * offsets * geom.spacing_m * path.sine_angle
    else:
        d = path.scatterer_distance_m
        ranges, deviation = _element_ranges(geom, path.sine_angle, d, offsets)
        if reference is not None:
            # d_n - d_ref as (d_n - d) - (d_ref - d), so no two ranges cancel
            deviation = deviation - _element_ranges(geom, path.sine_angle, d, reference)[1]
        carrier = k * geom.center_freq_hz * deviation
        if model is FieldModel.WIDEBAND_NEAR:
            # squint folds in: the delay ramp sees each element's true range
            ramp = path.ue_range_m + ranges
    return carrier, ramp


def phasor(phases: NDArray[np.float64]) -> ComplexMatrix:
    """Unit phasors exp(+j phases), equal in every bit to numpy's complex exp.

    For finite phases the result matches ``np.exp`` of ``1j * phases`` bit for
    bit, but cos and sin go straight into the real and imaginary halves of a
    fresh complex array instead of through a complex copy and the general
    complex exponential. The sine half adds 0.0, since the imaginary part of
    exp(j * -0.0) is +0.0. The result owns its data, as ``np.exp``'s did, so
    numpy still multiplies it in place at 256 KiB or more and every product
    around a call keeps its operand order and rounding.
    """
    phases = np.asarray(phases, dtype=np.float64)
    out = np.empty(phases.shape, dtype=np.complex128)
    np.cos(phases, out=out.real)
    np.sin(phases, out=out.imag)
    out.imag += 0.0
    return out


def beam_squint_matrix(geom: ArrayGeometry, grid: CarrierGrid, path: PathParams) -> ComplexMatrix:
    """N x M matrix of the residual antenna-frequency cross phases.

    Entry (n, m) = exp(+j (2 pi/c) delta_m df (d_n - d)), with d_n the exact
    range of element n. The center subcarrier column (delta_m = 0) is all ones.
    """
    dev = _element_ranges(geom, path.sine_angle, path.scatterer_distance_m,
                          geom.element_offsets())[1]
    freq_dev = grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    k = 2.0 * np.pi / geom.wave_speed
    return phasor(k * np.outer(dev, freq_dev))


# ---------------------------------------------------------------------------
# channel synthesis
# ---------------------------------------------------------------------------

_MODEL_TAGS = (
    FieldModel.WIDEBAND_NEAR.value,
    FieldModel.NARROWBAND_NEAR.value,
    FieldModel.FAR.value,
    HYBRID,
)


def channel_columns(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    paths: Sequence[PathBatch],
    model_tag: str = HYBRID,
) -> ComplexMatrix:
    """Raw channel entries, subcarrier-major: row m holds subcarrier m's N entries.

    ``model_tag`` forces one regime for every path; ``hybrid`` dispatches on each
    path's own ``field_model``. Entries are the sum of per-path terms, linear in
    the gains. A :class:`PathBatch` of shape (T, 1) holds one path of each of T
    link draws (their :func:`path_slots` at ``[:, None]``), and the result
    stacks their channels, (T M) x N, draw t's in rows t M .. (t + 1) M - 1. A
    :class:`PathBatch` of shape (M,) holds one path per subcarrier, so one call
    builds several users' channels, each on its own subcarriers (index the
    users' :func:`path_slots` by each subcarrier's user), from one phase table
    per path.

    A draw's term is built in blocks of B = isqrt(M) of its M subcarriers. The
    phase of subcarrier c0 + i is that of c0 plus k ramp_n i df, so the term
    is an exact phasor at every B-th subcarrier (gain folded in) times a step
    phasor exp(j k ramp_n i df), i < B: one multiply per entry, plus a shorter
    tail block. The whole blocks' products go through one scratch slab (see
    :func:`slab_rows`), a range of draws and of their anchor blocks at a time,
    and are added to the output from there.
    """
    if model_tag not in _MODEL_TAGS:
        raise ValueError(f"unknown model_tag {model_tag!r}")
    if not paths:
        raise ValueError("at least one path is required")
    freq_dev = grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    num_cols = freq_dev.size
    draws = max([p.gain.shape[0] for p in paths if p.gain.ndim == 2], default=1)
    block = math.isqrt(num_cols)
    body = num_cols // block * block  # subcarriers in whole blocks; the rest is the tail
    k = 2.0 * np.pi / geom.wave_speed
    out = np.zeros((draws * num_cols, geom.num_antennas), dtype=np.complex128)
    terms = out.reshape(draws, num_cols, geom.num_antennas)  # draw t's M x N channel
    whole = body // block
    blocks = terms[:, :body].reshape(draws, whole, block, geom.num_antennas)
    # a slab holds whole draws when one draw's blocks fit, else a range of one draw's blocks
    per_slab = slab_rows(16 * block * geom.num_antennas)
    span, width = min(draws, max(1, per_slab // whole)), min(whole, per_slab)
    scratch = np.empty((span, width, block, geom.num_antennas), dtype=np.complex128)
    for path in paths:
        model = path.field_model if model_tag == HYBRID else FieldModel(model_tag)
        # np.multiply(gain, term), not gain * term: numpy multiplies a
        # temporary of 256 KiB or more in place, as temporary * gain, which
        # rounds unlike gain * temporary, so the bits would hang on the size
        if path.gain.shape == (draws, 1):
            carrier, ramp = _carrier_and_ramp(geom, path[..., None], None, model)
            # carrier T x 1 x N, ramp T x 1 x N (or T x 1 x 1, one per draw);
            # T x ceil(M/B) x N anchors and a T x B x N (or T x B x 1) step
            # table; at B = 1 the step is exactly 1 and the anchors are the
            # direct term
            anchors = np.multiply(path.gain[..., None], phasor(
                carrier + k * (ramp * freq_dev[::block, None])))
            steps = phasor(k * (ramp * (np.arange(block) * grid.subcarrier_spacing_hz)[:, None]))
            for t in range(0, draws, span):
                for j in range(0, whole, width):
                    part = anchors[t:t + span, j:min(j + width, whole), None]
                    slab = scratch[:part.shape[0], :part.shape[1]]
                    np.multiply(part, steps[t:t + span, None], out=slab)
                    blocks[t:t + span, j:j + width] += slab
            if body < num_cols:
                terms[:, body:] += anchors[:, -1:] * steps[:, :num_cols - body]
        elif draws == 1 and path.gain.shape == freq_dev.shape:
            out += np.multiply(path.gain[:, None], phasor(path_phases(
                geom, path[:, None], freq_dev[:, None], model=model)))
        else:
            raise ValueError(f"a PathBatch needs one path per column or per draw: "
                             f"{path.gain.shape} paths for {draws} draws of "
                             f"{freq_dev.size} columns")
    return out


def synth_channel(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    paths: Sequence[PathParams],
    model_tag: str = HYBRID,
) -> ChannelTensor:
    """Synthesize the full N x M wideband channel tensor.

    Wideband near paths use the exact per-element ranges at every subcarrier,
    narrowband near paths freeze the squint phases at the band center, and far
    paths use planar steering with the common delay ramp.
    """
    slots = [slot[:, None] for slot in path_slots([paths])]
    return ChannelTensor(channel_columns(geom, grid, slots, model_tag).T, geom, grid,
                         tuple(paths))


# ---------------------------------------------------------------------------
# on-disk dump
# ---------------------------------------------------------------------------


def write_channel_dump(tensor: ChannelTensor, dest: str | os.PathLike) -> None:
    """Write the tensor as SQNT binary: 16-byte header + row-major (re, im) f64 pairs."""
    header = struct.pack(
        "<4sHII2s", DUMP_MAGIC, DUMP_VERSION,
        tensor.num_antennas, tensor.num_subcarriers, b"\x00\x00",
    )
    payload = np.ascontiguousarray(tensor.entries, dtype=np.complex128).astype("<c16").tobytes()
    with open(dest, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_channel_dump(src: str | os.PathLike) -> ComplexMatrix:
    """Read a SQNT dump back into an N x M complex matrix."""
    with open(src, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError("truncated dump header")
        magic, version, n, m, _ = struct.unpack("<4sHII2s", header)
        if magic != DUMP_MAGIC:
            raise ValueError("bad magic; not a channel dump")
        if version != DUMP_VERSION:
            raise ValueError(f"unsupported dump version {version}")
        raw = fh.read(16 * n * m)
    if len(raw) != 16 * n * m:
        raise ValueError("truncated dump payload")
    return np.frombuffer(raw, dtype="<c16").astype(np.complex128).reshape(n, m)
