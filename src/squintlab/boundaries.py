"""Closed-form wideband boundaries, near-field threshold, and path classification.

A path tolerates a phase-shifter (frequency-flat) front end as long as the worst
squint phase across the array/band stays below (kappa_a + kappa_f) * pi. Solving
that condition for bandwidth gives the frequency boundary B_bar; solving it for
the antenna count gives N_bar. A separate, bandwidth-free condition on the
spherical-wavefront carrier phase yields the near-field threshold N_tilde below
which the planar model is adequate.

All boundaries are real-valued; consumers that need integers floor them. Where a
boundary does not exist (a single antenna, the far-mode boundaries at broadside,
a user whose paths share one total range) it is ``math.inf``, which orders above
every finite boundary. A draw's near-mode boundaries come from
:func:`boundary_table`, as arrays; every boundary of one path, far mode and
bounds included, comes from :func:`boundary_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .wavefield import ArrayGeometry, CarrierGrid, FieldModel, PathBatch, PathParams, path_slots


@dataclass(frozen=True)
class SquintThresholds:
    """Tolerated squint phase as fractions of pi (antenna / frequency domain)."""

    kappa_a: float = 0.125
    kappa_f: float = 0.125

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa_a <= 1.0:
            raise ValueError("kappa_a must lie in (0, 1]")
        if not 0.0 < self.kappa_f <= 1.0:
            raise ValueError("kappa_f must lie in (0, 1]")

    @property
    def total(self) -> float:
        return self.kappa_a + self.kappa_f


@dataclass(frozen=True)
class BoundaryBound:
    """Angle-extremal lower/upper envelope of one boundary."""

    lower: float
    upper: float


@dataclass(frozen=True)
class BoundaryReport:
    """All boundaries of one path and their Table-style bounds."""

    freq_boundary_near_hz: float
    antenna_boundary_near: float
    freq_boundary_far_hz: float
    antenna_boundary_far: float
    near_field_threshold: float
    bounds: dict[str, BoundaryBound]


@dataclass(frozen=True, eq=False)
class BoundaryTable:
    """Near-mode boundaries of every path of a draw: entry (k, l) is path l of user k.

    ``near`` marks the entries that hold a near-field path; the users share
    one sequence of field models, so every row marks the same paths.
    ``near_threshold`` (N_tilde), ``antenna`` (N_bar) and ``freq`` (B_bar)
    are at full-array scale. A table built with a subarray size also
    holds the sub-band caps' inputs: ``freq_subarray`` (B_bar of one subarray)
    and ``delay_spread`` (per user; inf without two distinct total ranges).
    A slice of users indexes their table.
    """

    near: NDArray[np.bool_]
    near_threshold: NDArray[np.float64]
    antenna: NDArray[np.float64]
    freq: NDArray[np.float64]
    freq_subarray: NDArray[np.float64] | None = None
    delay_spread: NDArray[np.float64] | None = None

    def __getitem__(self, rows: slice) -> "BoundaryTable":
        # every entry is elementwise in its path or reduced over its own row
        values = [getattr(self, f.name) for f in fields(self)]
        return BoundaryTable(*[None if value is None else value[rows] for value in values])


def _near_variation(n: int, s: float, theta, d):
    """sqrt(d^2 + (N-1) d s theta + ((N-1) s / 2)^2) - d without cancellation."""
    t2 = (n - 1) * d * s * theta
    t3 = ((n - 1) * s / 2.0) ** 2
    return (t2 + t3) / (np.sqrt(d * d + t2 + t3) + d)


def _near_freq_boundaries(n: int, geom: ArrayGeometry, thr: SquintThresholds, theta, d):
    """Near-mode B_bar of an n-element array for arrays of |theta| and d."""
    if n == 1:
        return np.full(d.shape, math.inf)
    return thr.total * geom.wave_speed / _near_variation(n, geom.spacing_m, theta, d)


def _quadratic_root_plus_one(a1, a2, rhs):
    """Positive root of a1 x^2 + a2 x = rhs, returned as x + 1."""
    return (-a2 + np.sqrt(a2 * a2 + 4.0 * a1 * rhs)) / (2.0 * a1) + 1.0


def _carrier_coefficients(theta, d, center_freq_hz: float, kappa_a: float, s: float,
                          c: float):
    """A1, A2 and A5 of the carrier-phase quadratic A1 (N-1)^2 + A2 (N-1) = A5."""
    a5 = (kappa_a * kappa_a * c * c + 4.0 * kappa_a * c * d * center_freq_hz) / (
        4.0 * center_freq_hz * center_freq_hz
    )
    return s * s / 4.0, d * s * theta, a5


def _bandwidth_coefficient(d, b: float, kappa: float, c: float):
    """A3, the squint budget of the antenna-count quadratic A1 (N-1)^2 + A2 (N-1) = A3."""
    return (kappa * kappa * c * c + 2.0 * kappa * c * d * b) / (b * b)


def _delay_spread_limits(total, near, kappa_f: float, wave_speed: float):
    """Per-user bandwidth cap kappa_f c / max_l |t_l - mean(t)| from delay spread.

    t = r + d runs over a row's near entries (at least one column), summed left
    to right as ``sum`` does; far entries add an exact zero. A single path, or
    identical total ranges, is unconstrained (inf).
    """
    center = np.cumsum(total * near, axis=1)[:, -1] / np.maximum(near.sum(axis=1), 1)
    deviation = np.max(np.abs(total - center[:, None]) * near, axis=1)
    out = np.full(deviation.shape, math.inf)
    np.divide(kappa_f * wave_speed, deviation, out=out, where=deviation > 0.0)
    return out


# ---------------------------------------------------------------------------
# the boundary table of a draw
# ---------------------------------------------------------------------------


def _near_boundaries(geom: ArrayGeometry, grid: CarrierGrid, thr: SquintThresholds, theta, d):
    """N_tilde, N_bar and B_bar at full-array scale of paths with |sine| theta, distance d."""
    c, s = geom.wave_speed, geom.spacing_m
    a1, a2, a5 = _carrier_coefficients(theta, d, geom.center_freq_hz, thr.kappa_a, s, c)
    a3 = _bandwidth_coefficient(d, grid.bandwidth_hz, thr.total, c)
    return (_quadratic_root_plus_one(a1, a2, a5), _quadratic_root_plus_one(a1, a2, a3),
            _near_freq_boundaries(geom.num_antennas, geom, thr, theta, d))


def boundary_table(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    thr: SquintThresholds,
    slots: Sequence[PathBatch],
    subarray_size: int | None = None,
) -> BoundaryTable:
    """Near-mode boundaries of every path of every user, as users-by-paths arrays.

    ``slots`` are the users' :func:`path_slots`. ``subarray_size`` asks for
    the sub-band caps' inputs at that subarray scale as well.
    """
    if not slots:
        raise ValueError("at least one path is required")
    paths = PathBatch.join(slots, FieldModel.NARROWBAND_NEAR)  # `near` reads the slot models
    theta, d, total = np.abs(paths.sine_angle), paths.scatterer_distance_m, paths.total_range_m
    near = np.repeat([[slot.field_model is not FieldModel.FAR for slot in slots]], len(d), axis=0)

    table = BoundaryTable(near, *_near_boundaries(geom, grid, thr, theta, d))
    if subarray_size is None:
        return table
    return replace(table,
                   freq_subarray=_near_freq_boundaries(subarray_size, geom, thr, theta, d),
                   delay_spread=_delay_spread_limits(total, near, thr.kappa_f, geom.wave_speed))


# ---------------------------------------------------------------------------
# bounds, report, classification
# ---------------------------------------------------------------------------


def boundary_bounds(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    path: PathParams,
    thr: SquintThresholds,
) -> dict[str, BoundaryBound]:
    """Angle-extremal envelopes (|theta| -> 1 vs theta = 0), keyed by BoundaryReport field."""
    n, s, c = geom.num_antennas, geom.spacing_m, geom.wave_speed
    d = path.scatterer_distance_m
    b = grid.bandwidth_hz
    kappa = thr.total
    fc = geom.center_freq_hz

    if n > 1:
        edge_freq = 2.0 * kappa * c / ((n - 1) * s)
        t3 = ((n - 1) * s / 2.0) ** 2
        broadside_variation = t3 / (math.sqrt(d * d + t3) + d)
        freq_near_upper = kappa * c / broadside_variation
    else:
        edge_freq = freq_near_upper = math.inf

    a1, _, a5 = _carrier_coefficients(abs(path.sine_angle), d, fc, thr.kappa_a, s, c)
    antenna_lower = 2.0 * kappa * c / (b * s) + 1.0
    antenna_near_upper = math.sqrt(_bandwidth_coefficient(d, b, kappa, c) / a1) + 1.0
    nf_lower = thr.kappa_a * c / (s * fc) + 1.0
    nf_upper = math.sqrt(a5 / a1) + 1.0

    return {
        "freq_boundary_near_hz": BoundaryBound(edge_freq, freq_near_upper),
        "antenna_boundary_near": BoundaryBound(antenna_lower, antenna_near_upper),
        "freq_boundary_far_hz": BoundaryBound(edge_freq, math.inf),
        "antenna_boundary_far": BoundaryBound(antenna_lower, math.inf),
        "near_field_threshold": BoundaryBound(nf_lower, nf_upper),
    }


def boundary_report(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    path: PathParams,
    thr: SquintThresholds,
) -> BoundaryReport:
    """Every boundary of one path and its bounds.

    The near-mode values are the path's :func:`boundary_table` entries. Far
    mode inverts the planar variation (N-1) s |theta| / 2, so both far
    boundaries are inf at broadside and B_bar is inf at N=1 too.
    """
    near = boundary_table(geom, grid, thr, path_slots([[path]]))
    s, c, kappa = geom.spacing_m, geom.wave_speed, thr.total
    theta = abs(path.sine_angle)
    planar = (geom.num_antennas - 1) * s * theta / 2.0
    return BoundaryReport(
        freq_boundary_near_hz=float(near.freq[0, 0]),
        antenna_boundary_near=float(near.antenna[0, 0]),
        freq_boundary_far_hz=kappa * c / planar if planar else math.inf,
        antenna_boundary_far=(2.0 * kappa * c / (grid.bandwidth_hz * s * theta) + 1.0
                              if theta else math.inf),
        near_field_threshold=float(near.near_threshold[0, 0]),
        bounds=boundary_bounds(geom, grid, path, thr),
    )


def classify_path(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    path: PathParams,
    thr: SquintThresholds,
) -> FieldModel:
    """Regime of a path for this array/grid: squint-limited, spherical, or planar.

    Wideband-near wins when either the antenna count or the bandwidth reaches its
    near-mode boundary; otherwise the path is planar (far) below the near-field
    threshold and narrowband-near in between.
    """
    near = boundary_table(geom, grid, thr, path_slots([[path]]))
    if geom.num_antennas >= near.antenna[0, 0] or grid.bandwidth_hz >= near.freq[0, 0]:
        return FieldModel.WIDEBAND_NEAR
    if geom.num_antennas < near.near_threshold[0, 0]:
        return FieldModel.FAR
    return FieldModel.NARROWBAND_NEAR
