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
every finite boundary. :func:`boundary_table` evaluates the near-mode
boundaries of every path of a draw as arrays. It shares each formula, and so
its operation order and its bits, with the one-path functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .wavefield import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CarrierGrid,
    FieldModel,
    PathParams,
)


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
class QuadraticCoefficients:
    """A1, A2, A3 and A5 of the boundary quadratics in (N - 1)."""

    a1: float
    a2: float
    a3: float
    a5: float


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

    ``near`` marks the entries that hold a near-field path (shorter users are
    padded). ``near_threshold`` (N_tilde), ``antenna`` (N_bar) and ``freq``
    (B_bar) are at full-array scale. A table built with a subarray size also
    holds the sub-band caps' inputs: ``freq_subarray`` (B_bar of one subarray)
    and ``delay_spread`` (per user; inf without two distinct total ranges).
    """

    near: NDArray[np.bool_]
    near_threshold: NDArray[np.float64]
    antenna: NDArray[np.float64]
    freq: NDArray[np.float64]
    freq_subarray: NDArray[np.float64] | None = None
    delay_spread: NDArray[np.float64] | None = None


def _sqrt(x):
    """Correctly rounded square root of a float (kept a Python float) or an array."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _near_variation(n: int, s: float, theta, d):
    """sqrt(d^2 + (N-1) d s theta + ((N-1) s / 2)^2) - d without cancellation."""
    t2 = (n - 1) * d * s * theta
    t3 = ((n - 1) * s / 2.0) ** 2
    return (t2 + t3) / (_sqrt(d * d + t2 + t3) + d)


def _near_freq_boundaries(n: int, geom: ArrayGeometry, thr: SquintThresholds, theta, d):
    """Near-mode B_bar of an n-element array for |theta| and d (floats or arrays)."""
    if n == 1:
        return np.full(np.shape(d), math.inf)
    return thr.total * geom.wave_speed / _near_variation(n, geom.spacing_m, theta, d)


def _quadratic_root_plus_one(a1, a2, rhs):
    """Positive root of a1 x^2 + a2 x = rhs, returned as x + 1."""
    return (-a2 + _sqrt(a2 * a2 + 4.0 * a1 * rhs)) / (2.0 * a1) + 1.0


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


# ---------------------------------------------------------------------------
# distance variation and one-path boundaries
# ---------------------------------------------------------------------------


def max_distance_variation(geom: ArrayGeometry, path: PathParams, field_mode: str = "near") -> float:
    """Worst-case |d_n - d| over the array (near) or its planar limit (far).

    Near mode evaluates sqrt(d^2 + (N-1) d s |theta| + ((N-1) s / 2)^2) - d in a
    cancellation-free form; far mode returns (N-1) s |theta| / 2. Both are even
    in theta and vanish at N=1.
    """
    n, s = geom.num_antennas, geom.spacing_m
    if n == 1:
        return 0.0
    theta = abs(path.sine_angle)
    if field_mode == "far":
        return (n - 1) * s * theta / 2.0
    if field_mode != "near":
        raise ValueError("field_mode must be 'near' or 'far'")
    return _near_variation(n, s, theta, path.scatterer_distance_m)


def freq_boundary(
    geom: ArrayGeometry, path: PathParams, thr: SquintThresholds, field_mode: str = "near"
) -> float:
    """Bandwidth B_bar beyond which the squint phase exceeds (kappa_a+kappa_f) pi."""
    variation = max_distance_variation(geom, path, field_mode)
    if variation == 0.0:
        return math.inf
    return thr.total * geom.wave_speed / variation


def boundary_coefficients(
    bandwidth_hz: float,
    path: PathParams,
    center_freq_hz: float,
    thr: SquintThresholds,
    *,
    spacing_m: float | None = None,
    wave_speed: float = SPEED_OF_LIGHT,
) -> QuadraticCoefficients:
    """A1, A2, A3 and A5 of the antenna-count and carrier-phase quadratics."""
    c = wave_speed
    s = c / (2.0 * center_freq_hz) if spacing_m is None else spacing_m
    d = path.scatterer_distance_m
    a1, a2, a5 = _carrier_coefficients(abs(path.sine_angle), d, center_freq_hz,
                                       thr.kappa_a, s, c)
    return QuadraticCoefficients(a1, a2, _bandwidth_coefficient(d, bandwidth_hz, thr.total, c),
                                 a5)


def antenna_boundary(
    bandwidth_hz: float,
    path: PathParams,
    center_freq_hz: float,
    thr: SquintThresholds,
    field_mode: str = "near",
    *,
    spacing_m: float | None = None,
    wave_speed: float = SPEED_OF_LIGHT,
) -> float:
    """Antenna count N_bar beyond which the squint phase exceeds the threshold.

    Near mode solves the quadratic A1 (N-1)^2 + A2 (N-1) = A3; far mode inverts
    the linear planar variation and is unbounded at broadside. Real-valued;
    always >= 1.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth_hz must be positive")
    c = wave_speed
    s = c / (2.0 * center_freq_hz) if spacing_m is None else spacing_m
    if field_mode == "far":
        theta = abs(path.sine_angle)
        if theta == 0.0:
            return math.inf
        return 2.0 * thr.total * c / (bandwidth_hz * s * theta) + 1.0
    if field_mode != "near":
        raise ValueError("field_mode must be 'near' or 'far'")
    co = boundary_coefficients(
        bandwidth_hz, path, center_freq_hz, thr, spacing_m=s, wave_speed=c
    )
    return _quadratic_root_plus_one(co.a1, co.a2, co.a3)


def near_field_threshold(
    path: PathParams,
    center_freq_hz: float,
    kappa_a: float = 0.125,
    *,
    spacing_m: float | None = None,
    wave_speed: float = SPEED_OF_LIGHT,
) -> float:
    """Antenna count N_tilde above which spherical curvature matters at carrier.

    Solves A1 (N-1)^2 + A2 (N-1) = A5 where A5 collects the kappa_a * pi carrier
    phase budget. Below this count a planar (far-field) model is adequate.
    """
    c = wave_speed
    s = c / (2.0 * center_freq_hz) if spacing_m is None else spacing_m
    return _quadratic_root_plus_one(*_carrier_coefficients(
        abs(path.sine_angle), path.scatterer_distance_m, center_freq_hz, kappa_a, s, c))


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
    users: Sequence[Sequence[PathParams]],
    subarray_size: int | None = None,
) -> BoundaryTable:
    """Near-mode boundaries of every path of every user, as users-by-paths arrays.

    ``subarray_size`` asks for the sub-band caps' inputs at that subarray
    scale as well. Each entry equals, bit for bit, what the one-path function
    gives for the same path.
    """
    if not users:
        raise ValueError("at least one user is required")
    counts = [len(paths) for paths in users]
    width = max(max(counts), 1)
    fields = np.array([(abs(p.sine_angle), p.scatterer_distance_m, p.total_range_m,
                        p.field_model is not FieldModel.FAR)
                       for paths in users for p in paths], dtype=np.float64).reshape(-1, 4).T
    if min(counts) < width:  # pad shorter users with entries that are not near
        padded = np.zeros((4, len(users), width))
        padded[:, np.arange(width) < np.array(counts)[:, None]] = fields
        fields = padded
    theta, d, total, near = np.ascontiguousarray(fields).reshape(4, len(users), width)
    near = near > 0.0

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
    """Angle-extremal envelopes of each boundary (|theta| -> 1 vs theta = 0)."""
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

    co = boundary_coefficients(b, path, fc, thr, spacing_m=s, wave_speed=c)
    antenna_lower = 2.0 * kappa * c / (b * s) + 1.0
    antenna_near_upper = math.sqrt(co.a3 / co.a1) + 1.0
    nf_lower = thr.kappa_a * c / (s * fc) + 1.0
    nf_upper = math.sqrt(co.a5 / co.a1) + 1.0

    return {
        "freq_near": BoundaryBound(edge_freq, freq_near_upper),
        "antenna_near": BoundaryBound(antenna_lower, antenna_near_upper),
        "freq_far": BoundaryBound(edge_freq, math.inf),
        "antenna_far": BoundaryBound(antenna_lower, math.inf),
        "near_threshold": BoundaryBound(nf_lower, nf_upper),
    }


def boundary_report(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    path: PathParams,
    thr: SquintThresholds,
) -> BoundaryReport:
    """Assemble every boundary of one path and its bounds."""
    near = boundary_table(geom, grid, thr, [[path]])
    return BoundaryReport(
        freq_boundary_near_hz=float(near.freq[0, 0]),
        antenna_boundary_near=float(near.antenna[0, 0]),
        freq_boundary_far_hz=freq_boundary(geom, path, thr, "far"),
        antenna_boundary_far=antenna_boundary(
            grid.bandwidth_hz, path, geom.center_freq_hz, thr, "far",
            spacing_m=geom.spacing_m, wave_speed=geom.wave_speed,
        ),
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
    near = boundary_table(geom, grid, thr, [[path]])
    if geom.num_antennas >= near.antenna[0, 0] or grid.bandwidth_hz >= near.freq[0, 0]:
        return FieldModel.WIDEBAND_NEAR
    if geom.num_antennas < near.near_threshold[0, 0]:
        return FieldModel.FAR
    return FieldModel.NARROWBAND_NEAR
