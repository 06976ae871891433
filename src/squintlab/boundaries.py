"""Closed-form wideband boundaries, near-field threshold, and path classification.

A path tolerates a phase-shifter (frequency-flat) front end as long as the worst
squint phase across the array/band stays below (kappa_a + kappa_f) * pi. Solving
that condition for bandwidth gives the frequency boundary B_bar; solving it for
the antenna count gives N_bar. A separate, bandwidth-free condition on the
spherical-wavefront carrier phase yields the near-field threshold N_tilde below
which the planar model is adequate.

All boundaries are real-valued; consumers that need integers floor them. Where a
boundary genuinely does not exist (e.g. the far-mode frequency boundary at
broadside) the :data:`UNBOUNDED` sentinel object is returned, never a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .wavefield import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CarrierGrid,
    FieldModel,
    PathParams,
)


class Unbounded:
    """Order-aware stand-in for a boundary that does not bind.

    Compares greater than every real number (so ``min(x, UNBOUNDED)`` keeps x)
    and serializes as the string ``"unbounded"``.
    """

    _instance: "Unbounded | None" = None

    def __new__(cls) -> "Unbounded":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "unbounded"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Unbounded)

    def __hash__(self) -> int:
        return hash("squintlab-unbounded")

    def __gt__(self, other: object) -> bool:
        if isinstance(other, Unbounded):
            return False
        if isinstance(other, (int, float)):
            return True
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, (Unbounded, int, float)):
            return True
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if isinstance(other, (Unbounded, int, float)):
            return False
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, Unbounded):
            return True
        if isinstance(other, (int, float)):
            return False
        return NotImplemented


UNBOUNDED = Unbounded()

Boundary = Union[float, Unbounded]


def is_unbounded(value: object) -> bool:
    return isinstance(value, Unbounded)


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
    """A1..A5 of the boundary quadratics in (N - 1); a2 = a4 * |theta|."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float


@dataclass(frozen=True)
class BoundaryBound:
    """Angle-extremal lower/upper envelope of one boundary."""

    lower: Boundary
    upper: Boundary


@dataclass(frozen=True)
class BoundaryReport:
    """All boundaries, their Table-style bounds, and the quadratic coefficients."""

    freq_boundary_near_hz: Boundary
    antenna_boundary_near: float
    freq_boundary_far_hz: Boundary
    antenna_boundary_far: Boundary
    near_field_threshold: float
    bounds: dict[str, BoundaryBound]
    coeffs: QuadraticCoefficients


# ---------------------------------------------------------------------------
# distance variation
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
    d = path.scatterer_distance_m
    t2 = (n - 1) * d * s * theta
    t3 = ((n - 1) * s / 2.0) ** 2
    return (t2 + t3) / (math.sqrt(d * d + t2 + t3) + d)


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------


def freq_boundary(
    geom: ArrayGeometry, path: PathParams, thr: SquintThresholds, field_mode: str = "near"
) -> Boundary:
    """Bandwidth B_bar beyond which the squint phase exceeds (kappa_a+kappa_f) pi."""
    variation = max_distance_variation(geom, path, field_mode)
    if variation == 0.0:
        return UNBOUNDED
    return thr.total * geom.wave_speed / variation


def _quadratic_root_plus_one(a1: float, a2: float, rhs: float) -> float:
    """Positive root of a1 x^2 + a2 x = rhs, returned as x + 1."""
    return (-a2 + math.sqrt(a2 * a2 + 4.0 * a1 * rhs)) / (2.0 * a1) + 1.0


def _carrier_coefficients(
    path: PathParams, center_freq_hz: float, kappa_a: float, s: float, c: float
) -> tuple[float, float, float]:
    """A1, A2 and A5 of the carrier-phase quadratic A1 (N-1)^2 + A2 (N-1) = A5."""
    d = path.scatterer_distance_m
    a5 = (kappa_a * kappa_a * c * c + 4.0 * kappa_a * c * d * center_freq_hz) / (
        4.0 * center_freq_hz * center_freq_hz
    )
    return s * s / 4.0, d * s * abs(path.sine_angle), a5


def boundary_coefficients(
    bandwidth_hz: float,
    path: PathParams,
    center_freq_hz: float,
    thr: SquintThresholds,
    *,
    spacing_m: float | None = None,
    wave_speed: float = SPEED_OF_LIGHT,
) -> QuadraticCoefficients:
    """A1..A5 for the antenna-count quadratics (A4 is the far-mode linear slope)."""
    c = wave_speed
    s = c / (2.0 * center_freq_hz) if spacing_m is None else spacing_m
    kappa = thr.total
    d = path.scatterer_distance_m
    a1, a2, a5 = _carrier_coefficients(path, center_freq_hz, thr.kappa_a, s, c)
    a3 = (kappa * kappa * c * c + 2.0 * kappa * c * d * bandwidth_hz) / (bandwidth_hz * bandwidth_hz)
    return QuadraticCoefficients(a1, a2, a3, d * s, a5)


def antenna_boundary(
    bandwidth_hz: float,
    path: PathParams,
    center_freq_hz: float,
    thr: SquintThresholds,
    field_mode: str = "near",
    *,
    spacing_m: float | None = None,
    wave_speed: float = SPEED_OF_LIGHT,
) -> Boundary:
    """Antenna count N_bar beyond which the squint phase exceeds the threshold.

    Near mode solves the quadratic A1 (N-1)^2 + A2 (N-1) = A3; far mode inverts
    the linear planar variation and is unbounded at broadside. Real-valued;
    always >= 1.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth_hz must be positive")
    c = wave_speed
    s = c / (2.0 * center_freq_hz) if spacing_m is None else spacing_m
    kappa = thr.total
    if field_mode == "far":
        theta = abs(path.sine_angle)
        if theta == 0.0:
            return UNBOUNDED
        return 2.0 * kappa * c / (bandwidth_hz * s * theta) + 1.0
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
    return _quadratic_root_plus_one(*_carrier_coefficients(path, center_freq_hz, kappa_a, s, c))


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
        freq_near_upper: Boundary = kappa * c / broadside_variation
    else:
        edge_freq = UNBOUNDED
        freq_near_upper = UNBOUNDED

    co = boundary_coefficients(b, path, fc, thr, spacing_m=s, wave_speed=c)
    antenna_lower = 2.0 * kappa * c / (b * s) + 1.0
    antenna_near_upper = math.sqrt(co.a3 / co.a1) + 1.0
    nf_lower = thr.kappa_a * c / (s * fc) + 1.0
    nf_upper = math.sqrt(co.a5 / co.a1) + 1.0

    return {
        "freq_near": BoundaryBound(edge_freq, freq_near_upper),
        "antenna_near": BoundaryBound(antenna_lower, antenna_near_upper),
        "freq_far": BoundaryBound(edge_freq, UNBOUNDED),
        "antenna_far": BoundaryBound(antenna_lower, UNBOUNDED),
        "near_threshold": BoundaryBound(nf_lower, nf_upper),
    }


def boundary_report(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    path: PathParams,
    thr: SquintThresholds,
) -> BoundaryReport:
    """Assemble every boundary, its bounds, and the quadratic coefficients."""
    co = boundary_coefficients(
        grid.bandwidth_hz, path, geom.center_freq_hz, thr,
        spacing_m=geom.spacing_m, wave_speed=geom.wave_speed,
    )
    return BoundaryReport(
        freq_boundary_near_hz=freq_boundary(geom, path, thr, "near"),
        antenna_boundary_near=float(
            antenna_boundary(
                grid.bandwidth_hz, path, geom.center_freq_hz, thr, "near",
                spacing_m=geom.spacing_m, wave_speed=geom.wave_speed,
            )
        ),
        freq_boundary_far_hz=freq_boundary(geom, path, thr, "far"),
        antenna_boundary_far=antenna_boundary(
            grid.bandwidth_hz, path, geom.center_freq_hz, thr, "far",
            spacing_m=geom.spacing_m, wave_speed=geom.wave_speed,
        ),
        near_field_threshold=near_field_threshold(
            path, geom.center_freq_hz, thr.kappa_a,
            spacing_m=geom.spacing_m, wave_speed=geom.wave_speed,
        ),
        bounds=boundary_bounds(geom, grid, path, thr),
        coeffs=co,
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
    n_bar = antenna_boundary(
        grid.bandwidth_hz, path, geom.center_freq_hz, thr, "near",
        spacing_m=geom.spacing_m, wave_speed=geom.wave_speed,
    )
    b_bar = freq_boundary(geom, path, thr, "near")
    if geom.num_antennas >= n_bar or grid.bandwidth_hz >= b_bar:
        return FieldModel.WIDEBAND_NEAR
    n_tilde = near_field_threshold(
        path, geom.center_freq_hz, thr.kappa_a,
        spacing_m=geom.spacing_m, wave_speed=geom.wave_speed,
    )
    if geom.num_antennas < n_tilde:
        return FieldModel.FAR
    return FieldModel.NARROWBAND_NEAR


def subband_phase_limit(
    paths_of_user: Sequence[PathParams],
    kappa_f: float = 0.125,
    wave_speed: float = SPEED_OF_LIGHT,
) -> Boundary:
    """Per-user bandwidth cap from multipath delay spread about the mean range.

    Returns kappa_f * c / max_l |r_l + d_l - mean(r + d)|; a single path (or any
    set with identical total ranges) is unconstrained.
    """
    if not paths_of_user:
        raise ValueError("at least one path is required")
    totals = [p.total_range_m for p in paths_of_user]
    center = sum(totals) / len(totals)
    deviation = max(abs(t - center) for t in totals)
    if deviation == 0.0:
        return UNBOUNDED
    return kappa_f * wave_speed / deviation
