"""Subarray planning and per-user sub-band allocation driven by the boundaries.

Antenna-domain slicing partitions the array into contiguous subarrays, each small
enough that its assigned path stays below the squint threshold over the full
band. Frequency-domain slicing partitions the band into per-user sub-bands, each
narrow enough for a fixed subarray size and for the user's multipath delay
spread. Both planners are deterministic and report infeasibility explicitly
instead of clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .boundaries import BoundaryTable, SquintThresholds, boundary_table
from .wavefield import ArrayGeometry, CarrierGrid, FieldModel, PathParams

#: guard applied before floor/ceil so boundary-exact sizes stay strictly inside
_EDGE_EPS = 1e-9


class InfeasiblePlanError(ValueError):
    """No plan satisfies the boundary constraints; details carry the numbers."""

    def __init__(self, message: str, details: dict | None = None) -> None:
        super().__init__(message)
        self.details = details or {}


@dataclass(frozen=True)
class SlicingPlan:
    """Contiguous partition of the array with one near-field path per subarray.

    ``path_assignment[t]`` indexes into ``path_order`` (0-based), which lists the
    near-field paths sorted by descending gain power; ``offsets[t]`` is the
    subarray center's element offset from the array center (units of spacing).
    Every near path has a subarray inside its window [ceil(N_tilde), floor(N_bar)],
    and the assignment reads (0, 1, ..., L - 1, 0, ..., 0) for L near paths.
    """

    subarray_sizes: tuple[int, ...]
    path_assignment: tuple[int, ...]
    path_order: tuple[int, ...]
    offsets: tuple[float, ...]
    num_antennas: int

    def to_json_dict(self) -> dict:
        return {
            "subarrays": [
                {"size": size, "path": path, "offset": offset}
                for size, path, offset in zip(
                    self.subarray_sizes, self.path_assignment, self.offsets
                )
            ]
        }


@dataclass(frozen=True)
class UserSubband:
    """One user's contiguous slice of the OFDM grid."""

    user: int
    num_subcarriers: int
    start: int  # global index of the first owned subcarrier
    subcarrier_spacing_hz: float
    center_hz: float

    @property
    def bandwidth_hz(self) -> float:
        return self.num_subcarriers * self.subcarrier_spacing_hz

    def global_indices(self) -> range:
        return range(self.start, self.start + self.num_subcarriers)


@dataclass(frozen=True)
class SubbandPlan:
    """Per-user sub-bands of the full band, the subarray size and the caps' boundary table."""

    subbands: tuple[UserSubband, ...]
    subarray_size: int
    boundaries: BoundaryTable | None = field(default=None, compare=False, repr=False)

    @property
    def user_subcarriers(self) -> tuple[int, ...]:
        return tuple(sb.num_subcarriers for sb in self.subbands)

    def to_json_dict(self) -> dict:
        return {
            "subbands": [
                {
                    "bandwidth_hz": sb.bandwidth_hz,
                    "subcarriers": sb.num_subcarriers,
                    "center_hz": sb.center_hz,
                }
                for sb in self.subbands
            ]
        }


# ---------------------------------------------------------------------------
# antenna-domain planner
# ---------------------------------------------------------------------------


def plan_antenna_slices(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    paths: Sequence[PathParams],
    thr: SquintThresholds,
    *,
    table: BoundaryTable | None = None,
    user: int = 0,
) -> SlicingPlan:
    """Partition the array into contiguous subarrays over the near-field paths.

    Paths are ranked by descending gain power, and each path's window
    [ceil(N_tilde), floor(N_bar)] comes from row ``user`` of ``table``, the
    draw's :func:`boundary_table`, built here when not given. Every weaker path
    gets one subarray of its smallest compliant size ceil(N_tilde). The
    strongest path takes the remaining R antennas in the fewest subarrays its
    window allows, q = ceil(R / floor(N_bar)), whose sizes differ by at most
    one. The layout is the strongest path's first subarray, the weaker paths'
    in rank order, then the strongest path's other q - 1. This follows the
    antenna-slicing SINR P (sum_t |g_t|^2 N_t^2)^2 / (sigma^2 sum_t |g_t|^2 N_t^3)
    of :func:`se_slicing_closed_form`, which is at most
    P sum_t |g_t|^2 N_t / sigma^2 (Cauchy-Schwarz, tight for equal N_t):
    antennas earn the most on the strongest path. The plan is infeasible when
    a window is empty or R < q ceil(N_tilde) of the strongest path; then no
    block count fits R into that path's window.
    """
    near = [i for i, p in enumerate(paths) if p.field_model is not FieldModel.FAR]
    if not near:
        raise InfeasiblePlanError("no near-field paths to serve")
    order = sorted(near, key=lambda i: -abs(paths[i].gain) ** 2)
    num_near = len(order)

    if table is None:
        table = boundary_table(geom, grid, thr, [paths])
    n_tilde, n_bar = table.near_threshold[user].tolist(), table.antenna[user].tolist()
    lows = [max(1, math.ceil(n_tilde[i] - _EDGE_EPS)) for i in order]
    highs = [math.floor(n_bar[i] - _EDGE_EPS) for i in order]

    n = geom.num_antennas
    for j in range(num_near):
        if highs[j] < lows[j]:
            raise InfeasiblePlanError(
                "a path admits no compliant subarray size",
                {"path": order[j], "window": (lows[j], highs[j])},
            )
    remainder = n - sum(lows[1:])
    q = max(1, math.ceil(remainder / highs[0]))
    if remainder < q * lows[0]:
        raise InfeasiblePlanError(
            "the array cannot host a compliant subarray for every near path",
            {"num_antennas": n, "min_size": lows[0], "remainder": remainder, "blocks": q,
             "window": (lows[0], highs[0])},
        )
    base, extra = divmod(remainder, q)
    strongest = [base + 1] * extra + [base] * (q - extra)
    sizes = strongest[:1] + lows[1:] + strongest[1:]
    assign = [0, *range(1, num_near)] + [0] * (q - 1)

    offsets = []
    acc = 0
    for size in sizes:
        offsets.append(-n / 2.0 + acc + size / 2.0)
        acc += size
    return SlicingPlan(tuple(sizes), tuple(assign), tuple(order), tuple(offsets), n)


# ---------------------------------------------------------------------------
# frequency-domain allocator
# ---------------------------------------------------------------------------


def subcarrier_caps(table: BoundaryTable, grid: CarrierGrid) -> NDArray[np.int64]:
    """Per-user sub-band size caps: squint at the table's subarray scale, delay spread.

    A user's tightest limit allows the largest size whose occupied span
    (M_s - 1) * df stays below it, clipped to [1, M]; inf allows all M.
    """
    squint = np.min(table.freq_subarray, axis=1, where=table.near, initial=math.inf)
    limit = np.minimum(squint, table.delay_spread)
    cap = np.floor(limit / grid.subcarrier_spacing_hz - _EDGE_EPS) + 1
    return np.clip(cap, 1, grid.num_subcarriers).astype(np.int64)


def allocate_subbands(
    users: Sequence[Sequence[PathParams]],
    geom: ArrayGeometry,
    grid: CarrierGrid,
    thr: SquintThresholds,
    num_subarrays: int,
) -> SubbandPlan:
    """Partition the band into per-user sub-bands under per-user caps.

    Caps combine the squint frequency boundary evaluated for one subarray of
    N / num_subarrays antennas with the user's multipath delay-spread limit,
    both discretized to the occupied subcarrier span (:func:`subcarrier_caps`
    of one :func:`boundary_table` of the users). Shares start equal, are
    clipped to the caps, and the leftover subcarriers are handed out
    round-robin to users with slack.
    """
    k_users = len(users)
    if k_users < 1:
        raise ValueError("at least one user is required")
    if geom.num_antennas % num_subarrays != 0:
        raise ValueError("num_subarrays must divide num_antennas")
    m_total = grid.num_subcarriers
    if k_users > m_total:
        raise InfeasiblePlanError(
            "more users than subcarriers", {"users": k_users, "subcarriers": m_total}
        )
    size = geom.num_antennas // num_subarrays

    table = boundary_table(geom, grid, thr, users, size)
    caps = subcarrier_caps(table, grid).tolist()
    if sum(caps) < m_total:
        raise InfeasiblePlanError(
            "per-user caps cannot cover the band",
            {"caps": caps, "required": m_total},
        )

    shares = [m_total // k_users] * k_users
    for k in range(m_total % k_users):
        shares[k] += 1
    shares = [min(sh, cap) for sh, cap in zip(shares, caps)]
    deficit = m_total - sum(shares)
    k = 0
    while deficit > 0:
        idx = k % k_users
        if shares[idx] < caps[idx]:
            shares[idx] += 1
            deficit -= 1
        k += 1

    band = grid.bandwidth_hz
    f_c = geom.center_freq_hz
    spacing = grid.subcarrier_spacing_hz
    subbands = []
    start = 0
    for k, count in enumerate(shares):
        width = count * spacing
        center = f_c - band / 2.0 + start * spacing + width / 2.0
        subbands.append(UserSubband(k, count, start, spacing, center))
        start += count
    return SubbandPlan(tuple(subbands), size, table)
