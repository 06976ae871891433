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
from .wavefield import ArrayGeometry, CarrierGrid, FieldModel, PathBatch, PathParams, path_slots

#: guard applied before floor/ceil so boundary-exact sizes stay strictly inside
_EDGE_EPS = 1e-9


class InfeasiblePlanError(ValueError):
    """No plan satisfies the boundary constraints; details carry the numbers.

    ``users`` flags every infeasible row of a :func:`plan_antenna_rows` batch.
    """

    def __init__(self, message: str, details: dict | None = None,
                 users: NDArray[np.bool_] | None = None) -> None:
        super().__init__(message)
        self.details = details or {}
        self.users = users


@dataclass(frozen=True, eq=False)
class SliceBlocks:
    """The antenna-slicing plans of several users as flat per-block arrays.

    Blocks run in user order, and each user's ``sizes`` partition the array
    in element order. ``paths[b]`` indexes block b's near path in its user's
    path list, and ``offsets[b]`` is the block center's element offset from
    the array center (units of spacing).
    """

    sizes: NDArray[np.int64]
    paths: NDArray[np.int64]
    offsets: NDArray[np.float64]

    def to_json_dict(self) -> dict:
        return {
            "subarrays": [
                {"size": size, "path": path, "offset": offset}
                for size, path, offset in zip(
                    self.sizes.tolist(), self.paths.tolist(), self.offsets.tolist()
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
    """Per-user sub-bands of the full band, the subarray size, and the caps' boundary
    table with the users' path slots it was built from."""

    subbands: tuple[UserSubband, ...]
    subarray_size: int
    boundaries: BoundaryTable | None = field(default=None, compare=False, repr=False)
    slots: list[PathBatch] | None = field(default=None, compare=False, repr=False)

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
) -> SliceBlocks:
    """Partition the array into contiguous subarrays over the near-field paths.

    The one-user case of :func:`plan_antenna_rows`, on the paths' one-row
    :func:`boundary_table`.
    """
    slots = path_slots([paths])
    return plan_antenna_rows(geom, slots, boundary_table(geom, grid, thr, slots))


def plan_antenna_rows(
    geom: ArrayGeometry,
    slots: Sequence[PathBatch],
    table: BoundaryTable,
) -> SliceBlocks:
    """Every user's antenna-slicing plan in one pass over the rows of ``table``.

    ``slots`` are the users' :func:`path_slots`, and row k of ``table``
    holds user k's boundaries. In each row the near paths are ranked by
    descending gain power (ties keep path order), and each
    path's window [ceil(N_tilde), floor(N_bar)] comes from the row. Every
    weaker path gets one subarray of its smallest compliant size
    ceil(N_tilde). The strongest path takes the remaining R antennas in the
    fewest subarrays its window allows, q = ceil(R / floor(N_bar)), whose
    sizes differ by at most one. The layout is the strongest path's first
    subarray, the weaker paths' in rank order, then the strongest path's
    other q - 1. This follows the antenna-slicing SINR
    P (sum_t |g_t|^2 N_t^2)^2 / (sigma^2 sum_t |g_t|^2 N_t^3) of
    :func:`se_slicing_closed_form`, which is at most
    P sum_t |g_t|^2 N_t / sigma^2 (Cauchy-Schwarz, tight for equal N_t):
    antennas earn the most on the strongest path. A plan is infeasible when
    its user has no near path, a window is empty, or R < q ceil(N_tilde) of
    the strongest path; then no block count fits R into that path's window.
    The first infeasible user's :class:`InfeasiblePlanError` is raised, and
    its ``users`` flags every infeasible row.
    """
    n = geom.num_antennas
    near = table.near
    num_users, width = near.shape
    gain_power = np.abs(PathBatch.join(slots, FieldModel.NARROWBAND_NEAR).gain) ** 2
    order = np.argsort(np.where(near, -gain_power, math.inf), axis=1, kind="stable")
    num_near = np.count_nonzero(near, axis=1)
    ranked = np.arange(width) < num_near[:, None]  # rank slots that hold a near path
    rows = np.arange(num_users)[:, None]
    lows = np.maximum(1, np.ceil(table.near_threshold[rows, order] - _EDGE_EPS)).astype(np.int64)
    highs = np.floor(table.antenna[rows, order] - _EDGE_EPS).astype(np.int64)
    empty = ranked & (highs < lows)
    remainder = n - np.sum(lows[:, 1:], axis=1, where=ranked[:, 1:])
    # a row whose strongest window is empty raises below; the guard keeps q finite
    q = np.maximum(1, np.ceil(remainder / np.maximum(highs[:, 0], 1))).astype(np.int64)
    infeasible = (num_near == 0) | empty.any(axis=1) | (remainder < q * lows[:, 0])
    if infeasible.any():
        k = int(np.argmax(infeasible))
        if num_near[k] == 0:
            message, details = "no near-field paths to serve", None
        elif empty[k].any():
            j = int(np.argmax(empty[k]))
            message = "a path admits no compliant subarray size"
            details = {"path": int(order[k, j]), "window": (int(lows[k, j]), int(highs[k, j]))}
        else:
            message = "the array cannot host a compliant subarray for every near path"
            details = {"num_antennas": n, "min_size": int(lows[k, 0]),
                       "remainder": int(remainder[k]), "blocks": int(q[k]),
                       "window": (int(lows[k, 0]), int(highs[k, 0]))}
        raise InfeasiblePlanError(message, details, infeasible)

    base, extra = np.divmod(remainder, q)
    counts = num_near + q - 1  # blocks per user
    user = np.repeat(np.arange(num_users), counts)
    t = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    weak = (t >= 1) & (t < num_near[user])
    rank = np.where(weak, t, 0)
    strong = np.maximum(t - num_near[user] + 1, 0)  # index among the strongest's blocks
    sizes = np.where(weak, lows[user, rank], base[user] + (strong < extra[user]))
    acc = np.cumsum(sizes) - sizes - user * n  # antennas before the block in its row
    return SliceBlocks(sizes, order[user, rank], -n / 2.0 + acc + sizes / 2.0)


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
    if num_subarrays < 1 or geom.num_antennas % num_subarrays != 0:
        raise ValueError("num_subarrays must be positive and divide num_antennas")
    m_total = grid.num_subcarriers
    if k_users > m_total:
        raise InfeasiblePlanError(
            "more users than subcarriers", {"users": k_users, "subcarriers": m_total}
        )
    size = geom.num_antennas // num_subarrays

    slots = path_slots(users)
    table = boundary_table(geom, grid, thr, slots, size)
    caps = subcarrier_caps(table, grid).tolist()
    if sum(caps) < m_total:
        raise InfeasiblePlanError(
            "per-user caps cannot cover the band",
            {"caps": caps, "required": m_total},
        )

    shares = [m_total // k_users + (k < m_total % k_users) for k in range(k_users)]
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
    return SubbandPlan(tuple(subbands), size, table, slots)
