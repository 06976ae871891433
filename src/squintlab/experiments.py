"""Sweep experiments and CSV emission.

``gain-map``, ``sweep-bandwidth`` and ``sweep-antennas`` are deterministic:
they evaluate fixed paths once per axis point and report one trial. Every
other experiment draws per-trial channels from counter-based substreams, runs
a fixed set of precoding schemes, and averages spectral efficiency over trials
in ascending-trial order, so the emitted CSV is byte-identical for any worker
count. The worker pool runs chunks of consecutive trials, and a chunk of
single links is evaluated as one batch. One reducer serves every Monte Carlo
experiment: an axis point whose slicing plan is infeasible in a trial is
skipped and counted per axis point in the result metadata; the trials kept at
a point still form a paired comparison because every scheme sees the same
draws.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .boundaries import BoundaryTable, boundary_table
from .precoding import (
    Scheme,
    narrowband_beams,
    normalized_array_gain,
    owner_gain_amplitudes,
    slice_analog_rows,
    subband_analog_rows,
)
from .scenario import ScenarioConfig, sample_scenario, sample_user_paths
from .slicing import (
    InfeasiblePlanError,
    allocate_subbands,
    plan_antenna_rows,
)
from .wavefield import (
    ArrayGeometry,
    CarrierGrid,
    PathBatch,
    PathParams,
    channel_columns,
    path_slots,
    slab_rows,
)

CSV_HEADER = "axis,scheme,se_bits_per_hz,trials,seed,boundary_b_wn_hz,boundary_n_wn"

_AS_SCHEMES = (Scheme.ANTENNA_SLICING, Scheme.NARROWBAND_BASELINE, Scheme.OPTIMAL)
_FS_SCHEMES = (
    Scheme.SUBBAND_SLICING,
    Scheme.ANTENNA_SLICING,
    Scheme.NARROWBAND_BASELINE,
    Scheme.OPTIMAL,
)

#: the fixed path of the boundary sweeps: theta = 0.1, d = r = 10 m, unit gain
_SWEEP_SLOTS = path_slots([[PathParams(1.0, 0.1, 10.0, 10.0)]])
_SNR_AXIS_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
_BOUNDARY_MULTS = (
    0.25, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05,
    1.1, 1.15, 1.2, 1.3, 1.5, 2.0, 2.5, 3.0, 3.25,
)
_PATH_AXIS = (1, 2, 3, 4, 5, 6)
_SUBARRAY_AXIS = (2, 4, 8, 16, 32)
_GAIN_MAP_CURVES = (
    (0.1, 20.0), (0.3, 20.0), (0.5, 20.0), (0.8, 20.0),
    (0.1, 10.0), (0.1, 50.0), (0.1, 100.0),
)
#: channel bytes of one pool task's chunk of link draws (see _trials_per_task):
#: eight 256 x 64 trials, one 1024 x 256 trial. The chunk's products go
#: through slabs (wavefield.slab_rows), so its tracemalloc peak is the
#: channel plus a fixed share: 3.42 MiB for eight 256 x 64 trials, where
#: three took 1.96 MiB (2.6x their channel) before the slabs
_CHUNK_BYTES = 2 << 20


def resolve_threads() -> int:
    """Worker count from SQUINTLAB_THREADS (0 or unset means auto)."""
    raw = os.environ.get("SQUINTLAB_THREADS", "0")
    try:
        count = int(raw)
    except ValueError as exc:
        raise ValueError(f"SQUINTLAB_THREADS must be an integer, got {raw!r}") from exc
    if count < 0:
        raise ValueError("SQUINTLAB_THREADS must be nonnegative")
    if count == 0:
        return os.cpu_count() or 1
    return count


def _map_trials(trials: int, fn: Callable[[int], object]) -> list:
    """Run fn(0..trials-1), possibly concurrently, collecting in index order."""
    workers = min(resolve_threads(), trials)
    if workers <= 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


# ---------------------------------------------------------------------------
# results container
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.12g}"


@dataclass(frozen=True)
class SweepRow:
    axis: float
    scheme: str
    se: float
    boundary_b_wn_hz: float | None
    boundary_n_wn: float | None


@dataclass(frozen=True)
class SweepResult:
    """Sweep output: rows in emission order plus run metadata."""

    axis_name: str
    rows: tuple[SweepRow, ...]
    trials: int
    seed: int
    meta: dict

    @property
    def axis_values(self) -> tuple[float, ...]:
        seen: dict[float, None] = {}
        for row in self.rows:
            seen.setdefault(row.axis)
        return tuple(seen)

    @property
    def schemes(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.scheme)
        return tuple(seen)

    @property
    def se_per_scheme(self) -> dict[str, tuple[float, ...]]:
        out: dict[str, list[float]] = {s: [] for s in self.schemes}
        for row in self.rows:
            out[row.scheme].append(row.se)
        return {s: tuple(v) for s, v in out.items()}

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            b = "" if row.boundary_b_wn_hz is None else _fmt(row.boundary_b_wn_hz)
            n = "" if row.boundary_n_wn is None else _fmt(row.boundary_n_wn)
            lines.append(
                f"{_fmt(row.axis)},{row.scheme},{_fmt(row.se)},"
                f"{self.trials},{self.seed},{b},{n}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_csv())


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _finite_min(values: np.ndarray) -> float | None:
    return min((v for v in values.tolist() if v < np.inf), default=None)


def _binding_boundaries(
    table: BoundaryTable, rows: int | slice = slice(None),
) -> tuple[float | None, float | None]:
    """Most restrictive near-mode boundaries over the near-field paths of ``rows``."""
    near = table.near[rows]
    return _finite_min(table.freq[rows][near]), _finite_min(table.antenna[rows][near])


def _mean_or_none(values: Sequence[float | None]) -> float | None:
    kept = [v for v in values if v is not None]
    return float(np.mean(kept)) if kept else None


def _antenna_slicing_amps(
    geom: ArrayGeometry,
    slots: Sequence[PathBatch],
    table: BoundaryTable,
    owners: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Antenna-slicing amplitude of each column under its owner's plan.

    Plans every user from its row of ``table``, builds the K x N analog rows
    and takes one :func:`owner_gain_amplitudes` product; raises the first
    infeasible user's InfeasiblePlanError.
    """
    blocks = plan_antenna_rows(geom, slots, table)
    return owner_gain_amplitudes(slice_analog_rows(geom, slots, blocks), blocks.sizes,
                                 owners, cols)


def _link_amps(
    geom: ArrayGeometry,
    slots: Sequence[PathBatch],
    cols: np.ndarray,
    table: BoundaryTable,
) -> dict[str, np.ndarray]:
    """Per-subcarrier beamforming amplitudes |f^H h| of T link draws, per scheme.

    The draws are T users of the multiuser batch, each owning its own M
    subcarriers: ``slots`` are their :func:`path_slots`, ``cols`` their
    (T M) x N channel, as :func:`channel_columns` builds it from the slots,
    and ``table`` their T-row :func:`boundary_table`. Every scheme's
    amplitudes run over the T M subcarriers. The baseline takes one BLAS product per draw, which
    rounds as ``entries @ beam.conj()`` of the draw alone. The optimum's row
    norms are taken one slab of rows at a time (:func:`slab_rows`), each row
    as alone. Raises the first infeasible draw's InfeasiblePlanError.
    """
    count = len(table.near)
    owners = np.repeat(np.arange(count), cols.shape[0] // count)
    beams = narrowband_beams(geom, slots)
    per_draw = cols.reshape(count, -1, cols.shape[1])
    step = slab_rows(16 * cols.shape[1])
    return {
        Scheme.ANTENNA_SLICING.value: _antenna_slicing_amps(geom, slots, table, owners, cols),
        Scheme.NARROWBAND_BASELINE.value:
            np.abs(np.matmul(per_draw, beams.conj()[:, :, None])).ravel(),
        Scheme.OPTIMAL.value: np.concatenate([np.linalg.norm(cols[c:c + step], axis=1)
                                              for c in range(0, len(cols), step)]),
    }


def _rates(amps: np.ndarray, power: float, noise_power: float) -> np.ndarray:
    return np.log2(1.0 + power * amps**2 / noise_power)


def _mean_se(
    amps: dict[str, np.ndarray], schemes: Sequence[Scheme], widths: Sequence[int],
    powers: Sequence[float], noise_power: float,
) -> np.ndarray:
    """(1/K) sum over users of their sub-band-average rate, per power and scheme.

    ``widths`` are the users' sub-band widths in user order; they partition
    the M subcarriers, and a single link is ``widths=(M,)``. Row i of the
    result holds every scheme's SE at ``powers[i]``. Each width group is
    gathered contiguous, so every user's subcarriers are summed pairwise as
    ``np.mean`` sums one user's slice, and the user mean runs over a
    users-first array, so it adds the users in order.
    """
    power = np.asarray(powers, dtype=np.float64)[:, None, None]
    tables = _rates(np.stack([amps[s.value] for s in schemes]), power, noise_power)
    sizes = np.asarray(widths)
    starts = np.cumsum(sizes) - sizes
    per_user = np.empty((len(sizes),) + tables.shape[:2])
    for w in sorted(set(widths)):
        members = np.flatnonzero(sizes == w)
        cols = np.ascontiguousarray(tables[..., starts[members][:, None] + np.arange(w)])
        per_user[members] = np.mean(cols, axis=-1).transpose(2, 0, 1)
    return np.mean(per_user, axis=0)


# ---------------------------------------------------------------------------
# the sweep reducer
# ---------------------------------------------------------------------------


def _feasible(fn: Callable, *args):
    """fn(*args), or None when its slicing plan is infeasible."""
    try:
        return fn(*args)
    except InfeasiblePlanError:
        return None


def _sweep(
    config: ScenarioConfig,
    name: str,
    axis_name: str,
    axis_values: Sequence[float],
    schemes: Sequence[Scheme],
    trial_fn: Callable[[range], list],
    chunk: int,
) -> SweepResult:
    """The one reducer: per axis point, average over the trials feasible there.

    ``trial_fn(trials)`` evaluates a range of at most ``chunk`` consecutive
    trials, one range per pool task, and returns one item per trial: None to
    void every point of the trial, else one entry per axis point. An entry is
    None when that point's plan is infeasible, else (SE per scheme, (b, n)
    boundary columns, users served). Trials reduce in ascending order for any
    worker count.
    """

    def task(index: int) -> list:
        return trial_fn(range(index * chunk, min((index + 1) * chunk, config.trials)))

    results = [entries or [None] * len(axis_values)
               for part in _map_trials(-(-config.trials // chunk), task) for entries in part]
    rows, completed, users = [], {}, []
    for i, value in enumerate(map(float, axis_values)):
        kept = [r[i] for r in results if r[i] is not None]
        if not kept:
            raise InfeasiblePlanError(
                f"every trial of {name} at {axis_name}={_fmt(value)} drew an "
                "infeasible slicing scenario"
            )
        mean_se = np.mean(np.stack([se for se, _, _ in kept]), axis=0)
        b_col = _mean_or_none([b for _, (b, _), _ in kept])
        n_col = _mean_or_none([n for _, (_, n), _ in kept])
        rows += [SweepRow(value, scheme.value, float(mean_se[j]), b_col, n_col)
                 for j, scheme in enumerate(schemes)]
        completed[value] = len(kept)
        users += [k for _, _, k in kept]
    meta = {
        "experiment": name,
        "config": config.to_dict(),
        "infeasible_trials": {v: config.trials - c for v, c in completed.items()},
        "completed_trials": completed,
        "mean_users": float(np.mean(users)),
    }
    return SweepResult(axis_name, tuple(rows), config.trials, config.seed, meta)


# ---------------------------------------------------------------------------
# deterministic single-path experiments: one evaluation per axis point
# ---------------------------------------------------------------------------


def _experiment_gain_map(config: ScenarioConfig) -> SweepResult:
    geom, grid, thr = config.geometry(), config.grid(), config.thresholds()
    curves = []
    for theta, d in _GAIN_MAP_CURVES:
        path = PathParams(1.0, theta, d, 0.0)
        label = f"eta_theta{theta:g}_d{d:g}"
        eta = np.asarray(normalized_array_gain(geom, grid, path))
        near = boundary_table(geom, grid, thr, path_slots([[path]]))
        b, n = float(near.freq[0, 0]), float(near.antenna[0, 0])
        curves.append((label, eta, b if np.isfinite(b) else None, n))
    rows = [
        SweepRow(float(m), label, float(eta[m]), b, n)
        for m in range(grid.num_subcarriers)
        for label, eta, b, n in curves
    ]
    meta = {"experiment": "gain-map", "config": config.to_dict()}
    return SweepResult("subcarrier_index", tuple(rows), 1, config.seed, meta)


def _fixed_sweep(config: ScenarioConfig, name: str, axis_name: str,
                 points: Sequence[tuple[float, ArrayGeometry, CarrierGrid]],
                 n_col: float | None = None) -> SweepResult:
    """One evaluation of the sweep path per (axis value, geometry, grid) point.

    The path has unit gain at the configured power: a drawn gain g with the
    power re-anchored to the SNR, P / |g|^2, gives the same SE up to rounding,
    so there is nothing to average. The boundary columns are the point's B_bar
    and N_bar, or ``n_col`` for every N_bar. Raises InfeasiblePlanError naming
    the first point whose plan is infeasible.
    """
    thr, rows = config.thresholds(), []
    for value, geom, grid in points:
        table = boundary_table(geom, grid, thr, _SWEEP_SLOTS)
        try:
            cols = channel_columns(geom, grid, [slot[:, None] for slot in _SWEEP_SLOTS])
            amps = _link_amps(geom, _SWEEP_SLOTS, cols, table)
        except InfeasiblePlanError as exc:
            raise InfeasiblePlanError(f"{name} at {axis_name}={_fmt(value)}: {exc}") from exc
        se = _mean_se(amps, _AS_SCHEMES, (grid.num_subcarriers,), [config.power],
                      config.noise_power)[0]
        b = float(table.freq[0, 0])
        n = float(table.antenna[0, 0]) if n_col is None else n_col
        rows += [SweepRow(value, s.value, float(se[j]), b, n) for j, s in enumerate(_AS_SCHEMES)]
    meta = {"experiment": name, "config": config.to_dict()}
    return SweepResult(axis_name, tuple(rows), 1, config.seed, meta)


def _experiment_sweep_bandwidth(config: ScenarioConfig) -> SweepResult:
    geom = config.geometry()
    b_ref = float(boundary_table(geom, config.grid(), config.thresholds(),
                                 _SWEEP_SLOTS).freq[0, 0])
    axis = [b_ref * mult for mult in _BOUNDARY_MULTS]
    points = [(b, geom, CarrierGrid.from_bandwidth(b, config.num_subcarriers)) for b in axis]
    return _fixed_sweep(config, "sweep-bandwidth", "bandwidth_hz", points)


def _experiment_sweep_antennas(config: ScenarioConfig) -> SweepResult:
    ref_grid = CarrierGrid.from_bandwidth(config.bandwidth_hz, 1)  # B exactly, not M (B / M)
    n_ref = float(boundary_table(config.geometry(), ref_grid, config.thresholds(),
                                 _SWEEP_SLOTS).antenna[0, 0])
    axis_n: list[int] = []
    for mult in _BOUNDARY_MULTS:
        n = max(4, int(round(n_ref * mult)))
        if n not in axis_n:
            axis_n.append(n)
    points = [(float(n), ArrayGeometry(n, config.center_freq_hz), config.grid()) for n in axis_n]
    return _fixed_sweep(config, "sweep-antennas", "num_antennas", points, n_ref)


# ---------------------------------------------------------------------------
# Monte Carlo draws: a single link is the one-user, one-sub-band draw
# ---------------------------------------------------------------------------


def _link_draws(config: ScenarioConfig, trials: range) -> list:
    """Per trial: amplitudes, sub-band widths (M,) and binding boundary columns of
    its link draw, or None when the draw's slicing plan is infeasible.

    The trials' draws are one batch: one set of path slots, one boundary
    table, one channel and one :func:`_link_amps` call. When the batch holds
    an infeasible draw, each draw is evaluated again on its own rows of them.
    """
    geom, grid, thr = config.geometry(), config.grid(), config.thresholds()
    m = grid.num_subcarriers
    slots = path_slots([sample_scenario(config, trial) for trial in trials])
    table = boundary_table(geom, grid, thr, slots)
    cols = channel_columns(geom, grid, [slot[:, None] for slot in slots])
    try:
        batch = _link_amps(geom, slots, cols, table)
        amps = [{scheme: values[t * m:(t + 1) * m] for scheme, values in batch.items()}
                for t in range(len(trials))]
    except InfeasiblePlanError:
        amps = [_feasible(_link_amps, geom, [slot[t:t + 1] for slot in slots],
                          cols[t * m:(t + 1) * m], table[t:t + 1])
                for t in range(len(trials))]
    return [None if a is None else (a, (m,), _binding_boundaries(table, t))
            for t, a in enumerate(amps)]


def _allocate_adaptive(config: ScenarioConfig, trial: int):
    """Draw users and allocate sub-bands, doubling the user count on infeasibility.

    Growing the user pool re-uses the trial substream, so existing users'
    draws never change; K is capped at M where one-subcarrier sub-bands make
    the allocation always feasible.
    """
    geom, grid, thr = config.geometry(), config.grid(), config.thresholds()
    k = min(config.num_users, config.num_subcarriers)
    while True:
        users = sample_user_paths(config, trial, k)
        try:
            plan = allocate_subbands(users, geom, grid, thr, config.num_subarrays)
        except InfeasiblePlanError:
            if k >= config.num_subcarriers:
                raise
            k = min(2 * k, config.num_subcarriers)
            continue
        return users, plan


def _fs_trial_amps(config: ScenarioConfig, trial: int):
    """Every scheme's amplitude per subcarrier of one multiuser draw.

    Returns ({scheme: M amplitudes}, sub-band plan, binding boundary columns);
    subcarrier m is evaluated for the user whose sub-band holds it. The
    served users' sub-bands partition the M subcarriers in user order, so
    the whole draw is one batch: one M x N ``channel_columns`` call, one
    :func:`plan_antenna_rows` pass over the plan's boundary table, one call
    per scheme for the K x N analog rows from the users' path slots, and one
    batched product per scheme.
    """
    geom, grid = config.geometry(), config.grid()
    users, plan = _allocate_adaptive(config, trial)
    slots = path_slots(users)
    owners = np.repeat(np.arange(len(users)), plan.user_subcarriers)
    cols = channel_columns(geom, grid, [slot[owners] for slot in slots])
    fs_rows = subband_analog_rows(geom, slots, [sb.center_hz for sb in plan.subbands])
    fs_sizes = np.full(len(users) * config.num_subarrays, plan.subarray_size)
    beams = narrowband_beams(geom, slots)
    amps = {
        Scheme.SUBBAND_SLICING.value: owner_gain_amplitudes(fs_rows, fs_sizes, owners, cols),
        Scheme.ANTENNA_SLICING.value: _antenna_slicing_amps(geom, slots, plan.boundaries,
                                                            owners, cols),
        Scheme.NARROWBAND_BASELINE.value: np.abs(np.sum(beams.conj()[owners] * cols, axis=1)),
        Scheme.OPTIMAL.value: np.linalg.norm(cols, axis=1),
    }
    return amps, plan, _binding_boundaries(plan.boundaries)


def _fs_draw(config: ScenarioConfig, trial: int):
    """Amplitudes, users' sub-band widths and binding boundary columns of one multiuser draw."""
    amps, plan, bounds = _fs_trial_amps(config, trial)
    return amps, plan.user_subcarriers, bounds


def _fs_draws(config: ScenarioConfig, trials: range) -> list:
    """Per trial: its multiuser draw, or None when no plan is feasible."""
    return [_feasible(_fs_draw, config, trial) for trial in trials]


# ---------------------------------------------------------------------------
# Monte Carlo experiments: one builder per axis, each over a draw
# ---------------------------------------------------------------------------


def _trials_per_task(config: ScenarioConfig, draw: Callable) -> int:
    """Trials one pool task evaluates: as many link draws as fit _CHUNK_BYTES of
    (T M) x N channel, at least one, and no more than an even share of the
    trials per worker, so a short sweep leaves no worker idle; a multiuser draw
    already batches its users, so it runs one trial per task."""
    if draw is _fs_draws:
        return 1
    share = -(-config.trials // resolve_threads())
    return max(1, min(share, _CHUNK_BYTES // (16 * config.num_antennas * config.num_subcarriers)))


def _each_draw(config: ScenarioConfig, draw: Callable, entries: Callable) -> Callable:
    """trial_fn of one draw per trial: ``entries(*drawn)`` per feasible draw."""
    def trial_fn(trials: range) -> list:
        return [None if drawn is None else entries(*drawn) for drawn in draw(config, trials)]

    return trial_fn


def _snr_experiment(name: str, schemes: Sequence[Scheme], draw: Callable):
    """SE against SNR: every power of the axis reduces one draw per trial."""
    def experiment(config: ScenarioConfig) -> SweepResult:
        power = [10.0 ** (snr / 10.0) * config.noise_power for snr in _SNR_AXIS_DB]

        def entries(amps, widths, bounds):
            se = _mean_se(amps, schemes, widths, power, config.noise_power)
            return [(row, bounds, len(widths)) for row in se]

        return _sweep(config, name, "snr_db", _SNR_AXIS_DB, schemes,
                      _each_draw(config, draw, entries), _trials_per_task(config, draw))

    return experiment


def _subcarrier_experiment(name: str, schemes: Sequence[Scheme], draw: Callable):
    """Rate per subcarrier at the configured power, one draw per trial."""
    def experiment(config: ScenarioConfig) -> SweepResult:
        axis = [float(m) for m in range(config.num_subcarriers)]

        def entries(amps, widths, bounds):
            table = np.stack([_rates(amps[s.value], config.power, config.noise_power)
                              for s in schemes], axis=1)
            return [(row, bounds, len(widths)) for row in table]

        return _sweep(config, name, "subcarrier_index", axis, schemes,
                      _each_draw(config, draw, entries), _trials_per_task(config, draw))

    return experiment


def _field_experiment(name: str, schemes: Sequence[Scheme], draw: Callable, field: str,
                      axis: Callable[[ScenarioConfig], Sequence[int]]):
    """SE against one config field: one draw per trial and value of ``axis(config)``."""
    def experiment(config: ScenarioConfig) -> SweepResult:
        values = axis(config)
        configs = [config.replace(**{field: value}) for value in values]

        def trial_fn(trials: range) -> list:
            points = [[None if drawn is None else _se_point(point, schemes, *drawn)
                       for drawn in draw(point, trials)] for point in configs]
            return [list(entries) for entries in zip(*points)]

        return _sweep(config, name, field, values, schemes, trial_fn,
                      _trials_per_task(config, draw))

    return experiment


def _se_point(config: ScenarioConfig, schemes: Sequence[Scheme], amps, widths, bounds):
    """Reducer entry of one draw at the configured power."""
    se = _mean_se(amps, schemes, widths, [config.power], config.noise_power)[0]
    return se, bounds, len(widths)


def _subarray_axis(config: ScenarioConfig) -> list[int]:
    """The subarray counts of the axis that divide the antenna count."""
    axis_t = [t for t in _SUBARRAY_AXIS if config.num_antennas % t == 0]
    if not axis_t:
        raise ValueError("no subarray count in the axis divides num_antennas")
    return axis_t


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[[ScenarioConfig], SweepResult]] = {
    "gain-map": _experiment_gain_map,
    "sweep-bandwidth": _experiment_sweep_bandwidth,
    "sweep-antennas": _experiment_sweep_antennas,
    "se-snr-as": _snr_experiment("se-snr-as", _AS_SCHEMES, _link_draws),
    "se-subcarrier-as": _subcarrier_experiment("se-subcarrier-as", _AS_SCHEMES, _link_draws),
    "se-paths-as": _field_experiment("se-paths-as", _AS_SCHEMES, _link_draws, "num_near_paths",
                                     lambda config: _PATH_AXIS),
    "se-snr-fs": _snr_experiment("se-snr-fs", _FS_SCHEMES, _fs_draws),
    "se-subcarrier-fs": _subcarrier_experiment("se-subcarrier-fs", _FS_SCHEMES, _fs_draws),
    "se-paths-fs": _field_experiment("se-paths-fs", _FS_SCHEMES, _fs_draws, "num_near_paths",
                                     lambda config: _PATH_AXIS),
    "se-subarrays-fs": _field_experiment("se-subarrays-fs", _FS_SCHEMES, _fs_draws,
                                         "num_subarrays", _subarray_axis),
}


def run_experiment(name: str, config: ScenarioConfig) -> SweepResult:
    """Run a named experiment; raises ValueError for unknown names."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r}; known: {known}") from None
    return fn(config)
