"""Output checks for the sweep benchmark.

``check_csv`` inspects every CSV a sweep emits. ``cross_check_problems``
recomputes a one-trial sweep through the library's own evaluation path
(``synth_channel`` -> ``*_precoder_set`` -> ``spectral_efficiency``). It
shares sampling, planning, the phase kernels and the analog beam functions with
the experiment path that writes the CSV; the channel assembly, the digital MRT
and the reduction to SE are its own.
"""

from __future__ import annotations

import math

import numpy as np

from squintlab import (
    InfeasiblePlanError,
    ScenarioConfig,
    Scheme,
    allocate_subbands,
    narrowband_mrt,
    per_subcarrier_rates,
    plan_antenna_slices,
    sample_scenario,
    sample_user_paths,
    se_optimal,
    slice_precoder_set,
    spectral_efficiency,
    static_precoder_set,
    subband_precoder_set,
    synth_channel,
)

from workloads import Workload

CSV_HEADER = "axis,scheme,se_bits_per_hz,trials,seed,boundary_b_wn_hz,boundary_n_wn"
SNR_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
SNR_AXIS = tuple(f"{snr:.12g}" for snr in SNR_DB)
AS_SCHEMES = ("antenna-slicing", "narrowband-mrt", "optimal")
FS_SCHEMES = ("subband-slicing",) + AS_SCHEMES

# The matched filter bounds every scheme per subcarrier, so the averaged SE of
# `optimal` can fall below another scheme only by float rounding.
OPTIMAL_RTOL = 1e-9
# CSV digits (12 significant) against the library path: loose enough for a
# reordered phase kernel to move last digits, tight enough to catch any
# change of physics or averaging.
CROSS_RTOL = 1e-6

# Fixed seeds of the one-trial cross-check sweeps. They do not depend on the
# workload seed, so their CSV digest fingerprints the emitted numbers of a
# commit.
CROSS_SEEDS = (1, 2, 3)


def se_table(data: bytes) -> dict[tuple[str, str], float]:
    """(axis, scheme) -> SE of a CSV that passed ``check_csv``."""
    lines = data.decode("ascii").splitlines()[1:]
    return {(f[0], f[1]): float(f[2]) for f in (line.split(",") for line in lines)}


def check_csv(data: bytes, workload: Workload, trials: int, seed: int) -> list[str]:
    """Problems found in one emitted CSV; empty when it is well formed."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return ["CSV is not ASCII"]
    if not text.endswith("\n"):
        return ["CSV does not end with a newline"]
    lines = text[:-1].split("\n")
    if lines[0] != CSV_HEADER:
        return [f"header {lines[0]!r} != {CSV_HEADER!r}"]
    schemes = FS_SCHEMES if workload.multiuser else AS_SCHEMES
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(SNR_AXIS) * len(schemes):
        return [f"{len(rows)} rows, expected {len(SNR_AXIS)} x {len(schemes)}"]
    problems = []
    by_axis: dict[str, dict[str, float]] = {}
    for i, fields in enumerate(rows, start=1):
        if len(fields) != 7:
            problems.append(f"row {i} has {len(fields)} fields")
            continue
        axis, scheme, se, row_trials, row_seed = fields[:5]
        if row_trials != str(trials) or row_seed != str(seed):
            problems.append(f"row {i} trials/seed {row_trials}/{row_seed} != {trials}/{seed}")
        try:
            value = float(se)
        except ValueError:
            problems.append(f"row {i} SE {se!r} is not a number")
            continue
        if not (math.isfinite(value) and value >= 0.0):
            problems.append(f"row {i} SE {se} is not finite and >= 0")
        by_axis.setdefault(axis, {})[scheme] = value
    if tuple(by_axis) != SNR_AXIS:
        problems.append(f"axis points {tuple(by_axis)} != {SNR_AXIS}")
    for axis, values in by_axis.items():
        if tuple(sorted(values)) != tuple(sorted(schemes)):
            problems.append(f"axis {axis} schemes {sorted(values)} != {sorted(schemes)}")
            continue
        best = values["optimal"]
        for scheme, value in values.items():
            if value > best + OPTIMAL_RTOL * abs(best):
                problems.append(f"axis {axis}: {scheme} {value} > optimal {best}")
    return problems


def _single_link_se(config: ScenarioConfig) -> dict[tuple[str, str], float]:
    geom, grid, thr = config.geometry(), config.grid(), config.thresholds()
    paths = sample_scenario(config, 0)
    channel = synth_channel(geom, grid, paths)
    sets = {
        "antenna-slicing": slice_precoder_set(
            channel, plan_antenna_slices(geom, grid, paths, thr)),
        "narrowband-mrt": static_precoder_set(
            narrowband_mrt(geom, paths), grid.num_subcarriers, Scheme.NARROWBAND_BASELINE),
    }
    out = {}
    for axis, snr in zip(SNR_AXIS, SNR_DB):
        power = 10.0 ** (snr / 10.0) * config.noise_power
        for scheme, precoders in sets.items():
            out[(axis, scheme)] = spectral_efficiency(
                channel, precoders, power, config.noise_power)
        out[(axis, "optimal")] = se_optimal(channel, power, config.noise_power)
    return out


def _multiuser_se(config: ScenarioConfig) -> dict[tuple[str, str], float]:
    geom, grid, thr = config.geometry(), config.grid(), config.thresholds()
    k = min(config.num_users, config.num_subcarriers)
    while True:  # grow the user pool until the band can be covered
        users = sample_user_paths(config, 0, k)
        try:
            plan = allocate_subbands(users, geom, grid, thr, config.num_subarrays)
            break
        except InfeasiblePlanError:
            if k >= config.num_subcarriers:
                raise
            k = min(2 * k, config.num_subcarriers)
    per_user = []  # (channel, subband columns, block, {scheme: precoder set})
    for subband in plan.subbands:
        paths = users[subband.user]
        idx = list(subband.global_indices())
        channel = synth_channel(geom, grid, paths)
        block = channel.entries[:, idx]
        sets = {
            "subband-slicing": subband_precoder_set(
                geom, paths, subband, config.num_subarrays, block),
            "antenna-slicing": slice_precoder_set(
                channel, plan_antenna_slices(geom, grid, paths, thr)),
            "narrowband-mrt": static_precoder_set(
                narrowband_mrt(geom, paths), grid.num_subcarriers,
                Scheme.NARROWBAND_BASELINE),
        }
        per_user.append((channel, idx, block, sets))
    out = {}
    for axis, snr in zip(SNR_AXIS, SNR_DB):
        power = 10.0 ** (snr / 10.0) * config.noise_power
        sums = dict.fromkeys(FS_SCHEMES, 0.0)
        for channel, idx, block, sets in per_user:
            for scheme, precoders in sets.items():
                if scheme == "subband-slicing":
                    rates = per_subcarrier_rates(block, precoders, power, config.noise_power)
                else:
                    rates = per_subcarrier_rates(
                        channel, precoders, power, config.noise_power)[idx]
                sums[scheme] += float(np.mean(rates))
            sums["optimal"] += se_optimal(block, power, config.noise_power)
        for scheme, total in sums.items():
            out[(axis, scheme)] = total / len(per_user)
    return out


def library_se(workload: Workload, seed: int) -> dict[tuple[str, str], float]:
    """Per-(axis, scheme) SE of the one-trial sweep at ``seed``, via the library."""
    config = ScenarioConfig(num_antennas=workload.antennas,
                            num_subcarriers=workload.subcarriers, trials=1, seed=seed)
    return _multiuser_se(config) if workload.multiuser else _single_link_se(config)


def cross_check_problems(data: bytes, workload: Workload, seed: int) -> list[str]:
    """Differences between a one-trial sweep's CSV and ``library_se``."""
    expected = library_se(workload, seed)
    problems = []
    for key, value in se_table(data).items():
        want = expected[key]
        if abs(value - want) > CROSS_RTOL * abs(want):
            problems.append(f"seed {seed} {key}: CSV {value!r} vs library {want!r}")
    return problems
