"""Scenario configuration and seeded Monte Carlo channel sampling.

One flat config object carries geometry, grid, path-count, threshold, SNR and
sampling settings; every random quantity is drawn from a counter-based
generator keyed by (master seed, trial index), so any trial can be regenerated
in isolation and results never depend on execution order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .boundaries import SquintThresholds
from .wavefield import ArrayGeometry, CarrierGrid, FieldModel, PathParams

_MASK64 = (1 << 64) - 1
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation settings; defaults are the full reference-scale system parameters."""

    num_antennas: int = 1024
    center_freq_hz: float = 7.0e9
    bandwidth_hz: float = 600.0e6
    num_subcarriers: int = 256
    num_near_paths: int = 4
    num_far_paths: int = 1
    num_users: int = 8
    num_subarrays: int = 8
    kappa_a: float = 0.125
    kappa_f: float = 0.125
    snr_db: float = 10.0
    trials: int = 200
    seed: int = 42
    distance_min_m: float = 10.0
    distance_max_m: float = 100.0
    far_gain_offset_db: float = -20.0

    def __post_init__(self) -> None:
        nonfinite = [f.name for f in dataclasses.fields(self)
                 if f.type == "float" and not math.isfinite(getattr(self, f.name))]
        if nonfinite:
            raise ValueError(f"config fields must be finite: {', '.join(nonfinite)}")
        if self.num_antennas < 1 or self.num_subcarriers < 1:
            raise ValueError("num_antennas and num_subcarriers must be positive")
        if self.num_near_paths < 0 or self.num_far_paths < 0:
            raise ValueError("path counts must be nonnegative")
        if self.num_users < 1 or self.num_subarrays < 1:
            raise ValueError("num_users and num_subarrays must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0.0 < self.distance_min_m <= self.distance_max_m:
            raise ValueError("distance range must satisfy 0 < min <= max")
        if self.center_freq_hz <= 0.0 or self.bandwidth_hz <= 0.0:
            raise ValueError("center_freq_hz and bandwidth_hz must be positive")

    # -- derived objects ----------------------------------------------------

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.num_antennas, self.center_freq_hz)

    def grid(self) -> CarrierGrid:
        return CarrierGrid.from_bandwidth(self.bandwidth_hz, self.num_subcarriers)

    def thresholds(self) -> SquintThresholds:
        return SquintThresholds(self.kappa_a, self.kappa_f)

    @property
    def noise_power(self) -> float:
        return 1.0

    @property
    def power(self) -> float:
        """Transmit power giving the configured SNR for a unit-power path."""
        return 10.0 ** (self.snr_db / 10.0) * self.noise_power

    def replace(self, **changes: object) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)

    def quick(self) -> "ScenarioConfig":
        """Desk-scale variant: fewer subcarriers and trials, same physics."""
        return self.replace(num_subcarriers=min(self.num_subcarriers, 64),
                            trials=min(self.trials, 100))

    # -- flat JSON round-trip ------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(kinds))
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        for name, value in data.items():
            # JSON true/false are ints to Python; no field takes a bool
            allowed = (int,) if kinds[name] == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"config field {name} must be {kinds[name]}, got {value!r}")
        return cls(**data)


@dataclass(frozen=True)
class RngStream:
    """Counter-based substream: (master seed, trial) fully determines draws."""

    master_seed: int
    substream_id: int

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.substream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))


def _draw_path(
    rng: np.random.Generator,
    config: ScenarioConfig,
    field_model: FieldModel,
    gain_scale: float,
) -> PathParams:
    """One path: gain re/im, sine angle, scatterer distance, UE range, in order.

    Uniform draws are low + (high - low) rng.random(), the bits of ``rng.uniform``.
    """
    re = rng.standard_normal()
    im = rng.standard_normal()
    gain = gain_scale * (re + 1j * im) / _SQRT2
    theta = -1.0 + 2.0 * rng.random()
    while not -1.0 < theta < 1.0:
        theta = -1.0 + 2.0 * rng.random()
    low = config.distance_min_m
    span = config.distance_max_m - low
    d = low + span * rng.random()
    r = low + span * rng.random()
    return PathParams(gain, theta, d, r, field_model)


def sample_paths(
    rng: np.random.Generator,
    config: ScenarioConfig,
    num_near: int,
    num_far: int,
) -> list[PathParams]:
    """Near paths first (unit mean power), then far paths at the power offset."""
    far_scale = 10.0 ** (config.far_gain_offset_db / 20.0)
    paths = [
        _draw_path(rng, config, FieldModel.WIDEBAND_NEAR, 1.0) for _ in range(num_near)
    ]
    paths += [_draw_path(rng, config, FieldModel.FAR, far_scale) for _ in range(num_far)]
    return paths


def sample_scenario(config: ScenarioConfig, trial: int) -> list[PathParams]:
    """Single-link multipath draw for one Monte Carlo trial."""
    rng = RngStream(config.seed, trial).generator()
    return sample_paths(rng, config, config.num_near_paths, config.num_far_paths)


def sample_user_paths(
    config: ScenarioConfig,
    trial: int,
    num_users: int,
) -> list[list[PathParams]]:
    """Per-user path lists drawn sequentially from the trial's substream.

    Each user has ``config.num_near_paths`` near paths and no far paths.
    Growing ``num_users`` extends the same stream, so the first users' draws are
    unchanged — the sub-band allocator can request more users without
    perturbing existing ones.
    """
    rng = RngStream(config.seed, trial).generator()
    return [
        sample_paths(rng, config, config.num_near_paths, 0) for _ in range(num_users)
    ]
