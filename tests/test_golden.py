"""Golden CSVs: every experiment's output at one small fixed config, byte for byte.

The files under ``tests/golden/`` pin the emitted numbers, so a refactor that
changes any digit fails here. ``tests/golden/desk/`` adds the two SNR sweeps
at desk scale (256 antennas x 64 subcarriers), where subarray blocks hold 32
antennas and the sub-band sweep serves about 64 users, one subcarrier each.
``tests/golden/wide/`` pins the two multiuser sweeps on a narrower band with
two near paths, where 16 or 32 users get sub-bands of 1 to 16 subcarriers.
``tests/golden/full/`` pins the single-link SNR sweep at full scale (1024 x
256), where each path's phase table is 4 MiB, so the channel's products
run through numpy's in-place temporaries.
An intended change of the numbers regenerates them, from the repository root:

    PYTHONPATH=src python -c "from tests.test_golden import regenerate; regenerate()"
"""

from pathlib import Path

import pytest

from squintlab import EXPERIMENTS, ScenarioConfig, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CONFIG = ScenarioConfig(num_antennas=128, num_subcarriers=16, trials=4,
                               num_users=4, num_subarrays=4, seed=7)
DESK_DIR = GOLDEN_DIR / "desk"
DESK_CONFIG = ScenarioConfig(num_antennas=256, num_subcarriers=64, trials=2, seed=1)
DESK_EXPERIMENTS = ("se-snr-as", "se-snr-fs")
WIDE_DIR = GOLDEN_DIR / "wide"
WIDE_CONFIG = ScenarioConfig(num_antennas=256, num_subcarriers=64, num_near_paths=2,
                             bandwidth_hz=100e6, trials=4, seed=7)
WIDE_EXPERIMENTS = ("se-snr-fs", "se-subcarrier-fs")
FULL_DIR = GOLDEN_DIR / "full"
FULL_CONFIG = ScenarioConfig(num_antennas=1024, num_subcarriers=256, trials=2, seed=1)
FULL_EXPERIMENTS = ("se-snr-as",)


def regenerate() -> None:
    """Rewrite every golden CSV from the current code."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in EXPERIMENTS:
        run_experiment(name, GOLDEN_CONFIG).write_csv(GOLDEN_DIR / f"{name}.csv")
    for directory, config, names in ((DESK_DIR, DESK_CONFIG, DESK_EXPERIMENTS),
                                     (WIDE_DIR, WIDE_CONFIG, WIDE_EXPERIMENTS),
                                     (FULL_DIR, FULL_CONFIG, FULL_EXPERIMENTS)):
        directory.mkdir(exist_ok=True)
        for name in names:
            run_experiment(name, config).write_csv(directory / f"{name}.csv")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_csv_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert run_experiment(name, GOLDEN_CONFIG).to_csv().encode("ascii") == expected


@pytest.mark.parametrize("name", DESK_EXPERIMENTS)
def test_desk_csv_matches_golden(name):
    expected = (DESK_DIR / f"{name}.csv").read_bytes()
    assert run_experiment(name, DESK_CONFIG).to_csv().encode("ascii") == expected


@pytest.mark.parametrize("name", WIDE_EXPERIMENTS)
def test_wide_csv_matches_golden(name):
    expected = (WIDE_DIR / f"{name}.csv").read_bytes()
    assert run_experiment(name, WIDE_CONFIG).to_csv().encode("ascii") == expected


@pytest.mark.parametrize("name", FULL_EXPERIMENTS)
def test_full_csv_matches_golden(name):
    expected = (FULL_DIR / f"{name}.csv").read_bytes()
    assert run_experiment(name, FULL_CONFIG).to_csv().encode("ascii") == expected
