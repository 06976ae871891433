"""Command-line interface: JSON reports, plans, dumps, runs, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from squintlab import (
    FieldModel,
    PathParams,
    ScenarioConfig,
    allocate_subbands,
    boundary_report,
    plan_antenna_slices,
    read_channel_dump,
    run_experiment,
    sample_scenario,
    sample_user_paths,
    synth_channel,
)
from squintlab.cli import cli_main


def invoke(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonable(value):
    return "unbounded" if value == math.inf else value


def expected_report_json(config, path):
    report = boundary_report(config.geometry(), config.grid(), path,
                             config.thresholds())
    out = {
        "freq_boundary_near_hz": jsonable(report.freq_boundary_near_hz),
        "antenna_boundary_near": jsonable(report.antenna_boundary_near),
        "freq_boundary_far_hz": jsonable(report.freq_boundary_far_hz),
        "antenna_boundary_far": jsonable(report.antenna_boundary_far),
        "near_field_threshold": jsonable(report.near_field_threshold),
    }
    out["bounds"] = {
        key: {"lower": jsonable(b.lower), "upper": jsonable(b.upper)}
        for key, b in report.bounds.items()
    }
    return out


# ---------------------------------------------------------------------------
# boundary and classify
# ---------------------------------------------------------------------------


def test_boundary_report_matches_library(capsys):
    code, out, _ = invoke(capsys, ["boundary", "--n", "512",
                                   "--theta", "0.3", "--d", "40"])
    assert code == 0
    config = ScenarioConfig(num_antennas=512)
    assert json.loads(out) == expected_report_json(config,
                                                   PathParams(1.0, 0.3, 40.0, 0.0))


def test_boundary_far_fields_unbounded_at_broadside(capsys):
    code, out, _ = invoke(capsys, ["boundary", "--theta", "0.0", "--d", "40"])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["freq_boundary_far_hz"] == "unbounded"
    assert parsed["antenna_boundary_far"] == "unbounded"
    assert parsed["bounds"]["freq_boundary_far_hz"]["upper"] == "unbounded"


def test_boundary_requires_path_flags(capsys):
    code, _, err = invoke(capsys, ["boundary", "--n", "64"])
    assert code == 1
    assert "--theta and --d are required" in err


@pytest.mark.parametrize("argv, label", [
    (["--n", "8192", "--theta", "0.3", "--d", "40"], "WN"),
    (["--n", "16", "--bandwidth-hz", "1e6", "--theta", "0.3", "--d", "40"], "NN"),
    (["--n", "1", "--theta", "0.3", "--d", "40"], "NF"),
    (["--theta", "0.3", "--d", "40"], "WN"),
])
def test_classify_labels(capsys, argv, label):
    code, out, _ = invoke(capsys, ["classify"] + argv)
    assert code == 0
    assert out == f"{label}\n"


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def test_plan_antenna_explicit_path_matches_library(capsys):
    code, out, _ = invoke(capsys, ["plan", "antenna", "--n", "1024",
                                   "--theta", "0.1345", "--d", "20"])
    assert code == 0
    config = ScenarioConfig(num_antennas=1024)
    plan = plan_antenna_slices(config.geometry(), config.grid(),
                               [PathParams(1.0, 0.1345, 20.0, 0.0)],
                               config.thresholds())
    assert json.loads(out) == plan.to_json_dict()
    assert set(json.loads(out)) == {"subarrays"}


def test_plan_antenna_sampled_trial_matches_library(capsys):
    code, out, _ = invoke(capsys, ["plan", "antenna", "--n", "128",
                                   "--trial", "3"])
    assert code == 0
    config = ScenarioConfig(num_antennas=128)
    plan = plan_antenna_slices(config.geometry(), config.grid(),
                               sample_scenario(config, 3), config.thresholds())
    assert json.loads(out) == plan.to_json_dict()


@pytest.mark.parametrize("trial", [0, 3])
def test_plan_antenna_path_is_the_served_path_index_of_the_draw(capsys, trial):
    # "path" indexes the trial's drawn path list: the strongest near path by
    # |g|^2, each weaker near path once in rank order, then the strongest for
    # every other block; the far path (index 4) serves no block
    code, out, _ = invoke(capsys, ["plan", "antenna", "--n", "256", "--m", "64",
                                   "--num-near-paths", "4", "--num-far-paths", "1",
                                   "--far-gain-offset-db", "0", "--seed", "42",
                                   "--trial", str(trial)])
    assert code == 0
    config = ScenarioConfig(num_antennas=256, num_subcarriers=64, num_near_paths=4,
                            num_far_paths=1, far_gain_offset_db=0.0, seed=42)
    paths = sample_scenario(config, trial)
    near = [i for i, p in enumerate(paths) if p.field_model is not FieldModel.FAR]
    ranked = sorted(near, key=lambda i: -abs(paths[i].gain) ** 2)
    assert ranked != list(range(4))  # a gain rank would not name the served path
    served = [block["path"] for block in json.loads(out)["subarrays"]]
    assert served == ranked + [ranked[0]] * (len(served) - len(ranked))


def test_plan_subband_matches_library(capsys):
    argv = ["plan", "subband", "--n", "64", "--m", "16", "--num-users", "2",
            "--num-subarrays", "4", "--num-near-paths", "1",
            "--num-far-paths", "0"]
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    config = ScenarioConfig(num_antennas=64, num_subcarriers=16, num_users=2,
                            num_subarrays=4, num_near_paths=1, num_far_paths=0)
    users = sample_user_paths(config, 0, 2)
    plan = allocate_subbands(users, config.geometry(), config.grid(),
                             config.thresholds(), 4)
    assert json.loads(out) == plan.to_json_dict()
    assert set(json.loads(out)) == {"subbands"}


@pytest.mark.parametrize("argv, flags", [
    (["--theta", "0.3", "--d", "40"], "--theta/--d"),
    (["--r", "5"], "--r"),
])
def test_plan_subband_rejects_path_flags(capsys, argv, flags):
    code, out, err = invoke(capsys, ["plan", "subband", "--n", "64", "--m", "16"] + argv)
    assert code == 1 and out == ""
    assert f"plan subband samples its users and takes no {flags}" in err


@pytest.mark.parametrize("command", [["plan", "antenna"], ["channel"]])
@pytest.mark.parametrize("argv, flags", [
    (["--theta", "0.3"], "--theta"),
    (["--d", "40"], "--d"),
    (["--r", "5"], "--r"),
    (["--theta", "0.3", "--r", "5"], "--theta/--r"),
])
def test_partial_path_flags_are_usage_errors(capsys, tmp_path, command, argv, flags):
    target = tmp_path / "chan.bin"
    extra = ["--output", str(target)] if command == ["channel"] else []
    code, out, err = invoke(capsys, command + ["--n", "16", "--m", "4"] + argv + extra)
    assert code == 1 and out == ""
    assert f"{flags} given, but a path needs both --theta and --d" in err
    assert not target.exists()


@pytest.mark.parametrize("command", ["boundary", "classify"])
def test_range_without_path_is_a_usage_error(capsys, command):
    code, _, err = invoke(capsys, [command, "--r", "5"])
    assert code == 1
    assert "--r given, but a path needs both --theta and --d" in err


def test_range_flag_reaches_the_path(capsys, tmp_path):
    target = tmp_path / "chan.bin"
    code, _, _ = invoke(capsys, ["channel", "--n", "16", "--m", "4", "--theta", "0.2",
                                 "--d", "25", "--r", "7.5", "--output", str(target)])
    assert code == 0
    config = ScenarioConfig(num_antennas=16, num_subcarriers=4)
    tensor = synth_channel(config.geometry(), config.grid(),
                           [PathParams(1.0, 0.2, 25.0, 7.5)], "hybrid")
    np.testing.assert_array_equal(read_channel_dump(target), tensor.entries)


def test_plan_infeasible_maps_to_exit_2(capsys):
    code, _, err = invoke(capsys, ["plan", "antenna", "--n", "1",
                                   "--theta", "0.3", "--d", "40"])
    assert code == 2
    assert err.startswith("infeasible scenario:")


@pytest.mark.parametrize("argv", [
    ["plan", "antenna", "--num-near-paths", "0", "--num-far-paths", "0"],
    ["plan", "subband", "--num-near-paths", "0", "--num-users", "2"],
    ["run", "se-snr-fs", "--num-near-paths", "0", "--trials", "1"],
])
def test_pathless_draws_map_to_exit_1(capsys, argv):
    # a draw with no paths has no boundary table: a usage error (1), as for
    # the sweeps, not an infeasible plan (2)
    code, out, err = invoke(capsys, argv + ["--n", "32", "--m", "8"])
    assert code == 1
    assert out == "" and err == "error: at least one path is required\n"


def test_far_only_plan_maps_to_exit_2(capsys):
    code, _, err = invoke(capsys, ["plan", "antenna", "--n", "32", "--m", "8",
                                   "--num-near-paths", "0", "--num-far-paths", "1"])
    assert code == 2
    assert err == "infeasible scenario: no near-field paths to serve\n"


# ---------------------------------------------------------------------------
# channel dumps
# ---------------------------------------------------------------------------


def test_channel_dump_round_trips(capsys, tmp_path):
    target = tmp_path / "chan.bin"
    code, out, _ = invoke(capsys, ["channel", "--n", "32", "--m", "8",
                                   "--theta", "0.2", "--d", "25",
                                   "--output", str(target)])
    assert code == 0
    assert "wrote" in out and "32x8" in out and "(hybrid, 1 paths)" in out
    config = ScenarioConfig(num_antennas=32, num_subcarriers=8)
    tensor = synth_channel(config.geometry(), config.grid(),
                           [PathParams(1.0, 0.2, 25.0, 0.0)], "hybrid")
    np.testing.assert_array_equal(read_channel_dump(target), tensor.entries)


def test_channel_dump_sampled_paths(capsys, tmp_path):
    target = tmp_path / "chan.bin"
    code, out, _ = invoke(capsys, ["channel", "--n", "16", "--m", "4",
                                   "--trial", "1", "--output", str(target)])
    assert code == 0
    assert "5 paths" in out
    config = ScenarioConfig(num_antennas=16, num_subcarriers=4)
    tensor = synth_channel(config.geometry(), config.grid(),
                           sample_scenario(config, 1), "hybrid")
    np.testing.assert_array_equal(read_channel_dump(target), tensor.entries)


def test_channel_rejects_unknown_model(capsys, tmp_path):
    code, _, err = invoke(capsys, ["channel", "--theta", "0.2", "--d", "25",
                                   "--model", "bogus",
                                   "--output", str(tmp_path / "x.bin")])
    assert code == 1
    assert "invalid choice" in err


def test_channel_requires_output(capsys):
    code, _, err = invoke(capsys, ["channel", "--theta", "0.2", "--d", "25"])
    assert code == 1
    assert "--output" in err


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_run_writes_csv_matching_library(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    argv = ["run", "se-snr-as", "--n", "64", "--m", "8", "--trials", "2",
            "--num-near-paths", "1", "--num-far-paths", "0",
            "--output", str(target)]
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    assert f"wrote {target}" in out
    config = ScenarioConfig(num_antennas=64, num_subcarriers=8, trials=2,
                            num_near_paths=1, num_far_paths=0)
    assert target.read_text() == run_experiment("se-snr-as", config).to_csv()


def test_run_quick_caps_grid_and_trials(capsys, tmp_path):
    target = tmp_path / "gain.csv"
    code, out, _ = invoke(capsys, ["run", "gain-map", "--m", "256", "--quick",
                                   "--output", str(target)])
    assert code == 0
    lines = target.read_text().splitlines()
    # 7 curves on a grid capped at 64 subcarriers, plus the header
    assert len(lines) == 1 + 7 * 64


def test_run_rejects_unknown_experiment(capsys, tmp_path):
    code, _, err = invoke(capsys, ["run", "nope",
                                   "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert "invalid choice" in err


def test_run_invalid_config_value_maps_to_exit_1(capsys, tmp_path):
    code, _, err = invoke(capsys, ["run", "gain-map", "--num-antennas", "-5",
                                   "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["boundary", "--theta", "0.3", "--d", "nan"],
    ["classify", "--theta", "0.3", "--d", "nan"],
    ["classify", "--theta", "0.3", "--d", "40", "--r", "inf"],
    ["run", "se-paths-as", "--snr-db", "nan"],
    ["run", "se-paths-as", "--distance-max-m", "inf"],
    ["run", "se-paths-as", "--bandwidth-hz", "inf"],
], ids=["boundary-d", "classify-d", "classify-r", "run-snr", "run-distance", "run-bandwidth"])
def test_nonfinite_inputs_map_to_exit_1(capsys, tmp_path, argv):
    target = tmp_path / "x.csv"
    if argv[0] == "run":
        argv = argv + ["--output", str(target)]
    code, out, err = invoke(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "must be finite" in err
    assert out == "" and not target.exists()


def emitted_per_worker_count(capsys, tmp_path, monkeypatch, argv):
    """CSV bytes of one run request at 1, 4 and 8 worker threads."""
    emitted = []
    for workers in ("1", "4", "8"):
        monkeypatch.setenv("SQUINTLAB_THREADS", workers)
        target = tmp_path / f"out{workers}.csv"
        assert cli_main(argv + ["--output", str(target)]) == 0
        emitted.append(target.read_bytes())
    capsys.readouterr()
    return emitted


def test_run_thread_env_does_not_change_output(capsys, tmp_path, monkeypatch):
    emitted = emitted_per_worker_count(
        capsys, tmp_path, monkeypatch,
        ["run", "se-snr-as", "--n", "64", "--m", "8", "--trials", "6"])
    assert emitted[0] == emitted[1] == emitted[2]


def test_run_thread_env_does_not_change_multiuser_output(capsys, tmp_path, monkeypatch):
    # 8 to 32 users per trial on sub-bands of 1 to 39 subcarriers, so each
    # one-batch trial spans many users and several sub-band widths
    emitted = emitted_per_worker_count(
        capsys, tmp_path, monkeypatch,
        ["run", "se-snr-fs", "--n", "128", "--m", "64", "--bandwidth-hz", "100e6",
         "--num-near-paths", "2", "--trials", "6"])
    assert emitted[0] == emitted[1] == emitted[2]


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_config_file_sets_fields_and_flags_override(capsys, tmp_path):
    config_file = tmp_path / "cfg.json"
    # an integer is a valid value for a float field
    config_file.write_text(json.dumps({"num_antennas": 64, "kappa_a": 0.25,
                                       "bandwidth_hz": 300000000}))
    code, out, _ = invoke(capsys, ["boundary", "--config", str(config_file),
                                   "--n", "128", "--theta", "0.3", "--d", "40"])
    assert code == 0
    config = ScenarioConfig(num_antennas=128, kappa_a=0.25, bandwidth_hz=300e6)
    assert json.loads(out) == expected_report_json(config,
                                                   PathParams(1.0, 0.3, 40.0, 0.0))


def test_config_file_unknown_key_rejected(capsys, tmp_path):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({"carrier_hz": 7e9}))
    code, _, err = invoke(capsys, ["classify", "--config", str(config_file),
                                   "--theta", "0.3", "--d", "40"])
    assert code == 1
    assert "carrier_hz" in err


def test_config_file_must_be_an_object(capsys, tmp_path):
    config_file = tmp_path / "cfg.json"
    config_file.write_text("[1, 2]")
    code, _, err = invoke(capsys, ["classify", "--config", str(config_file),
                                   "--theta", "0.3", "--d", "40"])
    assert code == 1
    assert "flat JSON object" in err


@pytest.mark.parametrize("command, data", [
    (["boundary", "--theta", "0.3", "--d", "40"], {"num_antennas": 64.5}),
    (["run", "se-snr-as"], {"num_antennas": 64, "num_subcarriers": 8, "trials": True}),
    (["boundary", "--theta", "0.3", "--d", "40"], {"num_antennas": "abc"}),
], ids=["float-for-int", "bool-for-int", "string-for-int"])
def test_config_file_values_must_have_the_field_type(capsys, tmp_path, command, data):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(data))
    target = tmp_path / "x.csv"
    argv = command + ["--config", str(config_file)]
    if command[0] == "run":
        argv += ["--output", str(target)]
    code, out, err = invoke(capsys, argv)
    assert code == 1
    assert err.startswith("error:")
    assert list(data)[-1] in err
    assert out == "" and not target.exists()


def test_missing_config_file_maps_to_exit_1(capsys, tmp_path):
    code, _, err = invoke(capsys, ["classify", "--config",
                                   str(tmp_path / "absent.json"),
                                   "--theta", "0.3", "--d", "40"])
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("alias, full", [
    (["--n", "256"], ["--num-antennas", "256"]),
    (["--fc", "6.5e9"], ["--center-freq-hz", "6.5e9"]),
    (["--m", "32"], ["--num-subcarriers", "32"]),
])
def test_alias_flags_match_full_names(capsys, alias, full):
    base = ["boundary", "--theta", "0.3", "--d", "40"]
    code_a, out_a, _ = invoke(capsys, base + alias)
    code_b, out_b, _ = invoke(capsys, base + full)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = invoke(capsys, [])
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = invoke(capsys, ["boundary", "--bogus", "1",
                                   "--theta", "0.3", "--d", "40"])
    assert code == 1
    assert "usage" in err.lower()


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "squintlab.cli", "classify",
                           "--theta", "0.3", "--d", "40"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "WN\n"
