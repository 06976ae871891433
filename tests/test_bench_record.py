"""The paired benchmark recorder's pure functions: summary, pair comparison, refusal,
line count, resource usage."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_summarise_gives_the_median_and_inclusive_quartiles():
    summary = bench_record.summarise([7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 3.0, 6.0, 5.0, 8.0])
    assert summary["median"] == 5.5
    assert summary["q1"] == 3.25 and summary["q3"] == 7.75
    assert summary["iqr"] == 4.5
    assert summary["runs"] == [7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 3.0, 6.0, 5.0, 8.0]


def test_summarise_of_equal_runs_has_no_spread():
    summary = bench_record.summarise([3.0] * 10)
    assert summary["median"] == summary["q1"] == summary["q3"] == 3.0
    assert summary["iqr"] == 0.0


@pytest.mark.parametrize("better, wins", [("higher", 1), ("lower", 1)])
def test_compare_counts_a_tie_as_a_win_for_neither_side(better, wins):
    parent = [10.0, 10.0, 10.0]
    change = [12.0, 10.0, 8.0]
    got = bench_record.compare(parent, change, better)
    assert got["ratios"] == [1.2, 1.0, 0.8]
    assert got["median_ratio"] == 1.0
    assert got["change_wins"] == wins


def test_compare_takes_each_ratio_within_its_pair():
    got = bench_record.compare([2.0, 4.0, 5.0, 8.0], [3.0, 5.0, 4.0, 10.0], "higher")
    assert got["ratios"] == [1.5, 1.25, 0.8, 1.25]
    assert got["median_ratio"] == 1.25
    assert got["change_wins"] == 3
    assert bench_record.compare([2.0, 4.0, 5.0, 8.0], [3.0, 5.0, 4.0, 10.0],
                                "lower")["change_wins"] == 1


def _bench(correct=(10, 10), digests=("aa",)):
    return {"pairs_per_workload": 10,
            "workloads": {"desk-as": {"correct_runs": {"parent": 10, "change": 10},
                                      "cross_check_csv_sha256": ["aa"]},
                          "desk-fs": {"correct_runs": dict(zip(("parent", "change"), correct)),
                                      "cross_check_csv_sha256": list(digests)}}}


def test_problems_passes_correct_runs_with_one_digest():
    assert bench_record.problems(_bench()) == []


def test_problems_flags_an_incorrect_run():
    found = bench_record.problems(_bench(correct=(10, 9)))
    assert found == ["desk-fs: 9/10 change runs correct"]


def test_problems_flags_cross_check_digests_that_differ():
    found = bench_record.problems(_bench(digests=("aa", "bb")))
    assert len(found) == 1 and found[0].startswith("desk-fs: cross-check digests differ")


def test_src_lines_sums_the_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("import math\n\nX = 1\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("Y = 2\nZ = 3")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("not = 'counted'\n")
    assert bench_record.src_lines(tmp_path) == 5


def test_usage_delta_takes_each_field_between_the_two_readings():
    before = SimpleNamespace(ru_minflt=1200, ru_utime=3.25, ru_stime=0.5, ru_majflt=7)
    after = SimpleNamespace(ru_minflt=15200, ru_utime=24.75, ru_stime=0.625, ru_majflt=9)
    assert bench_record.usage_delta(before, after) == {
        "minflt": 14000, "utime_s": 21.5, "stime_s": 0.125}


def test_cpu_model_reads_the_first_model_name(tmp_path):
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nvendor_id\t: GenuineIntel\n"
                       "model name\t: Example CPU @ 2.10GHz\n\n"
                       "processor\t: 1\nmodel name\t: Other CPU\n")
    assert bench_record.cpu_model(cpuinfo) == "Example CPU @ 2.10GHz"
    cpuinfo.write_text("processor\t: 0\nBogoMIPS\t: 50.00\n")
    assert bench_record.cpu_model(cpuinfo) is None
    assert bench_record.cpu_model(tmp_path / "missing") is None


def test_calibration_probe_takes_the_best_of_its_timings(monkeypatch):
    # one (start, stop) pair per timing; timing 7 is the shortest
    durations = [3.0 + (i % 4) for i in range(bench_record.PROBE_REPEATS)]
    durations[7] = 1.0
    ticks = iter([t for i, d in enumerate(durations) for t in (10.0 * i, 10.0 * i + d)])
    monkeypatch.setattr(bench_record, "perf_counter", lambda: next(ticks))
    assert bench_record.calibration_probe() == 1.0
    assert next(ticks, None) is None


def test_calibration_probe_times_real_work():
    assert 0.0 < bench_record.calibration_probe() < 10.0


def test_record_holds_the_cpu_model_and_each_runs_calibration(monkeypatch):
    metrics = [{"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25}]
    probes = iter([0.004, 0.003, 0.005, 0.006])

    def fake_run(checkout, workload, seed, seconds):
        return {"metrics": {"trials_per_s": {"value": 10.0 + seed}}, "correct": True,
                "steal_share": 0.0, "environment": {"python": "3"},
                "fingerprint": {"cross_check_csv_sha256": "aa"},
                "usage": dict.fromkeys(bench_record.USAGE, 1.0)}

    monkeypatch.setattr(bench_record, "run_once", fake_run)
    monkeypatch.setattr(bench_record, "calibration_probe", lambda: next(probes))
    monkeypatch.setattr(bench_record, "cpu_model", lambda: "Example CPU")
    bench = bench_record.record({"parent": Path("p"), "change": Path("c")}, ["desk-as"],
                                metrics, pairs=2, seconds=1.0)
    assert bench["cpu_model"] == "Example CPU"
    # seed 1 runs the parent first, seed 2 the change
    probe = bench["workloads"]["desk-as"]["calibration_s"]
    assert probe["parent"]["runs"] == [0.004, 0.006]
    assert probe["change"]["runs"] == [0.003, 0.005]


def _metric(parent, change, better="higher", bound=0.25):
    """One metric's summary as ``record`` builds it."""
    return {"better": better, "bound": bound,
            "parent": bench_record.summarise(parent), "change": bench_record.summarise(change),
            **bench_record.compare(parent, change, better)}


_PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 103.0, 97.0, 100.0, 100.0]  # IQR 1.5


@pytest.mark.parametrize("better, change, want", [
    # won 10/10, medians 3 apart against the parent's IQR of 1.5
    ("higher", [p + 3.0 for p in _PARENT], "gain"),
    ("lower", [p - 3.0 for p in _PARENT], "gain"),
    # won 9/10: still a gain
    ("higher", [p + 3.0 for p in _PARENT[:9]] + [90.0], "gain"),
    # won 8/10, though the medians moved by more than the IQR
    ("higher", [p + 3.0 for p in _PARENT[:8]] + [90.0, 90.0], "unchanged"),
    # won 10/10 by less than the IQR
    ("higher", [p + 1.0 for p in _PARENT], "unchanged"),
    # worse by 30 % of the parent's median, past the 25 % bound
    ("higher", [p * 0.7 for p in _PARENT], "regression"),
    ("lower", [p * 1.3 for p in _PARENT], "regression"),
    # worse by 20 %: inside the bound
    ("higher", [p * 0.8 for p in _PARENT], "unchanged"),
    ("lower", [p * 1.2 for p in _PARENT], "unchanged"),
])
def test_verdict_reads_gain_regression_or_unchanged(better, change, want):
    assert bench_record.verdict(_metric(_PARENT, change, better), pairs=10) == want


def test_verdict_is_unresolved_when_the_parents_spread_outgrows_the_bound():
    parent = [60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 65.0, 135.0, 100.0, 100.0]
    assert bench_record.summarise(parent)["iqr"] > 25.0
    assert bench_record.verdict(_metric(parent, [p * 1.1 for p in parent]), 10) == "unresolved"
    # a clear gain or regression still reads as one
    assert bench_record.verdict(_metric(parent, [p * 2.0 for p in parent]), 10) == "gain"
    assert bench_record.verdict(_metric(parent, [p * 0.5 for p in parent]), 10) == "regression"


def test_record_writes_a_verdict_per_workload_and_metric(monkeypatch):
    metrics = [{"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.2}]

    def fake_run(checkout, workload, seed, seconds):
        fast = checkout == Path("c") and workload == "desk-as"
        return {"metrics": {"trials_per_s": {"value": (20.0 if fast else 10.0) + 0.1 * seed},
                            "peak_rss_mb": {"value": 50.0}},
                "correct": True, "steal_share": 0.0, "environment": {"python": "3"},
                "fingerprint": {"cross_check_csv_sha256": "aa"},
                "usage": dict.fromkeys(bench_record.USAGE, 1.0)}

    monkeypatch.setattr(bench_record, "run_once", fake_run)
    monkeypatch.setattr(bench_record, "calibration_probe", lambda: 0.003)
    monkeypatch.setattr(bench_record, "cpu_model", lambda: None)
    bench = bench_record.record({"parent": Path("p"), "change": Path("c")},
                                ["desk-as", "full-link"], metrics, pairs=10, seconds=1.0)
    verdicts = {name: {metric: entry["verdict"] for metric, entry in w["metrics"].items()}
                for name, w in bench["workloads"].items()}
    assert verdicts == {"desk-as": {"trials_per_s": "gain", "peak_rss_mb": "unchanged"},
                        "full-link": {"trials_per_s": "unchanged", "peak_rss_mb": "unchanged"}}
