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
