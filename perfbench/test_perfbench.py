"""Self-tests of the sweep benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(ROOT / "src"))

from squintlab import experiments  # noqa: E402
from squintlab.cli import cli_main  # noqa: E402

from run import SELF_SUM_TOL  # noqa: E402
from tracing import Span, Tracer, attribute  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_SUFFIXES = ("calls_per_trial", "phase_elems_per_trial", "bytes_out_per_trial",
                  "paths_drawn_per_trial", "alloc_attempts_per_trial",
                  "alloc_success_ratio", "subbands_per_trial", "infeasible_per_trial",
                  "workers", "csv_bytes_per_sweep")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_count_metrics_repeat_for_one_seed():
    args = ("--workload", "desk-fs", "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    assert first["correct"] and second["correct"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert len(counts) == 16
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["scenario.paths_drawn_per_trial"] == 480
    assert counts["slicing.alloc_success_ratio"] == 0.25
    assert counts["slicing.subbands_per_trial"] == 64


def _sweep(call, tmp_path: Path, name: str, trials: int) -> tuple[bytes, float]:
    output = tmp_path / name
    argv = WORKLOADS["desk-fs"].argv(11, str(output), trials)
    start = perf_counter()
    assert call(argv) == 0
    return output.read_bytes(), perf_counter() - start


def test_traced_wrappers_leave_csv_bytes_unchanged(tmp_path):
    original = experiments.channel_columns
    tracer = Tracer()
    plain, _ = _sweep(cli_main, tmp_path, "plain.csv", 2)
    tracer.install()
    try:
        assert experiments.channel_columns is not original
        traced, _ = _sweep(cli_main, tmp_path, "traced.csv", 2)
    finally:
        tracer.uninstall()
    assert experiments.channel_columns is original
    assert traced == plain
    assert {s.layer for s in tracer.take()} >= {"scenario", "wavefield", "boundaries",
                                                "slicing", "precoding", "experiments"}


def test_self_times_sum_to_traced_wall(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        _, wall = _sweep(lambda argv: tracer.call("cli", "cli_main", cli_main, (argv,), {}),
                         tmp_path, "traced.csv", 4)
    finally:
        tracer.uninstall()
    attributed = sum(attribute(tracer.take()).values())
    assert abs(attributed / wall - 1.0) <= SELF_SUM_TOL


def _span(span_id, parent, thread, layer, start, end):
    span = Span(span_id, parent, 1, thread, layer, f"f{span_id}")
    span.start, span.end = start, end
    return span


def test_attribution_shares_time_between_overlapping_threads():
    spans = [
        _span(1, 0, "main", "cli", 0.0, 10.0),
        _span(2, 1, "main", "experiments", 1.0, 9.0),  # the pool, waiting from 2 to 8
        _span(3, 2, "a", "experiments", 2.0, 6.0),  # trial on thread a
        _span(4, 3, "a", "wavefield", 3.0, 5.0),
        _span(5, 2, "b", "experiments", 3.0, 8.0),  # trial on thread b
    ]
    self_s = attribute(spans)
    assert self_s == {1: 2.0, 2: 2.0, 3: 1.5, 4: 1.0, 5: 3.5}
    assert sum(self_s.values()) == 10.0


def test_exits_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = _bench("--workload", "desk-as", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
