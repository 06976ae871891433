"""Record a BENCH file: interleaved perfbench runs of a parent commit and this checkout.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --label 17 --parent HEAD~1

The parent's committed files are extracted with ``git archive`` into a
temporary directory (no worktree, nothing under ``.git`` changes); the change
side is this checkout as it stands. Each of PAIRS rounds runs
``perfbench/run.py --trace 0`` for SECONDS once per workload on each side, as
subprocesses with BLAS threads pinned to 1. Round i uses workload seed i on
both sides and alternates which side runs first, so a slow stretch of the
machine falls on both. The per-run reports under each side's
``.perfbench_out/`` give the metrics, the environment and the fingerprints.

``BENCH_<label>.json`` at the root of this checkout records the parent's
commit id, this checkout's HEAD as ``change_head`` and, as ``change_dirty``,
whether ``git status --porcelain`` listed anything when the runs began (then
the change side is not HEAD's committed files). It gets, per workload and
for every end-to-end metric that ``BENCHMARK.json`` names, both sides' run
values with their median and interquartile range, the change/parent ratio of
each pair, the median ratio and the number of pairs the change won (in the
metric's better direction) and a verdict (see ``verdict``), which the
script also prints, plus the hypervisor steal share of each run. Each run
also records its minor page faults and its user and system CPU seconds,
read with ``getrusage(RUSAGE_CHILDREN)`` around the subprocess, and the record
summarises them per side under ``usage``. These figures cover the whole run:
the warm-up, the 15 set-up probes and the checks as well as the timed loop;
they inform, and refuse nothing. The record also holds ``src_lines``, both
sides' line count over ``src/**/*.py``, the host's ``cpu_model`` from
``/proc/cpuinfo``, and, per workload and side, ``calibration_s``: a fixed
numpy-only probe (cos and sin of a 1024 x 256 table, best of PROBE_REPEATS,
about 1 s) timed just before every run.

Only the pairs inside one record compare code: absolute figures across
records reflect host state and are not a trajectory. The probe does not
resolve host drift run by run. On a 2-vCPU Xeon host (``BENCH_26.json``)
single probes read either 3.0-3.4 ms or 4.6-5.9 ms: a load can last the
whole second of timings. Across a workload's 20 runs their correlation with
trials/s was -0.4 to -0.1. What the probe shows is a different CPU or clock,
and, per record, whether the two sides' medians agree (3.20 and 3.31 ms on
desk-as there). If any run's outputs were incorrect, or the cross-check CSV
digests of a workload differ between runs or sides, the script writes no
file and exits non-zero.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
PAIRS = 10  # per workload: the fewest pairs a comparison may rest on
SECONDS = 20.0  # timed loop of one run
PROBE_REPEATS = 300  # calibration timings per run, about 1 s
SIDES = ("parent", "change")
USAGE = ("minflt", "utime_s", "stime_s")


def summarise(values: list[float]) -> dict:
    """Median and interquartile range of one metric's run values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def usage_delta(before, after) -> dict:
    """Minor page faults and user and system CPU seconds between two getrusage readings."""
    return {"minflt": after.ru_minflt - before.ru_minflt,
            "utime_s": after.ru_utime - before.ru_utime,
            "stime_s": after.ru_stime - before.ru_stime}


def src_lines(checkout: Path) -> int:
    """Lines of the package source: the sum over ``src/**/*.py`` in ``checkout``."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (checkout / "src").rglob("*.py"))


def cpu_model(cpuinfo: Path = Path("/proc/cpuinfo")) -> str | None:
    """The first ``model name`` in ``cpuinfo``, or None where it names none."""
    try:
        lines = cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError:
        return None
    for line in lines:
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            return value.strip()
    return None


def calibration_probe() -> float:
    """Best of PROBE_REPEATS timings, in seconds, of cos and sin over a fixed
    1024 x 256 table: the same numpy work on every host and commit."""
    phases = np.linspace(-math.pi, math.pi, 1024 * 256).reshape(1024, 256)
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        np.cos(phases)
        np.sin(phases)
        best = min(best, perf_counter() - start)
    return best


def extract(rev: str, dest: Path) -> str:
    """Unpack the committed files of ``rev`` into ``dest``; its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``; its report, with the result line's verdict
    and the run's resource usage."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, **PINNED}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    usage = usage_delta(before, resource.getrusage(resource.RUSAGE_CHILDREN))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_record: {checkout} {workload} seed {seed} exited "
                 f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report_path = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["correct"] = result["correct"]
    report["usage"] = usage
    return report


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Per-pair change/parent ratios, their median and the pairs the change won."""
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(c > p if better == "higher" else c < p for p, c in zip(parent, change))
    return {"ratios": ratios, "median_ratio": statistics.median(ratios), "change_wins": wins}


def verdict(metric: dict, pairs: int) -> str:
    """One metric's verdict from its summary (both sides, ``change_wins``, ``better``
    and the ``BENCHMARK.json`` ``bound``), in this order of precedence:

    - ``gain``: the change won at least 9 of 10 pairs, and its median is
      better than the parent's by more than the parent's IQR;
    - ``regression``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    - ``unresolved``: the parent's IQR is wider than that bound, so the runs
      cannot tell a move of the bound's size from noise;
    - ``unchanged`` otherwise.
    """
    parent, change = metric["parent"], metric["change"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    better_by = sign * (change["median"] - parent["median"])
    allowed = metric["bound"] * abs(parent["median"])
    if 10 * metric["change_wins"] >= 9 * pairs and better_by > parent["iqr"]:
        return "gain"
    if -better_by > allowed:
        return "regression"
    if parent["iqr"] > allowed:
        return "unresolved"
    return "unchanged"


def record(checkouts: dict[str, Path], workloads: list[str], metrics: list[dict],
           pairs: int, seconds: float) -> dict:
    """Run every workload ``pairs`` times on each side, interleaved, and summarise."""
    reports = {name: {side: [] for side in SIDES} for name in workloads}
    orders = []
    for seed in range(1, pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        orders.append(order[0] + " first")
        for name in workloads:
            for side in order:
                calibration = calibration_probe()
                report = run_once(checkouts[side], name, seed, seconds)
                report["calibration_s"] = calibration
                reports[name][side].append(report)
                print(f"{name} seed {seed} {side}: "
                      f"{report['metrics']['trials_per_s']['value']:.2f} trials/s, "
                      f"correct={report['correct']}", file=sys.stderr)
    out = {}
    for name, runs in reports.items():
        values = {m["name"]: {side: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                              for side in SIDES} for m in metrics}
        out[name] = {
            "correct_runs": {side: sum(r["correct"] for r in runs[side]) for side in SIDES},
            "steal_share": {side: [r.get("steal_share") for r in runs[side]] for side in SIDES},
            "cross_check_csv_sha256": sorted({r["fingerprint"]["cross_check_csv_sha256"]
                                              for side in SIDES for r in runs[side]}),
            "usage": {key: {side: summarise([r["usage"][key] for r in runs[side]])
                            for side in SIDES} for key in USAGE},
            "calibration_s": {side: summarise([r["calibration_s"] for r in runs[side]])
                              for side in SIDES},
            "metrics": {},
        }
        for m in metrics:
            summary = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                       **{side: summarise(values[m["name"]][side]) for side in SIDES},
                       **compare(*(values[m["name"]][side] for side in SIDES), m["better"])}
            out[name]["metrics"][m["name"]] = {**summary, "verdict": verdict(summary, pairs)}
    return {"pairs_per_workload": pairs, "seconds_per_run": seconds, "order": orders,
            "cpu_model": cpu_model(),
            "environment": reports[workloads[0]]["change"][0]["environment"],
            "workloads": out}


def problems(bench: dict) -> list[str]:
    """Why a recorded set of runs must not become a BENCH file."""
    found = []
    for name, summary in bench["workloads"].items():
        for side, correct in summary["correct_runs"].items():
            if correct < bench["pairs_per_workload"]:
                found.append(f"{name}: {correct}/{bench['pairs_per_workload']} {side} runs "
                             "correct")
        if len(summary["cross_check_csv_sha256"]) != 1:
            found.append(f"{name}: cross-check digests differ: "
                         f"{summary['cross_check_csv_sha256']}")
    return found


def main(argv=None) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.label}.json"
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                           text=True, check=False).stdout.strip() != ""
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        parent_commit = extract(args.parent, Path(tmp))
        lines = {"parent": src_lines(Path(tmp)), "change": src_lines(ROOT)}
        bench = record({"parent": Path(tmp), "change": ROOT},
                       [w["name"] for w in spec["workloads"]], spec["end_to_end"],
                       PAIRS, SECONDS)
    bench = {"parent": parent_commit, "change_head": head, "change_dirty": dirty,
             "src_lines": lines, **bench}
    found = problems(bench)
    if found:
        sys.exit(f"bench_record: not writing {out.name}:\n" + "\n".join(found))
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    for name, summary in bench["workloads"].items():
        for metric, entry in summary["metrics"].items():
            print(f"{name:<10} {metric:<13} {entry['verdict']:<10} parent "
                  f"{entry['parent']['median']:.4g} [IQR {entry['parent']['iqr']:.3g}] change "
                  f"{entry['change']['median']:.4g}, median ratio {entry['median_ratio']:.3f}, "
                  f"change won {entry['change_wins']}/{bench['pairs_per_workload']}")
        probe = summary["calibration_s"]
        print(f"{'':<10} calibration probe parent {probe['parent']['median'] * 1e3:.2f} ms "
              f"[IQR {probe['parent']['iqr'] * 1e3:.2f}] change "
              f"{probe['change']['median'] * 1e3:.2f} ms [IQR {probe['change']['iqr'] * 1e3:.2f}]")
    print(f"src/ lines parent {lines['parent']} change {lines['change']}")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
