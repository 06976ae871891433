"""Record a BENCH file: repeated perfbench runs, summarised per workload.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --label 11

Each of RUNS rounds runs ``perfbench/run.py --trace 0`` for SECONDS once per
workload, in turn, as a subprocess with BLAS threads pinned to 1; round i uses
workload seed i. Interleaving the workloads spreads slow stretches of the
machine over all of them. The per-run reports under ``.perfbench_out/`` give
the metrics, the environment and the fingerprints. ``BENCH_<label>.json`` at
the root of the checkout gets, per workload, the median and interquartile range
of every end-to-end metric that ``BENCHMARK.json`` names, the run values, the
hypervisor steal share of each run and the cross-check CSV digest. If any run's
outputs were incorrect, or the runs of a workload disagree on the cross-check
digest, the script writes no file and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
RUNS = 5  # per workload: the fewest a BENCH median may rest on
SECONDS = 20.0  # timed loop of one run


def summarise(values: list[float]) -> dict:
    """Median and interquartile range of one metric's run values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its report, with the result line's verdict."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, **PINNED}
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_record: {workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report_path = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["correct"] = result["correct"]
    return report


def record(workloads: list[str], metrics: list[str], runs: int, seconds: float) -> dict:
    """Run every workload ``runs`` times, interleaved, and summarise the reports."""
    reports: dict[str, list[dict]] = {name: [] for name in workloads}
    for seed in range(1, runs + 1):
        for name in workloads:
            report = run_once(name, seed, seconds)
            reports[name].append(report)
            trials = report["metrics"]["trials_per_s"]["value"]
            print(f"{name} seed {seed}: {trials:.2f} trials/s, "
                  f"correct={report['correct']}", file=sys.stderr)
    environment = reports[workloads[0]][0]["environment"]
    return {
        "runs_per_workload": runs,
        "seconds_per_run": seconds,
        "environment": environment,
        "workloads": {
            name: {
                "correct_runs": sum(r["correct"] for r in done),
                "steal_share": [r.get("steal_share") for r in done],
                "cross_check_csv_sha256": sorted({r["fingerprint"]["cross_check_csv_sha256"]
                                                  for r in done}),
                "metrics": {metric: {"unit": done[0]["metrics"][metric]["unit"],
                                     **summarise([r["metrics"][metric]["value"]
                                                  for r in done])}
                            for metric in metrics},
            }
            for name, done in reports.items()
        },
    }


def problems(bench: dict) -> list[str]:
    """Why a recorded set of runs must not become a BENCH file."""
    found = []
    for name, summary in bench["workloads"].items():
        if summary["correct_runs"] < bench["runs_per_workload"]:
            found.append(f"{name}: {summary['correct_runs']}/{bench['runs_per_workload']} "
                         "runs correct")
        if len(summary["cross_check_csv_sha256"]) != 1:
            found.append(f"{name}: cross-check digests differ across runs: "
                         f"{summary['cross_check_csv_sha256']}")
    return found


def main(argv=None) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    bench = record([w["name"] for w in spec["workloads"]],
                   [m["name"] for m in spec["end_to_end"]], RUNS, SECONDS)
    out = ROOT / f"BENCH_{args.label}.json"
    found = problems(bench)
    if found:
        sys.exit(f"bench_record: not writing {out.name}:\n" + "\n".join(found))
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    for name, summary in bench["workloads"].items():
        tps = summary["metrics"]["trials_per_s"]
        print(f"{name:<10} trials/s median {tps['median']:.2f} IQR {tps['iqr']:.2f} "
              f"({summary['correct_runs']}/{RUNS} correct)")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
