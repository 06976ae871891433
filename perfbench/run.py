"""Sweep benchmark for squintlab.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {desk-as,full-link,desk-fs} \
        --seed N --seconds S --trace {0,1}

One client sends ``squintlab.cli.cli_main(["run", ...])`` requests in a closed
loop, in this process, for ``--seconds``. Per-sweep seeds, and the seeds of the
set-up probes, derive from ``--seed``. Every emitted CSV is checked; after the
loop one sweep is rerun for byte identity and one-trial sweeps at fixed seeds
are recomputed through the library's own evaluation path.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates the
same sweeps untraced and traced (see tracing.py) and reports per-layer
metrics. The last line of standard output is the JSON result, holding the
metrics that BENCHMARK.json names for the mode; the lines before it print
every metric with its unit. A fuller report (environment, fingerprints, check
results) and the spans of the first traced sweep go to ``.perfbench_out/``.

BLAS threads are pinned to 1; SQUINTLAB_THREADS is left unset so the
program's own worker pool runs at its default size. The modules that import
squintlab (checks, tracing) are imported inside functions, once
``import_program`` has put this checkout's ``src/`` first on the path.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SQUINTLAB_THREADS")
SETUP_RUNS = 15  # fresh interpreters per run, spread over the timed loop; setup_s is their median
WARMUP_S = 2.0  # untimed sweeps before measuring, for caches and lazy set-up
TRACE_CYCLE = 2  # distinct sweep seeds a traced run repeats, untraced and traced
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SELF_SUM_TOL = 0.02  # |summed self times / traced wall - 1| allowed


class Ledger:
    """Sweeps attempted and failed, plus every problem found by any check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def pin_threads() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("SQUINTLAB_THREADS", None)


def import_program() -> None:
    """Import squintlab from this checkout's sources, or exit non-zero."""
    package = ROOT / "src" / "squintlab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no squintlab sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import squintlab

    if Path(squintlab.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported squintlab from {squintlab.__file__}, not {package}")


def run_sweep(call, workload, seed: int, output: Path, trials: int | None = None):
    """One request; returns (wall seconds, CSV bytes or None, problems)."""
    output.unlink(missing_ok=True)
    argv = workload.argv(seed, str(output), trials)
    with redirect_stdout(io.StringIO()):
        start = perf_counter()
        try:
            rc = call(argv)
        except Exception as exc:  # a request that raises is a failed sweep
            return perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"]
        wall = perf_counter() - start
    if rc != 0:
        return wall, None, [f"exit code {rc}"]
    from checks import check_csv

    data = output.read_bytes()
    return wall, data, check_csv(data, workload, trials or workload.trials, seed)


def setup_probe(workload, seed: int, output: Path, ledger: Ledger) -> float | None:
    """Seconds for a fresh interpreter to import squintlab and run one trial."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(ROOT),
           *workload.argv(seed, str(output), trials=1)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    except subprocess.TimeoutExpired:
        ledger.record(f"setup seed {seed}", ["probe timed out"])
        return None
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        ledger.record(f"setup seed {seed}", [f"probe failed: {done.stderr.strip()[-300:]}"])
        return None
    if result["rc"] != 0:
        ledger.record(f"setup seed {seed}", [f"exit code {result['rc']}"])
        return None
    ledger.record(f"setup seed {seed}", [])
    return result["setup_s"]


def warm_up(cli_main, workload, seed: int, csv_path: Path, ledger: Ledger) -> None:
    """Repeat one untimed sweep for WARMUP_S seconds."""
    start = perf_counter()
    while True:
        ledger.record(f"warm-up seed {seed}", run_sweep(cli_main, workload, seed, csv_path)[2])
        if perf_counter() - start >= WARMUP_S:
            return


def cpu_ticks() -> tuple[int, int] | None:
    """(stolen, total) CPU ticks of the machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice], guest
    # time being already counted in user and nice
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor took from this machine in between."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank of the sample with exactly TAIL_BEYOND above it
    return xs[rank - 1], 100.0 * rank / n, n


def timed_run(cli_main, workload, rng, seconds, csv_path, ledger, report):
    """The untraced closed loop, with set-up probes spread over it; end-to-end metrics.

    Probe i runs before the first sweep that starts after i/SETUP_RUNS of the
    window, so set-up time samples the same stretch of machine time as the
    sweeps. Probes left over when the window is too short run after it.
    """
    warm_up(cli_main, workload, rng.getrandbits(31), csv_path, ledger)
    walls, ok_walls, steals, setup, trials, first = [], [], [], [], 0, None
    probes = 0
    digest = hashlib.sha256()
    run_ticks = cpu_ticks()
    start = perf_counter()
    while perf_counter() - start < seconds:
        if probes < SETUP_RUNS and perf_counter() - start >= probes * seconds / SETUP_RUNS:
            setup.append(setup_probe(workload, rng.getrandbits(31), csv_path, ledger))
            probes += 1
        seed = rng.getrandbits(31)
        ticks = cpu_ticks()
        wall, data, problems = run_sweep(cli_main, workload, seed, csv_path)
        steals.append(steal_share(ticks, cpu_ticks()))
        ledger.record(f"sweep seed {seed}", problems)
        walls.append(wall)
        if not problems:
            ok_walls.append(wall)
            trials += workload.trials
            digest.update(data)
            first = first or (seed, data)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["steal_share"] = steal_share(run_ticks, cpu_ticks())
    setup += [setup_probe(workload, rng.getrandbits(31), csv_path, ledger)
              for _ in range(SETUP_RUNS - probes)]
    setup = [s for s in setup if s is not None]
    if not (ok_walls and setup):
        return {}, first
    tail_s, tail_pct, samples = tail(ok_walls)
    report["sweeps"] = {"walls_s": walls, "timed_csv_sha256": digest.hexdigest(),
                        "tail_percentile": tail_pct, "tail_samples": samples,
                        "setup_s": setup, "steal_shares": steals}
    return {
        "trials_per_s": (trials / sum(walls), "trials/s"),
        "sweep_s_p50": (statistics.median(ok_walls), "s"),
        "sweep_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }, first


def traced_run(cli_main, workload, rng, seconds, csv_path, ledger, report):
    """The same sweeps untraced and traced, in alternating order; per-layer metrics."""
    from squintlab.experiments import resolve_threads
    from tracing import Totals, Tracer, write_spans

    tracer, totals = Tracer(), Totals()

    def traced_cli(argv):
        return tracer.call("cli", "cli_main", cli_main, (argv,), {})

    seeds = [rng.getrandbits(31) for _ in range(TRACE_CYCLE)]
    warm_up(cli_main, workload, rng.getrandbits(31), csv_path, ledger)
    plain_s = traced_s = attributed_s = 0.0
    sweeps = csv_bytes = cycle = 0
    first = kept = None
    start = perf_counter()
    while cycle == 0 or perf_counter() - start < seconds:
        for i, seed in enumerate(seeds):
            results = {}
            for traced in ((False, True) if (cycle + i) % 2 == 0 else (True, False)):
                if traced:
                    tracer.sweep = sweeps + 1
                    tracer.install()
                    try:
                        results[traced] = run_sweep(traced_cli, workload, seed, csv_path)
                    finally:
                        tracer.uninstall()
                else:
                    results[traced] = run_sweep(cli_main, workload, seed, csv_path)
            (plain_wall, plain_data, plain_problems) = results[False]
            (traced_wall, traced_data, traced_problems) = results[True]
            if not (plain_problems or traced_problems) and traced_data != plain_data:
                traced_problems = ["traced CSV differs from the untraced CSV"]
            ledger.record(f"untraced seed {seed}", plain_problems)
            ledger.record(f"traced seed {seed}", traced_problems)
            spans = tracer.take()
            attributed_s += totals.add(spans)
            kept = kept or spans
            sweeps += 1
            plain_s += plain_wall
            traced_s += traced_wall
            csv_bytes += len(traced_data or b"")
            if first is None and plain_data is not None:
                first = (seed, plain_data)
        cycle += 1
    ratio = attributed_s / traced_s
    if abs(ratio - 1.0) > SELF_SUM_TOL:
        ledger.problems.append(f"summed self times are {ratio:.4f} of the traced wall time")
    write_spans(kept, OUT / f"{workload.name}-seed{report['seed']}.spans.csv.gz")
    report["trace"] = {"sweeps": sweeps, "cycles": cycle, "untraced_s": plain_s,
                       "traced_s": traced_s, "self_sum_ratio": ratio}
    metrics = totals.metrics(sweeps * workload.trials, sweeps)
    metrics["experiments.workers"] = (float(resolve_threads()), "count")
    metrics["cli.csv_bytes_per_sweep"] = (csv_bytes / sweeps, "B")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "fraction")
    return metrics, first


def correctness_checks(cli_main, workload, first, csv_path, ledger, report) -> None:
    """Rerun one sweep for byte identity; cross-check one-trial sweeps at fixed seeds."""
    from checks import CROSS_SEEDS, cross_check_problems

    if first is not None:
        seed, data = first
        _, again, problems = run_sweep(cli_main, workload, seed, csv_path)
        if not problems and again != data:
            problems = ["rerun CSV is not byte-identical"]
        ledger.record(f"determinism seed {seed}", problems)
        report["fingerprint"] = {"rerun_seed": seed,
                                 "rerun_csv_sha256": hashlib.sha256(data).hexdigest()}
    digest = hashlib.sha256()
    for seed in CROSS_SEEDS:
        _, data, problems = run_sweep(cli_main, workload, seed, csv_path, trials=1)
        if not problems:
            digest.update(data)
            problems = cross_check_problems(data, workload, seed)
        ledger.record(f"cross-check seed {seed}", problems)
    report.setdefault("fingerprint", {})["cross_check_csv_sha256"] = digest.hexdigest()


def environment() -> dict:
    import numpy as np
    from squintlab.experiments import resolve_threads

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "squintlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": resolve_threads(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None when there is no .git directory."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    pin_threads()
    import_program()
    from squintlab.cli import cli_main

    workload = WORKLOADS[args.workload]
    names = declared_metrics(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{workload.name}-{os.getpid()}.csv"
    rng = random.Random(args.seed)
    ledger = Ledger()
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "request": dataclasses.asdict(workload)}
    run = traced_run if args.trace else timed_run
    try:
        metrics, first = run(cli_main, workload, rng, args.seconds, csv_path, ledger, report)
        correctness_checks(cli_main, workload, first, csv_path, ledger, report)
    finally:
        csv_path.unlink(missing_ok=True)
    if not args.trace:
        metrics["failed_ratio"] = (ledger.failed / ledger.attempted, "fraction")
    report["environment"] = environment()
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    report["attempted"], report["failed"] = ledger.attempted, ledger.failed
    report["problems"] = ledger.problems
    report_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for problem in ledger.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit}")
    if "sweeps" in report:
        print(f"sweep_s_tail is p{report['sweeps']['tail_percentile']:.1f} "
              f"of {report['sweeps']['tail_samples']} sweeps")
    if report.get("steal_share") is not None:
        print(f"hypervisor steal during the timed loop: {100 * report['steal_share']:.1f} %")
    print(f"report: {report_path.relative_to(ROOT)}")
    result_metrics = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                      for name in names if name in metrics}
    print(json.dumps({
        "correct": not ledger.problems and len(result_metrics) == len(names),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result_metrics,
    }))


if __name__ == "__main__":
    main()
