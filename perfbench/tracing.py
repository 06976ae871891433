"""Span tracing of squintlab's seven modules, installed from outside the program.

``Tracer.install`` replaces every function that one squintlab module binds
from another, in the importing module's namespace (``experiments.channel_columns``,
``precoding._element_ranges``, ``slicing.freq_boundary``, ``cli.run_experiment``,
...), with a wrapper that records a span: name, layer (the module that defines
the function), start and end, parent span and sweep id. Parents come from a
per-thread stack. The worker pool ``experiments._map_trials`` is wrapped as
well, so a trial run on a pool thread is an ``experiments`` span whose parent
is the pool call. Spans stay in memory until the caller takes them.

``attribute`` turns one sweep's spans into self times that add up to the
sweep's wall time, also when pool threads overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "squintlab"
LAYERS = ("scenario", "wavefield", "boundaries", "slicing", "precoding", "experiments", "cli")
ANALOG = ("analog_slice_precoder", "analog_subband_precoder")
DIGITAL = ("hybrid_gain_amplitudes",)


class Span:
    __slots__ = ("id", "parent", "sweep", "thread", "layer", "name",
                 "start", "end", "error", "work")

    def __init__(self, span_id, parent, sweep, thread, layer, name):
        self.id = span_id
        self.parent = parent  # 0 for a root span
        self.sweep = sweep
        self.thread = thread
        self.layer = layer
        self.name = name
        self.start = self.end = 0.0
        self.error = None  # exception class name when the call raised
        self.work = None  # counts measured at the call, see METERS


# Work counted at the call boundary, from the arguments and the result.
def _phase_work(result, geom, grid, paths, *args, **kwargs):
    """(N*M' output elements, paths) of a channel synthesis call."""
    entries = getattr(result, "entries", result)
    return entries.shape[0] * entries.shape[1], len(paths)


def _paths_work(result, *args, **kwargs):
    """Paths drawn: a path list, or one list per user."""
    return sum(len(item) if isinstance(item, list) else 1 for item in result)


def _subband_work(result, *args, **kwargs):
    return len(result.subbands)


METERS = {
    "channel_columns": _phase_work,
    "synth_channel": _phase_work,
    "sample_scenario": _paths_work,
    "sample_user_paths": _paths_work,
    "allocate_subbands": _subband_work,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.sweep = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, name, fn, args, kwargs, parent=None, meter=None):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1].id if stack else 0
        span = Span(next(self._ids), parent, self.sweep, threading.get_ident(), layer, name)
        stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)
        if meter is not None:
            span.work = meter(result, *args, **kwargs)
        return result

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, layer, fn):
        name, meter, call = fn.__name__, METERS.get(fn.__name__), self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(layer, name, fn, args, kwargs, None, meter)

        return traced

    def _wrap_pool(self, map_trials):
        call, stack = self.call, self._stack

        @functools.wraps(map_trials)
        def traced(trials, fn):
            def run_pool():
                pool_span = stack()[-1].id

                def trial(t):
                    return call("experiments", "trial", fn, (t,), {}, pool_span)

                return map_trials(trials, trial)

            return call("experiments", map_trials.__name__, run_pool, (), {})

        return traced

    def _patch(self, module, attr, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__ != module.__name__
                        and value.__module__.startswith(PACKAGE + ".")):
                    owner = value.__module__.rsplit(".", 1)[1]
                    self._patch(module, attr, self._wrap(owner, value))
        experiments = importlib.import_module(f"{PACKAGE}.experiments")
        if hasattr(experiments, "_map_trials"):
            self._patch(experiments, "_map_trials", self._wrap_pool(experiments._map_trials))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def attribute(spans: list[Span]) -> dict[int, float]:
    """Self time of each span of one sweep, in seconds.

    At each instant a thread is busy in its innermost open span, unless that
    span waits for an open child on another thread (the pool waiting for its
    trials). The instant is shared equally among the busy threads. With one
    thread this is a span's duration minus its children's; with pool threads
    the self times still sum to the wall time the root spans cover.
    """
    by_id = {s.id: s for s in spans}
    events = []
    for s in spans:
        # at equal times: closes first, inner closes before outer, outer opens first
        events.append((s.start, 1, s.id, s))
        events.append((s.end, 0, -s.id, s))
    events.sort(key=lambda e: e[:3])
    stacks: dict[int, list[Span]] = defaultdict(list)
    waiting: Counter = Counter()
    self_s: dict[int, float] = defaultdict(float)
    last = None
    for t, opens, _, s in events:
        if last is not None and t > last:
            busy = [st[-1] for st in stacks.values() if st and not waiting[st[-1].id]]
            for b in busy:
                self_s[b.id] += (t - last) / len(busy)
        last = t
        parent = by_id.get(s.parent)
        cross = parent is not None and parent.thread != s.thread
        if opens:
            stacks[s.thread].append(s)
            if cross:
                waiting[parent.id] += 1
        else:
            stacks[s.thread].remove(s)
            if cross:
                waiting[parent.id] -= 1
    return self_s


class Totals:
    """Per-layer counts and self times folded over traced sweeps."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.name_self_s: dict[str, float] = defaultdict(float)
        self.name_calls: Counter = Counter()
        self.name_errors: Counter = Counter()
        self.infeasible: Counter = Counter()
        self.work: Counter = Counter()

    def add(self, spans: list[Span]) -> float:
        """Fold one sweep's spans in; returns their summed self time."""
        self_s = attribute(spans)
        for s in spans:
            own = self_s.get(s.id, 0.0)
            self.self_s[s.layer] += own
            self.calls[s.layer] += 1
            self.name_self_s[s.name] += own
            self.name_calls[s.name] += 1
            if s.error is not None:
                self.name_errors[s.name] += 1
                if s.error == "InfeasiblePlanError":
                    self.infeasible[s.layer] += 1
            if s.work is None:
                continue
            if s.name in ("channel_columns", "synth_channel"):
                elems, paths = s.work
                self.work["phase_elems"] += elems * paths
                self.work["bytes_out"] += 16 * elems
            elif s.name in ("sample_scenario", "sample_user_paths"):
                self.work["paths_drawn"] += s.work
            elif s.name == "allocate_subbands":
                self.work["subbands"] += s.work
        return sum(self_s.values())

    def metrics(self, trials: int, sweeps: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit), normalised per trial or sweep."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_trial"] = (1e3 * self.self_s[layer] / trials, "ms")
            out[f"{layer}.calls_per_trial"] = (self.calls[layer] / trials, "count")
        phase = self.work["phase_elems"]
        out["wavefield.phase_elems_per_trial"] = (phase / trials, "count")
        out["wavefield.bytes_out_per_trial"] = (self.work["bytes_out"] / trials, "B")
        out["wavefield.ns_per_phase_elem"] = (
            1e9 * self.self_s["wavefield"] / phase if phase else 0.0, "ns")
        out["scenario.paths_drawn_per_trial"] = (self.work["paths_drawn"] / trials, "count")
        attempts = self.name_calls["allocate_subbands"]
        successes = attempts - self.name_errors["allocate_subbands"]
        out["slicing.alloc_attempts_per_trial"] = (attempts / trials, "count")
        # 1.0 when nothing was attempted: no allocation work was wasted
        out["slicing.alloc_success_ratio"] = (successes / attempts if attempts else 1.0,
                                              "fraction")
        out["slicing.subbands_per_trial"] = (self.work["subbands"] / trials, "count")
        out["slicing.infeasible_per_trial"] = (self.infeasible["slicing"] / trials, "count")
        out["precoding.analog_ms_per_trial"] = (
            1e3 * sum(self.name_self_s[n] for n in ANALOG) / trials, "ms")
        out["precoding.digital_ms_per_trial"] = (
            1e3 * sum(self.name_self_s[n] for n in DIGITAL) / trials, "ms")
        out["cli.self_ms_per_sweep"] = (1e3 * self.self_s["cli"] / sweeps, "ms")
        return out


def write_spans(spans: list[Span], path) -> None:
    """Write spans as gzip'd CSV, times in ns from the first span's start."""
    origin = min((s.start for s in spans), default=0.0)
    threads: dict[int, int] = {}
    with gzip.open(path, "wt", encoding="ascii", newline="\n") as fh:
        fh.write("id,parent,sweep,thread,layer,name,start_ns,end_ns,error,work\n")
        for s in sorted(spans, key=lambda s: s.id):
            thread = threads.setdefault(s.thread, len(threads))
            work = ";".join(map(str, s.work)) if isinstance(s.work, tuple) else s.work
            fh.write(f"{s.id},{s.parent},{s.sweep},{thread},{s.layer},{s.name},"
                     f"{round((s.start - origin) * 1e9)},{round((s.end - origin) * 1e9)},"
                     f"{s.error or ''},{'' if work is None else work}\n")
