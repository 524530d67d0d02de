"""Instrumentation that the benchmark installs around stamc's layers.

Everything here replaces module attributes and class methods of stamc
from the outside, and puts the originals back afterwards. Nothing under
``src/`` knows about it.

Self times are aggregated per layer instead of being kept as one span per
call: a traced suite pass makes millions of ``sample_delay`` calls.
"""

from __future__ import annotations

import functools
import heapq
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._saved = []
        self.missing = []  # "owner.name" hooks that no longer exist

    def replace(self, owner, name, make):
        """Set ``owner.name`` to ``make(original)``."""
        if not hasattr(owner, name):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        old = getattr(owner, name)
        self._saved.append((owner, name, old))
        setattr(owner, name, make(old))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


class LayerClock:
    """Self time and call count per layer.

    A wrapped call is charged its duration minus the time of the wrapped
    calls made inside it, so the self times of one pass add up to the time
    spent inside wrapped calls.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = []

    def wrap(self, layer, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += dt

        return timed

    def total_s(self) -> float:
        return sum(self.self_s.values())


# Nominal time of one ``reference_work()`` call: a scaled time is what the
# wall clock would read on a host that runs it in this many ms. (A 2.1 GHz
# Xeon core under Python 3.11 runs it in about 3 ms alone and in about 7 ms
# while the core's other hardware thread is busy.)
REFERENCE_MS = 4.0
# A run reuses the last reference timing taken this long ago or less.
SPEED_INTERVAL_S = 0.05


class _Event:
    __slots__ = ("t", "kind", "x")

    def __init__(self, t, kind, x):
        self.t, self.kind, self.x = t, kind, x

    def __lt__(self, other):
        return self.t < other.t


def reference_work(steps: int = 2500) -> float:
    """A fixed piece of pure-Python work shaped like the simulator's inner
    loop: a heap of small event objects, dict reads and writes, float
    arithmetic and a snapshot copy per step. It uses nothing from stamc,
    so no change to the program moves it; its time measures how fast the
    host runs Python at that moment."""
    lcg = 1
    heap = [_Event(i * 0.37 % 1.0, i % 7, float(i)) for i in range(64)]
    heapq.heapify(heap)
    state = dict.fromkeys(range(7), 0.0)
    for _ in range(steps):
        e = heapq.heappop(heap)
        v = state[e.kind] + e.x * 0.5
        state[e.kind] = v if v < 1e6 else 0.0
        snap = dict(state)
        lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Event(e.t + lcg / 2 ** 31,
                                    (e.kind + len(snap)) % 7, v % 97.0))
    return state[0]


class RunLog:
    """Latency, event count, end reason, bound and key of every
    ``engine.run``.

    Two clock reads per run: cheap enough to stay on in untraced runs.
    Worker processes forked after the wrapper is installed inherit it; they
    append their runs to one file each under ``spool_dir``, and ``collect``
    merges those files into the parent's lists.

    With ``scale`` on, each run is also timed against the host's speed:
    the speed of a shared host drifts by up to 2x over seconds to minutes
    with its other tenants' load, which no length of run averages away.
    Right before and right after a run the wrapper times
    ``reference_work()`` (or reuses a timing at most ``SPEED_INTERVAL_S``
    old, so one timing serves as one run's "after" and the next run's
    "before"); the run's scaled latency is its latency times
    ``REFERENCE_MS`` over the mean of the two. A change to the program
    moves the latency alone.
    """

    def __init__(self, spool_dir: Optional[Path] = None,
                 scale: bool = False):
        self.ms = []
        self.scaled = []  # latencies at the reference speed
        self.events = []
        self.bounds = []
        self.deadlocks = 0
        self.resimulated = 0
        self._keys = set()
        self._pid = os.getpid()
        self._spool_dir = spool_dir
        self._spool = None
        self._scale = scale
        self._ref_ms = REFERENCE_MS
        self._ref_at = float("-inf")

    def wrap(self, run):
        clock = time.perf_counter

        @functools.wraps(run)
        def logged(network, bound, rng, *args, **kwargs):
            ref_before = self._reference_ms()
            t0 = clock()
            trace = run(network, bound, rng, *args, **kwargs)
            ms = (clock() - t0) * 1e3
            ref_ms = (ref_before + self._reference_ms()) / 2
            record = (ms, ms * REFERENCE_MS / ref_ms, len(trace.events),
                      trace.end_reason != "bound_reached", float(bound))
            if os.getpid() != self._pid:
                self._write_spool(record)
                return trace
            self._add(*record)
            key = (rng.master_seed, rng.run_index, float(bound))
            self.resimulated += key in self._keys
            self._keys.add(key)
            return trace

        return logged

    def _reference_ms(self) -> float:
        if not self._scale:
            return REFERENCE_MS
        t0 = time.perf_counter()
        if t0 - self._ref_at >= SPEED_INTERVAL_S:
            reference_work()
            self._ref_at = time.perf_counter()
            self._ref_ms = (self._ref_at - t0) * 1e3
        return self._ref_ms

    def _add(self, ms, scaled, events, deadlock, bound):
        self.ms.append(ms)
        self.scaled.append(scaled)
        self.events.append(events)
        self.deadlocks += deadlock
        self.bounds.append(bound)

    def _write_spool(self, record):
        if self._spool_dir is None:
            return
        if self._spool is None:
            self._spool_dir.mkdir(parents=True, exist_ok=True)
            self._spool = open(self._spool_dir / f"runs-{os.getpid()}.txt",
                               "a", buffering=1)
        self._spool.write(" ".join(repr(v) for v in record) + "\n")

    def collect(self):
        """Merge and remove the files that worker processes wrote."""
        if self._spool_dir is None or not self._spool_dir.exists():
            return
        for path in sorted(self._spool_dir.glob("runs-*.txt")):
            for line in path.read_text().splitlines():
                ms, scaled, events, deadlock, bound = line.split()
                self._add(float(ms), float(scaled), int(events),
                          deadlock == "True", float(bound))
            path.unlink()

    def speed_factor(self, start: int) -> float:
        """Scaled over measured time of the runs from index ``start`` on:
        the factor that brings a wall time spent on them to the reference
        speed."""
        ms = sum(self.ms[start:])
        return sum(self.scaled[start:]) / ms if ms else 1.0

    def at(self, bound: float, values: list) -> list:
        """The entries of ``values`` (``ms`` or ``scaled``) of the runs to
        ``bound``."""
        return [v for v, b in zip(values, self.bounds) if b == bound]

    @property
    def runs(self) -> int:
        return len(self.ms)


class RouteCheck:
    """Counts runs on which the observer and the trace oracle disagree.

    ``smc`` asks the observer first and the oracle second about the same
    trace object; the two answers are paired by that object.
    """

    def __init__(self):
        self.compared = 0
        self.disagreements = 0
        self._observer = {}

    def wrap_observer(self, observer_failed):
        @functools.wraps(observer_failed)
        def observed(trace, *args, **kwargs):
            failed = observer_failed(trace, *args, **kwargs)
            self._observer[id(trace)] = failed
            return failed

        return observed

    def wrap_oracle(self, check_trace):
        @functools.wraps(check_trace)
        def judged(trace, *args, **kwargs):
            verdict = check_trace(trace, *args, **kwargs)
            failed = self._observer.pop(id(trace), None)
            if failed is not None:
                self.compared += 1
                self.disagreements += failed == verdict.wh_holds
            return verdict

        return judged


class PoolCounters:
    """Process pools created, runs dispatched and cancelled, and the time
    the parent waits on results and on shutdown.

    A submitted job is a chunk of run indices; its first argument's length
    is the number of runs it dispatches.
    """

    def __init__(self):
        self.created = 0
        self.runs_dispatched = 0
        self.runs_cancelled = 0
        self.wait_s = 0.0
        self.shutdown_s = 0.0

    def useful_ratio(self, runs_used: int) -> Optional[float]:
        """Runs the statistics used over runs the workers executed; None
        if no worker executed a run."""
        executed = self.runs_dispatched - self.runs_cancelled
        return runs_used / executed if executed else None

    def executor_class(self):
        counters = self
        clock = time.perf_counter

        class CountingExecutor(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counters.created += 1
                self._submitted = []

            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                runs = len(args[0]) if args and hasattr(args[0], "__len__") \
                    else 1
                counters.runs_dispatched += runs
                self._submitted.append((future, runs))
                result = future.result

                def timed_result(timeout=None):
                    t0 = clock()
                    try:
                        return result(timeout)
                    finally:
                        counters.wait_s += clock() - t0

                future.result = timed_result
                return future

            def shutdown(self, wait=True, *, cancel_futures=False):
                t0 = clock()
                try:
                    super().shutdown(wait=wait, cancel_futures=cancel_futures)
                finally:
                    counters.shutdown_s += clock() - t0
                for future, runs in self._submitted:
                    counters.runs_cancelled += runs * future.cancelled()
                self._submitted = []

        return CountingExecutor


def install_layer_clock(patches, clock, stamc_modules):
    """Wrap the public entry points of each layer with ``clock``."""
    cli, engine, model, monitors, parser, smc = (
        stamc_modules[k] for k in
        ("cli", "engine", "model", "monitors", "parser", "smc"))

    def wrap(layer):
        return lambda fn: clock.wrap(layer, fn)

    patches.replace(parser, "parse_model", wrap("parser"))
    patches.replace(parser, "parse_queries", wrap("parser"))
    patches.replace(model, "validate_model", wrap("model.validate"))
    patches.replace(cli, "validate_model", wrap("model.validate"))
    patches.replace(monitors, "attach_observer", wrap("monitors.attach"))
    patches.replace(smc, "instantiate", wrap("engine.instantiate"))
    patches.replace(smc, "CompiledNetwork", wrap("engine.compile"))
    patches.replace(smc, "evaluate_query", wrap("smc"))
    patches.replace(smc, "chernoff_runs", wrap("smc.stats"))
    patches.replace(smc, "clopper_pearson", wrap("smc.stats"))
    patches.replace(smc.Sprt, "feed", wrap("smc.stats"))
    patches.replace(smc, "evaluate_path_formula", wrap("smc.judge"))
    patches.replace(monitors, "check_trace", wrap("monitors.oracle"))
    patches.replace(monitors, "observer_failed", wrap("monitors.observer"))
    patches.replace(smc, "run", wrap("engine.run"))
    patches.replace(engine.Simulator, "step", wrap("engine.step"))
    patches.replace(engine.Simulator, "sample_delay",
                    wrap("engine.sample_delay"))
    patches.replace(engine.Simulator, "advance_time",
                    wrap("engine.advance_time"))
