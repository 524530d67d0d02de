"""The three workloads of the stamc benchmark, their correctness gates and
their metrics.

``suite``
    The ``check`` command, the paper's headline command, at two workers on
    15 queries and one observer drawn from ``models/requirements.q``. Many
    of its queries re-simulate one run stream, and its short SPRTs expose
    the runs a process pool has in flight when a test decides.
``engine-runs``
    ``engine.run`` from (seed, i) for i = 0..N-1 on ``av.sta`` at
    ``h_max = 10``, one worker, no statistics. It isolates the simulator:
    delay sampling, window probing, firing and snapshots.
``energy-default-step``
    ``E[<=B; N](max: energy.braking_en)`` at the default RK4 step ceiling,
    one worker. Clock integration in ``advance_time`` dominates it.

Every workload is a closed loop driven by this one process. A unit of work
(one ``check``, N runs, one E query) takes its master seed from the
benchmark seed and the unit's index, so a seed fixes every input.

The end-to-end times are scaled to one host speed, measured next to every
run with a fixed reference routine (``layers.RunLog``), because a shared
host's speed drifts by up to 2x with its other tenants' load; the log
prints them unscaled too. Set-up time is scaled in ``run.py``; per-layer
times are as measured.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import re
import resource
import shutil
import statistics
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import stamc.cli as cli
from stamc import engine, expr, model, monitors, parser, smc
from stamc.avmodel import AvConfig
from stamc.queries import ObserverDecl

import layers

ROOT = Path(__file__).resolve().parent.parent
MODEL = ROOT / "models" / "av.sta"
REQUIREMENTS = ROOT / "models" / "requirements.q"
STAMC = {"cli": cli, "engine": engine, "model": model, "monitors": monitors,
         "parser": parser, "smc": smc}

# Ten SPRT queries and R51, whose latency oracle does not depend on the
# bound, share one shortened bound. With the whole slice at the file's bound
# of 3000, a two-worker check takes minutes on a 2-core machine, because
# every short SPRT waits for the 128 runs its pool has queued.
SAME_BOUND = ("R1", "R16", "R25", "R30", "R37", "R40",
              "R46", "R48", "R49", "R50", "R51")
# Kept at the file's bound: R26 decides, R28 exhausts its budget and falls
# back to the indifference rule (at 400 it decides), R42 has the acceptance
# test's band, and R45 is one run.
FILE_BOUND = ("R26", "R28", "R42", "R45")
# R26's expectation holds at the file's bound, not at a toy bound: up to a
# few hundred time units its two probabilities are close, and the compare
# may decide either way. The tiny size keeps it at the file's bound.
KEEP_BOUND = ("R26",)
OBSERVER = "CamToReg"
SUITE_WORKERS = 2
SUITE_H_MAX = 10.0
# Loosened so that the slice fits, but so that every test still runs as
# written. The ten SPRTs test p0 = 0.95; at 0.04, p0 + delta stays below 1,
# so a valid query decides after about 35 successes and one failure does
# not decide it. Epsilon 0.2 gives the compare queries and R51 a budget of
# 47 runs: R26 decides within it (about 30 pairs), R28 has no discordant
# pair and exhausts it.
SUITE_INDIFFERENCE = 0.04
SUITE_EPSILON = 0.2

ENGINE_H_MAX = 10.0
ENGINE_WATCH = ("(wvl + wvr) / 2",)
ENERGY_EXPR = "energy.braking_en"
SPEED_EXPR = "(wvl + wvr) / 2"
CLOSED_FORM_RTOL = 1e-9
MAX_UNITS = 64


class BenchError(Exception):
    """The benchmark cannot run here (missing files, bad arguments)."""


@dataclass(frozen=True)
class Size:
    name: str
    suite_bound: int  # bound of the SAME_BOUND queries
    file_bound: Optional[int]  # None keeps FILE_BOUND queries as written;
    # KEEP_BOUND queries keep it at every size
    r42_runs: Optional[int]  # None keeps R42's run count as written
    r42_band: Optional[tuple]  # acceptance band of R42's mean
    engine_bound: float
    engine_runs: int  # runs per unit
    energy_bound: float
    energy_runs: int  # runs per unit
    min_runs: int  # runs a measurement collects, so p90 has ten beyond it
    setup_probes: int


FULL = Size("full", suite_bound=400, file_bound=None, r42_runs=None,
            r42_band=(300.0, 600.0), engine_bound=3000.0, engine_runs=25,
            energy_bound=150.0, energy_runs=25, min_runs=100,
            setup_probes=5)
TINY = Size("tiny", suite_bound=60, file_bound=60, r42_runs=4,
            r42_band=None, engine_bound=60.0, engine_runs=3,
            energy_bound=40.0, energy_runs=3, min_runs=1, setup_probes=1)
SIZES = {s.name: s for s in (FULL, TINY)}


def unit_seed(seed: int, k: int) -> int:
    """Master seed of unit k of a run at benchmark seed ``seed``."""
    return (seed % 2 ** 32) * MAX_UNITS + k


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _key(text: str) -> str:
    return expr.to_text(parser.parse_expression(text))


# --- the slice of the requirement suite -----------------------------------


def slice_text(size: Size) -> str:
    """The suite's query file, drawn from models/requirements.q."""
    out, found = [], set()
    for line in REQUIREMENTS.read_text().splitlines():
        line = line.strip()
        name = line.split(":", 1)[0]
        if name in SAME_BOUND:
            line = _rebound(line, size.suite_bound)
        elif name in FILE_BOUND:
            if size.file_bound is not None and name not in KEEP_BOUND:
                line = _rebound(line, size.file_bound)
            if name == "R42" and size.r42_runs is not None:
                line = re.sub(r";\s*\d+\]", f"; {size.r42_runs}]", line)
        elif line.startswith(f"observer {OBSERVER} "):
            name = OBSERVER
        else:
            continue
        found.add(name)
        out.append(line)
    missing = set(SAME_BOUND + FILE_BOUND + (OBSERVER,)) - found
    if missing:
        raise BenchError(f"{REQUIREMENTS} lacks {sorted(missing)}")
    return "\n".join(out) + "\n"


def _rebound(line: str, bound: int) -> str:
    line = re.sub(r"\[<=\s*[0-9.]+", f"[<={bound}", line)
    return re.sub(r"bound=[0-9.]+", f"bound={bound}", line)


def latency_oracle(cutoff: float) -> float:
    """P(camera exposure + recognition <= cutoff) by convolution, with
    exposure ~ U[0, cam upper] and recognition ~ U[reg band]."""
    import scipy.integrate
    cfg = AvConfig()
    lo, hi = cfg.reg_exec

    def cdf_exposure(x):
        return min(max(x / cfg.cam_exec_upper, 0.0), 1.0)

    val, _ = scipy.integrate.quad(
        lambda y: cdf_exposure(cutoff - y) / (hi - lo), lo, hi)
    return val


# --- memory ---------------------------------------------------------------


def _rss_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Peak resident memory of this process plus its worker processes.

    A thread sums the resident sets of this process and its live children
    every 50 ms, often enough to see the four workers of a compare query
    side by side; the process's own high-water mark is a floor. Pages a
    forked worker still shares with its parent count in both.
    """

    def __init__(self, poll_children: bool):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = None
        if poll_children:
            self._thread = threading.Thread(target=self._poll, daemon=True)
            self._thread.start()

    def _poll(self):
        while not self._stop.wait(0.05):
            total = _rss_kb("self") + sum(
                _rss_kb(p.pid) for p in multiprocessing.active_children())
            self.peak_kb = max(self.peak_kb, total)

    def stop_mb(self) -> float:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kb, own) / 1024.0


# --- results ----------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    problems: list  # failed correctness checks, as text
    notes: dict  # sample counts and other context for the log


def _end_to_end(setup_s, walls, runs_used, run_ms, rss_mb):
    """The end-to-end metrics. Times come scaled to the reference speed
    (``layers.RunLog``, ``run.measure_setup``). A run that recorded no
    latency has already failed a check; its latencies then read 0."""
    rates = [n / w for n, w in zip(runs_used, walls)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "runs_per_s": (statistics.median(rates), "1/s"),
        "run_ms.p50": (statistics.median(run_ms) if run_ms else 0.0, "ms"),
        "run_ms.p90": (_p90(run_ms) if run_ms else 0.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _wall_clock(walls, runs_used, run_ms) -> dict:
    """The timed metrics as the wall clock read them, unscaled, for the
    log."""
    return {"wall_clock": {k: round(v, 6) for k, (v, _) in _end_to_end(
        0.0, walls, runs_used, run_ms, 0.0).items()
        if k not in ("setup_s", "peak_rss_mb")}}


# Per-layer metrics of layers that a workload does not exercise. Every
# traced run reports every per-layer metric; these read 0 and the log
# names them, so that a 0 here is not mistaken for a measurement.
POOL_METRICS = ("smc.pool.created", "smc.pool.runs_dispatched",
                "smc.pool.runs_cancelled", "smc.pool.wait_s",
                "smc.pool.shutdown_s", "smc.pool.useful_ratio",
                "trace.pool_pass_wall_s")
NO_CHECK = ("monitors.attach_s", "monitors.oracle_s", "monitors.observer_s",
            "monitors.route_disagreements", "smc.judge_s", "smc.stats_s",
            "cli.self_s") + POOL_METRICS
NOT_APPLICABLE = {
    "suite": (),
    "engine-runs": NO_CHECK + ("smc.self_s", "smc.runs_used"),
    "energy-default-step": NO_CHECK,
}


def _per_layer(workload, clock, log, ref_log, runs_used, wall, ref_wall,
               pool=None, pool_used=0, pool_wall=0.0, route=None):
    """The per-layer metrics and the names of those that do not apply."""
    s, calls = clock.self_s, clock.calls
    events = sum(log.events) or 1
    pool = pool or layers.PoolCounters()
    metrics = {
        "parser.parse_s": s["parser"],
        "model.validate_s": s["model.validate"],
        "monitors.attach_s": s["monitors.attach"],
        "engine.compile_s": s["engine.compile"] + s["engine.instantiate"],
        "engine.compiles": calls["engine.compile"],
        "engine.runs": log.runs,
        "engine.events_per_run":
            statistics.median(log.events) if log.events else 0,
        "engine.us_per_event":
            sum(ref_log.ms) * 1e3 / (sum(ref_log.events) or 1),
        "engine.deadlock_runs": log.deadlocks,
        "engine.run_self_s": s["engine.run"],
        "engine.step_self_s": s["engine.step"],
        "engine.sample_delay_s": s["engine.sample_delay"],
        "engine.sample_delay_calls_per_event":
            calls["engine.sample_delay"] / events,
        "engine.advance_time_s": s["engine.advance_time"],
        "engine.advance_time_calls_per_event":
            calls["engine.advance_time"] / events,
        "monitors.oracle_s": s["monitors.oracle"],
        "monitors.observer_s": s["monitors.observer"],
        "monitors.route_disagreements": route.disagreements if route else 0,
        "smc.judge_s": s["smc.judge"],
        "smc.stats_s": s["smc.stats"],
        "smc.self_s": s["smc"],
        "smc.runs_used": runs_used,
        "smc.runs_simulated": log.runs,
        "smc.resimulated_share": log.resimulated / (log.runs or 1),
        "smc.pool.created": pool.created,
        "smc.pool.runs_dispatched": pool.runs_dispatched,
        "smc.pool.runs_cancelled": pool.runs_cancelled,
        "smc.pool.wait_s": pool.wait_s,
        "smc.pool.shutdown_s": pool.shutdown_s,
        "smc.pool.useful_ratio": pool.useful_ratio(pool_used) or 0.0,
        "cli.self_s": s["cli"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": ref_wall,
        "trace.overhead_s": wall - ref_wall,
        "trace.self_sum_s": clock.total_s(),
        "trace.pool_pass_wall_s": pool_wall,
    }
    not_applicable = NOT_APPLICABLE[workload]
    for name in not_applicable:
        metrics[name] = 0
    return {k: (v, _unit(k)) for k, v in metrics.items()}, not_applicable


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("calls_per_event"):
        return "calls/event"
    if name.endswith("us_per_event"):
        return "us"
    return "count"


# --- workloads -------------------------------------------------------------


class Workload:
    """Set-up, one unit of work, and the checks of its outputs."""

    name = ""

    def __init__(self, size: Size, work_dir: Path):
        self.size = size
        self.work_dir = work_dir

    def setup(self):
        """Everything a fresh process does before its first simulated run."""
        raise NotImplementedError

    def _model(self):
        m = parser.parse_model(MODEL.read_text(), str(MODEL))
        report = model.validate_model(m)
        if not report.ok:
            raise BenchError(f"{MODEL} does not validate: {report.errors}")
        return m


class Suite(Workload):
    name = "suite"

    def setup(self):
        text = slice_text(self.size)
        self.slice_path = self.work_dir / "slice.q"
        self.slice_path.write_text(text)
        m = self._model()
        for nq in parser.parse_queries(text, str(self.slice_path)):
            if isinstance(nq.query, ObserverDecl):
                m = monitors.attach_observer(m, nq.query.constraint,
                                             nq.query.name)
        engine.CompiledNetwork(model.instantiate(m))

    def check(self, seed: int, workers: int, tag: str, clock=None):
        """One in-process ``stamc check`` of the slice.

        Returns (rows, wall seconds, problems by query)."""
        out = self.work_dir / tag
        args = ["check", str(MODEL), str(self.slice_path), "--seed",
                str(seed), "--h-max", str(SUITE_H_MAX), "--indifference",
                str(SUITE_INDIFFERENCE), "--epsilon", str(SUITE_EPSILON),
                "--workers", str(workers), "--out", str(out)]
        main = cli.main if clock is None else clock.wrap("cli", cli.main)
        console = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(console), redirect_stderr(console):
            try:
                code = main(args, standalone_mode=False) or 0
            except SystemExit as exc:
                code = exc.code
        wall = time.perf_counter() - t0
        results = out / "results.json"
        rows = (json.loads(results.read_text())["results"]
                if results.exists() else [])
        shutil.rmtree(out, ignore_errors=True)
        problems = self.gate(rows)
        if code != 0:
            problems.setdefault("check", []).append(
                f"exit code {code}: {console.getvalue()[-500:]}")
        return rows, wall, problems

    def gate(self, rows) -> dict:
        """Misses per query: verdict against ``expect``, R42's band, R51
        against the latency oracle, and observer against trace oracle."""
        problems = {}
        by_name = {r["name"]: r for r in rows}
        for name in SAME_BOUND + FILE_BOUND:
            if name not in by_name:
                problems.setdefault(name, []).append("no result row")
        for r in rows:
            miss = problems.setdefault(r["name"], [])
            if r["expected"] is not None and r["verdict"] != r["expected"]:
                miss.append(f"verdict {r['verdict']}, expected "
                            f"{r['expected']}")
            oracle = r["details"].get("oracle_verdict")
            if oracle is not None and oracle != r["verdict"]:
                miss.append(f"observer {r['verdict']}, oracle {oracle}")
        r42 = by_name.get("R42")
        if r42 and self.size.r42_band:
            lo, hi = self.size.r42_band
            if not lo <= r42["p_hat"] <= hi:
                problems["R42"].append(f"mean {r42['p_hat']} not in "
                                       f"[{lo}, {hi}]")
        r51 = by_name.get("R51")
        if r51:
            cutoff = float(re.search(r"dclk\s*<=\s*([0-9.]+)",
                                     self.slice_path.read_text()).group(1))
            reference = latency_oracle(cutoff)
            if reference < 0.99 or r51["p_hat"] < 0.99:
                problems["R51"].append(f"p_hat {r51['p_hat']}, "
                                       f"oracle {reference}")
        return {k: v for k, v in problems.items() if v}

    @staticmethod
    def runs_used(rows) -> int:
        """Runs the statistics consumed; a compare row counts both streams."""
        return sum(r["runs"] * (2 if "p1_hat" in r["details"] else 1)
                   for r in rows)

    @staticmethod
    def comparable(rows):
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

    def measure(self, seed, seconds, setup_s) -> Outcome:
        """Two-worker checks until ``seconds`` have passed.

        ``run_ms`` covers the runs to the shared bound, in whichever
        process ran them, so that it does not move with the mix of bounds
        that a change to the run scheduling would bring."""
        rss = PeakRss(poll_children=True)
        log = layers.RunLog(spool_dir=self.work_dir / "spool", scale=True)
        walls, raw_walls, used, problems = [], [], [], []
        attempted = failed = 0
        t0 = time.perf_counter()
        for k in range(MAX_UNITS):
            s, before = unit_seed(seed, k), log.runs
            with layers.Patches() as p:
                p.replace(smc, "run", log.wrap)
                rows, wall, miss = self.check(s, SUITE_WORKERS, f"w2-{k}")
            log.collect()
            walls.append(wall * log.speed_factor(before))
            raw_walls.append(wall)
            used.append(self.runs_used(rows))
            attempted += max(len(rows), 1)
            failed += len(miss)
            problems += [f"seed {s}: {q}: {m}" for q, m in miss.items()]
            if time.perf_counter() - t0 >= seconds:
                break
        if log.deadlocks:
            problems.append(f"{log.deadlocks} runs ended before the bound")
        run_ms = log.at(self.size.suite_bound, log.scaled)
        if len(run_ms) < self.size.min_runs:
            problems.append(f"worker runs not recorded: {len(run_ms)} runs "
                            f"to bound {self.size.suite_bound}, fewer than "
                            f"{self.size.min_runs}")
        return Outcome(_end_to_end(setup_s, walls, used, run_ms,
                                   rss.stop_mb()),
                       attempted, failed, problems,
                       {"units": len(walls), "run_samples": len(run_ms),
                        "runs_executed": log.runs,
                        **_wall_clock(raw_walls, used, log.at(
                            self.size.suite_bound, log.ms))})

    def trace(self, seed) -> Outcome:
        s = unit_seed(seed, 0)
        ref_log = layers.RunLog()
        with layers.Patches() as p:
            p.replace(smc, "run", ref_log.wrap)
            ref_rows, ref_wall, ref_miss = self.check(s, 1, "ref")

        clock, log, route = layers.LayerClock(), layers.RunLog(), \
            layers.RouteCheck()
        with layers.Patches() as p:
            layers.install_layer_clock(p, clock, STAMC)
            p.replace(smc, "run", log.wrap)
            p.replace(monitors, "observer_failed", route.wrap_observer)
            p.replace(monitors, "check_trace", route.wrap_oracle)
            rows, wall, miss = self.check(s, 1, "traced", clock)
            missing = p.missing

        pool = layers.PoolCounters()
        with layers.Patches() as p:
            p.replace(smc, "ProcessPoolExecutor",
                      lambda _: pool.executor_class())
            pool_rows, pool_wall, pool_miss = self.check(
                s, SUITE_WORKERS, "pool")

        problems = [f"hook {h} not found" for h in missing]
        failed = 0
        for label, miss in (("untraced", ref_miss), ("traced", miss),
                            ("pool pass", pool_miss)):
            failed += len(miss)
            problems += [f"{label}: {q}: {m}" for q, m in miss.items()]
        if not (self.comparable(ref_rows) == self.comparable(rows)
                == self.comparable(pool_rows)):
            problems.append("rows differ between the untraced run, the "
                            "traced pass and the two-worker pass")
        if ref_log.events != log.events:
            problems.append("events per run differ under tracing")
        if route.disagreements:
            problems.append(f"{route.disagreements} runs where observer "
                            "and trace oracle disagree")
        if pool.runs_dispatched == pool.runs_cancelled:
            problems.append("the process pool executed no run")
        metrics, _ = _per_layer(self.name, clock, log, ref_log,
                                self.runs_used(rows), wall, ref_wall, pool,
                                self.runs_used(pool_rows), pool_wall, route)
        return Outcome(metrics, len(rows) + len(ref_rows) + len(pool_rows),
                       failed, problems,
                       {"route_compared": route.compared,
                        "resimulated_runs": log.resimulated})


class EngineRuns(Workload):
    name = "engine-runs"

    def setup(self):
        self.net = engine.CompiledNetwork(model.instantiate(self._model()))
        self.config = engine.RunConfig(h_max=ENGINE_H_MAX)

    def unit(self, seed, run):
        """N runs and their ends, not their traces, as a caller consuming
        runs one by one would keep them."""
        t0 = time.perf_counter()
        ends = [self._end(run, seed, i) for i in range(self.size.engine_runs)]
        return ends, time.perf_counter() - t0

    def _end(self, run, seed, i):
        """(end reason, end time, events, final values) of run i; a run
        that raises ends with the error as its reason."""
        try:
            t = run(self.net, self.size.engine_bound,
                    engine.RngStream(seed, i), watch=ENGINE_WATCH,
                    config=self.config)
        except engine.EngineError as exc:
            return (f"raised {exc}", None, None, None)
        return (t.end_reason, t.end_time, len(t.events), t.final)

    def gate(self, seed, ends) -> dict:
        """Misses per run: every run reaches the bound, and run 0 replays
        to the same end."""
        problems = {i: [reason if t is None else f"{reason} at {t}"]
                    for i, (reason, t, _, _) in enumerate(ends)
                    if reason != "bound_reached"}
        if self._end(engine.run, seed, 0) != ends[0]:
            problems.setdefault(0, []).append("does not replay")
        return problems

    def measure(self, seed, seconds, setup_s) -> Outcome:
        rss = PeakRss(poll_children=False)
        log = layers.RunLog(scale=True)
        run = log.wrap(engine.run)
        walls, raw_walls, used, problems = [], [], [], []
        attempted = 0
        t0 = time.perf_counter()
        for k in range(MAX_UNITS):
            s, before = unit_seed(seed, k), log.runs
            ends, wall = self.unit(s, run)
            walls.append(wall * log.speed_factor(before))
            raw_walls.append(wall)
            used.append(log.runs - before)
            attempted += len(ends)
            problems += _by_run(s, self.gate(s, ends))
            if (time.perf_counter() - t0 >= seconds
                    and attempted >= self.size.min_runs):
                break
        return Outcome(
            _end_to_end(setup_s, walls, used, log.scaled, rss.stop_mb()),
            attempted, len(problems), problems,
            {"units": len(walls), "run_samples": log.runs,
             **_wall_clock(raw_walls, used, log.ms)})

    def trace(self, seed) -> Outcome:
        s = unit_seed(seed, 0)
        ref_log = layers.RunLog()
        t0 = time.perf_counter()
        self.setup()
        ref_ends, _ = self.unit(s, ref_log.wrap(engine.run))
        ref_wall = time.perf_counter() - t0

        clock, log = layers.LayerClock(), layers.RunLog()
        with layers.Patches() as p:
            layers.install_layer_clock(p, clock, STAMC)
            t0 = time.perf_counter()
            instantiate = clock.wrap("engine.instantiate", model.instantiate)
            self.net = clock.wrap("engine.compile", engine.CompiledNetwork)(
                instantiate(self._model()))
            ends, _ = self.unit(
                s, log.wrap(clock.wrap("engine.run", engine.run)))
            wall = time.perf_counter() - t0
            problems = [f"hook {h} not found" for h in p.missing]
        problems += _by_run(s, self.gate(s, ends))
        if ref_ends != ends:
            problems.append("runs differ under tracing")
        metrics, not_applicable = _per_layer(self.name, clock, log, ref_log,
                                             log.runs, wall, ref_wall)
        return Outcome(metrics, len(ends), len(problems), problems,
                       {"not_applicable": list(not_applicable)})


class EnergyDefaultStep(Workload):
    name = "energy-default-step"

    def setup(self):
        self._load()
        engine.CompiledNetwork(model.instantiate(self.model))

    def _load(self):
        self.model = self._model()
        self.query = parser.parse_queries(
            f"E: E[<={self.size.energy_bound:g}; {self.size.energy_runs}]"
            f"(max: {ENERGY_EXPR});")[0].query

    def unit(self, seed):
        """One E query. Returns (each run's maximum or None, wall seconds,
        the error a run raised or None)."""
        cfg = smc.StatConfig(seed=seed, workers=1)
        t0 = time.perf_counter()
        try:
            result = smc.evaluate_query(self.model, self.query, cfg,
                                        engine.RunConfig())
        except engine.EngineError as exc:
            return None, time.perf_counter() - t0, exc
        return result.details["values"], time.perf_counter() - t0, None

    def check_unit(self, seed, values, error, events):
        """Misses per run of one unit, and the runs it attempted. At one
        worker the runs execute in index order, so the run that raised is
        the one after the runs that completed."""
        if error is not None:
            return {len(events): [f"raised {error}"]}, len(events) + 1
        return self.gate(seed, values, events), len(values)

    def gate(self, seed, values, events) -> dict:
        """Misses per run. Each run's maximum braking energy equals the
        closed form 0.72 (v0^2 - v1^2) / 16, with v the mean wheel speed at
        the start and at the end of braking (both wheels decelerate at 8
        per time unit), and the run reaches the bound.

        v0 and v1 come from a replay at h_max = 10. The wheel speeds are
        constant-rate clocks and no guard reads an energy clock, so the
        replay fires the same edges (checked by its event count) and its
        speeds are exact."""
        problems = {}
        watch = (_key(ENERGY_EXPR), _key(SPEED_EXPR), "mode")
        net = engine.CompiledNetwork(model.instantiate(self.model))
        replay = engine.RunConfig(h_max=10.0)
        for i, value in enumerate(values):
            tr = engine.run(net, self.size.energy_bound,
                            engine.RngStream(seed, i), watch=watch,
                            config=replay)
            speeds = [snap[watch[1]] for _, snap in tr.samples()
                      if snap["mode"] == 5]
            v0, v1 = (speeds[0], speeds[-1]) if speeds else (0.0, 0.0)
            exact = 0.72 * (v0 * v0 - v1 * v1) / 16.0
            miss = []
            if abs(value - exact) > CLOSED_FORM_RTOL * max(abs(exact), 1.0):
                miss.append(f"max braking energy {value!r}, closed form "
                            f"{exact!r}")
            if len(tr.events) != events[i]:
                miss.append(f"replay takes {len(tr.events)} events, not "
                            f"{events[i]}")
            if tr.end_reason != "bound_reached":
                miss.append(tr.end_reason)
            if miss:
                problems[i] = miss
        return problems

    def measure(self, seed, seconds, setup_s) -> Outcome:
        rss = PeakRss(poll_children=False)
        log = layers.RunLog(scale=True)
        walls, raw_walls, used, problems = [], [], [], []
        attempted = 0
        t0 = time.perf_counter()
        with layers.Patches() as p:
            p.replace(smc, "run", log.wrap)
            for k in range(MAX_UNITS):
                s, before = unit_seed(seed, k), log.runs
                values, wall, error = self.unit(s)
                misses, runs = self.check_unit(s, values, error,
                                               log.events[before:])
                walls.append(wall * log.speed_factor(before))
                raw_walls.append(wall)
                used.append(log.runs - before)
                attempted += runs
                problems += _by_run(s, misses)
                if (time.perf_counter() - t0 >= seconds
                        and attempted >= self.size.min_runs):
                    break
        return Outcome(
            _end_to_end(setup_s, walls, used, log.scaled, rss.stop_mb()),
            attempted, len(problems), problems,
            {"units": len(walls), "run_samples": log.runs,
             **_wall_clock(raw_walls, used, log.ms)})

    def trace(self, seed) -> Outcome:
        s = unit_seed(seed, 0)
        ref_log = layers.RunLog()
        with layers.Patches() as p:
            p.replace(smc, "run", ref_log.wrap)
            t0 = time.perf_counter()
            self._load()
            ref_values, _, _ = self.unit(s)
            ref_wall = time.perf_counter() - t0

        clock, log = layers.LayerClock(), layers.RunLog()
        with layers.Patches() as p:
            layers.install_layer_clock(p, clock, STAMC)
            p.replace(smc, "run", log.wrap)
            t0 = time.perf_counter()
            self._load()
            values, _, error = self.unit(s)
            wall = time.perf_counter() - t0
            problems = [f"hook {h} not found" for h in p.missing]
        misses, attempted = self.check_unit(s, values, error, log.events)
        problems += _by_run(s, misses)
        if values != ref_values or ref_log.events != log.events:
            problems.append("runs differ under tracing")
        metrics, not_applicable = _per_layer(self.name, clock, log, ref_log,
                                             log.runs, wall, ref_wall)
        return Outcome(metrics, attempted, len(problems), problems,
                       {"not_applicable": list(not_applicable)})


def _by_run(seed, problems: dict) -> list:
    """One line per run that missed, naming every check it missed."""
    return [f"seed {seed} run {i}: {'; '.join(m)}"
            for i, m in sorted(problems.items())]


WORKLOADS = {w.name: w for w in (Suite, EngineRuns, EnergyDefaultStep)}
