"""Statistical query evaluation over Monte Carlo engine runs.

The five query forms (probability estimation, hypothesis testing,
probability comparison, expected extrema, multi-trajectory simulation)
plus the dual-route runner for weakly-hard timing constraints.

Statistics: Chernoff-Hoeffding run count for estimation, Clopper-Pearson
exact confidence intervals, Wald SPRT with an indifference region for
hypothesis tests.  Every result records the seed that reproduces it.

Run path: a query is a job, whose module-level judge turns each run's
trace into an outcome, and a decision rule over the job's outcome stream,
``RunPool.outcomes``. Estimation counts a fixed number of outcomes; one
SPRT loop serves hypothesis tests, both routes of a constraint and the
discordant pairs of ``compare``; extrema and trajectories are listed.

Concurrency: one ``RunPool`` serves a whole ``check`` or ``simulate``
call; the queries of the call, and the two streams of a ``compare``,
share it, and a library call without one opens one for that call. At one
worker the runs execute in this process. Otherwise they go to one process
pool in chunks of 4 run indices, with at most 2 chunks per worker and
stream in flight, and every process compiles each distinct model once.
A stream yields outcomes strictly in run-index order, so verdicts and
estimates do not depend on the worker count; once its rule has decided,
the stream is closed, which cancels its queued chunks and drops the
outcomes of running ones.
"""

from __future__ import annotations

import math
import pickle
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import scipy.stats

from . import expr as E
from . import monitors
from .engine import CompiledNetwork, RngStream, RunConfig, run
from .model import Model, Network, instantiate
from .queries import (Compare, ConstraintQuery, Estimate, Expected,
                      Hypothesis, PathFormula, Simulate)


class QueryError(Exception):
    pass


@dataclass
class StatConfig:
    alpha: float = 0.05  # significance level
    epsilon: float = 0.05  # estimation half-width
    delta_indiff: float = 0.01  # SPRT indifference half-width
    max_runs: int = 10 ** 6
    seed: int = 0
    workers: int = 1
    histogram_bins: int = 20

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise QueryError("need 0 < alpha < 1")
        if not 0 < self.epsilon < 0.5:
            raise QueryError("need 0 < epsilon < 0.5")
        if self.delta_indiff <= 0:
            raise QueryError("need delta_indiff > 0")
        if self.workers < 1:
            raise QueryError("need workers >= 1")


@dataclass
class SmcResult:
    name: Optional[str]
    verdict: str  # valid | invalid | estimate-only | undecided
    p_hat: Optional[float]
    ci: Optional[tuple]  # (lo, hi)
    runs: int
    wall_ms: float
    seed: int
    histogram: Optional[tuple] = None  # (bin edges, counts)
    details: dict = field(default_factory=dict)


@dataclass
class ConstraintResult:
    """Both routes for one weakly-hard constraint, side by side."""

    observer: SmcResult  # hypothesis test on the observer's fail location
    oracle_fraction: float  # share of runs the trace oracle accepts
    oracle_verdict: str  # same SPRT applied to the oracle outcomes
    runs: int


def chernoff_runs(alpha: float, epsilon: float) -> int:
    """Runs needed so |p_hat - p| <= epsilon with probability 1 - alpha."""
    return math.ceil(math.log(2.0 / alpha) / (2.0 * epsilon * epsilon))


def clopper_pearson(successes: int, n: int, alpha: float) -> tuple:
    """Exact binomial confidence interval at level 1 - alpha."""
    if n <= 0:
        raise QueryError("need n > 0")
    lo = 0.0 if successes == 0 else float(
        scipy.stats.beta.ppf(alpha / 2, successes, n - successes + 1))
    hi = 1.0 if successes == n else float(
        scipy.stats.beta.ppf(1 - alpha / 2, successes + 1, n - successes))
    return (lo, hi)


class Sprt:
    """Wald sequential test of H0: p >= p0 + delta vs H1: p <= p0 - delta."""

    def __init__(self, p0: float, delta: float, alpha: float, beta: float):
        pA = min(p0 + delta, 1.0 - 1e-12)
        pB = max(p0 - delta, 1e-12)
        self._l1 = math.log(pB / pA)  # per-success increment
        self._l0 = math.log((1 - pB) / (1 - pA))  # per-failure increment
        self.upper = math.log((1 - beta) / alpha)  # cross -> accept H1
        self.lower = math.log(beta / (1 - alpha))  # cross -> accept H0
        self.llr = 0.0
        self.decision = None  # "valid" (H0) | "invalid" (H1)
        self.n = 0

    def feed(self, outcome: bool) -> Optional[str]:
        if self.decision is not None:
            return self.decision
        self.n += 1
        self.llr += self._l1 if outcome else self._l0
        if self.llr >= self.upper:
            self.decision = "invalid"
        elif self.llr <= self.lower:
            self.decision = "valid"
        return self.decision


# --- per-run evaluation ----------------------------------------------------


def evaluate_path_formula(trace, f: PathFormula, bound: float) -> bool:
    """Truth of <> / [] over the visited states of one trace.

    States are the watched snapshots: initial, before and after every event,
    and at the bound.  The state expression must be among the trace's
    watched expressions.
    """
    key = E.to_text(f.state_expr)
    want = f.op == "eventually"
    for t, snap in trace.samples():
        if t > bound + 1e-12:
            break
        if key not in snap:
            raise QueryError(f"expression {key!r} not watched on this trace")
        if bool(snap[key]) == want:
            return want
    return not want


def _extremum(trace, key: str, mode: str) -> float:
    pick = max if mode == "max" else min
    best = None
    for _, snap in trace.samples():
        v = float(snap[key])
        best = v if best is None else pick(best, v)
    return best


def _trajectory(trace, keys, bound: float, step: Optional[float]) -> list:
    """Rows (t, v1, ...) at every sample plus a regular grid.

    Grid values between events come from linear interpolation of the
    surrounding snapshots, which is exact for constant-rate clocks.
    """
    samples = [(t, [float(snap[k]) for k in keys])
               for t, snap in trace.samples()]
    rows = [(t, *vals) for t, vals in samples]
    if step:
        n = len(samples)
        j = 0
        t = 0.0
        while t <= bound + 1e-9:
            while j + 1 < n and samples[j + 1][0] <= t:
                j += 1
            t0, v0 = samples[j]
            if j + 1 < n and samples[j + 1][0] > t0:
                t1, v1 = samples[j + 1]
                w = (t - t0) / (t1 - t0)
                vals = [a + w * (b - a) for a, b in zip(v0, v1)]
            else:
                vals = v0
            rows.append((t, *vals))
            t += step
        rows.sort(key=lambda r: r[0])
    return rows


# --- worker plumbing -------------------------------------------------------


def _routes(trace, c: monitors.WhConstraint, inst: str) -> tuple:
    """(observer route holds, trace oracle holds) on one run; the observer
    is asked first."""
    failed = monitors.observer_failed(trace, inst)
    return (not failed, monitors.check_trace(trace, c).wh_holds)


@dataclass
class _Job:
    """The runs of one query: each run to ``bound`` is judged by
    ``judge(trace, *args)``, a module-level function so that jobs pickle."""

    model: Model
    bound: float
    watch: tuple  # expression texts
    seed: int
    run_config: RunConfig
    judge: Callable
    args: tuple


def _job(network, bound: float, watch, cfg: StatConfig, run_config, judge,
         *args) -> _Job:
    return _Job(model=_coerce_network(network), bound=bound,
                watch=tuple(watch), seed=cfg.seed,
                run_config=run_config or RunConfig(), judge=judge, args=args)


def _run_one(job: _Job, net: CompiledNetwork, index: int):
    rng = RngStream(job.seed, index)
    trace = run(net, job.bound, rng, watch=job.watch, config=job.run_config)
    return job.judge(trace, *job.args)


# In a worker process: job key -> (job, compiled network), and model key
# -> compiled network. A worker serves one pool, so the keys of one check.
_W_JOBS = {}
_W_NETS = {}


def _worker_chunk(indices, job_key, model_key, blob):
    """Runs ``indices`` of a job in a worker. The job arrives pickled with
    every chunk and is unpickled, and its model compiled, once."""
    entry = _W_JOBS.get(job_key)
    if entry is None:
        job = pickle.loads(blob)
        net = _W_NETS.get(model_key)
        if net is None:
            net = _W_NETS[model_key] = CompiledNetwork(instantiate(job.model))
        entry = _W_JOBS[job_key] = (job, net)
    job, net = entry
    return [_run_one(job, net, i) for i in indices]


class RunPool:
    """Where the runs of one check execute; all its queries share it.

    At one worker the runs execute in this process. Otherwise they go to
    one process pool, in chunks of ``CHUNK`` run indices, at most
    ``AHEAD`` chunks per worker and stream in flight. Every process
    compiles each distinct model once.
    """

    CHUNK = 4
    AHEAD = 2

    def __init__(self, workers: int = 1):
        self.workers = max(1, workers)
        self._models = {}  # id(model) -> (model key, model)
        self._nets = {}  # model key -> compiled network, at one worker
        self._jobs = 0
        self._executor = None
        if self.workers > 1:
            # the platform's default start method (fork on Linux): workers
            # inherit the loaded modules and start at once
            self._executor = ProcessPoolExecutor(max_workers=self.workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Cancel queued chunks and wait for the running ones."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def outcomes(self, job: _Job, total: int):
        """Yields the outcomes of ``job``'s runs 0 .. total - 1 in run-index
        order, so they do not depend on the worker count. Closing the
        stream cancels its chunks still queued and does not wait for
        running ones, whose outcomes are dropped."""
        # the entry holds the model, so its id is not reused meanwhile
        key = self._models.setdefault(id(job.model),
                                      (len(self._models), job.model))[0]
        if self._executor is None:
            net = self._nets.get(key)
            if net is None:
                net = self._nets[key] = CompiledNetwork(instantiate(job.model))
            for i in range(total):
                yield _run_one(job, net, i)
            return
        self._jobs += 1
        ticket = (self._jobs, key, pickle.dumps(job))
        window = self.AHEAD * self.workers
        pending = deque()
        try:
            for s in range(0, total, self.CHUNK):
                if len(pending) == window:
                    yield from pending.popleft().result()
                chunk = list(range(s, min(s + self.CHUNK, total)))
                pending.append(self._executor.submit(_worker_chunk, chunk,
                                                     *ticket))
            while pending:
                yield from pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


@contextmanager
def _streams(pool: Optional[RunPool], cfg: StatConfig, total: int, *jobs):
    """One outcome stream of ``total`` runs per job, on ``pool`` or on a
    pool of ``cfg.workers`` opened for this call; all closed on exit."""
    own = RunPool(cfg.workers) if pool is None else None
    streams = [(pool or own).outcomes(job, total) for job in jobs]
    try:
        yield streams
    finally:
        for stream in streams:
            stream.close()
        if own is not None:
            own.close()


def _coerce_network(network) -> Model:
    if isinstance(network, Model):
        return network
    if isinstance(network, Network):
        return network.model
    raise QueryError("expected a Model or Network")


def _formula_job(network, f: PathFormula, bound: float, cfg: StatConfig,
                 run_config) -> _Job:
    return _job(network, bound, [E.to_text(f.state_expr)], cfg, run_config,
                evaluate_path_formula, f, bound)


def _sprt(outcomes, p0: float, cfg: StatConfig) -> tuple:
    """Wald SPRT of Pr >= p0 over ``outcomes``, read until it decides:
    (decision or None, runs read, successes)."""
    sprt = Sprt(p0, cfg.delta_indiff, cfg.alpha, cfg.alpha)
    successes = 0
    for ok in outcomes:
        successes += bool(ok)
        if sprt.feed(bool(ok)) is not None:
            break
    return sprt.decision, sprt.n, successes


def _kept(outcomes, into: list):
    """``outcomes``, each also appended to ``into`` as it is read."""
    for x in outcomes:
        into.append(x)
        yield x


def _binomial(name, verdict: str, successes: int, n: int, cfg: StatConfig,
              t0: float, details: dict) -> SmcResult:
    """A result with p_hat and the Clopper-Pearson interval of ``successes``
    in ``n`` runs (None for both when n is 0)."""
    return SmcResult(
        name=name, verdict=verdict, p_hat=successes / n if n else None,
        ci=clopper_pearson(successes, n, cfg.alpha) if n else None, runs=n,
        wall_ms=(time.perf_counter() - t0) * 1e3, seed=cfg.seed,
        details=details)


# --- the five query forms --------------------------------------------------


def estimate_probability(network, f: PathFormula, bound: float,
                         cfg: StatConfig, run_config=None, name=None,
                         pool=None) -> SmcResult:
    t0 = time.perf_counter()
    n = chernoff_runs(cfg.alpha, cfg.epsilon)
    capped = n > cfg.max_runs
    n = min(n, cfg.max_runs)
    job = _formula_job(network, f, bound, cfg, run_config)
    with _streams(pool, cfg, n, job) as [outcomes]:
        successes = sum(1 for ok in outcomes if ok)
    return _binomial(name, "undecided" if capped else "estimate-only",
                     successes, n, cfg, t0, {"successes": successes})


def hypothesis_test(network, f: PathFormula, bound: float, p0: float,
                    cfg: StatConfig, run_config=None, name=None,
                    pool=None) -> SmcResult:
    if not 0 < p0 < 1:
        raise QueryError("need 0 < p0 < 1")
    t0 = time.perf_counter()
    job = _formula_job(network, f, bound, cfg, run_config)
    with _streams(pool, cfg, cfg.max_runs, job) as [outcomes]:
        decision, n, successes = _sprt(outcomes, p0, cfg)
    return _binomial(name, decision or "undecided", successes, n, cfg, t0,
                     {"p0": p0, "successes": successes})


def compare_probabilities(network, f1: PathFormula, b1: float,
                          f2: PathFormula, b2: float, cfg: StatConfig,
                          run_config=None, name=None, pool=None) -> SmcResult:
    """SPRT on discordant pairs of H0: p1 >= p2 (indifference delta).

    Pairs use independent run sets (distinct seed substreams).  Concordant
    pairs carry no sign information and are skipped.  If the test is still
    open after the estimation run budget it falls back to the indifference
    rule on the point estimates: valid when p1_hat + delta >= p2_hat.
    """
    t0 = time.perf_counter()
    job1 = _formula_job(network, f1, b1, cfg, run_config)
    job2 = replace(_formula_job(network, f2, b2, cfg, run_config),
                   seed=cfg.seed + 0x9E3779B9)  # independent substream
    budget = min(chernoff_runs(cfg.alpha, cfg.epsilon), cfg.max_runs)
    pairs = []
    with _streams(pool, cfg, budget, job1, job2) as [r1, r2]:
        verdict, discordant, _ = _sprt(
            (x1 for x1, x2 in _kept(zip(r1, r2), pairs) if x1 != x2), 0.5,
            cfg)
    n = len(pairs)
    p1_hat = sum(bool(x1) for x1, _ in pairs) / n
    p2_hat = sum(bool(x2) for _, x2 in pairs) / n
    if verdict is None:
        if p1_hat + cfg.delta_indiff >= p2_hat:
            verdict = "valid"
        elif n < cfg.max_runs:
            verdict = "invalid"
        else:
            verdict = "undecided"
    return SmcResult(
        name=name, verdict=verdict, p_hat=p1_hat - p2_hat, ci=None, runs=n,
        wall_ms=(time.perf_counter() - t0) * 1e3, seed=cfg.seed,
        details={"p1_hat": p1_hat, "p2_hat": p2_hat,
                 "discordant": discordant})


def expected_value(network, expr, bound: float, n_runs: int, mode: str,
                   cfg: StatConfig, run_config=None, name=None,
                   pool=None) -> SmcResult:
    if n_runs < 2:
        raise QueryError("need n_runs >= 2")
    if mode not in ("max", "min"):
        raise QueryError("mode is max or min")
    t0 = time.perf_counter()
    key = E.to_text(expr) if not isinstance(expr, str) else expr
    job = _job(network, bound, [key], cfg, run_config, _extremum, key, mode)
    with _streams(pool, cfg, n_runs, job) as [outcomes]:
        values = list(outcomes)
    import numpy as np
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(n_runs))
    t_crit = float(scipy.stats.t.ppf(1 - cfg.alpha / 2, n_runs - 1))
    counts, edges = np.histogram(arr, bins=cfg.histogram_bins)
    return SmcResult(
        name=name, verdict="estimate-only", p_hat=mean,
        ci=(mean - t_crit * se, mean + t_crit * se), runs=n_runs,
        wall_ms=(time.perf_counter() - t0) * 1e3, seed=cfg.seed,
        histogram=(edges.tolist(), counts.tolist()),
        details={"mode": mode, "values": values})


def simulate(network, n_runs: int, bound: float, exprs, cfg: StatConfig,
             sample_step: Optional[float] = None, run_config=None,
             pool=None) -> list:
    """Trajectory set: per run, rows (t, v1, ...) on a regular grid plus at
    every event."""
    if sample_step is not None and sample_step <= 0:
        raise QueryError("need sample_step > 0")
    keys = tuple(E.to_text(e) if not isinstance(e, str) else e for e in exprs)
    job = _job(network, bound, keys, cfg, run_config, _trajectory, keys,
               bound, sample_step)
    with _streams(pool, cfg, n_runs, job) as [outcomes]:
        return list(outcomes)


def trajectories_to_csv(trajectories, exprs) -> str:
    keys = [E.to_text(e) if not isinstance(e, str) else e for e in exprs]
    lines = ["run,t," + ",".join(keys)]
    for i, rows in enumerate(trajectories):
        for row in rows:
            lines.append(f"{i}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def histogram_to_csv(histogram) -> str:
    edges, counts = histogram
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, c in zip(edges, edges[1:], counts):
        lines.append(f"{lo!r},{hi!r},{c}")
    return "\n".join(lines) + "\n"


# --- weakly-hard constraints (dual route) ----------------------------------


def check_constraint(network, cq: ConstraintQuery, cfg: StatConfig,
                     run_config=None, name=None,
                     pool=None) -> ConstraintResult:
    """Hypothesis test Pr[[] !Obs.fail] >= m/k on the observer route, with
    the independent sliding-window trace oracle tallied on the same runs.

    The observer fails a run at its first out-of-band occurrence, and the
    share of runs it passes is tested at p0 = m/k; the oracle passes a run
    when every window of k occurrences holds at least m in-band ones.  The
    two routes agree run by run only when m = k."""
    c = cq.constraint
    model = _coerce_network(network)
    inst = f"_obs_{name or c.kind}"
    observed = monitors.attach_observer(model, c, inst)
    watch = [f"{inst}.fail"]
    for _, b in c.bindings:
        if b.predicate is not None:
            watch.append(E.to_text(b.predicate))
    t0 = time.perf_counter()
    p0 = c.m / c.k
    job = _job(observed, cq.bound, watch, cfg, run_config, _routes, c, inst)
    routes = []
    with _streams(pool, cfg, cfg.max_runs, job) as [outcomes]:
        verdict, n, obs_ok = _sprt(
            (obs for obs, _ in _kept(outcomes, routes)), p0, cfg)
    # the oracle's verdict: the same test over the oracle outcomes tallied
    oracle = [orc for _, orc in routes]
    oracle_verdict, _, _ = _sprt(oracle, p0, cfg)
    observer = _binomial(name, verdict or "undecided", obs_ok, n, cfg, t0,
                         {"p0": p0, "constraint": c.kind})
    return ConstraintResult(
        observer=observer, oracle_fraction=sum(oracle) / n if n else 0.0,
        oracle_verdict=oracle_verdict or "undecided", runs=n)


# --- dispatch --------------------------------------------------------------


def evaluate_query(network, query, cfg: StatConfig, run_config=None,
                   name=None, pool: Optional[RunPool] = None):
    """Evaluate one query. Its runs go to ``pool`` when given (``check``
    passes the one pool of the whole check), else to a pool of
    ``cfg.workers`` opened for this call."""
    if isinstance(query, Estimate):
        return estimate_probability(network, query.formula, query.bound, cfg,
                                    run_config, name, pool)
    if isinstance(query, Hypothesis):
        return hypothesis_test(network, query.formula, query.bound, query.p0,
                               cfg, run_config, name, pool)
    if isinstance(query, Compare):
        return compare_probabilities(network, query.formula1, query.bound1,
                                     query.formula2, query.bound2, cfg,
                                     run_config, name, pool)
    if isinstance(query, Expected):
        return expected_value(network, query.expr, query.bound, query.n_runs,
                              query.mode, cfg, run_config, name, pool)
    if isinstance(query, Simulate):
        t0 = time.perf_counter()
        trajectories = simulate(network, query.n_runs, query.bound,
                                query.exprs, cfg, query.sample_step,
                                run_config, pool)
        return SmcResult(name=name, verdict="estimate-only", p_hat=None,
                         ci=None, runs=query.n_runs,
                         wall_ms=(time.perf_counter() - t0) * 1e3,
                         seed=cfg.seed,
                         details={"trajectories": trajectories})
    if isinstance(query, ConstraintQuery):
        return check_constraint(network, query, cfg, run_config, name, pool)
    raise QueryError(f"unsupported query {type(query).__name__}")
