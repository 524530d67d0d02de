"""Statistical query evaluation over Monte Carlo engine runs.

The five query forms (probability estimation, hypothesis testing,
probability comparison, expected extrema, multi-trajectory simulation)
plus the dual-route runner for weakly-hard timing constraints.

Statistics: Chernoff-Hoeffding run count for estimation, Clopper-Pearson
exact confidence intervals, Wald SPRT with an indifference region for
hypothesis tests.  Every result records the seed that reproduces it.

Concurrency: one ``RunPool`` serves a whole ``check`` or ``simulate``
call; the queries of the call, and the two streams of a ``compare``,
share it, and a library call without one opens one for that call. At one
worker the runs execute in this process. Otherwise they go to one process
pool in chunks of 4 run indices, with at most 2 chunks per worker and
stream in flight, and every process compiles each distinct model once.
Outcomes are merged strictly in run-index order, so verdicts and
estimates do not depend on the worker count; when a test decides, its
queued chunks are cancelled and the outcomes of running ones dropped.
"""

from __future__ import annotations

import math
import pickle
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

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


@dataclass
class _Job:
    model: Model
    bound: float
    kind: str  # formula | extremum | trajectory | constraint
    watch: tuple  # expression texts
    seed: int
    run_config: RunConfig
    formula: Optional[PathFormula] = None
    mode: str = "max"
    value_key: Optional[str] = None
    sample_step: Optional[float] = None
    constraint: Optional[monitors.WhConstraint] = None
    observer_name: Optional[str] = None


def _run_one(job: _Job, net: CompiledNetwork, index: int):
    rng = RngStream(job.seed, index)
    trace = run(net, job.bound, rng, watch=job.watch, config=job.run_config)
    if job.kind == "formula":
        return evaluate_path_formula(trace, job.formula, job.bound)
    if job.kind == "extremum":
        return _extremum(trace, job.value_key, job.mode)
    if job.kind == "trajectory":
        return _trajectory(trace, job.watch, job.bound, job.sample_step)
    if job.kind == "constraint":
        failed = monitors.observer_failed(trace, job.observer_name)
        oracle = monitors.check_trace(trace, job.constraint)
        return (not failed, oracle.wh_holds)
    raise QueryError(f"unknown job kind {job.kind!r}")


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
    ``AHEAD`` chunks per worker and job in flight. Every process compiles
    each distinct model once.
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

    def _model_key(self, model: Model) -> int:
        # the entry holds the model, so its id is not reused meanwhile
        return self._models.setdefault(id(model),
                                       (len(self._models), model))[0]

    def network(self, model: Model) -> CompiledNetwork:
        key = self._model_key(model)
        net = self._nets.get(key)
        if net is None:
            net = self._nets[key] = CompiledNetwork(instantiate(model))
        return net

    def ticket(self, job: _Job) -> tuple:
        """(job key, model key, pickled job): what a worker gets with each
        chunk of ``job``'s run indices."""
        self._jobs += 1
        return (self._jobs, self._model_key(job.model), pickle.dumps(job))

    def submit(self, indices: list, ticket: tuple):
        return self._executor.submit(_worker_chunk, indices, *ticket)


class _Runner:
    """Yields one job's per-run outcomes in run-index order.

    Outcomes are merged strictly by run index, so they do not depend on
    the worker count. ``close`` cancels the chunks still queued and does
    not wait for running ones, whose outcomes are dropped.
    """

    def __init__(self, job: _Job, pool: RunPool):
        self.job = job
        self.pool = pool
        self._pending = deque()

    def outcomes(self, total: int):
        pool = self.pool
        if pool.workers == 1:
            net = pool.network(self.job.model)
            for i in range(total):
                yield _run_one(self.job, net, i)
            return
        ticket = pool.ticket(self.job)
        starts = iter(range(0, total, pool.CHUNK))
        window = pool.AHEAD * pool.workers
        pending = self._pending
        while True:
            while len(pending) < window:
                s = next(starts, None)
                if s is None:
                    break
                chunk = list(range(s, min(s + pool.CHUNK, total)))
                pending.append(pool.submit(chunk, ticket))
            if not pending:
                return
            yield from pending.popleft().result()

    def close(self):
        for future in self._pending:
            future.cancel()
        self._pending.clear()


@contextmanager
def _runners(pool: Optional[RunPool], workers: int, *jobs):
    """One runner per job on ``pool``, or on a pool of ``workers`` opened
    for this call; all closed on exit."""
    own = RunPool(workers) if pool is None else None
    runners = [_Runner(job, pool or own) for job in jobs]
    try:
        yield runners
    finally:
        for runner in runners:
            runner.close()
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
    return _Job(model=_coerce_network(network), bound=bound, kind="formula",
                watch=(E.to_text(f.state_expr),), seed=cfg.seed,
                run_config=run_config or RunConfig(), formula=f)


# --- the five query forms --------------------------------------------------


def estimate_probability(network, f: PathFormula, bound: float,
                         cfg: StatConfig, run_config=None, name=None,
                         pool=None) -> SmcResult:
    t0 = time.perf_counter()
    n = chernoff_runs(cfg.alpha, cfg.epsilon)
    capped = n > cfg.max_runs
    n = min(n, cfg.max_runs)
    job = _formula_job(network, f, bound, cfg, run_config)
    with _runners(pool, cfg.workers, job) as [runner]:
        successes = sum(1 for ok in runner.outcomes(n) if ok)
    p_hat = successes / n
    return SmcResult(
        name=name, verdict="undecided" if capped else "estimate-only",
        p_hat=p_hat, ci=clopper_pearson(successes, n, cfg.alpha), runs=n,
        wall_ms=(time.perf_counter() - t0) * 1e3, seed=cfg.seed,
        details={"successes": successes})


def hypothesis_test(network, f: PathFormula, bound: float, p0: float,
                    cfg: StatConfig, run_config=None, name=None,
                    pool=None) -> SmcResult:
    if not 0 < p0 < 1:
        raise QueryError("need 0 < p0 < 1")
    t0 = time.perf_counter()
    sprt = Sprt(p0, cfg.delta_indiff, cfg.alpha, cfg.alpha)
    job = _formula_job(network, f, bound, cfg, run_config)
    successes = 0
    with _runners(pool, cfg.workers, job) as [runner]:
        for ok in runner.outcomes(cfg.max_runs):
            successes += bool(ok)
            if sprt.feed(bool(ok)) is not None:
                break
    n = sprt.n
    return SmcResult(
        name=name, verdict=sprt.decision or "undecided",
        p_hat=successes / n if n else None,
        ci=clopper_pearson(successes, n, cfg.alpha) if n else None,
        runs=n, wall_ms=(time.perf_counter() - t0) * 1e3, seed=cfg.seed,
        details={"p0": p0, "successes": successes})


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
    rc = run_config or RunConfig()
    model = _coerce_network(network)
    job1 = _formula_job(model, f1, b1, cfg, rc)
    job2 = replace(_formula_job(model, f2, b2, cfg, rc),
                   seed=cfg.seed + 0x9E3779B9)  # independent substream
    budget = min(chernoff_runs(cfg.alpha, cfg.epsilon), cfg.max_runs)
    sprt = Sprt(0.5, cfg.delta_indiff, cfg.alpha, cfg.alpha)
    s1 = s2 = pairs = 0
    with _runners(pool, cfg.workers, job1, job2) as [r1, r2]:
        for x1, x2 in zip(r1.outcomes(budget), r2.outcomes(budget)):
            pairs += 1
            s1 += bool(x1)
            s2 += bool(x2)
            if x1 != x2 and sprt.feed(bool(x1)) is not None:
                break
    verdict = sprt.decision
    p1_hat, p2_hat = s1 / pairs, s2 / pairs
    if verdict is None:
        if p1_hat + cfg.delta_indiff >= p2_hat:
            verdict = "valid"
        elif pairs < cfg.max_runs:
            verdict = "invalid"
        else:
            verdict = "undecided"
    return SmcResult(
        name=name, verdict=verdict, p_hat=p1_hat - p2_hat, ci=None,
        runs=pairs, wall_ms=(time.perf_counter() - t0) * 1e3, seed=cfg.seed,
        details={"p1_hat": p1_hat, "p2_hat": p2_hat,
                 "discordant": sprt.n})


def expected_value(network, expr, bound: float, n_runs: int, mode: str,
                   cfg: StatConfig, run_config=None, name=None,
                   pool=None) -> SmcResult:
    if n_runs < 2:
        raise QueryError("need n_runs >= 2")
    if mode not in ("max", "min"):
        raise QueryError("mode is max or min")
    t0 = time.perf_counter()
    key = E.to_text(expr) if not isinstance(expr, str) else expr
    job = _Job(model=_coerce_network(network), bound=bound, kind="extremum",
               watch=(key,), seed=cfg.seed,
               run_config=run_config or RunConfig(), mode=mode, value_key=key)
    with _runners(pool, cfg.workers, job) as [runner]:
        values = list(runner.outcomes(n_runs))
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
    job = _Job(model=_coerce_network(network), bound=bound, kind="trajectory",
               watch=keys, seed=cfg.seed,
               run_config=run_config or RunConfig(), sample_step=sample_step)
    with _runners(pool, cfg.workers, job) as [runner]:
        return list(runner.outcomes(n_runs))


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
    the independent sliding-window trace oracle tallied on the same runs."""
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
    obs_sprt = Sprt(p0, cfg.delta_indiff, cfg.alpha, cfg.alpha)
    orc_sprt = Sprt(p0, cfg.delta_indiff, cfg.alpha, cfg.alpha)
    job = _Job(model=observed, bound=cq.bound, kind="constraint",
               watch=tuple(watch), seed=cfg.seed,
               run_config=run_config or RunConfig(), constraint=c,
               observer_name=inst)
    obs_ok = orc_ok = n = 0
    with _runners(pool, cfg.workers, job) as [runner]:
        for obs, orc in runner.outcomes(cfg.max_runs):
            n += 1
            obs_ok += bool(obs)
            orc_ok += bool(orc)
            obs_done = obs_sprt.feed(bool(obs)) is not None
            orc_sprt.feed(bool(orc))
            if obs_done:
                break
    observer = SmcResult(
        name=name, verdict=obs_sprt.decision or "undecided",
        p_hat=obs_ok / n if n else None,
        ci=clopper_pearson(obs_ok, n, cfg.alpha) if n else None, runs=n,
        wall_ms=(time.perf_counter() - t0) * 1e3, seed=cfg.seed,
        details={"p0": p0, "constraint": c.kind})
    return ConstraintResult(
        observer=observer, oracle_fraction=orc_ok / n if n else 0.0,
        oracle_verdict=orc_sprt.decision or "undecided", runs=n)


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
        trajectories = simulate(network, query.n_runs, query.bound,
                                query.exprs, cfg, query.sample_step,
                                run_config, pool)
        return SmcResult(name=name, verdict="estimate-only", p_hat=None,
                         ci=None, runs=query.n_runs, wall_ms=0.0,
                         seed=cfg.seed,
                         details={"trajectories": trajectories})
    if isinstance(query, ConstraintQuery):
        return check_constraint(network, query, cfg, run_config, name, pool)
    raise QueryError(f"unsupported query {type(query).__name__}")
