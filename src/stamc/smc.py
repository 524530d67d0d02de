"""Statistical query evaluation over Monte Carlo engine runs.

``check`` is the one entry: it evaluates a list of queries on one model,
and ``evaluate_query`` is a check of one query. Each query's dataclass is
looked up in the form table ``_FORMS``, whose rules answer the five query
forms (probability estimation, hypothesis testing, probability comparison,
expected extrema, multi-trajectory simulation) and the dual-route check of
weakly-hard timing constraints, each with one ``SmcResult``.

Statistics: Chernoff-Hoeffding run count for estimation, Clopper-Pearson
exact confidence intervals, Wald SPRT with an indifference region for
hypothesis tests, and a Student-t interval for an expected extremum.
Every result records the seed that reproduces it. Both intervals' quantiles
invert the regularized incomplete beta I_x(a, b), computed here from its
continued fraction (Press et al., Numerical Recipes, 6.4) and inverted by
Newton steps inside a bisection bracket; they agree with scipy's to 1e-12,
which the tests check, and the checker loads no scipy.

Run path: a query is one or two jobs, each with a judge that turns a run
into an outcome, and a decision rule over the jobs' outcome streams,
``RunPool.outcomes``. Estimation counts a fixed number of outcomes; one
SPRT loop serves hypothesis tests, both routes of a constraint and the
discordant pairs of ``compare``; extrema and trajectories are listed. Path
formulas and extrema are judged while the run runs: ``engine.run`` calls
one kernel, generated for the run's sampled judges and bound to its
outcomes by ``_Monitor``, at the run's sample points (the start, before
each timed event and after each event, and the end), with no Python frame
in between. It evaluates each formula's predicate inline until the formula
decides (``<>`` once true, ``[]`` once false), skipping it from then on by
a test of its outcome, and keeps each running maximum or minimum in the
outcomes; a run keeps its one kernel to its end, and ``_Monitor.decided``
tells from the outcomes alone whether every formula has decided. Kernels
are compiled through ``engine._kernel`` under the filename ``<monitor>``
and cached on the judges, so the runs that a stream's live jobs judge
share one. Nothing is recorded for sampled judges, so such a run builds no
snapshot dict. Trajectories and constraints are judged on the trace once
the run ends: a ``simulate`` job watches its expressions, and a constraint
replays its observer over the run's events (``monitors.observer_failed``)
and runs the trace oracle on them.

Sharing: a run is a pure function of (model, seed, run index), and what a
run watches changes nothing in it. So the jobs of one check that read runs
to one bound share one run stream: each run is simulated once, every live
job judges it, and only the outcomes are cached. A rule reads the cache
first and has the stream simulate more runs only past its end. Once a job's
rule has decided, the job is retired: runs simulated later, and the chunks
sent to workers, carry the mask of the live jobs and skip its judge.
``check`` registers every query on the model's compiled network before the
first run, so its queries share, ``compare``'s two formulas and the
constraints among them. A constraint's observer is a pure listener: it only
receives on broadcast channels and never races, so its path is a function
of the run's events, and it is replayed over them instead of composed into
a network of its own. Registering a query checks every name it reads,
against the compiled network's query scope, and every channel its
constraint listens on, so a bad query fails before any run. A query's
``wall_ms`` covers its judging and statistics and the runs it was first to
need.

A model is compiled once per process: ``_compiled`` keeps the compiled
networks of the last 16 models checked, keyed by the model's structure, so
a later check of an equal model (the same object or a re-parsed file)
reuses its network, step tables and kernels. A model hashes its structure
once, so a check of the same object finds its network without walking it.
A step table and its kernels are pure functions of the location
configuration, and ``h_max`` is an argument of the advance kernel, never
part of a table, so a warm network changes no run. The cache is
process-wide state; ``_compiled.cache_clear()`` empties it, as the tests
do before each test.

Concurrency: one ``RunPool`` serves a whole check. At one worker the runs
execute in this process. Otherwise they go to one process pool, started at
the first chunk with the runs of every stream of the check, compiled
network included, so a chunk is just run indices, a stream index and the
mask of the live jobs. A chunk holds 4 run indices and at most 2 chunks per
worker and stream are in flight. A forked worker (the default on Linux
before Python 3.14) runs the network it inherits and compiles nothing; any
other compiles it once, as the streams unpickle. A chunk also returns the
location configurations whose step tables its runs built, and the check's
network keeps them as ``reached``: those of the chunks read, and, when the
pool closes, those of the chunks that ran but were never read. A pool whose
workers fork first builds here the table of every reached configuration
that its network lacks, so in a process that checks more than once (a
library caller's loop of ``check`` or ``evaluate_query`` calls, a test
session), a forked worker starts with the table of every configuration that
earlier workers reported and builds only the new ones. A single ``stamc
check`` makes one pool and reaches nothing before it starts, so it builds
no table here. The pool also builds here what each stream's first run
compiles before it starts, its sampled judges' watches and their monitor
kernel, which every worker's first run of the stream would otherwise
compile again; a worker compiles a monitor kernel only for a set of live
jobs that it meets after the fork, once a job has retired or read all its
runs. A worker started by ``forkserver`` or ``spawn`` unpickles a fresh
network and builds its own, so the pool builds none of this for it. A
stream yields outcomes strictly in run-index order, so verdicts and
estimates do not depend on the worker count. When a rule decides, the
chunks its reads sent ahead stay queued or running while another job of the
stream has yet to finish reading, and are read by that job; once no job is
left, they are cancelled and the outcomes of running ones dropped. So no
run is simulated twice, and the chunks sent depend on what the rules read,
never on timing.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Optional

from . import expr as E
from . import monitors
from .engine import (_UNWATCHED, CompiledNetwork, RngStream, RunConfig,
                     _indent, _kernel, run)
from .model import Model, Network, instantiate
from .queries import (EXTREMA, Compare, ConstraintQuery, Estimate, Expected,
                      Hypothesis, PathFormula, Simulate)

HISTOGRAM_BINS = 20  # bins of an expected-extremum query's value histogram


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

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise QueryError("need 0 < alpha < 1")
        if not 0 < self.epsilon < 0.5:
            raise QueryError("need 0 < epsilon < 0.5")
        if not (math.isfinite(self.delta_indiff) and self.delta_indiff > 0):
            raise QueryError("need delta_indiff > 0")
        for name in ("max_runs", "workers", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise QueryError(f"need an integer {name}")
        if self.max_runs < 1:
            raise QueryError("need max_runs >= 1")
        if self.workers < 1:
            raise QueryError("need workers >= 1")
        if self.seed < 0:
            raise QueryError("need seed >= 0")


@dataclass
class SmcResult:
    verdict: str  # valid | invalid | estimate-only | undecided
    p_hat: Optional[float]
    ci: Optional[tuple]  # (lo, hi)
    runs: int
    histogram: Optional[tuple] = None  # (bin edges, counts)
    details: dict = field(default_factory=dict)
    # set by check
    name: Optional[str] = None
    wall_ms: float = 0.0
    seed: int = 0


def chernoff_runs(alpha: float, epsilon: float) -> int:
    """Runs needed so |p_hat - p| <= epsilon with probability 1 - alpha."""
    return math.ceil(math.log(2.0 / alpha) / (2.0 * epsilon * epsilon))


def clopper_pearson(successes: int, n: int, alpha: float) -> tuple:
    """Exact binomial confidence interval at level 1 - alpha (Clopper and
    Pearson, Biometrika 1934): the alpha/2 quantile of Beta(k, n - k + 1)
    and the 1 - alpha/2 quantile of Beta(k + 1, n - k)."""
    if not isinstance(n, numbers.Integral) or n <= 0:
        raise QueryError("need an integer n > 0")
    if not isinstance(successes, numbers.Integral) or not 0 <= successes <= n:
        raise QueryError("need an integer 0 <= successes <= n")
    if not 0 < alpha < 1:
        raise QueryError("need 0 < alpha < 1")
    k = successes
    lo = 0.0 if k == 0 else _ibeta_inv(alpha / 2, k, n - k + 1)[0]
    hi = 1.0 if k == n else _ibeta_inv(alpha / 2, n - k, k + 1)[1]
    return (lo, hi)


def _t_quantile(alpha: float, nu: int) -> float:
    """t with Pr[|T| > t] = alpha for Student's T with nu degrees of
    freedom: that probability is I_x(nu/2, 1/2) at x = nu / (nu + t^2)."""
    x, y = _ibeta_inv(alpha, nu / 2, 0.5)
    return math.sqrt(nu * y / x) if x else math.inf  # x underflows


# Both quantiles invert the regularized incomplete beta I_x(a, b), whose
# continued fraction and inverse are below, for a, b >= 1/2.

_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _stirling(z: float) -> float:
    """lgamma(z) less Stirling's (z - 1/2) log z - z + log sqrt(2 pi)."""
    if z < 16:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LOG_SQRT_2PI
    w = 1 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680
                                                           - w / 1188)))) / z


def _ibeta(x: float, a: float, b: float) -> tuple:
    """(I_x(a, b), 1 - I_x(a, b), the Beta(a, b) density at x) for
    0 < x <= 1/2. The continued fraction gives I_x(a, b) below x = (a + 1)
    / (a + b + 2) and 1 - I_x(a, b) above it, where each converges fast;
    the other is 1 minus it. The front factor x^a (1-x)^b / B(a, b) is
    taken relative to the mean a/(a+b), with the Gamma functions' Stirling
    terms cancelled by hand: from three plain lgamma, the t quantile at
    nu = 10^5 was off by 6e-11 of itself."""
    s = a + b
    p0, q0 = a / s, b / s
    log_x = (math.log(x / p0) if x < p0 / 2 else math.log1p((x - p0) / p0))
    front = math.exp(a * log_x + b * math.log1p((p0 - x) / q0)
                     + 0.5 * math.log(a * q0) - _LOG_SQRT_2PI
                     + _stirling(s) - _stirling(a) - _stirling(b))
    density = front / (x * (1 - x))
    if x * (s + 2) < a + 1:
        i = front / _beta_fraction(x, 1 - x, a, b)
        return i, 1 - i, density
    j = front / _beta_fraction(1 - x, x, b, a)
    return 1 - j, j, density


def _beta_fraction(x: float, y: float, a: float, b: float) -> float:
    """F with I_x(a, b) = x^a y^b / (B(a, b) F), y = 1 - x, by the modified
    Lentz method (Press et al., Numerical Recipes, 6.4). It is the even part
    of their fraction, as DiDonato and Morris write it (ACM TOMS 18, 1992),
    which reads 1 - x only as y: exact for x close to 1, given y."""
    tiny = 1e-300
    f = a * (a * y - b * x + 1) / (a + 1) or tiny
    c, d, m = f, 0.0, 0
    while True:
        m += 1
        t = a + 2 * m - 1
        an = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x / (t * t)
        bn = (m + m * (b - m) * x / t
              + (a + m) * (a * y - b * x + 1 + m * (2 - x)) / (t + 2))
        d = 1 / (bn + an * d or tiny)
        c = bn + an / c or tiny
        f *= c * d
        if abs(c * d - 1) <= 1e-15:
            return f


def _ibeta_inv(p: float, a: float, b: float) -> tuple:
    """(x, 1 - x) with I_x(a, b) = p. Of x and 1 - x, the one below 1/2 is
    solved for, so each keeps its relative precision: ``u`` is x, or 1 - x
    with I_u(b, a) = 1 - p. Newton steps on log(I_u / p), or on log((1 -
    p) / (1 - I_u)) when 1 - p is the smaller, start from the mean and are
    kept inside a bisection bracket. A tail's log is near linear in u, so a
    far start costs a few steps; 400 steps are enough for bisection alone
    to reach the smallest float."""
    q = 1 - p
    swap = p > _ibeta(0.5, a, b)[0]
    if swap:
        p, q, a, b = q, p, b, a
    lower = p <= q
    lo, hi, u = 0.0, 0.5, min(0.5, a / (a + b))
    for _ in range(400):
        i, j, density = _ibeta(u, a, b)
        tail, target = (i, p) if lower else (j, q)
        h = math.log(tail / target) if tail else -math.inf
        if not lower:
            h = -h  # so that h grows with u
        if h < 0:
            lo = u
        else:
            hi = u
        step = h * tail / density if density else math.nan
        if abs(step) <= 1e-15 * u:
            u -= step
            break
        if hi - lo <= 1e-15 * u:
            break
        u -= step
        if not lo < u < hi:
            u = (lo + hi) / 2 if lo else hi / 16
        if not u:  # the root is below the smallest float
            break
    return (1 - u, u) if swap else (u, 1 - u)


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


# --- per-run judgement -----------------------------------------------------


def evaluate_path_formula(trace, f: PathFormula, bound: float) -> bool:
    """Truth of <> / [] over the visited states of one trace.

    States are the watched snapshots: initial, before and after every event,
    and at the bound.  The state expression must be among the trace's
    watched expressions.  The run path judges path formulas online, with
    ``_Monitor``, at the same states; this is their definition over a
    stored trace.
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


def _trajectory(trace, keys, bound: float, step: Optional[float]) -> list:
    """Rows (t, v1, ...) at every sample plus a regular grid.

    The grid's times are ``i * step`` up to ``bound + 1e-9``, each capped
    at the bound, so no row lies past it and no sum of steps drifts.  Grid
    values between events come from linear interpolation of the
    surrounding snapshots, which is exact for constant-rate clocks.
    """
    samples = [(t, [float(snap[k]) for k in keys])
               for t, snap in trace.samples()]
    rows = [(t, *vals) for t, vals in samples]
    if step:
        n = len(samples)
        j = 0
        for i in range(math.floor((bound + 1e-9) / step) + 1):
            t = min(i * step, bound)
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
        rows.sort(key=lambda r: r[0])
    return rows


def _routes(trace, c: monitors.WhConstraint) -> tuple:
    """(observer route holds, trace oracle holds) on one run: the
    constraint's observer, replayed over the run's events, is asked first."""
    failed = monitors.observer_failed(trace, c)
    return (not failed, monitors.check_trace(trace, c).wh_holds)


@dataclass(frozen=True)
class _Sampled:
    """A judge that watches one expression at a run's sample points: a path
    formula's state expression (``op`` "eventually" or "globally") or an
    extremum's expression (``op`` "max" or "min")."""

    op: str
    expr: str  # expression text


@dataclass(frozen=True)
class _Traced:
    """A judge of a run's trace once the run has ended:
    ``fn(trace, *args)``, with ``watch`` recorded in the trace."""

    fn: Callable
    args: tuple
    watch: tuple = ()


@functools.cache
def _monitor_kernel(always: tuple, eventually: tuple, extrema: tuple):
    """``(out, V, L)``: one sample point of a run's sampled judges, which
    returns the engine's shared empty dict, the sample of a run that
    watches nothing. ``always``, ((place, text, predicate), ...), are the
    ``[]`` formulas, each set False in ``out`` at its first false sample;
    ``eventually`` the ``<>`` formulas, each set True at its first true
    sample; ``extrema``, ((place, text, fn, is max), ...), keep the running
    maximum or minimum of ``fn``, which returns a float, in ``out``, None
    until the first sample. A formula that has decided is skipped by a test
    of its own outcome, so its predicate is evaluated no more.

    The body is one ``try``, whose handler names the expression at fault
    (``engine._query_fault``) among those the call evaluated: the ``[]``
    formulas still true, the ``<>`` formulas still false and the extrema."""
    body = []
    for place, _, fn in always:
        body += [f"if out[{place}] and not ({fn.source}):",
                 f"    out[{place}] = False"]
    for place, _, fn in eventually:
        body += [f"if not out[{place}] and ({fn.source}):",
                 f"    out[{place}] = True"]
    for place, _, fn, is_max in extrema:
        body += [f"v = {fn.source}", f"best = out[{place}]",
                 f"if best is None or v {'>' if is_max else '<'} best:",
                 f"    out[{place}] = v"]
    tried = [f"out[{e[0]}]" for e in always] + [
        f"not out[{e[0]}]" for e in eventually] + ["True"] * len(extrema)
    return _kernel("monitor", [
        "def _k(out, V, L):", "    try:", *_indent(body, 8),
        "    except ArithmeticError as exc:",
        "        exc.where = _query_fault([q for q, t in zip(Q, "
        f"({', '.join(tried)},)) if t], V, L)",
        "        raise", "    return UNWATCHED"], UNWATCHED=_UNWATCHED,
        Q=tuple(e[1:3] for e in always + eventually + extrema), zip=zip)


class _Monitor:
    """The sampled judges of one run, called at its sample points, with
    their outcomes in ``out`` by job place.

    One generated kernel (``_monitor_kernel``) judges them at every sample
    point of the run, bound to ``out`` so that the engine calls it with no
    frame in between. A path formula decides at its first sample of the
    wanted truth, ``<>`` once true and ``[]`` once false; from then on the
    kernel skips it by a test of its outcome, and ``decided`` reads the
    outcomes alone."""

    __slots__ = ("out", "always", "eventually", "extrema", "kernel")

    def __init__(self, out: list):
        self.out = out
        self.always = ()  # ((place, text, predicate), ...) of []
        self.eventually = ()  # ((place, text, predicate), ...) of <>
        self.extrema = ()  # ((place, text, fn, is max), ...)
        self.kernel = None

    def add(self, place: int, judge: _Sampled, net: CompiledNetwork):
        text = judge.expr
        if judge.op in EXTREMA:
            self.extrema += ((place, text, net.compile_float(text),
                              judge.op == "max"),)
            return
        [(_, fn)] = net.compile_watch((text,))
        if judge.op == "globally":
            self.always += ((place, text, fn),)
            self.out[place] = True
        else:
            self.eventually += ((place, text, fn),)
            self.out[place] = False

    def sampler(self):
        """The call ``(V, L)`` at each sample point once every judge is
        added, the kernel with ``out`` bound, or None if there is no
        judge."""
        if not (self.always or self.eventually or self.extrema):
            return None
        self.kernel = _monitor_kernel(self.always, self.eventually,
                                      self.extrema)
        return functools.partial(self.kernel, self.out)

    def decided(self) -> bool:
        """Whether every path formula has decided: no ``[]`` formula is
        true and no ``<>`` formula false any more. It reads one outcome per
        formula and calls no predicate."""
        out = self.out
        return (not any(out[entry[0]] for entry in self.always)
                and all(out[entry[0]] for entry in self.eventually))


# --- shared run streams ----------------------------------------------------


@dataclass
class _Job:
    """What one query reads of a stream's runs: the outcome of ``judge`` on
    each of the first ``n_runs`` runs of the check's network to ``bound``,
    at the check's seed. A traced judge's function is module-level, so that
    a stream's runs pickle."""

    bound: float
    n_runs: int  # the most runs the query's rule reads
    judge: object  # _Sampled | _Traced


@dataclass
class _Runs:
    """The runs of one stream as they execute: run i of ``net`` goes to
    ``bound`` from ``RngStream(seed, i)``, and each live job judges it if i
    is below its ``n_runs``. Pickling it pickles ``net`` as its source
    network, which is compiled again on unpickling."""

    net: CompiledNetwork
    bound: float
    seed: int
    run_config: RunConfig
    jobs: list  # (judge, n_runs) by place, fixed at the stream's first run


def _judges(runs: _Runs, index: int, live: tuple) -> tuple:
    """(monitor of the sampled judges, [(place, traced judge)], watch of
    the traced judges) of run ``index``: the ``live`` jobs that read it.
    The monitor's ``out`` holds the outcomes by job place."""
    monitor = _Monitor([None] * len(runs.jobs))
    traced, watch = [], []
    for place in live:
        judge, n_runs = runs.jobs[place]
        if index >= n_runs:
            continue
        if isinstance(judge, _Sampled):
            monitor.add(place, judge, runs.net)
        else:
            traced.append((place, judge))
            watch += judge.watch
    return monitor, traced, tuple(dict.fromkeys(watch))


def _run_one(runs: _Runs, index: int, live: tuple) -> tuple:
    """One run's outcome per job; None where a job is retired or reads no
    more runs. Sampled judges watch the run as it runs; the trace, with the
    traced judges' expressions, is judged once it ends, and dropped. A run
    that faults raises its ``EngineError``; the monitor or watch kernel
    that evaluates a query expression at fault names it, so the run is
    simulated once."""
    monitor, traced, watch = _judges(runs, index, live)
    trace = run(runs.net, runs.bound, RngStream(runs.seed, index),
                watch=watch, config=runs.run_config,
                monitor=monitor.sampler())
    out = monitor.out
    for place, judge in traced:
        out[place] = judge.fn(trace, *judge.args)
    return tuple(out)


# In a worker process: the runs of each stream of the pool's check, by
# stream index.
_W_RUNS = ()


def _worker_start(streams):
    """Starts a worker with ``streams``, the runs of every stream of the
    check by stream index. A forked worker holds the check's compiled
    network already; any other gets it compiled once, as the streams
    unpickle."""
    global _W_RUNS
    _W_RUNS = streams


def _worker_chunk(indices, stream, live):
    """Runs ``indices`` of the stream at index ``stream`` in a worker, judged
    by the ``live`` jobs: their outcomes, and the location configurations
    whose step tables the runs built in the check's network."""
    runs = _W_RUNS[stream]
    before = len(runs.net._tables)
    outcomes = [_run_one(runs, i, live) for i in indices]
    return outcomes, list(runs.net._tables)[before:]


class _Stream:
    """The runs to one bound of a check's network: each run is simulated
    once and judged by every live job of the stream, and its outcomes are
    cached, one tuple per run. Every job joins before the check's first
    run; a job is live until it has finished reading."""

    def __init__(self, index: int, runs: _Runs):
        self.index, self.runs = index, runs
        self.finished = set()  # places of the jobs done reading
        self.cache = []  # outcome tuples of runs 0 .. len - 1
        self.pending = deque()  # futures of the chunks past it, in order
        self.submitted = 0  # runs cached or pending, at more than one worker

    def live(self) -> tuple:
        return tuple(place for place in range(len(self.runs.jobs))
                     if place not in self.finished)


class RunPool:
    """Where the runs of one check of ``net``, its compiled network,
    execute, at ``cfg``'s seed and workers and under ``run_config``.

    ``register`` joins a query's jobs to the streams of the check, one per
    bound: each run is simulated once, judged by every live job of its
    stream, and only the outcomes are cached. ``check`` registers every
    query before the first run.

    At one worker the runs execute in this process. Otherwise they go to
    one process pool, started at the first chunk with every stream of the
    check, in chunks of ``CHUNK`` run indices, at most ``AHEAD`` chunks per
    worker and stream in flight; a chunk names its stream by index.
    """

    CHUNK = 4
    AHEAD = 2

    def __init__(self, net: CompiledNetwork, cfg: StatConfig,
                 run_config=None):
        self.net, self.cfg = net, cfg
        self.run_config = run_config or RunConfig()
        self._streams = {}  # bound -> its stream
        self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Cancel queued chunks and wait for the running ones. A chunk
        that ran but was never read adds the configurations it reports to
        the network's ``reached``, as a read one does."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None
            for stream in self._streams.values():
                for future in stream.pending:
                    if not future.cancelled() and future.exception() is None:
                        self.net.reached.update(future.result()[1])

    def register(self, query) -> list:
        """Joins ``query``'s jobs to their streams: the (stream, place) of
        each. Building the jobs checks the query: every name it reads and
        every channel its constraint listens on, so a bad query fails here,
        before any run."""
        jobs, _ = _form(query)
        return [self._join(job) for job in jobs(self.net, query, self.cfg)]

    def _join(self, job: _Job) -> tuple:
        stream = self._streams.get(job.bound)
        if stream is None:
            stream = self._streams[job.bound] = _Stream(
                len(self._streams),
                _Runs(self.net, job.bound, self.cfg.seed, self.run_config,
                      []))
        stream.runs.jobs.append((job.judge, job.n_runs))
        return stream, len(stream.runs.jobs) - 1

    def outcomes(self, lane):
        """Yields one job's outcomes of its runs in run-index order, so
        they do not depend on the worker count: cached ones first, then
        those of runs its stream simulates for it.

        Closing it retires the job: runs simulated later skip its judge.
        The stream's queued and running chunks are kept while another of
        its jobs has yet to finish reading, and cancelled, with the
        outcomes of running ones dropped, once none has. So a stream
        simulates each run once, and the chunks sent depend on what the
        rules read, never on timing."""
        stream, place = lane
        _, total = stream.runs.jobs[place]
        try:
            for i in range(total):
                if i >= len(stream.cache):
                    self._extend(stream, total)
                yield stream.cache[i][place]
        finally:
            stream.finished.add(place)
            if len(stream.finished) == len(stream.runs.jobs):
                for future in stream.pending:
                    future.cancel()

    def _extend(self, stream: _Stream, total: int):
        """Caches the outcomes of at least the stream's next run."""
        if self.cfg.workers == 1:
            stream.cache.append(_run_one(stream.runs, len(stream.cache),
                                         stream.live()))
            return
        if self._executor is None:
            # the platform's default start method (fork on Linux): workers
            # inherit the loaded modules and start at once, at the first
            # submit
            streams = tuple(s.runs for s in self._streams.values())
            context = get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.cfg.workers, mp_context=context,
                initializer=_worker_start, initargs=(streams,))
            if context.get_start_method() == "fork":
                # forked workers inherit the step tables that the workers
                # of earlier pools built, and the compiled watches and
                # opening monitor kernel of each stream's first run,
                # instead of building them again
                for config in self.net.reached:
                    self.net.step_table(config)
                for s in self._streams.values():
                    _judges(s.runs, 0, s.live())[0].sampler()
        live = stream.live()
        while (len(stream.pending) < self.AHEAD * self.cfg.workers
               and stream.submitted < total):
            chunk = list(range(stream.submitted,
                               min(stream.submitted + self.CHUNK, total)))
            stream.pending.append(self._executor.submit(
                _worker_chunk, chunk, stream.index, live))
            stream.submitted = chunk[-1] + 1
        outcomes, reached = stream.pending.popleft().result()
        stream.cache.extend(outcomes)
        self.net.reached.update(reached)


@contextmanager
def _streams(pool: RunPool, lanes):
    """One job's outcome stream per lane; all closed on exit."""
    streams = [pool.outcomes(lane) for lane in lanes]
    try:
        yield streams
    finally:
        for stream in streams:
            stream.close()


def _coerce_network(network) -> Model:
    if isinstance(network, Model):
        return network
    if isinstance(network, Network):
        return network.model
    raise QueryError("expected a Model or Network")


@functools.lru_cache(maxsize=16)
def _compiled(model: Model) -> CompiledNetwork:
    """The compiled network of ``model``, built once per process and model
    structure: equal models share it, step tables and kernels included.
    ``CompiledNetwork`` and ``instantiate`` are read through this module, so
    a hook that replaces them sees each compile."""
    return CompiledNetwork(instantiate(model))


def _check_names(resolve, *exprs):
    """Raises ``ExprError`` unless every call in ``exprs`` takes its number
    of arguments and every name they read is in the query scope
    ``resolve``."""
    for e in exprs:
        for message in E.bad_calls(e):
            raise E.ExprError(message)
        for name in E.names(e):
            resolve(name)


def _formula_job(net: CompiledNetwork, f: PathFormula, bound: float,
                 n_runs: int) -> _Job:
    _check_names(net.query_resolver, f.state_expr)
    return _Job(bound, n_runs, _Sampled(f.op, E.to_text(f.state_expr)))


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


def _binomial(verdict: str, successes: int, n: int, cfg: StatConfig,
              details: dict) -> SmcResult:
    """A result with p_hat and the Clopper-Pearson interval of ``successes``
    in ``n`` runs (None for both when n is 0)."""
    return SmcResult(
        verdict=verdict, p_hat=successes / n if n else None,
        ci=clopper_pearson(successes, n, cfg.alpha) if n else None, runs=n,
        details=details)


# --- the form table --------------------------------------------------------
#
# Two functions per query dataclass: its jobs, (net, query, cfg) -> [_Job]
# on the check's compiled network, which check the query and the names it
# reads before any run, and its rule, (query, cfg, streams) -> SmcResult,
# which reads one outcome stream per job, with name, seed and wall_ms left
# to ``check``.


def _estimate_runs(cfg: StatConfig) -> int:
    return min(chernoff_runs(cfg.alpha, cfg.epsilon), cfg.max_runs)


def _estimate_jobs(net, q: Estimate, cfg) -> list:
    return [_formula_job(net, q.formula, q.bound, _estimate_runs(cfg))]


def _estimate(q: Estimate, cfg, streams) -> SmcResult:
    [outcomes] = streams
    capped = chernoff_runs(cfg.alpha, cfg.epsilon) > cfg.max_runs
    n = _estimate_runs(cfg)
    successes = sum(1 for ok in outcomes if ok)
    return _binomial("undecided" if capped else "estimate-only", successes,
                     n, cfg, {"successes": successes})


def _hypothesis_jobs(net, q: Hypothesis, cfg) -> list:
    if not 0 < q.p0 < 1:
        raise QueryError("need 0 < p0 < 1")
    return [_formula_job(net, q.formula, q.bound, cfg.max_runs)]


def _hypothesis(q: Hypothesis, cfg, streams) -> SmcResult:
    [outcomes] = streams
    decision, n, successes = _sprt(outcomes, q.p0, cfg)
    return _binomial(decision or "undecided", successes, n, cfg,
                     {"p0": q.p0, "successes": successes})


def _compare_jobs(net, q: Compare, cfg) -> list:
    """Paired runs: both formulas read runs at the check's seed, so pair i
    is the runs to ``bound1`` and to ``bound2`` from ``RngStream(seed, i)``.
    When the bounds are equal, the two jobs join one stream and each run is
    judged for both formulas."""
    budget = _estimate_runs(cfg)
    return [_formula_job(net, q.formula1, q.bound1, budget),
            _formula_job(net, q.formula2, q.bound2, budget)]


def _compare(q: Compare, cfg, streams) -> SmcResult:
    """SPRT on discordant pairs of H0: p1 >= p2 (indifference delta), which
    is McNemar's paired design. With q10 = Pr[x1 and not x2] and q01 =
    Pr[x2 and not x1], p1 - p2 = q10 - q01, so H0 holds exactly when a
    discordant pair is (1, 0) with probability at least 1/2, whatever the
    correlation inside a pair: the pairs need only be i.i.d. across runs.
    Concordant pairs carry no sign information and are skipped. If the test
    is still open after the estimation run budget it falls back to the
    indifference rule on the point estimates: valid when
    p1_hat + delta >= p2_hat."""
    pairs = []
    verdict, discordant, _ = _sprt(
        (x1 for x1, x2 in _kept(zip(*streams), pairs) if x1 != x2), 0.5, cfg)
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
    return SmcResult(verdict=verdict, p_hat=p1_hat - p2_hat, ci=None, runs=n,
                     details={"p1_hat": p1_hat, "p2_hat": p2_hat,
                              "discordant": discordant})


def _expected_jobs(net, q: Expected, cfg) -> list:
    if not isinstance(q.n_runs, numbers.Integral):
        raise QueryError("need an integer n_runs")
    if q.n_runs < 2:
        raise QueryError("need n_runs >= 2")
    if q.mode not in EXTREMA:
        raise QueryError("mode is max or min")
    _check_names(net.query_resolver, q.expr)
    return [_Job(q.bound, q.n_runs, _Sampled(q.mode, E.to_text(q.expr)))]


def _expected(q: Expected, cfg, streams) -> SmcResult:
    """The mean of the runs' extrema, its t interval and their histogram.
    An extremum that is not finite, such as that of a clock that a
    literal rate drives past the largest float, has no mean: it ends the
    check, naming the query expression."""
    [outcomes] = streams
    values = list(outcomes)
    for index, value in enumerate(values):
        if not math.isfinite(value):
            raise QueryError(
                f"the {q.mode} of run {index} is {value!r}, not finite, in "
                f"the query expression {E.to_text(q.expr)!r}")
    import numpy as np
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(q.n_runs))
    t_crit = _t_quantile(cfg.alpha, q.n_runs - 1)
    counts, edges = np.histogram(arr, bins=HISTOGRAM_BINS)
    return SmcResult(
        verdict="estimate-only", p_hat=mean,
        ci=(mean - t_crit * se, mean + t_crit * se), runs=q.n_runs,
        histogram=(edges.tolist(), counts.tolist()),
        details={"mode": q.mode, "values": values})


def _simulate_jobs(net, q: Simulate, cfg) -> list:
    if not isinstance(q.n_runs, numbers.Integral):
        raise QueryError("need an integer n_runs")
    if q.n_runs < 1:
        raise QueryError("need n_runs >= 1")
    step = q.sample_step
    if step is not None and not (math.isfinite(step) and step > 0):
        raise QueryError("need sample_step > 0")
    _check_names(net.query_resolver, *q.exprs)
    keys = tuple(E.to_text(e) for e in q.exprs)
    return [_Job(q.bound, q.n_runs,
                 _Traced(_trajectory, (keys, q.bound, q.sample_step), keys))]


def _simulate(q: Simulate, cfg, streams) -> SmcResult:
    """Trajectory set in ``details["trajectories"]``: per run, rows
    (t, v1, ...) on a regular grid plus at every event."""
    [outcomes] = streams
    trajectories = list(outcomes)
    return SmcResult(verdict="estimate-only", p_hat=None, ci=None,
                     runs=q.n_runs, details={"trajectories": trajectories})


def _constraint_jobs(net, q: ConstraintQuery, cfg) -> list:
    """Runs of the check's own network to the query's bound, the stream
    that every other query on that bound reads, each judged by the
    constraint's observer, replayed over the run's events, and by the
    trace oracle. The constraint's channels are checked, and its observer
    compiled, here: before any run, and before workers fork."""
    c = q.constraint
    monitors.check_channels(net.network.model, c)
    monitors.compile_observer(c)
    return [_Job(q.bound, cfg.max_runs, _Traced(_routes, (c,)))]


def _constraint(q: ConstraintQuery, cfg, streams) -> SmcResult:
    """Hypothesis test Pr[[] !Obs.fail] >= m/k on the observer route, with
    the independent sliding-window trace oracle tallied on the same runs.

    The observer fails a run at its first out-of-band occurrence, and the
    share of runs it passes is tested at p0 = m/k; the oracle passes a run
    when every window of k occurrences holds at least m in-band ones.  The
    two routes agree run by run only when m = k."""
    c = q.constraint
    p0 = c.m / c.k
    [outcomes] = streams
    routes = []
    verdict, n, obs_ok = _sprt(
        (obs for obs, _ in _kept(outcomes, routes)), p0, cfg)
    # the oracle's verdict: the same test over the oracle outcomes tallied
    oracle = [orc for _, orc in routes]
    oracle_verdict, _, _ = _sprt(oracle, p0, cfg)
    return _binomial(verdict or "undecided", obs_ok, n, cfg,
                     {"p0": p0, "constraint": c.kind,
                      "oracle_fraction": sum(oracle) / n if n else 0.0,
                      "oracle_verdict": oracle_verdict or "undecided"})


# --- the one entry ---------------------------------------------------------

_FORMS = {Estimate: (_estimate_jobs, _estimate),
          Hypothesis: (_hypothesis_jobs, _hypothesis),
          Compare: (_compare_jobs, _compare),
          Expected: (_expected_jobs, _expected),
          Simulate: (_simulate_jobs, _simulate),
          ConstraintQuery: (_constraint_jobs, _constraint)}


def _form(query) -> tuple:
    form = _FORMS.get(type(query))
    if form is None:
        raise QueryError(f"unsupported query {type(query).__name__}")
    return form


def check(network, queries, cfg: StatConfig, run_config=None) -> list:
    """Evaluates ``queries``, ((name, query), ...), each by its form's rule,
    with the runs of one pool: every query is registered, and so checked,
    before the first run. The results are in the order given."""
    net = _compiled(_coerce_network(network))
    results = [None] * len(queries)
    with RunPool(net, cfg, run_config) as pool:
        lanes = [pool.register(query) for _, query in queries]
        # A job judges every run simulated while it is live, so the
        # sequential tests, which stop early, go first.
        for i in sorted(range(len(queries)), key=lambda i: not isinstance(
                queries[i][1], (Hypothesis, ConstraintQuery))):
            name, query = queries[i]
            _, rule = _form(query)
            t0 = time.perf_counter()
            with _streams(pool, lanes[i]) as streams:
                result = rule(query, cfg, streams)
            result.wall_ms = (time.perf_counter() - t0) * 1e3
            result.name, result.seed = name, cfg.seed
            results[i] = result
    return results


def evaluate_query(network, query, cfg: StatConfig, run_config=None,
                   name=None) -> SmcResult:
    """Evaluate one query: a check of that query alone."""
    [result] = check(network, ((name, query),), cfg, run_config)
    return result


def trajectories_to_csv(trajectories, exprs) -> str:
    keys = [E.to_text(e) for e in exprs]
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
