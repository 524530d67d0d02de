import functools
import gc
import math
import os
import pathlib
import pickle
import re
import weakref
from concurrent.futures import wait
from multiprocessing import get_context
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from stamc import engine, smc
from stamc.engine import CompiledNetwork, RngStream, RunConfig, run
from stamc.expr import ExprError, to_text
from stamc.model import Template, instantiate
from stamc.monitors import attach_observer, check_trace
from stamc.parser import parse_expression, parse_model, parse_queries
from stamc.queries import (Compare, ConstraintQuery, Estimate, Expected,
                           Hypothesis, ObserverDecl, Simulate)
from stamc.smc import (Sprt, StatConfig, chernoff_runs, clopper_pearson,
                       evaluate_query)
from test_engine import COUPLED

# a biased coin: one weighted committed choice, then absorbing
COIN = """
int heads = 0;
int done = 0;
clock x;

template Coin() {
  init loc wait { inv x <= 1; }
  committed loc flip;
  loc rest;
  wait -> flip { guard x >= 1; }
  flip -> rest { weight 3; update heads := 1, done := 1; }
  flip -> rest { weight 7; update done := 1; }
}

system Coin;
"""
# Pr(heads) = 0.3


def coin_model():
    return parse_model(COIN)


def query(text):
    [nq] = parse_queries(text)
    return nq.query


def test_chernoff_runs():
    assert chernoff_runs(0.05, 0.05) == 738
    assert chernoff_runs(0.05, 0.1) == 185
    assert chernoff_runs(0.01, 0.05) == 1060


def test_chernoff_matches_formula():
    for alpha, eps in [(0.05, 0.05), (0.1, 0.02), (0.01, 0.1)]:
        assert chernoff_runs(alpha, eps) == \
               math.ceil(math.log(2 / alpha) / (2 * eps ** 2))


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 100, 0.05)
    assert lo == 0
    assert hi < 0.05
    lo, hi = clopper_pearson(100, 100, 0.05)
    assert lo > 0.95
    assert hi == 1


def test_clopper_pearson_contains_point_estimate():
    lo, hi = clopper_pearson(30, 100, 0.05)
    assert lo < 0.3 < hi
    # matches the direct beta-quantile construction
    assert lo == pytest.approx(scipy.stats.beta.ppf(0.025, 30, 71))
    assert hi == pytest.approx(scipy.stats.beta.ppf(0.975, 31, 70))


# the reference grid: run counts from 1 to 10^6, successes at both ends and
# in between, and levels from far in the tail to past the median
CP_RUNS = (1, 2, 3, 10, 35, 47, 140, 738, 10 ** 4, 10 ** 6)
LEVELS = (1e-9, 1e-3, 0.05, 0.2, 0.5, 0.9)


def test_clopper_pearson_matches_scipy():
    # scipy is the reference only: the upper bound is its isf at alpha/2,
    # since ppf at 1 - alpha/2 first rounds alpha/2 to the spacing near 1
    for n in CP_RUNS:
        for k in {k for k in (0, 1, 2, n // 3, n // 2, n - 2, n - 1, n)
                  if 0 <= k <= n}:
            for alpha in LEVELS:
                lo, hi = clopper_pearson(k, n, alpha)
                ref_lo = scipy.stats.beta.ppf(alpha / 2, k, n - k + 1) \
                    if k else 0.0
                ref_hi = scipy.stats.beta.isf(alpha / 2, k + 1, n - k) \
                    if k < n else 1.0
                assert abs(lo - ref_lo) <= 1e-12, (k, n, alpha, lo, ref_lo)
                assert abs(hi - ref_hi) <= 1e-12, (k, n, alpha, hi, ref_hi)


def test_t_quantile_matches_scipy():
    for nu in (1, 2, 3, 4, 9, 24, 99, 10 ** 3, 10 ** 5):
        for alpha in LEVELS:
            t = smc._t_quantile(alpha, nu)
            ref = scipy.stats.t.isf(alpha / 2, nu)
            assert t == pytest.approx(ref, rel=1e-12), (nu, alpha)


@pytest.mark.parametrize("successes, n, alpha", [
    (5, 3, 0.05), (-1, 3, 0.05), (1.5, 3, 0.05), (1, 3, 1.5), (1, 3, 0.0),
    (1, 3, 1.0), (1, 3, math.nan), (0, 0, 0.05), (1, 3.0, 0.05)])
def test_clopper_pearson_rejects_what_is_not_an_interval(successes, n,
                                                          alpha):
    with pytest.raises(smc.QueryError):
        clopper_pearson(successes, n, alpha)


def test_sprt_decides_clear_cases():
    s = Sprt(0.5, 0.01, 0.05, 0.05)
    decision = None
    for _ in range(10000):
        decision = s.feed(True)
        if decision:
            break
    assert decision == "valid"
    s = Sprt(0.5, 0.01, 0.05, 0.05)
    for _ in range(10000):
        decision = s.feed(False)
        if decision:
            break
    assert decision == "invalid"


def test_estimate_probability():
    cfg = StatConfig(seed=7, epsilon=0.05)
    res = evaluate_query(coin_model(), query("Pr[<=5](<> heads == 1)"), cfg)
    assert res.verdict == "estimate-only"
    assert res.runs == 738
    assert abs(res.p_hat - 0.3) < 0.05
    assert res.ci[0] < 0.3 < res.ci[1]


def test_estimate_capped_is_undecided():
    cfg = StatConfig(seed=7, epsilon=0.05, max_runs=50)
    res = evaluate_query(coin_model(), query("Pr[<=5](<> heads == 1)"), cfg)
    assert res.verdict == "undecided"
    assert res.runs == 50


def test_hypothesis_clear_accept_and_reject():
    cfg = StatConfig(seed=7)
    res = evaluate_query(coin_model(),
                         query("Pr[<=5](<> heads == 1) >= 0.1"), cfg)
    assert res.verdict == "valid"
    res = evaluate_query(coin_model(),
                         query("Pr[<=5](<> heads == 1) >= 0.6"), cfg)
    assert res.verdict == "invalid"


def test_globally_formula_detects_violation():
    cfg = StatConfig(seed=7)
    res = evaluate_query(coin_model(), query("Pr[<=5]([] done == 0) >= 0.5"),
                         cfg)
    assert res.verdict == "invalid"  # done flips to 1 in every run


def test_compare_identical_formulas_is_valid():
    cfg = StatConfig(seed=7)
    res = evaluate_query(
        coin_model(),
        query("Pr[<=5](<> heads == 1) >= Pr[<=5](<> heads == 1)"), cfg)
    assert res.verdict == "valid"


def test_compare_detects_strict_ordering():
    cfg = StatConfig(seed=7)
    res = evaluate_query(
        coin_model(),
        query("Pr[<=5](<> done == 1) >= Pr[<=5](<> heads == 1)"), cfg)
    assert res.verdict == "valid"
    res = evaluate_query(
        coin_model(),
        query("Pr[<=5](<> heads == 1) >= Pr[<=5](<> done == 1)"), cfg)
    assert res.verdict == "invalid"
    assert res.details["p1_hat"] < res.details["p2_hat"]


RAMP = """
clock e;
clock x;
template Ramp() {
  init loc a { rate e = 2; inv x <= 10; }
  loc done { rate e = 0; }
  a -> done { guard x >= 10; }
}
system Ramp;
"""


def test_expected_value_of_peak():
    cfg = StatConfig(seed=3)
    res = evaluate_query(parse_model(RAMP), query("E[<=20; 30](max: e)"), cfg)
    assert res.p_hat == pytest.approx(20.0)  # rate 2 for 10 time units
    assert res.verdict == "estimate-only"
    edges, counts = res.histogram
    assert sum(counts) == 30
    assert len(counts) == 20


def test_expected_value_needs_two_runs():
    # the parser rejects E[<=20; 1]; the library checks a direct query too
    with pytest.raises(smc.QueryError, match="need n_runs >= 2"):
        evaluate_query(parse_model(RAMP),
                       Expected(20.0, 1, "max", parse_expression("e")),
                       StatConfig())


@pytest.mark.parametrize("q,message", [
    (Expected(100.0, 2.5, "max", parse_expression("e")), "an integer n_runs"),
    (Expected(100.0, 3.0, "min", parse_expression("e")), "an integer n_runs"),
    (Simulate(1.5, 10.0, (parse_expression("e"),)), "an integer n_runs"),
    (Simulate(2.0, 10.0, (parse_expression("e"),)), "an integer n_runs"),
    (Simulate(0, 10.0, (parse_expression("e"),)), r"n_runs >= 1"),
    (Simulate(-3, 10.0, (parse_expression("e"),)), r"n_runs >= 1"),
], ids=["expected-2.5", "expected-3.0", "simulate-1.5", "simulate-2.0",
        "simulate-0", "simulate-negative"])
def test_a_bad_run_count_is_rejected(q, message):
    """The parser rejects these counts; a direct query fails before it
    runs, instead of with a TypeError from the runs or with a result of
    -3 runs."""
    with pytest.raises(smc.QueryError, match=f"need {message}"):
        evaluate_query(parse_model(RAMP), q, StatConfig())


def test_simulate_grid_and_events():
    cfg = StatConfig(seed=3)
    q = replace(query("simulate 2 [<=10] {e}"), sample_step=1.0)
    rows_per_run = evaluate_query(parse_model(RAMP), q,
                                  cfg).details["trajectories"]
    assert len(rows_per_run) == 2
    times = [r[0] for r in rows_per_run[0]]
    assert times == sorted(times)
    for g in range(11):
        assert any(t == pytest.approx(g) for t in times)
    csv = smc.trajectories_to_csv(rows_per_run, q.exprs)
    assert csv.splitlines()[0] == "run,t,e"


def test_simulate_grid_ends_at_the_bound():
    """The grid's times are ``i * step``, not a running sum of steps: at
    bound 1000 and step 0.1 it has 10001 rows, the last at 1000.0, and no
    row lies past the bound."""
    trace = engine.Trace({"x": 0.0}, [], 1000.0, "bound_reached",
                         {"x": 1000.0})
    rows = smc._trajectory(trace, ("x",), 1000.0, 0.1)
    grid = [i * 0.1 for i in range(10001)]
    assert [t for t, _ in rows] == sorted([0.0, 1000.0] + grid)
    assert grid[-1] == 1000.0
    assert all(x == pytest.approx(t) for t, x in rows)


def test_histogram_csv_format():
    text = smc.histogram_to_csv(([0.0, 1.0, 2.0], [3, 4]))
    lines = text.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 3


def test_worker_pool_matches_inline():
    q = query("Pr[<=5](<> heads == 1)")
    res1 = evaluate_query(coin_model(), q,
                          StatConfig(seed=7, epsilon=0.2, workers=1))
    res2 = evaluate_query(coin_model(), q,
                          StatConfig(seed=7, epsilon=0.2, workers=2))
    assert res1.p_hat == res2.p_hat
    assert res1.runs == res2.runs


def test_evaluate_query_dispatch(task_text):
    cfg = StatConfig(seed=7, epsilon=0.2, delta_indiff=0.05)
    for model, text, verdict in [
        (COIN, "Pr[<=5](<> heads == 1)", "estimate-only"),
        (COIN, "Pr[<=5](<> heads == 1) >= 0.1", "valid"),
        (COIN, "Pr[<=5](<> done == 1) >= Pr[<=5](<> heads == 1)", "valid"),
        (RAMP, "E[<=20; 2](max: e)", "estimate-only"),
        (RAMP, "simulate 1 [<=10] {e}", "estimate-only"),
        (task_text, "constraint execution(m=3, k=4, bound=50, lower=0, "
         "upper=10) on start=start, stop=stop", "valid"),
    ]:
        res = evaluate_query(parse_model(model), query(text), cfg, name="Q")
        assert res.verdict == verdict
        assert (res.name, res.seed) == ("Q", 7)
        assert res.wall_ms > 0
    assert res.details["oracle_verdict"] == "valid"  # the constraint's
    decl = query("observer Lat endtoend(m=1, k=1, lower=1, upper=5) "
                 "on source=start, target=stop")
    with pytest.raises(smc.QueryError, match="unsupported query ObserverDecl"):
        evaluate_query(coin_model(), decl, cfg)
    with pytest.raises(smc.QueryError, match="need n_runs >= 2"):
        evaluate_query(parse_model(RAMP),
                       Expected(20.0, 1, "max", parse_expression("e")), cfg)


def test_stat_config_validation():
    with pytest.raises(Exception):
        StatConfig(alpha=0)
    with pytest.raises(Exception):
        StatConfig(epsilon=1.5)
    for workers in (0, -3):
        with pytest.raises(smc.QueryError, match=r"need workers >= 1"):
            StatConfig(workers=workers)
    for max_runs in (0, -1):
        with pytest.raises(smc.QueryError, match=r"need max_runs >= 1"):
            StatConfig(max_runs=max_runs)
    for delta in (0, -0.01, math.nan, math.inf):
        with pytest.raises(smc.QueryError, match=r"need delta_indiff > 0"):
            StatConfig(delta_indiff=delta)
    with pytest.raises(smc.QueryError, match=r"need seed >= 0"):
        StatConfig(seed=-1)
    # a non-integral count or seed would fail only once the runs start
    for name in ("seed", "workers", "max_runs"):
        for value in (1.5, 2.0, "3"):
            with pytest.raises(smc.QueryError, match=f"need an integer {name}"):
                StatConfig(**{name: value})
    assert StatConfig(seed=np.int64(3)).seed == 3


def without_wall(result):
    return replace(result, wall_ms=0.0)


def test_library_calls_match_inline_at_two_workers(pools, task_text):
    coin, task = coin_model(), parse_model(task_text)
    calls = [
        lambda cfg: evaluate_query(
            coin, query("Pr[<=5](<> heads == 1) >= 0.25"), cfg),
        lambda cfg: evaluate_query(
            coin, query("Pr[<=5](<> heads == 1) >= Pr[<=5](<> done == 1)"),
            cfg),
        lambda cfg: evaluate_query(
            task, query("constraint execution(m=3, k=4, bound=50, lower=1, "
                        "upper=5) on start=start, stop=stop;"), cfg,
            name="K"),
    ]
    for call in calls:
        inline = call(StatConfig(seed=7, delta_indiff=0.05, workers=1))
        pooled = call(StatConfig(seed=7, delta_indiff=0.05, workers=2))
        assert without_wall(pooled) == without_wall(inline)
    # one pool per call, in which compare's two formulas share one stream,
    # and closed
    assert len(pools) == len(calls)
    assert all(pool.shut_down for pool in pools)
    assert all(pool.chunks for pool in pools)


@pytest.mark.parametrize("workers", [2, 3])
def test_sprt_dispatches_at_most_the_look_ahead(pools, workers):
    res = evaluate_query(coin_model(), query("Pr[<=5](<> heads == 1) >= 0.25"),
                         StatConfig(seed=7, delta_indiff=0.02,
                                    workers=workers))
    [pool] = pools
    dispatched = sorted(i for chunk in pool.chunks for i in chunk)
    look_ahead = 2 * workers * smc.RunPool.CHUNK
    assert res.runs > look_ahead  # the test spans several windows
    assert dispatched == list(range(len(dispatched)))
    assert res.runs <= len(dispatched) <= res.runs + look_ahead


def test_decided_test_leaves_no_chunk_queued(pools, monkeypatch):
    # a wide look-ahead, so that chunks are still queued when the test
    # decides
    monkeypatch.setattr(smc.RunPool, "AHEAD", 8)
    cfg = StatConfig(seed=7, delta_indiff=0.02, epsilon=0.2, workers=2)
    jobs, rule = smc._FORMS[Estimate]

    def after_the_test(q, cfg, streams):
        # the test, evaluated first, has decided: each of its chunks is
        # done, cancelled or already with a worker, and none is left queued
        # to run ahead of the estimate's chunks
        [executor] = pools
        futures = list(executor.futures)
        assert futures
        assert all(fut.done() or fut.running() for fut in futures)
        done, not_done = wait(futures, timeout=60)
        assert not not_done
        return rule(q, cfg, streams)

    monkeypatch.setitem(smc._FORMS, Estimate, (jobs, after_the_test))
    # the estimate reads runs to another bound: a stream of its own
    queries = [(None, query("Pr[<=6](<> heads == 1)")),
               (None, query("Pr[<=5](<> heads == 1) >= 0.25"))]
    pooled = smc.check(coin_model(), queries, cfg)
    inline = smc.check(coin_model(), queries, replace(cfg, workers=1))
    assert [without_wall(r) for r in pooled] == \
        [without_wall(r) for r in inline]


def test_a_check_shares_each_run_among_its_queries(monkeypatch):
    coin = coin_model()
    cfg = StatConfig(seed=7, delta_indiff=0.05, epsilon=0.2)
    texts = ["Pr[<=5](<> heads == 1) >= 0.25", "Pr[<=5](<> heads == 1)",
             "E[<=5; 30](max: heads)"]
    alone = [without_wall(evaluate_query(coin, query(t), cfg))
             for t in texts]
    runs = []
    real_run = smc.run

    def counting_run(net, bound, rng, *args, **kwargs):
        runs.append(rng.run_index)
        return real_run(net, bound, rng, *args, **kwargs)

    monkeypatch.setattr(smc, "run", counting_run)
    results = [without_wall(r) for r in
               smc.check(coin, [(None, query(t)) for t in texts], cfg)]
    assert results == alone
    assert runs == list(range(max(r.runs for r in results)))


@pytest.mark.parametrize("workers", [2, 3])
def test_kept_chunks_simulate_no_run_twice(pools, workers):
    # the test decides after a few runs; the estimate reads on past it from
    # the chunks the test's reads had sent ahead
    coin = coin_model()
    cfg = StatConfig(seed=7, delta_indiff=0.1, epsilon=0.2, workers=workers)
    queries = [(None, query("Pr[<=5](<> heads == 1) >= 0.25")),
               (None, query("Pr[<=5](<> heads == 1)"))]
    inline = [without_wall(r) for r in
              smc.check(coin, queries, replace(cfg, workers=1))]
    results = [without_wall(r) for r in smc.check(coin, queries, cfg)]
    assert results == inline
    assert results[0].runs < results[1].runs
    [executor] = pools
    submitted = [i for chunk in executor.chunks for i in chunk]
    assert sorted(submitted) == list(range(len(submitted)))
    assert len(submitted) >= results[1].runs


@pytest.mark.parametrize("text", [
    "simulate 2 [<=10] {wvx}",
    "E[<=10; 2](max: wvx)",
    "Pr[<=10](<> wvx > 0)",
    "Pr[<=10](<> wvx > 0) >= 0.5",
    "Pr[<=10](<> wvl > 0) >= Pr[<=10](<> wvx > 0)",
], ids=["simulate", "expected", "estimate", "hypothesis", "compare"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_bad_query_fails_when_it_registers(pools, monkeypatch, text,
                                            workers):
    """Before any run of the check, in this process or in a worker, and
    before a worker starts."""
    model = parse_model((MODELS / "av.sta").read_text())
    runs = []
    monkeypatch.setattr(smc, "run", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ExprError, match="name 'wvx' undeclared"):
        smc.check(model, [(None, query("Pr[<=10](<> wvl > 0) >= 0.5")),
                          (None, query(text))], StatConfig(workers=workers))
    assert runs == []
    assert pools == []


@pytest.mark.parametrize("text, message", [
    ("E[<=10; 2](max: abs(wvl, 1))",
     "abs takes 1 argument, not 2, in 'abs(wvl, 1)'"),
    ("Pr[<=10](<> min(wvl) > 0) >= 0.5",
     "min takes 2 or more arguments, not 1, in 'min(wvl)'"),
], ids=["expected", "hypothesis"])
def test_a_query_call_of_the_wrong_arity_fails_when_it_registers(
        pools, monkeypatch, text, message):
    """As a query that names an undeclared value does: before any run."""
    model = parse_model((MODELS / "av.sta").read_text())
    runs = []
    monkeypatch.setattr(smc, "run", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ExprError, match=f"^{re.escape(message)}$"):
        smc.check(model, [(None, query("Pr[<=10](<> wvl > 0) >= 0.5")),
                          (None, query(text))], StatConfig(workers=2))
    assert runs == []
    assert pools == []


def test_a_model_is_instantiated_once_to_check_the_names_of_its_queries(
        monkeypatch):
    """Both formulas of a compare, and every later query of the same
    model, read one query scope, and the check's runs run on it."""
    model = parse_model((MODELS / "av.sta").read_text())
    built = []
    monkeypatch.setattr(smc, "instantiate",
                        lambda m: built.append(m) or instantiate(m))
    smc.check(model, [
        (None, query("Pr[<=10](<> wvl > 0) >= Pr[<=10](<> wvr > 0)")),
        (None, query("E[<=10; 5](max: wvl)")),
        (None, query("Pr[<=5](<> wvl > 0)"))], StatConfig(epsilon=0.3))
    assert built == [model]


def test_retired_job_judges_no_later_run(monkeypatch):
    coin = coin_model()
    cfg = StatConfig(seed=7, delta_indiff=0.1, epsilon=0.2)
    streams = []

    class Recorded(smc._Stream):
        def __init__(self, *args):
            super().__init__(*args)
            streams.append(self)

    monkeypatch.setattr(smc, "_Stream", Recorded)
    decided, read = (r.runs for r in smc.check(coin, [
        (None, query("Pr[<=5](<> heads == 1) >= 0.25")),
        (None, query("Pr[<=5]([] done == 0)"))], cfg))
    [stream] = streams
    assert decided < read == len(stream.cache)
    # the test's judge saw only the runs it read, the estimate's all
    assert all(out[0] is not None for out in stream.cache[:decided])
    assert all(out[0] is None for out in stream.cache[decided:])
    assert all(out[1] is not None for out in stream.cache)


def test_workers_start_from_pickled_streams(pools, monkeypatch, task_text):
    """Under forkserver, a worker gets the check's streams by pickling, at
    its start; a chunk carries no model."""
    checks = [
        (coin_model(), ["Pr[<=5](<> heads == 1) >= 0.25",
                        "E[<=5; 10](max: heads)",
                        "Pr[<=5](<> heads == 1) >= Pr[<=3](<> done == 1)"]),
        # a constraint and an extremum share the runs to 50; runs to 30
        # are a second stream
        (parse_model(task_text), [
            "constraint execution(m=3, k=4, bound=50, lower=1, upper=5) "
            "on start=start, stop=stop;", "E[<=50; 10](max: n)",
            "E[<=30; 10](min: n)"]),
    ]
    cfg = StatConfig(seed=7, delta_indiff=0.05, epsilon=0.2)
    inline = [smc.check(model, [(None, query(t)) for t in texts], cfg)
              for model, texts in checks]

    monkeypatch.setattr(smc, "get_context",
                        lambda: get_context("forkserver"))
    pooled = [smc.check(model, [(None, query(t)) for t in texts],
                        replace(cfg, workers=2)) for model, texts in checks]
    assert [[without_wall(r) for r in rs] for rs in pooled] == \
        [[without_wall(r) for r in rs] for rs in inline]
    assert len(pools) == len(checks)
    assert all(pool.shut_down for pool in pools)
    for pool in pools:
        assert pool.context.get_start_method() == "forkserver"
        assert pool.args
        assert not any(isinstance(arg, bytes)
                       for args in pool.args for arg in args)


def test_forked_workers_compile_nothing(pools, monkeypatch, tmp_path,
                                        task_text):
    """A process compiles each network once, for every check of its model:
    a forked worker runs the compiled networks it inherits."""
    compiled = tmp_path / "compiled"
    init = CompiledNetwork.__init__

    def recorded(self, network):
        with open(compiled, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        init(self, network)

    monkeypatch.setattr(CompiledNetwork, "__init__", recorded)
    model = parse_model(task_text)
    queries = [(None, query(t)) for t in (
        "constraint execution(m=3, k=4, bound=50, lower=1, upper=5) "
        "on start=start, stop=stop;", "E[<=50; 10](max: n)")]
    cfg = StatConfig(seed=7, delta_indiff=0.05)
    inline = smc.check(model, queries, cfg)

    monkeypatch.setattr(smc, "get_context", lambda: get_context("fork"))
    pooled = smc.check(model, queries, replace(cfg, workers=2))
    assert [without_wall(r) for r in pooled] == \
        [without_wall(r) for r in inline]
    [pool] = pools
    assert pool.chunks
    # the one network, once: the constraint judges the runs of the
    # check's network, and the second check reuses it
    assert compiled.read_text().split() == [str(os.getpid())]


def test_forked_workers_inherit_the_tables_earlier_workers_built(
        pools, monkeypatch, tmp_path, task_text):
    """A forked pool starts with the step table of every configuration that
    the workers of earlier checks reported, so the second of two checks
    builds its tables, receive kernels included, in this process, before
    its workers fork, and they build none and compile no receive kernel; a
    forkserver pool's workers unpickle fresh networks, so this process
    builds no table for them. Every forked pool's first runs find their
    monitor kernel built in this process."""
    built = tmp_path / "built"
    compiled = tmp_path / "compiled"
    init = engine._StepTable.__init__
    kernel = engine._kernel

    def recorded(self, net, config):
        with open(built, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        init(self, net, config)

    def titled(title, *args, **kw):
        with open(compiled, "a") as fh:
            fh.write(f"{os.getpid()} {title}\n")
        return kernel(title, *args, **kw)

    monkeypatch.setattr(engine._StepTable, "__init__", recorded)
    monkeypatch.setattr(engine, "_kernel", titled)
    # no receive or monitor kernel of an earlier test is cached
    monkeypatch.setattr(engine, "_receive_kernel", functools.cache(
        engine._receive_kernel.__wrapped__))
    monkeypatch.setattr(smc, "_kernel", titled)
    monkeypatch.setattr(smc, "_monitor_kernel", functools.cache(
        smc._monitor_kernel.__wrapped__))
    constraint = query("constraint execution(m=3, k=4, bound=50, lower=1, "
                       "upper=5) on start=start, stop=stop;")
    # the task has no receiver, so no receive kernel; a declared observer
    # receives on both its channels
    model = attach_observer(parse_model(task_text), constraint.constraint,
                            "Obs")
    queries = [(None, constraint), (None, query("E[<=50; 10](max: n)"))]
    cfg = StatConfig(seed=7, delta_indiff=0.05)

    def checked(method):
        """The rows of a two-worker check whose pool starts its workers by
        ``method``, the pid of each table built meanwhile, and the pids
        that compiled a receive kernel."""
        monkeypatch.setattr(smc, "get_context", lambda: get_context(method))
        built.write_text("")
        compiled.write_text("")
        rows = smc.check(model, queries, replace(cfg, workers=2))
        received = {line.split()[0] for line in compiled.read_text()
                    .splitlines() if " receive " in line}
        return ([without_wall(r) for r in rows], built.read_text().split(),
                received)

    here = str(os.getpid())
    first, first_built, first_received = checked("fork")
    assert first_built and here not in first_built
    assert first_received and here not in first_received
    # the extremum's kernel, the one monitor kernel of the check's runs
    assert [line.split()[0] for line in compiled.read_text().splitlines()
            if line.endswith(" monitor")] == [here]
    second, second_built, second_received = checked("fork")
    assert set(second_built) == second_received == {here}
    assert second == first
    # fresh networks, whose workers report what they built
    smc._compiled.cache_clear()
    for _ in range(2):
        rows, served_built, _ = checked("forkserver")
        assert rows == first and served_built == []
    assert smc._compiled(model).reached
    assert [without_wall(r) for r in smc.check(model, queries, cfg)] == first
    assert len(pools) == 4 and all(pool.chunks for pool in pools)


# a committed pick of one of eight absorbing locations: runs reach
# different location configurations
SPREAD = """
int done = 0;
clock x;

template S() {
  init loc wait { inv x <= 1; }
  committed loc pick;
  %s
  wait -> pick { guard x >= 1; }
  %s
}

system S;
""" % (" ".join(f"loc r{k};" for k in range(8)),
       " ".join(f"pick -> r{k} {{ update done := 1; }}" for k in range(8)))


def test_chunks_run_but_never_read_report_their_tables(pools, monkeypatch,
                                                       tmp_path):
    """A test that decides in its first chunk leaves chunks that ran but
    were never read; the pool keeps the configurations those built too, so
    the network's reached set is every table its forked workers built."""
    monkeypatch.setattr(smc.RunPool, "AHEAD", 8)
    monkeypatch.setattr(smc, "get_context", lambda: get_context("fork"))
    built = tmp_path / "built"
    init = engine._StepTable.__init__

    def recorded(self, net, config):
        with open(built, "a") as fh:
            fh.write(f"{os.getpid()} {' '.join(config)}\n")
        init(self, net, config)

    monkeypatch.setattr(engine._StepTable, "__init__", recorded)
    model = parse_model(SPREAD)
    res = evaluate_query(model, query("Pr[<=5](<> done == 1) >= 0.1"),
                         StatConfig(seed=7, delta_indiff=0.05, workers=2))
    [pool] = pools
    ran = [fut for fut in pool.futures if not fut.cancelled()]
    assert res.runs <= smc.RunPool.CHUNK < len(ran) * smc.RunPool.CHUNK
    lines = [line.split() for line in built.read_text().splitlines()]
    assert lines and all(pid != str(os.getpid()) for pid, *_ in lines)
    reached = {tuple(config) for _, *config in lines}
    # more than the read chunk's four runs could reach
    assert len(reached) > 2 + smc.RunPool.CHUNK
    assert smc._compiled(model).reached == reached


# --- the compiled-network cache --------------------------------------------

AV_TEXT = (pathlib.Path(__file__).resolve().parent.parent
           / "models" / "av.sta").read_text()
CAM = "on start=cam_start, stop=cam_done"


def test_a_model_is_compiled_once_per_process(compiles, task_text):
    """Library calls on one model, or on an equal re-parsed one, share one
    compiled network; a constraint judges the runs of that network and
    compiles none of its own."""
    cfg = StatConfig(seed=3, epsilon=0.3)
    model = parse_model(AV_TEXT)
    evaluate_query(model, query("E[<=10; 3](max: wvl)"), cfg)
    evaluate_query(model, query("Pr[<=10](<> wvl > 0)"), cfg)
    assert len(compiles) == 1
    evaluate_query(parse_model(AV_TEXT), query("E[<=20; 3](max: wvr)"), cfg)
    assert len(compiles) == 1
    task = parse_model(task_text)
    constraint = query("constraint execution(m=3, k=4, bound=50, lower=1, "
                       "upper=5) on start=start, stop=stop;")
    first, second = (evaluate_query(task, constraint, cfg, name="K")
                     for _ in range(2))
    assert without_wall(first) == without_wall(second)
    # the task network
    assert len(compiles) == 2


@pytest.mark.parametrize("text,checked,warming", [
    pytest.param(AV_TEXT, [
        "Pr[<=200](<> wvl > 105)",
        "Pr[<=200](<> wvl > 10) >= 0.5",
        "E[<=200; 5](max: wvl)",
        "simulate 2 [<=100] {wvl, wvr}",
        f"constraint execution(m=19, k=20, bound=200, lower=0, upper=5) {CAM}",
    ], [
        "Pr[<=400]([] wvr <= 60)",
        "E[<=150; 4](min: wvl - wvr)",
        f"constraint execution(m=19, k=20, bound=300, lower=0, upper=5) {CAM}",
    ], id="av"),
    pytest.param(COUPLED, [
        "E[<=5; 3](max: w)",
        "Pr[<=5](<> x < 0)",
        "simulate 1 [<=3] {x, y, w}",
    ], ["E[<=8; 2](min: x)"], id="coupled"),
])
def test_a_warm_network_changes_no_result(text, checked, warming):
    """A check on a network that other queries, another bound and another
    ``h_max`` have warmed gives the results of one on a cold network."""
    model = parse_model(text)
    cfg = StatConfig(seed=11, epsilon=0.2, delta_indiff=0.05, max_runs=40)
    named = [(None, query(t)) for t in checked]
    fine = RunConfig(h_max=0.05)
    cold = smc.check(model, named, cfg, fine)
    smc.check(model, [(None, query(t)) for t in warming],
              replace(cfg, seed=5), RunConfig(h_max=0.5))
    warm = smc.check(parse_model(text), named, cfg, fine)
    # the one network, compiled by the cold check: a constraint judges
    # the check's runs
    assert smc._compiled.cache_info().misses == 1
    assert [without_wall(r) for r in warm] == [without_wall(r) for r in cold]


def test_the_cache_frees_its_oldest_network():
    """Past ``maxsize`` models, the network of the model checked first is
    dropped, with the step tables its runs built."""
    models = [parse_model(COIN.replace("weight 3", f"weight {w}"))
              for w in range(1, smc._compiled.cache_parameters()["maxsize"]
                             + 2)]
    evaluate_query(models[0], query("Pr[<=5](<> heads == 1)"),
                   StatConfig(epsilon=0.3))
    oldest = weakref.ref(smc._compiled(models[0]))
    for m in models[1:]:
        smc._compiled(m)
    gc.collect()
    assert oldest() is None


# --- the online monitors against the trace judges -------------------------

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def reference_extremum(trace, key, mode):
    """The running extremum over a stored trace, as judged before the
    monitors."""
    pick = max if mode == "max" else min
    best = None
    for _, snap in trace.samples():
        v = float(snap[key])
        best = v if best is None else pick(best, v)
    return best


def reference_observer_failed(trace, inst):
    """The observer route over a stored trace that watches ``inst.fail``,
    as judged before the monitors."""
    return any(snap[f"{inst}.fail"] for _, snap in trace.samples())


def test_monitors_match_the_trace_judges_on_vehicle_runs():
    """The judges of a check's runs, against the trace judges on the same
    runs of a network that composes each constraint's observer: a
    constraint's replayed observer against the composed one's ``fail``."""
    model = parse_model((MODELS / "av.sta").read_text())
    named = parse_queries((MODELS / "requirements.q").read_text())
    formulas, constraints = [], []
    for nq in named:
        q = nq.query
        if isinstance(q, ObserverDecl):
            model = attach_observer(model, q.constraint, nq.name)
        elif isinstance(q, ConstraintQuery):
            constraints.append((q.constraint, f"{nq.name}Obs"))
        elif isinstance(q, (Estimate, Hypothesis)):
            formulas.append(q.formula)
        elif isinstance(q, Compare):
            formulas += [q.formula1, q.formula2]
    # formulas that decide both ways on these runs
    formulas += [query("Pr[<=1](<> wvl > 100)").formula,
                 query("Pr[<=1]([] wvl <= 100)").formula]
    extrema = [(mode, "energy.braking_en") for mode in ("max", "min")] + \
        [("max", "(wvl + wvr) / 2"), ("min", "wvl - wvr")]
    judges = ([smc._Sampled(f.op, to_text(f.state_expr)) for f in formulas]
              + [smc._Sampled(mode, to_text(parse_expression(e)))
                 for mode, e in extrema]
              + [smc._Traced(smc._routes, (c,)) for c, _ in constraints])
    bound, seed = 3000.0, 42
    net = CompiledNetwork(instantiate(model))
    composed = model
    for c, inst in constraints:
        composed = attach_observer(composed, c, inst)
    reference = CompiledNetwork(instantiate(composed))
    runs = smc._Runs(net, bound, seed, RunConfig(),
                     tuple((j, 30) for j in judges))
    watch = tuple(dict.fromkeys(
        [j.expr for j in judges if isinstance(j, smc._Sampled)]
        + [f"{inst}.fail" for _, inst in constraints]))
    seen = set()
    for i in range(30):
        outcomes = smc._run_one(runs, i, tuple(range(len(judges))))
        trace = run(reference, bound, RngStream(seed, i), watch=watch)
        want = [smc.evaluate_path_formula(trace, f, bound) for f in formulas]
        want += [reference_extremum(trace, to_text(parse_expression(e)), mode)
                 for mode, e in extrema]
        want += [(not reference_observer_failed(trace, inst),
                  check_trace(trace, c).wh_holds) for c, inst in constraints]
        assert list(outcomes) == want, f"run {i}"
        seen.update((k, x) for k, x in enumerate(want[:len(formulas)]))
    # every formula added above decided both ways
    assert all((k, x) in seen for k in range(len(formulas) - 2, len(formulas))
               for x in (True, False))


# --- the monitor kernels against the loop form ----------------------------


class LoopMonitor:
    """The monitor kernels' reference: the sampled judges of one run in
    loop form, which call every open formula's predicate and every
    extremum's function at each sample point. A path formula leaves its
    list at its first sample of the wanted truth: ``<>`` once true, ``[]``
    once false."""

    def __init__(self, out: list):
        self.out = out
        self.always = []  # [(place, predicate)] of [] formulas still true
        self.eventually = []  # [(place, predicate)] of <> formulas not yet
        self.extrema = []  # [(place, fn, is max)]

    def add(self, place, judge, net):
        [(_, fn)] = net.compile_watch((judge.expr,))
        if judge.op == "globally":
            self.always.append((place, fn))
            self.out[place] = True
        elif judge.op == "eventually":
            self.eventually.append((place, fn))
            self.out[place] = False
        else:
            self.extrema.append((place, fn, judge.op == "max"))

    def sampler(self):
        if self.always or self.eventually or self.extrema:
            return self.sample
        return None

    def sample(self, V, L):
        out = self.out
        for place, fn in self.always:
            if not fn(V, L):
                out[place] = False
                self.always = [e for e in self.always if e[0] != place]
        for place, fn in self.eventually:
            if fn(V, L):
                out[place] = True
                self.eventually = [e for e in self.eventually
                                   if e[0] != place]
        for place, fn, is_max in self.extrema:
            v = float(fn(V, L))
            best = out[place]
            if best is None or (v > best if is_max else v < best):
                out[place] = v


def sampled(*judges):
    """``_Sampled`` judges of ((op, expression text), ...)."""
    return [smc._Sampled(op, to_text(parse_expression(e))) for op, e in judges]


def test_monitor_kernels_match_the_loop_reference(monkeypatch):
    """Every sampled judge of the requirement suite, on its main network
    (the vehicle with the declared observer), plus formulas that decide
    both ways: the kernels' outcomes equal the loop form's on 100 runs,
    and every extremum, of an int expression too, is a float."""
    model = parse_model((MODELS / "av.sta").read_text())
    named = parse_queries((MODELS / "requirements.q").read_text())
    for nq in named:
        if isinstance(nq.query, ObserverDecl):
            model = attach_observer(model, nq.query.constraint, nq.name)
    net = CompiledNetwork(instantiate(model))
    judges = []
    for nq in named:
        if isinstance(nq.query, (Estimate, Hypothesis, Compare, Expected)):
            jobs, _ = smc._form(nq.query)
            judges += [job.judge
                       for job in jobs(net, nq.query, StatConfig())]
    assert len(judges) == 31
    # two formulas that decide both ways on these runs, and extrema
    judges += sampled(
        ("eventually", "wvl > 100"), ("globally", "wvl <= 100"),
        ("max", "energy.braking_en"), ("min", "energy.braking_en"),
        ("max", "wvl - wvr"), ("min", "wvl - wvr"), ("max", "mode"))
    n = 100
    runs = smc._Runs(net, 3000.0, 42, RunConfig(),
                     tuple((j, n) for j in judges))
    live = tuple(range(len(judges)))
    kernels = [smc._run_one(runs, i, live) for i in range(n)]
    monkeypatch.setattr(smc, "_Monitor", LoopMonitor)
    assert kernels == [smc._run_one(runs, i, live) for i in range(n)]
    for place in (31, 32):
        assert {outcomes[place] for outcomes in kernels} == {True, False}
    extrema = [place for place, judge in enumerate(judges)
               if judge.op in ("max", "min")]
    assert all(type(outcomes[place]) is float
               for outcomes in kernels for place in extrema)


def coin_monitor(*judges):
    """The coin network and a monitor of ``judges``, ((op, expression
    text), ...), at places 0, 1, ..."""
    net = CompiledNetwork(instantiate(coin_model()))
    monitor = smc._Monitor([None] * len(judges))
    for place, judge in enumerate(sampled(*judges)):
        monitor.add(place, judge, net)
    return net, monitor


def test_formulas_that_decide_at_the_initial_sample():
    """A ``<>`` formula true at the start and a ``[]`` formula false there
    decide at the first sample point. The kernel stays, and skips them by
    their outcomes: a state where both predicates flip changes neither,
    while the extremum goes on."""
    net, monitor = coin_monitor(("eventually", "done == 0"),
                                ("globally", "done == 1"), ("max", "x"))
    sample = monitor.sampler()
    kernel = monitor.kernel
    assert monitor.out == [False, True, None]
    assert not monitor.decided()
    V, L = net.initial_state()
    sample(V, L)
    assert monitor.out == [True, False, 0.0]
    assert monitor.decided()
    V[net.slots["done"]], V[net.slots["x"]] = 1, 2.5
    sample(V, L)
    assert monitor.out == [True, False, 2.5]
    assert monitor.kernel is kernel


@pytest.mark.parametrize("extremum", [(), (("min", "x"),)])
@pytest.mark.parametrize("formulas", [
    (("eventually", "done == 1"), ("globally", "x <= 0.5")),
    (("eventually", "done == 1"),), (("globally", "x <= 0.5"),)])
def test_a_run_in_which_every_formula_decides(formulas, extremum):
    """Every formula decides before the bound, and the run keeps the one
    kernel of its judges: none is compiled while it runs."""
    net, monitor = coin_monitor(*formulas, *extremum)
    sample = monitor.sampler()
    assert not monitor.decided()
    compiled = engine._NAMED["monitor"]
    run(net, 5, RngStream(3, 0), monitor=sample)
    assert engine._NAMED["monitor"] == compiled
    assert monitor.out[:len(formulas)] == [op == "eventually"
                                           for op, _ in formulas]
    assert monitor.decided()
    assert monitor.kernel is smc._monitor_kernel(
        monitor.always, monitor.eventually, monitor.extrema)
    assert len(monitor.extrema) == len(extremum)


def test_a_monitor_of_extrema_alone():
    """Extrema of a clock, an int and a bool: each a float, and each the
    maximum or minimum over the sample points of a trace that watches
    it."""
    judges = (("max", "x"), ("min", "x"), ("max", "heads"),
              ("min", "heads + 2 * done"), ("max", "done == 1"),
              ("min", "done == 0"))
    keys = [to_text(parse_expression(e)) for _, e in judges]
    for i in range(20):
        net, monitor = coin_monitor(*judges)
        run(net, 5, RngStream(11, i), monitor=monitor.sampler())
        trace = run(net, 5, RngStream(11, i), watch=keys)
        assert monitor.out == [reference_extremum(trace, key, mode)
                               for (mode, _), key in zip(judges, keys)]
        assert all(type(v) is float for v in monitor.out)


def test_a_second_check_compiles_no_monitor_kernel():
    """A check of the same queries on a newly compiled network of the same
    model finds every monitor kernel its runs need."""
    queries = [(None, query(text)) for text in (
        "Pr[<=5](<> heads == 1)", "Pr[<=5]([] x <= 3) >= 0.5",
        "E[<=5; 20](min: x)")]
    smc._monitor_kernel.cache_clear()
    before = engine._NAMED["monitor"]
    first = smc.check(coin_model(), queries, StatConfig(seed=3))
    compiled = engine._NAMED["monitor"]
    assert compiled > before
    smc._compiled.cache_clear()
    second = smc.check(coin_model(), queries, StatConfig(seed=3))
    assert engine._NAMED["monitor"] == compiled
    for a, b in zip(first, second):
        a.wall_ms = b.wall_ms = 0.0
    assert first == second


def test_forked_workers_compile_no_monitor_kernel(pools, monkeypatch,
                                                  tmp_path):
    """A run keeps one monitor kernel however its formulas decide, and a
    forked pool's workers find the kernel of each stream's opening judges
    built before the fork: while the live jobs stay the same, as in a
    check of estimates alone, no worker compiles one. The ``[]`` formula
    fails in every run, the ``<>`` one in some."""
    compiled = tmp_path / "compiled"
    kernel = smc._kernel

    def titled(title, *args, **kw):
        with open(compiled, "a") as fh:
            fh.write(f"{os.getpid()} {title}\n")
        return kernel(title, *args, **kw)

    monkeypatch.setattr(smc, "_kernel", titled)
    monkeypatch.setattr(smc, "_monitor_kernel", functools.cache(
        smc._monitor_kernel.__wrapped__))
    monkeypatch.setattr(smc, "get_context", lambda: get_context("fork"))
    cfg = StatConfig(seed=3, epsilon=0.2)
    # every job reads the same runs
    n = chernoff_runs(cfg.alpha, cfg.epsilon)
    queries = [(None, query(text)) for text in (
        "Pr[<=5](<> heads == 1)", "Pr[<=5]([] x <= 3)",
        f"E[<=5; {n}](max: x)")]
    pooled = smc.check(coin_model(), queries, replace(cfg, workers=2))
    [pool] = pools
    assert len(pool.chunks) > 4
    # the one kernel of every run, built in this process before the fork
    assert compiled.read_text().split() == [str(os.getpid()), "monitor"]
    inline = smc.check(coin_model(), queries, cfg)
    assert [without_wall(r) for r in pooled] == \
        [without_wall(r) for r in inline]
    assert [r.p_hat for r in inline[:2]] == [pytest.approx(0.3, abs=0.2), 0.0]


def test_a_model_hashes_its_structure_once(monkeypatch):
    """``_compiled`` keys networks by the model's structure: an equal,
    re-parsed model finds the network, and each model object walks its
    structure for a hash once; a pickled copy, hashed in another process,
    carries no hash."""
    walked = []
    template_hash = Template.__hash__
    monkeypatch.setattr(Template, "__hash__",
                        lambda self: walked.append(self.name)
                        or template_hash(self))
    model = parse_model(AV_TEXT)
    net = smc._compiled(model)
    assert len(walked) == len(model.templates)
    for _ in range(3):
        assert smc._compiled(model) is net
    again = parse_model(AV_TEXT)
    assert smc._compiled(again) is net
    assert len(walked) == 2 * len(model.templates)
    assert hash(again) == hash(model)
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model and "_hash" not in vars(copy)
