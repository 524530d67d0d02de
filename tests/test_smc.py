import gc
import math
import os
import pathlib
import weakref
from concurrent.futures import wait
from multiprocessing import get_context
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from stamc import smc
from stamc.engine import CompiledNetwork, RngStream, RunConfig, run
from stamc.expr import ExprError, to_text
from stamc.model import instantiate
from stamc.monitors import attach_observer, check_trace
from stamc.parser import parse_expression, parse_model, parse_queries
from stamc.queries import (Compare, ConstraintQuery, Estimate, Expected,
                           Hypothesis, ObserverDecl)
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
        # the constraint's observed network and the plain one: two models
        (parse_model(task_text), [
            "constraint execution(m=3, k=4, bound=50, lower=1, upper=5) "
            "on start=start, stop=stop;", "E[<=50; 10](max: n)"]),
    ]
    cfg = StatConfig(seed=7, delta_indiff=0.05, epsilon=0.2)
    inline = [smc.check(model, [(None, query(t)) for t in texts], cfg)
              for model, texts in checks]

    class Forkserver(smc.ProcessPoolExecutor):  # the pools fixture's
        def __init__(self, *args, **kwargs):
            super().__init__(*args, mp_context=get_context("forkserver"),
                             **kwargs)

    monkeypatch.setattr(smc, "ProcessPoolExecutor", Forkserver)
    pooled = [smc.check(model, [(None, query(t)) for t in texts],
                        replace(cfg, workers=2)) for model, texts in checks]
    assert [[without_wall(r) for r in rs] for rs in pooled] == \
        [[without_wall(r) for r in rs] for rs in inline]
    assert len(pools) == len(checks)
    assert all(pool.shut_down for pool in pools)
    for pool in pools:
        assert pool._mp_context.get_start_method() == "forkserver"
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

    class Fork(smc.ProcessPoolExecutor):  # the pools fixture's
        def __init__(self, *args, **kwargs):
            super().__init__(*args, mp_context=get_context("fork"), **kwargs)

    monkeypatch.setattr(smc, "ProcessPoolExecutor", Fork)
    pooled = smc.check(model, queries, replace(cfg, workers=2))
    assert [without_wall(r) for r in pooled] == \
        [without_wall(r) for r in inline]
    [pool] = pools
    assert pool.chunks
    # the plain network and the constraint's observed one, once: the
    # second check reuses both
    assert compiled.read_text().split() == [str(os.getpid())] * 2


# --- the compiled-network cache --------------------------------------------

AV_TEXT = (pathlib.Path(__file__).resolve().parent.parent
           / "models" / "av.sta").read_text()
CAM = "on start=cam_start, stop=cam_done"


def test_a_model_is_compiled_once_per_process(compiles, task_text):
    """Library calls on one model, or on an equal re-parsed one, share one
    compiled network; so do a constraint's observed models, which each
    check builds again."""
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
    # the task network and its observed network
    assert len(compiles) == 3


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
    # unnamed, so both constraints observe through one observed model
    named = [(None, query(t)) for t in checked]
    fine = RunConfig(h_max=0.05)
    cold = smc.check(model, named, cfg, fine)
    smc.check(model, [(None, query(t)) for t in warming],
              replace(cfg, seed=5), RunConfig(h_max=0.5))
    warm = smc.check(parse_model(text), named, cfg, fine)
    # every network was compiled by the cold check
    assert smc._compiled.cache_info().misses == \
        1 + any("constraint" in t for t in checked)
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
    model = parse_model((MODELS / "av.sta").read_text())
    named = parse_queries((MODELS / "requirements.q").read_text())
    formulas, constraints = [], []
    for nq in named:
        q = nq.query
        if isinstance(q, ObserverDecl):
            model = attach_observer(model, q.constraint, nq.name)
        elif isinstance(q, ConstraintQuery):
            model = attach_observer(model, q.constraint, f"_obs_{nq.name}")
            constraints.append((q.constraint, f"_obs_{nq.name}"))
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
              + [smc._Traced(smc._routes, (c, inst))
                 for c, inst in constraints])
    bound, seed = 3000.0, 42
    net = CompiledNetwork(instantiate(model))
    runs = smc._Runs(net, bound, seed, RunConfig(),
                     tuple((j, 30) for j in judges))
    watch = tuple(dict.fromkeys(
        [j.expr for j in judges if isinstance(j, smc._Sampled)]
        + [f"{inst}.fail" for _, inst in constraints]))
    seen = set()
    for i in range(30):
        outcomes = smc._run_one(runs, i, tuple(range(len(judges))))
        trace = run(net, bound, RngStream(seed, i), watch=watch)
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
