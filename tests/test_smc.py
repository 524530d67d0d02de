import math
from concurrent.futures import wait
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from stamc import smc
from stamc.engine import RunConfig
from stamc.parser import parse_model, parse_queries
from stamc.queries import eventually, globally
from stamc.smc import (Sprt, StatConfig, chernoff_runs, clopper_pearson,
                       evaluate_query)

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


def heads_formula():
    return eventually(parse_queries("Pr[<=5](<> heads == 1)")[0]
                      .query.formula.state_expr)


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
    res = smc.estimate_probability(coin_model(), heads_formula(), 5.0, cfg)
    assert res.verdict == "estimate-only"
    assert res.runs == 738
    assert abs(res.p_hat - 0.3) < 0.05
    assert res.ci[0] < 0.3 < res.ci[1]


def test_estimate_capped_is_undecided():
    cfg = StatConfig(seed=7, epsilon=0.05, max_runs=50)
    res = smc.estimate_probability(coin_model(), heads_formula(), 5.0, cfg)
    assert res.verdict == "undecided"
    assert res.runs == 50


def test_hypothesis_clear_accept_and_reject():
    cfg = StatConfig(seed=7)
    res = smc.hypothesis_test(coin_model(), heads_formula(), 5.0, 0.1, cfg)
    assert res.verdict == "valid"
    res = smc.hypothesis_test(coin_model(), heads_formula(), 5.0, 0.6, cfg)
    assert res.verdict == "invalid"


def test_globally_formula_detects_violation():
    cfg = StatConfig(seed=7)
    f = globally(parse_queries("Pr[<=5]([] done == 0)")[0]
                 .query.formula.state_expr)
    res = smc.hypothesis_test(coin_model(), f, 5.0, 0.5, cfg)
    assert res.verdict == "invalid"  # done flips to 1 in every run


def test_compare_identical_formulas_is_valid():
    cfg = StatConfig(seed=7)
    f = heads_formula()
    res = smc.compare_probabilities(coin_model(), f, 5.0, f, 5.0, cfg)
    assert res.verdict == "valid"


def test_compare_detects_strict_ordering():
    cfg = StatConfig(seed=7)
    f_all = eventually(parse_queries("Pr[<=5](<> done == 1)")[0]
                       .query.formula.state_expr)
    res = smc.compare_probabilities(coin_model(), f_all, 5.0,
                                    heads_formula(), 5.0, cfg)
    assert res.verdict == "valid"
    res = smc.compare_probabilities(coin_model(), heads_formula(), 5.0,
                                    f_all, 5.0, cfg)
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
    res = smc.expected_value(parse_model(RAMP), "e", 20.0, 30, "max", cfg)
    assert res.p_hat == pytest.approx(20.0)  # rate 2 for 10 time units
    assert res.verdict == "estimate-only"
    edges, counts = res.histogram
    assert sum(counts) == 30
    assert len(counts) == 20


def test_expected_value_needs_two_runs():
    with pytest.raises(smc.QueryError):
        smc.expected_value(parse_model(RAMP), "e", 20.0, 1, "max",
                           StatConfig())


def test_simulate_grid_and_events():
    cfg = StatConfig(seed=3)
    rows_per_run = smc.simulate(parse_model(RAMP), 2, 10.0, ["e"], cfg,
                                sample_step=1.0)
    assert len(rows_per_run) == 2
    times = [r[0] for r in rows_per_run[0]]
    assert times == sorted(times)
    for g in range(11):
        assert any(t == pytest.approx(g) for t in times)
    csv = smc.trajectories_to_csv(rows_per_run, ["e"])
    assert csv.splitlines()[0] == "run,t,e"


def test_histogram_csv_format():
    text = smc.histogram_to_csv(([0.0, 1.0, 2.0], [3, 4]))
    lines = text.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 3


def test_worker_pool_matches_inline():
    f = heads_formula()
    res1 = smc.estimate_probability(
        coin_model(), f, 5.0, StatConfig(seed=7, epsilon=0.2, workers=1))
    res2 = smc.estimate_probability(
        coin_model(), f, 5.0, StatConfig(seed=7, epsilon=0.2, workers=2))
    assert res1.p_hat == res2.p_hat
    assert res1.runs == res2.runs


def test_evaluate_query_dispatch():
    cfg = StatConfig(seed=7, epsilon=0.2)
    for text, verdict in [
        ("Pr[<=5](<> heads == 1)", "estimate-only"),
        ("Pr[<=5](<> heads == 1) >= 0.1", "valid"),
    ]:
        q = parse_queries(text)[0].query
        assert evaluate_query(coin_model(), q, cfg).verdict == verdict


def test_stat_config_validation():
    with pytest.raises(Exception):
        StatConfig(alpha=0)
    with pytest.raises(Exception):
        StatConfig(epsilon=1.5)
    for workers in (0, -3):
        with pytest.raises(smc.QueryError, match=r"need workers >= 1"):
            StatConfig(workers=workers)


def without_wall(result):
    if isinstance(result, smc.ConstraintResult):
        return replace(result, observer=without_wall(result.observer))
    return replace(result, wall_ms=0.0)


def test_library_calls_match_inline_at_two_workers(pools, task_text):
    coin, task = coin_model(), parse_model(task_text)
    f = heads_formula()
    f_done = eventually(parse_queries("Pr[<=5](<> done == 1)")[0]
                        .query.formula.state_expr)
    cq = parse_queries(
        "constraint execution(m=3, k=4, bound=50, lower=1, upper=5) "
        "on start=start, stop=stop;")[0].query
    calls = [
        lambda cfg: smc.hypothesis_test(coin, f, 5.0, 0.25, cfg),
        lambda cfg: smc.compare_probabilities(coin, f, 5.0, f_done, 5.0,
                                              cfg),
        lambda cfg: smc.check_constraint(task, cq, cfg, name="K"),
    ]
    for call in calls:
        inline = call(StatConfig(seed=7, delta_indiff=0.05, workers=1))
        pooled = call(StatConfig(seed=7, delta_indiff=0.05, workers=2))
        assert without_wall(pooled) == without_wall(inline)
    # one pool per call, shared by compare's two streams, and closed
    assert len(pools) == len(calls)
    assert all(pool.shut_down for pool in pools)
    assert all(pool.chunks for pool in pools)


@pytest.mark.parametrize("workers", [2, 3])
def test_sprt_dispatches_at_most_the_look_ahead(pools, workers):
    res = smc.hypothesis_test(coin_model(), heads_formula(), 5.0, 0.25,
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
    f = heads_formula()
    with smc.RunPool(2) as pool:
        smc.hypothesis_test(coin_model(), f, 5.0, 0.25, cfg, pool=pool)
        [executor] = pools
        futures = list(executor.futures)
        # each chunk is done, cancelled or already with a worker: none is
        # left queued to run ahead of the next query's chunks
        assert all(fut.done() or fut.running() for fut in futures)
        done, not_done = wait(futures, timeout=60)
        assert not not_done
        second = smc.estimate_probability(coin_model(), f, 5.0, cfg,
                                          pool=pool)
    inline = smc.estimate_probability(coin_model(), f, 5.0,
                                      replace(cfg, workers=1))
    assert without_wall(second) == without_wall(inline)
