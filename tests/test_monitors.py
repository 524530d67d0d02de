import math

import pytest

from stamc import expr as E
from stamc import monitors as M
from stamc.engine import RngStream, RunConfig, Trace, TraceEvent, run
from stamc.model import instantiate
from stamc.parser import parse_model, parse_queries
from stamc.smc import StatConfig, evaluate_query


def ev(t, channel):
    return TraceEvent(t, "X", "a->b#0", channel, {}, {})


def trace(events, end=100.0):
    return Trace({}, list(events), end, "bound_reached", {})


def wh(kind, m, k, names, **kw):
    return M.WhConstraint(kind, m, k, tuple(names), **kw)


# --- wh_judge --------------------------------------------------------------


def rec(*passed):
    return [M.OccurrenceRecord(i, 0.0, p) for i, p in enumerate(passed)]


def test_wh_judge_all_pass():
    assert M.wh_judge(rec(*[True] * 10), 3, 4) == (True, None)


def test_wh_judge_window_violation_located():
    # window starting at index 2 holds only 1 pass out of 3 with m=2
    records = rec(True, True, False, False, True, True)
    holds, first = M.wh_judge(records, 2, 3)
    assert not holds
    assert first == 1  # first window with < 2 passes is records[1:4]


def test_wh_judge_exact_threshold():
    assert M.wh_judge(rec(True, False, True, False), 2, 4)[0]
    assert not M.wh_judge(rec(True, False, False, False), 2, 4)[0]


def test_wh_judge_short_window_proportional():
    # 2 records against m=19, k=20: need ceil(19*2/20) = 2 passes
    assert M.wh_judge(rec(True, True), 19, 20)[0]
    assert not M.wh_judge(rec(True, False), 19, 20)[0]


def test_wh_judge_short_window_vacuous():
    assert M.wh_judge([], 19, 20)[0]


def test_wh_judge_ignores_incomplete_records():
    records = rec(True, True) + [M.OccurrenceRecord(2, math.nan, False,
                                                    incomplete=True)]
    assert M.wh_judge(records, 19, 20)[0]


def test_wh_judge_bad_parameters():
    with pytest.raises(M.MonitorError):
        M.wh_judge([], 5, 4)
    # a window of 2.5 records would fail only once 3 records are judged
    for m, k in ((1, 2.5), (1.0, 2), (1.5, 2.5)):
        with pytest.raises(M.MonitorError, match="need integers m and k"):
            M.wh_judge(rec(True, True, True), m, k)


# --- oracles ---------------------------------------------------------------


def test_execution_durations():
    c = wh("execution", 1, 1, [("start", "s"), ("stop", "e")],
           lower=2, upper=5)
    t = trace([ev(0, "s"), ev(3, "e"), ev(10, "s"), ev(17, "e")])
    records = M.measure_execution(t, c)
    assert [r.quantity for r in records] == [3, 7]
    assert [r.passed for r in records] == [True, False]


def test_execution_preemption_subtracted():
    c = wh("execution", 1, 1, [("start", "s"), ("stop", "e"),
                               ("preempt", "p"), ("resume", "r")],
           lower=0, upper=4)
    t = trace([ev(0, "s"), ev(1, "p"), ev(5, "r"), ev(7, "e")])
    [record] = M.measure_execution(t, c)
    assert record.quantity == 3  # 7 elapsed minus 4 preempted
    assert record.passed


def test_execution_malformed():
    c = wh("execution", 1, 1, [("start", "s"), ("stop", "e")])
    with pytest.raises(M.MalformedTrace):
        M.measure_execution(trace([ev(0, "s"), ev(1, "s")]), c)
    with pytest.raises(M.MalformedTrace):
        M.measure_execution(trace([ev(0, "e")]), c)


def test_synchronization_spread():
    c = wh("synchronization", 1, 1, [("e1", "a"), ("e2", "b"), ("e3", "c")],
           tolerance=1.0)
    t = trace([ev(0, "a"), ev(0.5, "b"), ev(0.8, "c"),
               ev(10, "a"), ev(12, "b"), ev(10.1, "c")])
    records = M.measure_synchronization(t, c)
    assert [r.passed for r in records] == [True, False]
    assert records[1].quantity == pytest.approx(2)


def test_synchronization_trailing_incomplete():
    c = wh("synchronization", 1, 1, [("e1", "a"), ("e2", "b")], tolerance=1)
    t = trace([ev(0, "a"), ev(0.5, "b"), ev(10, "a")])
    records = M.measure_synchronization(t, c)
    assert len(records) == 2
    assert records[1].incomplete


def test_periodic_gaps_with_jitter():
    c = wh("periodic", 1, 1, [("occurrence", "tick")],
           lower=10, upper=10, jitter=2)
    t = trace([ev(0, "tick"), ev(9, "tick"), ev(21, "tick"), ev(36, "tick")])
    records = M.measure_periodic(t, c)
    assert [r.quantity for r in records] == [9, 12, 15]
    assert [r.passed for r in records] == [True, True, False]


def test_end_to_end_latency():
    c = wh("endtoend", 1, 1, [("source", "s"), ("target", "t")],
           lower=1, upper=4)
    t = trace([ev(0, "s"), ev(2, "t"), ev(10, "s"), ev(16, "t"), ev(20, "s")])
    records = M.measure_end_to_end(t, c)
    assert [r.passed for r in records] == [True, False, False]
    assert records[2].incomplete


def test_end_to_end_malformed():
    c = wh("endtoend", 1, 1, [("source", "s"), ("target", "t")])
    with pytest.raises(M.MalformedTrace):
        M.measure_end_to_end(trace([ev(5, "s"), ev(2, "t")]), c)


def test_check_trace_combines_measure_and_judge():
    c = wh("periodic", 1, 2, [("occurrence", "tick")], lower=10, upper=10)
    t = trace([ev(0, "tick"), ev(10, "tick"), ev(25, "tick"), ev(35, "tick")])
    v = M.check_trace(t, c)
    assert v.wh_holds  # every 2-window has >= 1 in-band gap
    assert [r.passed for r in v.records] == [True, False, True]


def test_constraint_validation():
    with pytest.raises(M.MonitorError, match="need 1 <= m <= k"):
        M.WhConstraint("execution", 0, 4)
    with pytest.raises(M.MonitorError, match="unknown constraint kind"):
        M.WhConstraint("nope", 1, 1)
    with pytest.raises(M.MonitorError, match="need lower <= upper"):
        M.WhConstraint("execution", 1, 1, lower=5, upper=2)
    with pytest.raises(M.MonitorError, match="event 'stop' not bound"):
        wh("execution", 1, 1, [("start", "s")])
    with pytest.raises(M.MonitorError, match="event 'resume' not bound"):
        wh("execution", 1, 1, [("start", "s"), ("stop", "e"),
                               ("preempt", "p")])
    with pytest.raises(M.MonitorError, match="event 'source' not bound"):
        wh("endtoend", 1, 1, [("src", "s"), ("target", "t")])
    with pytest.raises(M.MonitorError, match="needs >= 2 events"):
        wh("synchronization", 1, 1, [("e1", "a")])
    with pytest.raises(M.MonitorError, match="bound twice"):
        wh("synchronization", 1, 1, [("e1", "a"), ("e1", "b")])
    # m / k = 0.6 would be tested at p0 = 0.6 on nonsense windows
    for m, k in ((1.5, 2.5), (1, 2.0), (2.0, 3)):
        with pytest.raises(M.MonitorError, match="need integers m and k"):
            wh("periodic", m, k, [("occurrence", "tick")], lower=1, upper=2)


@pytest.mark.parametrize("field,value", [
    ("lower", math.inf), ("lower", -math.inf), ("lower", math.nan),
    ("tolerance", math.inf), ("tolerance", math.nan),
    ("jitter", math.inf), ("jitter", math.nan),
    ("upper", math.nan),
])
def test_a_constraint_rejects_a_bound_that_is_not_a_finite_number(field,
                                                                   value):
    """What the parser rejects, a library caller cannot pass either; only
    ``upper`` may be infinite, which means no upper bound."""
    pair = [("e1", "a"), ("e2", "b")]
    with pytest.raises(M.MonitorError, match=f"^{field} must be"):
        wh("synchronization", 1, 1, pair, **{field: value})
    c = wh("synchronization", 1, 1, pair, upper=math.inf)
    assert c.upper == math.inf


# --- observers against a live network --------------------------------------

DRIVER = """
clock p;
clock w;
broadcast chan start;
broadcast chan stop;

template Task() {
  init loc idle { inv p <= 12; }
  loc work { inv w <= 6; }
  idle -> work { guard p >= 8; sync start!; update p := 0, w := 0; }
  work -> idle { guard w >= 1; sync stop!; }
}

system Task;
"""


def observed_runs(model_text, c, n, bound=200.0, seed=5):
    model = parse_model(model_text)
    obs = M.attach_observer(model, c, "Obs")
    out = []
    for i in range(n):
        tr = run(instantiate(obs), bound, RngStream(seed, i),
                 watch=["Obs.fail"])
        # no edge leaves fail, so the final location says whether the run
        # reached it; the snapshots and the replay say the same
        failed = tr.locations["Obs"] == "fail"
        assert failed == any(snap["Obs.fail"] for _, snap in tr.samples())
        assert failed == M.observer_failed(tr, c)
        out.append((failed, M.check_trace(tr, c)))
    return out


@pytest.mark.parametrize("c", [
    wh("execution", 1, 1, [("start", "a"), ("stop", "b"), ("preempt", "c"),
                           ("resume", "d")]),
    wh("synchronization", 1, 1, [("e1", "a"), ("e2", "b")]),
    wh("periodic", 1, 1, [("occurrence", "a")]),
    wh("endtoend", 1, 1, [("source", "a"), ("target", "b")]),
], ids=["execution", "synchronization", "periodic", "endtoend"])
def test_no_observer_edge_leaves_fail(c):
    """No edge leaves `fail`, and the observer takes no step of its own:
    it has no committed location, and every edge receives."""
    tpl = M.build_observer(c)
    assert any(loc.id == "fail" for loc in tpl.locations)
    assert all(edge.source != "fail" for edge in tpl.edges)
    assert all(loc.kind != "committed" for loc in tpl.locations)
    assert all(edge.sync is not None and edge.sync.direction == "receive"
               for edge in tpl.edges)


@pytest.mark.parametrize("c", [
    wh("execution", 1, 1, [("start", "start"), ("stop", "stop")],
       lower=1, upper=5.7),
    wh("periodic", 1, 1, [("occurrence", "start")],
       lower=9, upper=11, jitter=0.7),
    wh("endtoend", 1, 1, [("source", "start"), ("target", "stop")],
       lower=0, upper=5.7),
])
def test_observer_agrees_with_record_oracle(c):
    results = observed_runs(DRIVER, c, 40, bound=100.0)
    failing = sum(1 for fail, _ in results if fail)
    assert 0 < failing < len(results)  # both outcomes exercised
    for fail, verdict in results:
        oracle_any_fail = any(not r.passed for r in verdict.records
                              if not r.incomplete)
        assert fail == oracle_any_fail


@pytest.mark.parametrize("form", [
    "execution(m=1, k=1, bound=50, lower=3) on start=start, stop=stop",
    "periodic(m=1, k=1, bound=50, lower=1) on occurrence=start",
    "endtoend(m=1, k=1, bound=50, lower=1) on source=start, target=stop",
], ids=["execution", "periodic", "endtoend"])
def test_a_constraint_without_upper_is_judged(task_text, form):
    """``upper`` defaults to inf, which the observer's guards compare
    clocks with."""
    q = parse_queries(f"constraint {form};")[0].query
    assert q.constraint.upper == math.inf
    res = evaluate_query(parse_model(task_text), q,
                         StatConfig(seed=7, epsilon=0.2))
    assert res.verdict in ("valid", "invalid")
    assert res.details["oracle_verdict"] == res.verdict
    for fail, verdict in observed_runs(task_text, q.constraint, 20,
                                       bound=50.0):
        assert fail == any(not r.passed for r in verdict.records
                           if not r.incomplete)


@pytest.mark.parametrize("upper", ["", ", upper=5"],
                         ids=["no-upper", "upper"])
@pytest.mark.parametrize("form", [
    "execution(m=1, k=1, lower=1{}) on start=a, stop=b",
    "execution(m=1, k=1, lower=1{}) on start=a, stop=b, preempt=c, resume=d",
    "synchronization(m=1, k=1, tolerance=2{}) on e1=a, e2=b, e3=c",
    "periodic(m=1, k=1, lower=1, jitter=0.5{}) on occurrence=a",
    "periodic(m=1, k=1{}) on occurrence=a",
    "endtoend(m=1, k=1, lower=1{}) on source=a, target=b",
], ids=["execution", "preemptive", "synchronization", "periodic",
        "periodic-no-lower", "endtoend"])
def test_no_observer_holds_a_non_finite_number(form, upper):
    """A bound that is not given is infinite, and a comparison with it is
    left out of the observer's guards, so they print as text."""
    c = parse_queries(f"constraint {form.format(upper)};")[0].query.constraint
    tpl = M.build_observer(c)
    exprs = [e.guard for e in tpl.edges if e.guard is not None]
    exprs += [v for e in tpl.edges for _, v in e.updates]
    exprs += [r for loc in tpl.locations for _, r in loc.rates]
    nums = [n.value for e in exprs for n in E.walk(e) if isinstance(n, E.Num)]
    assert nums and all(math.isfinite(v) for v in nums)
    assert all(E.to_text(e) for e in exprs)


SYNC_DRIVER = """
clock p;
clock d1;
clock d2;
broadcast chan kick;
broadcast chan a;
broadcast chan b;

template Kick() {
  init loc idle { inv p <= 10; }
  committed loc go;
  idle -> go { guard p >= 10; sync kick!; update p := 0; }
  go -> idle { }
}

template EmitA() {
  init loc w;
  loc armed { inv d1 <= 2; }
  w -> armed { sync kick?; update d1 := 0; }
  armed -> w { sync a!; }
}

template EmitB() {
  init loc w;
  loc armed { inv d2 <= 2; }
  w -> armed { sync kick?; update d2 := 0; }
  armed -> w { sync b!; }
}

system Kick, EmitA, EmitB;
"""


def test_sync_observer_agrees_with_record_oracle():
    c = wh("synchronization", 1, 1, [("e1", "a"), ("e2", "b")],
           tolerance=1.7)
    results = observed_runs(SYNC_DRIVER, c, 40, bound=100.0)
    failing = sum(1 for fail, _ in results if fail)
    assert 0 < failing < len(results)
    for fail, verdict in results:
        oracle_any_fail = any(not r.passed for r in verdict.records
                              if not r.incomplete)
        assert fail == oracle_any_fail


def test_attach_observer_rejects_unknown_channel():
    model = parse_model(DRIVER)
    c = wh("endtoend", 1, 1, [("source", "ghost"), ("target", "stop")])
    with pytest.raises(M.MonitorError, match="ghost"):
        M.attach_observer(model, c, "Obs")


def test_attach_observer_rejects_binary_channel():
    model = parse_model("""
chan go;
template T() { init loc a; a -> a { sync go!; } }
system T;
""")
    c = wh("periodic", 1, 1, [("occurrence", "go")], lower=1, upper=2)
    with pytest.raises(M.MonitorError, match="broadcast"):
        M.attach_observer(model, c, "Obs")


def test_attach_observer_rejects_a_taken_instance_name():
    model = parse_model(DRIVER)
    c = wh("periodic", 1, 1, [("occurrence", "start")], lower=1, upper=2)
    with pytest.raises(M.MonitorError, match="'Task': the instance name"):
        M.attach_observer(model, c, "Task")


def test_attach_observer_rejects_a_taken_template_name():
    """The observer Obs would be an instance of the template ObsT."""
    model = parse_model(DRIVER.replace("Task", "ObsT"))
    c = wh("periodic", 1, 1, [("occurrence", "start")], lower=1, upper=2)
    with pytest.raises(M.MonitorError, match="template name 'ObsT'"):
        M.attach_observer(model, c, "Obs")


def test_observer_is_pure_listener():
    """Attaching an observer must not change the underlying behavior."""
    c = wh("execution", 1, 1, [("start", "start"), ("stop", "stop")],
           lower=1, upper=4)
    model = parse_model(DRIVER)
    obs = M.attach_observer(model, c, "Obs")
    for i in range(10):
        plain = run(instantiate(model), 100.0, RngStream(9, i))
        with_obs = run(instantiate(obs), 100.0, RngStream(9, i))
        assert [(e.time, e.component, e.edge, e.channel)
                for e in with_obs.events] == \
               [(e.time, e.component, e.edge, e.channel)
                for e in plain.events]


SAME_INSTANT = """
clock x;
broadcast chan start;
broadcast chan stop;

template Chain() {
  init committed loc a;
  committed loc b;
  committed loc c;
  loc d { inv x <= 10; }
  loc e;
  a -> b { sync start!; }
  b -> c { sync stop!; }
  c -> d { sync start!; update x := 0; }
  d -> e { guard x >= 10; sync stop!; }
}

system Chain;
"""


def test_observer_receives_an_event_at_the_instant_it_judges():
    """A committed chain emits start, stop and start at t = 0, then stop
    at t = 10, out of band: the observer receives each event, so it fails
    the run as the oracle does."""
    c = wh("execution", 1, 1, [("start", "start"), ("stop", "stop")],
           lower=0, upper=5)
    (failed, verdict), = observed_runs(SAME_INSTANT, c, 1, bound=20.0)
    assert [r.quantity for r in verdict.records] == [0.0, 10.0]
    assert not verdict.wh_holds
    assert failed
