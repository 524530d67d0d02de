import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from stamc import engine, monitors
from stamc import expr as E
from stamc.engine import EngineError, RngStream, RunConfig, run
from stamc.model import instantiate, validate_model
from stamc.parser import parse_model, parse_queries

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def net(text):
    return instantiate(parse_model(text))


def runs(text, bound, n, watch=(), seed=0, **cfg):
    network = net(text)
    config = RunConfig(**cfg) if cfg else RunConfig()
    return [run(network, bound, RngStream(seed, i), watch=list(watch),
                config=config) for i in range(n)]


def test_rng_streams_are_independent_and_stable():
    a = RngStream(1, 0)
    b = RngStream(1, 0)
    c = RngStream(1, 1)
    xs = [a.uniform(0, 1) for _ in range(5)]
    assert xs == [b.uniform(0, 1) for _ in range(5)]
    assert xs != [c.uniform(0, 1) for _ in range(5)]


def test_weighted_choice_frequencies():
    rng = RngStream(3, 0)
    picks = [rng.weighted_choice([3, 1]) for _ in range(4000)]
    assert abs(picks.count(0) / 4000 - 0.75) < 0.03


def test_deterministic_replay():
    text = """
clock x;
template T() {
  init loc a { inv x <= 5; }
  a -> a { guard x >= 1; update x := 0; }
}
system T;
"""
    t1, t2 = runs(text, 50, 1)[0], runs(text, 50, 1)[0]
    assert [(e.time, e.edge) for e in t1.events] == \
           [(e.time, e.edge) for e in t2.events]


def test_bounded_sojourn_uniform_window():
    """Guard x >= 2 with invariant x <= 5: every sojourn lands in [2, 5]."""
    text = """
clock x;
template T() {
  init loc a { inv x <= 5; }
  a -> a { guard x >= 2; update x := 0; }
}
system T;
"""
    gaps = []
    for tr in runs(text, 200, 5):
        times = [e.time for e in tr.events]
        gaps += [b - a for a, b in zip([0.0] + times, times)]
    assert all(2 - 1e-9 <= g <= 5 + 1e-9 for g in gaps)
    assert np.std(gaps) > 0.3  # actually random, not stuck at an endpoint


def test_unbounded_sojourn_exponential_shift():
    """No invariant: delay is the enabling instant plus an exponential."""
    text = """
clock x;
template T() {
  init loc a { exitrate 2; }
  a -> a { guard x >= 1; update x := 0; }
}
system T;
"""
    gaps = []
    for tr in runs(text, 400, 3, seed=11):
        times = [e.time for e in tr.events]
        gaps += [b - a for a, b in zip([0.0] + times, times)]
    assert all(g >= 1 - 1e-9 for g in gaps)
    shifted = [g - 1 for g in gaps]
    assert abs(np.mean(shifted) - 0.5) < 0.1  # Exp(rate 2)


def test_committed_fires_without_delay():
    text = """
int k = 0;
clock x;
template T() {
  init loc a { inv x <= 3; }
  committed loc b;
  a -> b { guard x >= 3; }
  b -> a { update k := k + 1, x := 0; }
}
system T;
"""
    tr = runs(text, 30, 1, watch=["k"])[0]
    fire_times = [e.time for e in tr.events if e.edge.startswith("b->a")]
    assert fire_times == pytest.approx([3 * i for i in range(1, 11)])
    assert tr.final["k"] == 10


def test_committed_location_exits_without_delay():
    """Entering a committed location never lets time pass before exit."""
    text = """
clock x;
template A() {
  committed loc c;
  loc done;
  init loc c0;
  c0 -> c { }
  c -> done { }
}
template B() {
  init loc idle { inv x <= 1; }
  idle -> idle { guard x >= 1; update x := 0; }
}
system A, B;
"""
    tr = runs(text, 5, 1)[0]
    a_events = [e for e in tr.events if e.component == "A"]
    assert len(a_events) == 2
    assert a_events[0].time == a_events[1].time


def test_broadcast_reaches_all_receivers():
    text = """
int got = 0;
clock x;
broadcast chan go;
template Emit() {
  init loc a { inv x <= 1; }
  loc done;
  a -> done { guard x >= 1; sync go!; }
}
template Recv() {
  init loc w;
  loc got_it;
  w -> got_it { sync go?; update got := got + 1; }
}
system Emit, Recv, Recv, Recv;
"""
    tr = runs(text, 10, 1, watch=["got"])[0]
    assert tr.final["got"] == 3


def test_broadcast_emitter_never_blocks():
    text = """
clock x;
broadcast chan go;
template Emit() {
  init loc a { inv x <= 1; }
  loc done;
  a -> done { guard x >= 1; sync go!; }
}
template Recv() {
  init loc w;
  loc other;
  w -> other { guard x >= 100; sync go?; }
}
system Emit, Recv;
"""
    tr = runs(text, 10, 1)[0]
    assert any(e.channel == "go" for e in tr.events)
    assert tr.final == {}


def test_binary_channel_requires_exactly_one_receiver():
    # two ready receivers on a binary channel: emit stays disabled and
    # nothing forces time to stop, so the run idles to the bound
    text = """
clock x;
chan go;
template Emit() {
  init loc a;
  loc done;
  a -> done { guard x >= 1; sync go!; }
}
template Recv() {
  init loc w;
  loc got_it;
  w -> got_it { sync go?; }
}
system Emit, Recv, Recv;
"""
    tr = runs(text, 10, 1)[0]
    assert tr.end_reason == "bound_reached"
    assert tr.events == []


def test_binary_channel_pairs_once():
    text = """
int got = 0;
clock x;
chan go;
template Emit() {
  init loc a { inv x <= 1; }
  loc done;
  a -> done { guard x >= 1; sync go!; }
}
template Recv() {
  init loc w;
  loc got_it;
  w -> got_it { sync go?; update got := got + 1; }
}
system Emit, Recv;
"""
    tr = runs(text, 10, 1, watch=["got"])[0]
    assert tr.final["got"] == 1


@pytest.mark.parametrize("chan", ["chan", "broadcast chan"])
def test_a_sync_reads_its_receivers_guards_before_the_emitters_updates(
        chan):
    """The emitter's update falsifies the receiver's guard; the receiver
    was ready in the state before the sync, so it takes part, as in
    UPPAAL."""
    text = f"""
int flag = 1;
int got = 0;
clock x;
{chan} go;
template A() {{
  init loc s {{ inv x <= 2; }}
  loc done;
  s -> done {{ guard x >= 1; sync go!; update flag := 0; }}
}}
template B() {{
  init loc w;
  loc r;
  w -> r {{ guard flag == 1; sync go?; update got := 1; }}
}}
system A, B;
"""
    tr = runs(text, 5, 1, watch=["got"])[0]
    assert [e.channel for e in tr.events] == ["go"]
    assert tr.locations == {"A": "done", "B": "r"}
    assert tr.final["got"] == 1


def test_location_rate_scales_clock():
    text = """
clock e;
clock x;
template T() {
  init loc a { rate e = 3; inv x <= 2; }
  loc done { rate e = 0; }
  a -> done { guard x >= 2; }
}
system T;
"""
    tr = runs(text, 10, 1, watch=["e"])[0]
    assert tr.final["e"] == pytest.approx(6)


def test_rate_zero_freezes_clock():
    text = """
clock e;
clock x;
template T() {
  init loc a { rate e = 0; inv x <= 4; }
  loc done { rate e = 0; }
  a -> done { guard x >= 4; }
}
system T;
"""
    assert runs(text, 10, 1, watch=["e"])[0].final["e"] == 0


def test_rk4_matches_affine_closed_form():
    """rate e = 0.1 * (30 + 8 * t) with dclock t: integral is exact."""
    text = """
clock e;
clock t;
clock x;
template T() {
  init loc a { rate e = 0.1 * (30 + 8 * t); inv x <= 5; }
  loc done { rate e = 0; }
  a -> done { guard x >= 5; }
}
system T;
"""
    tr = runs(text, 10, 1, watch=["e"], h_max=0.5)[0]
    exact = 0.1 * (30 * 5 + 4 * 5 ** 2)
    assert tr.final["e"] == pytest.approx(exact, rel=1e-9)


def test_guard_boundary_initially_true():
    """A guard already true at entry opens the window at zero delay."""
    text = """
clock x;
template T() {
  init loc a { inv x <= 2; }
  loc done;
  a -> done { guard x >= 0; }
}
system T;
"""
    tr = runs(text, 10, 1)[0]
    assert len(tr.events) == 1
    assert 0 <= tr.events[0].time <= 2


def test_negative_rate_invariant_deadline_at_zero():
    """A clock sitting on its invariant boundary with a negative rate must
    force an immediate exit, not an infinite deadline."""
    text = """
clock v;
template T() {
  init loc a { inv v >= 0; rate v = -1; }
  loc out;
  a -> out { guard v <= 0; }
}
system T;
"""
    tr = runs(text, 10, 1, watch=["v"])[0]
    assert tr.events and tr.events[0].time < 1e-6


@pytest.mark.parametrize("text, where", [
    ("clock x = 5; template T() { init loc a { inv x <= 1; } } system T;",
     r"T\.a violated at entry \(t=0\.0\)$"),
    ("clock x; template T() { init loc a; loc b { inv x <= 1; } "
     "a -> b { update x := 5; } } system T;",
     r"T\.b violated at entry \(t=\d"),
], ids=["initial", "by-update"])
def test_a_location_entered_with_its_invariant_false_stops_the_run(
        text, where):
    """A model that validates can enter a location whose invariant is
    already false, at the start or by an edge's update; the step names the
    location and the time."""
    assert validate_model(parse_model(text)).errors == []
    with pytest.raises(EngineError, match=where):
        runs(text, 10, 1)


def test_deadlock_reported():
    text = """
clock x;
template T() {
  init loc a { inv x <= 1; }
  loc b;
  a -> b { guard x >= 5; }
}
system T;
"""
    tr = runs(text, 10, 1)[0]
    assert tr.end_reason == "deadlock"
    assert tr.end_time == pytest.approx(1)


_CAPPED = "template A() { init loc a { inv x <= %s; } }"


@pytest.mark.parametrize("templates, bound, ends, at", [
    ("template A() { init loc a { inv x <= 1; } loc b; "
     "a -> b { guard x >= 1; } }", 10, "a->b#0", 1.0),
    ("template A() { init loc a; a -> a { guard x >= 5; } }",
     3, "bound_reached", 3.0),
    (_CAPPED % 2 + " template B() { init loc b; "
     "b -> b { guard y >= 5; update y := 0; } }", 100, "deadlock", 2.0),
    (_CAPPED % 5 + " template B() { init loc b { exitrate 0.01; } "
     "b -> b { update y := 0; } }", 10, "deadlock", 5.0),
    ("template A() { init loc a; a -> a { guard x < 0; } }",
     10, "bound_reached", 10.0),
    (_CAPPED % 20, 10, "bound_reached", 10.0),
    (_CAPPED % 4, 10, "deadlock", 4.0),
], ids=["winner-fires", "winner-past-the-bound", "winner-past-a-cap",
        "winner-past-a-cap-and-the-bound", "no-winner-no-cap",
        "no-winner-cap-past-the-bound", "no-winner-cap"])
def test_every_way_a_timed_step_ends(templates, bound, ends, at):
    """Time stops at the bound or at the first invariant of an actor that
    cannot fire, whichever comes first, and a race winner fires only if its
    delay is not past that stop.  B's self-loop changes nothing that A's
    end depends on, so the steps that fire it are passed over."""
    system = "A, B" if "template B" in templates else "A"
    text = f"clock x; clock y; {templates} system {system};"
    assert validate_model(parse_model(text)).errors == []
    network = engine.CompiledNetwork(net(text))
    for i in range(20):
        sim = engine.Simulator(network, RngStream(1, i))
        result = sim.step(bound)
        while getattr(result, "component", None) == "B":
            result = sim.step(bound)
        assert (result if isinstance(result, str) else result.edge) == ends
        assert sim.time == pytest.approx(at)
        assert sim.V[network.slots["x"]] <= at


def test_zeno_loop_detected():
    text = """
template T() {
  committed loc a;
  committed loc b;
  init loc s;
  s -> a { }
  a -> b { }
  b -> a { }
}
system T;
"""
    with pytest.raises(EngineError, match="zeno|committed"):
        runs(text, 10, 1, max_steps=10_000)


@pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0, -1.0])
def test_run_rejects_a_bound_that_is_not_finite_and_positive(bound):
    text = """
clock x;
template T() {
  init loc a { inv x <= 1; }
  a -> a { guard x >= 1; update x := 0; }
}
system T;
"""
    with pytest.raises(EngineError, match="^bound must be finite and > 0$"):
        runs(text, bound, 1)


def _listened(n):
    """An emitter on a broadcast channel and ``n`` listeners that only
    receive on it: no invariant, no internal or emitting edge."""
    return """
int heard = 0;
clock x;
broadcast chan go;
template Emit() {
  init loc a { inv x <= 2; }
  a -> a { guard x >= 1; sync go!; update x := 0; }
}
template Listen() {
  init loc idle;
  loc woken;
  idle -> woken { sync go?; update heard := heard + 1; }
  woken -> idle { sync go?; update heard := heard + 1; }
}
system Emit""" + ", Listen" * n + ";\n"


def test_inert_components_cost_no_delay_sampling(monkeypatch):
    """Components that can neither fire on their own nor cap a delay stay
    out of the delay race: eight listeners add no ``sample_delay`` call
    and change none of the emitter's events."""
    calls = []
    sample_delay = engine.Simulator.sample_delay
    monkeypatch.setattr(
        engine.Simulator, "sample_delay",
        lambda self, *args: calls.append(args[0].name)
        or sample_delay(self, *args))
    seen = {}
    for n in (0, 8):
        calls.clear()
        tr = runs(_listened(n), 100, 1, watch=["heard"])[0]
        seen[n] = (list(calls), [(e.time, e.component, e.edge, e.channel)
                                 for e in tr.events])
        assert tr.final["heard"] == n * len(tr.events)
    assert seen[0] == seen[8]
    assert set(seen[8][0]) == {"Emit"} and len(seen[8][0]) > 30


@pytest.mark.parametrize("field,value,message", [
    ("h_max", 0.0, "need h_max > 0"),
    ("h_max", -1.0, "need h_max > 0"),
    ("h_max", math.nan, "need h_max > 0"),
    ("h_max", math.inf, "need h_max > 0"),
    ("max_steps", 0, "need max_steps >= 1"),
])
def test_run_config_rejects_bad_limits(field, value, message):
    with pytest.raises(EngineError, match=message):
        RunConfig(**{field: value})


def test_int_update_range_checked():
    text = """
int k = 0;
clock x;
template T() {
  init loc a { inv x <= 1; }
  loc b;
  a -> b { guard x >= 1; update k := 2.5; }
}
system T;
"""
    with pytest.raises(EngineError, match="int"):
        runs(text, 10, 1, watch=["k"])


def test_watch_accepts_expressions_and_locations():
    text = """
clock x;
template T() {
  init loc a { inv x <= 1; }
  loc b;
  a -> b { guard x >= 1; }
}
system T;
"""
    tr = runs(text, 10, 1, watch=["T.b", "x * 2"])[0]
    assert tr.final["T.b"] is True
    event_snap = tr.events[0].watch
    assert event_snap["x * 2"] == pytest.approx(2)


def test_watch_is_compiled_once_per_network(monkeypatch):
    from stamc import parser
    network = engine.CompiledNetwork(net("""
clock x;
template T() {
  init loc a { inv x <= 1; }
  a -> a { guard x >= 1; update x := 0; }
}
system T;
"""))
    parsed = []
    parse = parser.parse_expression
    monkeypatch.setattr(parser, "parse_expression",
                        lambda text: parsed.append(text) or parse(text))
    watch = ("x * 2", "T.a")
    first = run(network, 5, RngStream(0, 0), watch=watch)
    assert parsed == list(watch)
    second = run(network, 5, RngStream(0, 0), watch=list(watch))
    assert parsed == list(watch)  # the second run parses nothing
    assert second == first


def test_samples_are_time_ordered_with_pre_values():
    text = """
int k = 0;
clock x;
template T() {
  init loc a { inv x <= 2; }
  a -> a { guard x >= 2; update k := k + 1, x := 0; }
}
system T;
"""
    tr = runs(text, 6, 1, watch=["k"])[0]
    rows = list(tr.samples())
    assert rows[0] == (0.0, {"k": 0})
    times = [t for t, _ in rows]
    assert times == sorted(times)
    # at each event time both the pre and post value are visible
    at2 = [snap["k"] for t, snap in rows if t == pytest.approx(2)]
    assert at2 == [0, 1]


def test_monitor_sees_every_sample_point():
    text = """
int k = 0;
clock x;
template T() {
  init loc a { inv x <= 2; }
  loc b { inv x <= 1; }
  a -> b { guard x >= 2; update k := k + 1, x := 0; }
  b -> a { guard x >= 1; }
}
system T;
"""
    network = engine.CompiledNetwork(net(text))
    k, x = network.slots["k"], network.slots["x"]
    seen = []
    monitored = run(network, 7, RngStream(0, 0),
                    monitor=lambda V, L: seen.append((V[k], V[x], L[0])))
    watched = run(network, 7, RngStream(0, 0), watch=["k", "x", "T.b"])
    assert seen == [(s["k"], s["x"], "b" if s["T.b"] else "a")
                    for _, s in watched.samples()]
    assert len(seen) == 2 * len(monitored.events) + 2
    # a monitor changes nothing in the run, and the trace watches nothing
    assert [e.time for e in monitored.events] == \
        [e.time for e in watched.events]
    assert all(snap == {} for _, snap in monitored.samples())
    assert monitored.locations == watched.locations == {"T": "a"}


def test_trace_to_jsonl_roundtrips():
    text = """
clock x;
template T() {
  init loc a { inv x <= 1; }
  loc b;
  a -> b { guard x >= 1; }
}
system T;
"""
    tr = runs(text, 10, 1, watch=["x"])[0]
    lines = engine.trace_to_jsonl(tr).strip().split("\n")
    rows = [json.loads(l) for l in lines]
    assert rows[0]["comp"] == "T"
    assert {"t", "comp", "edge", "watch"} <= set(rows[0])


BIG = "9" * 300  # 1e300; its square overflows to inf


@pytest.mark.parametrize("rate", [f"{BIG} * {BIG}", f"t * {BIG} * {BIG}"])
def test_a_rate_that_is_not_finite_stops_the_run(rate):
    """A clock-free rate, and a rate integrated in one midpoint step, that
    overflow: the delay raises instead of storing inf."""
    text = f"""
clock t;
clock e;
template T() {{
  init loc a {{ rate e = {rate}; inv t <= 1; }}
  a -> a {{ guard t >= 1; update t := 0; }}
}}
system T;
"""
    compiled = engine.CompiledNetwork(net(text))
    assert compiled.step_table(["a"]).exact
    with pytest.raises(EngineError, match="^rate of 'e' is not finite$"):
        run(compiled, 10, RngStream(0, 0))


def test_check_invariants_covers_the_final_delay():
    """A clock whose rate reads a clock outruns the window search, which
    extrapolates the current rate in a straight line: e reaches about 50
    at the bound. The invariant check must notice, although the run only
    ever delays and never fires."""
    text = """
clock t;
clock e;
template T() {
  init loc a { inv e <= 8; rate e = t; }
  loc b;
  a -> b { guard e >= 8; }
}
system T;
"""
    with pytest.raises(EngineError, match=r"invariant 'e <= 8' of T\.a"):
        runs(text, 10, 1, check_invariants=True)


def test_check_invariants_accepts_the_vehicle_runs():
    """The window search may end a delay up to 1e-9 time units past an
    invariant boundary (a braking wheel ends some delays at a speed of
    about -8e-9 under `inv wvr >= 0`); the check allows that, so vehicle
    runs pass it."""
    network = instantiate(parse_model((MODELS / "av.sta").read_text()))
    config = RunConfig(h_max=10.0, check_invariants=True)
    for i in range(4):
        run(network, 3000, RngStream(42, i), config=config)


# --- bit-identity of the compiled hot path ---------------------------------
#
# The engine keeps values and locations in slot-indexed lists, probes guards
# and invariants through closures that read each clock as V[3] + R[3] * dt,
# and integrates clock-reading rates by one midpoint step or by RK4. Window
# search, updates and both integrators run as kernels generated from those
# closures' sources. The references below are the
# straightforward forms they replace, on dicts, numpy arrays and loops over
# the closures; results must agree bit for bit, not within a tolerance.
# _named maps slots back to names for them.


def _named(compiled, V, L):
    """A slot-indexed state as dicts: values by value key, locations by
    component name."""
    return (dict(zip(compiled.keys, V)),
            {cc.name: L[cc.index] for cc in compiled.components})


def _advanced_copy(V, rates, dt):
    """Reference probe: a copy of V with every clock advanced dt."""
    V2 = dict(V)
    for key, r in rates.items():
        V2[key] = V[key] + r * dt
    return V2


def _advance_reference(sim, dt, exact):
    """Reference advance_time: dict rates and numpy arrays, integrated by
    one midpoint step if ``exact``, otherwise by RK4."""
    V, L = sim.V, sim.L
    const_rates, var_rates = {}, {}
    for cc in sim.net.components:
        loc = cc.locations[L[cc.index]]
        if loc.committed:
            continue
        for key, fn, reads, _ in loc.rates:
            if reads:
                var_rates[key] = fn
            else:
                const_rates[key] = float(fn(V, L))
    for key in sim.net.clock_slots:
        if key not in var_rates and key not in const_rates:
            const_rates[key] = 1.0
    base = {key: V[key] for key in const_rates}
    if var_rates:
        ykeys = list(var_rates)
        y = np.array([V[k] for k in ykeys], dtype=float)
        n_steps = max(1, math.ceil(dt / sim.config.h_max))
        h = dt / n_steps

        def f(t_off, yvals):
            for key, r in const_rates.items():
                V[key] = base[key] + r * t_off
            for k, val in zip(ykeys, yvals):
                V[k] = val
            return np.array([float(var_rates[k](V, L)) for k in ykeys])

        if exact:
            y = y + f(dt / 2, y) * dt
        else:
            t = 0.0
            for _ in range(n_steps):
                k1 = f(t, y)
                k2 = f(t + h / 2, y + k1 * (h / 2))
                k3 = f(t + h / 2, y + k2 * (h / 2))
                k4 = f(t + h, y + k3 * h)
                y = y + (k1 + 2 * k2 + 2 * k3 + k4) * (h / 6)
                t += h
        for k, val in zip(ykeys, y):
            V[k] = float(val)
    for key, r in const_rates.items():
        V[key] = base[key] + r * dt
    sim.time += dt


def _bits(values):
    """repr keeps every bit of a float, the sign of zero included."""
    return [repr(v) for v in values]


def _vehicle_states(name, n_runs=3, every=7, bound=1500):
    """(compiled network, [(V, L)] as named dicts) sampled along vehicle
    runs."""
    compiled = engine.CompiledNetwork(
        instantiate(parse_model((MODELS / name).read_text())))
    states = []
    for i in range(n_runs):
        sim = engine.Simulator(compiled, RngStream(42, i),
                               RunConfig(h_max=10.0))
        for n in range(10 ** 4):
            if isinstance(sim.step(bound), str):
                break
            if n % every == 0:
                states.append(_named(compiled, sim.V, sim.L))
    return compiled, states


def _at(compiled, V, L):
    """A simulator at the named state (V, L)."""
    sim = engine.Simulator(compiled, RngStream(0, 0), RunConfig(h_max=10.0))
    sim.V = [V[key] for key in compiled.keys]
    sim.L = [L[cc.name] for cc in compiled.components]
    sim._table = compiled.step_table(sim.L)
    return sim


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta"])
def test_window_probes_match_dict_copy_reference(name):
    compiled, states = _vehicle_states(name)
    windows = []
    for cc in compiled.components:
        for loc in cc.locations.values():
            if loc.invariant is not None:
                windows.append((loc.invariant, loc.inv_probe, loc.inv_atoms))
            edges = loc.active + [e for es in loc.receive.values()
                                  for e in es]
            for e in edges:
                if e.guard is not None:
                    windows.append((e.guard, e.guard_probe, e.guard_atoms))
    assert sum(len(atoms) for _, _, atoms in windows) > 20
    assert len(states) > 100
    checked = 0
    for V, L in states:
        sim = _at(compiled, V, L)
        slot_V, slot_L = sim.V, sim.L
        rates = compiled.step_table(slot_L).rates(slot_V, slot_L)
        clock_rates = {key: r for key, r in
                       _named(compiled, rates, slot_L)[0].items()
                       if compiled.var_types[key] == "clock"}
        for dt in (1.0, 1e-9, 0.25, 1.0 + 1e-9, 3.7, 40.0, 1234.5):
            ahead = _advanced_copy(V, clock_rates, dt)
            ref_V = [ahead[key] for key in compiled.keys]
            for pred, probe, atoms in windows:
                fns = [(pred, probe)] + list(atoms)
                ref = [fn(ref_V, slot_L) for fn, _ in fns]
                got = [pr(slot_V, slot_L, rates, dt) for _, pr in fns]
                assert _bits(got) == _bits(ref)
                checked += len(fns)
    assert checked > 10 ** 4


def _earliest(pred, probe, atoms, V, L, rates, horizon, want):
    """Reference window search: the earliest t in [0, horizon] with
    ``bool(pred) == want``, or None, found by probing 1e-9 past 1e-9 and
    past each atom's crossing, in increasing order."""
    eps = 1e-9
    if bool(pred(V, L)) == want:
        return 0.0
    if horizon <= 0:
        return None
    crossings = [eps]
    for diff, diff_probe in atoms:
        g0 = float(diff(V, L))
        slope = float(diff_probe(V, L, rates, 1.0)) - g0
        if slope == 0.0:
            continue
        t = -g0 / slope
        if eps < t <= horizon:
            crossings.append(t)
    for t in sorted(crossings):
        if bool(probe(V, L, rates, t + eps)) == want:
            return t
    return None


def _edges(compiled):
    """(location, edge) for every edge of every component, after every
    location has generated its kernels."""
    for cc in compiled.components:
        for loc in cc.locations.values():
            loc.lower()
    return [(loc, e) for cc in compiled.components
            for loc in cc.locations.values()
            for e in loc.active + [e for es in loc.receive.values()
                                   for e in es]]


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta"])
def test_window_kernels_match_the_loop_reference(name):
    """Each guard's kernel finds when it opens, and each invariant's when
    it closes, as the loop over the probe closures does."""
    compiled, states = _vehicle_states(name)
    windows = [(e.guard, e.guard_probe, e.guard_atoms, e.window, True)
               for _, e in _edges(compiled) if e.window is not None]
    windows += [(loc.invariant, loc.inv_probe, loc.inv_atoms, loc.window,
                 False) for cc in compiled.components
                for loc in cc.locations.values() if loc.window is not None]
    assert len(windows) > 20
    found = set()
    for V, L in states:
        sim = _at(compiled, V, L)
        V, L = sim.V, sim.L
        rates = compiled.step_table(L).rates(V, L)
        for horizon in (math.inf, 0.0, 1e-9, 40.0):
            for pred, probe, atoms, kernel, want in windows:
                got = kernel(V, L, rates, horizon)
                assert _bits([got]) == _bits([_earliest(
                    pred, probe, atoms, V, L, rates, horizon, want)])
                found.add(got is None or got > 0)
    assert found == {True, False}  # windows now, later and never


def _staged(V, L, updates):
    """Reference updates: every right-hand side evaluated, then each stored
    through ``_coerce``."""
    staged = [(slot, fn(V, L), vtype) for slot, fn, vtype in updates]
    for slot, value, vtype in staged:
        V[slot] = engine.CompiledNetwork._coerce(value, vtype)


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta"])
def test_update_kernels_match_the_staged_loop(name):
    """Each edge's update kernel leaves V as evaluating every right-hand
    side and then storing it through ``_coerce`` does."""
    compiled, states = _vehicle_states(name)
    edges = [e for _, e in _edges(compiled) if e.updates]
    assert len(edges) > 20
    assert all(e.update is None for _, e in _edges(compiled)
               if not e.updates)
    for V, L in states:
        sim = _at(compiled, V, L)
        for edge in edges:
            want = list(sim.V)
            try:
                _staged(want, sim.L, edge.updates)
            except EngineError as exc:
                with pytest.raises(EngineError, match=f"^{exc}$"):
                    edge.update(list(sim.V), sim.L)
                continue
            got = list(sim.V)
            edge.update(got, sim.L)
            assert _bits(got) == _bits(want)


# The fire kernels' reference, a firing in loop form: scan the enabled
# edges, choose one by weight, apply it, and sync each receiver that was
# ready before the emitter's updates, since every guard of a sync reads the
# state before it.  ``receiving`` is the step table's receive edges per
# channel.


def _receivers(V, L, receiving, emitter, ch):
    """[(component, its enabled receive edges on ``ch``)] for every
    component but ``emitter`` with at least one."""
    receivers = []
    for cc, edges in receiving.get(ch, ()):
        if cc is emitter:
            continue
        enabled = [e for e in edges if e.guard is None or e.guard(V, L)]
        if enabled:
            receivers.append((cc, enabled))
    return receivers


def _enabled_edges(V, L, receiving, cc, loc):
    """The active edges of ``cc`` in ``loc`` that can fire now: a binary
    emit needs exactly one ready receiver."""
    enabled = []
    for edge in loc.active:
        if edge.guard is not None and not edge.guard(V, L):
            continue
        if edge.binary is not None and len(
                _receivers(V, L, receiving, cc, edge.binary)) != 1:
            continue
        enabled.append(edge)
    return enabled


def _choose(rng, enabled):
    """One of the ``enabled`` edges, chosen by weight; a lone edge draws
    nothing."""
    if len(enabled) == 1:
        return enabled[0]
    return enabled[rng.weighted_choice([e.weight for e in enabled])]


def _fire(V, L, receiving, rng, cc, edge):
    """Apply one edge plus any synchronized receivers; returns the channel
    and the receivers."""
    receivers = _receivers(V, L, receiving, cc, edge.channel)
    _staged(V, L, edge.updates)
    L[cc.index] = edge.target
    if edge.binary is not None:
        receivers = receivers[:1]
    for other, enabled in receivers:
        chosen = _choose(rng, enabled)
        _staged(V, L, chosen.updates)
        L[other.index] = chosen.target
    return edge.channel, receivers


class _Recording(engine.Simulator):
    """A simulator that keeps a copy of the state after every delay, where
    a timed actor is about to fire."""

    def advance_time(self, dt, rates):
        super().advance_time(dt, rates)
        self.states.append((list(self.V), list(self.L)))


def _firing_states(compiled, n_runs, bound, every=1):
    """[(V, L)] at the start of every step and after every delay of
    ``n_runs`` runs, keeping one in ``every``."""
    states = []
    for i in range(n_runs):
        sim = _Recording(compiled, RngStream(42, i), RunConfig(h_max=10.0))
        sim.states = states
        for _ in range(10 ** 4):
            states.append((list(sim.V), list(sim.L)))
            if isinstance(sim.step(bound), str):
                break
    return states[::every]


# Vehicle states that runs seldom or never reach, each as (component, its
# location, values set): a wheel braked to a standstill while reporting, a
# stop sign read in a turn, and a stop committed to.
_SELDOM = [("WheelL", "send1", {"wvl": 0.0, "al": -1.0}),
           ("WheelR", "send1", {"wvr": 0.0, "ar": -1.0}),
           ("Ctrl", "dispatch", {"mode": 3, "dsign": 5}),
           ("Ctrl", "commit_stop", {})]


def _seldom_states(compiled, states, n=20):
    """Each of ``_SELDOM`` whose location the model has, set in ``n`` of
    ``states``."""
    components = {cc.name: cc for cc in compiled.components}
    seldom = [(components[name].index, loc, values)
              for name, loc, values in _SELDOM
              if loc in components[name].locations]
    out = []
    for V, L in states[::max(1, len(states) // n)]:
        for index, loc, values in seldom:
            V, L = list(V), list(L)
            L[index] = loc
            for key, value in values.items():
                V[compiled.slots[key]] = value
            out.append((V, L))
    return out


def _compare_fire(compiled, V, L, seen):
    """Fire each component of state (V, L) by its location's kernel and by
    the loop form, on copies of the state and equal random streams."""
    receiving = compiled.step_table(L).receivers
    for cc in compiled.components:
        loc = cc.locations[L[cc.index]]
        want_V, want_L = list(V), list(L)
        enabled = _enabled_edges(want_V, want_L, receiving, cc, loc)
        got_V, got_L, snaps = list(V), list(L), []

        def snap():
            snaps.append((list(got_V), list(got_L)))
            return "pre"

        if not enabled:  # nothing fires, so nothing draws
            assert loc.fire(got_V, got_L, receiving, None, snap) is None
            assert (got_V, got_L, snaps) == (V, L, [])
            continue
        want_rng, got_rng = RngStream(7, len(seen)), RngStream(7, len(seen))
        edge = _choose(want_rng, enabled)
        channel, receivers = _fire(want_V, want_L, receiving, want_rng, cc,
                                   edge)
        got = loc.fire(got_V, got_L, receiving, got_rng, snap)
        assert got == (edge.label, channel, "pre")
        assert snaps == [(V, L)]  # the sample before, taken once
        assert _bits(got_V) == _bits(want_V) and got_L == want_L
        assert got_rng.uniform(0, 1) == want_rng.uniform(0, 1)
        seen.append((len(enabled) > 1, channel is not None,
                     edge.binary is not None, bool(receivers),
                     any(len(edges) > 1 for _, edges in receivers), edge))


# A binary emit after a weighted committed choice; the receiver draws
# between two enabled edges. Once `hits` reaches 40 a second receiver is
# ready, which blocks the emit, and the run deadlocks in `pick`.
BINARY = """
int hits = 0;
int side = 0;
clock x;
chan go;
template Emit() {
  init loc a { inv x <= 2; }
  committed loc pick;
  a -> pick { guard x >= 1; }
  pick -> a { weight 3; sync go!; update side := 1, x := 0; }
  pick -> a { weight 1; sync go!; update side := 2, x := 0; }
}
template Recv() {
  init loc w;
  w -> w { weight 1; sync go?; update hits := hits + side; }
  w -> w { weight 4; sync go?; update hits := hits + 10 * side; }
}
template Late() {
  init loc w;
  loc done;
  w -> done { guard hits >= 40; sync go?; }
}
system Emit, Recv, Late;
"""

# Weighted broadcasts with guarded and weighted receive edges, and an
# emitter that listens on its own channel.
BROADCAST = """
int got = 0;
clock x;
broadcast chan go;
template Emit() {
  init loc a { inv x <= 1; }
  a -> a { guard x >= 1; weight 2; sync go!; update x := 0; }
  a -> a { guard x >= 1; sync go!; update x := 0, got := got + 5; }
  a -> a { sync go?; update got := got + 100; }
}
template Recv() {
  init loc w;
  loc odd;
  w -> odd { guard got % 2 == 0; weight 2; sync go?; update got := got + 1; }
  w -> w { sync go?; update got := got + 2; }
  odd -> w { guard got < 10; sync go?; update got := got + 3; }
}
system Emit, Recv, Recv;
"""


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta", "binary",
                                  "broadcast"])
def test_fire_kernels_match_the_loop_reference(name):
    """Each location's fire kernel leaves V and L as the loop form does, bit
    for bit, returns the same label and channel, and leaves the random
    stream at the same next draw; every internal or emitting edge with
    updates fires at least once."""
    vehicle = name.endswith(".sta")
    if vehicle:
        compiled = engine.CompiledNetwork(
            instantiate(parse_model((MODELS / name).read_text())))
        states = _firing_states(compiled, 3, 1500, every=3)
        states += _seldom_states(compiled, states)
    else:
        compiled = engine.CompiledNetwork(
            net(BINARY if name == "binary" else BROADCAST))
        states = _firing_states(compiled, 20, 40)
    seen = []
    for V, L in states:
        _compare_fire(compiled, V, L, seen)
    # the emitter's choice, a sync, a binary emit, a receiver, its choice
    # and the edge fired
    weighted, synced, binary, received, chosen, fired = (
        {s[i] for s in seen} for i in range(6))
    assert len(seen) > 100
    assert True in weighted and True in synced and True in received
    assert binary == ({True, False} if name == "binary" else {False})
    assert chosen == ({False} if vehicle else {True, False})
    updating = {e for cc in compiled.components
                for loc in cc.locations.values() for e in loc.active
                if e.updates}
    assert len(updating) >= (20 if vehicle else 2)
    assert updating <= fired
    # the fire kernel applies an edge's updates by the edge's update kernel,
    # which the staged-loop test checks, error messages included
    for cc in compiled.components:
        for loc in cc.locations.values():
            for i, edge in enumerate(loc.active):
                if edge.updates:
                    assert loc.fire.__globals__[f"U{i}"] is edge.update


def test_a_blocked_binary_emit_deadlocks():
    tr = run(net(BINARY), 1000, RngStream(42, 0), ["hits"])
    assert tr.end_reason == "deadlock" and tr.final["hits"] >= 40
    assert tr.locations == {"Emit": "pick", "Recv": "w", "Late": "w"}


def test_an_edge_reads_every_right_hand_side_before_it_stores():
    text = """
int a = 1;
int b = 2;
clock x;
template T() {
  init loc s { inv x <= 1; }
  loc t;
  s -> t { guard x >= 1; update a := b, b := a, x := a + b; }
}
system T;
"""
    tr = runs(text, 5, 1, watch=["a", "b", "x"])[0]
    assert tr.events[0].watch == {"a": 2, "b": 1, "x": 3.0}


def test_a_second_compile_execs_nothing(monkeypatch):
    """Closures are cached by source and kernels by their generators'
    arguments: a second network of the same model shares every function
    with the first, and compiling and running it writes no kernel and
    evaluates no closure."""
    network = instantiate(parse_model((MODELS / "av.sta").read_text()))
    watch = ("(wvl + wvr) / 2", "energy.Con_en", "mode")
    config = RunConfig(h_max=10.0)
    a = engine.CompiledNetwork(network)
    # kernels wait for the first step table that holds their location
    assert not any(loc.lowered for cc in a.components
                   for loc in cc.locations.values())
    run(a, 300, RngStream(42, 0), watch, config)
    _edges(a)
    written = []
    kernel = engine._kernel
    monkeypatch.setattr(engine, "_kernel",
                        lambda *args, **kw: written.append(args)
                        or kernel(*args, **kw))
    evaluated = E._lambda.cache_info().misses
    b = engine.CompiledNetwork(network)
    run(b, 300, RngStream(42, 0), watch, config)
    pairs = list(zip(_edges(a), _edges(b)))
    assert written == [] and E._lambda.cache_info().misses == evaluated
    assert len(pairs) > 30
    for (loc_a, ea), (loc_b, eb) in pairs:
        assert (ea.guard, ea.guard_probe, ea.window, ea.update) == \
            (eb.guard, eb.guard_probe, eb.window, eb.update)
        assert (loc_a.invariant, loc_a.window, loc_a.rates, loc_a.fire) == \
            (loc_b.invariant, loc_b.window, loc_b.rates, loc_b.fire)
        assert loc_a.fire is not None
    assert a.components[0].locations is not b.components[0].locations
    assert len(a._tables) == len(b._tables) > 1
    for config, table in a._tables.items():
        for name in ("advance", "rates"):
            kernels = (getattr(table, name), getattr(b._tables[config], name))
            assert kernels[0] is kernels[1] is not None
    assert a.compile_watch(watch) == b.compile_watch(watch)
    assert engine._watch_kernel(a.compile_watch(watch)) is \
        engine._watch_kernel(b.compile_watch(watch))


def _compare_advance(compiled, V, L, dt, h_max, exact):
    ref = _at(compiled, V, L)
    assert compiled.step_table(ref.L).exact == exact
    ref.config = RunConfig(h_max=h_max)
    _advance_reference(ref, dt, exact)
    sim = _at(compiled, V, L)
    sim.config = RunConfig(h_max=h_max)
    sim.advance_time(dt, compiled.step_table(sim.L).rates(sim.V, sim.L))
    got = _named(compiled, sim.V, sim.L)[0]
    want = _named(compiled, ref.V, ref.L)[0]
    assert list(got) == list(want)
    assert _bits(got.values()) == _bits(want.values())
    assert sim.time == ref.time


# A guard and an invariant that read a clock whose rate reads a clock, and
# a clock-reading rate that nothing reads.
READ_COUPLED = """
clock t;
clock e;
clock z;
template T() {
  init loc a { rate e = t; rate z = 2 * t; inv e <= 8; }
  loc b { rate e = 3; rate z = z - e; }
  a -> b { guard e >= 8; }
  b -> a { guard t >= 20; update t := 0, e := 0; }
}
system T;
"""


@pytest.mark.parametrize("name", ["av.sta", "read-coupled"])
def test_rate_kernels_fill_every_slot_that_is_read(name):
    """Against evaluating every rate of the configuration's locations that
    are not committed: each slot of a clock-free rate, of an unrated clock
    and of a clock that a guard or invariant reads holds the same value,
    bit for bit; the slot of any other clock-reading rate holds 1."""
    if name == "av.sta":
        compiled, states = _vehicle_states(name)
    else:
        compiled = engine.CompiledNetwork(net(READ_COUPLED))
        states = [({"t": t, "e": e, "z": z}, {"T": loc})
                  for t in (0.0, 1.5, 7.25) for e in (0.0, 3.0)
                  for z in (-1.0, 2.0) for loc in ("a", "b")]
    unread = 0
    for V, L in states:
        sim = _at(compiled, V, L)
        V, L = sim.V, sim.L
        table = compiled.step_table(L)
        want, coupled, reads = [1.0] * len(V), set(), set()
        for cc in compiled.components:
            loc = cc.locations[L[cc.index]]
            reads |= loc.reads
            if loc.committed:
                continue
            for slot, fn, clocks, _ in loc.rates:
                want[slot] = float(fn(V, L))
                if clocks:
                    coupled.add(slot)
        got = table.rates(V, L)
        assert got is not table.rates(V, L)  # a new list each time
        for slot, value in enumerate(want):
            if slot in coupled and slot not in reads:
                assert got[slot] == 1.0
                unread += 1
            else:
                assert _bits([got[slot]]) == _bits([value])
    assert unread > 0


@pytest.mark.parametrize("h_max", [10.0, 0.05])
def test_advance_time_matches_numpy_rk4_reference(h_max):
    """Every mode of the energy automaton, with the wheels cruising,
    speeding up, braking and turning. The energy rates are affine in the
    wheel speeds, which move at constant rates, so one midpoint step
    integrates them at any h_max."""
    compiled, states = _vehicle_states("av.sta", n_runs=1, every=1, bound=400)
    timed = [(V, L) for V, L in states
             if not any(cc.locations[L[cc.name]].committed
                        for cc in compiled.components)]
    for V, L in timed[::max(1, len(timed) // 3)][:3]:
        for mode in range(7):
            for al, ar in ((0, 0), (1, 1), (-1, -1), (1, -1)):
                for wvl, wvr in ((V["wvl"], V["wvr"]), (83.17, 91.9)):
                    W = dict(V, mode=mode, al=float(al), ar=float(ar),
                             wvl=wvl, wvr=wvr)
                    for dt in (0.7, 6.1):
                        _compare_advance(compiled, W, L, dt, h_max, True)


COUPLED = """
clock x = 1;
clock y;
clock u;
clock w;
template T() {
  init loc a {
    rate x = -y + 0.1 * u; rate y = x; rate u = 3; rate w = x * 0.5 - w;
  }
}
system T;
"""

TIME_ONLY = """
clock u;
clock z;
clock s;
template T() {
  init loc a { rate u = 0.5; rate z = u * u; rate s = u <= 1 ? 1 : 0; }
}
system T;
"""


@pytest.mark.parametrize("text,h_max", [
    pytest.param(COUPLED, 0.5, id="0.5"),
    pytest.param(COUPLED, 0.05, id="0.05"),
    pytest.param(TIME_ONLY, 0.5, id="time-only-0.5"),
    pytest.param(TIME_ONLY, 0.05, id="time-only-0.05"),
])
def test_advance_time_matches_reference_on_coupled_clocks(text, h_max):
    """Rates that read integrated clocks (and a clock at a constant rate),
    or that are nonlinear in time or step in time, take the full
    four-stage RK4 path."""
    compiled = engine.CompiledNetwork(net(text))
    V, L = compiled.initial_state()
    for dt in (0.3, 2.9, 7.0):
        _compare_advance(compiled, *_named(compiled, V, L), dt, h_max, False)


def test_rate_that_steps_in_time_is_stepped():
    """A comparison on a clock makes a rate a step in time: one midpoint
    step over the whole delay would give 8, not 5."""
    text = """
clock t;
clock e;
template T() {
  init loc a { rate e = t <= 5 ? 1 : 0; }
}
system T;
"""
    compiled = engine.CompiledNetwork(net(text))
    sim = engine.Simulator(compiled, RngStream(0, 0), RunConfig(h_max=0.05))
    sim.advance_time(8.0, compiled.step_table(sim.L).rates(sim.V, sim.L))
    V, _ = _named(compiled, sim.V, sim.L)
    assert V["e"] == pytest.approx(5, abs=0.05)


@pytest.mark.parametrize("decls, rates", [
    (f"clock t = {BIG}; clock e;", "rate e = t * t;"),
    (f"real big = {BIG}; clock t; clock e; clock z;",
     "rate e = big * big; rate z = t * t;"),
], ids=["integrated", "constant-rate"])
def test_a_stepped_plan_names_a_rate_that_is_not_finite(decls, rates):
    """The RK4 kernel checks each integrated rate at every stage, and each
    constant rate before it stores the clock."""
    compiled = engine.CompiledNetwork(net(
        f"{decls} template T() {{ init loc a {{ {rates} }} }} system T;"))
    sim = engine.Simulator(compiled, RngStream(0, 0), RunConfig(h_max=0.05))
    table = compiled.step_table(sim.L)
    assert not table.exact
    with pytest.raises(EngineError, match=r"^rate of 'e' is not finite$"):
        sim.advance_time(1.0, table.rates(sim.V, sim.L))


def test_observers_do_not_perturb_trajectories():
    """Attaching weakly-hard observers leaves a run's events, watched
    values and end unchanged, run by run: an observer only receives, so it
    adds no event of its own.  Each observer's clock is reset at least once
    in the 30 runs, so every observer follows the run."""
    model = parse_model((MODELS / "av.sta").read_text())
    queries = {q.name: q.query for q in
               parse_queries((MODELS / "requirements.q").read_text())}
    observed = monitors.attach_observer(
        model, queries["CamToReg"].constraint, "CamToReg")
    clocks = ["CamToReg.dclk"]
    for name, clock in (("R46", "execclk"), ("R47", "execclk"),
                        ("R48", "sclk"), ("R49", "pclk"), ("R50", "dclk")):
        observed = monitors.attach_observer(
            observed, queries[name].constraint, f"_obs_{name}")
        clocks.append(f"_obs_{name}.{clock}")
    plain_net, observed_net = instantiate(model), instantiate(observed)
    watch = ["wvl", "wvr", "mode", "energy.Con_en", "(wvl + wvr) / 2"]
    config = RunConfig(h_max=10.0)

    def watched(values):
        return {key: values[key] for key in watch}

    reset = set()
    for i in range(30):
        plain = run(plain_net, 3000, RngStream(42, i), watch, config)
        seen = run(observed_net, 3000, RngStream(42, i), watch + clocks,
                   config)
        assert [(e.time, e.component, e.edge, e.channel, watched(e.watch_pre),
                 watched(e.watch)) for e in seen.events] == \
            [(e.time, e.component, e.edge, e.channel, e.watch_pre, e.watch)
             for e in plain.events]
        assert (seen.end_time, seen.end_reason, watched(seen.final)) == \
            (plain.end_time, plain.end_reason, plain.final)
        reset.update(key for e in seen.events for key in clocks
                     if e.watch[key] < e.watch_pre[key])
    assert reset == set(clocks)  # every observer's clock was reset


def test_watching_more_expressions_changes_nothing_watched_before():
    """A run watching a superset of expressions has the same events and
    the same values of the original expressions: the property that lets
    the queries of one check share each run."""
    network = instantiate(parse_model((MODELS / "av.sta").read_text()))
    watch = ["wvl", "(wvl + wvr) / 2"]
    more = ["mode", *watch, "energy.braking_en", "Stop.totally_stop",
            "Camera.cam_en <= 3"]
    config = RunConfig(h_max=10.0)

    def seen(trace, keys):
        return ([(e.time, e.component, e.edge, e.channel,
                  {k: e.watch_pre[k] for k in keys},
                  {k: e.watch[k] for k in keys}) for e in trace.events],
                {k: trace.initial[k] for k in keys},
                {k: trace.final[k] for k in keys},
                trace.end_time, trace.end_reason)

    for i in range(30):
        few = run(network, 3000, RngStream(42, i), watch, config)
        many = run(network, 3000, RngStream(42, i), more, config)
        assert set(many.initial) == set(more)
        assert seen(many, watch) == seen(few, watch)


# Pinned at a commit whose engine kept V and L as dicts keyed by name; an
# engine refactor that changes no float operation and no random draw keeps
# it. Never regenerate it to make a change pass.
RUN_DIGEST = ("0256a8893e9641d4e9c0fad942820e4b"
              "a26a3d73c6969dc94f36fe56f826e776")


def test_vehicle_runs_match_the_pinned_digest():
    """Events, watched values, ends and finals of 20 ``av.sta`` and 10
    ``av_unrefined.sta`` runs hash to one pinned constant."""
    watch = ["(wvl + wvr) / 2", "energy.Con_en", "mode"]
    config = RunConfig(h_max=10.0)
    h = hashlib.sha256()
    for name, n in (("av.sta", 20), ("av_unrefined.sta", 10)):
        network = instantiate(parse_model((MODELS / name).read_text()))
        for i in range(n):
            tr = run(network, 3000, RngStream(42, i), watch, config)
            for e in tr.events:
                h.update(repr((e.time, e.component, e.edge, e.channel,
                               e.watch_pre, e.watch)).encode())
            h.update(repr((tr.end_time, tr.end_reason, tr.final)).encode())
    assert h.hexdigest() == RUN_DIGEST
