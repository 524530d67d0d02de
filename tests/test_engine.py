import json
import math
import pathlib

import numpy as np
import pytest

from stamc import engine, monitors
from stamc.engine import EngineError, RngStream, RunConfig, run
from stamc.model import instantiate
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
# The engine probes guards and invariants through closures that read each
# clock as V[k] + R[k] * dt, and integrates clock-reading rates on float
# lists, by one midpoint step or by RK4. The references below are the
# straightforward forms they replace; results must agree bit for bit, not
# within a tolerance.


def _advanced_copy(V, rates, dt):
    """Reference probe: a copy of V with every clock advanced dt."""
    V2 = dict(V)
    for key, r in rates.items():
        V2[key] = V[key] + r * dt
    return V2


def _advance_reference(sim, dt, exact):
    """Reference advance_time: dict rates and numpy arrays, integrated by
    one midpoint step if ``exact``, otherwise by RK4."""
    V, L = sim.state.V, sim.state.L
    const_rates, var_rates = {}, {}
    for cc in sim.net.components:
        loc = cc.locations[L[cc.name]]
        if loc.committed:
            continue
        for key, fn, reads in loc.rates:
            if reads:
                var_rates[key] = fn
            else:
                const_rates[key] = float(fn(V, L))
    for key in sim.net.clock_keys:
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
    sim.state.time += dt


def _bits(values):
    """repr keeps every bit of a float, the sign of zero included."""
    return [repr(v) for v in values]


def _vehicle_states(name, n_runs=3, every=7, bound=1500):
    """(compiled network, [(V, L)]) sampled along vehicle runs."""
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
                states.append((dict(sim.state.V), dict(sim.state.L)))
    return compiled, states


def _at(compiled, V, L):
    sim = engine.Simulator(compiled, RngStream(0, 0), RunConfig(h_max=10.0))
    sim.state = engine.State(dict(V), dict(L), 0.0)
    return sim


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta"])
def test_window_probes_match_dict_copy_reference(name):
    compiled, states = _vehicle_states(name)
    windows = []
    for cc in compiled.components:
        for loc in cc.locations.values():
            if loc.invariant is not None:
                windows.append((loc.invariant, loc.inv_probe, loc.inv_atoms))
        edges = [e for es in cc.out_active.values() for e in es]
        edges += [e for by_ch in cc.out_receive.values()
                  for es in by_ch.values() for e in es]
        for e in edges:
            if e.guard is not None:
                windows.append((e.guard, e.guard_probe, e.guard_atoms))
    assert sum(len(atoms) for _, _, atoms in windows) > 20
    assert len(states) > 100
    checked = 0
    for V, L in states:
        rates = _at(compiled, V, L)._current_rates()
        for dt in (1.0, 1e-9, 0.25, 1.0 + 1e-9, 3.7, 40.0, 1234.5):
            ref_V = _advanced_copy(V, rates, dt)
            for pred, probe, atoms in windows:
                fns = [(pred, probe)] + list(atoms)
                ref = [fn(ref_V, L) for fn, _ in fns]
                got = [pr(V, L, rates, dt) for _, pr in fns]
                assert _bits(got) == _bits(ref)
                checked += len(fns)
    assert checked > 10 ** 4


def _compare_advance(compiled, V, L, dt, h_max, exact):
    assert compiled.rate_plan(L).exact == exact
    ref = _at(compiled, V, L)
    ref.config = RunConfig(h_max=h_max)
    _advance_reference(ref, dt, exact)
    sim = _at(compiled, V, L)
    sim.config = RunConfig(h_max=h_max)
    sim.advance_time(dt)
    assert list(sim.state.V) == list(ref.state.V)
    assert _bits(sim.state.V.values()) == _bits(ref.state.V.values())
    assert sim.state.time == ref.state.time


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
    state = compiled.initial_state()
    for dt in (0.3, 2.9, 7.0):
        _compare_advance(compiled, state.V, state.L, dt, h_max, False)


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
    sim.advance_time(8.0)
    assert sim.state.V["e"] == pytest.approx(5, abs=0.05)


def test_observers_do_not_perturb_trajectories():
    """Attaching weakly-hard observers leaves every other component's
    events and watched values unchanged, run by run."""
    model = parse_model((MODELS / "av.sta").read_text())
    queries = {q.name: q.query for q in
               parse_queries((MODELS / "requirements.q").read_text())}
    observed = model
    for name in ("R46", "R48", "R50"):
        observed = monitors.attach_observer(
            observed, queries[name].constraint, f"_obs_{name}")
    plain_net, observed_net = instantiate(model), instantiate(observed)
    watch = ["wvl", "wvr", "mode", "energy.Con_en", "(wvl + wvr) / 2"]
    config = RunConfig(h_max=10.0)
    observer_events = 0
    for i in range(30):
        plain = run(plain_net, 3000, RngStream(42, i), watch, config)
        seen = run(observed_net, 3000, RngStream(42, i), watch, config)
        kept = [e for e in seen.events
                if not e.component.startswith("_obs_")]
        observer_events += len(seen.events) - len(kept)
        assert [(e.time, e.component, e.edge, e.watch_pre, e.watch)
                for e in kept] == \
            [(e.time, e.component, e.edge, e.watch_pre, e.watch)
             for e in plain.events]
        assert (seen.end_time, seen.final) == (plain.end_time, plain.final)
    assert observer_events > 0
