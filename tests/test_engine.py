import functools
import hashlib
import json
import math
import pathlib
import re

import numpy as np
import pytest

from stamc import engine, monitors, smc
from stamc import expr as E
from stamc.engine import EngineError, RngStream, RunConfig, run
from stamc.model import instantiate, validate_model
from stamc.parser import parse_expression, parse_model, parse_queries
from stamc.queries import ConstraintQuery, ObserverDecl
from test_acceptance import timed

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


def _numpy_draws(seed, index, script):
    """The draws of ``script`` from a plain numpy Generator on run
    ``index`` of ``seed``: ``u`` a uniform on [1, 3.5), ``z`` and ``r``
    uniforms on an empty and a reversed interval, ``e`` an exponential of
    rate 0.7, ``w`` a weighted choice among [2, 0.5, 1]."""
    gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, index))))
    out = []
    for op in script:
        if op == "u":
            out.append(1.0 + (3.5 - 1.0) * gen.random())
        elif op in "zr":
            out.append(2.0)
        elif op == "e":
            out.append(gen.exponential(1 / 0.7))
        else:
            u = gen.random() * 3.5
            out.append(0 if u < 2 else 1 if u < 2.5 else 2)
    return out


def _stream_draws(seed, index, script):
    rng = RngStream(seed, index)
    draw = {"u": lambda: rng.uniform(1.0, 3.5),
            "z": lambda: rng.uniform(2.0, 2.0),
            "r": lambda: rng.uniform(2.0, 1.0),
            "e": lambda: rng.exponential(0.7),
            "w": lambda: rng.weighted_choice([2, 0.5, 1])}
    return [draw[op]() for op in script]


def test_rng_stream_draws_what_a_numpy_generator_draws():
    """Uniforms, exponentials and weighted choices of ``RngStream(s, i)``
    equal a plain ``Generator(PCG64(SeedSequence((s, i))))``'s, whether
    they come from a block, a single word or a block given back by a
    rewind: on bursts, on streaks around the single-word limit and the
    block edge, and on random mixes."""
    block = engine._BLOCK
    scripts = ["uuue" * 40, "ue" * 80, "ueeeuu" * 20, "e" * 5 + "u" * 300,
               "zrzue" * 20 + "z" * 200 + "e"]
    for n in (1, 2, block - 2, block - 1, block, block + 1, block + 2,
              2 * block - 1, 2 * block, 2 * block + 1, 3 * block + 5):
        scripts += [("u" * n + "e") * 6, "e" + ("u" * n + "e") * 3,
                    ("u" * (n - 1) + "we") * 4, "u" * n + "ee" + "u" * n]
    # a block given back mostly unread doubles the single words after
    # each exponential; streaks then cross the new limit and edge
    scripts.append(("u" * (block + 1) + "e") * 3 + ("u" * (4 * block + 3)
                                                     + "e") * 3)
    rand = np.random.default_rng(29)
    for _ in range(300):
        p_e = rand.choice([0.5, 0.2, 0.05, 0.01, 0.002])
        ops = rand.choice(list("uezrw"), size=int(rand.integers(1, 700)),
                          p=[0.85 - p_e, p_e, 0.03, 0.02, 0.1])
        scripts.append("".join(ops))
    for k, script in enumerate(scripts):
        seed, index = k % 7, k
        assert _stream_draws(seed, index, script) == \
            _numpy_draws(seed, index, script), script


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
    assert [(time, edge) for time, _, edge, _, _, _ in t1.events] == \
           [(time, edge) for time, _, edge, _, _, _ in t2.events]


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
        times = [e[0] for e in tr.events]
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
        times = [e[0] for e in tr.events]
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
    fire_times = [time for time, _, edge, _, _, _ in tr.events
                  if edge.startswith("b->a")]
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
    a_times = [time for time, component, _, _, _, _ in tr.events
               if component == "A"]
    assert len(a_times) == 2
    assert a_times[0] == a_times[1]


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
    assert any(e[3] == "go" for e in tr.events)
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
    assert [e[3] for e in tr.events] == ["go"]
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
    assert 0 <= tr.events[0][0] <= 2


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
    assert tr.events and tr.events[0][0] < 1e-6


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
# CI's time-lock model: A's invariant caps every delay, and B's self-loop
# races past it
_TIME_LOCK = (_CAPPED % 5 + " template B() { init loc b { exitrate 0.01; } "
              "b -> b { update y := 0; } }")
# (templates, bound, how the first step of A ends, at what time)
_TIMED_ENDS = {
    "winner-fires": ("template A() { init loc a { inv x <= 1; } loc b; "
                     "a -> b { guard x >= 1; } }", 10, "a->b#0", 1.0),
    "winner-past-the-bound": (
        "template A() { init loc a; a -> a { guard x >= 5; } }",
        3, "bound_reached", 3.0),
    "winner-past-a-cap": (
        _CAPPED % 2 + " template B() { init loc b; "
        "b -> b { guard y >= 5; update y := 0; } }", 100, "deadlock", 2.0),
    "winner-past-a-cap-and-the-bound": (_TIME_LOCK, 10, "deadlock", 5.0),
    "no-winner-no-cap": (
        "template A() { init loc a; a -> a { guard x < 0; } }",
        10, "bound_reached", 10.0),
    "no-winner-cap-past-the-bound": (_CAPPED % 20, 10, "bound_reached",
                                     10.0),
    "no-winner-cap": (_CAPPED % 4, 10, "deadlock", 4.0),
}


def _timed(templates):
    """The model of ``templates`` A and maybe B over clocks x and y."""
    system = "A, B" if "template B" in templates else "A"
    return f"clock x; clock y; {templates} system {system};"


@pytest.mark.parametrize("templates, bound, ends, at",
                         list(_TIMED_ENDS.values()), ids=list(_TIMED_ENDS))
def test_every_way_a_timed_step_ends(templates, bound, ends, at):
    """Time stops at the bound or at the first invariant of an actor that
    cannot fire, whichever comes first, and a race winner fires only if its
    delay is not past that stop.  B's self-loop changes nothing that A's
    end depends on, so the steps that fire it are passed over."""
    text = _timed(templates)
    assert validate_model(parse_model(text)).errors == []
    network = engine.CompiledNetwork(net(text))
    for i in range(20):
        sim = engine.Simulator(network, RngStream(1, i))
        result = sim.step(bound)
        while not isinstance(result, str) and result[1] == "B":
            result = sim.step(bound)
        assert (result if isinstance(result, str) else result[2]) == ends
        assert sim.time == pytest.approx(at)
        assert sim.V[network.slots["x"]] <= at


_ZENO = """
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


def test_zeno_loop_detected():
    with pytest.raises(EngineError, match="zeno|committed"):
        runs(_ZENO, 10, 1, max_steps=10_000)


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
    out of the delay race: no listener is an actor of a step table, and
    eight listeners add no step kernel call and change none of the
    emitter's events.  Each table built gets a step kernel that records
    the time of each call, its argument after ``rng``."""
    calls = []
    step_kernel = engine._step_kernel

    def counted(actors, plan):
        step = step_kernel(actors, plan)
        return lambda *args: calls.append(args[4]) or step(*args)

    monkeypatch.setattr(engine, "_step_kernel", counted)
    seen = {}
    for n in (0, 8):
        calls.clear()
        compiled = engine.CompiledNetwork(net(_listened(n)))
        tr = run(compiled, 100, RngStream(0, 0), watch=["heard"])
        assert tr.final["heard"] == n * len(tr.events)
        assert [[cc.name for cc, _ in table.actors]
                for table in compiled._tables.values()] == \
            [["Emit"]] * len(compiled._tables)
        seen[n] = (list(calls), [e[:4] for e in tr.events])
    assert len(compiled._tables) == 2  # the listeners idle, then woken
    assert seen[0] == seen[8] and len(seen[8][0]) > 30


@pytest.mark.parametrize("field,value,message", [
    ("h_max", 0.0, "need h_max > 0"),
    ("h_max", -1.0, "need h_max > 0"),
    ("h_max", math.nan, "need h_max > 0"),
    ("h_max", math.inf, "need h_max > 0"),
    ("max_steps", 0, "need max_steps >= 1"),
    ("max_steps", 2.5, "need an integer max_steps"),
    ("max_steps", 1e6, "need an integer max_steps"),
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


_FAULTY = """
int n = 0;
clock x;
template T() {
  init loc a { inv x <= 1; }
  loc b;
  a -> b { guard x >= 1; update %s; }
}
system T;
"""


@pytest.mark.parametrize("update,message", [
    ("n := x / 0",
     "arithmetic error at t=1.0: ZeroDivisionError: float division by zero"),
    ("n := n % 0", "arithmetic error at t=1.0: ZeroDivisionError: "),
    ("n := x" + " * 1000000000" * 40,
     "non-finite value inf assigned to an int variable"),
], ids=["divide", "modulo", "overflow"])
def test_an_arithmetic_fault_in_a_run_is_an_engine_error(update, message):
    """A division or remainder by zero, or an int update that overflows to
    a non-finite value, ends the run with an EngineError that says what
    and when, although validation accepts the model."""
    text = _FAULTY % update
    assert validate_model(parse_model(text)).ok
    with pytest.raises(EngineError, match=f"^{re.escape(message)}"):
        runs(text, 10, 1)


# Each delay after the first ends at x = 0.1 + 3 * 0.3, one ulp short of
# the guard's boundary 1, so each firing after it takes the 1e-9 nudge.
_NUDGED = """
clock x;
template T() {
  init loc a { inv x <= 1; rate x = 3; }
  a -> a { guard x >= 1; update x := 0.1; }
}
system T;
"""


# _NUDGED with x's rate evaluated, from an int variable and through a
# clock: each takes _NUDGED's steps, so each of its firings after the first
# takes the nudge too, under the rate that the step evaluated
_NUDGED_EVALUATED = [
    _NUDGED.replace("clock x;", "int k = 3; clock x;").replace(
        "rate x = 3;", "rate x = k;"),
    _NUDGED.replace("clock x;", "clock x; clock y;").replace(
        "rate x = 3;", "rate x = 3 + 0 * y;")]


# Two actors whose windows are the one point x = y = 1 draw equal delays,
# which the first in component order wins; B wins the step after.
_TIED = """
clock x;
clock y;
template A() {
  init loc a { inv x <= 1; }
  a -> a { guard x >= 1; update x := 0; }
}
template B() {
  init loc b { inv y <= 1; }
  b -> b { guard y >= 1; update y := 0; }
}
system A, B;
"""

# A stepped plan, integrated by RK4: x and y rotate, and the rates of p and
# q repeat the sum x + y; U's resets make a bounded sojourn race T's
# exponential one.
REPEATED_SUMS = """
clock x = 1;
clock y;
clock p;
clock q;
clock z;
template T() {
  init loc a {
    exitrate 2;
    rate x = -y; rate y = x; rate p = (x + y) * 0.5;
    rate q = (x + y) * p - (x + y);
  }
  a -> a { update p := 0; }
}
template U() {
  init loc u { inv z <= 2; }
  u -> u { guard z >= 1; update z := 0, q := q / 2; }
}
system T, U;
"""


def _run_error(exc, time):
    """The error that ``engine.run`` raises for ``exc``, an arithmetic or
    engine error at ``time``: ``exc`` itself if it is an engine error that
    names no guard, invariant, rate or update."""
    where = getattr(exc, "where", None)
    if isinstance(exc, ArithmeticError):
        message = (f"arithmetic error at t={time}: "
                   f"{type(exc).__name__}: {exc}")
    elif where is not None:
        message = f"{exc} at t={time}"
    else:
        return exc
    return EngineError(message + ("" if where is None else f", in {where}"))


def _zeno(config, time):
    """The error of a run that takes ``config.max_steps`` steps."""
    return EngineError("zeno/committed-loop: step ceiling "
                       f"({config.max_steps}) exceeded at t={time}")


def _stepwise_run(net, bound, rng, watch=(), config=None, monitor=None):
    """Reference run of the compiled network ``net``: ``Simulator.step``
    called until the run ends, with the trace, end and error texts that
    ``engine.run`` gives."""
    sim = engine.Simulator(net, rng, config, watch, monitor)
    events = []
    try:
        initial = sim._last[0] = sim._snapshot()
        for _ in range(sim.config.max_steps):
            result = sim.step(bound)
            if isinstance(result, str):
                return engine.Trace(initial, events, sim.time, result,
                                    sim._snapshot(),
                                    {cc.name: loc for cc, loc
                                     in zip(net.components, sim.L)})
            events.append(result)
    except (ArithmeticError, EngineError) as exc:
        raise _run_error(exc, sim.time) from None
    raise _zeno(sim.config, sim.time)


def _exact(compiled, L):
    """Whether one midpoint step integrates the clock-reading rates of
    configuration ``L`` exactly: every rate is affine in clocks, and none
    reads a clock that such a rate integrates."""
    locs = [loc for loc in (cc.locations[L[cc.index]]
                            for cc in compiled.components)
            if not loc.committed]
    reading = [(slot, reads) for loc in locs
               for slot, _, reads, _ in loc.rates if reads]
    integrated = {slot for slot, _ in reading}
    return (all(loc.affine for loc in locs)
            and not any(reads & integrated for _, reads in reading))


def _looped_sojourn(V, L, rates, receiving, time):
    """An actor's sojourn as (start or None, deadline) by the loop
    references, ``_deadline`` and ``_start``, for ``_race``: an invariant
    false already raises as a step kernel's race does."""
    def sojourn(cc, loc):
        deadline = _deadline(loc, V, L, rates)
        if deadline == 0.0:
            raise EngineError(
                f"invariant of {loc.name} violated at entry (t={time})")
        return _start(V, L, rates, deadline, receiving, cc, loc)[0], deadline
    return sojourn


def _reference_run(compiled, bound, rng, watch=(), config=None,
                   monitor=None):
    """Reference run of the compiled network ``compiled`` that runs no
    kernel of the engine: each step by the loop references over the
    compiled closures, with the trace, end and error texts that
    ``engine.run`` gives.

    A committed step fires the first committed component with an enabled
    edge (``_enabled_edges``, ``_choose``, ``_fire``), and reads the last
    sample again as the sample before it.  A timed step races every
    component by ``_race`` with sojourns from ``_deadline`` and ``_start``
    (one with no active edge and no invariant draws and caps nothing),
    under the rates of the step's start, stops time at the bound or at the cap,
    advances the clocks by ``_advance_reference`` (numpy), and fires the
    winner after a fresh sample; a winner with no enabled edge takes the
    1e-9 nudge first.  A sample calls ``monitor(V, L)``, if any, and
    evaluates each watched closure."""
    config = config or RunConfig()
    V, L = compiled.initial_state()
    watched = compiled.compile_watch(watch)
    time = 0.0

    def snapshot():
        sample = monitor(V, L) if monitor is not None else engine._UNWATCHED
        return {key: fn(V, L) for key, fn in watched} if watched else sample

    def fire(cc, loc, enabled, pre):
        edge = _choose(rng, enabled)
        _fire(compiled, V, L, receiving, rng, cc, edge)
        return (time, cc.name, edge.label, edge.channel, pre, snapshot())

    def advance(dt):
        _advance_reference(compiled, V, L, dt, config.h_max,
                           _exact(compiled, L))
        return time + dt

    events = []
    try:
        last = initial = snapshot()
        for _ in range(config.max_steps):
            located = [(cc, cc.locations[L[cc.index]])
                       for cc in compiled.components]
            receiving = _receiving(compiled, L)
            committed = [(cc, loc) for cc, loc in located if loc.committed]
            for cc, loc in committed:
                enabled = _enabled_edges(V, L, receiving, cc, loc)
                if enabled:
                    fired = fire(cc, loc, enabled, last)
                    break
            else:
                if committed:
                    end = "deadlock"
                    break
                rates = _rates(compiled, V, L)
                remaining = bound - time
                delay, winner, cap = _race(
                    located, rng,
                    _looped_sojourn(V, L, rates, receiving, time))
                stop = cap if cap < remaining else remaining
                if delay > stop:
                    dt = stop
                    end = ("bound_reached" if cap >= remaining
                           else "deadlock")
                else:
                    dt, end = delay, None
                if dt < 0:
                    if dt < -1e-6:
                        raise EngineError("negative dt")
                    dt = 0.0
                if dt != 0.0:
                    time = advance(dt)
                if end is not None:
                    break
                cc, loc = winner
                enabled = _enabled_edges(V, L, receiving, cc, loc)
                if not enabled:  # a boundary guard a few ulps short
                    time = advance(1e-9)
                    enabled = _enabled_edges(V, L, receiving, cc, loc)
                if not enabled:
                    raise EngineError(
                        f"{cc.name}: no edge enabled at its sampled delay "
                        "(guard window closed; engine defect or unsupported "
                        "model)")
                fired = fire(cc, loc, enabled, snapshot())
            last = fired[5]
            events.append(fired)
        else:
            raise _zeno(config, time)
    except (ArithmeticError, EngineError) as exc:
        raise _run_error(exc, time) from None
    return engine.Trace(initial, events, time, end, snapshot(),
                        {cc.name: loc for cc, loc
                         in zip(compiled.components, L)})


def _each_way(compiled, bound, rng_args, watch=(), config=None):
    """One run by ``engine.run``, by the stepwise reference and by the
    reference that runs no kernel, each as a list: the repr of each
    event's time, component, edge, channel and samples, and of the start's
    sample, the end time and reason, the final sample and the locations,
    then, without a watch, the state lists that a monitor saw at each
    sample point; and the run's end reason."""
    out = []
    for simulate in (run, _stepwise_run, _reference_run):
        calls = []

        def monitor(V, L):
            calls.append((list(V), list(L)))
            return engine._UNWATCHED

        tr = simulate(compiled, bound, RngStream(*rng_args), watch, config,
                      monitor=None if watch else monitor)
        out.append([*map(repr, (
            *tr.events,
            (tr.initial, tr.end_time, tr.end_reason, tr.final,
             tr.locations))), *calls])
    return (*out, tr.end_reason)


def _assert_same(got, want):
    """``got == want``, naming the first item that differs."""
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    assert len(got) == len(want) == first, (first, got[first:first + 1],
                                            want[first:first + 1])


def test_run_takes_the_steps_of_the_stepwise_reference():
    """``engine.run`` steps in its own frame; ``Simulator.step`` takes the
    same steps one call at a time, through the same kernels, and
    ``_reference_run`` takes them by the loop references, through none.
    All three give the same runs, event by event and bit for bit, with a
    watch and with a monitor, on vehicle runs and on models that end each
    way a step can end, take the 1e-9 nudge, under a literal or an
    evaluated rate, or end 5e-10 past the bound after one, draw tied
    delays or integrate by RK4, and all three fail with the same text."""
    with timed(60):
        vehicle = engine.CompiledNetwork(
            instantiate(parse_model((MODELS / "av.sta").read_text())))
        config = RunConfig(h_max=10.0)
        ends = set()
        for watch in (["(wvl + wvr) / 2", "energy.Con_en", "mode"], []):
            for i in range(20):
                got, *wants, _ = _each_way(vehicle, 3000, (42, i), watch,
                                           config)
                for want in wants:
                    _assert_same(got, want)
        models = [(_timed(templates), bound, ["x", "y"])
                  for templates, bound, _, _ in _TIMED_ENDS.values()]
        models += [(_listened(8), 100, ["heard"]),
                   (_timed(_TIME_LOCK), 10, ["x", "y"]),
                   (COMMITTED, 6, ["n", "x"]), (_NUDGED, 5, ["x"]),
                   (_TIED, 10, ["x", "y"]), (REPEATED_SUMS, 20, ["q"])]
        nudged = run(net(_NUDGED), 1, RngStream(0, 0)).events[1][0]
        models.append((_NUDGED, nudged - 5e-10, ["x"]))
        times = [e[0] for e in run(net(_NUDGED), 5, RngStream(0, 0)).events]
        for text in _NUDGED_EVALUATED:
            evaluated = engine.CompiledNetwork(net(text))
            plan = evaluated.step_table(["a"])._plan
            assert len(plan.fixed + plan.probed) == 1
            assert [e[0] for e in run(evaluated, 5, RngStream(0, 0)).events] \
                == times
            models.append((text, 5, ["x"]))
        for text, bound, watch in models:
            network = engine.CompiledNetwork(net(text))
            for i in range(20):
                for seen in (watch, []):
                    got, *wants, end = _each_way(network, bound, (0, i), seen)
                    for want in wants:
                        _assert_same(got, want)
                    ends.add(end)
        assert ends == {"bound_reached", "deadlock"}
        for text, cfg in ((_ZENO, RunConfig(max_steps=1000)),
                          (_FAULTY % "n := x / 0", None)):
            texts = []
            for simulate in (run, _stepwise_run, _reference_run):
                with pytest.raises(EngineError) as exc:
                    simulate(engine.CompiledNetwork(net(text)), 10,
                             RngStream(0, 0), config=cfg)
                texts.append(str(exc.value))
            assert texts[0] == texts[1] == texts[2]
        assert texts[0].endswith(", in the update of edge a->b#0 of T")


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
    event_snap = tr.events[0][5]
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
    # a monitor of a run that watches nothing returns the shared empty dict
    monitored = run(network, 7, RngStream(0, 0),
                    monitor=lambda V, L: seen.append((V[k], V[x], L[0]))
                    or engine._UNWATCHED)
    watched = run(network, 7, RngStream(0, 0), watch=["k", "x", "T.b"])
    assert seen == [(s["k"], s["x"], "b" if s["T.b"] else "a")
                    for _, s in watched.samples()]
    assert len(seen) == 2 * len(monitored.events) + 2
    # a monitor changes nothing in the run, and the trace watches nothing
    assert [e[0] for e in monitored.events] == \
        [e[0] for e in watched.events]
    assert all(snap == {} for _, snap in monitored.samples())
    assert monitored.locations == watched.locations == {"T": "a"}


# Starts committed; a timed step to b, then a committed one back to a or
# on to c, and a committed step from c.
COMMITTED = """
int n = 0;
clock x;
template T() {
  init committed loc go;
  loc a { inv x <= 1; }
  committed loc b;
  committed loc c;
  go -> a { update n := 1; }
  a -> b { guard x >= 1; update x := 0, n := n + 1; }
  b -> a { weight 3; update n := n + 10; }
  b -> c { }
  c -> a { update n := n * 2; }
}
system T;
"""


def test_a_committed_step_samples_only_after_it_fires():
    """No time passes before a committed step, so the sample before it is
    the last sample point, the run's start or the sample after the event
    before, and the monitor is not called again: a run's monitor calls are
    2 + events + timed events."""
    compiled = engine.CompiledNetwork(net(COMMITTED))
    committed = {"go", "b", "c"}
    seen = set()
    for i in range(10):
        calls = []
        tr = run(compiled, 6, RngStream(5, i), watch=["n", "x"],
                 monitor=lambda V, L: calls.append(list(V)))
        before = tr.initial
        timed = 0
        for _, _, edge, _, pre, post in tr.events:
            if edge.split("->")[0] in committed:
                assert pre is before
            else:
                assert pre is not before
                timed += 1
            seen.add(edge.split("#")[0])
            before = post
        assert len(calls) == 2 + len(tr.events) + timed
        assert tr.events[0][2] == "go->a#0"
    assert seen == {"go->a", "a->b", "b->a", "b->c", "c->a"}


# A run that starts committed, as in the CI's committed.sta, and a
# broadcast emitted from a committed location to two receivers, which
# update the emitter's count.
_STARTS_COMMITTED = """
int n = 0;
clock x;
template T() {
  init committed loc go;
  loc a { inv x <= 2; }
  go -> a { update n := 1; }
  a -> a { guard x >= 1; update x := 0, n := n + 1; }
}
system T;
"""
_BROADCAST = """
int sent = 0;
int got = 0;
clock x;
broadcast chan go;
template Emit() {
  init loc a { inv x <= 1; }
  committed loc b;
  a -> b { guard x >= 1; update x := 0; }
  b -> a { sync go!; update sent := sent + 1; }
}
template Recv() {
  init loc w;
  w -> w { sync go?; update got := got + sent; }
}
system Emit, r1 = Recv(), r2 = Recv();
"""


@pytest.mark.parametrize("text, committed, watch", [
    (_STARTS_COMMITTED, "go", ["n", "x"]),
    (_BROADCAST, "b", ["sent", "got", "x"]),
], ids=["starts-committed", "broadcast"])
def test_an_event_takes_both_of_its_samples_in_its_fire_kernel(
        text, committed, watch):
    """The sample before a committed event is the last sample point's dict
    itself, and before a timed event a fresh one; the sample after is
    taken once every receiver has synced, so it holds their updates.  The
    stepwise simulator returns the same events."""
    compiled = engine.CompiledNetwork(net(text))
    for i in range(5):
        tr = run(compiled, 12, RngStream(3, i), watch)
        before, kinds = tr.initial, set()
        for _, _, edge, channel, pre, post in tr.events:
            if edge.startswith(f"{committed}->"):
                assert pre is before
            else:
                assert pre is not before and pre["x"] > before["x"]
            kinds.add(pre is before)
            if channel == "go":  # each receiver adds the count it read
                assert post["got"] == pre["got"] + 2 * post["sent"]
            before = post
        assert kinds == {True, False}
        sim = engine.Simulator(compiled, RngStream(3, i), watch=watch)
        sim._last[0] = sim._snapshot()
        stepped = [sim.step(12) for _ in tr.events]
        assert stepped == tr.events and sim._last[0] is stepped[-1][5]


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


class _Checking(engine.Simulator):
    """A simulator that checks every invariant at the end of the delay a
    timed step ends with, before any 1e-9 nudge, and after each firing.
    An invariant passes if it holds, or held 1e-9 time units ago under the
    current rates: the window search probes 1e-9 past each crossing, so a
    delay may end that far beyond a boundary."""

    def step(self, bound):
        result = super().step(bound)
        if not isinstance(result, str):
            self._check("after a firing")
        return result

    def sample_delay(self, table, bound):
        ended = super().sample_delay(table, bound)
        self._check("at the end of a delay")
        return ended

    def _check(self, when):
        V, L = self.V, self.L
        for cc in self.net.components:
            loc = cc.locations[L[cc.index]]
            if loc.invariant is None or loc.invariant(V, L):
                continue
            if loc.inv_probe(V, L, _rates(self.net, V, L), -1e-9):
                continue
            tpl = self.net.network.components[cc.index].template
            inv = next(x.invariant for x in tpl.locations if x.id == loc.id)
            raise EngineError(f"invariant {E.to_text(inv)!r} of {loc.name} "
                              f"violated {when} (t={self.time})")


def _checked_run(network, bound, rng, config=None):
    """Run ``network`` to ``bound`` on a :class:`_Checking` simulator."""
    sim = _Checking(engine.CompiledNetwork(network), rng, config)
    for _ in range(sim.config.max_steps):
        if isinstance(sim.step(bound), str):
            return sim
    raise AssertionError("step ceiling exceeded")


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
    assert runs(text, 10, 1)[0].end_reason == "bound_reached"
    with pytest.raises(EngineError, match=r"invariant 'e <= 8' of T\.a "
                       r"violated at the end of a delay"):
        _checked_run(net(text), 10, RngStream(0, 0))


def test_check_invariants_accepts_the_vehicle_runs():
    """The window search may end a delay up to 1e-9 time units past an
    invariant boundary (a braking wheel ends some delays at a speed of
    about -8e-9 under `inv wvr >= 0`); the check allows that, so vehicle
    runs pass it, and it changes none of them."""
    network = instantiate(parse_model((MODELS / "av.sta").read_text()))
    config = RunConfig(h_max=10.0)
    for i in range(4):
        sim = _checked_run(network, 3000, RngStream(42, i), config)
        trace = run(network, 3000, RngStream(42, i), config=config)
        assert sim.time == trace.end_time
        assert sim.L == list(trace.locations.values())


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


def _rates(compiled, V, L):
    """The rate at each slot of ``V`` in configuration ``L``, as a probe
    reads it: each rate of a location that is not committed evaluated, and
    1 at every other slot, an unrated clock's rate."""
    rates = [1.0] * len(V)
    for cc in compiled.components:
        loc = cc.locations[L[cc.index]]
        if not loc.committed:
            for slot, fn, _, _ in loc.rates:
                rates[slot] = fn(V, L)
    return rates


def _advance(compiled, V, L, dt, h_max):
    """Advance every clock of ``V`` by ``dt`` by the advance kernel of
    configuration ``L``'s rate plan, which the step kernel calls, given the
    clock-free rates that are not literals, evaluated."""
    plan = compiled.step_table(L)._plan
    advance = engine._advance_kernel(plan.clocks)
    if advance is not None:
        advance(V, L, dt, h_max, *(fn(V, L) for _, fn, _ in plan.fixed))


def _advance_reference(compiled, V, L, dt, h_max, exact):
    """Reference advance: dict rates and numpy arrays, integrated by
    one midpoint step if ``exact``, otherwise by RK4."""
    const_rates, var_rates = {}, {}
    for cc in compiled.components:
        loc = cc.locations[L[cc.index]]
        if loc.committed:
            continue
        for key, fn, reads, _ in loc.rates:
            if reads:
                var_rates[key] = fn
            else:
                const_rates[key] = float(fn(V, L))
    for key in compiled.clock_slots:
        if key not in var_rates and key not in const_rates:
            const_rates[key] = 1.0
    base = {key: V[key] for key in const_rates}
    if var_rates:
        ykeys = list(var_rates)
        y = np.array([V[k] for k in ykeys], dtype=float)
        n_steps = max(1, math.ceil(dt / h_max))
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
        rates = _rates(compiled, slot_V, slot_L)
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


@functools.cache
def _sojourn_kernel(race):
    """``(V, L, R, receivers, time)``: (start or None, deadline) of an
    actor, its race part ``race``, by the lines that a step kernel's race
    runs for it (``engine._sojourn_lines``)."""
    deadline = "INF" if race.invariant is None else "deadline"
    return engine._kernel("sojourn", [
        "def _k(V, L, R, receivers, time):",
        *engine._indent(engine._sojourn_lines(race)),
        f"    return start, {deadline}"])


def _sojourn(loc, V, L, rates, receivers, time=0.0):
    """``loc``'s sojourn as a step kernel's race finds it: (its start or
    None, its deadline)."""
    return _sojourn_kernel(loc.race)(V, L, rates, receivers, time)


def _deadline(loc, V, L, rates):
    """Reference deadline of an invariant: when the loop over its probe
    closures finds it false, INF for never or for no invariant."""
    if loc.invariant is None:
        return math.inf
    t = _earliest(loc.invariant, loc.inv_probe, loc.inv_atoms, V, L, rates,
                  math.inf, False)
    return math.inf if t is None else t


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta"])
def test_window_kernels_match_the_loop_reference(name):
    """A step kernel's race lines for an actor find when its location's
    invariant closes as the loop over the probe closures does, and say the
    invariant is violated where it is false already; they search its
    guards' windows by the same lines
    (test_start_kernels_match_the_loop_reference)."""
    compiled, states = _vehicle_states(name)
    _edges(compiled)  # generates every location's kernels
    invariant = [loc for cc in compiled.components
                 for loc in cc.locations.values()
                 if loc.invariant is not None and loc.race is not None]
    assert len(invariant) > 10
    found = set()
    for V, L in states:
        sim = _at(compiled, V, L)
        V, L = sim.V, sim.L
        table = compiled.step_table(L)
        rates = _rates(compiled, V, L)
        for loc in invariant:
            want = _deadline(loc, V, L, rates)
            if want == 0.0:
                with pytest.raises(EngineError, match=(
                        rf"^invariant of {loc.name} violated at entry "
                        r"\(t=2\.5\)$")):
                    _sojourn(loc, V, L, rates, table.receivers, 2.5)
            else:
                _, got = _sojourn(loc, V, L, rates, table.receivers)
                assert _bits([got]) == _bits([want])
            found.add("now" if want == 0.0 else
                      "never" if want == math.inf else "later")
    assert found == {"now", "later", "never"}


# the predicates of the rows below, as the guards of one location's edges
_PREDICATES = ("x <= 5", "x > 5", "x >= 5", "x >= 2 && y <= 7",
               "x >= 2 && y <= 7 && x <= 9", "x >= 2 && n > 0",
               "m > 0 && x >= 2", "n > 0", "m > 0")
_WINDOWS = ("int n = 0; int m = 1; clock x; clock y; "
            "template T() { init loc a; "
            + " ".join(f"a -> a {{ guard {p}; }}" for p in _PREDICATES)
            + " } system T;")


@pytest.mark.parametrize("pred, want, x, y, rates, horizon, t", [
    # a guard's start: the earliest t with the predicate true
    ("x > 5", True, 5.0, 0.0, (1.0, 1.0), None, 1e-9),
    ("x >= 5", True, 3.0, 0.0, (0.0, 1.0), None, None),
    ("x >= 5", True, 5.0 - 4e-10, 0.0, (1.0, 1.0), None, 1e-9),
    ("x >= 5", True, 0.0, 0.0, (1.0, 1.0), 4.0, None),
    ("x >= 5", True, 0.0, 0.0, (1.0, 1.0), 5.0, 5.0),
    # an invariant's deadline: the earliest t with the predicate false
    ("x <= 5", False, 5.0, 0.0, (1.0, 1.0), None, 1e-9),
    ("x <= 5", False, 3.0, 0.0, (0.0, 1.0), None, None),
    ("x <= 5", False, 5.0 - 4e-10, 0.0, (1.0, 1.0), None, 1e-9),
    ("x <= 5", False, 0.0, 0.0, (1.0, 1.0), 4.0, None),
    ("x <= 5", False, 0.0, 0.0, (1.0, 1.0), 5.0, 5.0),
    # two atoms, whose crossings 2 and 1.75 the lines order
    ("x >= 2 && y <= 7", False, 3.0, 0.0, (1.0, 4.0), None, 1.75),
    ("x >= 2 && y <= 7", True, 0.0, 0.0, (1.0, 0.5), None, 2.0),
    # two atoms, of which only the second crosses, or neither
    ("x >= 2 && y <= 7", True, 3.0, 9.0, (0.0, -1.0), None, 2.0),
    ("x >= 2 && y <= 7", True, 0.0, 9.0, (0.0, 0.0), None, None),
    # three atoms, whose crossings 2, 14 and 9 or 1.75 and 6 the loop sorts
    ("x >= 2 && y <= 7 && x <= 9", True, 0.0, 0.0, (1.0, 0.5), None, 2.0),
    ("x >= 2 && y <= 7 && x <= 9", False, 3.0, 0.0, (1.0, 4.0), None, 1.75),
    # gated: a false clock-free conjunct, n > 0, shuts the window; a true
    # one, m > 0, opens it
    ("x >= 2 && n > 0", True, 0.0, 0.0, (1.0, 1.0), None, None),
    ("m > 0 && x >= 2", True, 0.0, 0.0, (1.0, 1.0), None, 2.0),
    # no clock atom: the test at 0 alone
    ("n > 0", True, 0.0, 0.0, (1.0, 1.0), None, None),
    ("m > 0", True, 0.0, 0.0, (1.0, 1.0), None, 0.0),
], ids=["start-at-0-with-a-slope", "start-zero-slope",
        "start-crossing-before-1e-9", "start-crossing-past-the-horizon",
        "start-crossing-at-the-horizon", "deadline-at-0-with-a-slope",
        "deadline-zero-slope", "deadline-crossing-before-1e-9",
        "deadline-crossing-past-the-horizon",
        "deadline-crossing-at-the-horizon", "deadline-two-atoms",
        "start-two-atoms", "start-two-atoms-second-crosses",
        "start-two-atoms-neither-crosses", "start-three-atoms",
        "deadline-three-atoms", "gate-shut", "gate-open", "no-clock-false",
        "no-clock-true"])
def test_one_atom_windows_match_the_loop_reference(pred, want, x, y, rates,
                                                   horizon, t):
    """A window search over at most two atoms is straight-line code: it
    probes 1e-9, then each crossing that the horizon admits (``<=``), in
    increasing order.  It finds what the loop reference finds, bit for bit,
    for a guard's start and an invariant's deadline, as the search over
    three atoms does, which keeps its loop.  A guard's search past 0 is
    gated by its clock-free conjuncts, and a guard that reads no clock has
    none; each finds what the reference finds."""
    compiled = engine.CompiledNetwork(net(_WINDOWS))
    edge = compiled.components[0].locations["a"].active[
        _PREDICATES.index(pred)]
    (V, L), R = compiled.initial_state(), [0.0] * len(compiled.keys)
    V[compiled.slots["x"]], V[compiled.slots["y"]] = x, y
    R[compiled.slots["x"]], R[compiled.slots["y"]] = rates
    lines = engine._window_lines(
        edge.guard, edge.guard_probe, edge.guard_atoms, want,
        lambda t: [f"return {t}"], None if horizon is None else "h",
        gate=edge.guard_gate)
    looped = {line.strip() for line in lines} >= {"c.sort()", "for t in c:"}
    assert looped == (len(edge.guard_atoms) > 2)
    search = engine._kernel("window", ["def _k(V, L, R, h):",
                                       *engine._indent(lines),
                                       "    return None"])
    got = search(V, L, R, horizon)
    want_t = _earliest(edge.guard, edge.guard_probe, edge.guard_atoms, V, L,
                       R, math.inf if horizon is None else horizon, want)
    assert _bits([got]) == _bits([want_t]) == _bits([t])


def _typed(compiled, edge) -> list:
    """[(slot, right-hand side, the slot's value type)] of ``edge``'s
    updates."""
    return [(slot, fn, compiled.var_types[compiled.keys[slot]])
            for slot, fn, _ in edge.stores]


def _staged(compiled, V, L, edge):
    """Reference updates of ``edge``: every right-hand side evaluated, then
    each stored through ``_coerce``; a fault names the edge, as the update
    kernel's does."""
    try:
        staged = [(slot, fn(V, L), vtype)
                  for slot, fn, vtype in _typed(compiled, edge)]
        for slot, value, vtype in staged:
            V[slot] = engine.CompiledNetwork._coerce(value, vtype)
    except (ArithmeticError, EngineError) as exc:
        exc.where = f"the update of {edge.where}"
        raise


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta"])
def test_update_kernels_match_the_staged_loop(name):
    """Each edge's update kernel leaves V as evaluating every right-hand
    side and then storing it through ``_coerce`` does."""
    compiled, states = _vehicle_states(name)
    edges = [e for _, e in _edges(compiled) if e.stores]
    assert len(edges) > 20
    assert all(e.update is None for _, e in _edges(compiled)
               if not e.stores)
    for V, L in states:
        sim = _at(compiled, V, L)
        for edge in edges:
            want = list(sim.V)
            try:
                _staged(compiled, want, sim.L, edge)
            except EngineError as exc:
                with pytest.raises(EngineError, match=f"^{exc}$"):
                    edge.update(list(sim.V), sim.L)
                continue
            got = list(sim.V)
            edge.update(got, sim.L)
            assert _bits(got) == _bits(want)


def test_vehicle_int_updates_store_without_conversion():
    """Every int update of the vehicle stores an integral literal or a lone
    int variable: its update kernel calls no ``_coerce`` and stores an
    ``int``.  An int store of any other form still converts."""
    compiled, states = _vehicle_states("av.sta")
    edges = [e for _, e in _edges(compiled)
             if any(vtype == "int" for _, _, vtype in _typed(compiled, e))]
    assert sum(vtype == "int" for e in edges
               for _, _, vtype in _typed(compiled, e)) > 20
    for edge in edges:
        assert "_coerce" not in edge.update.__code__.co_names
    for V, L in states[::10]:
        sim = _at(compiled, V, L)
        for edge in edges:
            got = list(sim.V)
            edge.update(got, sim.L)
            assert all(type(got[slot]) is int
                       for slot, _, vtype in _typed(compiled, edge)
                       if vtype == "int")
    [edge] = [e for _, e in _edges(engine.CompiledNetwork(net(_FAULTY % (
        "n := n + 1"))))]
    assert "_coerce" in edge.update.__code__.co_names


# The fire kernels' reference, a firing in loop form: scan the enabled
# edges, choose one by weight, apply it, and sync each receiver that was
# ready before the emitter's updates, since every guard of a sync reads the
# state before it.  ``receiving`` is the receive edges per channel of a
# location configuration (_receiving).


def _receiving(compiled, L):
    """{channel: [(component, its receive edges on it)]} in the location
    configuration ``L``, in component order."""
    receiving = {}
    for cc in compiled.components:
        for ch, edges in cc.locations[L[cc.index]].receive.items():
            receiving.setdefault(ch, []).append((cc, edges))
    return receiving


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


def _fire(compiled, V, L, receiving, rng, cc, edge):
    """Apply one edge plus any synchronized receivers; returns the channel
    and the receivers."""
    receivers = _receivers(V, L, receiving, cc, edge.channel)
    _staged(compiled, V, L, edge)
    L[cc.index] = edge.target
    if edge.binary is not None:
        receivers = receivers[:1]
    for other, enabled in receivers:
        chosen = _choose(rng, enabled)
        _staged(compiled, V, L, chosen)
        L[other.index] = chosen.target
    return edge.channel, receivers


class _Recording(engine.Simulator):
    """A simulator that keeps a copy of the state after every delay, where
    a timed actor is about to fire."""

    def sample_delay(self, table, bound):
        ended = super().sample_delay(table, bound)
        self.states.append((list(self.V), list(self.L)))
        return ended


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
    """Fire each component of state (V, L) by its location's kernel, with
    the step table's receive kernels, and by the loop form, on copies of
    the state and equal random streams."""
    receiving = _receiving(compiled, L)
    kernels = compiled.step_table(L).receivers
    for cc in compiled.components:
        loc = cc.locations[L[cc.index]]
        want_V, want_L = list(V), list(L)
        enabled = _enabled_edges(want_V, want_L, receiving, cc, loc)
        got_V, got_L, snaps = list(V), list(L), []

        def sampler(name):
            def take():
                snaps.append((name, list(got_V), list(got_L)))
                return name
            return take

        samplers = (sampler("pre"), sampler("post"), 1.5)
        if not enabled:  # nothing fires, so nothing draws
            assert loc.fire(got_V, got_L, kernels, None, *samplers) is None
            assert (got_V, got_L, snaps) == (V, L, [])
            continue
        want_rng, got_rng = RngStream(7, len(seen)), RngStream(7, len(seen))
        edge = _choose(want_rng, enabled)
        channel, receivers = _fire(compiled, want_V, want_L, receiving,
                                   want_rng, cc, edge)
        got = loc.fire(got_V, got_L, kernels, got_rng, *samplers)
        assert got == (1.5, cc.name, edge.label, channel, "pre", "post")
        # the sample before, taken once, and the one after every receiver
        assert snaps == [("pre", V, L), ("post", got_V, got_L)]
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

# Broadcasts on a channel that nobody receives until Recv has moved to w;
# there the receiver draws between two enabled edges while `got` is even.
QUIET = """
int got = 0;
clock x;
clock y;
broadcast chan go;
template Emit() {
  init loc a { inv x <= 1; }
  a -> a { guard x >= 1; weight 2; sync go!; update x := 0, got := got + 1; }
  a -> a { guard x >= 1; sync go!; update x := 0; }
}
template Recv() {
  init loc idle { inv y <= 3; }
  loc w;
  idle -> w { guard y >= 2; }
  w -> w { guard got % 2 == 0; sync go?; update got := got + 10; }
  w -> w { weight 3; sync go?; update got := got + 100; }
}
system Emit, Recv;
"""

# A binary emit from a timed location, next to an internal edge: no
# receiver is ready while `hits % 3` is 0, two while it is 1, and one, Recv,
# while it is 2.
TIMED_BINARY = """
int hits = 0;
clock x;
chan go;
template Emit() {
  init loc a { inv x <= 2; }
  a -> a { guard x >= 1; sync go!; update x := 0; }
  a -> a { guard x >= 1.5; update x := 0, hits := hits + 1; }
}
template Recv() {
  init loc w;
  w -> w { guard hits % 3 != 0; sync go?; update hits := hits + 1; }
}
template Late() {
  init loc w;
  w -> w { guard hits % 3 == 1; sync go?; update hits := hits + 2; }
}
system Emit, Recv, Late;
"""

# A cannot fire before its invariant closes, so it caps every delay; B and
# C start at the same time, so draws of their least time tie.
CAPPED = """
clock x;
clock y;
clock z;
template A() {
  init loc a { inv x <= 2; }
  a -> a { guard x >= 3; update x := 0; }
}
template B() {
  init loc b { inv y <= 3; }
  b -> b { guard y >= 1; update y := 0; }
}
template C() {
  init loc c { inv z <= 3; }
  c -> c { guard z >= 1; update z := 0; }
}
system A, B, C;
"""

_SMALL = {"binary": BINARY, "broadcast": BROADCAST, "quiet": QUIET,
          "timed-binary": TIMED_BINARY, "capped": CAPPED}


def _kernel_states(name):
    """(compiled network, [(V, L)] slot lists) at the start of every step
    and after every delay of runs of a vehicle model or of ``_SMALL``."""
    if name.endswith(".sta"):
        compiled = engine.CompiledNetwork(
            instantiate(parse_model((MODELS / name).read_text())))
        states = _firing_states(compiled, 3, 1500, every=3)
        return compiled, states + _seldom_states(compiled, states)
    compiled = engine.CompiledNetwork(net(_SMALL[name]))
    return compiled, _firing_states(compiled, 20, 40)


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta", "binary",
                                  "broadcast", "quiet"])
def test_fire_kernels_match_the_loop_reference(name):
    """Each location's fire kernel leaves V and L as the loop form does, bit
    for bit, returns the same label and channel, and leaves the random
    stream at the same next draw; every internal or emitting edge with
    updates fires at least once."""
    vehicle = name.endswith(".sta")
    compiled, states = _kernel_states(name)
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
    # a table holds a receive kernel for each channel it emits on, and None
    # for a channel that no component of the configuration receives on
    kernels = [k for table in compiled._tables.values()
               for k in table.receivers.values()]
    assert any(kernels) and (name != "quiet" or None in kernels)
    assert chosen == ({False} if vehicle else {True, False})
    updating = {e for cc in compiled.components
                for loc in cc.locations.values() for e in loc.active
                if e.stores}
    assert len(updating) >= (20 if vehicle else 2)
    assert updating <= fired
    # the fire kernel applies an edge's updates by the edge's update kernel,
    # which the staged-loop test checks, error messages included
    for cc in compiled.components:
        for loc in cc.locations.values():
            for i, edge in enumerate(loc.active):
                if edge.stores:
                    assert loc.fire.__globals__[f"U{i}"] is edge.update


# weights whose running sums round: 0.1 + 0.2 is 0.30000000000000004
_WEIGHTS = (0.1, 0.2, 0.3, 0.4)


class _Uniform(RngStream):
    """A stream whose uniform on [0, the weights' ``sum()``) is ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self, lo, hi):
        assert (lo, hi) == (0.0, sum(_WEIGHTS))
        return self.u


def test_a_choice_among_always_enabled_edges_is_weighted_choice():
    """A location whose edges have neither a guard nor a binary emit fires
    by its running sums written in: the same index as
    ``RngStream.weighted_choice`` for every stream, leaving the stream at
    the same next draw, and for uniforms on and beside each running sum.
    Its total is ``sum()``, as weighted_choice's is: from Python 3.12 a
    compensated sum, which need not be the last running sum.  A location
    with a guarded or a binary-emit edge keeps weighted_choice's list."""
    edges = " ".join(f"a -> a {{ weight {w}; }}" for w in _WEIGHTS)
    compiled = engine.CompiledNetwork(net(
        f"template T() {{ init loc a; {edges} }} system T;"))
    V, L = compiled.initial_state()
    receivers = compiled.step_table(L).receivers
    fire = compiled.components[0].locations["a"].fire
    assert "uniform" in fire.__code__.co_names
    assert "weighted_choice" not in fire.__code__.co_names
    sums = [0.1, 0.30000000000000004, 0.6000000000000001, 1.0]
    assert engine._running_sums(list(_WEIGHTS)) == (sum(_WEIGHTS), sums)

    def label(rng):
        return fire(V, L, receivers, rng, dict, dict, 0.0)[2]

    picks = set()
    for i in range(400):
        got_rng, want_rng = RngStream(5, i), RngStream(5, i)
        got = label(got_rng)
        assert got == f"a->a#{want_rng.weighted_choice(list(_WEIGHTS))}"
        assert got_rng.uniform(0, 1) == want_rng.uniform(0, 1)
        picks.add(got)
    assert len(picks) == 4
    # each running sum, and the doubles on either side of it
    us = [0.0, *(u for acc in sums for u in (
        math.nextafter(acc, 0.0), acc, math.nextafter(acc, 2.0)))]
    want = [_Uniform(u).weighted_choice(list(_WEIGHTS)) for u in us]
    assert [label(_Uniform(u)) for u in us] == [f"a->a#{i}" for i in want]
    assert set(want) == {0, 1, 2, 3}

    for other in ("guard x >= 0;", "sync c!;"):
        compiled = engine.CompiledNetwork(net(
            f"clock x; chan c; template T() {{ init loc a; "
            f"a -> a {{ {other} }} {edges} }} "
            f"template R() {{ init loc w; w -> w {{ sync c?; }} }} "
            f"system T, R;"))
        compiled.step_table(compiled.initial_state()[1])
        fire = compiled.components[0].locations["a"].fire
        assert "weighted_choice" in fire.__code__.co_names


def test_a_table_holds_every_channel_its_actors_emit_on():
    """A step table of QUIET, as soon as it is built, maps go, which Emit
    broadcasts on in every configuration, to a receive kernel when Recv is
    at w, and to None when Recv idles and nobody receives; it holds no
    other channel."""
    compiled = engine.CompiledNetwork(net(QUIET))
    assert compiled.step_table(["a", "idle"]).receivers == {"go": None}
    [kernel] = compiled.step_table(["a", "w"]).receivers.values()
    assert kernel.__code__.co_filename.startswith("<receive go")
    # Recv, at index 1, has both edges enabled while got is even
    V, L = compiled.initial_state()
    L[1] = "w"
    assert [(index, len(edges)) for index, edges in kernel(V, L, 0)] == \
        [(1, 2)]


def _start(V, L, rates, horizon, receiving, cc, loc):
    """Reference start of an actor: the earliest window of its active edges
    at ``horizon``, 0 for an unguarded one, skipping a binary emit that
    does not have exactly one ready receiver; and whether one was
    skipped."""
    starts, gated = [], False
    for edge in loc.active:
        if edge.binary is not None and len(
                _receivers(V, L, receiving, cc, edge.binary)) != 1:
            gated = True
            continue
        start = 0.0 if edge.guard is None else _earliest(
            edge.guard, edge.guard_probe, edge.guard_atoms, V, L, rates,
            horizon, True)
        if start is not None:
            starts.append(start)
    return (min(starts) if starts else None), gated


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta", "binary",
                                  "broadcast", "timed-binary"])
def test_start_kernels_match_the_loop_reference(name):
    """A step kernel's race lines for an actor find when one of its
    location's active edges can first fire before the invariant's deadline
    as the loop over the edges' windows does, bit for bit.  A location
    takes part in races exactly when it is timed and has an active edge or
    an invariant."""
    compiled, states = _kernel_states(name)
    found, gated = set(), set()
    for V, L in states:
        table = compiled.step_table(L)
        rates = _rates(compiled, V, L)
        receiving = _receiving(compiled, L)
        for cc in compiled.components:
            loc = cc.locations[L[cc.index]]
            assert (loc.race is None) == (
                loc.committed or not loc.active and loc.invariant is None)
            if loc.race is None:
                continue
            deadline = _deadline(loc, V, L, rates)
            if deadline == 0.0:  # test_window_kernels_match_the_loop_...
                continue
            want, skipped = _start(V, L, rates, deadline, receiving, cc, loc)
            got = _sojourn(loc, V, L, rates, table.receivers)
            assert _bits(got) == _bits([want, deadline])
            found.add("never" if want is None else
                      "later" if want > 0 else "now")
            gated.add(skipped)
    # an actor that cannot fire before its deadline caps the delay
    assert found == ({"now", "later", "never"} if name.endswith(".sta")
                     else {"now", "later"})
    assert gated == ({True, False} if name == "timed-binary" else {False})


class _Draws:
    """A stand-in for a run's RngStream that records each draw and draws
    ``lo`` from a uniform and 0 from an exponential, so that actors which
    can fire at once tie."""

    def __init__(self):
        self.calls = []

    def uniform(self, lo, hi):
        self.calls.append(("uniform", lo, hi))
        return lo

    def exponential(self, rate):
        self.calls.append(("exponential", rate))
        return 0.0


def _race(actors, rng, sojourn):
    """Reference race of a timed step among ``actors``, (component,
    location) pairs in component order: each in turn finds its sojourn,
    ``sojourn(component, location)``, (start or None, deadline), and draws
    its delay; the least delay is kept by the first actor that drew it,
    and ``cap`` is the earliest deadline of an actor that cannot fire."""
    best, winner, cap = math.inf, None, math.inf
    for actor in actors:
        loc = actor[1]
        start, deadline = sojourn(*actor)
        if start is None:
            if deadline < cap:
                cap = deadline
            continue
        delay = (rng.uniform(start, deadline) if deadline < math.inf
                 else start + rng.exponential(loc.exit_rate or 1.0))
        if delay < best:
            best, winner = delay, actor
    return best, winner, cap


def _reference_step(compiled, table, V, L, rng, time, remaining, h_max):
    """A timed step up to its fire by the loop references, as the step
    kernel takes it: the per-actor loop's race under the rates of the
    step's start, time stopped at the bound or at the cap, then ``V``
    advanced by the delay; (time after the delay, winner, end)."""
    rates = _rates(compiled, V, L)
    delay, winner, cap = _race(
        table.actors, rng,
        lambda cc, loc: _sojourn(loc, V, L, rates, table.receivers))
    stop = cap if cap < remaining else remaining
    ends = delay > stop
    dt = stop if ends else delay
    if dt < 0:
        dt = 0.0
    if dt != 0.0:
        _advance(compiled, V, L, dt, h_max)
    end = ("bound_reached" if cap >= remaining else "deadlock") if ends \
        else None
    return time + dt, winner, end


@pytest.mark.parametrize("name", ["av.sta", "av_unrefined.sta", "binary",
                                  "timed-binary", "capped"])
def test_race_kernels_match_the_per_actor_loop(name):
    """A step table's step kernel draws what the loop over its actors
    draws, in the same order, and keeps the same winner, end and time
    after the delay, bit for bit: with draws that tie, the first actor in
    component order wins, and an actor that cannot fire stops time at its
    deadline.  Where an actor's invariant is false already, both raise,
    after the same draws."""
    compiled, states = _kernel_states(name)
    raced = ties = capped = violated = 0

    def both(V, L, table, want_rng, got_rng):
        """The step from a copy of ``V`` each way, checked to agree: the
        reference's, or None where both raise the same error."""
        want_V, got_V = list(V), list(V)
        step = functools.partial(table.step, got_V, L, table.receivers,
                                 got_rng, 0.0, table.actors, 100.0, 10.0)
        try:
            want = _reference_step(compiled, table, want_V, L, want_rng, 0.0,
                                   100.0, 10.0)
        except EngineError as exc:
            with pytest.raises(EngineError, match=f"^{re.escape(str(exc))}$"):
                step()
            return None
        got = step()
        assert _bits([got[0], *got_V]) == _bits([want[0], *want_V])
        assert got[1] is want[1] and got[2] == want[2]
        return want

    for n, (V, L) in enumerate(states):
        table = compiled.step_table(L)
        if table.step is None:  # a committed step races nobody
            continue
        want_rng, got_rng = _Draws(), _Draws()
        want = both(V, L, table, want_rng, got_rng)
        assert got_rng.calls == want_rng.calls
        if want is None:
            violated += 1
            continue
        drawn = [call[1] for call in want_rng.calls if call[0] == "uniform"]
        ties += want[2] is None and drawn.count(want[0]) > 1
        capped += want[2] == "deadlock"
        want_rng, got_rng = RngStream(7, n), RngStream(7, n)
        both(V, L, table, want_rng, got_rng)
        assert got_rng.uniform(0, 1) == want_rng.uniform(0, 1)
        raced += 1
    assert raced > 20
    if name.endswith(".sta"):  # _SELDOM holds a wheel whose invariant fails
        assert ties and violated
    if name == "capped":  # A caps every delay, and B and C tie
        assert ties and capped


# A location whose unguarded edge comes after a guarded one can fire at
# once, so its guard's window is not searched.  An unguarded binary emit can
# fire at once only while its one receiver is ready, so A's guard's window
# in FREE_BINARY is searched, and used while B is not ready.
FREE_AFTER_GUARD = """
int n = 0;
clock x;
template A() {
  init loc a { inv x <= 3; }
  a -> a { guard x >= 2; update x := 0; }
  a -> a { update n := n + 1; }
}
system A;
"""

FREE_BINARY = """
int n = 0;
clock x;
chan go;
template A() {
  init loc a { inv x <= 3; }
  a -> a { sync go!; update x := 0; }
  a -> a { guard x >= 2; update x := 0, n := n + 1; }
}
template B() {
  init loc w;
  w -> w { guard n % 2 == 1; sync go?; update n := n + 1; }
}
system A, B;
"""


def _timed_states(compiled, n_runs, bound, config=None):
    """{configuration: [(V, L, time)]}: the state at the start of the
    first 3 timed steps in each configuration that ``n_runs`` stepwise
    runs reach."""
    states = {}
    for i in range(n_runs):
        sim = engine.Simulator(compiled, RngStream(42, i), config)
        for _ in range(10 ** 4):
            if not compiled.step_table(sim.L).committed:
                seen = states.setdefault(tuple(sim.L), [])
                if len(seen) < 3:
                    seen.append((list(sim.V), list(sim.L), sim.time))
            if isinstance(sim.step(bound), str):
                break
    return states


@pytest.mark.parametrize("name", ["av.sta", "timed-ends", "free"])
def test_step_kernels_match_the_reference_kernels(name):
    """Each timed table's step kernel takes a step as the loop references
    do, bit for bit: the per-actor loop's race, whose delay, winner and cap
    give the time after the delay, the winner and the end, with the same
    draws, then the advance kernel's V under the rates of the step's
    start.  With ``located`` None it advances 1e-9, as the reference
    advance does.  This covers every timed table that 40 vehicle runs
    reach, every table of the _TIMED_ENDS models and both edge cases of an
    unguarded edge, at the bound and at a bound half a time unit ahead,
    where steps end."""
    h_max = 10.0 if name == "av.sta" else 0.05
    if name == "av.sta":
        compiled = engine.CompiledNetwork(
            instantiate(parse_model((MODELS / name).read_text())))
        cases = [(compiled, _timed_states(compiled, 40, 3000,
                                          RunConfig(h_max=h_max)), 3000)]
    else:
        texts = ([(_timed(templates), bound)
                  for templates, bound, _, _ in _TIMED_ENDS.values()]
                 if name == "timed-ends" else
                 [(FREE_AFTER_GUARD, 20), (FREE_BINARY, 20)])
        cases = []
        for text, bound in texts:
            compiled = engine.CompiledNetwork(net(text))
            cases.append((compiled, _timed_states(compiled, 20, bound),
                          bound))
    ends, nudged = set(), 0
    for compiled, states, bound in cases:
        timed = {config for config, table in compiled._tables.items()
                 if not table.committed}
        assert set(states) == timed
        for n, (V, L, time) in enumerate(
                state for seen in states.values() for state in seen):
            table = compiled.step_table(L)
            for remaining in (bound - time, 0.5):
                want_V, want_rng = list(V), RngStream(7, n)
                want = _reference_step(compiled, table, want_V, L, want_rng,
                                       time, remaining, h_max)
                got_V, got_rng = list(V), RngStream(7, n)
                got = table.step(got_V, L, table.receivers, got_rng, time,
                                 table.actors, remaining, h_max)
                assert _bits([got[0]]) == _bits([want[0]])
                assert got[1] is want[1] and got[2] == want[2]
                assert _bits(got_V) == _bits(want_V)
                assert got_rng.uniform(0, 1) == want_rng.uniform(0, 1)
                ends.add(got[2])
                if got[2] is None:  # a nudge after the delay
                    _advance(compiled, want_V, L, 1e-9, h_max)
                    after = table.step(got_V, L, table.receivers, None,
                                       got[0], None, 0.0, h_max)
                    assert after == (got[0] + 1e-9, None, None)
                    assert _bits(got_V) == _bits(want_V)
                    nudged += 1
    assert nudged
    assert ends == ({None, "bound_reached", "deadlock"}
                    if name == "timed-ends" else {None, "bound_reached"})


def test_an_unguarded_edge_that_is_no_binary_emit_drops_the_search():
    """FREE_AFTER_GUARD's location starts its sojourn at 0 with no window
    search of its guarded edge, and FREE_BINARY's keeps its guard's search
    beside the ready test of its unguarded binary emit; at the states that
    runs reach, each start and deadline is the loop reference's."""
    for text, searched in ((FREE_AFTER_GUARD, False), (FREE_BINARY, True)):
        compiled = engine.CompiledNetwork(net(text))
        [cc, *_] = compiled.components
        loc = cc.locations["a"]
        loc.lower()
        lines = engine._sojourn_lines(loc.race)
        assert (lines[-1] == "start = 0.0") is not searched
        assert any("the guard of edge a->a#" in line
                   for line in lines) is searched
        starts = set()
        for seen in _timed_states(compiled, 20, 20).values():
            for V, L, _ in seen:
                rates = _rates(compiled, V, L)
                deadline = _deadline(loc, V, L, rates)
                want, _ = _start(V, L, rates, deadline,
                                 _receiving(compiled, L), cc, loc)
                got = _sojourn(loc, V, L, rates,
                               compiled.step_table(L).receivers)
                assert _bits(got) == _bits([want, deadline])
                starts.add(want > 0)
        assert starts == ({True, False} if searched else {False})


def test_a_run_compiles_one_step_kernel_per_timed_table(monkeypatch):
    """``engine.run`` compiles the step kernel of each timed table that it
    reaches and the advance kernel of each of their clock plans; a stepwise
    run of the same seed takes its timed steps by those kernels, and
    compiles none."""
    for generator in (engine._step_kernel, engine._advance_kernel):
        generator.cache_clear()
    titles = []
    kernel = engine._kernel
    monkeypatch.setattr(engine, "_kernel", lambda title, *args, **kw:
                        titles.append(title) or kernel(title, *args, **kw))
    compiled = engine.CompiledNetwork(
        instantiate(parse_model((MODELS / "av.sta").read_text())))
    config = RunConfig(h_max=10.0)
    for i in range(10):
        run(compiled, 3000, RngStream(42, i), config=config)
    tables = compiled._tables.values()
    timed = [table for table in tables if not table.committed]
    assert len(timed) > 10 and any(table.committed for table in tables)
    assert all((table.step is None) == bool(table.committed)
               for table in tables)
    kinds = [title.split()[0] for title in titles]
    assert kinds.count("step") == len({table.step for table in timed})
    assert kinds.count("advance") == len({table._plan.clocks
                                          for table in timed})
    compiled_by_runs = len(titles)
    sim = engine.Simulator(compiled, RngStream(42, 0), config)
    for _ in range(20):
        sim.step(3000)
    assert len(titles) == compiled_by_runs


# reals and clocks that updates and rates set from int, bool and float
# expressions (a number literal is a float, so n % 2 is one), and a
# location rate that reads a bool and an int
FLOAT_STORES = """
int n = 3;
bool b = true;
real r = 1;
real s = 0;
clock x;
clock y;
clock z;
template T(p: int) {
  init loc a { inv x <= 2; rate y = n; rate z = n % n; }
  loc c { inv x <= 3; rate y = b ? s : n; }
  a -> c { guard x >= 1; update r := n / 2, s := max(r, n), y := b ? r : n,
           z := n % n, x := p; }
  c -> a { guard x >= 2.5; update r := -n, s := abs(n), y := min(r, n),
           x := 1, z := n, n := n + 1, b := !b; }
}
system t = T(2);
"""


def test_every_real_and_clock_slot_holds_a_float():
    """Wherever a store or a rate leaves out ``float()``, the value is a
    float already: at every sample point of vehicle runs and of runs of
    FLOAT_STORES, every real and clock slot holds a Python float, and every
    int slot an int."""
    vehicle = instantiate(parse_model((MODELS / "av.sta").read_text()))
    for network, n_runs, bound in ((vehicle, 10, 3000),
                                   (net(FLOAT_STORES), 10, 30)):
        compiled = engine.CompiledNetwork(network)
        typed = {vtype: [compiled.slots[key] for key, t
                         in compiled.var_types.items() if t == vtype]
                 for vtype in ("real", "clock", "int")}
        assert all(typed.values())
        seen = []

        def monitor(V, L):
            seen.append(len(V))
            assert all(type(V[slot]) is float
                       for slot in typed["real"] + typed["clock"]), V
            assert all(type(V[slot]) is int for slot in typed["int"]), V
            return engine._UNWATCHED

        for i in range(n_runs):
            run(compiled, bound, RngStream(42, i), config=RunConfig(
                h_max=10.0), monitor=monitor)
        assert len(seen) > 100


# ints and bools that updates set from a literal, a lone int variable and
# expressions that are coerced, and guards that compare them with literals
INT_STORES = """
int n = 3;
int m = 0;
bool b = true;
bool c = false;
clock x;
template T() {
  init loc a { inv x <= 2; }
  loc d { inv x <= 3; }
  a -> d { guard x >= 1; update m := 7, n := m, b := n > 2, c := 1, x := 0; }
  d -> a { guard x >= 2 && b && n != -1; update n := n * 2 - m, m := -4,
           b := !b, c := n, x := 0; }
  d -> a { guard x >= 2 && b == 0; update m := max(n, 5) % 3,
           n := abs(m) + 1, c := 0.5, x := 0; }
}
system T;
"""


def test_every_int_and_bool_slot_holds_an_int_or_a_bool():
    """What lets a comparison write an integral literal as an int: at
    every sample point of vehicle runs and of runs of INT_STORES, which
    stores literals, a lone int variable and coerced expressions, every
    int slot holds a Python int and every bool slot a bool."""
    vehicle = instantiate(parse_model((MODELS / "av.sta").read_text()))
    for network, n_runs, bound in ((vehicle, 10, 3000),
                                   (net(INT_STORES), 10, 30)):
        compiled = engine.CompiledNetwork(network)
        typed = {vtype: [compiled.slots[key] for key, t
                         in compiled.var_types.items() if t == vtype]
                 for vtype in ("int", "bool")}
        assert typed["int"]
        seen = set()

        def monitor(V, L):
            seen.add(tuple(V[slot] for slot in typed["int"] + typed["bool"]))
            assert all(type(V[slot]) is int for slot in typed["int"]), V
            assert all(type(V[slot]) is bool for slot in typed["bool"]), V
            return engine._UNWATCHED

        for i in range(n_runs):
            run(compiled, bound, RngStream(42, i), config=RunConfig(
                h_max=10.0), monitor=monitor)
        assert len(seen) > 3


# a comparison of a slot, or of a slot's local in an advance kernel, with a
# number literal, either way round
_LITERAL = r"(\(-[0-9.e+-]+\)|-?[0-9][0-9.e+-]*)"
_COMPARISON = r"(?:==|!=|<=|>=|<|>)"
_SLOT_FIRST = re.compile(rf"(?:V\[(\d+)\]|\bv(\d+)) {_COMPARISON} {_LITERAL}")
_LITERAL_FIRST = re.compile(rf"{_LITERAL} {_COMPARISON} V\[(\d+)\]")


def _compared(source: str, slots) -> list:
    """(literal, is a float) of each comparison in ``source`` of a slot in
    ``slots`` with a number literal."""
    found = [(m.group(3), int(m.group(1) or m.group(2)))
             for m in _SLOT_FIRST.finditer(source)]
    found += [(m.group(1), int(m.group(2)))
              for m in _LITERAL_FIRST.finditer(source)]
    return [(literal, "." in literal or "e" in literal)
            for literal, slot in found if slot in slots]


def test_no_kernel_compares_an_int_or_bool_slot_with_a_float_literal(
        monkeypatch):
    """Every kernel that 40 vehicle runs compile, and the monitor kernel of
    each sampled query of the requirement suite, compares an int or bool
    slot with an integral literal as an int: the energy rates' ``mode ==
    0``, the guards of ``Ctrl.dispatch`` and R1's ``prev_mode == 0``."""
    for generator in (engine._step_kernel, engine._advance_kernel,
                      engine._fire_kernel, engine._update_kernel,
                      engine._receive_kernel, engine._watch_kernel,
                      smc._monitor_kernel):
        generator.cache_clear()
    sources = []
    kernel = engine._kernel

    def recording(title, lines, **names):
        sources.append((title, "\n".join(lines)))
        return kernel(title, lines, **names)

    monkeypatch.setattr(engine, "_kernel", recording)
    monkeypatch.setattr(smc, "_kernel", recording)
    model = parse_model((MODELS / "av.sta").read_text())
    queries = [named.query for named in
               parse_queries((MODELS / "requirements.q").read_text())]
    # the check's network: the model with its declared observers
    for query in queries:
        if isinstance(query, ObserverDecl):
            model = monitors.attach_observer(model, query.constraint,
                                             query.name)
    compiled = engine.CompiledNetwork(instantiate(model))
    for i in range(40):
        run(compiled, 3000, RngStream(42, i), config=RunConfig(h_max=10.0))
    cfg = smc.StatConfig()
    for query in queries:
        # a constraint's observer is a network of its own
        if isinstance(query, (ObserverDecl, ConstraintQuery)):
            continue
        jobs, _ = smc._form(query)
        for job in jobs(compiled, query, cfg):
            if isinstance(job.judge, smc._Sampled):
                monitor = smc._Monitor([None])
                monitor.add(0, job.judge, compiled)
                monitor.sampler()
    kinds = {title.split()[0] for title, _ in sources}
    assert {"step", "advance", "fire", "update", "monitor"} <= kinds
    compared = {kind: [] for kind in kinds}
    for title, source in sources:
        compared[title.split()[0]] += _compared(source, compiled.int_slots)
    assert not [(kind, literal) for kind, found in compared.items()
                for literal, floating in found if floating]
    # no timed location's guard or invariant compares an int
    for kind in ("advance", "fire", "receive", "update", "monitor"):
        assert compared[kind], kind
    # the scan sees what an untyped compile writes
    untyped = E.compile_expr(parse_expression("mode == 0"),
                             compiled.query_resolver)
    assert _compared(untyped.source, compiled.int_slots) == [("0.0", True)]


def _fault(template, decls="int n = 0; clock x;", system="system T;"):
    return f"{decls} template T() {{ {template} }} {system}"


# models whose guard, invariant or rate divides by n = 0 at its first
# step, and what the error names
_NAMED_FAULTS = {
    "guard": (_fault("init loc a { inv x <= 2; } "
                     "a -> a { guard x / n >= 1; update x := 0; }"),
              "the guard of edge a->a#0 of T"),
    "invariant": (_fault("init loc a { inv x / n <= 2; } "
                         "a -> a { guard x >= 1; update x := 0; }"),
                  "the invariant of T.a"),
    "rate": (_fault("init loc a { inv x <= 2; rate y = 1 / n; } "
                    "a -> a { guard x >= 1; update x := 0; }",
                    "int n = 0; clock x; clock y;"),
             "the rate of y in T.a"),
    "probed-rate": (_fault("init loc a { inv x <= 2; rate e = x / n; } "
                           "a -> a { guard e >= 1; update x := 0; }",
                           "int n = 0; clock x; clock e;"),
                    "the rate of e in T.a"),
    "integrated-rate": (_fault("init loc a { inv x <= 2; rate e = x / n; } "
                               "a -> a { guard x >= 1; update x := 0; }",
                               "int n = 0; clock x; clock e;"),
                        "the rate of e in T.a"),
    "committed-guard": (_fault("init committed loc go; loc a; "
                               "go -> a { guard 1 / n > 0; }"),
                        "the guard of edge go->a#0 of T"),
    "binary-guard": (_fault("init committed loc go; loc a; "
                            "go -> a { guard 1 / n > 0; sync c!; } "
                            "go -> a { }",
                            "int n = 0; clock x; chan c;",
                            "template R() { init loc w; w -> w { sync c?; } }"
                            " system T, R;"),
                     "the guard of edge go->a#0 of T"),
    "receive-guard": (_fault("init loc a { inv x <= 2; } "
                             "a -> a { guard x >= 1; sync c!; update x := 0; }",
                             "int n = 0; clock x; broadcast chan c;",
                             "template R() { init loc w; "
                             "w -> w { guard 1 / n > 0; sync c?; } }"
                             " system T, R;"),
                      "the guard of edge w->w#0 of R"),
}


@pytest.mark.parametrize("text, where", list(_NAMED_FAULTS.values()),
                         ids=list(_NAMED_FAULTS))
def test_a_fault_names_its_guard_invariant_or_rate(text, where):
    """A guard, invariant or rate that faults ends the run with an error
    that names it, the same text from ``engine.run`` and from the stepwise
    reference, although validation accepts the model."""
    assert validate_model(parse_model(text)).ok
    texts = []
    for simulate in (run, _stepwise_run):
        with pytest.raises(EngineError) as exc:
            simulate(engine.CompiledNetwork(net(text)), 10, RngStream(0, 0))
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert texts[0].startswith("arithmetic error at t=")
    assert texts[0].endswith(f"ZeroDivisionError: division by zero, "
                             f"in {where}") or texts[0].endswith(
        f"ZeroDivisionError: float division by zero, in {where}")


def test_a_watched_expression_that_faults_names_itself():
    """A library run's watched expression that divides by zero ends the run
    with an error that names it, as a check's query expression does."""
    text = ("int n = 0; clock x; template T() { init loc a { inv x <= 2; } "
            "a -> a { guard x >= 1; update x := 0, n := n + 1; } } system T;")
    with pytest.raises(EngineError) as exc:
        run(net(text), 10, RngStream(0, 0), watch=["n", "1 / (n - 1)"])
    assert re.fullmatch(r"arithmetic error at t=[0-9.]+: ZeroDivisionError: "
                        r"float division by zero, in the query expression "
                        r"'1 / \(n - 1\)'", str(exc.value)), str(exc.value)


@pytest.mark.parametrize("inv, fault", [(5, False), (10, True)])
def test_a_guard_gate_evaluates_nothing_that_the_guard_would_not(inv,
                                                                 fault):
    """``1 / n > 0`` comes after a clock conjunct and divides, so it stays
    out of the guard's gate: as in C, it is evaluated only where ``x >= 9``
    holds.  Under ``inv x <= 5`` that is never, and the run reaches its
    bound; under ``inv x <= 10`` the window search probes past 9, where the
    guard faults and names itself, in ``engine.run`` as in the stepwise
    reference.  ``n > 0 && x / n >= 1``, whose first conjunct is the gate,
    searches nothing while n is 0, so it never divides."""
    for guard in ("x >= 9 && 1 / n > 0", "n > 0 && x / n >= 1"):
        text = _fault(f"init loc a {{ inv x <= {inv}; }} "
                      f"a -> a {{ guard {guard}; update x := 0; }} "
                      "a -> a { guard x >= 2; update x := 0; }")
        for simulate in (run, _stepwise_run):
            compiled = engine.CompiledNetwork(net(text))
            if fault and guard.startswith("x"):
                with pytest.raises(EngineError, match=(
                        r"division by zero, in the guard of edge a->a#0 "
                        r"of T$")):
                    simulate(compiled, 50, RngStream(0, 0))
            else:
                trace = simulate(compiled, 50, RngStream(0, 0))
                assert trace.end_reason == "bound_reached"
                assert {e[2] for e in trace.events} == {"a->a#1"}


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
    assert tr.events[0][5] == {"a": 2, "b": 1, "x": 3.0}


def test_a_second_compile_execs_nothing(monkeypatch):
    """Closures are cached by source and kernels by their generators'
    arguments: a second network of the same model shares every function
    with the first, its step and receive kernels among them, and compiling
    and running it writes no kernel and evaluates no closure."""
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
        # whole records: every closure and the update kernel are shared
        assert ea == eb and ea.update is eb.update
        assert loc_a.race == loc_b.race
        assert (loc_a.invariant, loc_a.rates, loc_a.fire) == \
            (loc_b.invariant, loc_b.rates, loc_b.fire)
        assert loc_a.fire is not None
        assert (loc_a.race is None) == (
            loc_a.committed or not loc_a.active and loc_a.invariant is None)
    assert a.components[0].locations is not b.components[0].locations
    assert len(a._tables) == len(b._tables) > 1
    for config, table in a._tables.items():
        # a timed step's table holds a step kernel, built with the table
        assert table.step is b._tables[config].step
        assert (table.step is None) == bool(table.committed)
        # the same runs use the same channels of each table
        assert table.receivers == b._tables[config].receivers
    assert any(any(t.receivers.values()) for t in a._tables.values())
    assert a.compile_watch(watch) == b.compile_watch(watch)
    assert engine._watch_kernel(a.compile_watch(watch)) is \
        engine._watch_kernel(b.compile_watch(watch))


# a receive edge whose one store is a literal, on "go"; B emits on %s
LAZY_UPDATE = """
int n = 0;
broadcast chan go;
broadcast chan other;
template A() {
  init loc a;
  a -> a { sync go?; update n := %d; }
}
template B() {
  init loc b;
  b -> b { sync %s!; }
}
system A, B;
"""


def test_an_update_kernel_is_generated_by_the_first_kernel_that_calls_it(
        monkeypatch):
    """An edge's update kernel is generated with the first fire or receive
    kernel that calls it: a receive edge on a channel that no location
    emits on generates none, however long its network runs, until its
    ``update`` is read; where B emits on the channel, the receive kernel
    generates it, and the edge fires."""
    monkeypatch.setattr(engine, "_update_kernel", functools.cache(
        engine._update_kernel.__wrapped__))
    for channel, n, generated in (("other", 7391, 0), ("go", 7392, 1)):
        before = engine._NAMED["update"]
        compiled = engine.CompiledNetwork(net(LAZY_UPDATE % (n, channel)))
        tr = run(compiled, 20, RngStream(0, 0), watch=["n"])
        assert len(tr.events) > 5
        assert tr.final["n"] == (n if generated else 0)
        assert engine._NAMED["update"] - before == generated
        [edge] = compiled.components[0].locations["a"].receive["go"]
        assert edge.update is not None
        assert engine._NAMED["update"] - before == 1


def test_every_kernel_has_its_own_filename():
    """A profile keys a function by (file, line, name), and every kernel is
    ``_k`` at line 1: each kernel is compiled under its own filename."""
    compiled = engine.CompiledNetwork(
        instantiate(parse_model((MODELS / "av.sta").read_text())))
    for i in range(3):
        run(compiled, 300, RngStream(42, i), config=RunConfig(h_max=10.0))
    kernels = {e.update for _, e in _edges(compiled)}
    for cc in compiled.components:
        for loc in cc.locations.values():
            kernels.add(loc.fire)
    for table in compiled._tables.values():
        kernels |= {table.step, *table.receivers.values()}
        if table.step is not None:
            kernels.add(table.step.__globals__["A"])  # its advance kernel
    kernels.discard(None)
    names = [k.__code__.co_filename for k in kernels]
    assert len(kernels) > 50 and len(set(names)) == len(names)
    for kind in ("fire Ctrl.dispatch", "step ", "receive ", "update",
                 "advance"):
        assert any(name.startswith(f"<{kind}") for name in names), kind
    # a step kernel is titled by its actors' locations
    assert any(name.startswith("<step ") and "Camera.wait" in name
               for name in names)


def _compare_advance(compiled, V, L, dt, h_max, exact):
    """The step kernel's advance moves the named state (V, L) by ``dt`` as
    the reference does, bit for bit."""
    ref, sim = _at(compiled, V, L), _at(compiled, V, L)
    assert compiled.step_table(ref.L).exact == exact
    _advance_reference(compiled, ref.V, ref.L, dt, h_max, exact)
    _advance(compiled, sim.V, sim.L, dt, h_max)
    got = _named(compiled, sim.V, sim.L)[0]
    want = _named(compiled, ref.V, ref.L)[0]
    assert list(got) == list(want)
    assert _bits(got.values()) == _bits(want.values())


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
    V, L = compiled.initial_state()
    _advance(compiled, V, L, 8.0, 0.05)
    assert _named(compiled, V, L)[0]["e"] == pytest.approx(5, abs=0.05)


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
    V, L = compiled.initial_state()
    assert not compiled.step_table(L).exact
    with pytest.raises(EngineError, match=r"^rate of 'e' is not finite$"):
        _advance(compiled, V, L, 1.0, 0.05)


# a clock that makes a plan stepped: its rate is not affine in time
STEPPED = "rate z = t * t;"


@pytest.mark.parametrize("stepped", [False, True], ids=["exact", "stepped"])
def test_a_fault_after_a_rate_that_is_not_finite_names_that_rate(stepped):
    """A stage checks its rates to be finite once they are all evaluated,
    but a rate that faults first names an earlier rate of the stage that
    is not finite, as a check after each rate would: e is inf where f
    divides by zero."""
    compiled = engine.CompiledNetwork(net(f"""
int n = 0;
clock t = 0.5;
clock e;
clock f;
clock z;
template T() {{
  init loc a {{ rate e = t * {BIG} * {BIG}; rate f = t / n; inv t <= 1;
               {STEPPED if stepped else ""} }}
  a -> a {{ guard t >= 1; update t := 0; }}
}}
system T;
"""))
    assert compiled.step_table(["a"]).exact is not stepped
    for simulate in (run, _stepwise_run):
        with pytest.raises(EngineError,
                           match="^rate of 'e' is not finite$"):
            simulate(compiled, 10, RngStream(0, 0), config=RunConfig(
                h_max=0.05))


@pytest.mark.parametrize("stepped", [False, True], ids=["exact", "stepped"])
@pytest.mark.parametrize("rates", [
    "rate e = big + t * 0; rate f = big + t * 0;",
    "rate e = big; rate f = big;",
], ids=["integrated", "clock-free"])
def test_finite_rates_whose_sum_overflows_pass(rates, stepped):
    """A stage's one finiteness test of the sum of its rates falls back to
    testing each rate where the sum is not finite: two rates of 1e308,
    each finite, pass, and their clocks run past the largest float."""
    compiled = engine.CompiledNetwork(net(f"""
real big = 1{"0" * 308};
clock t;
clock e;
clock f;
clock z;
template T() {{
  init loc a {{ {rates} inv t <= 1; {STEPPED if stepped else ""} }}
  a -> a {{ guard t >= 1; update t := 0; }}
}}
system T;
"""))
    assert compiled.step_table(["a"]).exact is not stepped
    trace = run(compiled, 10, RngStream(0, 0), watch=("e", "f"),
                config=RunConfig(h_max=0.05))
    assert trace.end_reason == "bound_reached"
    assert trace.final == {"e": math.inf, "f": math.inf}


def test_a_stepped_plan_keeps_each_clock_free_rate():
    """The RK4 stages' locals never take the name of a clock-free rate: x,
    at slot 0, keeps its rate n = 2 while e integrates t * t."""
    compiled = engine.CompiledNetwork(net("""
clock x;
clock t;
clock e;
int n = 2;
template T() { init loc a { rate x = n; rate e = t * t; } }
system T;
"""))
    assert compiled.slots["x"] == 0 and not compiled.step_table(["a"]).exact
    trace = run(compiled, 10, RngStream(0, 0), watch=("x", "e"),
                config=RunConfig(h_max=0.5))
    assert trace.final["x"] == 20.0
    assert trace.final["e"] == pytest.approx(1000 / 3)


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
        assert [(*head, watched(pre), watched(post))
                for *head, pre, post in seen.events] == plain.events
        assert (seen.end_time, seen.end_reason, watched(seen.final)) == \
            (plain.end_time, plain.end_reason, plain.final)
        reset.update(key for *_, pre, post in seen.events for key in clocks
                     if post[key] < pre[key])
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
        return ([(*head, {k: pre[k] for k in keys},
                  {k: post[k] for k in keys})
                 for *head, pre, post in trace.events],
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
                h.update(repr(tuple(e)).encode())
            h.update(repr((tr.end_time, tr.end_reason, tr.final)).encode())
    assert h.hexdigest() == RUN_DIGEST


UUE = """
clock x;
clock y;
template A() {
  init loc a { inv x <= 2; }
  a -> a { guard x >= 1; update x := 0; }
}
template B() {
  init loc b { inv y <= 2; }
  b -> b { guard y >= 1; update y := 0; }
}
template C() {
  init loc c { exitrate 1; }
  c -> c { }
}
system A, B, C;
"""

# Pinned at the commit before RngStream served draws from blocks of PCG64
# output; like RUN_DIGEST, never regenerate it to make a change pass.
UUE_DIGEST = ("5c9f3d99a5c12b40d7199be2de53439f"
              "63aab009a7e9efe60d535e341e5c50e5")


def test_runs_that_mix_uniforms_and_exponentials_match_the_pinned_digest():
    """Every timed step of ``UUE`` draws two uniforms, then an exponential.
    A run's first uniforms come from a block, whose rest its first
    exponential gives back to the bit generator, and its later ones from
    single words: the events, watched values and ends of 20 runs hash to
    one constant."""
    network = instantiate(parse_model(UUE))
    h = hashlib.sha256()
    for i in range(20):
        tr = run(network, 50, RngStream(7, i), ["x", "y"])
        for time, component, edge, _, _, watch in tr.events:
            h.update(repr((time, component, edge, watch)).encode())
        h.update(repr((tr.end_time, tr.end_reason, tr.final)).encode())
    assert h.hexdigest() == UUE_DIGEST


# Pinned at the commit before events became plain tuples built by the fire
# kernels; like RUN_DIGEST, never regenerate it to make a change pass.
READER_DIGEST = ("ed1a6b460d0c8d66f2d71bb76b2365bb"
                 "fb670d226295b2b3fd834187fe1c4160")


def test_trace_readers_match_the_pinned_digest():
    """What every reader of a trace makes of 10 ``av.sta`` runs, its JSON
    lines, its samples, and for each of R46-R50's constraints the trace
    oracle's records and verdict and the observer replay's, hash to one
    pinned constant."""
    suite = {q.name: q.query for q in parse_queries(
        (MODELS / "requirements.q").read_text(), "requirements.q")}
    constraints = [suite[f"R{i}"].constraint for i in range(46, 51)]
    network = instantiate(parse_model((MODELS / "av.sta").read_text()))
    watch = ["(wvl + wvr) / 2", "energy.Con_en", "mode"]
    h = hashlib.sha256()
    for i in range(10):
        tr = run(network, 3000, RngStream(42, i), watch, RunConfig(h_max=10.0))
        h.update(engine.trace_to_jsonl(tr).encode())
        h.update(repr(list(tr.samples())).encode())
        for c in constraints:
            verdict = monitors.check_trace(tr, c)
            h.update(repr((verdict.records, verdict.wh_holds,
                           verdict.first_violating_window,
                           monitors.observer_failed(tr, c))).encode())
    assert h.hexdigest() == READER_DIGEST


# Pinned before the advance kernels stopped computing a subexpression that
# several rates share once; like RUN_DIGEST, never regenerate it to make a
# change pass.
STEPPED_DIGEST = ("3ed7e24d2d438b51e6ca9f03a3b093ad"
                  "4ce5d06015eb6aa4fa4a15fb69c41d7a")


def test_stepped_runs_match_the_pinned_digest():
    """Every delay of ``REPEATED_SUMS`` is integrated by RK4 steps at
    ``h_max`` 0.05, whose stages evaluate rates that repeat ``x + y``:
    the events, watched values and ends of 20 runs hash to one
    constant."""
    network = instantiate(parse_model(REPEATED_SUMS))
    compiled = engine.CompiledNetwork(network)
    assert not compiled.step_table(compiled.initial_state()[1]).exact
    h = hashlib.sha256()
    for i in range(20):
        tr = run(compiled, 100, RngStream(7, i), ["q"], RunConfig(h_max=0.05))
        for time, component, edge, _, _, watch in tr.events:
            h.update(repr((time, component, edge, watch)).encode())
        h.update(repr((tr.end_time, tr.end_reason, tr.final)).encode())
    assert h.hexdigest() == STEPPED_DIGEST
