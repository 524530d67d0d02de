"""Stochastic simulation engine.

Executes one run of a compiled network up to a time bound: delay sampling
(uniform on bounded sojourns, exponential otherwise), race resolution with
deterministic tie-breaking, weighted edge choice, broadcast/binary
synchronization and numeric clock integration under location-dependent
rates.  Time stops at the bound or at the first invariant that no firing
relieves, where a run ends as a deadlock.

Determinism contract: a run is a pure function of (model, master seed, run
index).  Each run owns its RngStream and its mutable state; nothing is
shared, so runs can execute on any number of workers.

Hot path.  The state is two lists: ``V`` holds one slot per value key and
``L`` one location id per component.  Every guard, invariant, rate, update
and watched expression is compiled once to a ``lambda V, L`` closure over
integer slots, such as ``V[3] > 2 and L[2] == 'idle'``
(:func:`stamc.expr.compile_expr`).  Guards, invariants and their clock
atoms also get a probe closure ``lambda V, L, R, dt``
(:func:`stamc.expr.compile_probe`) that reads each clock as
``V[3] + R[3] * dt``: window search evaluates them ``dt`` ahead under the
current rates without copying ``V``.

The per-event work runs in kernels, straight-line functions generated from
those closures' sources with every expression inlined:

- a window kernel per guard of an internal or emitting edge and per
  invariant finds when the guard opens or the invariant closes, probing
  each atom's crossing without a call per probe; an invariant is read once
  per step;
- an update kernel per edge evaluates every right-hand side, then stores
  them, converting reals and bools inline;
- a fire kernel per location fires one of its internal or emitting edges:
  it tests each guard inline, blocks a binary emit unless exactly one
  receiver is ready, takes the sample before the firing once an edge is
  enabled, chooses by weight, reads which receive edges of the step table
  are enabled, calls the edge's update kernel and moves the component; one
  receiver routine, ``_sync``, then fires the receive edges it read;
- a rate kernel per step table (below) copies the table's rate template
  and evaluates the rates that the template does not hold and that
  something reads;
- an advance kernel per step table integrates its clock-reading rates, by
  one midpoint step or by RK4 steps, then does its ``rate * dt`` stores, a
  literal rate written into the code and every other rate checked to be
  finite;
- a watch kernel per watch tuple builds a sample's dict of watched values.

A location's kernels and its edges' are generated when the first step
table (below) that holds the location is built.  Closures are cached by
their source and kernels by their generators' arguments, so a second
network of the same model, such as the one each ``E`` query or worker
process compiles, evaluates and execs nothing.

Each location configuration gets one step table, built the first time the
network enters it; a step looks it up once, by ``L``.  It lists the
committed components, the actors (the components with an internal or
emitting edge or an invariant) and the receive edges per channel, and it
holds the configuration's rate plan as its rate and advance kernels.  A
component that is not an actor draws no delay and caps none, so a step
races only the actors, and a sync looks its receivers up by channel.  A
step calls ``sample_delay`` once per actor, ``advance_time`` once per delay
and one fire kernel per firing.
The rate plan splits the rates into clock-free rates,
which advance their clock exactly by ``rate * dt``, and clock-reading
rates, which are integrated jointly on float lists.  Its rate template
holds 1 for every unrated clock and the value of every literal rate; a
clock-reading rate is evaluated per delay only if a guard or invariant of
the configuration reads its clock, since the advance kernel evaluates it
itself.  A delay reuses the rates its step evaluated for window search.
When the clock-reading rates are affine in clocks that all move at
constant rates, they are linear in time over a delay and one midpoint step
``y + f(dt / 2) * dt`` integrates them exactly (the plan is exact);
otherwise the kernel takes ``max(1, ceil(dt / h_max))`` RK4 steps.

Bit-identity contract: the hot path performs the same float operations, in
the same order, and draws the same random numbers, as copying ``V`` per
probe, searching windows by a loop over the probe closures, applying
updates through a staged list, firing by a loop over the enabled edges and
the ready receivers, and integrating with numpy arrays (the
midpoint step above, or RK4 as ``y + k * (h / 2)``, then
``((k1 + 2 * k2) + 2 * k3) + k4`` times ``h / 6``).  A kernel inlines an
expression's source where its closure would have been called, which
changes no float operation, and neither does unrolling RK4's four stages
into straight-line code or writing a literal rate ``r`` as ``r * dt``
(``dt`` alone for 1, which ``1.0 * dt`` equals bit for bit).  Runs are
bit-identical to that straightforward form, which ``tests/test_engine.py`` keeps as its
reference for every kind of kernel, next to a digest of 30 vehicle runs.
Only runs through a stepped plan depend on ``h_max``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr as E
from .model import (Model, Network, instantiate, resolver, value_key,
                    value_types)

INF = math.inf
_UNWATCHED = {}  # the samples of a run that watches nothing; never written


class EngineError(Exception):
    pass


@dataclass
class RngStream:
    """Replayable random stream: (seed, run index) fully determine the run."""

    master_seed: int
    run_index: int

    def __post_init__(self):
        ss = np.random.SeedSequence((self.master_seed, self.run_index))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return lo
        return lo + (hi - lo) * self._gen.random()

    def exponential(self, rate: float) -> float:
        return self._gen.exponential(1.0 / rate)

    def weighted_choice(self, weights) -> int:
        if len(weights) == 1:
            return 0
        total = sum(weights)
        u = self._gen.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1


@dataclass(slots=True)
class TraceEvent:
    time: float
    component: str
    edge: str
    channel: Optional[str]
    watch_pre: dict  # watched values after the delay, before edge updates
    watch: dict  # watched values after edge updates (incl. receivers)


@dataclass
class Trace:
    initial: dict  # watched values at t = 0
    events: list
    end_time: float
    end_reason: str  # bound_reached | deadlock
    final: dict = field(default_factory=dict)
    # component name -> its location at the end of the run
    locations: dict = field(default_factory=dict)

    def samples(self):
        """Time-ordered (t, watch-dict) pairs covering the whole run."""
        yield 0.0, self.initial
        for ev in self.events:
            yield ev.time, ev.watch_pre
            yield ev.time, ev.watch
        yield self.end_time, self.final


@dataclass
class RunConfig:
    # RK4 step ceiling (time units); rates that one midpoint step integrates
    # exactly never read it
    h_max: float = 0.05
    max_steps: int = 10 ** 6  # zeno / committed-loop ceiling
    # re-check every invariant after each delay and each firing
    check_invariants: bool = False

    _INT_MAX = 2 ** 63 - 1

    def __post_init__(self):
        if not (math.isfinite(self.h_max) and self.h_max > 0):
            raise EngineError("need h_max > 0")
        if self.max_steps < 1:
            raise EngineError("need max_steps >= 1")


# --- kernels ---------------------------------------------------------------
#
# Straight-line functions generated from the sources of compiled closures
# (``fn.source``).  Each generator is memoised on its arguments, the
# closures themselves among them; expr caches those by source, so the
# arguments fix the source, and a second network of the same model, or a
# network per query, finds every kernel without writing or exec'ing it again.


def _kernel(lines: list, **names):
    """The function ``_k`` that ``lines`` define, with ``names`` in scope."""
    scope = {"__builtins__": {}, **E._FUNCS, "float": float, "bool": bool,
             "len": len, "range": range, "ceil": math.ceil,
             "isfinite": math.isfinite, "EngineError": EngineError,
             "_coerce": CompiledNetwork._coerce, "_ready": _ready,
             "_sync": _sync, **names}
    exec("\n".join(lines), scope)
    return scope["_k"]


@functools.cache
def _update_kernel(updates: tuple):
    """``(V, L)`` applying ``updates``, ((slot, fn, vtype), ...), or None if
    there are none: every right-hand side is evaluated first, then stored,
    with reals and clocks through ``float``, bools through ``bool`` and ints
    through ``_coerce``."""
    if not updates:
        return None
    lines = ["def _k(V, L):"]
    lines += [f"    u{i} = {fn.source}"
              for i, (_, fn, _) in enumerate(updates)]
    for i, (slot, _, vtype) in enumerate(updates):
        value = {"int": f"_coerce(u{i}, 'int')",
                 "bool": f"bool(u{i})"}.get(vtype, f"float(u{i})")
        lines.append(f"    V[{slot}] = {value}")
    return _kernel(lines)


def _ready(V, L, receivers, emitter: int) -> list:
    """[(component, its enabled receive edges)] for each of ``receivers``,
    [(component, its receive edges on one channel)], but the component at
    index ``emitter``, that has at least one."""
    ready = []
    for cc, edges in receivers:
        if cc.index == emitter:
            continue
        enabled = [e for e in edges if e.guard is None or e.guard(V, L)]
        if enabled:
            ready.append((cc, enabled))
    return ready


def _sync(V, L, ready, rng) -> None:
    """Fire the receive edges that an emit synchronizes: each of ``ready``
    (:func:`_ready`, read in the state before the emitter fired, and one
    receiver for a binary emit) takes one of its enabled edges, chosen by
    weight, in component order.  A lone edge draws nothing."""
    for cc, enabled in ready:
        edge = enabled[0] if len(enabled) == 1 else enabled[
            rng.weighted_choice([e.weight for e in enabled])]
        if edge.update is not None:
            edge.update(V, L)
        L[cc.index] = edge.target


@functools.cache
def _fire_kernel(index: int, edges: tuple):
    """``(V, L, receivers, rng, snap)`` firing one of the active edges of a
    location of the component at index ``index``, or returning None if none
    is enabled.  ``edges`` are ((guard, update kernel or None, label,
    target, weight, channel, binary), ...); ``receivers`` maps each channel
    to its receive edges in the current location configuration, as in
    :func:`_ready`.

    An edge is enabled when its guard holds and, for a binary emit, exactly
    one receiver is ready; that test keeps the ready receiver as ``r{i}``
    for edge i.  Once an edge is enabled, ``snap()`` gives the sample
    before the firing, and the kernel picks an enabled edge by weight (a
    lone one draws nothing), reads which receivers are ready, as UPPAAL
    does, before it applies its updates by its update kernel, moves the
    component to its target, syncs those receivers through :func:`_sync`
    and returns ``(label, channel, pre)``."""
    def enabled(i, guard, binary):
        tests = [] if guard is None else [f"({guard.source})"]
        if binary is not None:
            tests.append(f"len(r{i} := _ready(V, L, receivers.get("
                         f"{binary!r}, ()), {index})) == 1")
        return " and ".join(tests)

    def fire(i, guard, update, label, target, weight, channel, binary):
        lines = [] if channel is None or binary is not None else [
            f"r{i} = {channel!r} in receivers and "  # read before firing
            f"_ready(V, L, receivers[{channel!r}], {index})"]
        lines += [f"U{i}(V, L)"] if update is not None else []
        lines.append(f"L[{index}] = {target!r}")
        if channel is not None:
            lines += [f"if r{i}:", f"    _sync(V, L, r{i}, rng)"]
        return lines + [f"return ({label!r}, {channel!r}, pre)"]

    body = []
    if not edges:
        body.append("return None")
    elif len(edges) == 1:
        test = enabled(0, edges[0][0], edges[0][6])
        if test:
            body += [f"if not ({test}):", "    return None"]
        body += ["pre = snap()", *fire(0, *edges[0])]
    else:
        body.append("e = []")
        for i, edge in enumerate(edges):
            test = enabled(i, edge[0], edge[6])
            body += ([f"if {test}:", f"    e.append({i})"] if test
                     else [f"e.append({i})"])
        body += ["if not e:", "    return None", "pre = snap()",
                 "i = e[0] if len(e) == 1 else "
                 "e[rng.weighted_choice([W[j] for j in e])]"]
        for i, edge in enumerate(edges[:-1]):
            body += [f"if i == {i}:",
                     *["    " + line for line in fire(i, *edge)]]
        body += fire(len(edges) - 1, *edges[-1])
    return _kernel(["def _k(V, L, receivers, rng, snap):",
                    *["    " + line for line in body]],
                   W=tuple(edge[4] for edge in edges),
                   **{f"U{i}": edge[1] for i, edge in enumerate(edges)
                      if edge[1] is not None})


@functools.cache
def _rates_kernel(n: int, literals: tuple, evaluated: tuple):
    """``(V, L)``: a new list of the rate at each of ``n`` slots, copied from
    a template that holds each of ``literals``, ((slot, literal rate),
    ...), and 1 elsewhere, with each of ``evaluated``, ((slot, rate fn),
    ...), set to the rate's current value."""
    template = [1.0] * n
    for slot, lit in literals:
        template[slot] = lit
    return _kernel(["def _k(V, L):", "    R = T[:]",
                    *[f"    R[{slot}] = float({fn.source})"
                      for slot, fn in evaluated],
                    "    return R"], T=template)


@functools.cache
def _watch_kernel(watch: tuple):
    """``(V, L)``: a new dict of the ``watch`` values, ((key, fn), ...), at
    the current state."""
    items = ", ".join(f"{key!r}: {fn.source}" for key, fn in watch)
    return _kernel(["def _k(V, L):", f"    return {{{items}}}"])


@functools.cache
def _window_kernel(pred, probe, atoms: tuple, want: bool):
    """``(V, L, R, horizon)``: the earliest t in [0, horizon] at which the
    guard or invariant ``pred`` has truth ``want`` under clock rates ``R``,
    or None.

    Its atoms are affine in the clocks (validated), so truth can only flip
    where an atom ``g0 + slope * t`` crosses 0: the kernel probes 1e-9 past
    each such t, in increasing order.  1e-9 itself comes first, for an atom
    sitting at 0 with a nonzero slope, whose truth flips at once."""
    test = "" if want else "not "
    lines = ["def _k(V, L, R, horizon):",
             f"    if {test}({pred.source}):",
             "        return 0.0",
             "    if horizon <= 0:",
             "        return None",
             "    c = [1e-9]"]
    for diff, diff_probe in atoms:
        lines += [f"    g = float({diff.source})",
                  "    dt = 1.0",
                  f"    s = float({diff_probe.source}) - g",
                  "    if s != 0.0:",
                  "        t = -g / s",
                  "        if 1e-9 < t <= horizon:",
                  "            c.append(t)"]
    if len(atoms) > 1:  # [1e-9, t] is sorted: every crossing is past 1e-9
        lines += ["    if len(c) > 2:",
                  "        c.sort()"]
    lines += ["    for t in c:",
              "        dt = t + 1e-9",
              f"        if {test}({probe.source}):",
              "            return t",
              "    return None"]
    return _kernel(lines)


@functools.cache
def _advance_kernel(advanced: tuple, integrated: tuple, stage_const: tuple,
                    stage_y: tuple, exact: bool):
    """``(V, L, R, dt, h_max)`` advancing every clock of a rate plan by
    ``dt``: the ``integrated`` clocks, ((slot, its rate, its key), ...),
    jointly, then the ``advanced`` ones, ((slot, its key, its literal
    rate or None), ...), by ``rate * dt``.  A literal rate, 1 for an unrated
    clock, is written into the code; any other constant rate is read from
    ``R`` and checked to be finite.  A stage of the integration moves the
    ``stage_const`` slots to the stage's time offset at their constant
    rates and sets the ``stage_y`` slots, the integrated clocks that rates
    read, to the stage's input, then evaluates every integrated rate.  An
    ``exact`` plan takes one midpoint stage at ``dt / 2``; a stepped one
    takes ``max(1, ceil(dt / h_max))`` RK4 steps of four stages."""
    def check(var, key):
        message = f"rate of {key!r} is not finite"
        return [f"if not isfinite({var}):",
                f"    raise EngineError({message!r})"]

    base = {slot: i for i, (slot, _, _) in enumerate(advanced)}
    literal = {slot: lit for slot, _, lit in advanced}
    y = {slot: i for i, (slot, _, _) in enumerate(integrated)}

    def moved(slot, by):
        """The constant-rate clock at ``slot`` after ``by`` time units:
        ``1.0 * by`` is ``by``, bit for bit."""
        lit = literal[slot]
        rate = f"R[{slot}] * " if lit is None else (
            "" if lit == 1.0 else f"{lit!r} * ")
        return f"b{base[slot]} + {rate}{by}"

    def stage(k, offset, step=None):
        """Lines setting ``{k}{i}`` to the rate of integrated clock i at
        time ``offset``, with the clock at ``y{i}``, or at
        ``y{i} + {name}{i} * {width}`` for ``step`` = (name, width)."""
        lines = [f"V[{slot}] = {moved(slot, offset)}" for slot in stage_const]
        for slot in stage_y:
            i = y[slot]
            lines.append(f"V[{slot}] = y{i}" if step is None else
                         f"V[{slot}] = y{i} + {step[0]}{i} * {step[1]}")
        for i, (_, fn, key) in enumerate(integrated):
            lines.append(f"{k}{i} = float({fn.source})")
            lines += check(f"{k}{i}", key)
        return lines

    body = [f"b{i} = V[{slot}]" for slot, i in base.items()]
    body += [f"y{i} = V[{slot}]" for slot, i in y.items()]
    if integrated and exact:
        body += ["h = dt / 2", *stage("k", "h")]
        body += [f"V[{slot}] = y{i} + k{i} * dt" for slot, i in y.items()]
    elif integrated:
        body += ["n = max(1, ceil(dt / h_max))", "h = dt / n",
                 "h2 = h / 2", "h6 = h / 6", "t = 0.0", "for _ in range(n):"]
        body += ["    " + line for line in [
            *stage("p", "t"),
            "o = t + h2", *stage("q", "o", ("p", "h2")),
            *stage("r", "o", ("q", "h2")),
            "o = t + h", *stage("s", "o", ("r", "h")),
            *[f"y{i} = y{i} + (((p{i} + 2 * q{i}) + 2 * r{i}) + s{i}) * h6"
              for i in y.values()],
            "t += h"]]
        body += [f"V[{slot}] = y{i}" for slot, i in y.items()]
    for slot, key, lit in advanced:
        if lit is None:
            body += [f"r = R[{slot}]", *check("r", key),
                     f"V[{slot}] = b{base[slot]} + r * dt"]
        else:
            body.append(f"V[{slot}] = {moved(slot, 'dt')}")
    return _kernel(["def _k(V, L, R, dt, h_max):",
                    *["    " + line for line in body or ["pass"]]])


# --- compilation -----------------------------------------------------------


class _CompiledEdge:
    __slots__ = ("label", "target", "guard", "guard_probe", "guard_atoms",
                 "window", "channel", "binary", "weight", "updates", "update")

    def __init__(self, label, target, guard, guard_probe, guard_atoms,
                 channel, binary, weight, updates):
        self.label = label
        self.target = target
        self.guard = guard  # compiled or None
        self.guard_probe = guard_probe  # probe form of guard, or None
        self.guard_atoms = guard_atoms  # ((lhs - rhs fn, its probe), ...)
        self.channel = channel  # channel synced on, or None
        self.binary = binary  # channel of a binary emit, else None
        self.weight = weight
        self.updates = updates  # ((slot, fn, vtype), ...)
        # kernels, from the source location's lower(): the guard's window
        # (None for no guard, a receive edge or a committed source) and
        # the updates (None for none)
        self.window = self.update = None


class _CompiledLocation:
    __slots__ = ("index", "id", "committed", "invariant", "inv_probe",
                 "inv_atoms", "window", "rates", "affine", "exit_rate",
                 "reads", "active", "receive", "fire", "lowered")

    def __init__(self, index, id, committed, invariant, inv_probe, inv_atoms,
                 rates, affine, exit_rate, reads):
        self.index = index  # its component's slot in L
        self.id = id
        self.committed = committed
        self.invariant = invariant
        self.inv_probe = inv_probe
        self.inv_atoms = inv_atoms
        self.window = None  # when the invariant turns false, from lower()
        # [(clock slot, fn, clock slots the rate reads, literal rate or None)]
        self.rates = rates
        self.affine = affine  # every rate is affine in clocks
        self.exit_rate = exit_rate
        # clock slots that the invariant reads; CompiledNetwork adds those
        # that the active edges' guards read
        self.reads = reads
        self.active = []  # outgoing edges that are internal or emit
        self.receive = {}  # channel -> outgoing receive edges
        self.fire = None  # the fire kernel of the active edges, from lower()
        self.lowered = False

    def lower(self) -> None:
        """Generate the kernels of this location and of its outgoing edges,
        once.  The first step table that holds the location asks for them,
        as it asks for its rate plan's, so a network generates none for a
        location it never enters."""
        if self.lowered:
            return
        self.lowered = True
        if not self.committed:
            if self.invariant is not None:
                self.window = _window_kernel(self.invariant, self.inv_probe,
                                             self.inv_atoms, False)
            for edge in self.active:
                if edge.guard is not None:
                    edge.window = _window_kernel(edge.guard, edge.guard_probe,
                                                 edge.guard_atoms, True)
        for edge in self.active + [e for es in self.receive.values()
                                   for e in es]:
            edge.update = _update_kernel(edge.updates)
        self.fire = _fire_kernel(self.index, tuple(
            (e.guard, e.update, e.label, e.target, e.weight, e.channel,
             e.binary) for e in self.active))


class _StepTable:
    """What a step needs in one location configuration: the committed
    components, the actors, the receive edges per channel and the rate
    plan.  An actor is a component that can fire or whose invariant caps
    the delay; one with neither draws nothing and caps nothing, so the
    delay race leaves it out.  Components come as (component, location)
    pairs, in component order.

    The rate plan says how clocks advance in the configuration: the clocks
    that advance at a constant rate (a clock-free rate, or 1), and the
    clock-reading rates that are integrated (validation rejects a clock
    that two components rate).  It is ``exact`` when the integrated rates
    read only constant-rate clocks and are affine in them: they are then
    linear in time over a delay.  ``advance`` is its advance kernel, and
    ``rates`` its rate kernel, the linear probe basis of window search: a
    copy of the template fills every slot, 1 at each unrated clock and at
    each slot that is not a clock, and its value at each clock with a
    literal rate; the kernel then evaluates the other clock-free rates, and
    the clock-reading rates of the clocks that a guard or invariant of the
    configuration reads.  The slot of any other clock-reading rate keeps 1,
    unread: the advance kernel integrates such a clock by evaluating its
    rate itself."""

    __slots__ = ("committed", "actors", "receivers", "exact", "rates",
                 "advance")

    def __init__(self, net, config):
        located = [(cc, cc.locations[loc_id])
                   for cc, loc_id in zip(net.components, config)]
        for _, loc in located:
            loc.lower()
        self.committed = [(cc, loc) for cc, loc in located if loc.committed]
        self.actors = [(cc, loc) for cc, loc in located
                       if not loc.committed
                       and (loc.active or loc.invariant is not None)]
        self.receivers = {}  # channel -> [(component, its receive edges)]
        reads = set()  # clocks that a guard or invariant reads
        for cc, loc in located:
            reads |= loc.reads
            for ch, edges in loc.receive.items():
                self.receivers.setdefault(ch, []).append((cc, edges))

        timed = [loc for _, loc in located if not loc.committed]
        rates = {}  # clock slot -> (slot, fn, clock slots it reads, literal)
        for loc in timed:
            for rate in loc.rates:
                rates[rate[0]] = rate
        keys = net.keys
        # advanced by rate * dt: clock-free rates, then clocks at rate 1
        advanced = []  # (slot, key, literal rate or None)
        coupled = {}  # slot -> its clock-reading rate
        read = set()  # clocks that the coupled rates read
        # evaluated per delay: the clock-free rates that are not literals,
        # which advance their clocks, and the coupled rates of the clocks
        # that a window probe reads
        evaluated = []
        for slot, fn, clocks, lit in rates.values():
            if clocks:
                coupled[slot] = fn
                read |= clocks
                if slot in reads:
                    evaluated.append((slot, fn))
            else:
                advanced.append((slot, keys[slot], lit))
                if lit is None:
                    evaluated.append((slot, fn))
        advanced += [(slot, keys[slot], 1.0) for slot in net.clock_slots
                     if slot not in rates]
        self.rates = _rates_kernel(len(keys), tuple(
            (slot, lit) for slot, _, lit in advanced
            if lit is not None and slot in rates), tuple(evaluated))
        # what the coupled rates read in a midpoint or RK4 stage: clocks that
        # advance at a constant rate, and integrated clocks
        stage_const = tuple(slot for slot, _, _ in advanced if slot in read)
        stage_y = tuple(slot for slot in coupled if slot in read)
        self.exact = not stage_y and all(loc.affine for loc in timed)
        self.advance = _advance_kernel(
            tuple(advanced),
            tuple((slot, fn, keys[slot]) for slot, fn in coupled.items()),
            stage_const, stage_y, self.exact)


_BOOLEAN_OPS = ("==", "!=", "<=", ">=", "<", ">", "&&", "||", "imply")


def _affine_rate(e, is_clock) -> bool:
    """Whether rate ``e`` is affine in clocks.  ``clock_degree`` counts a
    comparison or boolean operator as clock-free, which suits guards; in a
    rate, one that reads a clock is a step in time."""
    return E.clock_degree(e, is_clock) != E.NONLINEAR and not any(
        ((isinstance(n, E.Binary) and n.op in _BOOLEAN_OPS)
         or (isinstance(n, E.Unary) and n.op == "!"))
        and any(is_clock(name) for name in E.names(n))
        for n in E.walk(e))


class _CompiledComponent:
    __slots__ = ("name", "index", "initial", "locations")

    def __init__(self, name, index, initial):
        self.name = name
        self.index = index  # its slot in L
        self.initial = initial
        self.locations = {}  # loc id -> _CompiledLocation


class CompiledNetwork:
    """A network lowered to closures over slots, ready to simulate: ``V``
    holds one slot per value key, in ``value_types`` order, and ``L`` one
    location id per component."""

    def __init__(self, network: Network):
        self.network = network
        model = network.model
        broadcast = {c.name: c.broadcast for c in model.channels}
        self.var_types = value_types(network)  # value key -> type
        self.keys = list(self.var_types)  # slot -> value key
        self.slots = {key: i for i, key in enumerate(self.keys)}
        self.clock_slots = [self.slots[key] for key, vtype
                            in self.var_types.items() if vtype == "clock"]
        self._init = [(self.slots[d.name], d.init, d.type)
                      for d in model.decls]
        self._comp_slots = {comp.name: i
                            for i, comp in enumerate(network.components)}
        self.components = []
        self._tables = {}  # location configuration -> _StepTable
        self._watches = {}  # watch tuple -> (compiled watch, its kernel)
        self.query_resolver = self._slotted(resolver(network))

        for index, comp in enumerate(network.components):
            cc = _CompiledComponent(comp.name, index, comp.template.initial)
            resolve = resolver(network, comp)
            slotted = self._slotted(resolve)
            self._init += [(self.slots[f"{comp.name}.{d.name}"], d.init,
                            d.type) for d in comp.template.decls]

            def is_clock(name: str) -> bool:
                return self.var_types.get(value_key(resolve, name)) == "clock"

            def clock_refs(e) -> frozenset:
                return frozenset(self.slots[value_key(resolve, n)]
                                 for n in E.names(e) if is_clock(n))

            for loc in comp.template.locations:
                rates = {}
                for clk, rate_expr in loc.rates:
                    rates[self.slots[resolve(clk)[1]]] = (
                        E.compile_expr(rate_expr, slotted),
                        clock_refs(rate_expr),
                        float(rate_expr.value)
                        if isinstance(rate_expr, E.Num) else None)
                cc.locations[loc.id] = _CompiledLocation(
                    index, loc.id, loc.kind == "committed",
                    *self._compile_window(loc.invariant, slotted, clock_refs),
                    [(slot, *rate) for slot, rate in rates.items()],
                    all(_affine_rate(e, is_clock) for _, e in loc.rates),
                    loc.exit_rate,
                    clock_refs(loc.invariant) if loc.invariant else frozenset())

            for i, edge in enumerate(comp.template.edges):
                updates = []
                for name, rhs in edge.updates:
                    key = resolve(name)[1]
                    updates.append((self.slots[key],
                                    E.compile_expr(rhs, slotted),
                                    self.var_types[key]))
                sync = edge.sync
                channel = sync.channel if sync is not None else None
                binary = (channel if sync is not None
                          and sync.direction == "emit"
                          and not broadcast.get(channel, True) else None)
                ce = _CompiledEdge(
                    f"{edge.source}->{edge.target}#{i}", edge.target,
                    *self._compile_window(edge.guard, slotted, clock_refs),
                    channel, binary, edge.weight, tuple(updates))
                source = cc.locations[edge.source]
                if sync is not None and sync.direction == "receive":
                    source.receive.setdefault(channel, []).append(ce)
                else:
                    source.active.append(ce)
                    if edge.guard is not None:
                        source.reads |= clock_refs(edge.guard)
            self.components.append(cc)

    def _slotted(self, resolve):
        """``resolve`` with each value key and component name replaced by
        its slot in ``V`` or ``L``."""
        slots, comp_slots = self.slots, self._comp_slots

        def resolve_slot(name: str):
            kind, *rest = resolve(name)
            if kind == "var":
                return kind, slots[rest[0]]
            if kind == "loc":
                return kind, comp_slots[rest[0]], rest[1]
            return (kind, *rest)

        return resolve_slot

    def _compile_window(self, boolean_expr, resolve, clock_refs):
        """(predicate, its probe, ((lhs - rhs, its probe), ...) for each
        clock-bearing atom) of a guard or invariant; (None, None, ()) for
        an absent one."""
        if boolean_expr is None:
            return None, None, ()
        clocks = frozenset(self.clock_slots)
        atoms = []
        for atom in E.comparison_atoms(boolean_expr):
            if clock_refs(atom.left) or clock_refs(atom.right):
                diff = E.Binary("-", atom.left, atom.right)
                atoms.append((E.compile_expr(diff, resolve),
                              E.compile_probe(diff, resolve, clocks)))
        return (E.compile_expr(boolean_expr, resolve),
                E.compile_probe(boolean_expr, resolve, clocks), tuple(atoms))

    def step_table(self, L) -> _StepTable:
        """The step table of location configuration ``L``, built once."""
        config = tuple(L)
        table = self._tables.get(config)
        if table is None:
            table = self._tables[config] = _StepTable(self, config)
        return table

    def initial_state(self) -> tuple:
        """``(V, L)`` at the start of a run."""
        V = [None] * len(self.slots)
        for slot, value, vtype in self._init:
            V[slot] = self._coerce(value, vtype)
        return V, [cc.initial for cc in self.components]

    @staticmethod
    def _coerce(value, vtype):
        if vtype == "int":
            iv = int(value)
            if iv != value:
                raise EngineError(
                    f"non-integer value {value!r} assigned to an int variable")
            if abs(iv) > RunConfig._INT_MAX:
                raise EngineError(f"int value {iv} out of 64-bit range")
            return iv
        if vtype == "bool":
            return bool(value)
        return float(value)

    def compile_watch(self, exprs):
        """((key text, compiled fn), ...) for query-scope watch expressions,
        built once per watch tuple."""
        key = tuple(exprs)
        out = self._watches.get(key)
        if out is None:
            from .parser import parse_expression
            out = self._watches[key] = tuple(
                (E.to_text(e), E.compile_expr(e, self.query_resolver))
                for e in (parse_expression(x) if isinstance(x, str) else x
                          for x in key))
        return out


# --- simulator -------------------------------------------------------------


class Simulator:
    """One run's state, ``V``, ``L`` and ``time``, and its steps."""

    def __init__(self, net: CompiledNetwork, rng: RngStream,
                 config: Optional[RunConfig] = None, watch=(), monitor=None):
        self.net = net
        self.rng = rng
        self.config = config or RunConfig()
        self.V, self.L = net.initial_state()
        self.time = 0.0
        watch = net.compile_watch(watch)
        # the snapshot kernel, or None
        self.watch = _watch_kernel(watch) if watch else None
        self.monitor = monitor  # called with (V, L) at every sample point
        # the step table of L at the last step, which sample_delay and
        # advance_time read
        self._table = net.step_table(self.L)

    def sample_delay(self, cc, loc, rates: list, deadline: float):
        """Sojourn delay for component ``cc`` in ``loc``, a location that is
        not committed, or None if it cannot act.

        Uniform[L, U] when the invariant bounds the sojourn, otherwise
        L + Exponential(exit-rate, default 1); U is ``deadline``, the
        component's invariant deadline under ``rates``, the step table's
        rates at the current state.
        """
        V, L = self.V, self.L
        starts = []
        for edge in loc.active:
            if edge.binary is not None and len(_ready(
                    V, L, self._table.receivers.get(edge.binary, ()),
                    cc.index)) != 1:
                # a binary emit needs exactly one ready receiver; receiver
                # locations are frozen until the next event, and validation
                # rejects a clock in a binary receiver's guard, so skip it
                continue
            if edge.window is None:
                starts.append(0.0)
                continue
            s = edge.window(V, L, rates, deadline)
            if s is not None:
                starts.append(s)
        if not starts:
            return None
        Lb = min(starts)
        if deadline < INF:
            return self.rng.uniform(Lb, deadline)
        return Lb + self.rng.exponential(loc.exit_rate or 1.0)

    # -- integration --

    def advance_time(self, dt: float, rates: list) -> None:
        """Advance all clocks by dt under the current location rates, by the
        step table's advance kernel.

        ``rates`` are what the step table's rate kernel gave in this
        location configuration, which a step evaluates once for window
        search and passes on: a clock-free rate reads no clock, so no delay
        changes it.
        """
        if dt < 0:
            if dt < -1e-6:
                raise EngineError("negative dt")
            dt = 0.0  # rounding residue from a boundary nudge
        if dt == 0.0:
            return
        self._table.advance(self.V, self.L, rates, dt, self.config.h_max)
        self.time += dt

    # -- firing --

    def _snapshot(self) -> dict:
        """The watched values at a sample point, after the monitor has seen
        the state; one shared empty dict when nothing is watched."""
        V, L = self.V, self.L
        if self.monitor is not None:
            self.monitor(V, L)
        if self.watch is None:
            return _UNWATCHED
        return self.watch(V, L)

    def _check_invariants(self, when: str) -> None:
        """Raise unless every current invariant holds, or held 1e-9 time
        units ago under the current rates: the window search probes 1e-9
        past each crossing, so a delay may end that far beyond a
        boundary."""
        V, L = self.V, self.L
        rates = None
        for cc in self.net.components:
            loc = cc.locations[L[cc.index]]
            if loc.invariant is None or loc.invariant(V, L):
                continue
            if rates is None:
                rates = self.net.step_table(L).rates(V, L)
            if loc.inv_probe(V, L, rates, -1e-9):
                continue
            tpl = self.net.network.components[cc.index].template
            inv = next(x.invariant for x in tpl.locations if x.id == loc.id)
            raise EngineError(
                f"invariant {E.to_text(inv)!r} of {cc.name}.{loc.id} "
                f"violated {when} (t={self.time})")

    def step(self, bound: float):
        """One network step: a TraceEvent, or the end of the run,
        "bound_reached" | "deadlock".  The first committed component that
        can fire does so without delay; if none can, the run deadlocks.
        Otherwise the actors race, and time stops at ``min(bound - time,
        cap)``, ``cap`` being the earliest invariant deadline of an actor
        that cannot fire: the winner fires unless its delay is past that
        stop, where the run ends, deadlocked if ``cap`` is before the
        bound."""
        V, L = self.V, self.L
        table = self._table = self.net.step_table(L)
        fire_args = (V, L, table.receivers, self.rng, self._snapshot)
        if table.committed:
            for cc, loc in table.committed:
                fired = loc.fire(*fire_args)
                if fired is not None:
                    break
            else:
                return "deadlock"
        else:
            rates = table.rates(V, L)
            best = (INF, None, None)  # (delay, component, location)
            cap = INF  # invariant ceiling of actors that cannot fire
            for cc, loc in table.actors:
                deadline = INF  # latest delay the invariant allows
                if loc.window is not None:
                    deadline = loc.window(V, L, rates, INF)
                    if deadline == 0.0:  # false now; closings are >= 1e-9
                        raise EngineError(
                            f"invariant of {cc.name}.{loc.id} violated at "
                            f"entry (t={self.time})")
                    if deadline is None:
                        deadline = INF
                delay = self.sample_delay(cc, loc, rates, deadline)
                if delay is None:
                    cap = min(cap, deadline)
                elif delay < best[0]:
                    best = (delay, cc, loc)

            remaining = bound - self.time
            stop = cap if cap < remaining else remaining
            delay, cc, loc = best
            ends = delay > stop  # no winner, or it is past the bound or cap
            self.advance_time(stop if ends else delay, rates)
            if self.config.check_invariants:
                self._check_invariants("at the end of a delay")
            if ends:
                return "bound_reached" if cap >= remaining else "deadlock"
            fired = loc.fire(*fire_args)
            if fired is None:
                # accumulated rounding can leave a boundary guard (window of
                # width zero) a few ulps short of its crossing; nudge once
                self.advance_time(1e-9, rates)
                fired = loc.fire(*fire_args)
            if fired is None:
                raise EngineError(
                    f"{cc.name}: no edge enabled at its sampled delay "
                    "(guard window closed; engine defect or unsupported "
                    "model)")
        if self.config.check_invariants:
            self._check_invariants("after a firing")
        return TraceEvent(self.time, cc.name, *fired, self._snapshot())


def check_bound(bound: float) -> None:
    """Every time bound is finite and > 0."""
    if not 0 < bound < INF:
        raise EngineError("bound must be finite and > 0")


def run(network, bound: float, rng: RngStream, watch=(),
        config: Optional[RunConfig] = None, monitor=None) -> Trace:
    """Simulate one run up to the bound; final partial delay is applied so
    watched expressions are sampled exactly at the bound.

    The sample points are the start, before and after each event, and the
    end.  ``watch`` records expressions there in the trace's dicts;
    ``monitor``, a callable, is called with the state lists ``(V, L)``
    there, and records nothing in the trace."""
    check_bound(bound)
    if isinstance(network, Model):
        network = instantiate(network)
    net = (network if isinstance(network, CompiledNetwork)
           else CompiledNetwork(network))
    sim = Simulator(net, rng, config, watch, monitor)
    events = []
    initial = sim._snapshot()
    for _ in range(sim.config.max_steps):
        result = sim.step(bound)
        if isinstance(result, str):  # "bound_reached" | "deadlock"
            return Trace(initial, events, sim.time, result,
                         sim._snapshot(),
                         {cc.name: loc for cc, loc
                          in zip(net.components, sim.L)})
        events.append(result)
    raise EngineError(
        "zeno/committed-loop: step ceiling "
        f"({sim.config.max_steps}) exceeded at t={sim.time}")


def trace_to_jsonl(trace: Trace) -> str:
    lines = []
    for ev in trace.events:
        lines.append(json.dumps({"t": ev.time, "comp": ev.component,
                                 "edge": ev.edge, "watch": ev.watch}))
    return "\n".join(lines) + ("\n" if lines else "")
