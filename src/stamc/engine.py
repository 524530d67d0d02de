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
current rates without copying ``V``.  A rate and a clock atom return a
float, through ``float()`` only where :func:`stamc.expr.is_float` does not
say that the expression is one already.

A comparison of an int or bool slot with an integral literal writes the
literal as an int, ``V[7] == 5``, not ``V[7] == 5.0``
(:func:`stamc.expr.compile_expr`'s ``ints``), which takes CPython's int
compare fast path.

The per-event work runs in kernels, straight-line functions generated from
those closures' sources with every expression inlined:

- a step kernel per step table (below) that is timed takes a timed step up
  to its firing in one call.  It evaluates the configuration's rates that
  are not literals into locals, then runs the race: for each actor in
  component order, it finds when the actor's invariant closes, probing
  each atom's crossing without a call per probe, then when one of its
  edges can first fire, searching each guard's window by the same
  generated lines (none if an edge has no guard and is not a binary emit:
  it starts at 0), blocking a binary emit unless exactly one receiver is
  ready and keeping the earliest start.  A guard false at 0 is searched
  past 0 only while the clock-free conjuncts of its top-level ``&&``
  chain hold, which no delay changes, and never if it reads no clock, so
  ``n > 0 && x / n >= 1`` is false at ``n = 0``, as C's ``&&`` makes it,
  instead of dividing by zero in its atom.  Each actor draws its delay
  from the run's ``RngStream``, and the kernel keeps the least delay and
  the earliest deadline of an actor that cannot fire.  Each probe has its
  clock's rate written in, ``V[3] + dt`` at rate 1, ``V[3] + 0.5 * dt``
  at a literal rate and ``V[3] + r3 * dt`` at an evaluated one.  Then it
  stops time at the bound or at that deadline and calls the rate plan's
  advance kernel, which integrates the clock-reading rates, by one
  midpoint step or by RK4 steps, then does its ``rate * dt`` stores, a
  literal rate written into the code and every other rate checked to be
  finite.  It leaves ``V`` untouched until those stores, which read it
  directly (``V[15] = V[15] + dt``): a stage holds the clocks that the
  rates read in locals (``m13 = V[13] + r13 * h``), loads each other slot
  they read once and tests its rates to be finite by one test of their
  sum;
- an update kernel per edge evaluates every right-hand side, then stores
  them, converting inline only what may need it: a literal is stored as
  its constant, a real or clock as it is where it is a float already, and
  an int through ``_coerce`` unless it is a lone int variable;
- a fire kernel per location fires one of its internal or emitting edges:
  it tests each guard inline, blocks a binary emit unless exactly one
  receiver is ready, takes the sample before the firing once an edge is
  enabled (a committed step's is the last sample point, taken again),
  chooses by weight (by one uniform draw against running sums written
  in, where every edge is always enabled), reads which receivers are
  ready, calls the edge's update kernel and moves the component; its own
  lines then fire the receive edges it read, and the kernel takes the
  sample after the firing and returns the whole event, a plain tuple
  ``(time, component, edge, channel, watch_pre, watch)``
  (:data:`TraceEvent`), which the run appends as it is;
- a receive kernel per step table and channel tests every receive edge of
  the configuration on the channel inline, skips the emitter, and lists
  the ready receivers with their enabled edges;
- a watch kernel per watch tuple binds a sampler to a run's ``V`` and
  ``L``, once per run, which builds a sample's dict of watched values.

A guard, invariant, rate or update that faults names itself on the error
path only: the kernels wrap each in a ``try`` (:func:`_naming`) that sets
the exception's ``where``, such as ``the guard of edge a->b#0 of T``, and
:func:`run` ends its message with it.  A watch kernel, and ``smc``'s
monitor kernel, wrap their body in one ``try`` whose handler names the
query expression at fault, such as ``the query expression '1 / n'``, from
the state that raised (:func:`_query_fault`), with no second run.

Each kernel is compiled under its own filename, such as ``<fire
Ctrl.dispatch>``, ``<step Camera.wait WheelL.idle>`` or ``<receive go>``,
so a profile tells them apart.  A location's fire kernel is generated
when the first step table (below) that holds the location is built, a
table's step and receive kernels with the table, and an edge's update
kernel with the first fire or receive kernel that calls it.  Closures
are cached by their source and kernels by their generators' arguments (a
step kernel by its actors' parts and its rate plan, never by location
objects), so a second network of the same model, such as the one each
``smc.check`` or a worker that unpickles a network compiles, evaluates and
execs nothing.

Each location configuration gets one step table, built the first time the
network enters it; a step looks it up once, by ``L``.  It lists the
committed components and the actors (the timed components with an
internal or emitting edge or an invariant), holds the step kernel when no
component is committed, and a receive kernel for each channel that one of
its active edges emits on.  A component that is not an actor draws no
delay and caps none, so a step races only the actors, and a sync reads its
receivers from the channel's kernel.  :func:`run` takes its steps in its
own frame: a timed step calls the table's step kernel and the winner's
fire kernel directly, and a committed step the fire kernels of its
committed components, the table's ``fires``.  ``Simulator.step`` takes
the same steps one call at a time, a timed step's delay and its 1e-9
nudge through the same step kernel, by ``sample_delay`` and
``advance_time``: it is the stepwise form that the tests drive and
extend, and ``run`` calls none of it.

A run's sample points are its start, the state before each timed event
and after each event, and its end; an event's two are taken by the fire
kernel that fires it.  Each takes the watched values and calls the run's
monitor, if any, which a run calls directly when nothing is watched.
Before a committed event no time has passed since the last sample point,
so its firing reads that sample again.  A run's first state is a copy of
its network's, coerced from the declarations once.
The rate plan splits the rates into clock-free rates,
which advance their clock exactly by ``rate * dt``, and clock-reading
rates, which are integrated jointly on float locals.  A clock-reading rate
is evaluated per delay only if a guard or invariant of the configuration
reads its clock, since the advance kernel evaluates it itself.  A delay
reuses the rates its step evaluated for window search.
When the clock-reading rates are affine in clocks that all move at
constant rates, they are linear in time over a delay and one midpoint step
``y + f(dt / 2) * dt`` integrates them exactly (the plan is exact);
otherwise the kernel takes ``max(1, ceil(dt / h_max))`` RK4 steps.

Bit-identity contract: the hot path performs the same float operations, in
the same order, and draws the same random numbers, as copying ``V`` per
probe, searching every guard's window by a loop over the probe closures
that sorts the crossings, taking a delay's start as the least of the
active edges' windows, drawing each actor's delay by ``RngStream.uniform``
or ``RngStream.exponential`` in a loop over the actors, applying updates
through a staged list that converts each stored value, firing by a loop
over the enabled edges and the ready receivers, and integrating with numpy
arrays (the midpoint step above, or RK4 as ``y + k * (h / 2)``, then
``((k1 + 2 * k2) + 2 * k3) + k4`` times ``h / 6``).  A kernel inlines an
expression's source where its closure would have been called, which
changes no float operation, and neither does unrolling RK4's four stages
into straight-line code, writing a literal rate ``r`` as ``r * dt``
(``dt`` alone for 1, which ``1.0 * dt`` equals bit for bit), reading an
evaluated rate from a local instead of a list, or leaving out the
``float()`` of a value that is a float already.  Nor does probing one or
two atoms' crossings in straight-line code, two ordered by one
comparison, skipping the search of a guard that a false clock-free
conjunct keeps false throughout the delay (it would find nothing; only a
fault in its atoms, such as ``x / n`` at ``n = 0``, is gone), dropping
from a search an atom whose divisor is zero (its truth flips nowhere, and
the probes fault wherever the predicate does), or choosing among
always-enabled edges by the running sums that ``weighted_choice`` would
compute, written in.  Nor does writing an integral literal that a
comparison holds against an int or bool slot as an int: Python compares
an int with a float exactly, and those slots hold only ints and bools
(``_coerce``, :func:`_store`).  Nor, in an advance, does holding a
stage's clocks in locals and each other slot that its rates read in a
local loaded once, instead of writing them into ``V`` and reading them
back, or testing a stage's rates to be finite by one test of their sum
that falls back to a test of each rate in order only where the sum is
not finite, so finite rates whose sum overflows pass, and a rate that
faults names an earlier rate of its stage that is not finite first.
Runs are bit-identical to that straightforward form, which
``tests/test_engine.py`` keeps as its reference for every kind of kernel
and for whole runs, next to digests of vehicle and stepped runs.
``RngStream`` serves uniforms and weighted choices from the bit generator's
words, one at a time after an exponential and in blocks otherwise, and
rewinds a block's unread words by ``PCG64.advance`` before an exponential,
so each draw is the one a plain ``numpy.random.Generator`` makes.
Only runs through a stepped plan depend on ``h_max``.
"""

from __future__ import annotations

import ast
import collections
import functools
import json
import math
import numbers
import operator
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr as E
from .model import (INT_MAX, Model, Network, instantiate, is_int, resolver,
                    value_key, value_types)

INF = math.inf
_UNWATCHED = {}  # the samples of a run that watches nothing; never written


class EngineError(Exception):
    pass


_BLOCK = 64  # doubles per block, and single words after an exponential


@dataclass
class RngStream:
    """Replayable random stream: (seed, run index) fully determine the run.

    Run i of seed s draws from ``PCG64(SeedSequence((s, i)))`` exactly what
    a ``numpy.random.Generator`` on that bit generator would: a uniform is
    ``lo + (hi - lo) * random()`` (no draw if ``hi <= lo``), an exponential
    ``exponential(1 / rate)``, and a weighted choice compares one
    ``random()`` times the total weight with the running sums.

    ``random()`` is ``(w >> 11) * 2**-53`` of the bit generator's next
    64-bit word ``w``, so uniforms and weighted choices need no
    ``random()`` call each.  They read doubles from blocks of ``_BLOCK``
    that ``Generator.random(_BLOCK)`` fills, the first one at a stream's
    first draw.  An exponential gives a block's unread doubles back to the
    bit generator with ``PCG64.advance(-unread)``, then calls
    ``Generator.exponential``.  A rewind costs about three draws, so the
    first ``_streak`` draws after an exponential read single words from
    ``PCG64.random_raw()`` instead, and a stream whose exponentials come
    between a few uniforms never fills a block; ``_streak`` is 64 and
    doubles whenever a block is given back mostly unread.  Long streaks of
    uniforms read nearly every draw from a block."""

    master_seed: int
    run_index: int

    def __post_init__(self):
        ss = np.random.SeedSequence((self.master_seed, self.run_index))
        self._bits = np.random.PCG64(ss)
        self._gen = np.random.Generator(self._bits)
        self._raw = self._bits.random_raw
        self._block = []  # a block's unread doubles, the next one last
        self._streak = _BLOCK  # single words after each exponential
        self._singles = 0  # single words left before the next block

    def uniform(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return lo
        block = self._block
        if block:
            return lo + (hi - lo) * block.pop()
        if self._singles:
            self._singles -= 1
            return lo + (hi - lo) * ((self._raw() >> 11) * 2.0 ** -53)
        return lo + (hi - lo) * self._fill()

    def exponential(self, rate: float) -> float:
        block = self._block
        if block:
            # under a quarter read: about what its fill and rewind cost
            if len(block) > _BLOCK * 3 // 4:
                self._streak *= 2
            self._bits.advance(-len(block))
            self._block = []
        self._singles = self._streak
        return self._gen.exponential(1.0 / rate)

    def weighted_choice(self, weights) -> int:
        if len(weights) == 1:
            return 0
        total = sum(weights)
        u = self.uniform(0.0, total)
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    def _fill(self) -> float:
        """The first double of a new block; the rest wait in ``_block``."""
        block = self._gen.random(_BLOCK).tolist()
        block.reverse()
        first = block.pop()
        self._block = block
        return first


TraceEvent = collections.namedtuple(
    "TraceEvent", "time component edge channel watch_pre watch")
TraceEvent.__doc__ = """The shape of an event of a trace, a plain 6-tuple
``(time, component, edge, channel, watch_pre, watch)``: the time it fired,
the firing component's name, the edge's label, the channel it emitted on or
None, the sample before it (after the delay, before any update) and the
sample after it (after the updates of the emitter and every receiver).

A fire kernel builds each event as a plain tuple, which equals the
``TraceEvent`` of the same values; nothing on the run path constructs a
``TraceEvent``.  Readers unpack an event or index it; hand-made traces, in
the tests, build one by name."""


@dataclass
class Trace:
    """One run: the sample at its start, its events, each a
    :data:`TraceEvent`-shaped tuple, its end time and reason, the sample at
    its end and each component's location there."""

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
        for time, _, _, _, pre, post in self.events:
            yield time, pre
            yield time, post
        yield self.end_time, self.final


@dataclass
class RunConfig:
    # RK4 step ceiling (time units); rates that one midpoint step integrates
    # exactly never read it
    h_max: float = 0.05
    max_steps: int = 10 ** 6  # zeno / committed-loop ceiling

    def __post_init__(self):
        if not (math.isfinite(self.h_max) and self.h_max > 0):
            raise EngineError("need h_max > 0")
        if not isinstance(self.max_steps, numbers.Integral):
            raise EngineError("need an integer max_steps")
        if self.max_steps < 1:
            raise EngineError("need max_steps >= 1")


# --- kernels ---------------------------------------------------------------
#
# Straight-line functions generated from the sources of compiled closures
# (``fn.source``).  Each generator is memoised on its arguments, the
# closures themselves among them; expr caches those by source, so the
# arguments fix the source, and a second network of the same model, or a
# network per query, finds every kernel without writing or exec'ing it again.


_NAMED = collections.Counter()  # kernel title -> kernels compiled under it


def _kernel(title: str, lines: list, **names):
    """The function ``_k`` that ``lines`` define, with ``names`` in scope.

    It is compiled under its own filename, ``<title>``, or ``<title #n>`` for
    the n-th kernel of one title, so that a profile, which keys a function
    by (file, line, name), keeps one entry per kernel."""
    _NAMED[title] += 1
    count = _NAMED[title]
    filename = f"<{title}>" if count == 1 else f"<{title} #{count}>"
    scope = {"__builtins__": {}, **E.FUNCS, "float": float, "bool": bool,
             "len": len, "range": range, "ceil": math.ceil,
             "isfinite": math.isfinite, "INF": INF, "EngineError": EngineError,
             "ArithmeticError": ArithmeticError, "_nonfinite": _nonfinite,
             "_query_fault": _query_fault,
             "_coerce": CompiledNetwork._coerce, **names}
    exec(compile("\n".join(lines), filename, "exec"), scope)
    return scope["_k"]


def _indent(lines: list, by: int = 4) -> list:
    return [" " * by + line for line in lines]


def _naming(lines: list, where: str, errors: str = "ArithmeticError",
            check=None) -> list:
    """``lines`` in a try that names ``where``, such as ``the guard of edge
    a->b#0 of T``, on the ``errors`` they raise, as the exception's
    ``where``, for :func:`run`'s message; ``check``, a line, runs before
    the exception is raised again, and may raise an error of its own.
    From Python 3.11 a try that catches nothing costs nothing; on 3.10
    each one pays one more pair of opcodes (SETUP_FINALLY, POP_BLOCK), a
    cost measured on no benchmark so far, all of them taken on 3.11."""
    return ["try:", *_indent(lines), f"except {errors} as exc:",
            f"    exc.where = {where!r}", *([f"    {check}"] if check else []),
            "    raise"]


# how an update kernel stores a right-hand side u (_store), but a literal,
# which it stores as its constant's source
_STORES = {"float": "float({})", "bool": "bool({})",
           "int": "_coerce({}, 'int')", "as is": "{}"}


@functools.cache
def _update_kernel(stores: tuple):
    """``(V, L)`` applying ``stores``, ((slot, fn, store), ...), or None if
    there are none: every right-hand side is evaluated first, then stored
    as its ``store`` says (:func:`_store`): through ``float``, ``bool`` or
    ``_coerce``, as it is, or, for a literal, as its constant, which is not
    evaluated at all."""
    if not stores:
        return None
    lines = ["def _k(V, L):"]
    lines += [f"    u{i} = {fn.source}"
              for i, (_, fn, store) in enumerate(stores) if store in _STORES]
    for i, (slot, _, store) in enumerate(stores):
        value = _STORES[store].format(f"u{i}") if store in _STORES else store
        lines.append(f"    V[{slot}] = {value}")
    return _kernel("update", lines)


def _sync_lines(ready: str) -> list:
    """Lines that fire the receive edges that an emit synchronizes: each
    receiver of the list ``ready`` names (a receive kernel's list, read in
    the state before the emitter fired, and one receiver for a binary emit)
    takes one of its enabled edges, chosen by weight, in component order.
    A lone edge draws nothing.  An update's fault names its edge, as
    :func:`_naming` does."""
    return [f"for j, es in {ready}:",
            "    up, to, _, w = es[0] if len(es) == 1 else "
            "es[rng.weighted_choice([x[2] for x in es])]",
            "    if up is not None:",
            "        try:", "            up(V, L)",
            "        except (ArithmeticError, EngineError) as exc:",
            "            exc.where = 'the update of ' + w",
            "            raise",
            "    L[j] = to"]


def _running_sums(weights: list) -> tuple:
    """``(total, running sums)`` of ``weights``, as
    ``RngStream.weighted_choice`` computes them: ``sum(weights)``, which
    from Python 3.12 is compensated, and ``acc += w`` from 0.0.  An index
    is the first whose running sum exceeds ``rng.uniform(0.0, total)``,
    and the last if none does."""
    sums, acc = [], 0.0
    for w in weights:
        acc += w
        sums.append(acc)
    return sum(weights), sums


@functools.cache
def _receive_kernel(channel: str, receivers: tuple):
    """``(V, L, emitter)``: the receivers that an emit on ``channel`` by the
    component at index ``emitter`` synchronizes, as [(component index, its
    enabled receive edges)], an edge as (update kernel or None, target,
    weight, the edge in error messages), which :func:`_sync_lines` reads.
    ``receivers`` are ((component index, (:class:`_CompiledEdge`, ...)),
    ...), the receive edges of one location configuration in component
    order; each component but the emitter that has an enabled one is
    listed, in that order.  A guard's fault names its edge."""
    lines = ["def _k(V, L, emitter):", "    ready = []"]
    edges = {}  # name in the kernel -> (update kernel, target, weight, edge)
    for i, (index, receive) in enumerate(receivers):
        if len(receive) == 1:
            [edge] = receive
            edges[f"R{i}"] = (index, ((edge.update, edge.target, edge.weight,
                                       edge.where),))
            body = [f"ready.append(R{i})"]
            if edge.guard is not None:
                body = _naming([f"if {edge.guard.source}:", *_indent(body)],
                               f"the guard of {edge.where}")
        else:
            body = ["e = []"]
            for j, edge in enumerate(receive):
                edges[f"E{i}_{j}"] = (edge.update, edge.target, edge.weight,
                                      edge.where)
                body += ([f"e.append(E{i}_{j})"] if edge.guard is None else
                         _naming([f"if {edge.guard.source}:",
                                  f"    e.append(E{i}_{j})"],
                                 f"the guard of {edge.where}"))
            body += ["if e:", f"    ready.append(({index}, e))"]
        lines += [f"    if emitter != {index}:", *_indent(body, 8)]
    return _kernel(f"receive {channel}", lines + ["    return ready"],
                   **edges)


def _ready_test(binary: str, index: int, keep: str) -> str:
    """The test that a binary emit on channel ``binary`` by the component
    at index ``index`` has exactly one ready receiver; the ready list is
    kept as ``keep``."""
    return (f"(k := receivers[{binary!r}]) is not None and "
            f"len({keep} := k(V, L, {index})) == 1")


@functools.cache
def _fire_kernel(component: str, name: str, index: int, edges: tuple):
    """``(V, L, receivers, rng, presnap, snap, time)`` firing one of the
    active edges of location ``name`` of ``component``, the component at
    index ``index``, at ``time``: it returns the event, or None if no edge
    is enabled.  ``edges`` are the location's active edges, each a
    :class:`_CompiledEdge`; ``receivers`` are the step table's receive
    kernels by channel.

    An edge is enabled when its guard holds and, for a binary emit, exactly
    one receiver is ready; that test keeps the ready receiver as ``r{i}``
    for edge i.  Once an edge is enabled, ``presnap()`` gives the sample
    before the firing, and the kernel picks an enabled edge by weight (a
    lone one draws nothing), reads which receivers are ready, as UPPAAL
    does, before it applies its updates by its update kernel, moves the
    component to its target and syncs those receivers by the lines of
    :func:`_sync_lines`.  Then ``snap()`` gives the sample after the
    firing, and the kernel returns the event, ``(time, component, label,
    channel, pre, post)`` (:data:`TraceEvent`).  A guard's or an update's
    fault names its edge (:func:`_naming`).

    Where several edges have neither a guard nor a binary emit, every one
    is enabled, so the kernel chooses as ``RngStream.weighted_choice``
    does with their weights written in: it draws ``u =
    rng.uniform(0.0, total)`` and fires the first edge whose running sum
    exceeds ``u``, the last if none does (:func:`_running_sums`).  Other
    edge sets list the enabled edges and call ``weighted_choice``."""
    def fire(i, edge):
        channel = edge.channel
        lines = [] if channel is None or edge.binary is not None else [
            f"r{i} = (k := receivers[{channel!r}]) is not None and "
            f"k(V, L, {index})"]  # read before firing
        lines += (_naming([f"U{i}(V, L)"], f"the update of {edge.where}",
                          "(ArithmeticError, EngineError)")
                  if edge.stores else [])
        lines.append(f"L[{index}] = {edge.target!r}")
        if channel is not None:
            lines += [f"if r{i}:", *_indent(_sync_lines(f"r{i}"))]
        return lines + [f"return (time, {component!r}, {edge.label!r}, "
                        f"{channel!r}, pre, snap())"]

    body = []
    if not edges:
        body.append("return None")
    elif len(edges) == 1:
        [edge] = edges
        if edge.guard is not None:
            body += _naming([f"if not ({edge.guard.source}):",
                             "    return None"], f"the guard of {edge.where}")
        if edge.binary is not None:
            body += [f"if not ({_ready_test(edge.binary, index, 'r0')}):",
                     "    return None"]
        body += ["pre = presnap()", *fire(0, edge)]
    elif all(edge.guard is None and edge.binary is None for edge in edges):
        total, sums = _running_sums([edge.weight for edge in edges])
        body += ["pre = presnap()", f"u = rng.uniform(0.0, {total!r})"]
        for i, (edge, acc) in enumerate(zip(edges[:-1], sums)):
            body += [f"if u < {acc!r}:", *_indent(fire(i, edge))]
        body += fire(len(edges) - 1, edges[-1])
    else:
        body.append("e = []")
        for i, edge in enumerate(edges):
            append = [f"e.append({i})"]
            if edge.binary is not None:
                ready = _ready_test(edge.binary, index, f"r{i}")
                if edge.guard is None:
                    body += [f"if {ready}:", *_indent(append)]
                else:  # the guard alone is named on a fault
                    body += [*_naming([f"g = {edge.guard.source}"],
                                      f"the guard of {edge.where}"),
                             f"if g and {ready}:", *_indent(append)]
            elif edge.guard is not None:
                body += _naming([f"if {edge.guard.source}:",
                                 *_indent(append)],
                                f"the guard of {edge.where}")
            else:
                body += append
        body += ["if not e:", "    return None", "pre = presnap()",
                 "i = e[0] if len(e) == 1 else "
                 "e[rng.weighted_choice([W[j] for j in e])]"]
        for i, edge in enumerate(edges[:-1]):
            body += [f"if i == {i}:", *_indent(fire(i, edge))]
        body += fire(len(edges) - 1, edges[-1])
    return _kernel(f"fire {name}",
                   ["def _k(V, L, receivers, rng, presnap, snap, time):",
                    *_indent(body)],
                   W=tuple(edge.weight for edge in edges),
                   **{f"U{i}": edge.update for i, edge in enumerate(edges)
                      if edge.stores})


def _query_fault(pairs, V, L) -> str:
    """The ``where`` of the query expression that raised: the first of
    ``pairs``, ((text, fn), ...), the expressions a kernel evaluated in
    order, whose ``fn`` raises an ``ArithmeticError`` at ``V`` and ``L``."""
    for text, fn in pairs:
        try:
            fn(V, L)
        except ArithmeticError:
            return f"the query expression {text!r}"


@functools.cache
def _watch_kernel(watch: tuple):
    """``(V, L)``: the sampler of the state lists ``V`` and ``L``, bound
    once per run, which returns a new dict of the ``watch`` values, ((key,
    fn), ...), at their current state.  A watched expression's fault names
    it (:func:`_query_fault`)."""
    items = ", ".join(f"{key!r}: {fn.source}" for key, fn in watch)
    return _kernel("watch", [
        "def _k(V, L):", "    def sample():", "        try:",
        f"            return {{{items}}}",
        "        except ArithmeticError as exc:",
        "            exc.where = _query_fault(W, V, L)", "            raise",
        "    return sample"], W=watch)


def _divides(source: str) -> bool:
    """Whether the Python expression ``source`` divides, by ``/`` or
    ``%``, by anything but a nonzero number literal or its negation."""
    for node in ast.walk(ast.parse(source, mode="eval")):
        if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                      (ast.Div, ast.Mod)):
            divisor = node.right
            if (isinstance(divisor, ast.UnaryOp)
                    and isinstance(divisor.op, ast.USub)):
                divisor = divisor.operand
            if not (isinstance(divisor, ast.Constant) and divisor.value):
                return True
    return False


def _window_lines(pred, probe, atoms: tuple, want: bool, found,
                  horizon: Optional[str] = None, rated=None,
                  gate=None) -> list:
    """Lines that find the earliest t in [0, horizon] at which the guard or
    invariant ``pred`` has truth ``want`` under the clock rates, and run
    ``found(t)``'s lines there, t being ``0.0``, ``1e-9`` or a variable;
    they run nothing if there is none.  ``horizon`` names a variable that
    holds a horizon > 0, or is None for no horizon.  A probe reads the
    rates from the list ``R``, or as ``rated``, a function of a probe's
    source, writes them in (:func:`_rated`).  ``gate`` is a guard's
    (:meth:`CompiledNetwork._compile_gate`): where ``pred`` is false at 0,
    the lines search past 0 only if it holds, and not at all if it is
    False; None searches unconditionally.

    Its atoms are affine in the clocks (validated), so truth can only flip
    where an atom ``g0 + slope * t`` crosses 0: the lines probe 1e-9 past
    each such t, in increasing order.  1e-9 itself comes first, for an atom
    sitting at 0 with a nonzero slope, whose truth flips at once.  With at
    most two atoms the lines are straight-line code: they probe 1e-9, then
    the crossings past it, one atom's ``t``, or two atoms' ``c0`` and
    ``c1``, ordered by one comparison, 0.0 standing for no crossing; more
    atoms list their crossings, sort them and probe them in a loop.  An
    atom's value and its probe are floats (compiled through ``float()``
    where :func:`stamc.expr.is_float` does not say they are).

    An atom whose crossing faults is dropped from the search, where it may
    divide by zero (:func:`_divides`): a validated atom divides only by a
    clock-free divisor, which no delay changes, so the atom faults all
    delay long, and its truth flips nowhere.  The probes decide the window
    on the others: they evaluate the whole predicate with Python's short
    circuit, so ``(n > 0 && x / n >= 1) || x >= 3`` at ``n = 0`` opens at
    ``x = 3``, and they fault wherever the predicate itself does."""
    rated = rated or (lambda source: source)
    test = "" if want else "not "
    within = "1e-9 < t" + ("" if horizon is None else f" <= {horizon}")
    probed = f"{test}({rated(probe.source)})"

    def slope(diff, diff_probe):
        """Lines setting ``g`` to an atom's value and ``s`` to its slope,
        or ``s`` to 0.0, no crossing, where an atom that may divide by
        zero faults (:func:`_divides`)."""
        lines = [f"g = {diff.source}", "dt = 1.0",
                 f"s = {rated(diff_probe.source)} - g"]
        if not _divides(diff.source):
            return lines
        return ["try:", *_indent(lines), "except ArithmeticError:",
                "    s = 0.0"]

    def at(t):
        """Lines probing 1e-9 past ``t``, running ``found(t)`` if true."""
        return [f"dt = {t} + 1e-9", f"if {probed}:", *_indent(found(t))]

    crossed = ["t = -g / s", f"if {within}:"]  # t: where the atom is 0
    if len(atoms) < 2:
        search = [line for atom in atoms for line in slope(*atom)]
        search += at("1e-9")
        if atoms:
            search += ["elif s != 0.0:", *_indent(crossed),
                       *_indent(at("t"), 8)]
    elif len(atoms) == 2:
        search = ["c0 = c1 = 0.0"]
        for i, atom in enumerate(atoms):
            search += [*slope(*atom), "if s != 0.0:", *_indent(crossed),
                       f"        c{i} = t"]
        # a missing crossing, 0.0, sorts first: c0 is set only if c1 is
        search += ["if c1 < c0:", "    c0, c1 = c1, c0", *at("1e-9"),
                   "elif c0:", *_indent(at("c0")), "    else:",
                   *_indent(at("c1"), 8), "elif c1:", *_indent(at("c1"))]
    else:
        search = ["c = [1e-9]"]
        for atom in atoms:
            search += [*slope(*atom), "if s != 0.0:", *_indent(crossed),
                       "        c.append(t)"]
        # [1e-9, t] is sorted: every crossing is past 1e-9
        search += ["if len(c) > 2:", "    c.sort()",
                   "for t in c:", "    dt = t + 1e-9", f"    if {probed}:",
                   *_indent(found("t") + ["break"], 8)]
    lines = [f"if {test}({pred.source}):", *_indent(found("0.0"))]
    if gate is False:
        return lines
    return lines + [("else:" if gate is None else f"elif {gate.source}:"),
                    *_indent(search)]


def _sojourn_lines(race, rated=None) -> list:
    """Lines that find the sojourn of an actor, ``race`` (:data:`_Race`),
    under the clock rates (read as :func:`_window_lines` says, by
    ``rated``): ``start``, the earliest time at which one of its active
    edges can fire, or None if none can before its invariant closes, and,
    if it has an invariant, ``deadline``, the earliest time at which the
    invariant is false, or ``INF``.  ``receivers`` are the step table's
    receive kernels by channel.

    The deadline is searched by :func:`_window_lines`; an invariant that
    is false already raises, with the time ``time``.  An edge with no guard
    that is not a binary emit starts at 0, which no edge can beat, so then
    no edge is searched.  Otherwise the start is searched in edge order by
    the same lines up to the deadline, each past 0 only where its gate
    lets it (:func:`_window_lines`), and the earliest kept; an unguarded
    binary emit starts at 0.  A binary emit takes part only if exactly one
    receiver is ready: receiver locations are frozen until the next event,
    and validation rejects a clock in a binary receiver's guard, so the
    test holds for the whole sojourn.  A fault of the invariant or of a
    guard names it (:func:`_naming`)."""
    lines = []
    if race.invariant is not None:
        message = f"invariant of {race.name} violated at entry (t={{time}})"
        lines += _naming(["deadline = INF", *_window_lines(
            race.invariant, race.inv_probe, race.inv_atoms, False,
            lambda t: ([f"raise EngineError(f{message!r})"] if t == "0.0"
                       else [f"deadline = {t}"]), None, rated)],
            f"the invariant of {race.name}")
    if any(edge.guard is None and edge.binary is None
           for edge in race.edges):
        return lines + ["start = 0.0"]
    horizon = "deadline" if race.invariant is not None else None
    lines.append("start = None")
    for i, edge in enumerate(race.edges):
        def found(t, first=i == 0):
            if t == "0.0" or first:  # no start is earlier
                return [f"start = {t}"]
            return [f"if start is None or {t} < start:", f"    start = {t}"]

        search = (found("0.0") if edge.guard is None else _naming(
            _window_lines(edge.guard, edge.guard_probe, edge.guard_atoms,
                          True, found, horizon, rated, edge.guard_gate),
            f"the guard of {edge.where}"))
        if edge.binary is not None:
            search = [f"if {_ready_test(edge.binary, race.index, 'r')}:",
                      *_indent(search)]
        lines += search
    return lines


def _race_lines(actors: tuple, rated) -> list:
    """Lines that run the race of a timed step among ``actors``, the
    :data:`_Race` records of the actors of a step table in component order,
    whose (component, location) pairs are ``located``: they set ``best``,
    ``winner`` and ``cap``.

    Each actor's lines find its start and deadline, and it draws its delay
    at once, before the next actor's search: ``rng.uniform(start,
    deadline)`` when the deadline is finite, and ``start +
    rng.exponential(rate)`` otherwise, ``rate`` being its exit rate.  An
    actor that cannot fire draws nothing.  ``best`` is the least delay
    drawn, by the first actor in component order that drew it, whose pair
    is ``winner``; INF and None if no actor can fire.  ``cap`` is the
    earliest deadline of an actor that cannot fire, or INF."""
    lines = ["best = cap = INF", "winner = None"]
    for j, race in enumerate(actors):
        keep = ["if d < best:", "    best = d", f"    winner = located[{j}]"]
        exponential = f"d = start + rng.exponential({race.exit_rate!r})"
        lines += _sojourn_lines(race, rated)
        if race.invariant is None:
            lines += ["if start is not None:", f"    {exponential}",
                      *_indent(keep)]
        else:
            lines += ["if start is None:",
                      "    if deadline < cap:", "        cap = deadline",
                      "else:",
                      "    if deadline < INF:",
                      "        d = rng.uniform(start, deadline)",
                      "    else:", f"        {exponential}",
                      *_indent(keep)]
    return lines


_Clocks = collections.namedtuple("_Clocks", (
    "advanced", "integrated", "stage_const", "stage_y", "exact"))
_Clocks.__doc__ = """How the clocks of a location configuration advance
over a delay: ``advanced``, ((slot, key, literal rate or None), ...), the
clocks that advance by ``rate * dt``, None for a clock-free rate that is
not a literal; ``integrated``, ((slot, rate fn, key, where), ...), the
clock-reading rates; the clocks that an integration stage holds in
locals for the rates to read, ``stage_const`` and ``stage_y``
(:func:`_advance_lines`); and whether one
midpoint step integrates them ``exact``ly."""

_RatePlan = collections.namedtuple("_RatePlan", (
    "fixed", "probed", "clocks"))
_RatePlan.__doc__ = """The rates of a location configuration
(:class:`_StepTable`), in the terms of the kernels that it generates:
``fixed``, ((slot, rate fn, where), ...), the clock-free rates that are
not literals, in ``clocks.advanced`` order; ``probed``, ((slot, rate fn,
where), ...), the clock-reading rates whose clock a guard or invariant
reads; and ``clocks``, how they advance (:data:`_Clocks`).  ``where``
names a rate in error messages, as ``the rate of x in T.a``; a rate fn
returns a float."""

# the clock terms of a probe's source, V[k] + R[k] * dt
_PROBE_TERM = re.compile(r"R\[(\d+)\] \* dt")


def _times(slot: int, lit, by: str) -> str:
    """The rate of the clock at ``slot`` times ``by``: ``by`` alone at rate
    1, which ``1.0 * by`` equals bit for bit, a literal rate ``lit``
    written in, and a rate that is not a literal (``lit`` None) read from
    the local ``r{slot}``."""
    if lit == 1.0:
        return by
    return f"{f'r{slot}' if lit is None else repr(lit)} * {by}"


def _rated(plan: _RatePlan):
    """A function that writes the rates of ``plan`` into the source of a
    probe: each clock's ``V[k] + R[k] * dt`` reads ``V[k] + dt`` at rate 1,
    ``V[k] + 0.5 * dt`` at a literal rate 0.5, and ``V[k] + r{k} * dt``
    where the local ``r{k}`` holds an evaluated rate, each bit-identical to
    reading the rate from ``R``.  A probe reads only clocks that a guard or
    invariant of the configuration reads, so a clock-reading rate that it
    reads is one of ``probed``."""
    rates = {slot: lit for slot, _, lit in plan.clocks.advanced}
    rates.update((slot, None) for slot, _, _ in plan.probed)

    def term(match):
        slot = int(match.group(1))
        return _times(slot, rates[slot], "dt")
    return lambda source: _PROBE_TERM.sub(term, source)


def _rate_lines(rates: tuple) -> list:
    """Lines setting the local ``r{slot}`` to the value of each of
    ``rates``, ((slot, rate fn, where), ...), naming ``where`` on a
    fault."""
    return [line for slot, fn, where in rates
            for line in _naming([f"r{slot} = {fn.source}"], where)]


def _nonfinite(values: list, keys: list) -> None:
    """Raise the error of the first of ``values``, the rates of the clocks
    ``keys`` in order, that is not finite, if one is not."""
    for value, key in zip(values, keys):
        if not math.isfinite(value):
            raise EngineError(f"rate of {key!r} is not finite")


def _finite_lines(rates: list, keys: list) -> list:
    """Lines that raise the error of the first of ``rates``, locals that
    hold the rates of the clocks ``keys``, that is not finite: one test of
    their sum, which is finite if they are, and :func:`_nonfinite` only
    where it is not, for finite rates can sum to inf."""
    if not rates:
        return []
    return [f"if not isfinite({' + '.join(rates)}):",
            f"    {_nonfinite_call(rates, keys)}"]


def _nonfinite_call(rates: list, keys: list) -> str:
    """The call of :func:`_nonfinite` on ``rates``, the locals that hold
    the rates of the clocks ``keys``."""
    return f"_nonfinite([{', '.join(rates)}], {list(keys)!r})"


# a slot of V in a rate's source
_SLOT = re.compile(r"V\[(\d+)\]")


def _advance_lines(clocks: _Clocks) -> list:
    """Lines advancing every clock of ``clocks`` by ``dt``, with ``h_max``
    in scope and each clock-free rate that is not a literal in the local
    ``r{slot}``: the ``integrated`` clocks jointly, then the ``advanced``
    ones by ``rate * dt``.  A literal rate, 1 for an unrated clock, is
    written into the code; any other is checked to be finite.  They write
    ``V`` only in their final stores, each of which reads its slot there.

    A stage of the integration holds the ``stage_const`` clocks, at the
    stage's time offset under their constant rates, and the ``stage_y``
    ones, the integrated clocks that rates read, at the stage's input, in
    locals ``m{slot}`` (``y{i}`` itself at the start of an RK4 step), which
    the integrated rates read in place of ``V``; they read each other slot
    from a local loaded once.  Each rate is named on a fault, which names
    an earlier rate of the stage that is not finite first, and the stage
    checks its rates to be finite in one test (:func:`_finite_lines`).  An
    ``exact`` plan takes one midpoint stage at ``dt / 2``, whose test
    checks the clock-free rates too; a stepped one takes ``max(1,
    ceil(dt / h_max))`` RK4 steps of four stages, then checks the
    clock-free rates."""
    literal = {slot: lit for slot, _, lit in clocks.advanced}
    y = {slot: i for i, (slot, *_) in enumerate(clocks.integrated)}
    keys = [key for _, _, key, _ in clocks.integrated]
    loads = sorted({int(slot) for _, fn, _, _ in clocks.integrated
                    for slot in _SLOT.findall(fn.source)}
                   - set(clocks.stage_const) - set(clocks.stage_y))

    def stage(k, offset, step=None):
        """Lines setting ``{k}{i}`` to the rate of integrated clock i at
        time ``offset``, with the clock at ``y{i}``, or at
        ``y{i} + {name}{i} * {width}`` for ``step`` = (name, width)."""
        local = {slot: f"v{slot}" for slot in loads}
        lines = []
        for slot in clocks.stage_const:
            local[slot] = f"m{slot}"
            lines.append(f"m{slot} = V[{slot}] + "
                         f"{_times(slot, literal[slot], offset)}")
        for slot in clocks.stage_y:
            i = y[slot]
            local[slot] = f"y{i}" if step is None else f"m{slot}"
            if step is not None:
                lines.append(f"m{slot} = y{i} + {step[0]}{i} * {step[1]}")
        rates = []
        for _, fn, _, where in clocks.integrated:
            source = _SLOT.sub(lambda m: local[int(m.group(1))], fn.source)
            check = (_nonfinite_call(rates, keys[:len(rates)]) if rates
                     else None)
            rates.append(f"{k}{len(rates)}")
            lines += _naming([f"{rates[-1]} = {source}"], where, check=check)
        return lines, rates

    # the clock-free rates that are not literals, and their clocks
    fixed = [f"r{slot}" for slot, _, lit in clocks.advanced if lit is None]
    fixed_keys = [key for _, key, lit in clocks.advanced if lit is None]
    body = [f"v{slot} = V[{slot}]" for slot in loads]
    if clocks.integrated and clocks.exact:
        lines, rates = stage("k", "h")
        body += ["h = dt / 2", *lines,
                 *_finite_lines(rates + fixed, keys + fixed_keys)]
        body += [f"V[{slot}] = V[{slot}] + k{i} * dt" for slot, i in y.items()]
        fixed = fixed_keys = []  # checked by the stage's test
    elif clocks.integrated:
        def checked(*args):
            lines, rates = stage(*args)
            return lines + _finite_lines(rates, keys)

        body += [f"y{i} = V[{slot}]" for slot, i in y.items()]
        body += ["n = max(1, ceil(dt / h_max))", "h = dt / n",
                 "h2 = h / 2", "h6 = h / 6", "t = 0.0", "for _ in range(n):"]
        body += _indent([
            *checked("p", "t"),
            "o = t + h2", *checked("q", "o", ("p", "h2")),
            *checked("u", "o", ("q", "h2")),
            "o = t + h", *checked("w", "o", ("u", "h")),
            *[f"y{i} = y{i} + (((p{i} + 2 * q{i}) + 2 * u{i}) + w{i}) * h6"
              for i in y.values()],
            "t += h"])
        body += [f"V[{slot}] = y{i}" for slot, i in y.items()]
    body += _finite_lines(fixed, fixed_keys)
    body += [f"V[{slot}] = V[{slot}] + {_times(slot, lit, 'dt')}"
             for slot, _, lit in clocks.advanced]
    return body


def _fixed(clocks: _Clocks) -> str:
    """The clock-free rates of ``clocks`` that are not literals, as an
    advance kernel takes them, after its other arguments: each as the local
    ``r{slot}``."""
    return "".join(f", r{slot}"
                   for slot, _, lit in clocks.advanced if lit is None)


@functools.cache
def _advance_kernel(clocks: _Clocks):
    """``(V, L, dt, h_max, r{slot}, ...)`` advancing every clock of
    ``clocks`` by ``dt`` (:func:`_advance_lines`), given the clock-free
    rates that are not literals; None if there is no clock."""
    lines = _advance_lines(clocks)
    if not lines:
        return None
    return _kernel("advance", [f"def _k(V, L, dt, h_max{_fixed(clocks)}):",
                               *_indent(lines)])


@functools.cache
def _step_kernel(actors: tuple, plan: _RatePlan):
    """``(V, L, receivers, rng, time, located, remaining, h_max)``: one
    timed step of a step table up to its fire, ``(time after the delay,
    winner, end)``.  ``actors`` are the :data:`_Race` records of the
    table's actors and ``located`` their (component, location) pairs, as
    :func:`_race_lines` takes them, ``plan`` its rate plan, ``receivers``
    its receive kernels by channel, and ``remaining`` the time left to the
    bound.

    The kernel evaluates the ``fixed`` rates, then the ``probed`` ones,
    into locals, runs the race, whose probes read those locals and the
    literal rates (:func:`_rated`), and stops time at ``stop = min(cap,
    remaining)``: the delay is ``stop`` and ``end`` "bound_reached" (or
    "deadlock", if ``cap`` is before the bound) when no winner drew a
    delay up to it, and otherwise the winner's delay and ``end`` None.  A
    rounding residue of a boundary nudge below 0 delays 0.  Then the plan's
    advance kernel, one per plan, moves the clocks by the delay.  With
    ``located`` None, the kernel takes the 1e-9 nudge instead of a race:
    the ``fixed`` rates read no clock, so they are those of the step's
    start, and the advance evaluates every other rate it reads itself."""
    race = [*_rate_lines(plan.probed), *_race_lines(actors, _rated(plan)),
            "stop = cap if cap < remaining else remaining",
            "if best > stop:  # no winner, or past the bound or cap",
            "    dt = stop",
            "    end = 'bound_reached' if cap >= remaining else 'deadlock'",
            "else:", "    dt = best", "    end = None",
            "if dt < 0:",
            "    if dt < -1e-6:", "        raise EngineError('negative dt')",
            "    dt = 0.0  # rounding residue from a boundary nudge"]
    body = [*_rate_lines(plan.fixed),
            "if located is None:  # the nudge",
            "    dt = 1e-9", "    winner = end = None",
            "else:", *_indent(race)]
    advance = _advance_kernel(plan.clocks)
    if advance is not None:
        body += ["if dt != 0.0:",
                 f"    A(V, L, dt, h_max{_fixed(plan.clocks)})"]
    names = " ".join(race.name for race in actors)
    return _kernel(f"step {names}".rstrip(), [
        "def _k(V, L, receivers, rng, time, located, remaining, h_max):",
        *_indent(body + ["return time + dt, winner, end"])], A=advance)


# --- compilation -----------------------------------------------------------


class _CompiledEdge(collections.namedtuple("_CompiledEdge", (
        "label", "where", "target", "guard", "guard_probe", "guard_atoms",
        "guard_gate", "channel", "binary", "weight", "stores"))):
    """An edge as every kernel generator reads it, immutable and hashed by
    its content: its ``label``, ``where`` it is in error messages (``edge
    a->b#0 of T``), its ``target``, its ``guard`` compiled or None, the
    guard's probe form (``guard_probe``), its clock atoms (``guard_atoms``,
    ((lhs - rhs fn, its probe), ...)) and what must hold for a window past
    0 (``guard_gate``, :meth:`CompiledNetwork._compile_gate`), the
    ``channel`` it syncs on or None, the channel of a binary emit or None
    (``binary``), its ``weight``, and its ``stores``, ((slot, fn, how
    :func:`_update_kernel` stores), ...)."""
    __slots__ = ()

    @property
    def update(self):
        """The update kernel of ``stores``, or None for no updates: built
        when the first kernel that calls it is, and cached by content."""
        return _update_kernel(self.stores)


_Race = collections.namedtuple("_Race", (
    "name", "index", "invariant", "inv_probe", "inv_atoms", "edges",
    "exit_rate"))
_Race.__doc__ = """A location's part in a step kernel's race
(:func:`_sojourn_lines`): the location's ``name``, its component's
``index``, its ``invariant`` with its probe and clock atoms, its active
edges (:class:`_CompiledEdge`) and its exit rate, 1 where none is
given."""


class _CompiledLocation:
    """A location of a component: ``active``, its outgoing edges that are
    internal or emit, and ``receive``, its receive edges by channel, each a
    :class:`_CompiledEdge`.  ``lower()`` sets ``race``, its :data:`_Race`,
    or None unless the location is timed and has an active edge or an
    invariant, and ``fire``, the fire kernel of its active edges."""
    __slots__ = ("component", "index", "id", "name", "committed",
                 "invariant", "inv_probe", "inv_atoms", "rates", "affine",
                 "exit_rate", "reads", "active", "receive", "race", "fire",
                 "lowered")

    def __init__(self, component, index, id, name, committed, invariant,
                 inv_probe, inv_atoms, rates, affine, exit_rate, reads):
        self.component = component  # its component's name, in its events
        self.index = index  # its component's slot in L
        self.id = id
        self.name = name  # "component.location", in kernel titles and errors
        self.committed = committed
        self.invariant = invariant
        self.inv_probe = inv_probe
        self.inv_atoms = inv_atoms
        # [(clock slot, fn, clock slots the rate reads, literal rate or None)]
        self.rates = rates
        self.affine = affine  # every rate is affine in clocks
        self.exit_rate = exit_rate
        # clock slots that the invariant reads; CompiledNetwork adds those
        # that the active edges' guards read
        self.reads = reads
        self.active = []
        self.receive = {}
        self.race = self.fire = None
        self.lowered = False

    def lower(self) -> None:
        """Generate this location's fire kernel, which generates the update
        kernels it calls, and its race part, once.  The first step table
        that holds the location asks for them, as it asks for its rate
        plan's, so a network generates none for a location it never
        enters."""
        if self.lowered:
            return
        self.lowered = True
        active = tuple(self.active)
        if not self.committed and (active or self.invariant is not None):
            self.race = _Race(self.name, self.index, self.invariant,
                              self.inv_probe, self.inv_atoms, active,
                              self.exit_rate or 1.0)
        self.fire = _fire_kernel(self.component, self.name, self.index,
                                 active)


class _StepTable:
    """What a step needs in one location configuration: the committed
    components and their fire kernels, ``fires``, in component order, the
    actors, the step kernel, the receive kernels per channel and the rate
    plan.  An actor is a component whose location takes part in a race
    (``race`` is not None): it can fire or its invariant caps the delay.
    One that can do neither draws nothing and caps nothing, so the race
    leaves it out.  ``step`` is the step kernel of the actors and the rate
    plan (:func:`_step_kernel`) when no component is committed, for the
    step is timed, and None otherwise: it evaluates the rates, runs the
    race and advances the clocks in one call, for :func:`run` and
    ``Simulator`` alike.  Components come as (component, location) pairs,
    in component order.  ``receivers`` maps each channel that an active
    edge of the configuration emits on to its receive kernel, or to None
    where no component of the configuration receives on it.

    The rate plan (:data:`_RatePlan`) says how clocks advance in the
    configuration: the clocks that advance at a constant rate (a
    clock-free rate, or 1), and the clock-reading rates that are
    integrated (validation rejects a clock that two components rate).  It
    is ``exact`` when the integrated rates read only constant-rate clocks
    and are affine in them: they are then linear in time over a delay.
    The step kernel evaluates the clock-free rates that are not literals,
    and the clock-reading rates of the clocks that a guard or invariant of
    the configuration reads, the linear probe basis of window search; the
    advance integrates any other clock-reading rate by evaluating it."""

    __slots__ = ("committed", "fires", "actors", "step", "receivers",
                 "exact", "_plan")

    def __init__(self, net, config):
        located = [(cc, cc.locations[loc_id])
                   for cc, loc_id in zip(net.components, config)]
        for _, loc in located:
            loc.lower()
        self.committed = [(cc, loc) for cc, loc in located if loc.committed]
        self.fires = tuple(loc.fire for _, loc in self.committed)
        self.actors = [(cc, loc) for cc, loc in located
                       if loc.race is not None]
        self.receivers = {}
        for channel in dict.fromkeys(e.channel for _, loc in located
                                     for e in loc.active if e.channel):
            receiving = tuple((cc.index, tuple(loc.receive[channel]))
                              for cc, loc in located if channel in loc.receive)
            self.receivers[channel] = (_receive_kernel(channel, receiving)
                                       if receiving else None)
        # clocks that a guard or invariant reads
        reads = set().union(*(loc.reads for _, loc in located))

        timed = [loc for _, loc in located if not loc.committed]
        keys = net.keys
        rates = {}  # clock slot -> (fn, clock slots it reads, literal, where)
        for loc in timed:
            for slot, fn, clocks, lit in loc.rates:
                rates[slot] = (fn, clocks, lit,
                               f"the rate of {keys[slot]} in {loc.name}")
        # advanced by rate * dt: clock-free rates, then clocks at rate 1
        advanced = []  # (slot, key, literal rate or None)
        coupled = {}  # slot -> its clock-reading rate and where
        read = set()  # clocks that the coupled rates read
        # evaluated per delay: the clock-free rates that are not literals,
        # which advance their clocks, and the coupled rates of the clocks
        # that a window probe reads
        fixed, probed = [], []
        for slot, (fn, clocks, lit, where) in rates.items():
            if clocks:
                coupled[slot] = fn, where
                read |= clocks
                if slot in reads:
                    probed.append((slot, fn, where))
            else:
                advanced.append((slot, keys[slot], lit))
                if lit is None:
                    fixed.append((slot, fn, where))
        advanced += [(slot, keys[slot], 1.0) for slot in net.clock_slots
                     if slot not in rates]
        # what the coupled rates read in a midpoint or RK4 stage: clocks that
        # advance at a constant rate, and integrated clocks
        stage_y = tuple(slot for slot in coupled if slot in read)
        self.exact = not stage_y and all(loc.affine for loc in timed)
        self._plan = _RatePlan(tuple(fixed), tuple(probed), _Clocks(
            tuple(advanced), tuple((slot, fn, keys[slot], where)
                                   for slot, (fn, where) in coupled.items()),
            tuple(slot for slot, _, _ in advanced if slot in read), stage_y,
            self.exact))
        self.step = (None if self.committed else _step_kernel(
            tuple(loc.race for _, loc in self.actors), self._plan))


_BOOLEAN_OPS = E.COMPARISONS | E.LOGICAL


def _affine_rate(e, is_clock) -> bool:
    """Whether rate ``e`` is affine in clocks.  ``clock_degree`` counts a
    comparison or boolean operator as clock-free, which suits guards; in a
    rate, one that reads a clock is a step in time."""
    return E.clock_degree(e, is_clock) != E.NONLINEAR and not any(
        ((isinstance(n, E.Binary) and n.op in _BOOLEAN_OPS)
         or (isinstance(n, E.Unary) and n.op == "!"))
        and any(is_clock(name) for name in E.names(n))
        for n in E.walk(e))


def _conjuncts(e) -> list:
    """The operands of ``e``'s top-level ``&&`` chain, in order."""
    if isinstance(e, E.Binary) and e.op == "&&":
        return _conjuncts(e.left) + _conjuncts(e.right)
    return [e]


def _store(rhs, vtype: str, type_of, is_float) -> str:
    """How an update kernel stores ``rhs`` in a slot of type ``vtype``
    (:func:`_update_kernel`), a key of ``_STORES``: "bool"; for a real or a
    clock, "float", unless ``is_float(rhs)`` says it is a float already,
    which is stored "as is"; for an int, "int" through ``_coerce``, except
    where no conversion is needed.  A number literal, or its negation, is
    stored as its constant, the source of a float for a real or a clock,
    and of an int for an int if it is integral and in the 64-bit range.  A
    lone int variable (``type_of`` its name is "int"), which holds an int
    already, is stored as it is."""
    value = E.literal(rhs)
    if vtype == "bool":
        return "bool"
    if vtype != "int":
        if value is not None:
            return repr(float(value))
        return "as is" if is_float(rhs) else "float"
    if value is not None:
        return repr(int(value)) if is_int(value) else "int"
    if isinstance(rhs, E.Name) and type_of(rhs.name) == "int":
        return "as is"
    return "int"


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
        # the slots that hold a float: reals and clocks
        self.float_slots = frozenset(
            self.slots[key] for key, vtype in self.var_types.items()
            if vtype in ("real", "clock"))
        # the slots that hold an int or a bool, against which an integral
        # literal is compared as an int
        self.int_slots = frozenset(
            self.slots[key] for key, vtype in self.var_types.items()
            if vtype in ("int", "bool"))
        self._init = [(self.slots[d.name], d.init, d.type)
                      for d in model.decls]
        # V and L at the start of a run, from the first run on
        self._V0 = self._L0 = None
        self._comp_slots = {comp.name: i
                            for i, comp in enumerate(network.components)}
        self.components = []
        self._tables = {}  # location configuration -> _StepTable
        # configurations whose step tables copies of this network built in
        # other processes; smc builds their tables before it forks workers
        self.reached = set()
        self._watches = {}  # watch tuple -> its compiled watch
        self._floats = {}  # expression -> compiled to a float
        self.query_resolver = self._slotted(resolver(network))

        for index, comp in enumerate(network.components):
            cc = _CompiledComponent(comp.name, index, comp.template.initial)
            resolve = resolver(network, comp)
            slotted = self._slotted(resolve)
            self._init += [(self.slots[f"{comp.name}.{d.name}"], d.init,
                            d.type) for d in comp.template.decls]

            def type_of(name: str) -> Optional[str]:
                return self.var_types.get(value_key(resolve, name))

            def is_clock(name: str) -> bool:
                return type_of(name) == "clock"

            def clock_refs(e) -> frozenset:
                return frozenset(self.slots[value_key(resolve, n)]
                                 for n in E.names(e) if is_clock(n))

            def is_float(e) -> bool:
                return E.is_float(e, slotted, self.float_slots)

            for loc in comp.template.locations:
                rates = {}
                for clk, rate_expr in loc.rates:
                    rates[self.slots[resolve(clk)[1]]] = (
                        E.compile_expr(rate_expr, slotted, self.float_slots,
                                       self.int_slots),
                        clock_refs(rate_expr),
                        float(rate_expr.value)
                        if isinstance(rate_expr, E.Num) else None)
                cc.locations[loc.id] = _CompiledLocation(
                    comp.name, index, loc.id, f"{comp.name}.{loc.id}",
                    loc.kind == "committed",
                    *self._compile_window(loc.invariant, slotted, clock_refs),
                    [(slot, *rate) for slot, rate in rates.items()],
                    all(_affine_rate(e, is_clock) for _, e in loc.rates),
                    loc.exit_rate,
                    clock_refs(loc.invariant) if loc.invariant else frozenset())

            for i, edge in enumerate(comp.template.edges):
                stores = []
                for name, rhs in edge.updates:
                    key = resolve(name)[1]
                    stores.append((self.slots[key],
                                   E.compile_expr(rhs, slotted,
                                                  ints=self.int_slots),
                                   _store(rhs, self.var_types[key], type_of,
                                          is_float)))
                sync = edge.sync
                channel = sync.channel if sync is not None else None
                binary = (channel if sync is not None
                          and sync.direction == "emit"
                          and not broadcast.get(channel, True) else None)
                label = f"{edge.source}->{edge.target}#{i}"
                ce = _CompiledEdge(
                    label, f"edge {label} of {comp.name}", edge.target,
                    *self._compile_window(edge.guard, slotted, clock_refs),
                    self._compile_gate(edge.guard, slotted, clock_refs),
                    channel, binary, edge.weight, tuple(stores))
                source = cc.locations[edge.source]
                if sync is not None and sync.direction == "receive":
                    source.receive.setdefault(channel, []).append(ce)
                else:
                    source.active.append(ce)
                    if edge.guard is not None:
                        source.reads |= clock_refs(edge.guard)
            self.components.append(cc)

    def __reduce__(self):
        # closures and kernels do not pickle: a copy is compiled again from
        # the network, once per pickle however often it is referenced
        return (CompiledNetwork, (self.network,))

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
        an absent one.  An atom and its probe return floats."""
        if boolean_expr is None:
            return None, None, ()
        clocks, floats, ints = (frozenset(self.clock_slots), self.float_slots,
                                self.int_slots)
        atoms = []
        for atom in E.comparison_atoms(boolean_expr):
            if clock_refs(atom.left) or clock_refs(atom.right):
                diff = E.Binary("-", atom.left, atom.right)
                atoms.append((
                    E.compile_expr(diff, resolve, floats, ints),
                    E.compile_probe(diff, resolve, clocks, floats, ints)))
        return (E.compile_expr(boolean_expr, resolve, ints=ints),
                E.compile_probe(boolean_expr, resolve, clocks, ints=ints),
                tuple(atoms))

    def _compile_gate(self, guard, resolve, clock_refs):
        """What must hold for ``guard``, false at the start of a delay, to
        turn true during it (:func:`_window_lines`): False if it reads no
        clock, for then no delay changes it; else, compiled, the clock-free
        conjuncts of its top-level ``&&`` chain, which no delay changes
        either, in their order, or None if there is none.

        A conjunct joins only if the gate cannot fault where the guard
        does not: if the guard's test at 0 has evaluated it already, for no
        clock-reading conjunct comes before it, or if it holds no
        arithmetic operator, which alone can fault.  So
        ``n > 0 && x / n >= 1`` searches no window while ``n`` is 0, as
        C's ``&&`` evaluates nothing past a false operand, and
        ``x >= 9 && 1 / n > 0`` does search, faulting only where
        ``x >= 9`` holds."""
        if guard is None:
            return None
        if not clock_refs(guard):
            return False
        gate = []
        prefix = True  # no clock-reading conjunct so far
        for conjunct in _conjuncts(guard):
            if clock_refs(conjunct):
                prefix = False
            elif prefix or not any(
                    isinstance(n, E.Binary) and n.op not in _BOOLEAN_OPS
                    for n in E.walk(conjunct)):
                gate.append(conjunct)
        if not gate:
            return None
        return E.compile_expr(functools.reduce(
            lambda a, b: E.Binary("&&", a, b), gate), resolve,
            ints=self.int_slots)

    def step_table(self, L) -> _StepTable:
        """The step table of location configuration ``L``, built once."""
        config = tuple(L)
        table = self._tables.get(config)
        if table is None:
            table = self._tables[config] = _StepTable(self, config)
        return table

    def initial_state(self) -> tuple:
        """``(V, L)`` at the start of a run: copies of templates that the
        network's first run coerces from the declarations, so an invalid
        initial value fails every run at its start."""
        if self._V0 is None:
            V = [None] * len(self.slots)
            for slot, value, vtype in self._init:
                V[slot] = self._coerce(value, vtype)
            self._V0, self._L0 = V, [cc.initial for cc in self.components]
        return self._V0[:], self._L0[:]

    @staticmethod
    def _coerce(value, vtype):
        if vtype == "int":
            if isinstance(value, float) and not math.isfinite(value):
                raise EngineError(
                    f"non-finite value {value!r} assigned to an int variable")
            iv = int(value)
            if iv != value:
                raise EngineError(
                    f"non-integer value {value!r} assigned to an int variable")
            if abs(iv) > INT_MAX:
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
                (E.to_text(e), E.compile_expr(e, self.query_resolver,
                                              ints=self.int_slots))
                for e in (parse_expression(x) if isinstance(x, str) else x
                          for x in key))
        return out

    def compile_float(self, expr):
        """The query-scope expression ``expr``, text or AST, compiled to
        return a float, through ``float()`` only where
        :func:`stamc.expr.is_float` does not say it is one; built once per
        expression."""
        fn = self._floats.get(expr)
        if fn is None:
            from .parser import parse_expression
            e = parse_expression(expr) if isinstance(expr, str) else expr
            fn = self._floats[expr] = E.compile_expr(
                e, self.query_resolver, self.float_slots, self.int_slots)
        return fn


# --- simulator -------------------------------------------------------------


def _sampler(V, L, watch, monitor):
    """The call that takes a sample point of the state lists ``V`` and
    ``L``: it calls ``monitor(V, L)``, if there is a monitor, and returns
    the dict of the sampler that the ``watch`` kernel binds to ``V`` and
    ``L``, or one shared empty dict when nothing is watched.  A monitor
    alone is called directly, and what it returns is the sample: it
    returns that shared dict, ``_UNWATCHED``."""
    sample = watch(V, L) if watch is not None else None
    if monitor is None:
        return sample or (lambda: _UNWATCHED)
    if sample is None:
        return functools.partial(monitor, V, L)

    def monitored():
        monitor(V, L)
        return sample()
    return monitored


class Simulator:
    """One run's state, ``V``, ``L`` and ``time``, and its steps, one call
    each: the stepwise form of :func:`run`'s loop, which the tests drive
    and extend.  A timed step calls the step table's step kernel, as
    ``run`` does, through ``sample_delay`` and ``advance_time``.  ``run``
    takes its state and sampler from here, and none of the steps."""

    def __init__(self, net: CompiledNetwork, rng: RngStream,
                 config: Optional[RunConfig] = None, watch=(), monitor=None):
        self.net = net
        self.rng = rng
        self.config = config or RunConfig()
        self.V, self.L = net.initial_state()
        self.time = 0.0
        watch = net.compile_watch(watch)
        # a sample point's watched values, after monitor(V, L), if any
        self._snapshot = _sampler(self.V, self.L,
                                  _watch_kernel(watch) if watch else None,
                                  monitor)
        # the last sample point, which the caller sets to the initial one:
        # the sample before a committed step, taken again by _recall
        self._last = [None]
        self._recall = functools.partial(operator.getitem, self._last, 0)
        # the step table of L at the last step, which advance_time reads
        self._table = net.step_table(self.L)

    def sample_delay(self, table: _StepTable, bound: float) -> tuple:
        """The delay of a timed step in ``table``, the step table of the
        current state, by its step kernel: ``(winner, end)``, with the
        clocks and ``time`` advanced to the winner's firing, or to where
        the run ends (:func:`_step_kernel`).

        Each actor draws its delay, Uniform[L, U] when its invariant bounds
        the sojourn, otherwise L + Exponential(exit rate, default 1), U
        being the invariant's deadline and L the earliest time at which an
        active edge can fire.  The winner is the first actor in component
        order that drew the least delay.  Time stops at ``min(bound - time,
        cap)``, ``cap`` being the earliest deadline of an actor that cannot
        fire, and ``end`` is None unless no winner drew a delay up to it:
        then "bound_reached", or "deadlock" if ``cap`` is before the
        bound."""
        self.time, winner, end = table.step(
            self.V, self.L, table.receivers, self.rng, self.time,
            table.actors, bound - self.time, self.config.h_max)
        return winner, end

    def advance_time(self) -> None:
        """Advance all clocks and ``time`` by the 1e-9 nudge, by the step
        kernel of the step table of the last step."""
        table = self._table
        self.time = table.step(self.V, self.L, table.receivers, self.rng,
                               self.time, None, 0.0, self.config.h_max)[0]

    # -- firing --

    def step(self, bound: float):
        """One network step: the event, the fire kernel's tuple
        (:data:`TraceEvent`), or the end of the run, "bound_reached" |
        "deadlock".  The first committed component that can fire does so
        without delay; if none can, the run deadlocks.  Otherwise the
        actors race by ``sample_delay``, and the winner fires unless the
        run ends there.

        A committed step takes no sample before its firing: no time has
        passed since the last sample point, so the state is that sample's,
        and the firing reads it again, by ``_recall``.  The event's sample
        after the firing becomes the last sample point."""
        V, L, snapshot = self.V, self.L, self._snapshot
        table = self._table = self.net.step_table(L)
        if table.fires:
            fire_args = (V, L, table.receivers, self.rng, self._recall,
                         snapshot, self.time)
            for fire in table.fires:
                fired = fire(*fire_args)
                if fired is not None:
                    break
            else:
                return "deadlock"
        else:
            winner, end = self.sample_delay(table, bound)
            if end is not None:
                return end
            fire_args = (V, L, table.receivers, self.rng, snapshot, snapshot)
            cc, loc = winner
            fired = loc.fire(*fire_args, self.time)
            if fired is None:
                # accumulated rounding can leave a boundary guard (window of
                # width zero) a few ulps short of its crossing; nudge once
                self.advance_time()
                fired = loc.fire(*fire_args, self.time)
            if fired is None:
                raise EngineError(
                    f"{cc.name}: no edge enabled at its sampled delay "
                    "(guard window closed; engine defect or unsupported "
                    "model)")
        self._last[0] = fired[5]
        return fired


def check_bound(bound: float) -> None:
    """Every time bound is finite and > 0."""
    if not 0 < bound < INF:
        raise EngineError("bound must be finite and > 0")


def run(network, bound: float, rng: RngStream, watch=(),
        config: Optional[RunConfig] = None, monitor=None) -> Trace:
    """Simulate one run up to the bound; final partial delay is applied so
    watched expressions are sampled exactly at the bound.

    The sample points are the start, before each timed event and after
    each event, and the end; the sample before a committed event is the
    one after the event before it, or the start, taken once.  ``watch``
    records expressions there in the trace's dicts; ``monitor``, a
    callable, is called with the state lists ``(V, L)`` there, and records
    nothing in the trace: when nothing is watched, it returns the shared
    empty dict ``_UNWATCHED``, the trace's dict of every sample.

    Each event is the tuple that the fire kernel which fired it returns
    (:data:`TraceEvent`), taking both of its samples: a timed step passes
    ``snapshot`` as the sample before, and a committed step ``recall``,
    the last sample point again.  The loop keeps the event's sample after
    as the last sample point and appends the event as it is."""
    check_bound(bound)
    if isinstance(network, Model):
        network = instantiate(network)
    net = (network if isinstance(network, CompiledNetwork)
           else CompiledNetwork(network))
    sim = Simulator(net, rng, config, watch, monitor)
    V, L, time, config = sim.V, sim.L, sim.time, sim.config
    snapshot, last, recall = sim._snapshot, sim._last, sim._recall
    tables, h_max = net._tables, config.h_max
    events = []
    # Simulator.step's loop, a timed step by one call of the step kernel
    try:
        initial = last[0] = snapshot()
        for _ in range(config.max_steps):
            table = tables.get(tuple(L)) or net.step_table(L)
            receivers = table.receivers
            if table.fires:
                for fire in table.fires:
                    fired = fire(V, L, receivers, rng, recall, snapshot, time)
                    if fired is not None:
                        break
                else:
                    end = "deadlock"
                    break
            else:
                time, winner, end = table.step(V, L, receivers, rng, time,
                                               table.actors, bound - time,
                                               h_max)
                if end is not None:
                    break
                cc, loc = winner
                fired = loc.fire(V, L, receivers, rng, snapshot, snapshot,
                                 time)
                if fired is None:  # a boundary guard a few ulps short
                    time = table.step(V, L, receivers, rng, time, None, 0.0,
                                      h_max)[0]
                    fired = loc.fire(V, L, receivers, rng, snapshot,
                                     snapshot, time)
                if fired is None:
                    raise EngineError(
                        f"{cc.name}: no edge enabled at its sampled delay "
                        "(guard window closed; engine defect or unsupported "
                        "model)")
            last[0] = fired[5]
            events.append(fired)
        else:
            raise EngineError(
                "zeno/committed-loop: step ceiling "
                f"({config.max_steps}) exceeded at t={time}")
        return Trace(initial, events, time, end, snapshot(),
                     {cc.name: loc for cc, loc in zip(net.components, L)})
    except (ArithmeticError, EngineError) as exc:
        # the guard, invariant, rate or update at fault, set by the lines
        # of _naming and _sync_lines
        where = getattr(exc, "where", None)
        if isinstance(exc, ArithmeticError):  # x / 0, n % 0, an overflow
            message = (f"arithmetic error at t={time}: "
                       f"{type(exc).__name__}: {exc}")
        elif where is not None:  # an update's store, such as an int's
            message = f"{exc} at t={time}"
        else:
            raise
        raise EngineError(
            message + ("" if where is None else f", in {where}")) from None


def trace_to_jsonl(trace: Trace) -> str:
    lines = []
    for time, component, edge, _, _, watch in trace.events:
        lines.append(json.dumps({"t": time, "comp": component,
                                 "edge": edge, "watch": watch}))
    return "\n".join(lines) + ("\n" if lines else "")
