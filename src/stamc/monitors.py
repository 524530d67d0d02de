"""Weakly-hard timing-constraint monitors.

A constraint's events are broadcast channels: each event the constraint's
kind reads is bound to one, and an event occurs whenever a component emits
on its channel.  Each of the four constraint kinds (execution,
synchronization, periodic, end-to-end) is available twice: as a pure
trace-checking oracle over the run's events (``measure_*`` +
:func:`wh_judge`) and as an observer template (:func:`build_observer`), a
pure listener on those channels.  :func:`observer_failed` replays the
observer, compiled by the engine as the one component of a network of its
own, over a finished run's events, which is how a check judges a
constraint; :func:`attach_observer` composes it with a network instead, for
a declared observer that queries read and as the replay's reference.  The
two routes are checked against each other in the test suite.

Every observer edge receives, and the edge that receives an occurrence's
last event judges it, so an observed run has exactly the plain run's
events.  An interval observer (execution, end-to-end) waits in `idle`,
measures in `busy` (paused in `preempted`) and goes back to `idle` in band;
a periodic one goes from `firstoccurrence` to `counting`, where each
occurrence in band restarts its clock; a synchronization one stays in
`collect`.  Out of band, each goes to `fail`, which no edge leaves.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

from . import expr as E
from .engine import CompiledNetwork
from .model import (ChanDecl, Edge, Instantiation, Location, Model, Sync,
                    Template, VarDecl, instantiate)

KINDS = ("execution", "synchronization", "periodic", "endtoend")


class MonitorError(Exception):
    pass


class MalformedTrace(MonitorError):
    pass


@dataclass(frozen=True)
class WhConstraint:
    kind: str
    m: int
    k: int
    bindings: tuple = ()  # tuple[(event name, channel name)]
    lower: float = 0.0
    upper: float = math.inf
    tolerance: float = 0.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MonitorError(f"unknown constraint kind {self.kind!r}")
        _check_window(self.m, self.k)
        for name in ("lower", "tolerance", "jitter"):
            if not math.isfinite(getattr(self, name)):
                raise MonitorError(f"{name} must be finite")
        if math.isnan(self.upper):  # an infinite upper bound is no bound
            raise MonitorError("upper must be a number")
        if self.lower > self.upper:
            raise MonitorError("need lower <= upper")
        if self.tolerance < 0 or self.jitter < 0:
            raise MonitorError("tolerance and jitter must be >= 0")
        bound = [name for name, _ in self.bindings]
        if len(set(bound)) < len(bound):
            raise MonitorError("an event is bound twice")
        events = self.events()
        for event in events:
            if event not in bound:
                raise MonitorError(f"event {event!r} not bound")
        for event in bound:
            if event not in events:
                raise MonitorError(f"event {event!r} is not read by this "
                                   f"{self.kind} constraint")
        if self.kind == "synchronization" and len(bound) < 2:
            raise MonitorError("synchronization needs >= 2 events")
        channels = [self.channel(event) for event in events]
        if len(set(channels)) < len(channels):
            raise MonitorError("two events are bound to one channel")

    def events(self) -> tuple:
        """The events this constraint reads, in the order its observer
        listens to them: synchronization reads every bound event."""
        if self.kind == "synchronization":
            return tuple(name for name, _ in self.bindings)
        if self.kind == "periodic":
            return ("occurrence",)
        if self.kind == "endtoend":
            return ("source", "target")
        if "preempt" in dict(self.bindings):
            return ("start", "stop", "preempt", "resume")
        return ("start", "stop")

    def channel(self, event: str) -> str:
        return dict(self.bindings)[event]


@dataclass(frozen=True)
class OccurrenceRecord:
    index: int
    quantity: float
    passed: bool
    incomplete: bool = False


@dataclass
class MonitorVerdict:
    constraint: WhConstraint
    records: list
    wh_holds: bool
    first_violating_window: Optional[int] = None


# --- event extraction ------------------------------------------------------


def event_times(trace, channel: str) -> list:
    """Occurrence times of events on ``channel``, in trace order."""
    return [time for time, _, _, on, _, _ in trace.events if on == channel]


# --- oracles ---------------------------------------------------------------


def measure_execution(trace, c: WhConstraint) -> list:
    """Per start..stop pair: duration minus preempted intervals."""
    chans = [(name, c.channel(name)) for name in c.events()]
    tagged = [(name, time) for time, _, _, on, _, _ in trace.events
              for name, ch in chans if on == ch]
    records = []
    open_t = None
    preempt_t = None
    held = 0.0
    for name, t in tagged:
        if name == "start":
            if open_t is not None:
                raise MalformedTrace(f"start at t={t} before previous stop")
            open_t, held, preempt_t = t, 0.0, None
        elif name == "preempt":
            if open_t is None or preempt_t is not None:
                raise MalformedTrace(f"preempt at t={t} outside an execution")
            preempt_t = t
        elif name == "resume":
            if preempt_t is None:
                raise MalformedTrace(f"resume at t={t} without preempt")
            held += t - preempt_t
            preempt_t = None
        elif name == "stop":
            if open_t is None:
                raise MalformedTrace(f"stop at t={t} without start")
            if preempt_t is not None:
                held += t - preempt_t
                preempt_t = None
            q = (t - open_t) - held
            records.append(OccurrenceRecord(len(records), q,
                                            c.lower <= q <= c.upper))
            open_t = None
    return records


def measure_synchronization(trace, c: WhConstraint) -> list:
    """Group i-th arrivals across all bound streams; quantity = spread."""
    streams = [event_times(trace, ch) for _, ch in c.bindings]
    full = min(len(s) for s in streams)
    records = []
    for i in range(full):
        group = [s[i] for s in streams]
        spread = max(group) - min(group)
        records.append(OccurrenceRecord(i, spread, spread <= c.tolerance))
    if any(len(s) > full for s in streams):
        records.append(OccurrenceRecord(full, math.nan, False, incomplete=True))
    return records


def measure_periodic(trace, c: WhConstraint) -> list:
    times = event_times(trace, c.channel("occurrence"))
    lo = c.lower - c.jitter
    hi = c.upper + c.jitter
    return [
        OccurrenceRecord(i, gap, lo <= gap <= hi)
        for i, gap in enumerate(b - a for a, b in zip(times, times[1:]))
    ]


def measure_end_to_end(trace, c: WhConstraint) -> list:
    sources = event_times(trace, c.channel("source"))
    targets = event_times(trace, c.channel("target"))
    records = []
    for i, (s, t) in enumerate(zip(sources, targets)):
        if t < s:
            raise MalformedTrace(f"target at t={t} precedes its source at t={s}")
        q = t - s
        records.append(OccurrenceRecord(i, q, c.lower <= q <= c.upper))
    if len(sources) > len(targets):
        records.append(OccurrenceRecord(len(targets), math.nan, False,
                                        incomplete=True))
    return records


_MEASURES = {
    "execution": measure_execution,
    "synchronization": measure_synchronization,
    "periodic": measure_periodic,
    "endtoend": measure_end_to_end,
}


def _check_window(m, k) -> None:
    """m and k are integers with 1 <= m <= k."""
    if not all(isinstance(n, numbers.Integral) for n in (m, k)):
        raise MonitorError("need integers m and k")
    if not (1 <= m <= k):
        raise MonitorError("need 1 <= m <= k")


def wh_judge(records, m: int, k: int):
    """True iff every window of k consecutive complete records has >= m passes.

    Fewer records than k: proportional threshold ceil(m*len/k), so no
    records hold.  Returns (holds, first violating window start index or
    None).
    """
    _check_window(m, k)
    passes = [r.passed for r in records if not r.incomplete]
    n = len(passes)
    if n < k:
        if n == 0:
            return True, None
        need = math.ceil(m * n / k)
        return (True, None) if sum(passes) >= need else (False, 0)
    for start in range(n - k + 1):
        if sum(passes[start:start + k]) < m:
            return False, start
    return True, None


def check_trace(trace, c: WhConstraint) -> MonitorVerdict:
    records = _MEASURES[c.kind](trace, c)
    holds, first = wh_judge(records, c.m, c.k)
    return MonitorVerdict(c, records, holds, first)


# --- observer automata -----------------------------------------------------


def _num(v) -> E.Num:
    return E.Num(float(v))


def _cmp(op, a, b) -> E.Expr:
    return E.Binary(op, a, b)


def _and(a, b) -> E.Expr:
    return E.Binary("&&", a, b)


def _band(op: str, empty: bool, *terms) -> E.Expr:
    """The comparisons of ``terms``, (bound, comparison) pairs, whose bound
    is finite, joined by ``op``, or the constant ``empty`` if none is: a
    comparison with an infinite bound is constant, and the language has no
    literal for it."""
    kept = [cmp for bound, cmp in terms if math.isfinite(bound)]
    if not kept:
        return E.BoolLit(empty)
    return kept[0] if len(kept) == 1 else E.Binary(op, *kept)


def _in_band(clock: str, lo: float, hi: float) -> E.Expr:
    x = E.Name(clock)
    return _band("&&", True, (lo, _cmp("<=", _num(lo), x)),
                 (hi, _cmp("<=", x, _num(hi))))


def _out_band(clock: str, lo: float, hi: float) -> E.Expr:
    x = E.Name(clock)
    return _band("||", False, (lo, _cmp("<", x, _num(lo))),
                 (hi, _cmp(">", x, _num(hi))))


def build_observer(c: WhConstraint, name: str = "Observer") -> Template:
    """Observer template for ``c``: every edge receives on a channel ``c``
    binds, and the edge that receives an occurrence's last event judges it,
    so the observer takes no step of its own and never alters the network
    it listens to (on broadcast channels).  No edge leaves `fail`."""
    if c.kind == "execution":
        return _interval_observer(c, name, "execclk")
    if c.kind == "synchronization":
        return _synchronization_observer(c, name)
    if c.kind == "periodic":
        return _periodic_observer(c, name)
    return _interval_observer(c, name, "dclk")


def _interval_observer(c: WhConstraint, name: str, clock: str) -> Template:
    """Judges each interval from the first to the second event of ``c``,
    measured on ``clock`` while in `busy`; an execution's clock holds from
    preempt to resume, and in `idle` the last interval's length."""
    first, last = (Sync(c.channel(ev), "receive") for ev in c.events()[:2])
    held = lambda loc: Location(loc, rates=((clock, _num(0)),))
    locs = [held("idle"), Location("busy", rates=((clock, _num(1)),)),
            held("fail")]
    edges = [
        Edge("idle", "busy", sync=first, updates=((clock, _num(0)),)),
        Edge("busy", "idle", sync=last,
             guard=_in_band(clock, c.lower, c.upper)),
        Edge("busy", "fail", sync=last,
             guard=_out_band(clock, c.lower, c.upper)),
    ]
    if "preempt" in c.events():
        locs.append(held("preempted"))
        edges += [
            Edge("busy", "preempted", sync=Sync(c.channel("preempt"), "receive")),
            Edge("preempted", "busy", sync=Sync(c.channel("resume"), "receive")),
        ]
    return Template(name=name, decls=(VarDecl(clock, "clock"),),
                    locations=tuple(locs), edges=tuple(edges), initial="idle")


def _synchronization_observer(c: WhConstraint, name: str) -> Template:
    """Collects one arrival per event into a group, measured on ``sclk``
    from the group's first arrival; the last arrival judges the group."""
    chans = [c.channel(ev) for ev in c.events()]
    n = len(chans)
    decls = [VarDecl("sclk", "clock"), VarDecl("cnt", "int")]
    decls += [VarDecl(f"got{i}", "bool") for i in range(n)]
    locs = (Location("collect", rates=(("sclk", _num(1)),)), Location("fail"))
    resets = tuple([("cnt", _num(0))] +
                   [(f"got{i}", E.BoolLit(False)) for i in range(n)])
    cnt, sclk, tol = E.Name("cnt"), E.Name("sclk"), _num(c.tolerance)
    edges = []
    for i, ch in enumerate(chans):
        got, recv = E.Name(f"got{i}"), Sync(ch, "receive")
        fresh = E.Unary("!", got)
        last = _and(_cmp("==", cnt, _num(n - 1)), fresh)
        edges += [
            Edge(  # the group's first arrival resets the window clock
                "collect", "collect", sync=recv,
                guard=_cmp("==", cnt, _num(0)),
                updates=(("sclk", _num(0)), (f"got{i}", E.BoolLit(True)),
                         ("cnt", _num(1)))),
            Edge(
                "collect", "collect", sync=recv,
                guard=_and(_and(_cmp(">", cnt, _num(0)),
                                _cmp("<", cnt, _num(n - 1))), fresh),
                updates=((f"got{i}", E.BoolLit(True)),
                         ("cnt", E.Binary("+", cnt, _num(1))))),
            # the last arrival judges the group
            Edge("collect", "collect", sync=recv,
                 guard=_and(last, _cmp("<=", sclk, tol)), updates=resets),
            Edge("collect", "fail", sync=recv,
                 guard=_and(last, _cmp(">", sclk, tol))),
            # a duplicate arrival within a group is ignored
            Edge("collect", "collect", sync=recv, guard=got),
        ]
    return Template(name=name, decls=tuple(decls), locations=locs,
                    edges=tuple(edges), initial="collect")


def _periodic_observer(c: WhConstraint, name: str) -> Template:
    """Judges the gap between consecutive occurrences on ``pclk``."""
    recv = Sync(c.channel("occurrence"), "receive")
    lo, hi = c.lower - c.jitter, c.upper + c.jitter
    reset = (("pclk", _num(0)),)
    locs = (
        Location("firstoccurrence"),
        Location("counting", rates=(("pclk", _num(1)),)),
        Location("fail"),
    )
    edges = (
        Edge("firstoccurrence", "counting", sync=recv, updates=reset),
        Edge("counting", "counting", sync=recv,
             guard=_in_band("pclk", lo, hi), updates=reset),
        Edge("counting", "fail", sync=recv, guard=_out_band("pclk", lo, hi)),
    )
    return Template(name=name, decls=(VarDecl("pclk", "clock"),),
                    locations=locs, edges=edges, initial="firstoccurrence")


def check_channels(model: Model, c: WhConstraint) -> None:
    """Raises unless every channel ``c`` reads is a declared broadcast
    channel of ``model``: an observer must only listen."""
    broadcast = {ch.name: ch.broadcast for ch in model.channels}
    for event in c.events():
        ch = c.channel(event)
        if ch not in broadcast:
            raise MonitorError(f"cannot bind observer: unknown channel {ch!r}")
        if not broadcast[ch]:
            raise MonitorError(
                f"observer on binary channel {ch!r} would perturb the network; "
                "declare it broadcast")


def attach_observer(model: Model, c: WhConstraint, inst_name: str) -> Model:
    """New model with the observer template, ``{inst_name}T``, instantiated
    at the end as ``inst_name``. Raises if ``check_channels`` does, or if
    either name is taken: a second component of one name would leave a
    query that reads it judging one of the two."""
    check_channels(model, c)
    tpl_name = f"{inst_name}T"
    if any(inst.name == inst_name for inst in model.system):
        raise MonitorError(f"cannot attach observer {inst_name!r}: the "
                           "instance name is taken")
    if any(tpl.name == tpl_name for tpl in model.templates):
        raise MonitorError(f"cannot attach observer {inst_name!r}: its "
                           f"template name {tpl_name!r} is taken")
    tpl = build_observer(c, name=tpl_name)
    return Model(
        decls=model.decls,
        channels=model.channels,
        templates=model.templates + (tpl,),
        system=model.system + (Instantiation(inst_name, tpl.name),),
    )


# --- observer replay ---------------------------------------------------------
#
# An observer that ``build_observer`` makes is a pure listener: every edge
# receives on a broadcast channel, no location has an invariant or an exit
# rate, and its clocks run at rate 0 or 1. So its path in a run is a
# function of the times of the events on its channels, and it can be
# replayed over a finished run's events instead of being composed into the
# network. The engine compiles it, as the one component of a network that
# declares only its channels, so its guards and updates are the ones a
# composed observer evaluates.


@functools.cache
def compile_observer(c: WhConstraint) -> tuple:
    """The observer of ``c`` compiled for replay: (initial location, initial
    values of its locals by slot, {location: ((clock slot, rate), ...) of
    its moving clocks}, {location: {channel: ((guard or None, update kernel
    or None, target), ...)}}), read from the receive edges of its compiled
    network, whose update kernels are generated here. Guards and update
    kernels read the locals as ``V[slot]`` and no location."""
    channels = tuple(ChanDecl(ch, broadcast=True)
                     for ch in dict.fromkeys(map(c.channel, c.events())))
    net = CompiledNetwork(instantiate(
        attach_observer(Model(channels=channels), c, "Obs")))
    [component] = net.components
    rates, edges = {}, {}
    for loc in component.locations.values():
        given = {slot: lit for slot, _, _, lit in loc.rates}
        rates[loc.id] = tuple((slot, given.get(slot, 1.0))
                              for slot in net.clock_slots
                              if given.get(slot, 1.0) != 0.0)
        edges[loc.id] = {ch: tuple((e.guard, e.update, e.target) for e in out)
                         for ch, out in loc.receive.items()}
    values, _ = net.initial_state()
    return component.initial, tuple(values), rates, edges


def observer_failed(trace, c: WhConstraint) -> bool:
    """Whether the observer of ``c`` reaches `fail` on ``trace``'s run, by
    replaying it over the run's events: at each event on a channel that its
    location receives on, its clocks advance by the time since the last
    such event at the location's rate, and its first enabled edge on the
    channel fires through its update kernel, which evaluates every
    right-hand side before it stores any. No edge leaves `fail`, so the
    replay stops there. Its clocks sum event-time differences where a
    composed observer's sum the run's delays, so the two can differ in the
    last bits."""
    location, values, rates, edges = compile_observer(c)
    V = list(values)
    here, moving, last = edges[location], rates[location], 0.0
    for time, _, _, channel, _, _ in trace.events:
        taken = here.get(channel)
        if taken is None:
            continue
        dt, last = time - last, time
        for slot, rate in moving:
            V[slot] += rate * dt
        for guard, update, target in taken:
            if guard is None or guard(V, None):
                if update is not None:
                    update(V, None)
                location = target
                here, moving = edges[location], rates[location]
                break
        if not here:
            break
    return location == "fail"
