"""Stochastic simulation engine.

Executes one run of a compiled network up to a time bound: delay sampling
(uniform on bounded sojourns, exponential otherwise), race resolution with
deterministic tie-breaking, weighted edge choice, broadcast/binary
synchronization and numeric clock integration under location-dependent
rates.

Determinism contract: a run is a pure function of (model, master seed, run
index).  Each run owns its RngStream and its mutable state; nothing is
shared, so runs can execute on any number of workers.

Hot path.  Every guard, invariant, rate and update is compiled once to a
``lambda V, L`` closure (:func:`stamc.expr.compile_expr`).  Guards,
invariants and their clock atoms also get a probe closure
``lambda V, L, R, dt`` (:func:`stamc.expr.compile_probe`) that reads each
clock as ``V[k] + R[k] * dt``: window search evaluates them ``dt`` ahead
under the current rates without copying ``V``.  Each location's rates are
split at compile time into clock-free rates, which advance their clock
exactly by ``rate * dt``, and clock-reading rates, which are integrated
jointly on float lists.  When the clock-reading rates are affine in clocks
that all move at constant rates, they are linear in time over a delay and
one midpoint step ``y + f(dt / 2) * dt`` integrates them exactly; otherwise
fixed-step RK4 takes ``ceil(dt / h_max)`` steps.

Bit-identity contract: the hot path performs the same float operations, in
the same order, as copying ``V`` per probe and integrating with numpy
arrays (the midpoint step above, or RK4 as ``y + k * (h / 2)``, then
``((k1 + 2 * k2) + 2 * k3) + k4`` times ``h / 6``).  Runs are bit-identical
to that straightforward form, which ``tests/test_engine.py`` keeps as its
reference.  Only runs through a stepped plan depend on ``h_max``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as E
from .model import Model, Network, instantiate

INF = math.inf


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


@dataclass(frozen=True)
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


# --- compilation -----------------------------------------------------------


class _CompiledEdge:
    __slots__ = ("label", "source", "target", "guard", "guard_probe",
                 "guard_atoms", "sync", "weight", "updates")

    def __init__(self, label, source, target, guard, guard_probe, guard_atoms,
                 sync, weight, updates):
        self.label = label
        self.source = source
        self.target = target
        self.guard = guard  # compiled or None
        self.guard_probe = guard_probe  # probe form of guard, or None
        self.guard_atoms = guard_atoms  # [(lhs - rhs fn, its probe form)]
        self.sync = sync
        self.weight = weight
        self.updates = updates  # list[(key, fn, vtype)]


class _CompiledLocation:
    __slots__ = ("id", "committed", "invariant", "inv_probe", "inv_atoms",
                 "rates", "affine", "exit_rate")

    def __init__(self, id, committed, invariant, inv_probe, inv_atoms, rates,
                 affine, exit_rate):
        self.id = id
        self.committed = committed
        self.invariant = invariant
        self.inv_probe = inv_probe
        self.inv_atoms = inv_atoms
        self.rates = rates  # [(clock key, fn, clock keys the rate reads)]
        self.affine = affine  # every rate is affine in clocks
        self.exit_rate = exit_rate


class _RatePlan:
    """How clocks advance while the network sits in one location
    configuration: the clock-free rates, the clocks left at rate 1, and the
    clock-reading rates that are integrated.  The plan is ``exact`` when
    those rates read only constant-rate clocks and are affine in them: they
    are then linear in time over a delay."""

    __slots__ = ("rates", "const", "unit", "coupled", "stage_const",
                 "stage_y", "exact")

    def __init__(self, clock_keys, locations):
        self.rates = []  # every rate fn, in component order
        self.const = []  # clock-free rate fns
        coupled = {}  # clock key -> (fn, clock keys it reads)
        for loc in locations:
            for key, fn, reads in loc.rates:
                self.rates.append((key, fn))
                if reads:
                    coupled[key] = (fn, reads)
                else:
                    self.const.append((key, fn))
        const_keys = dict(self.const)
        self.unit = [key for key in clock_keys
                     if key not in coupled and key not in const_keys]
        self.coupled = [(key, fn) for key, (fn, _) in coupled.items()]
        read = set()
        for _, reads in coupled.values():
            read |= reads
        # what the coupled rates read inside an RK4 stage: clocks that
        # advance at a constant rate, and positions of integrated clocks
        self.stage_const = [key for key in list(const_keys) + self.unit
                            if key in read and key not in coupled]
        self.stage_y = [(i, key) for i, key in enumerate(coupled)
                        if key in read]
        self.exact = not self.stage_y and all(loc.affine for loc in locations)


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
    __slots__ = ("name", "index", "initial", "locations", "out_active",
                 "out_receive", "init_values")

    def __init__(self, name, index, initial):
        self.name = name
        self.index = index
        self.initial = initial
        self.locations = {}  # loc id -> _CompiledLocation
        self.out_active = {}  # loc id -> [edges] (internal or emitting)
        self.out_receive = {}  # loc id -> {channel: [edges]}
        self.init_values = []  # [(key, value, vtype)] for locals


class CompiledNetwork:
    """A network lowered to closures, ready to simulate."""

    def __init__(self, network: Network):
        self.network = network
        model = network.model
        self.broadcast = {c.name: c.broadcast for c in model.channels}
        self.var_types = {}  # value key -> int|real|bool|clock
        self.clock_keys = []
        self.components = []
        self._global_init = []
        self._rate_plans = {}  # tuple of location ids -> _RatePlan
        self._watches = {}  # watch tuple -> compiled watch list

        for d in model.decls:
            self.var_types[d.name] = d.type
            if d.type == "clock":
                self.clock_keys.append(d.name)
            self._global_init.append((d.name, d.init, d.type))

        comp_templates = {c.name: c.template for c in network.components}
        comp_locals = {}
        for comp in network.components:
            local = {p: v for p, v in comp.bindings}
            comp_locals[comp.name] = ({d.name for d in comp.template.decls},
                                      local)
            for d in comp.template.decls:
                key = f"{comp.name}.{d.name}"
                self.var_types[key] = d.type
                if d.type == "clock":
                    self.clock_keys.append(key)

        global_names = {d.name for d in model.decls}

        def make_resolver(comp_name: Optional[str]) -> Callable:
            local_decls, params = ((set(), {}) if comp_name is None
                                   else comp_locals[comp_name])

            def resolver(name: str):
                if "." in name:
                    owner, member = name.split(".", 1)
                    if owner not in comp_templates:
                        raise E.ExprError(f"unknown component {owner!r}")
                    tpl = comp_templates[owner]
                    if any(l.id == member for l in tpl.locations):
                        return ("loc", owner, member)
                    if any(d.name == member for d in tpl.decls):
                        return ("var", name)
                    for p, v in dict(
                            next(c.bindings for c in network.components
                                 if c.name == owner)).items():
                        if p == member:
                            return ("const", v)
                    raise E.ExprError(f"unknown member {name!r}")
                if comp_name is not None:
                    if name in params:
                        return ("const", params[name])
                    if name in local_decls:
                        return ("var", f"{comp_name}.{name}")
                if name in global_names:
                    return ("var", name)
                raise E.ExprError(f"unknown name {name!r}")

            return resolver

        self.query_resolver = make_resolver(None)

        for index, comp in enumerate(network.components):
            cc = _CompiledComponent(comp.name, index, comp.template.initial)
            resolver = make_resolver(comp.name)
            local_decls, params = comp_locals[comp.name]
            for d in comp.template.decls:
                cc.init_values.append((f"{comp.name}.{d.name}", d.init, d.type))

            def is_clock(name: str) -> bool:
                kind, *rest = resolver(name)
                return kind == "var" and self.var_types.get(rest[0]) == "clock"

            def resolved_clock_refs(e) -> frozenset:
                return frozenset(resolver(n)[1] for n in E.names(e)
                                 if is_clock(n))

            for loc in comp.template.locations:
                inv, inv_probe, inv_atoms = self._compile_window(
                    loc.invariant, resolver, resolved_clock_refs)
                rates = {}
                for clk, rate_expr in loc.rates:
                    key = resolver(clk)[1]
                    rates[key] = (E.compile_expr(rate_expr, resolver),
                                  resolved_clock_refs(rate_expr))
                cc.locations[loc.id] = _CompiledLocation(
                    loc.id, loc.kind == "committed", inv, inv_probe, inv_atoms,
                    [(key, fn, reads) for key, (fn, reads) in rates.items()],
                    all(_affine_rate(e, is_clock) for _, e in loc.rates),
                    loc.exit_rate)
                cc.out_active[loc.id] = []
                cc.out_receive[loc.id] = {}

            for i, edge in enumerate(comp.template.edges):
                guard, guard_probe, atoms = self._compile_window(
                    edge.guard, resolver, resolved_clock_refs)
                updates = []
                for name, rhs in edge.updates:
                    key = resolver(name)[1]
                    updates.append((key, E.compile_expr(rhs, resolver),
                                    self.var_types[key]))
                ce = _CompiledEdge(
                    f"{edge.source}->{edge.target}#{i}", edge.source,
                    edge.target, guard, guard_probe, atoms, edge.sync,
                    edge.weight, updates)
                if edge.sync is not None and edge.sync.direction == "receive":
                    cc.out_receive[edge.source].setdefault(
                        edge.sync.channel, []).append(ce)
                else:
                    cc.out_active[edge.source].append(ce)
            self.components.append(cc)

    def _compile_window(self, boolean_expr, resolver, refs_clocks):
        """(predicate, its probe, [(lhs - rhs, its probe)] for each
        clock-bearing atom) of a guard or invariant; (None, None, []) for
        an absent one."""
        if boolean_expr is None:
            return None, None, []
        clocks = frozenset(self.clock_keys)
        atoms = []
        for atom in E.comparison_atoms(boolean_expr):
            if refs_clocks(atom.left) or refs_clocks(atom.right):
                diff = E.Binary("-", atom.left, atom.right)
                atoms.append((E.compile_expr(diff, resolver),
                              E.compile_probe(diff, resolver, clocks)))
        return (E.compile_expr(boolean_expr, resolver),
                E.compile_probe(boolean_expr, resolver, clocks), atoms)

    def rate_plan(self, L) -> _RatePlan:
        """The rate plan of location configuration ``L``, built once."""
        config = tuple(L.values())
        plan = self._rate_plans.get(config)
        if plan is None:
            locations = [cc.locations[L[cc.name]] for cc in self.components]
            plan = self._rate_plans[config] = _RatePlan(
                self.clock_keys,
                [loc for loc in locations if not loc.committed])
        return plan

    def initial_state(self) -> "State":
        V = {}
        L = {}
        for key, value, vtype in self._global_init:
            V[key] = self._coerce(value, vtype)
        for cc in self.components:
            L[cc.name] = cc.initial
            for key, value, vtype in cc.init_values:
                V[key] = self._coerce(value, vtype)
        return State(V, L, 0.0)

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
        """[(key text, compiled fn)] for query-scope watch expressions,
        built once per watch tuple."""
        key = tuple(exprs)
        out = self._watches.get(key)
        if out is None:
            from .parser import parse_expression
            out = self._watches[key] = [
                (E.to_text(e), E.compile_expr(e, self.query_resolver))
                for e in (parse_expression(x) if isinstance(x, str) else x
                          for x in key)]
        return out


@dataclass
class State:
    V: dict  # value key -> number
    L: dict  # component name -> location id
    time: float


# --- simulator -------------------------------------------------------------


class Simulator:
    def __init__(self, net: CompiledNetwork, rng: RngStream,
                 config: Optional[RunConfig] = None, watch=()):
        self.net = net
        self.rng = rng
        self.config = config or RunConfig()
        self.state = net.initial_state()
        self.watch = net.compile_watch(watch)

    # -- expression probing under linear clock extrapolation --

    def _current_rates(self) -> dict:
        """Numeric rate per clock at the current state (linear probe basis)."""
        V, L = self.state.V, self.state.L
        rates = dict.fromkeys(self.net.clock_keys, 1.0)
        for key, fn in self.net.rate_plan(L).rates:
            rates[key] = float(fn(V, L))
        return rates

    def _earliest(self, pred, probe, atoms, rates, horizon: float,
                  want: bool):
        """Earliest t in [0, horizon] with pred == want, or None.

        Guard/invariant atoms are affine in the clocks (validated), so truth
        can only flip at atom crossing times; probe those breakpoints.
        """
        V, L = self.state.V, self.state.L
        eps = 1e-9
        if bool(pred(V, L)) == want:
            return 0.0
        if horizon <= 0:
            return None
        # boundary case: truth flips immediately (atom sitting at 0 with a
        # nonzero slope), which yields no strictly positive crossing below
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

    def _invariant_deadline(self, cc, rates) -> float:
        """Latest delay the location invariant allows (inf if unbounded)."""
        loc = cc.locations[self.state.L[cc.name]]
        if loc.invariant is None:
            return INF
        if not bool(loc.invariant(self.state.V, self.state.L)):
            raise EngineError(
                f"invariant of {cc.name} violated at entry (engine defect)")
        t = self._earliest(loc.invariant, loc.inv_probe, loc.inv_atoms,
                           rates, INF, False)
        return INF if t is None else t

    def _edge_window_start(self, edge, rates, horizon: float):
        if edge.guard is None:
            return 0.0
        return self._earliest(edge.guard, edge.guard_probe, edge.guard_atoms,
                              rates, horizon, True)

    def sample_delay(self, comp_index: int, rates: dict, deadline: float):
        """Sojourn delay for one component in a location that is not
        committed, or None if it cannot act.

        Uniform[L, U] when the invariant bounds the sojourn, otherwise
        L + Exponential(exit-rate, default 1); U is ``deadline``, the
        component's invariant deadline under ``rates``.
        """
        cc = self.net.components[comp_index]
        loc = cc.locations[self.state.L[cc.name]]
        starts = []
        for edge in cc.out_active[loc.id]:
            if self._emit_blocked(cc, edge):
                # receiver locations are frozen until the next event, so
                # skip it (clock-guarded receivers opening mid-sojourn are
                # ignored)
                continue
            s = self._edge_window_start(edge, rates, deadline)
            if s is not None:
                starts.append(s)
        if not starts:
            return None
        Lb = min(starts)
        if deadline < INF:
            return self.rng.uniform(Lb, deadline)
        return Lb + self.rng.exponential(loc.exit_rate or 1.0)

    # -- integration --

    def advance_time(self, dt: float) -> None:
        """Advance all clocks by dt under the current location rates.

        Clocks whose rate does not reference other clocks advance exactly
        by rate*dt; the rest are integrated jointly by :meth:`_integrate`.
        """
        if dt < 0:
            if dt < -1e-6:
                raise EngineError("negative dt")
            dt = 0.0  # rounding residue from a boundary nudge
        if dt == 0.0:
            return
        V, L = self.state.V, self.state.L
        plan = self.net.rate_plan(L)
        rates = {}
        for key, fn in plan.const:
            rates[key] = float(fn(V, L))
        for key in plan.unit:
            rates[key] = 1.0
        base = [V[key] for key in rates]
        if plan.coupled:
            self._integrate(plan, rates, dt)
        for (key, r), b in zip(rates.items(), base):
            if not math.isfinite(r):
                raise EngineError(f"rate of {key!r} is not finite")
            V[key] = b + r * dt
        self.state.time += dt

    def _integrate(self, plan, rates, dt: float) -> None:
        """Integrate the clocks whose rates read clocks over dt: in one
        midpoint step on an exact plan, otherwise by fixed-step RK4."""
        V, L = self.state.V, self.state.L
        ykeys = [key for key, _ in plan.coupled]
        fns = [fn for _, fn in plan.coupled]
        y = [V[key] for key in ykeys]
        stage_const = [(key, V[key], rates[key]) for key in plan.stage_const]
        stage_y = plan.stage_y

        def f(t_off, yvals):
            for key, b, r in stage_const:
                V[key] = b + r * t_off
            for i, key in stage_y:
                V[key] = yvals[i]
            out = []
            for key, fn in zip(ykeys, fns):
                v = float(fn(V, L))
                if not math.isfinite(v):
                    raise EngineError(f"rate of {key!r} is not finite")
                out.append(v)
            return out

        if plan.exact:
            # linear in time over the delay: the midpoint rule is exact
            y = [a + k * dt for a, k in zip(y, f(dt / 2, y))]
        else:
            n_steps = max(1, math.ceil(dt / self.config.h_max))
            h = dt / n_steps
            h2, h6 = h / 2, h / 6
            t = 0.0
            for _ in range(n_steps):
                k1 = f(t, y)
                k2 = f(t + h2, [a + k * h2 for a, k in zip(y, k1)])
                k3 = f(t + h2, [a + k * h2 for a, k in zip(y, k2)])
                k4 = f(t + h, [a + k * h for a, k in zip(y, k3)])
                y = [a + (((b1 + 2 * b2) + 2 * b3) + b4) * h6
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
                t += h
        for key, val in zip(ykeys, y):
            V[key] = val

    # -- firing --

    def _enabled_edges(self, cc) -> list:
        """The active edges of ``cc`` that can fire now."""
        V, L = self.state.V, self.state.L
        enabled = []
        for edge in cc.out_active[L[cc.name]]:
            if edge.guard is not None and not edge.guard(V, L):
                continue
            if self._emit_blocked(cc, edge):
                continue
            enabled.append(edge)
        return enabled

    def _emit_blocked(self, cc, edge) -> bool:
        """A binary emit needs exactly one ready receiver."""
        return (edge.sync is not None and edge.sync.direction == "emit"
                and not self.net.broadcast.get(edge.sync.channel, True)
                and self._receiver_count(cc, edge.sync.channel) != 1)

    def _receiver_count(self, emitter, ch) -> int:
        V, L = self.state.V, self.state.L
        count = 0
        for cc in self.net.components:
            if cc is emitter:
                continue
            for edge in cc.out_receive[L[cc.name]].get(ch, ()):
                if edge.guard is None or edge.guard(V, L):
                    count += 1
                    break
        return count

    def _apply_updates(self, edge) -> None:
        V, L = self.state.V, self.state.L
        if edge.updates:
            staged = [(key, fn(V, L), vtype) for key, fn, vtype in edge.updates]
            for key, value, vtype in staged:
                V[key] = CompiledNetwork._coerce(value, vtype)

    def _fire_one_of(self, cc, enabled) -> TraceEvent:
        """Fire one of ``cc``'s ``enabled`` edges, chosen by weight."""
        pre = self._snapshot()
        edge = enabled[self.rng.weighted_choice([e.weight for e in enabled])]
        ch = self._fire(cc, edge)
        if self.config.check_invariants:
            self._check_invariants("after a firing")
        return TraceEvent(self.state.time, cc.name, edge.label, ch, pre,
                          self._snapshot())

    def _fire(self, cc, edge) -> Optional[str]:
        """Apply one edge plus any synchronized receivers; returns channel."""
        V, L = self.state.V, self.state.L
        self._apply_updates(edge)
        L[cc.name] = edge.target
        if edge.sync is None:
            return None
        ch = edge.sync.channel
        broadcast = self.net.broadcast.get(ch, True)
        receivers = []
        for other in self.net.components:
            if other is cc:
                continue
            enabled = [e for e in other.out_receive[L[other.name]].get(ch, ())
                       if e.guard is None or e.guard(V, L)]
            if enabled:
                receivers.append((other, enabled))
        if not broadcast:
            receivers = receivers[:1]  # validated to be exactly one
        for other, enabled in receivers:
            idx = self.rng.weighted_choice([e.weight for e in enabled])
            chosen = enabled[idx]
            self._apply_updates(chosen)
            L[other.name] = chosen.target
        return ch

    def _snapshot(self) -> dict:
        V, L = self.state.V, self.state.L
        return {key: fn(V, L) for key, fn in self.watch}

    def _check_invariants(self, when: str) -> None:
        """Raise unless every current invariant holds, or held 1e-9 time
        units ago under the current rates: the window search probes 1e-9
        past each crossing, so a delay may end that far beyond a
        boundary."""
        V, L = self.state.V, self.state.L
        rates = None
        for cc in self.net.components:
            loc = cc.locations[L[cc.name]]
            if loc.invariant is None or loc.invariant(V, L):
                continue
            rates = rates or self._current_rates()
            if loc.inv_probe(V, L, rates, -1e-9):
                continue
            tpl = self.net.network.components[cc.index].template
            inv = next(x.invariant for x in tpl.locations if x.id == loc.id)
            raise EngineError(
                f"invariant {E.to_text(inv)!r} of {cc.name}.{loc.id} "
                f"violated {when} (t={self.state.time})")

    def _delay(self, dt: float) -> None:
        self.advance_time(dt)
        if self.config.check_invariants:
            self._check_invariants("at the end of a delay")

    def step(self, bound: float):
        """One network step.  Returns a TraceEvent, or a terminal string:
        "bound_reached" | "deadlock"."""
        L = self.state.L
        committed = [cc for cc in self.net.components
                     if cc.locations[L[cc.name]].committed]
        if committed:
            for cc in committed:
                enabled = self._enabled_edges(cc)
                if enabled:
                    return self._fire_one_of(cc, enabled)
            return "deadlock"

        rates = self._current_rates()
        best = None  # (delay, index)
        cap = INF  # invariant ceiling of components that cannot act
        for cc in self.net.components:
            deadline = self._invariant_deadline(cc, rates)
            delay = self.sample_delay(cc.index, rates, deadline)
            if delay is None:
                cap = min(cap, deadline)
            elif best is None or delay < best[0]:
                best = (delay, cc.index)

        remaining = bound - self.state.time
        if best is None:
            self._delay(min(remaining, cap))
            return "bound_reached" if cap >= remaining else "deadlock"
        delay, winner_idx = best
        if delay > remaining:
            self._delay(remaining)
            return "bound_reached"
        if delay > cap:
            self._delay(cap)
            return "deadlock"

        self._delay(delay)
        cc = self.net.components[winner_idx]
        enabled = self._enabled_edges(cc)
        if not enabled:
            # accumulated rounding can leave a boundary guard (window of
            # width zero) a few ulps short of its crossing; nudge once
            self.advance_time(1e-9)
            enabled = self._enabled_edges(cc)
        if not enabled:
            raise EngineError(
                f"{cc.name}: no edge enabled at its sampled delay "
                "(guard window closed; engine defect or unsupported model)")
        return self._fire_one_of(cc, enabled)


def run(network, bound: float, rng: RngStream, watch=(),
        config: Optional[RunConfig] = None) -> Trace:
    """Simulate one run up to the bound; final partial delay is applied so
    watched expressions are sampled exactly at the bound."""
    if bound <= 0:
        raise EngineError("bound must be > 0")
    if isinstance(network, Model):
        network = instantiate(network)
    net = (network if isinstance(network, CompiledNetwork)
           else CompiledNetwork(network))
    sim = Simulator(net, rng, config, watch)
    events = []
    initial = sim._snapshot()
    for _ in range(sim.config.max_steps):
        result = sim.step(bound)
        if result == "bound_reached":
            return Trace(initial, events, sim.state.time, "bound_reached",
                         sim._snapshot())
        if result == "deadlock":
            return Trace(initial, events, sim.state.time, "deadlock",
                         sim._snapshot())
        events.append(result)
    raise EngineError(
        "zeno/committed-loop: step ceiling "
        f"({sim.config.max_steps}) exceeded at t={sim.state.time}")


def trace_to_jsonl(trace: Trace) -> str:
    lines = []
    for ev in trace.events:
        lines.append(json.dumps({"t": ev.time, "comp": ev.component,
                                 "edge": ev.edge, "watch": ev.watch}))
    return "\n".join(lines) + ("\n" if lines else "")
