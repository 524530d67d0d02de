"""Static network representation: declarations, templates, validation,
and instantiation into a flat component network.

Model values are plain immutable-by-convention dataclasses; once built they
are shared freely across simulation workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import expr as E

VAR_TYPES = ("int", "real", "bool", "clock")
INT_MAX = 2 ** 63 - 1  # the largest magnitude an int variable holds


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: str  # one of VAR_TYPES
    init: float = 0.0


@dataclass(frozen=True)
class ChanDecl:
    name: str
    broadcast: bool = False


@dataclass(frozen=True)
class Sync:
    channel: str
    direction: str  # emit | receive


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    guard: Optional[E.Expr] = None
    sync: Optional[Sync] = None
    weight: float = 1.0
    updates: tuple = ()  # tuple[(name, Expr)]


@dataclass(frozen=True)
class Location:
    id: str
    invariant: Optional[E.Expr] = None
    rates: tuple = ()  # tuple[(clock name, Expr)]; absent clocks default to rate 1
    kind: str = "normal"  # normal | committed
    exit_rate: Optional[float] = None


@dataclass(frozen=True)
class Template:
    name: str
    params: tuple = ()  # tuple[(name, type)]
    decls: tuple = ()  # tuple[VarDecl]
    locations: tuple = ()
    edges: tuple = ()
    initial: str = ""

    def location(self, loc_id: str) -> Location:
        for loc in self.locations:
            if loc.id == loc_id:
                return loc
        raise KeyError(loc_id)


@dataclass(frozen=True)
class Instantiation:
    name: str  # instance name
    template: str
    args: tuple = ()  # literal values


@dataclass(frozen=True)
class Model:
    decls: tuple = ()  # tuple[VarDecl]
    channels: tuple = ()  # tuple[ChanDecl]
    templates: tuple = ()
    system: tuple = ()  # tuple[Instantiation]

    def __hash__(self):
        # the structure's hash, computed once per object: hashing the whole
        # vehicle model takes 0.1-0.3 ms, and smc looks a compiled network
        # up by it at every check
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.decls, self.channels, self.templates, self.system))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # string hashes differ between processes, so a copy hashes anew
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def template(self, name: str) -> Template:
        for t in self.templates:
            if t.name == name:
                return t
        raise KeyError(name)


@dataclass(frozen=True)
class Issue:
    code: str
    where: str
    message: str


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class Component:
    """One instantiated template with parameters substituted."""

    name: str
    template: Template
    bindings: tuple = ()  # tuple[(param name, literal value)]


@dataclass(frozen=True)
class Network:
    model: Model
    components: tuple = ()  # ordered as declared in the system line


def value_types(network: Network) -> dict:
    """value key -> int|real|bool|clock: globals by name, then each
    component's locals as ``comp.name``, in declaration order."""
    types = {d.name: d.type for d in network.model.decls}
    for comp in network.components:
        for d in comp.template.decls:
            types[f"{comp.name}.{d.name}"] = d.type
    return types


def resolver(network: Network, comp: Optional[Component] = None) -> E.Resolver:
    """The name scope of ``comp``'s expressions, or of queries when ``comp``
    is None: name -> ``("var", key)``, ``("loc", comp, loc)`` or
    ``("const", value)``.  Parameters shadow local declarations, which shadow
    globals; ``Comp.member`` reads a location, else a local, else a parameter
    of component ``Comp``.  Raises :class:`ExprError` for any other name."""
    scope = {}
    for c in network.components:  # later updates shadow earlier ones
        scope.update((f"{c.name}.{p}", ("const", v)) for p, v in c.bindings)
        scope.update((f"{c.name}.{d.name}", ("var", f"{c.name}.{d.name}"))
                     for d in c.template.decls)
        scope.update((f"{c.name}.{l.id}", ("loc", c.name, l.id))
                     for l in c.template.locations)
    scope.update((d.name, ("var", d.name)) for d in network.model.decls)
    if comp is not None:
        scope.update((d.name, ("var", f"{comp.name}.{d.name}"))
                     for d in comp.template.decls)
        scope.update((p, ("const", v)) for p, v in comp.bindings)

    def resolve(name: str):
        if name not in scope:
            raise E.ExprError(f"name {name!r} undeclared")
        return scope[name]

    return resolve


def value_key(resolve: E.Resolver, name: str) -> Optional[str]:
    """The value key ``name`` resolves to; None for a location, a parameter
    or an unknown name."""
    try:
        kind, *rest = resolve(name)
    except E.ExprError:
        return None
    return rest[0] if kind == "var" else None


def _finite_positive(x: float) -> bool:
    """A weight or an exit rate: a literal too large for a float reads as
    inf, which no weighted choice or exponential draw can use."""
    return math.isfinite(x) and x > 0


def is_int(x: float) -> bool:
    """Whether an int variable can hold ``x``: an integer in the 64-bit
    range."""
    return math.isfinite(x) and x == int(x) and abs(x) <= INT_MAX


def validate_model(model: Model) -> ValidationReport:
    """Collect every structural violation; pure and idempotent.

    A model with an empty error list is accepted by the engine and will not
    be rejected mid-run for structural reasons: every name is resolved, and
    every clock found, by :func:`resolver` and :func:`value_types` over the
    system line's network, the scope the engine compiles with.  A template
    checks through its first instance, or through a placeholder instance if
    the system line has none.
    """
    rep = ValidationReport()
    err = lambda code, where, msg: rep.errors.append(Issue(code, where, msg))

    components = []
    for inst in model.system:
        try:
            components.append(_component(model, inst))
        except ModelError:
            pass  # reported below
    placeholders = [Component(t.name, t, tuple((p, 0) for p, _ in t.params))
                    for t in model.templates
                    if not any(c.template is t for c in components)]
    network = Network(model, tuple(placeholders + components))
    types = value_types(network)
    chan_names = {c.name for c in model.channels}
    binary = {c.name for c in model.channels if not c.broadcast}

    def check_int(value, where, what):
        if not is_int(value):
            err("bad int value", where,
                f"{what} is {value!r}, not an integer in the 64-bit range")

    for d in model.decls:
        if d.type == "int":
            check_int(d.init, d.name, f"the initial value of int {d.name!r}")

    tpl_names = set()
    for tpl in model.templates:
        if tpl.name in tpl_names:
            err("duplicate template", tpl.name, f"template {tpl.name!r} declared twice")
        tpl_names.add(tpl.name)
        for name, ptype in tpl.params:
            if ptype not in VAR_TYPES:
                err("unknown type", tpl.name,
                    f"parameter {name!r} has unknown type {ptype!r}")
        for d in tpl.decls:
            if d.type == "int":
                check_int(d.init, f"{tpl.name}.{d.name}",
                          f"the initial value of int {d.name!r}")

        resolve = resolver(network, next(c for c in network.components
                                         if c.template is tpl))
        is_clock = lambda name: types.get(value_key(resolve, name)) == "clock"

        def check_names(e, where):
            for message in E.bad_calls(e):
                err("bad call", where, message)
            for name in E.names(e):
                try:
                    resolve(name)
                except E.ExprError as exc:
                    if name in chan_names:
                        err("channel in expression", where,
                            f"channel {name!r} used as a value")
                    else:
                        err("unknown name", where, str(exc))

        loc_ids = set()
        initials = [l for l in tpl.locations if l.id == tpl.initial]
        for loc in tpl.locations:
            where = f"{tpl.name}.{loc.id}"
            if loc.id in loc_ids:
                err("duplicate location", where, f"location id {loc.id!r} not unique")
            loc_ids.add(loc.id)
            if loc.invariant is not None:
                if E.clock_degree(loc.invariant, is_clock) == E.NONLINEAR:
                    err("nonlinear invariant", where,
                        "invariant has nonlinear clock terms")
                check_names(loc.invariant, where)
            for clk, rate in loc.rates:
                if "." in clk or not is_clock(clk):
                    err("unknown clock", where, f"rate on unknown clock {clk!r}")
                check_names(rate, where)
            if loc.exit_rate is not None and not _finite_positive(
                    loc.exit_rate):
                err("nonpositive exitrate", where,
                    "exitrate must be finite and > 0")
        if not tpl.locations:
            err("no locations", tpl.name, "template has no locations")
        elif not tpl.initial:
            err("no initial", tpl.name, "template lacks an initial location")
        elif not initials:
            err("no initial", tpl.name,
                f"initial location {tpl.initial!r} does not exist")

        for i, edge in enumerate(tpl.edges):
            where = f"{tpl.name}.edge[{i}] {edge.source}->{edge.target}"
            if edge.source not in loc_ids:
                err("unknown location", where, f"source {edge.source!r} undeclared")
            if edge.target not in loc_ids:
                err("unknown location", where, f"target {edge.target!r} undeclared")
            if not _finite_positive(edge.weight):
                err("nonpositive weight", where,
                    f"edge weight {edge.weight} must be finite and > 0")
            if edge.sync is not None and edge.sync.channel not in chan_names:
                err("unknown channel", where,
                    f"sync on undeclared channel {edge.sync.channel!r}")
            if edge.guard is not None:
                if E.clock_degree(edge.guard, is_clock) == E.NONLINEAR:
                    err("nonlinear guard", where, "guard has nonlinear clock terms")
                check_names(edge.guard, where)
                # an emitter races with the delay it drew while its receiver
                # was ready; a receiver's clock guard may open or close
                # during that delay, which the race does not see
                if (edge.sync is not None and edge.sync.direction == "receive"
                        and edge.sync.channel in binary
                        and any(map(is_clock, E.names(edge.guard)))):
                    err("binary receive reads a clock", where,
                        f"guard of a receive edge on binary channel "
                        f"{edge.sync.channel!r} reads a clock")
            for name, rhs in edge.updates:
                if "." in name or value_key(resolve, name) is None:
                    why = "undeclared"
                    if name in dict(tpl.params):
                        why = f"is a parameter of {tpl.name}"
                        if any(d.name == name for d in tpl.decls):
                            why += f" (shadows local {name!r})"
                    err("unknown name", where, f"update target {name!r} {why}")
                check_names(rhs, where)

    raters = {}  # clock value key -> the first instance that rates it
    for comp in components:
        resolve = resolver(network, comp)
        for key in dict.fromkeys(value_key(resolve, clk)
                                 for loc in comp.template.locations
                                 for clk, _ in loc.rates):
            if types.get(key) != "clock":
                continue  # reported as an unknown clock above
            first = raters.setdefault(key, comp.name)
            if first != comp.name:
                err("clock rated twice", comp.name,
                    f"clock {key!r} is rated by {first} and {comp.name}")

    seen_inst = set()
    for inst in model.system:
        if inst.template not in tpl_names:
            rep.errors.append(Issue("unknown template", inst.name,
                                    f"system references unknown template {inst.template!r}"))
            continue
        tpl = model.template(inst.template)
        if len(inst.args) != len(tpl.params):
            rep.errors.append(Issue(
                "arity mismatch", inst.name,
                f"{inst.template} takes {len(tpl.params)} argument(s), got {len(inst.args)}"))
        for (name, ptype), arg in zip(tpl.params, inst.args):
            if ptype == "int":
                check_int(arg, inst.name, f"int parameter {name!r}")
        if inst.name in seen_inst:
            rep.errors.append(Issue("duplicate instance", inst.name,
                                    f"instance name {inst.name!r} not unique"))
        seen_inst.add(inst.name)
    return rep


def _component(model: Model, inst: Instantiation) -> Component:
    try:
        tpl = model.template(inst.template)
    except KeyError:
        raise ModelError(f"unknown template {inst.template!r}") from None
    if len(inst.args) != len(tpl.params):
        raise ModelError(
            f"{inst.name}: {inst.template} takes {len(tpl.params)} "
            f"argument(s), got {len(inst.args)}")
    return Component(inst.name, tpl,
                     tuple((p, a) for (p, _), a in zip(tpl.params, inst.args)))


def instantiate(model: Model) -> Network:
    """Flatten the system line into an ordered component list.

    Callers must first run :func:`validate_model`; arity mismatches still
    raise so a skipped validation fails loudly.
    """
    return Network(model, tuple(_component(model, inst) for inst in model.system))
