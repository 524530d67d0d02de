"""Expression AST shared by guards, invariants, rates, updates and queries.

Expressions are parsed by :mod:`stamc.parser`, resolved against a network
scope and compiled once to real Python closures, ``lambda V, L: <src>``.
``V`` is indexed by the key a ``("var", key)`` resolution gives and ``L``
by the component of a ``("loc", comp, loc)`` one; both keys appear in the
source by ``repr``.  The engine resolves names to integer slots, so its
closures read ``V[3]`` and ``L[2]`` from two lists.

The probe form ``lambda V, L, R, dt: <src>`` (:func:`compile_probe`)
evaluates the same expression ``dt`` time units ahead under constant clock
rates ``R``: each clock ``k`` reads as ``(V[k] + R[k] * dt)``.  That is the
same float operation as building an advanced copy of ``V`` and evaluating
the plain form on it, so a probe returns bit-identical values without
copying ``V``.

Each function is evaluated once per distinct (parameters, source), cached
on those two strings, and carries its source as ``fn.source``, from
which :mod:`stamc.engine` builds its kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

Resolver = Callable[[str], tuple]


class ExprError(Exception):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Name:
    # "x" or qualified "Comp.x"; for qualified names the dot is kept verbatim
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "!" or "-"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # || && imply == != <= >= < > + - * / %
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Cond:
    test: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # abs, min, max
    args: tuple


Expr = Union[Num, BoolLit, Name, Unary, Binary, Cond, Call]

_FUNCS = {"abs": abs, "min": min, "max": max}

_PY_OP = {
    "||": "or",
    "&&": "and",
    "==": "==",
    "!=": "!=",
    "<=": "<=",
    ">=": ">=",
    "<": "<",
    ">": ">",
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "%": "%",
}


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    if isinstance(e, Unary):
        yield from walk(e.operand)
    elif isinstance(e, Binary):
        yield from walk(e.left)
        yield from walk(e.right)
    elif isinstance(e, Cond):
        yield from walk(e.test)
        yield from walk(e.then)
        yield from walk(e.other)
    elif isinstance(e, Call):
        for a in e.args:
            yield from walk(a)


def names(e: Expr) -> set:
    return {n.name for n in walk(e) if isinstance(n, Name)}


def _py(e: Expr, resolver: Resolver, clocks=frozenset()) -> str:
    """Python source of ``e``; a variable whose key is in ``clocks`` reads
    as ``(V[k] + R[k] * dt)``."""
    if isinstance(e, Num):
        if not math.isfinite(e.value):  # no literal in the language
            raise ExprError(f"no literal for the number {e.value!r}")
        return repr(e.value)
    if isinstance(e, BoolLit):
        return "True" if e.value else "False"
    if isinstance(e, Name):
        kind, *rest = resolver(e.name)
        if kind == "var":
            key = rest[0]
            if key in clocks:
                return f"(V[{key!r}] + R[{key!r}] * dt)"
            return f"V[{key!r}]"
        if kind == "loc":
            comp, loc = rest
            return f"(L[{comp!r}] == {loc!r})"
        if kind == "const":
            return repr(rest[0])
        raise ExprError(f"unresolvable name {e.name!r}")
    if isinstance(e, Unary):
        inner = _py(e.operand, resolver, clocks)
        return f"(not {inner})" if e.op == "!" else f"(-{inner})"
    if isinstance(e, Binary):
        a = _py(e.left, resolver, clocks)
        b = _py(e.right, resolver, clocks)
        if e.op == "imply":
            return f"((not {a}) or {b})"
        return f"({a} {_PY_OP[e.op]} {b})"
    if isinstance(e, Cond):
        return (
            f"({_py(e.then, resolver, clocks)} if "
            f"{_py(e.test, resolver, clocks)}"
            f" else {_py(e.other, resolver, clocks)})"
        )
    if isinstance(e, Call):
        args = ", ".join(_py(a, resolver, clocks) for a in e.args)
        return f"{e.func}({args})"
    raise ExprError(f"unknown node {e!r}")


@functools.cache
def _lambda(params: str, src: str) -> Callable:
    """``lambda params: src``, evaluated once per distinct (params, src):
    a second network with the same expressions compiles nothing."""
    fn = eval(f"lambda {params}: {src}", {"__builtins__": {}, **_FUNCS})
    fn.source = src  # type: ignore[attr-defined]
    return fn


def compile_expr(e: Expr, resolver: Resolver) -> Callable:
    """Compile to ``f(V, L) -> value``."""
    return _lambda("V, L", _py(e, resolver))


def compile_probe(e: Expr, resolver: Resolver, clocks) -> Callable:
    """Compile to ``f(V, L, R, dt) -> value``: ``e`` after ``dt`` time units
    in which every clock key in ``clocks`` advances at rate ``R[key]``."""
    return _lambda("V, L, R, dt", _py(e, resolver, frozenset(clocks)))


def to_text(e: Expr) -> str:
    """Pretty-print an expression. An AST that the parser builds reparses to
    a structurally identical one; a non-finite ``Num``, which has no literal
    in the language, raises ``ExprError``."""
    if isinstance(e, Num):
        v = e.value
        if not math.isfinite(v):
            raise ExprError(f"no literal for the number {v!r}")
        return repr(int(v)) if float(v).is_integer() else repr(v)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Unary):
        return f"{e.op}{_paren(e.operand)}"
    if isinstance(e, Binary):
        return f"{_paren(e.left)} {e.op} {_paren(e.right)}"
    if isinstance(e, Cond):
        return f"{_paren(e.test)} ? {_paren(e.then)} : {_paren(e.other)}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(to_text(a) for a in e.args)})"
    raise ExprError(f"unknown node {e!r}")


def _paren(e: Expr) -> str:
    if isinstance(e, (Num, BoolLit, Name, Call)):
        return to_text(e)
    return f"({to_text(e)})"


# --- linearity analysis over clocks ---------------------------------------

CONST = 0  # no clock occurs
AFFINE = 1  # affine in clock values
NONLINEAR = 2


def clock_degree(e: Expr, is_clock: Callable[[str], bool]) -> int:
    """Classify an arithmetic expression's dependence on clocks.

    Guards and invariants must stay affine so enabling windows have a
    closed form; validation rejects nonlinear clock terms.
    """
    if isinstance(e, (Num, BoolLit)):
        return CONST
    if isinstance(e, Name):
        return AFFINE if is_clock(e.name) else CONST
    if isinstance(e, Unary):
        d = clock_degree(e.operand, is_clock)
        if e.op == "!":
            # boolean result; clocks inside comparisons are fine, but a raw
            # clock under ! would not make sense anyway
            return NONLINEAR if d == NONLINEAR else CONST
        return d
    if isinstance(e, Binary):
        a = clock_degree(e.left, is_clock)
        b = clock_degree(e.right, is_clock)
        if e.op in ("+", "-"):
            return max(a, b)
        if e.op == "*":
            if a == CONST or b == CONST:
                return max(a, b)
            return NONLINEAR
        if e.op in ("/", "%"):
            if b == CONST:
                return a if e.op == "/" else (NONLINEAR if a != CONST else CONST)
            return NONLINEAR
        if e.op in ("==", "!=", "<=", ">=", "<", ">"):
            # comparison atoms: affine operands are acceptable
            return NONLINEAR if NONLINEAR in (a, b) else CONST
        if e.op in ("||", "&&", "imply"):
            return NONLINEAR if NONLINEAR in (a, b) else CONST
        raise ExprError(f"unknown operator {e.op}")
    if isinstance(e, Cond):
        t = clock_degree(e.test, is_clock)
        a = clock_degree(e.then, is_clock)
        b = clock_degree(e.other, is_clock)
        # branching on a clock makes the window piecewise; reject in guards
        if t != CONST:
            return NONLINEAR
        return max(a, b)
    if isinstance(e, Call):
        degs = [clock_degree(a, is_clock) for a in e.args]
        if any(d != CONST for d in degs):
            return NONLINEAR  # abs/min/max of clock terms break affinity
        return CONST
    raise ExprError(f"unknown node {e!r}")


def comparison_atoms(e: Expr) -> list:
    """All comparison subexpressions (the breakpoint generators of a guard)."""
    out = []
    for node in walk(e):
        if isinstance(node, Binary) and node.op in ("==", "!=", "<=", ">=", "<", ">"):
            out.append(node)
    return out
