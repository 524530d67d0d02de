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

:func:`is_float` says when an expression always evaluates to a Python
float; a compiled form that must return a float wraps its source in
``float()`` only where it does not.

Given ``ints``, the keys of the variables that hold ints or bools, a
comparison of such a variable with an integral number literal, or with an
integral float constant, writes the literal as an int: ``mode == 5`` reads
``V[7] == 5``, not ``V[7] == 5.0``.  Python compares an int with a float
exactly, so every truth value is the same, and the comparison of two ints
takes CPython's int compare fast path, which an int against a float misses.
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
    op: str  # one of LOGICAL, COMPARISONS or + - * / %
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Cond:
    test: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # a key of FUNCS
    args: tuple


Expr = Union[Num, BoolLit, Name, Unary, Binary, Cond, Call]

# The language's vocabulary: the parser, the analyses below and the engine
# read these, and spell none of them out again.
COMPARISONS = frozenset(("==", "!=", "<=", ">=", "<", ">"))
LOGICAL = frozenset(("||", "&&", "imply"))
FUNCS = {"abs": abs, "min": min, "max": max}
# the argument counts each of FUNCS takes: (least, most), most None for any
ARITY = {"abs": (1, 1), "min": (2, None), "max": (2, None)}

# Python's spelling of each binary operator but imply, where it differs
_PY_OP = {"||": "or", "&&": "and"}


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


def bad_calls(e: Expr) -> Iterator[str]:
    """A message for each call in ``e`` whose function does not take its
    number of arguments (``ARITY``)."""
    for n in walk(e):
        if isinstance(n, Call):
            least, most = ARITY[n.func]
            given = len(n.args)
            if given < least or (most is not None and given > most):
                takes = (f"{least} argument" if most == least == 1 else
                         f"{least} or more arguments")
                yield (f"{n.func} takes {takes}, not {given}, in "
                       f"{to_text(n)!r}")


def literal(e: Expr):
    """The value of ``e`` if it is a number literal or its negation, else
    None."""
    if isinstance(e, Unary) and e.op == "-" and isinstance(e.operand, Num):
        return -e.operand.value
    return e.value if isinstance(e, Num) else None


def _int_literal(e: Expr, other: Expr, resolver: Resolver, ints):
    """The source of ``e`` as an int literal where a comparison holds it
    against ``other``: if ``e`` is an integral number literal, or its
    negation, or an integral float constant, and ``other`` is a variable
    whose key is in ``ints``, which holds an int or a bool; else None.  A
    Python int compares with a float exactly, so ``V[7] == 5`` has the
    truth of ``V[7] == 5.0`` for every int and bool, and takes the int
    compare's fast path."""
    value = literal(e)
    if value is None and isinstance(e, Name):
        kind, *rest = resolver(e.name)
        value = rest[0] if kind == "const" else None
    if not (isinstance(value, float) and math.isfinite(value)
            and value.is_integer() and isinstance(other, Name)):
        return None
    kind, *rest = resolver(other.name)
    if kind != "var" or rest[0] not in ints:
        return None
    return repr(int(value))


def _py(e: Expr, resolver: Resolver, clocks=frozenset(),
        ints=frozenset()) -> str:
    """Python source of ``e``; a variable whose key is in ``clocks`` reads
    as ``(V[k] + R[k] * dt)``, and an integral literal compared with a
    variable whose key is in ``ints``, which holds an int or a bool, is
    written as an int (:func:`_int_literal`)."""
    def src(e: Expr) -> str:
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
            inner = src(e.operand)
            return f"(not {inner})" if e.op == "!" else f"(-{inner})"
        if isinstance(e, Binary):
            typed = e.op in COMPARISONS and ints
            a = ((typed and _int_literal(e.left, e.right, resolver, ints))
                 or src(e.left))
            b = ((typed and _int_literal(e.right, e.left, resolver, ints))
                 or src(e.right))
            if e.op == "imply":
                return f"((not {a}) or {b})"
            return f"({a} {_PY_OP.get(e.op, e.op)} {b})"
        if isinstance(e, Cond):
            return f"({src(e.then)} if {src(e.test)} else {src(e.other)})"
        if isinstance(e, Call):
            return f"{e.func}({', '.join(src(a) for a in e.args)})"
        raise ExprError(f"unknown node {e!r}")
    return src(e)


def is_float(e: Expr, resolver: Resolver, floats) -> bool:
    """Whether ``e`` always evaluates to a Python float, where the
    variables whose keys are in ``floats`` hold floats: a float ``Num`` or
    constant, or such a variable; a ``/``; a ``+``, ``-``, ``*`` or ``%``
    with a float operand, or the negation of a float; a conditional whose
    two branches are floats; ``abs`` of a float, and ``min`` or ``max`` of
    floats only.  Anything else may be an int or a bool, such as ``n % 2``
    of an int ``n``, or an operand that ``&&`` returns."""
    if isinstance(e, Num):
        return isinstance(e.value, float)
    if isinstance(e, Name):
        kind, *rest = resolver(e.name)
        if kind == "var":
            return rest[0] in floats
        return kind == "const" and isinstance(rest[0], float)
    if isinstance(e, Unary):
        return e.op == "-" and is_float(e.operand, resolver, floats)
    if isinstance(e, Binary):
        return e.op == "/" or e.op in ("+", "-", "*", "%") and (
            is_float(e.left, resolver, floats)
            or is_float(e.right, resolver, floats))
    if isinstance(e, Cond):
        return (is_float(e.then, resolver, floats)
                and is_float(e.other, resolver, floats))
    if isinstance(e, Call):
        return ((e.func != "abs" or len(e.args) == 1)
                and all(is_float(a, resolver, floats) for a in e.args))
    return False


@functools.cache
def _lambda(params: str, src: str) -> Callable:
    """``lambda params: src``, evaluated once per distinct (params, src):
    a second network with the same expressions compiles nothing."""
    fn = eval(f"lambda {params}: {src}",
              {"__builtins__": {}, "float": float, **FUNCS})
    fn.source = src  # type: ignore[attr-defined]
    return fn


def _floated(e: Expr, resolver: Resolver, floats, src: str) -> str:
    """``src``, the source of ``e``, as a float: through ``float()``
    unless ``floats`` is None or ``e`` is a float already."""
    if floats is None or is_float(e, resolver, floats):
        return src
    return f"float({src})"


def compile_expr(e: Expr, resolver: Resolver, floats=None,
                 ints=frozenset()) -> Callable:
    """Compile to ``f(V, L) -> value``; given ``floats``, the keys of the
    variables that hold floats, to ``f(V, L) -> float``.  ``ints`` are the
    keys of the variables that hold ints or bools, against which an
    integral literal is compared as an int (:func:`_int_literal`)."""
    return _lambda("V, L", _floated(e, resolver, floats,
                                    _py(e, resolver, ints=ints)))


def compile_probe(e: Expr, resolver: Resolver, clocks, floats=None,
                  ints=frozenset()) -> Callable:
    """Compile to ``f(V, L, R, dt) -> value``: ``e`` after ``dt`` time units
    in which every clock key in ``clocks`` advances at rate ``R[key]``;
    given ``floats`` and ``ints``, as :func:`compile_expr` does."""
    return _lambda("V, L, R, dt", _floated(
        e, resolver, floats, _py(e, resolver, frozenset(clocks), ints)))


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
        if e.op in COMPARISONS or e.op in LOGICAL:
            # comparisons and their connectives: affine operands are
            # acceptable
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
        if isinstance(node, Binary) and node.op in COMPARISONS:
            out.append(node)
    return out
