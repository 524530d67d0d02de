import math
import re

import pytest

from stamc import expr as E
from stamc.expr import AFFINE, CONST, NONLINEAR
from stamc.parser import parse_expression


def var_resolver(name):
    return ("var", name)


def ev(text, env=None, L=None):
    fn = E.compile_expr(parse_expression(text), var_resolver)
    return fn(env or {}, L or {})


def test_arithmetic():
    assert ev("1 + 2 * 3") == 7
    assert ev("(1 + 2) * 3") == 9
    assert ev("7 % 3") == 1
    assert ev("-x + 10", {"x": 4}) == 6
    assert ev("x / 4", {"x": 10}) == 2.5


def test_comparisons_and_logic():
    assert ev("3 <= 3") is True
    assert ev("3 < 3") is False
    assert ev("1 == 1 && 2 != 3")
    assert not ev("false || !true")
    assert ev("x > 0 imply y > 0", {"x": -1, "y": -5})
    assert not ev("x > 0 imply y > 0", {"x": 1, "y": -5})


def test_ternary_and_calls():
    assert ev("x > 0 ? 1 : 2", {"x": 5}) == 1
    assert ev("x > 0 ? 1 : 2", {"x": -5}) == 2
    assert ev("abs(-3)") == 3
    assert ev("min(2, max(5, 1))") == 2


def test_location_resolver():
    def resolver(name):
        if name == "P.idle":
            return ("loc", "P", "idle")
        return ("var", name)

    fn = E.compile_expr(parse_expression("P.idle && x > 0"), resolver)
    assert fn({"x": 1}, {"P": "idle"})
    assert not fn({"x": 1}, {"P": "busy"})


def test_const_resolver_folds_parameters():
    def resolver(name):
        if name == "N":
            return ("const", 5.0)
        return ("var", name)

    fn = E.compile_expr(parse_expression("x < N"), resolver)
    assert fn({"x": 3}, {})
    assert not fn({"x": 7}, {})


@pytest.mark.parametrize("text", [
    "x + 2 * y",
    "a && (b || !c)",
    "x > 0 ? y : z + 1",
    "p imply q <= 3",
    "abs(x - y) % 4",
    "Comp.loc && Comp.x >= 2",
])
def test_to_text_roundtrip(text):
    e = parse_expression(text)
    assert parse_expression(E.to_text(e)) == e


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_to_text_rejects_a_non_finite_number(value):
    """The language has no literal for it: ``inf`` would reparse as a
    name."""
    with pytest.raises(E.ExprError, match="no literal"):
        E.to_text(E.Binary("<=", E.Name("x"), E.Num(value)))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_compile_rejects_a_non_finite_number(value):
    """Nothing that validates or that a constraint's observer holds has
    one, so compiling one is an error, not a stand-in literal."""
    e = E.Binary("<=", E.Name("x"), E.Num(value))
    with pytest.raises(E.ExprError, match="no literal"):
        E.compile_expr(e, var_resolver)
    with pytest.raises(E.ExprError, match="no literal"):
        E.compile_probe(e, var_resolver, {"x"})


def test_names_walk():
    e = parse_expression("x + Comp.y * max(z, 1)")
    assert E.names(e) == {"x", "Comp.y", "z"}


def test_clock_degree():
    clocks = {"c", "d"}
    deg = lambda t: E.clock_degree(parse_expression(t), clocks.__contains__)
    assert deg("x + 3") == CONST
    assert deg("c + 3") == AFFINE
    assert deg("2 * c - d") == AFFINE
    assert deg("c * d") == NONLINEAR
    assert deg("c / 2") == AFFINE
    assert deg("2 / c") == NONLINEAR
    assert deg("c <= 5 && d >= x") == CONST  # comparisons hide affine operands
    assert deg("c ? 1 : 2") == NONLINEAR  # clock-dependent branching
    assert deg("abs(c)") == NONLINEAR


def test_comparison_atoms():
    e = parse_expression("c <= 5 && (x > 0 || d >= 2)")
    atoms = E.comparison_atoms(e)
    assert len(atoms) == 3
    assert {a.op for a in atoms} == {"<=", ">", ">="}


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ev("1 / x", {"x": 0})


def test_probe_reads_clocks_advanced_by_rate_times_dt():
    for text in ("x - 2 * y", "x - 2 * y <= z"):
        e = parse_expression(text)
        plain = E.compile_expr(e, var_resolver)
        probe = E.compile_probe(e, var_resolver, {"x", "y"})
        V = {"x": 0.1, "y": 0.7, "z": -1.3}
        R = {"x": 3.0, "y": 0.3}
        for dt in (0.0, 1e-9, 0.3, 2.0):
            ahead = dict(V, x=V["x"] + R["x"] * dt, y=V["y"] + R["y"] * dt)
            assert probe(V, {}, R, dt) == plain(ahead, {})


# n is an int, b a bool and x a real variable, p an int and q a float
# parameter, and T.a a location
_TYPED = {"p": ("const", 2), "q": ("const", 0.5), "T.a": ("loc", "T", "a")}


def _typed_resolver(name):
    return _TYPED.get(name, ("var", name))


def _int_literals(e):
    """``e`` with each integral number literal an int, as a parser that
    reads int literals as ints would give it."""
    if isinstance(e, E.Num):
        return E.Num(int(e.value)) if e.value.is_integer() else e
    if isinstance(e, E.Unary):
        return E.Unary(e.op, _int_literals(e.operand))
    if isinstance(e, E.Binary):
        return E.Binary(e.op, _int_literals(e.left), _int_literals(e.right))
    if isinstance(e, E.Cond):
        return E.Cond(*map(_int_literals, (e.test, e.then, e.other)))
    if isinstance(e, E.Call):
        return E.Call(e.func, tuple(map(_int_literals, e.args)))
    return e


# (expression, its integral literals as ints, whether it is always a float)
_FLOAT_RULE = [
    ("1.5", False, True), ("2", True, False), ("2", False, True),
    ("true", False, False), ("x", False, True), ("n", False, False),
    ("b", False, False), ("p", False, False), ("q", False, True),
    ("T.a", False, False),
    ("-x", False, True), ("-n", False, False), ("-2", True, False),
    ("!b", False, False),
    ("n + 2", True, False), ("n + 2", False, True), ("n - x", False, True),
    ("b + n", False, False), ("n * n", False, False), ("n * q", False, True),
    ("n * p", False, False), ("n / 2", True, True), ("n / p", False, True),
    ("b / 2", True, True), ("n % 2", True, False), ("n % 2", False, True),
    ("x % 2", True, True),
    ("x < n", False, False), ("n == 2", True, False),
    ("x && n", False, False), ("x || x", False, False),
    ("b imply b", False, False),
    ("b ? x : n", False, False), ("b ? x : q", False, True),
    ("b ? x : 1", True, False), ("b ? n : 1", False, False),
    ("abs(x)", False, True), ("abs(n)", False, False),
    ("max(x, n)", False, False), ("max(x, q)", False, True),
    ("min(x, x, 2)", True, False), ("min(x, 2)", False, True),
]


@pytest.mark.parametrize("text, ints, floating", _FLOAT_RULE)
def test_the_float_rule_holds_on_every_node_kind(text, ints, floating):
    """``is_float`` on a table of every node kind, over int, bool and
    float leaves: where it says float, the value is a Python float at
    every state tried, and an expression compiled to a float returns one
    with ``float()`` only where the rule does not say so."""
    e = parse_expression(text)
    if ints:
        e = _int_literals(e)
    assert E.is_float(e, _typed_resolver, {"x"}) is floating
    plain = E.compile_expr(e, _typed_resolver)
    as_float = E.compile_expr(e, _typed_resolver, {"x"})
    assert as_float.source.startswith("float(") is not floating
    for n in (3, -2):
        for b in (True, False):
            for x in (2.5, -0.0):
                V, L = {"n": n, "b": b, "x": x}, {"T": "a"}
                value = plain(V, L)
                if floating:
                    assert type(value) is float, (V, value)
                assert type(as_float(V, L)) is float
                assert repr(as_float(V, L)) == repr(float(value))


def _slot_resolver(name):
    """n and b are the int and bool variables at slots 0 and 1, x the float
    one at slot 2; N and H are integral and non-integral constants."""
    return {"n": ("var", 0), "b": ("var", 1), "x": ("var", 2),
            "N": ("const", 7.0), "H": ("const", 2.5)}[name]


# a float literal in a source: a dot or an exponent after a digit
_FLOAT_LITERAL = re.compile(r"\d(?:\.|e[-+]?\d)")


@pytest.mark.parametrize("op", sorted(E.COMPARISONS))
def test_an_integral_literal_compares_with_an_int_as_its_float(op):
    """Against an int or a bool variable, an integral literal, its
    negation, -0 and an integral constant are written as ints, and each
    comparison has the truth of the float-literal form at values around
    the literal, at -0, at 2**53 + 1, which no float holds, and at 1e20."""
    # each literal with its value
    literals = [(E.Num(0.0), 0), (E.Num(-0.0), 0),
                (E.Unary("-", E.Num(0.0)), 0), (E.Num(5.0), 5),
                (E.Unary("-", E.Num(3.0)), -3), (E.Num(2.0 ** 53), 2 ** 53),
                (E.Num(1e20), 10 ** 20), (E.Name("N"), 7)]
    tried = 0
    for literal, whole in literals:
        values = [whole - 1, whole, whole + 1, 0, -1, 2 ** 53 + 1,
                  -(2 ** 53 + 1), 10 ** 20, 10 ** 20 + 1, True, False]
        for name in ("n", "b"):
            for e in (E.Binary(op, E.Name(name), literal),
                      E.Binary(op, literal, E.Name(name))):
                typed = E.compile_expr(e, _slot_resolver, ints={0, 1})
                plain = E.compile_expr(e, _slot_resolver)
                assert not _FLOAT_LITERAL.search(typed.source), typed.source
                assert _FLOAT_LITERAL.search(plain.source), plain.source
                for v in values:
                    V = [v, v, 0.0]
                    assert typed(V, None) is plain(V, None), (e, v)
                    tried += 1
    assert tried > 100


@pytest.mark.parametrize("text, source", [
    ("n == 2.5", "(V[0] == 2.5)"),
    ("n < H", "(V[0] < 2.5)"),
    ("x == 0", "(V[2] == 0.0)"),
    ("n + 1 == 2", "((V[0] + 1.0) == 2.0)"),
    ("n == N", "(V[0] == 7)"),
    ("b != 1 && 0 <= n", "((V[1] != 1) and (0 <= V[0]))"),
])
def test_only_an_integral_literal_against_an_int_variable_is_an_int(text,
                                                                    source):
    """A non-integral literal or constant stays a float, as does a literal
    compared with a float variable or with an expression."""
    e = parse_expression(text)
    assert E.compile_expr(e, _slot_resolver, ints={0, 1}).source == source
