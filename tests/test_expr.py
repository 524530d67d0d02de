import math

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
