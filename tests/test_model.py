import pathlib

import pytest

from stamc.engine import CompiledNetwork
from stamc.model import instantiate, validate_model
from stamc.parser import parse_model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

GOOD = """
int n = 0;
clock g;
broadcast chan go;

template Worker(speed: real) {
  clock c;
  init loc idle { rate c = speed; }
  loc busy { inv c <= 10; }
  idle -> busy { guard c >= 1; sync go?; update n := n + 1; }
  busy -> idle { guard c >= 2; update c := 0; }
}

template Boss() {
  init loc run;
  run -> run { guard g >= 1; sync go!; }
}

system a = Worker(1), b = Worker(2), Boss;
"""


def codes(model_text):
    rep = validate_model(parse_model(model_text))
    return {i.code for i in rep.errors}


def test_good_model_validates():
    rep = validate_model(parse_model(GOOD))
    assert rep.ok
    assert rep.errors == []


def test_nonpositive_weight():
    assert "nonpositive weight" in codes("""
template T() { init loc a; a -> a { weight 0; } }
system T;
""")


def test_unknown_channel():
    assert "unknown channel" in codes("""
template T() { init loc a; a -> a { sync nochan!; } }
system T;
""")


def test_nonlinear_clock_guard():
    assert "nonlinear guard" in codes("""
clock c;
clock d;
template T() { init loc a; a -> a { guard c * d >= 1; } }
system T;
""")


def test_nonlinear_invariant():
    assert "nonlinear invariant" in codes("""
clock c;
template T() { init loc a { inv c * c <= 4; } }
system T;
""")


def test_unknown_name_in_guard():
    assert "unknown name" in codes("""
template T() { init loc a; a -> a { guard ghost >= 1; } }
system T;
""")


def test_unknown_update_target():
    assert "unknown name" in codes("""
template T() { init loc a; a -> a { update ghost := 1; } }
system T;
""")


def test_missing_initial():
    assert "no initial" in codes("""
template T() { loc a; }
system T;
""")


def test_unknown_edge_endpoints():
    assert "unknown location" in codes("""
template T() { init loc a; a -> nowhere { } }
system T;
""")


def test_arity_mismatch():
    assert "arity mismatch" in codes("""
template T(x: real) { init loc a; }
system T();
""")


def test_duplicate_instance():
    assert "duplicate instance" in codes("""
template T() { init loc a; }
system x = T(), x = T();
""")


def test_unknown_template_in_system():
    assert "unknown template" in codes("system Ghost;" if False else """
template T() { init loc a; }
system T, Ghost;
""")


def test_nonpositive_exitrate():
    assert "nonpositive exitrate" in codes("""
template T() { init loc a { exitrate 0; } }
system T;
""")


HUGE = "1" + "0" * 400  # reads as inf


def test_infinite_weight_is_rejected():
    """An edge of weight inf beside one of weight 1: every weighted draw
    gave u = acc = inf and fell through to the last edge, so the edge that
    should win every time never fired."""
    rep = validate_model(parse_model(f"""
int k = 0;
template T() {{
  init committed loc a;
  loc b;
  loc c;
  a -> b {{ weight {HUGE}; update k := 1; }}
  a -> c {{ weight 1; }}
}}
system T;
"""))
    assert [(i.code, i.message) for i in rep.errors] == [
        ("nonpositive weight", "edge weight inf must be finite and > 0")]


def test_infinite_exitrate_is_rejected():
    """exitrate inf made every exponential sojourn 0."""
    rep = validate_model(parse_model(f"""
clock x;
template T() {{
  init loc a {{ exitrate {HUGE}; }}
  a -> a {{ guard x >= 0; }}
}}
system T;
"""))
    assert [(i.code, i.message) for i in rep.errors] == [
        ("nonpositive exitrate", "exitrate must be finite and > 0")]


def test_instantiate_binds_parameters():
    net = instantiate(parse_model(GOOD))
    assert [c.name for c in net.components] == ["a", "b", "Boss"]
    a, b = net.components[0], net.components[1]
    assert dict(a.bindings)["speed"] == 1
    assert dict(b.bindings)["speed"] == 2
    assert a.template.name == "Worker"


def test_names_resolve_as_the_engine_compiles_them(unresolvable):
    code, text = unresolvable
    assert code in codes(text)


_CALLS = """
int n = 0;
clock x;
template T() {
  init loc a { inv %s; }
  a -> a { guard %s; update n := %s; }
}
system T;
"""


@pytest.mark.parametrize("invariant, guard, update, issues", [
    ("x <= 2", "x >= 1 && min(n) >= 0", "n + 1",
     [("T.edge[0] a->a",
       "min takes 2 or more arguments, not 1, in 'min(n)'")]),
    ("x <= 2", "x >= 1", "abs(n, 1)",
     [("T.edge[0] a->a", "abs takes 1 argument, not 2, in 'abs(n, 1)'")]),
    ("x <= max(2)", "x >= 1", "abs(n, n, 1)",
     [("T.a", "max takes 2 or more arguments, not 1, in 'max(2)'"),
      ("T.edge[0] a->a", "abs takes 1 argument, not 3, in 'abs(n, n, 1)'")]),
], ids=["min-in-guard", "abs-in-update", "max-in-invariant"])
def test_a_call_of_the_wrong_arity_is_a_bad_call(invariant, guard, update,
                                                 issues):
    """``abs`` takes one argument and ``min`` and ``max`` two or more; a
    call with any other count fails validation, before any run."""
    rep = validate_model(parse_model(_CALLS % (invariant, guard, update)))
    assert [(i.code, i.where, i.message) for i in rep.errors] == [
        ("bad call", *issue) for issue in issues]


def test_calls_of_every_arity_they_take_validate():
    assert validate_model(parse_model(_CALLS % (
        "x <= max(2, n, 3)", "x >= min(1, abs(n))", "max(n, 1)"))).ok


def test_update_target_names_the_shadowed_local():
    [issue] = validate_model(parse_model("""
template A(n: int) {
  int n;
  init loc a;
  a -> a { guard n < 100; update n := n + 1; }
}
system A(7);
""")).errors
    assert (issue.code, issue.message) == (
        "unknown name",
        "update target 'n' is a parameter of A (shadows local 'n')")


def test_unused_template_is_still_checked():
    assert "nonlinear guard" in codes("""
template U(k: int) { clock c; init loc a; a -> a { guard c * c >= k; } }
template T() { init loc a; }
system T;
""")


# qualified names of every kind, a parameter that shadows a global and a
# template the system line does not use
QUALIFIED = """
int j = 0;
int k = 0;
template A(k: int) {
  clock y;
  init loc a { inv y <= B.d + k; }
  loc b;
  a -> b { guard B.s && B.x - y >= B.d; update j := B.d + k; }
}
template B(d: real) { clock x; init loc s; }
template Unused(m: real) { clock c; init loc a { inv c <= m; } }
system A(2), B(3);
"""


@pytest.mark.parametrize("text", [
    GOOD, QUALIFIED, *(p.read_text() for p in sorted(MODELS.glob("*.sta")))],
    ids=["GOOD", "QUALIFIED", *(p.name for p in sorted(MODELS.glob("*.sta")))])
def test_every_accepted_model_compiles(text):
    model = parse_model(text)
    assert validate_model(model).ok
    CompiledNetwork(instantiate(model))


def test_clock_rated_by_two_instances_is_rejected():
    # the engine could honour only one of the two rates of e
    text = """
clock e;
clock x;
template A() { init loc a { rate e = 3; } }
template B() {
  init loc b { rate e = x; inv x <= 4; }
  loc c;
  b -> c { guard x >= 4; }
}
system A, B;
"""
    assert codes(text) == {"clock rated twice"}
    # two instances of one template rating a global clock
    assert codes("""
clock g;
template W() { init loc a { rate g = 2; } }
system p = W, q = W;
""") == {"clock rated twice"}
    # a template-local clock is one clock per instance: no conflict
    assert codes("""
template W() { clock c; init loc a { rate c = 2; } }
system p = W, q = W;
""") == set()


@pytest.mark.parametrize("guard", ["y >= 3", "y <= 1"])
def test_a_clock_guard_on_a_binary_receive_is_rejected(guard):
    """An emitter's delay is drawn while its receiver's guard holds or not
    at the start of the sojourn: a receiver guard over ``y >= 3`` never
    paired, and one over ``y <= 1`` closed before the emitter fired.  A
    broadcast receiver never blocks its emitter, so it may read a clock."""
    text = f"""
chan c;
clock y;
template A() {{ init loc s; loc done; s -> done {{ sync c!; }} }}
template B() {{ init loc w; loc got; w -> got {{ guard {guard}; sync c?; }} }}
system A, B;
"""
    [issue] = validate_model(parse_model(text)).errors
    assert (issue.code, issue.where) == ("binary receive reads a clock",
                                         "B.edge[0] w->got")
    assert codes("broadcast " + text.lstrip()) == set()


@pytest.mark.parametrize("text, issue", [
    ("int n = 2.5; template T() { init loc a; } system T;",
     ("bad int value", "n", "the initial value of int 'n' is 2.5, not an "
      "integer in the 64-bit range")),
    ("int n = 99999999999999999999; template T() { init loc a; } system T;",
     ("bad int value", "n", "the initial value of int 'n' is 1e+20, not an "
      "integer in the 64-bit range")),
    ("template T() { int n = -0.5; init loc a; } system T;",
     ("bad int value", "T.n", "the initial value of int 'n' is -0.5, not an "
      "integer in the 64-bit range")),
    ("template T(n: int) { init loc a; } system T(1.5);",
     ("bad int value", "T", "int parameter 'n' is 1.5, not an integer in "
      "the 64-bit range")),
    ("template T(n: banana) { init loc a; } system T(1);",
     ("unknown type", "T", "parameter 'n' has unknown type 'banana'")),
], ids=["fraction", "out-of-range", "local-fraction", "int-argument",
        "unknown-parameter-type"])
def test_a_value_its_declared_type_cannot_hold_is_rejected(text, issue):
    """Each of these validated once and then failed every run at its start,
    or at the first store of the parameter into an int."""
    [got] = validate_model(parse_model(text)).errors
    assert (got.code, got.where, got.message) == issue


def test_int_values_at_the_edge_of_the_64_bit_range_validate():
    # a literal reads as a float: the largest below 2 ** 63 is 2 ** 63 - 1024
    text = ("int lo = -9223372036854774784; int one = true; real r = 2.5;"
            " template T(n: int, x: real) { init loc a; }"
            " system T(9223372036854774784, 0.5);")
    assert validate_model(parse_model(text)).ok
