import math

import pytest

from stamc import expr as E
from stamc import queries as Q
from stamc.parser import (ParseError, parse_expression, parse_model,
                          parse_queries)

PING = """
int hits = 0;
broadcast chan tick;

template Ping(limit: real) {
  clock x;
  init loc idle { inv x <= limit; }
  committed loc fire;
  idle -> fire { guard x >= 1; sync tick!; update x := 0; }
  fire -> idle { update hits := hits + 1; }
}

template Pong() {
  init loc wait;
  loc seen { exitrate 2; }
  wait -> seen { sync tick?; }
  seen -> wait { weight 3; }
}

system p = Ping(5), Pong;
"""


def test_model_shape():
    m = parse_model(PING)
    assert [d.name for d in m.decls] == ["hits"]
    assert [c.name for c in m.channels] == ["tick"]
    assert m.channels[0].broadcast
    ping = m.template("Ping")
    assert ping.params == (("limit", "real"),)
    assert ping.initial == "idle"
    assert [l.kind for l in ping.locations] == ["normal", "committed"]
    assert ping.location("idle").invariant is not None
    assert ping.edges[0].sync.channel == "tick"
    assert ping.edges[0].sync.direction == "emit"
    pong = m.template("Pong")
    assert pong.location("seen").exit_rate == 2
    assert pong.edges[1].weight == 3
    assert [i.name for i in m.system] == ["p", "Pong"]


def test_bare_instances_numbered_when_repeated():
    m = parse_model("""
template T() { init loc a; }
system T, T, T;
""")
    assert [i.name for i in m.system] == ["T0", "T1", "T2"]


def test_location_rates():
    m = parse_model("""
clock e;
template T() {
  init loc run { rate e = 2 * 3; inv e <= 10; }
}
system T;
""")
    loc = m.template("T").location("run")
    assert len(loc.rates) == 1
    assert loc.rates[0][0] == "e"


def test_channel_decl_inside_template_rejected():
    with pytest.raises(ParseError, match="declared globally"):
        parse_model("template T() { chan c; init loc a; } system T;")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_model("template T() { init loc a; a -> b ; } system T;")
    assert (exc.value.span.line, exc.value.span.column) == (1, 35)


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_model("int x = 0; $")


# --- queries ---------------------------------------------------------------


def test_estimate_query():
    [nq] = parse_queries("Pr[<=100](<> hits >= 3)")
    assert nq.name is None
    q = nq.query
    assert isinstance(q, Q.Estimate)
    assert q.bound == 100
    assert q.formula.op == "eventually"


def test_hypothesis_query_with_name_and_expect():
    [nq] = parse_queries("R1: Pr[<=50]([] x <= 2) >= 0.95 expect valid;")
    assert nq.name == "R1"
    assert nq.expected == "valid"
    assert isinstance(nq.query, Q.Hypothesis)
    assert nq.query.p0 == 0.95
    assert nq.query.formula.op == "globally"


def test_compare_query():
    [nq] = parse_queries("Pr[<=10]([] a) >= Pr[<=20](<> b)")
    q = nq.query
    assert isinstance(q, Q.Compare)
    assert (q.bound1, q.bound2) == (10, 20)


def test_simulate_and_expected_queries():
    [s, e] = parse_queries("""
simulate 3 [<=100] {x, y + 1};
E[<=100; 50](max: z);
""")
    assert isinstance(s.query, Q.Simulate)
    assert s.query.n_runs == 3
    assert len(s.query.exprs) == 2
    assert isinstance(e.query, Q.Expected)
    assert (e.query.n_runs, e.query.mode) == (50, "max")


def test_constraint_query():
    [nq] = parse_queries(
        "constraint execution(lower=10, upper=20, m=19, k=20, bound=500)"
        " on start=a, stop=b;")
    q = nq.query
    assert isinstance(q, Q.ConstraintQuery)
    assert q.bound == 500
    c = q.constraint
    assert (c.kind, c.m, c.k, c.lower, c.upper) == ("execution", 19, 20, 10, 20)
    assert [n for n, _ in c.bindings] == ["start", "stop"]


def test_constraint_inline_name():
    [nq] = parse_queries(
        "constraint R46 execution(lower=10, upper=20, m=19, k=20)"
        " on start=a, stop=b expect valid;")
    assert nq.name == "R46"
    assert nq.expected == "valid"


def test_constraint_unknown_parameter():
    with pytest.raises(ParseError, match="unknown constraint parameter"):
        parse_queries("constraint periodic(m=1, k=1, phase=3) on occurrence=a;")


def test_observer_decl():
    [nq] = parse_queries(
        "observer Lat endtoend(lower=10, upper=30, m=19, k=20)"
        " on source=a, target=b;")
    assert nq.name == "Lat"
    q = nq.query
    assert isinstance(q, Q.ObserverDecl)
    assert q.name == "Lat"
    assert q.constraint.kind == "endtoend"


def test_invalid_p0():
    with pytest.raises(ParseError, match="p0"):
        parse_queries("Pr[<=10]([] x) >= 1.5")


def test_zero_bound_rejected():
    with pytest.raises(ParseError, match="bound"):
        parse_queries("Pr[<=0]([] x)")


def test_simulate_run_count_must_be_an_integer():
    with pytest.raises(ParseError, match="run count must be an integer"):
        parse_queries("simulate 2.5 [<=10] {x}")


def test_expected_run_count_must_be_an_integer():
    with pytest.raises(ParseError, match="run count must be an integer"):
        parse_queries("E[<=10; 2.5](max: x)")


def test_expected_needs_two_runs():
    with pytest.raises(ParseError, match="integer >= 2"):
        parse_queries("E[<=10; 1](max: x)")


def test_expected_zero_bound_rejected():
    with pytest.raises(ParseError, match="bound must be > 0"):
        parse_queries("E[<=0; 5](max: x)")


@pytest.mark.parametrize("text, message, column", [
    ("Pr[<=" + "9" * 400 + "](<> x > 0);", "bound must be finite", 6),
    ("E[<=1" + "0" * 400 + "; 5](max: x);", "bound must be finite", 5),
    ("constraint periodic(m=1, k=1, bound=0, lower=1, upper=2)"
     " on occurrence=a;", "bound must be > 0", 37),
    ("constraint periodic(m=1, k=1, bound=" + "9" * 400 + ", lower=1,"
     " upper=2) on occurrence=a;", "bound must be finite", 37),
], ids=["inf-query", "inf-expected", "zero-constraint", "inf-constraint"])
def test_every_bound_is_finite_and_positive(text, message, column):
    """A literal too large for a float reads as inf, and is rejected where
    it is read, as a zero bound is."""
    with pytest.raises(ParseError) as exc:
        parse_queries(text, "b.q")
    assert str(exc.value) == f"b.q:1:{column}: {message}"


HUGE = "1" * 400  # too large for a float: it reads as inf


@pytest.mark.parametrize("parse, text, message", [
    (parse_model, f"int n = {HUGE}; template T() {{ init loc a; }} system T;",
     "number must be finite"),
    (parse_model, f"real x = -{HUGE}; template T() {{ init loc a; }}"
     " system T;", "number must be finite"),
    (parse_model, f"template T(k: int) {{ init loc a; }} system T({HUGE});",
     "number must be finite"),
    (parse_model, f"clock x; template T() {{ init loc a {{ inv x <= {HUGE};"
     " } } system T;", "number must be finite"),
    (parse_queries, f"simulate {HUGE} [<=5] {{x}};",
     "run count must be an integer >= 1"),
    (parse_queries, f"E[<=5; {HUGE}](max: x);",
     "run count must be an integer >= 2"),
    (parse_queries, f"E[<=5; 3](max: wvl + {HUGE});", "number must be finite"),
    (parse_queries, f"constraint periodic(m={HUGE}, k=1) on occurrence=a;",
     "m must be an integer >= 1"),
    (parse_queries, f"constraint periodic(m=1, k=1, lower=1, upper={HUGE})"
     " on occurrence=a;", "number must be finite"),
    (parse_queries, f"constraint periodic(m=1, k=1, lower=-{HUGE})"
     " on occurrence=a;", "number must be finite"),
    (parse_queries, f"constraint periodic(m=1, k=1, jitter={HUGE})"
     " on occurrence=a;", "number must be finite"),
    (parse_queries, f"constraint synchronization(m=1, k=1, tolerance={HUGE})"
     " on e1=a, e2=b;", "number must be finite"),
], ids=["int-init", "real-init", "instance-argument", "expression",
        "simulate-runs", "expected-runs", "query-expression", "constraint-m",
        "upper", "lower", "jitter", "tolerance"])
def test_a_literal_too_large_for_a_float_is_rejected(parse, text, message):
    """At the literal, wherever no later check reads the value."""
    with pytest.raises(ParseError) as exc:
        parse(text, "n.txt")
    assert str(exc.value) == f"n.txt:1:{text.index(HUGE) + 1}: {message}"


REPEATED = "clock x; broadcast chan c; template T() { %s } system T;"


@pytest.mark.parametrize("parse, text, clause, message", [
    (parse_queries, "constraint periodic(m=1, k=2, m=2, lower=1, upper=2)"
     " on occurrence=c;", "m=2", "constraint parameter 'm' is given twice"),
    (parse_model, REPEATED % "init loc a { inv x <= 2; inv x <= 3; }",
     "inv x <= 3", "a location has at most one inv"),
    (parse_model, REPEATED % "init loc a { exitrate 1; exitrate 2; }",
     "exitrate 2", "a location has at most one exitrate"),
    (parse_model, REPEATED % "init loc a; a -> a { guard x >= 1; guard x >= 2;"
     " }", "guard x >= 2", "an edge has at most one guard"),
    (parse_model, REPEATED % "init loc a; a -> a { weight 1; weight 2; }",
     "weight 2", "an edge has at most one weight"),
    (parse_model, REPEATED % "init loc a { rate x = 2; rate x = 3; }",
     "rate x = 3", "a location has at most one rate of 'x'"),
    (parse_model, REPEATED % "init loc a; init loc b;", "init loc b",
     "a template has at most one init location"),
    (parse_model, "template T() { init loc a; } system T; system T;",
     "system T;", "a model has at most one system line"),
], ids=["constraint-m", "inv", "exitrate", "guard", "weight", "rate", "init",
        "system"])
def test_a_repeated_clause_is_rejected(parse, text, clause, message):
    """Where the parser kept the last of two, at the second one."""
    with pytest.raises(ParseError) as exc:
        parse(text, "r.txt")
    assert str(exc.value) == f"r.txt:1:{text.rindex(clause) + 1}: {message}"


def test_repeated_updates_and_rates_of_other_clocks_accumulate():
    m = parse_model("clock x; clock y; template T() {"
                    " init loc a { rate x = 2; rate y = 1; }"
                    " a -> a { update x := 0; update y := 1; } } system T;")
    [loc], [edge] = m.template("T").locations, m.template("T").edges
    assert [clock for clock, _ in loc.rates] == ["x", "y"]
    assert [name for name, _ in edge.updates] == ["x", "y"]


def test_expected_bound_needs_an_operator():
    with pytest.raises(ParseError, match="expected '>='"):
        parse_queries("E[10; 5](max: x)")


@pytest.mark.parametrize("window, message, column", [
    ("m=1.5, k=2.9", "m must be an integer >= 1", 23),
    ("m=1, k=2.9", "k must be an integer >= 1", 28),
    ("m=0, k=2", "m must be an integer >= 1", 23),
], ids=["m-fraction", "k-fraction", "m-zero"])
def test_constraint_window_must_be_integers(window, message, column):
    with pytest.raises(ParseError, match=message) as exc:
        parse_queries(f"constraint periodic({window}, lower=1, upper=2)"
                      " on occurrence=a;")
    assert (exc.value.span.line, exc.value.span.column) == (1, column)


@pytest.mark.parametrize("text, message, column", [
    ("constraint endtoend(m=19, k=20, bound=300, lower=10, upper=30)"
     " on src=a, target=b;", "event 'source' not bound", 3),
    ("R9: constraint execution(m=3, k=2, lower=1, upper=5)"
     " on start=a, stop=b;", "need 1 <= m <= k", 7),
    ("observer Lat endtoend(m=1, k=1, lower=30, upper=10)"
     " on source=a, target=b;", "need lower <= upper", 3),
], ids=["unbound-event", "m-above-k", "observer-band"])
def test_constraint_errors_are_located(text, message, column):
    # located at the constraint's keyword, on the second line
    with pytest.raises(ParseError) as exc:
        parse_queries("Pr[<=5](<> x);\n  " + text, "c.q")
    assert str(exc.value) == f"c.q:2:{column}: {message}"


@pytest.mark.parametrize("text, message, column", [
    ("Pr[<=0]([] x)", "bound must be > 0", 6),
    ("Pr[<=10]([] x) >= 1.5 expect valid", "p0 must be within (0, 1)", 19),
    ("Pr[<=10](<> x > 0) >= 1", "p0 must be within (0, 1)", 23),
    ("Pr[<=10](<> x > 0) >= 0;", "p0 must be within (0, 1)", 23),
    ("constraint periodic(m=1, k=1, phase=3) on occurrence=a;",
     "unknown constraint parameter(s) ['phase']", 31),
], ids=["zero-bound", "p0-above-one", "p0-one", "p0-zero",
        "unknown-parameter"])
def test_value_errors_point_at_the_value(text, message, column):
    with pytest.raises(ParseError) as exc:
        parse_queries(text, "v.q")
    assert str(exc.value) == f"v.q:1:{column}: {message}"


QUERY_TEXTS = [
    "Pr[<=100](<> hits >= 3);",
    "R9: Pr[<=50]([] x <= 2) >= 0.95 expect valid;",
    "Pr[<=10]([] a) >= Pr[<=20](<> b);",
    "simulate 3 [<=100] {x, y + 1};",
    "E[<=100; 50](max: z);",
    "R46: constraint execution(m=19, k=20, bound=500, lower=10, upper=20)"
    " on start=a, stop=b expect valid;",
    "observer Lat endtoend(m=19, k=20, lower=10, upper=30)"
    " on source=a, target=b;",
]


def test_query_file_without_semicolons():
    suite = "\n".join(t.rstrip(";") for t in QUERY_TEXTS)
    assert len(parse_queries(suite)) == len(QUERY_TEXTS)


# --- grammar shape ---------------------------------------------------------

a, b, c, d = (E.Name(n) for n in "abcd")


@pytest.mark.parametrize("text, tree", [
    ("a - b - c", E.Binary("-", E.Binary("-", a, b), c)),
    ("a / b * c % d",
     E.Binary("%", E.Binary("*", E.Binary("/", a, b), c), d)),
    ("a || b && c", E.Binary("||", a, E.Binary("&&", b, c))),
    ("p imply q imply r", E.Binary("imply", E.Name("p"), E.Binary(
        "imply", E.Name("q"), E.Name("r")))),
    ("!a && b", E.Binary("&&", E.Unary("!", a), b)),
    ("-x * y", E.Binary("*", E.Unary("-", E.Name("x")), E.Name("y"))),
    ("x > 0 ? y : z > 0 ? u : v", E.Cond(
        E.Binary(">", E.Name("x"), E.Num(0.0)), E.Name("y"),
        E.Cond(E.Binary(">", E.Name("z"), E.Num(0.0)), E.Name("u"),
               E.Name("v")))),
    ("min(a, b, c)", E.Call("min", (a, b, c))),
    ("A.b", E.Name("A.b")),
], ids=["minus-left", "mul-left", "and-binds-tighter", "imply-right",
        "not-binds-tighter", "negation-binds-tighter", "cond-right", "call",
        "member"])
def test_expression_grammar_shape(text, tree):
    """Each binary operator level nests as the module docstring says."""
    assert parse_expression(text) == tree


def _error(parse, text) -> tuple:
    with pytest.raises(ParseError) as exc:
        parse(text)
    span = exc.value.span
    return exc.value.message, (span.line, span.column, span.length)


_MODEL_END = " { init loc a; } system T;"


@pytest.mark.parametrize("parse, text, message, span", [
    (parse_expression, "a < b < c", "trailing input '<'", (1, 7, 1)),
    (parse_expression, "max(1,)", "expected expression, found ')'",
     (1, 7, 1)),
    (parse_expression, "f(1,)", "trailing input '('", (1, 2, 1)),
    (parse_model, "template T(a: int,)" + _MODEL_END,
     "expected parameter name, found ')'", (1, 19, 1)),
    (parse_model, "int x; template T() { init loc a;"
     " a -> a { update x := 1,; } } system T;",
     "expected update target, found ';'", (1, 58, 1)),
    (parse_model, "template T(a: int) { init loc a; } system T(1,);",
     "expected number, found ')'", (1, 47, 1)),
    (parse_model, "template T() { init loc a; } system T,;",
     "expected template or instance name, found ';'", (1, 39, 1)),
    (parse_queries, "simulate 1 [<=5] {x,}", "expected expression, found '}'",
     (1, 21, 1)),
    (parse_queries, "constraint periodic(m=1, k=2,) on occurrence=c;",
     "expected parameter name, found ')'", (1, 30, 1)),
    (parse_queries, "constraint periodic(m=1, k=2) on occurrence=c,;",
     "expected event name, found ';'", (1, 47, 1)),
    (parse_queries,
     "constraint periodic(m=1, k=2, foo=3, bar=1) on occurrence=c;",
     "unknown constraint parameter(s) ['bar', 'foo']", (1, 31, 3)),
    (parse_queries, "constraint periodic(m=1, k=2, m=2) on occurrence=c;",
     "constraint parameter 'm' is given twice", (1, 31, 1)),
    (parse_queries, "constraint periodic(m=1, m=abc) on occurrence=c;",
     "constraint parameter 'm' is given twice", (1, 26, 1)),
    (parse_queries, "constraint periodic(m=1, k=1, foo=2) on occurrence=c,;",
     "expected event name, found ';'", (1, 54, 1)),
], ids=["chained-comparison", "call-comma", "not-a-function", "param-comma",
        "update-comma", "argument-comma", "instance-comma", "simulate-comma",
        "constraint-parameter-comma", "binding-comma", "unknown-parameters",
        "repeated-parameter", "repeated-before-its-value",
        "bindings-before-unknown-parameters"])
def test_grammar_errors_keep_their_message_and_span(parse, text, message,
                                                     span):
    """A chained comparison, a trailing comma in each comma list, and an
    unknown or repeated constraint parameter are each rejected with one
    message at one span."""
    assert _error(parse, text) == (message, span)
