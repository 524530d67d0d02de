"""Lexer and recursive-descent parsers for the model and query languages.

The model grammar:

    model    := decl* template+ system
    decl     := ("int"|"real"|"bool"|"clock") ident ("=" literal)? ";"
              | ("chan" | "broadcast" "chan") ident ";"
    template := "template" ident "(" params? ")" "{" decl* location+ edge* "}"
    location := ("init")? ("committed")? "loc" ident
                ("{" ("inv" expr ";")? ("rate" ident "=" expr ";")*
                     ("exitrate" number ";")? "}")? (";")?
    edge     := ident "->" ident "{" ("guard" expr ";")? ("sync" ident ("!"|"?") ";")?
                ("weight" number ";")? ("update" assign ("," assign)* ";")? "}"
    system   := "system" inst ("," inst)* ";"
    inst     := [ident "="] ident ["(" literal ("," literal)* ")"]

Queries are the five statistical forms plus `constraint` lines for
weakly-hard timing monitors; `//` comments run to end of line everywhere.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from . import expr as E
from . import queries as Q
from .model import (ChanDecl, Edge, Instantiation, Location, Model, Sync,
                    Template, VarDecl)
from .monitors import MonitorError, WhConstraint


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int  # 1-based
    column: int  # 1-based
    length: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span.file}:{span.line}:{span.column}: {message}")
        self.message = message
        self.span = span


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><>|\[\]|:=|->|<=|>=|==|!=|&&|\|\||[()\[\]{};,:?!=<>+\-*/%.])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | op | eof
    text: str
    span: SourceSpan


def lex(text: str, filename: str = "<input>") -> list:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             SourceSpan(filename, line, col, 1))
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, tok, SourceSpan(filename, line, col, len(tok))))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", SourceSpan(filename, line, col, 0)))
    return tokens


class _Parser:
    def __init__(self, text: str, filename: str = "<input>"):
        self.tokens = lex(text, filename)
        self.i = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def peek(self, ahead: int = 1) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def at(self, text: str) -> bool:
        return self.tok.text == text and self.tok.kind in ("op", "ident")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {self.tok.text!r}",
                             self.tok.span)
        tok = self.tok
        self.i += 1
        return tok

    def ident(self, what: str = "identifier") -> str:
        if self.tok.kind != "ident":
            raise ParseError(f"expected {what}, found {self.tok.text!r}",
                             self.tok.span)
        name = self.tok.text
        self.i += 1
        return name

    def number(self, finite: bool = False) -> float:
        """A number with an optional minus; with ``finite``, one too large
        for a float is rejected at its span."""
        neg = self.accept("-")
        tok = self.tok
        if tok.kind != "number":
            raise ParseError(f"expected number, found {tok.text!r}", tok.span)
        v = _finite(tok) if finite else float(tok.text)
        self.i += 1
        return -v if neg else v

    # --- expressions ------------------------------------------------------

    def expression(self) -> E.Expr:
        e = self._imply()
        if self.accept("?"):
            then = self.expression()
            self.expect(":")
            other = self.expression()
            return E.Cond(e, then, other)
        return e

    def _imply(self) -> E.Expr:
        e = self._or()
        if self.accept("imply"):
            return E.Binary("imply", e, self._imply())
        return e

    def _or(self) -> E.Expr:
        e = self._and()
        while self.accept("||"):
            e = E.Binary("||", e, self._and())
        return e

    def _and(self) -> E.Expr:
        e = self._cmp()
        while self.accept("&&"):
            e = E.Binary("&&", e, self._cmp())
        return e

    def _cmp(self) -> E.Expr:
        e = self._add()
        for op in ("<=", ">=", "==", "!=", "<", ">"):
            if self.accept(op):
                return E.Binary(op, e, self._add())
        return e

    def _add(self) -> E.Expr:
        e = self._mul()
        while True:
            if self.accept("+"):
                e = E.Binary("+", e, self._mul())
            elif self.accept("-"):
                e = E.Binary("-", e, self._mul())
            else:
                return e

    def _mul(self) -> E.Expr:
        e = self._unary()
        while True:
            if self.accept("*"):
                e = E.Binary("*", e, self._unary())
            elif self.accept("/"):
                e = E.Binary("/", e, self._unary())
            elif self.accept("%"):
                e = E.Binary("%", e, self._unary())
            else:
                return e

    def _unary(self) -> E.Expr:
        if self.accept("!"):
            return E.Unary("!", self._unary())
        if self.accept("-"):
            return E.Unary("-", self._unary())
        return self._primary()

    def _primary(self) -> E.Expr:
        tok = self.tok
        if tok.kind == "number":
            self.i += 1
            return E.Num(_finite(tok))
        if tok.text == "(":
            self.i += 1
            e = self.expression()
            self.expect(")")
            return e
        if tok.kind == "ident":
            if tok.text == "true":
                self.i += 1
                return E.BoolLit(True)
            if tok.text == "false":
                self.i += 1
                return E.BoolLit(False)
            name = self.ident()
            if tok.text in ("abs", "min", "max") and self.at("("):
                self.i += 1
                args = [self.expression()]
                while self.accept(","):
                    args.append(self.expression())
                self.expect(")")
                return E.Call(name, tuple(args))
            if self.accept("."):
                name = f"{name}.{self.ident('member name')}"
            return E.Name(name)
        raise ParseError(f"expected expression, found {tok.text!r}", tok.span)

    # --- declarations -----------------------------------------------------

    def _at_decl(self) -> bool:
        return self.tok.text in ("int", "real", "bool", "clock", "chan",
                                 "broadcast")

    def declaration(self):
        if self.accept("broadcast"):
            self.expect("chan")
            name = self.ident("channel name")
            self.expect(";")
            return ChanDecl(name, broadcast=True)
        if self.accept("chan"):
            name = self.ident("channel name")
            self.expect(";")
            return ChanDecl(name, broadcast=False)
        vtype = self.ident("type")
        name = self.ident("variable name")
        init = 0.0
        if self.accept("="):
            init = self._literal()
        self.expect(";")
        return VarDecl(name, vtype, init)

    def _literal(self) -> float:
        if self.accept("true"):
            return 1.0
        if self.accept("false"):
            return 0.0
        return self.number(finite=True)

    # --- model ------------------------------------------------------------

    def model(self) -> Model:
        decls, channels, templates = [], [], []
        system = None
        while self.tok.kind != "eof":
            if self._at_decl():
                d = self.declaration()
                (channels if isinstance(d, ChanDecl) else decls).append(d)
            elif self.at("template"):
                templates.append(self._template())
            elif self.at("system"):
                if system is not None:
                    raise ParseError("a model has at most one system line",
                                     self.tok.span)
                system = self._system()
            else:
                raise ParseError(
                    f"expected declaration, template or system, found {self.tok.text!r}",
                    self.tok.span)
        if system is None:
            raise ParseError("missing system line", self.tok.span)
        return Model(decls=tuple(decls), channels=tuple(channels),
                     templates=tuple(templates), system=system)

    def _template(self) -> Template:
        self.expect("template")
        name = self.ident("template name")
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                pname = self.ident("parameter name")
                self.expect(":")
                ptype = self.ident("parameter type")
                params.append((pname, ptype))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect("{")
        decls, locations, edges = [], [], []
        initial = ""
        while self._at_decl():
            d = self.declaration()
            if isinstance(d, ChanDecl):
                raise ParseError("channels must be declared globally",
                                 self.tok.span)
            decls.append(d)
        while self.tok.text in ("init", "committed", "loc"):
            span = self.tok.span
            loc, is_init = self._location()
            locations.append(loc)
            if is_init:
                if initial:
                    raise ParseError(
                        "a template has at most one init location", span)
                initial = loc.id
        while not self.at("}"):
            edges.append(self._edge())
        self.expect("}")
        return Template(name=name, params=tuple(params), decls=tuple(decls),
                        locations=tuple(locations), edges=tuple(edges),
                        initial=initial)

    def _location(self):
        is_init = self.accept("init")
        kind = "committed" if self.accept("committed") else "normal"
        if not is_init:
            is_init = self.accept("init")
        self.expect("loc")
        loc_id = self.ident("location id")
        invariant = None
        rates = []
        exit_rate = None
        seen = set()
        if self.accept("{"):
            while not self.at("}"):
                span = self.tok.span
                if self.accept("inv"):
                    _once(seen, "inv", span, "a location has at most one inv")
                    invariant = self.expression()
                    self.expect(";")
                elif self.accept("rate"):
                    clock = self.ident("clock name")
                    _once(seen, ("rate", clock), span,
                          f"a location has at most one rate of {clock!r}")
                    self.expect("=")
                    rates.append((clock, self.expression()))
                    self.expect(";")
                elif self.accept("exitrate"):
                    _once(seen, "exitrate", span,
                          "a location has at most one exitrate")
                    exit_rate = self.number()
                    self.expect(";")
                else:
                    raise ParseError(
                        f"expected inv, rate or exitrate, found {self.tok.text!r}",
                        self.tok.span)
            self.expect("}")
        else:
            self.accept(";")
        return (Location(loc_id, invariant=invariant, rates=tuple(rates),
                         kind=kind, exit_rate=exit_rate), is_init)

    def _edge(self) -> Edge:
        source = self.ident("source location")
        self.expect("->")
        target = self.ident("target location")
        self.expect("{")
        guard = None
        sync = None
        weight = 1.0
        updates = []
        seen = set()
        while not self.at("}"):
            span = self.tok.span
            if self.accept("guard"):
                _once(seen, "guard", span, "an edge has at most one guard")
                guard = self.expression()
                self.expect(";")
            elif self.accept("sync"):
                _once(seen, "sync", span,
                      "an edge has at most one sync action")
                chan = self.ident("channel name")
                if self.accept("!"):
                    sync = Sync(chan, "emit")
                elif self.accept("?"):
                    sync = Sync(chan, "receive")
                else:
                    raise ParseError("expected '!' or '?' after channel",
                                     self.tok.span)
                self.expect(";")
            elif self.accept("weight"):
                _once(seen, "weight", span, "an edge has at most one weight")
                weight = self.number()
                self.expect(";")
            elif self.accept("update"):
                while True:
                    name = self.ident("update target")
                    self.expect(":=")
                    updates.append((name, self.expression()))
                    if not self.accept(","):
                        break
                self.expect(";")
            else:
                raise ParseError(
                    f"expected guard, sync, weight or update, found {self.tok.text!r}",
                    self.tok.span)
        self.expect("}")
        return Edge(source, target, guard=guard, sync=sync, weight=weight,
                    updates=tuple(updates))

    def _system(self) -> tuple:
        self.expect("system")
        insts = []
        raw = []
        while True:
            first = self.ident("template or instance name")
            if self.accept("="):
                inst_name = first
                tpl = self.ident("template name")
            else:
                inst_name = None
                tpl = first
            args = []
            if self.accept("("):
                if not self.at(")"):
                    while True:
                        args.append(self._literal())
                        if not self.accept(","):
                            break
                self.expect(")")
            raw.append((inst_name, tpl, tuple(args)))
            if not self.accept(","):
                break
        self.expect(";")
        # bare instantiations: use the template name, numbered when repeated
        tpl_counts = {}
        for inst_name, tpl, _ in raw:
            if inst_name is None:
                tpl_counts[tpl] = tpl_counts.get(tpl, 0) + 1
        seen = {}
        for inst_name, tpl, args in raw:
            if inst_name is None:
                if tpl_counts[tpl] > 1:
                    idx = seen.get(tpl, 0)
                    seen[tpl] = idx + 1
                    inst_name = f"{tpl}{idx}"
                else:
                    inst_name = tpl
            insts.append(Instantiation(inst_name, tpl, args))
        return tuple(insts)

    # --- queries ----------------------------------------------------------

    def queries(self) -> list:
        out = []
        while self.tok.kind != "eof":
            out.append(self._named_query())
        return out

    def _named_query(self) -> Q.NamedQuery:
        span, name = self.tok.span, None
        if self.tok.kind == "ident" and self.peek().text == ":" \
                and self.tok.text not in ("max", "min"):
            name = self.ident()
            self.expect(":")
        own_name, query = self._query()
        if name is None:
            name = own_name
        expected = None
        if self.accept("expect"):
            expected = self.ident("verdict")
            if expected not in ("valid", "invalid", "undecided"):
                raise ParseError(f"unknown expected verdict {expected!r}",
                                 self.tok.span)
        self.accept(";")
        return Q.NamedQuery(name, query, expected, span)

    def _query(self) -> tuple:
        """(the name a constraint or observer gives itself, or None; the
        query)."""
        if self.at("Pr"):
            return None, self._pr_query()
        if self.at("simulate"):
            return None, self._simulate_query()
        if self.at("E"):
            return None, self._expected_query()
        if self.at("constraint"):
            return self._constraint_query()
        if self.at("observer"):
            decl = self._observer_decl()
            return decl.name, decl
        raise ParseError(f"expected a query, found {self.tok.text!r}",
                         self.tok.span)

    def _bound(self, close: str = "]") -> float:
        """``[<=B`` then ``close``: ``]``, or ``;`` before E's run count."""
        self.expect("[")
        if not self.accept("<="):
            self.expect(">=")  # both spellings denote the simulation horizon
        span = self.tok.span
        bound = self.number()
        self.expect(close)
        return _checked_bound(bound, span)

    def _integer(self, least: int, what: str = "run count") -> int:
        """A count such as a run count: an integer >= ``least``."""
        span = self.tok.span
        n = self.number()
        if not math.isfinite(n) or n != int(n) or n < least:
            raise ParseError(f"{what} must be an integer >= {least}", span)
        return int(n)

    def _path_formula(self) -> Q.PathFormula:
        self.expect("(")
        if self.accept("[]"):
            f = Q.globally(self.expression())
        elif self.accept("<>"):
            f = Q.eventually(self.expression())
        else:
            raise ParseError("expected '[]' or '<>'", self.tok.span)
        self.expect(")")
        return f

    def _pr_query(self):
        self.expect("Pr")
        bound = self._bound()
        formula = self._path_formula()
        if self.accept(">="):
            if self.at("Pr"):
                self.expect("Pr")
                bound2 = self._bound()
                formula2 = self._path_formula()
                return Q.Compare(formula, bound, formula2, bound2)
            span = self.tok.span
            p0 = self.number()
            # the test weighs p >= p0 + delta against p <= p0 - delta, and
            # at 0 or 1 one side is empty
            if not 0 < p0 < 1:
                raise ParseError("p0 must be within (0, 1)", span)
            return Q.Hypothesis(formula, bound, p0)
        return Q.Estimate(formula, bound)

    def _simulate_query(self) -> Q.Simulate:
        self.expect("simulate")
        n_runs = self._integer(1)
        bound = self._bound()
        self.expect("{")
        exprs = [self.expression()]
        while self.accept(","):
            exprs.append(self.expression())
        self.expect("}")
        return Q.Simulate(n_runs, bound, tuple(exprs))

    def _expected_query(self) -> Q.Expected:
        self.expect("E")
        bound = self._bound(";")
        n_runs = self._integer(2)  # a sample variance needs two runs
        self.expect("]")
        self.expect("(")
        if self.accept("max"):
            mode = "max"
        elif self.accept("min"):
            mode = "min"
        else:
            raise ParseError("expected 'max' or 'min'", self.tok.span)
        self.expect(":")
        e = self.expression()
        self.expect(")")
        return Q.Expected(bound, n_runs, mode, e)

    def _constraint_query(self) -> tuple:
        """(the inline name or None, the constraint query)."""
        # constraint [Name] execution(lower=10, upper=20, m=19, k=20,
        #   bound=3000) on start=sig_start, stop=sig_done;
        span = self.expect("constraint").span
        name, kind = None, self.ident("constraint kind")
        if self.tok.kind == "ident":
            name, kind = kind, self.ident("constraint kind")
        constraint, bound = self._constraint_tail(kind, span)
        return name, Q.ConstraintQuery(constraint, bound)

    def _observer_decl(self) -> Q.ObserverDecl:
        # observer Name endtoend(lower=10, upper=30, m=19, k=20)
        #   on source=cam_start, target=sign_ready;
        span = self.expect("observer").span
        name = self.ident("observer name")
        kind = self.ident("constraint kind")
        constraint, _ = self._constraint_tail(kind, span)
        return Q.ObserverDecl(name, constraint)

    def _constraint_tail(self, kind: str, span: SourceSpan):
        """``(parameters) on bindings`` of the constraint at ``span``, which
        locates the constraint's own checks."""
        if kind == "end" or kind == "endtoend":
            kind = "endtoend"
        self.expect("(")
        params, spans = {}, {}
        while True:
            at = self.tok.span
            key = self.ident("parameter name")
            if key in spans:
                raise ParseError(
                    f"constraint parameter {key!r} is given twice", at)
            spans[key] = at
            self.expect("=")
            if key in ("m", "k"):
                params[key] = self._integer(1, key)
            elif key == "bound":
                at = self.tok.span
                params[key] = _checked_bound(self.number(), at)
            else:
                params[key] = self.number(finite=True)
            if not self.accept(","):
                break
        self.expect(")")
        self.expect("on")
        bindings = []
        while True:
            event = self.ident("event name")
            self.expect("=")
            bindings.append((event, self.ident("channel name")))
            if not self.accept(","):
                break
        bound = params.pop("bound", 3000.0)
        kwargs = {}
        for key in ("lower", "upper", "tolerance", "jitter"):
            if key in params:
                kwargs[key] = params.pop(key)
        m = params.pop("m", 1)
        k = params.pop("k", 1)
        if params:
            raise ParseError(f"unknown constraint parameter(s) {sorted(params)}",
                             spans[next(iter(params))])
        try:
            constraint = WhConstraint(kind=kind, m=m, k=k,
                                      bindings=tuple(bindings), **kwargs)
        except MonitorError as exc:
            raise ParseError(str(exc), span) from exc
        return constraint, bound


def _once(seen: set, clause, span: SourceSpan, message: str):
    """Records ``clause`` in ``seen``, the clauses of one location or edge;
    a repeated one is rejected at its ``span``."""
    if clause in seen:
        raise ParseError(message, span)
    seen.add(clause)


def _finite(tok: Token) -> float:
    """The value of number token ``tok``, which must be finite: a literal
    too large for a float reads as inf."""
    v = float(tok.text)
    if not math.isfinite(v):
        raise ParseError("number must be finite", tok.span)
    return v


def _checked_bound(bound: float, span: SourceSpan) -> float:
    """A time bound read at ``span``: finite and > 0.  A literal too large
    for a float reads as inf."""
    if not bound > 0:
        raise ParseError("bound must be > 0", span)
    if not math.isfinite(bound):
        raise ParseError("bound must be finite", span)
    return bound


def parse_model(text: str, filename: str = "<input>") -> Model:
    return _Parser(text, filename).model()


def parse_queries(text: str, filename: str = "<input>") -> list:
    return _Parser(text, filename).queries()


def parse_expression(text: str, filename: str = "<expr>") -> E.Expr:
    p = _Parser(text, filename)
    e = p.expression()
    if p.tok.kind != "eof":
        raise ParseError(f"trailing input {p.tok.text!r}", p.tok.span)
    return e

