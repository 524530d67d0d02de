"""Lexer and recursive-descent parsers for the model and query languages.

The model grammar:

    model    := decl* template+ system
    decl     := vtype ident ("=" literal)? ";"
              | ("chan" | "broadcast" "chan") ident ";"
    vtype    := int | real | bool | clock          (model.VAR_TYPES)
    template := "template" ident "(" (param ("," param)*)? ")"
                "{" decl* location+ edge* "}"
    param    := ident ":" vtype
    location := ("init")? ("committed")? "loc" ident
                ("{" ("inv" expr ";")? ("rate" ident "=" expr ";")*
                     ("exitrate" number ";")? "}")? (";")?
    edge     := ident "->" ident "{" ("guard" expr ";")? ("sync" ident ("!"|"?") ";")?
                ("weight" number ";")? ("update" assign ("," assign)* ";")* "}"
    assign   := ident ":=" expr

A location's and an edge's clauses come in any order, each at most once,
but ``rate`` once per clock and ``update`` any number of times, its
assignments accumulating.
    system   := "system" inst ("," inst)* ";"
    inst     := [ident "="] ident ["(" (literal ("," literal)*)? ")"]
    literal  := "true" | "false" | "-"? number

The expression grammar, loosest level first; :mod:`stamc.expr` defines
the comparison set, the logical set and the function names:

    expr     := imply ("?" expr ":" expr)?       nests right
    imply    := or ("imply" imply)?              nests right
    or       := and ("||" and)*                  nests left
    and      := cmp ("&&" cmp)*                  nests left
    cmp      := add (cmpop add)?                 one comparison: a < b < c
                                                 is rejected
    cmpop    := == | != | <= | >= | < | >        (expr.COMPARISONS)
    add      := mul (("+"|"-") mul)*             nests left
    mul      := unary (("*"|"/"|"%") unary)*     nests left
    unary    := ("!"|"-") unary | primary
    primary  := number | "true" | "false" | "(" expr ")"
              | func "(" expr ("," expr)* ")" | ident ("." ident)?
    func     := abs | min | max                  (expr.FUNCS)

``Comp.member`` names a location, a local or a parameter of component
``Comp`` (``model.resolver``).  The query grammar, one query per line or
``;``:

    query    := (ident ":")? form ("expect" verdict)? (";")?
    form     := "Pr" bound path                              estimate
              | "Pr" bound path ">=" number                  hypothesis
              | "Pr" bound path ">=" "Pr" bound path         compare
              | "E" "[" ("<="|">=") number ";" number "]"
                "(" ("max"|"min") ":" expr ")"             expected extremum
              | "simulate" number bound "{" expr ("," expr)* "}"
              | "constraint" ident? kind "(" cparam ("," cparam)* ")" "on"
                binding ("," binding)*                      weakly-hard
              | "observer" ident kind "(" cparam ("," cparam)* ")" "on"
                binding ("," binding)*
    bound    := "[" ("<="|">=") number "]"
    path     := "(" ("[]"|"<>") expr ")"
    cparam   := ident "=" number          (m, k, bound, lower, upper,
                                           tolerance, jitter)
    binding  := ident "=" ident           (event = channel)
    verdict  := valid | invalid | undecided

``//`` comments run to end of line everywhere.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import expr as E
from . import queries as Q
from .model import (VAR_TYPES, ChanDecl, Edge, Instantiation, Location,
                    Model, Sync, Template, VarDecl)
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


_DECL_WORDS = (*VAR_TYPES, "chan", "broadcast")
_DIRECTIONS = {"!": "emit", "?": "receive"}  # of a sync action
# a constraint's parameters: WhConstraint's numbers, and the time bound
_CONSTRAINT_PARAMS = frozenset(("m", "k", "bound", "lower", "upper",
                                "tolerance", "jitter"))


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
        return self._chain(("||",), self._and)

    def _and(self) -> E.Expr:
        return self._chain(("&&",), self._cmp)

    def _cmp(self) -> E.Expr:
        e = self._add()
        op = self.tok.text
        if op in E.COMPARISONS:
            self.i += 1
            return E.Binary(op, e, self._add())
        return e

    def _add(self) -> E.Expr:
        return self._chain(("+", "-"), self._mul)

    def _mul(self) -> E.Expr:
        return self._chain(("*", "/", "%"), self._unary)

    def _chain(self, ops: tuple, operand) -> E.Expr:
        """``operand (op operand)*`` for ``op`` in ``ops``, nested left."""
        e = operand()
        op = self.tok.text
        while op in ops:
            self.i += 1
            e = E.Binary(op, e, operand())
            op = self.tok.text
        return e

    def _unary(self) -> E.Expr:
        op = self.tok.text
        if op == "!" or op == "-":
            self.i += 1
            return E.Unary(op, self._unary())
        return self._primary()

    def _list(self, item) -> list:
        """``item ("," item)*``: the items of a comma-separated list."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

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
            if name in E.FUNCS and self.at("("):
                self.i += 1
                args = tuple(self._list(self.expression))
                self.expect(")")
                return E.Call(name, args)
            if self.accept("."):
                name = f"{name}.{self.ident('member name')}"
            return E.Name(name)
        raise ParseError(f"expected expression, found {tok.text!r}", tok.span)

    # --- declarations -----------------------------------------------------

    def _at_decl(self) -> bool:
        return self.tok.text in _DECL_WORDS

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
        params = [] if self.at(")") else self._list(self._param)
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

    def _param(self) -> tuple:
        name = self.ident("parameter name")
        self.expect(":")
        return name, self.ident("parameter type")

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
                direction = _DIRECTIONS.get(self.tok.text)
                if direction is None:
                    raise ParseError("expected '!' or '?' after channel",
                                     self.tok.span)
                self.i += 1
                sync = Sync(chan, direction)
                self.expect(";")
            elif self.accept("weight"):
                _once(seen, "weight", span, "an edge has at most one weight")
                weight = self.number()
                self.expect(";")
            elif self.accept("update"):
                updates += self._list(self._assign)
                self.expect(";")
            else:
                raise ParseError(
                    f"expected guard, sync, weight or update, found {self.tok.text!r}",
                    self.tok.span)
        self.expect("}")
        return Edge(source, target, guard=guard, sync=sync, weight=weight,
                    updates=tuple(updates))

    def _assign(self) -> tuple:
        name = self.ident("update target")
        self.expect(":=")
        return name, self.expression()

    def _system(self) -> tuple:
        self.expect("system")
        raw = self._list(self._instance)
        self.expect(";")
        # bare instantiations: use the template name, numbered when repeated
        bare = Counter(tpl for name, tpl, _ in raw if name is None)
        numbered, insts = Counter(), []
        for name, tpl, args in raw:
            if name is None and bare[tpl] > 1:
                name = f"{tpl}{numbered[tpl]}"
                numbered[tpl] += 1
            insts.append(Instantiation(name or tpl, tpl, args))
        return tuple(insts)

    def _instance(self) -> tuple:
        """(instance name or None, template name, argument literals)."""
        first = self.ident("template or instance name")
        inst_name, tpl = None, first
        if self.accept("="):
            inst_name, tpl = first, self.ident("template name")
        args = ()
        if self.accept("("):
            args = () if self.at(")") else tuple(self._list(self._literal))
            self.expect(")")
        return inst_name, tpl, args

    # --- queries ----------------------------------------------------------

    def queries(self) -> list:
        out = []
        while self.tok.kind != "eof":
            out.append(self._named_query())
        return out

    def _named_query(self) -> Q.NamedQuery:
        span, name = self.tok.span, None
        if self.tok.kind == "ident" and self.peek().text == ":" \
                and self.tok.text not in Q.EXTREMA:
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
        exprs = tuple(self._list(self.expression))
        self.expect("}")
        return Q.Simulate(n_runs, bound, exprs)

    def _expected_query(self) -> Q.Expected:
        self.expect("E")
        bound = self._bound(";")
        n_runs = self._integer(2)  # a sample variance needs two runs
        self.expect("]")
        self.expect("(")
        mode = self.tok.text
        if mode not in Q.EXTREMA:
            raise ParseError("expected 'max' or 'min'", self.tok.span)
        self.i += 1
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
        if kind == "end":
            kind = "endtoend"
        self.expect("(")
        params, spans = {}, {}

        def param():
            at = self.tok.span
            key = self.ident("parameter name")
            if key in spans:
                raise ParseError(
                    f"constraint parameter {key!r} is given twice", at)
            spans[key] = at
            self.expect("=")
            at = self.tok.span
            if key in ("m", "k"):
                params[key] = self._integer(1, key)
            elif key == "bound":
                params[key] = _checked_bound(self.number(), at)
            else:
                params[key] = self.number(finite=True)

        self._list(param)
        self.expect(")")
        self.expect("on")
        bindings = tuple(self._list(self._binding))
        unknown = [key for key in params if key not in _CONSTRAINT_PARAMS]
        if unknown:
            raise ParseError(f"unknown constraint parameter(s) {sorted(unknown)}",
                             spans[unknown[0]])
        bound = params.pop("bound", 3000.0)
        try:
            constraint = WhConstraint(kind=kind, bindings=bindings,
                                      **{"m": 1, "k": 1, **params})
        except MonitorError as exc:
            raise ParseError(str(exc), span) from exc
        return constraint, bound

    def _binding(self) -> tuple:
        event = self.ident("event name")
        self.expect("=")
        return event, self.ident("channel name")


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

