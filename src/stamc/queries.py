"""AST of the five statistical query forms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import expr as E


@dataclass(frozen=True)
class PathFormula:
    op: str  # "eventually" | "globally"
    state_expr: E.Expr


def eventually(e: E.Expr) -> PathFormula:
    return PathFormula("eventually", e)


def globally(e: E.Expr) -> PathFormula:
    return PathFormula("globally", e)


@dataclass(frozen=True)
class Estimate:
    formula: PathFormula
    bound: float


@dataclass(frozen=True)
class Hypothesis:
    formula: PathFormula
    bound: float
    p0: float  # tests Pr(formula) >= p0


@dataclass(frozen=True)
class Simulate:
    n_runs: int
    bound: float
    exprs: tuple  # tuple[E.Expr]
    sample_step: Optional[float] = None


@dataclass(frozen=True)
class Compare:
    formula1: PathFormula
    bound1: float
    formula2: PathFormula
    bound2: float


EXTREMA = ("max", "min")  # the modes of an Expected query


@dataclass(frozen=True)
class Expected:
    bound: float
    n_runs: int
    mode: str  # one of EXTREMA
    expr: E.Expr


@dataclass(frozen=True)
class ConstraintQuery:
    """A weakly-hard timing constraint checked via observer + trace oracle."""

    constraint: object  # monitors.WhConstraint
    bound: float


@dataclass(frozen=True)
class ObserverDecl:
    """Attach a timing-constraint observer as a named network component so
    later queries can reference its locations and latency clock."""

    name: str
    constraint: object  # monitors.WhConstraint


Query = object  # union of the dataclasses above


@dataclass(frozen=True)
class NamedQuery:
    name: Optional[str]
    query: Query
    expected: Optional[str] = None  # valid | invalid | undecided
    span: object = field(default=None, compare=False)  # where it starts
