"""Statistical model checking for networks of stochastic timed automata
with location-dependent clock rates."""

from .engine import EngineError, RngStream, RunConfig, Trace, run
from .model import Model, Network, instantiate, validate_model
from .monitors import WhConstraint, attach_observer, check_trace, wh_judge
from .parser import ParseError, parse_expression, parse_model, parse_queries
from .smc import (SmcResult, StatConfig, check, chernoff_runs,
                  clopper_pearson, evaluate_query)

__all__ = [
    "EngineError", "Model", "Network", "ParseError", "RngStream",
    "RunConfig", "SmcResult", "StatConfig", "Trace", "WhConstraint",
    "attach_observer", "check", "check_trace", "chernoff_runs",
    "clopper_pearson", "evaluate_query", "instantiate", "parse_expression",
    "parse_model", "parse_queries", "run", "validate_model", "wh_judge",
]

__version__ = "0.1.0"
