"""hyltlmc: model checking of hybrid automata against HyLTL properties.

The package decides whether a hybrid automaton satisfies a HyLTL formula
by compiling the negated formula into an observer automaton, composing
it with the system, and asking an interval reachability engine whether
any accepting recurrence survives. Verdicts are Verified or
Inconclusive, never Falsified, because the reachability step
over-approximates. An independent trace monitor evaluates formulas
directly on recorded or simulated lasso traces.
"""

from .errors import (
    ComplementError,
    ComplementStrengtheningWarning,
    ConfigError,
    ExportError,
    HyltlError,
    ModelError,
    ParseError,
    TraceError,
    UnsupportedDynamicsError,
)
from .formula.parser import Declarations, parse_formula
from .hybrid.automaton import HybridAutomaton, compose, find_accepting_witness
from .hybrid.lasso import HybridLassoTrace
from .hybrid.modelio import load_model, model_to_str, parse_model
from .monitor import evaluate_trace, evaluate_word, random_trace
from .phaver import embedded_model, export_phaver
from .product import Verdict, check
from .reach import ReachResult, reachable

__version__ = "0.1.0"

__all__ = [
    "ComplementError",
    "ComplementStrengtheningWarning",
    "ConfigError",
    "Declarations",
    "ExportError",
    "HybridAutomaton",
    "HybridLassoTrace",
    "HyltlError",
    "ModelError",
    "ParseError",
    "ReachResult",
    "TraceError",
    "UnsupportedDynamicsError",
    "Verdict",
    "check",
    "compose",
    "embedded_model",
    "evaluate_trace",
    "evaluate_word",
    "export_phaver",
    "find_accepting_witness",
    "load_model",
    "model_to_str",
    "parse_formula",
    "parse_model",
    "random_trace",
    "reachable",
]
