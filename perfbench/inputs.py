"""A workload's models and parsed formulas, loaded the way a user would."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from hyltlmc import HybridAutomaton, load_model, parse_formula
from hyltlmc.formula.parser import Declarations

from cases import MODEL_FILES, Workload
from tracer import span


@dataclass
class Inputs:
    models: dict[str, HybridAutomaton]
    formulas: dict[tuple[str, str], object]


def load_inputs(workload: Workload, root: Path, tracer=None) -> Inputs:
    """Load every model and parse every formula the workload uses."""
    models = {}
    for name in workload.models():
        with span(tracer, "modelio"):
            models[name] = load_model(root / MODEL_FILES[name])
    formulas = {}
    for model, text in workload.formulas():
        h = models[model]
        decls = Declarations(variables=h.variables, actions=h.actions)
        with span(tracer, "parser"):
            formulas[model, text] = parse_formula(text, decls)
    return Inputs(models, formulas)
