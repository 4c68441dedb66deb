"""Hybrid automata: trajectories, constraints, composition."""

from .automaton import (
    HybridAutomaton,
    Transition,
    accepts,
    compose,
    is_generated,
)
from .constraints import (
    FlowConstraint,
    JumpConstraint,
    Relation,
    complement_of,
    satisfies_jump,
)
from .lasso import HybridLassoTrace
from .trajectory import DEFAULT_FLOW_TOL, SampledTrajectory, satisfies_flow

__all__ = [
    "HybridAutomaton",
    "Transition",
    "accepts",
    "compose",
    "is_generated",
    "FlowConstraint",
    "JumpConstraint",
    "Relation",
    "complement_of",
    "satisfies_jump",
    "HybridLassoTrace",
    "DEFAULT_FLOW_TOL",
    "SampledTrajectory",
    "satisfies_flow",
]
