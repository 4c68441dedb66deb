"""Shared fixtures: the two-mode heater model and formula declarations."""

from __future__ import annotations

import random
import sys

import pytest

from hyltlmc.formula import Declarations
from hyltlmc.formula.syntax import (
    ActionAtom,
    And,
    Bot,
    Next,
    Not,
    Or,
    Release,
    Top,
    Until,
)
from hyltlmc.hybrid import (
    FlowConstraint,
    HybridAutomaton,
    JumpConstraint,
    Relation,
    Transition,
)
from hyltlmc.hybrid.expr import Const, DotVar, Mul, PrimedVar, Sub, Var


def heater_model(
    on_guard_max: float = 19.0, idle_rate: float = -0.2
) -> HybridAutomaton:
    """Two-location heater: cooling 'idle' and warming 'heat'.

    idle: der(x) = rate x (rate -0.2), inv x >= 17, switch-on allowed
    while x <= guard.
    heat: der(x) = 30 - 0.2 x, inv x <= 23, switch-off allowed once x >= 21.
    Starts in idle with x in [19, 21].
    """
    x = Var("x")
    dyn = {
        "idle": (
            FlowConstraint(DotVar("x"), Relation.EQ, Mul(Const(idle_rate), x)),
            FlowConstraint(x, Relation.GE, Const(17.0)),
        ),
        "heat": (
            FlowConstraint(DotVar("x"), Relation.EQ, Sub(Const(30.0), Mul(Const(0.2), x))),
            FlowConstraint(x, Relation.LE, Const(23.0)),
        ),
    }
    transitions = [
        Transition(
            "idle",
            "on",
            "heat",
            (
                JumpConstraint(x, Relation.LE, Const(on_guard_max)),
                JumpConstraint(PrimedVar("x"), Relation.EQ, x),
            ),
        ),
        Transition(
            "heat",
            "off",
            "idle",
            (
                JumpConstraint(x, Relation.GE, Const(21.0)),
                JumpConstraint(PrimedVar("x"), Relation.EQ, x),
            ),
        ),
    ]
    return HybridAutomaton(
        variables=("x",),
        actions=("on", "off"),
        locations=("idle", "heat"),
        transitions=transitions,
        dyn=dyn,
        init=("idle",),
        init_region={
            "idle": (
                FlowConstraint(x, Relation.GE, Const(19.0)),
                FlowConstraint(x, Relation.LE, Const(21.0)),
            )
        },
    )


def loop_system(actions) -> HybridAutomaton:
    """The one-location system looping on every action. A tableau pruned
    against it keeps what prune_unreachable keeps of the full tableau."""
    actions = tuple(actions)
    return HybridAutomaton(
        (), actions, ("s",), [Transition("s", a, "s") for a in actions], {}, ("s",)
    )


@pytest.fixture
def heater() -> HybridAutomaton:
    return heater_model()


@pytest.fixture
def heater_relaxed() -> HybridAutomaton:
    """Same heater with the switch-on guard loosened to x <= 25."""
    return heater_model(on_guard_max=25.0)


@pytest.fixture
def heater_decls() -> Declarations:
    return Declarations(variables=("x",), actions=("on", "off"))


def random_formula(rng: random.Random, atoms, max_size: int):
    """Random AST over the given atom pool, at most max_size nodes."""
    if max_size <= 1:
        return rng.choice(atoms)
    kind = rng.randrange(2) if max_size == 2 else rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, atoms, max_size - 1))
    if kind == 1:
        return Next(random_formula(rng, atoms, max_size - 1))
    ctor = (And, Or, Until, Release)[kind - 2]
    left_budget = rng.randint(1, max_size - 2)
    left = random_formula(rng, atoms, left_budget)
    right = random_formula(rng, atoms, max_size - 1 - left_budget)
    return ctor(left, right)


BOOL_ATOMS = (Top(), Bot(), ActionAtom("on"), ActionAtom("off"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance criterion and oracle lines after the run,
    uncaptured."""
    for module, attr, title in (
        ("test_acceptance", "CRITERION_LINES", "acceptance criteria"),
        ("test_soundness_oracle", "REPORT_LINES", "soundness oracle"),
    ):
        lines = getattr(sys.modules.get(module), attr, None)
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
