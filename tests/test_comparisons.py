"""One judge of a comparison: both sides in float64 by numpy's rules.

holds_at, satisfies_jump and satisfies_flow all read _Comparison.judge,
so a comparison answers the same whatever float type holds the state: a
bool, or TraceError when a side is nan at a judged sample. A side that
divides by zero or overflows is +-inf and is compared. RuntimeWarnings
are errors in this suite, so every test here also shows that no numpy
warning leaks out of the judge.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyltlmc.errors import TraceError
from hyltlmc.formula.parser import Declarations, parse_flow_constraint
from hyltlmc.hybrid import FlowConstraint, JumpConstraint, Relation, SampledTrajectory
from hyltlmc.hybrid.automaton import _solve_jump
from hyltlmc.hybrid.expr import Add, Call, Const, Div, Mul, Neg, PrimedVar, Sub, Var
from hyltlmc.hybrid.modelio import parse_model
from hyltlmc.hybrid.trajectory import satisfies_flow
from hyltlmc.monitor import random_trace

DECLS = Declarations(variables=("x",), actions=("on", "off"))
FLOAT_TYPES = pytest.mark.parametrize("num", [float, np.float64], ids=["float", "float64"])


def at(text: str, x) -> bool:
    return parse_flow_constraint(text, DECLS).holds_at({"x": x})


class TestMotivationProbes:
    """Each of these once raised a bare ZeroDivisionError, OverflowError
    or ValueError on Python floats."""

    @FLOAT_TYPES
    def test_division_by_zero_is_infinite(self, num):
        assert at("1/x <= 2", num(0.0)) is False
        assert at("1/x >= 2", num(0.0)) is True
        assert at("-1/x <= 2", num(0.0)) is True

    @FLOAT_TYPES
    def test_overflow_is_infinite(self, num):
        assert at("exp(x) <= 2", num(1000.0)) is False
        assert at("exp(x) > 2", num(1000.0)) is True

    @FLOAT_TYPES
    def test_sine_of_infinity_is_undefined(self, num):
        with pytest.raises(TraceError, match=r"'sin\(x\) <= 2' is undefined \(nan\) at x=inf"):
            at("sin(x) <= 2", num(math.inf))

    def test_random_trace_names_an_undefined_invariant(self):
        # The reset x' = 0 enters heat, whose invariant x / x is 0/0 there.
        h = parse_model("""
            vars x;
            actions on, off;
            location idle { der(x) = -0.2 * x; x >= 17; }
            location heat { der(x) = 30 - 0.2 * x; x <= 23; x / x <= 2; }
            edge idle -on-> heat { x <= 19; x' = 0; }
            edge heat -off-> idle { x >= 21; x' = x; }
            initial idle;
            init { x >= 19; x <= 21; }
        """)
        with pytest.raises(TraceError, match=r"'x / x <= 2' is undefined \(nan\) at x=0"):
            random_trace(h, np.random.default_rng(0))

    @FLOAT_TYPES
    def test_reset_that_overflows_has_no_successor(self, num):
        reset = JumpConstraint(PrimedVar("x"), Relation.EQ, Call("exp", Var("x")))
        assert _solve_jump({"x": num(1000.0)}, (reset,), ("x",)) is None
        assert _solve_jump({"x": num(0.0)}, (reset,), ("x",)) == {"x": 1.0}

    def test_derivative_constraint_skips_the_end_samples(self):
        traj = SampledTrajectory(("x",), [[0.0], [1.0], [2.0]], 1.0, [[np.nan], [1.0], [np.inf]])
        assert satisfies_flow(traj, parse_flow_constraint("der(x) = 1", DECLS), tol=0.0)
        assert not satisfies_flow(traj, parse_flow_constraint("x <= 1", DECLS), tol=0.0)


NAMES = ("x", "y")
SPECIAL = st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, -math.inf])
VALUES = SPECIAL | st.floats(-1e6, 1e6)
LEAVES = st.sampled_from([Var(n) for n in NAMES]) | st.floats(-1e3, 1e3).map(Const)
EXPRS = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Neg, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), sub),
    ),
    max_leaves=6,
)


def outcome(judge):
    try:
        got = judge()
    except TraceError:
        return "undefined"
    assert type(got) is bool
    return got


@settings(max_examples=300, deadline=None)
@given(
    lhs=EXPRS,
    rel=st.sampled_from(list(Relation)),
    rhs=EXPRS,
    state=st.tuples(VALUES, VALUES),
)
def test_one_answer_whatever_holds_the_state(lhs, rel, rhs, state):
    """holds_at on Python floats, holds_at on np.float64 and
    satisfies_flow on a constant three-sample trajectory agree."""
    c = FlowConstraint(lhs, rel, rhs)
    traj = SampledTrajectory(NAMES, [state] * 3, 0.1, np.zeros((3, 2)))
    answers = {
        outcome(lambda: c.holds_at(dict(zip(NAMES, map(float, state))))),
        outcome(lambda: c.holds_at(dict(zip(NAMES, map(np.float64, state))))),
        outcome(lambda: satisfies_flow(traj, c, tol=0.0)),
    }
    assert len(answers) == 1, answers
