"""Trajectories, constraints and automaton structure."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hyltlmc.errors import ComplementError, ModelError, TraceError
from hyltlmc.hybrid import (
    FlowConstraint,
    HybridAutomaton,
    JumpConstraint,
    Relation,
    SampledTrajectory,
    Transition,
    complement_of,
    compose,
    satisfies_flow,
    satisfies_jump,
)
from hyltlmc.hybrid.automaton import _successors
from hyltlmc.hybrid.expr import (
    Add,
    Call,
    Const,
    Div,
    DotVar,
    Mul,
    Neg,
    PrimedVar,
    Sub,
    Var,
    affine_form,
    evaluate,
    to_str,
)
from hyltlmc.formula.parser import Declarations, parse_flow_constraint

from conftest import heater_model


class TestExpr:
    def test_evaluate_namespaces(self):
        e = Add(Var("x"), Mul(Const(2.0), DotVar("x")))
        assert evaluate(e, state={"x": 3.0}, dot={"x": 0.5}) == 4.0
        with pytest.raises(ModelError):
            evaluate(e, state={"x": 3.0})

    def test_evaluate_functions(self):
        assert evaluate(Call("exp", Const(0.0))) == 1.0
        assert abs(evaluate(Call("sin", Const(math.pi))) ) < 1e-12

    def test_affine_extraction(self):
        e = Sub(Const(30.0), Mul(Const(0.2), Var("x")))
        coeffs, const = affine_form(e)
        assert coeffs == {("v", "x"): -0.2}
        assert const == 30.0

    def test_affine_rejects_nonlinear(self):
        assert affine_form(Mul(Var("x"), Var("y"))) is None
        assert affine_form(Call("sin", Var("x"))) is None
        assert affine_form(Div(Const(1.0), Var("x"))) is None

    def test_affine_folds_constant_calls(self):
        coeffs, const = affine_form(Mul(Call("exp", Const(0.0)), Var("x")))
        assert coeffs == {("v", "x"): 1.0}
        assert const == 0.0

    def test_print_parse_roundtrip(self):
        d = Declarations(variables=("x", "y"))
        for text in (
            "der(x) = -0.2 * x",
            "x + 1 >= 2",
            "(x + y) * 2 <= x / 4",
            "x - (y - 1) > 0",
            "-x < 3",
        ):
            c = parse_flow_constraint(text, d)
            again = parse_flow_constraint(str(c), d)
            assert again == c


def decay_trajectory(h=0.01, duration=1.0, x0=20.0, exact_derivs=True):
    """Samples of x(t) = x0 * exp(-0.2 t) with the field's derivatives."""
    return SampledTrajectory.from_function(
        ("x",),
        lambda t: (x0 * math.exp(-0.2 * t),),
        duration,
        h,
        (lambda t: (-0.2 * x0 * math.exp(-0.2 * t),)) if exact_derivs else None,
    )


class TestTrajectory:
    def test_basic_accessors(self):
        tr = decay_trajectory()
        assert tr.n_samples == 101
        assert tr.duration == pytest.approx(1.0)
        assert tr.fstate["x"] == pytest.approx(20.0)
        assert tr.lstate["x"] == pytest.approx(20.0 * math.exp(-0.2), abs=1e-12)

    def test_states_are_plain_dicts(self):
        tr = decay_trajectory()
        for state, row in ((tr.fstate, 0), (tr.lstate, 100), (tr.value_at(7), 7)):
            assert type(state) is dict
            assert state == {"x": tr.values[row, 0]}

    def test_flow_equality_with_field_derivatives(self):
        """der(x) = -0.2 x holds exactly when derivatives come from the field."""
        tr = decay_trajectory()
        d = Declarations(variables=("x",))
        c = parse_flow_constraint("der(x) = -0.2 * x", d)
        assert satisfies_flow(tr, c)

    def test_flow_equality_with_finite_differences(self):
        """Central differences carry O(h^2) error: fails at 1e-9, passes at 1e-4."""
        tr = decay_trajectory(exact_derivs=False)
        d = Declarations(variables=("x",))
        c = parse_flow_constraint("der(x) = -0.2 * x", d)
        assert not satisfies_flow(tr, c, tol=1e-9)
        assert satisfies_flow(tr, c, tol=1e-4)

    def test_state_constraint_over_all_samples(self):
        tr = decay_trajectory()
        d = Declarations(variables=("x",))
        assert not satisfies_flow(tr, parse_flow_constraint("x >= 19.9", d))
        assert satisfies_flow(tr, parse_flow_constraint("x >= 16.3", d))
        assert tr.lstate["x"] == pytest.approx(16.3746, abs=1e-3)

    def test_derivative_skipped_at_endpoints(self):
        """A derivative constraint violated only at the endpoints still holds."""
        values = np.array([[0.0], [1.0], [2.0], [3.0]])
        derivs = np.array([[99.0], [1.0], [1.0], [99.0]])
        tr = SampledTrajectory(("x",), values, 1.0, derivs)
        d = Declarations(variables=("x",))
        c = parse_flow_constraint("der(x) = 1", d)
        assert satisfies_flow(tr, c, tol=1e-9)

    def test_point_trajectory(self):
        tr = SampledTrajectory(("x",), np.array([[5.0]]), 0.5)
        assert tr.duration == 0.0
        d = Declarations(variables=("x",))
        assert satisfies_flow(tr, parse_flow_constraint("x = 5", d))
        assert satisfies_flow(tr, parse_flow_constraint("der(x) = 123", d))

    def test_shape_validation(self):
        with pytest.raises(TraceError):
            SampledTrajectory(("x",), np.zeros((0, 1)), 0.1)
        with pytest.raises(TraceError):
            SampledTrajectory(("x", "y"), np.zeros((3, 1)), 0.1)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_step_must_be_finite_and_positive(self, h):
        with pytest.raises(TraceError, match="finite and positive"):
            SampledTrajectory(("x",), np.zeros((3, 1)), h)


class TestJump:
    def test_substitution_semantics(self):
        jc = JumpConstraint(PrimedVar("x"), Relation.EQ, Var("x"))
        assert satisfies_jump({"x": 18.0}, {"x": 18.0}, jc)
        assert not satisfies_jump({"x": 18.0}, {"x": 18.5}, jc)

    def test_exact_comparison(self):
        jc = JumpConstraint(Var("x"), Relation.LE, Const(19.0))
        assert satisfies_jump({"x": 19.0}, {"x": 19.0}, jc)
        assert not satisfies_jump(
            {"x": 19.0 + 1e-12}, {"x": 0.0}, jc
        )


class TestComplement:
    def test_flip(self):
        c = FlowConstraint(Var("x"), Relation.GE, Const(21.0))
        assert complement_of(c) == FlowConstraint(Var("x"), Relation.LT, Const(21.0))
        c2 = FlowConstraint(Var("x"), Relation.LT, Const(19.0))
        assert complement_of(c2).rel is Relation.GE

    def test_equality_has_no_flip(self):
        c = FlowConstraint(Var("x"), Relation.EQ, Const(0.0))
        with pytest.raises(ComplementError):
            complement_of(c)


class TestAutomaton:
    def test_validation_rejects_undeclared(self):
        with pytest.raises(ModelError):
            HybridAutomaton(
                variables=("x",),
                actions=("a",),
                locations=("l",),
                transitions=(),
                dyn={"l": (FlowConstraint(Var("y"), Relation.GE, Const(0.0)),)},
                init=("l",),
            )

    def test_shared_bad_jump_constraint_is_rejected(self):
        """One undeclared-variable jump object on every edge, behind a
        shared good one, still fails validation."""
        good = JumpConstraint(PrimedVar("x"), Relation.EQ, Var("x"))
        bad = JumpConstraint(Var("z"), Relation.LE, Const(1.0))
        locations = tuple(f"l{i}" for i in range(6))
        with pytest.raises(ModelError, match="undeclared"):
            HybridAutomaton(
                variables=("x",),
                actions=("a",),
                locations=locations,
                transitions=[
                    Transition(s, "a", t, (good, bad))
                    for s in locations
                    for t in locations
                ],
                dyn={},
                init=("l0",),
            )

    def test_shared_bad_flow_constraint_is_rejected(self):
        bad = FlowConstraint(DotVar("y"), Relation.EQ, Const(1.0))
        locations = tuple(f"l{i}" for i in range(6))
        with pytest.raises(ModelError, match="'l0' uses undeclared"):
            HybridAutomaton(
                variables=("x",),
                actions=("a",),
                locations=locations,
                transitions=(),
                dyn={l: (bad,) for l in locations},
                init=("l0",),
            )

    def test_flow_constraint_reused_in_init_region_is_checked_there(self):
        """A rate row that passes as dynamics is still refused in an
        initial region."""
        rate = FlowConstraint(DotVar("x"), Relation.EQ, Const(1.0))
        with pytest.raises(ModelError, match="must not use derivatives"):
            HybridAutomaton(
                variables=("x",),
                actions=("a",),
                locations=("l",),
                transitions=(),
                dyn={"l": (rate,)},
                init=("l",),
                init_region={"l": (rate,)},
            )

    @pytest.mark.parametrize("other", ["m", "undeclared"])
    def test_init_region_needs_an_initial_location(self, other):
        low = FlowConstraint(Var("x"), Relation.GE, Const(0.0))
        with pytest.raises(ModelError, match=f"'{other}', which is not initial"):
            HybridAutomaton(
                variables=("x",),
                actions=("a",),
                locations=("l", "m"),
                transitions=(),
                dyn={},
                init=("l",),
                init_region={"l": (low,), other: (low,)},
            )

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"locations": ("l", "m", "l")}, "duplicate location"),
            ({"variables": ("x", "x")}, "duplicate variable"),
            ({"actions": ("a", "a")}, "duplicate action"),
            ({"init": ("l", "l")}, "duplicate initial location"),
            ({"init": ("l", "z")}, "initial location 'z' not declared"),
            (
                {"init_region": {"l": (FlowConstraint(Var("y"), Relation.GE, Const(0.0)),)}},
                "init region constraint 'y >= 0' uses undeclared variables",
            ),
            ({"acceptance": ({"l", "z"},)}, "acceptance set contains undeclared locations"),
        ],
        ids=["location", "variable", "action", "initial", "undeclared-initial",
             "init-variable", "acceptance"],
    )
    def test_validation_refusals(self, changes, message):
        fields = dict(
            variables=("x",),
            actions=("a",),
            locations=("l", "m"),
            transitions=(Transition("l", "a", "m"),),
            dyn={},
            init=("l",),
        )
        HybridAutomaton(**fields)
        with pytest.raises(ModelError, match=f"^{message}$"):
            HybridAutomaton(**{**fields, **changes})

    def test_transition_is_immutable_and_compares_by_fields(self):
        t = Transition("a", "go", "b")
        assert t.jumps == ()
        assert repr(t) == "Transition(source='a', action='go', target='b', jumps=())"
        with pytest.raises(AttributeError):
            t.target = "c"
        assert t == ("a", "go", "b", ())
        assert hash(t) == hash(Transition("a", "go", "b", ()))

    def test_automata_with_equal_transitions_are_equal(self):
        def build(jumps):
            return HybridAutomaton(
                variables=("x",),
                actions=("go",),
                locations=("a", "b"),
                transitions=(Transition("a", "go", "b", jumps),),
                dyn={},
                init=("a",),
            )

        reset = (JumpConstraint(PrimedVar("x"), Relation.EQ, Const(0.0)),)
        assert build(reset) == build(tuple(reset))
        assert build(reset) != build(())

    @staticmethod
    def successors(h, loc, v):
        return [(t.action, t.target, v2) for t, v2 in _successors(h, loc, v)]

    def test_discrete_step_fires_when_guard_holds(self, heater):
        out = self.successors(heater, "idle", {"x": 18.0})
        assert out == [("on", "heat", {"x": 18.0})]

    def test_discrete_step_blocked_by_guard(self, heater):
        assert self.successors(heater, "idle", {"x": 20.0}) == []

    def test_discrete_step_from_heat(self, heater):
        out = self.successors(heater, "heat", {"x": 22.0})
        assert out == [("off", "idle", {"x": 22.0})]

    def test_discrete_step_rejects_inadmissible_target(self, heater):
        # x = 16.5 violates idle's invariant x >= 17 after the jump.
        assert self.successors(heater, "heat", {"x": 16.5}) == []

    def test_admissible_checks_the_location_invariant(self, heater):
        assert heater.admissible("idle", {"x": 17.0})
        assert not heater.admissible("idle", {"x": 16.5})
        assert heater.admissible("heat", {"x": 23.0})
        assert not heater.admissible("heat", {"x": 23.5})


class TestCompose:
    def make_observer(self):
        """One-location observer over a fresh variable, watching 'on' only."""
        return HybridAutomaton(
            variables=("z",),
            actions=("on",),
            locations=("obs",),
            transitions=(
                Transition(
                    "obs", "on", "obs", (JumpConstraint(PrimedVar("z"), Relation.EQ, Add(Var("z"), Const(1.0))),)
                ),
            ),
            dyn={"obs": (FlowConstraint(DotVar("z"), Relation.EQ, Const(0.0)),)},
            init=("obs",),
            acceptance=(frozenset({"obs"}),),
        )

    def test_location_count_is_product(self, heater):
        prod = compose(heater, self.make_observer())
        assert len(prod.locations) == 2 * 1
        assert set(prod.variables) == {"x", "z"}
        assert prod.init == (("idle", "obs"),)

    def test_shared_action_syncs_and_private_freezes(self, heater):
        prod = compose(heater, self.make_observer())
        on_edges = [t for t in prod.transitions if t.action == "on"]
        assert len(on_edges) == 1
        t = on_edges[0]
        assert t.source == ("idle", "obs") and t.target == ("heat", "obs")
        # owner constraints from both sides are present
        assert any("z'" in str(j) for j in t.jumps)
        assert any(str(j) == "x' = x" for j in t.jumps)

    def test_unshared_action_stutters_nonowner(self, heater):
        prod = compose(heater, self.make_observer())
        off_edges = [t for t in prod.transitions if t.action == "off"]
        assert len(off_edges) == 1
        t = off_edges[0]
        assert t.source == ("heat", "obs") and t.target == ("idle", "obs")
        # observer does not own 'off': its private variable z freezes
        assert any(str(j) == "z' = z" for j in t.jumps)

    def test_dyn_union_and_acceptance_lift(self, heater):
        prod = compose(heater, self.make_observer())
        dyn = prod.dyn[("idle", "obs")]
        assert len(dyn) == 3  # heater's two plus observer's der(z) = 0
        assert prod.acceptance == (frozenset(prod.locations),)

    def test_init_regions_only_at_initial_pairs(self, heater):
        prod = compose(heater, heater)
        assert prod.init == (("idle", "idle"),)
        assert ("heat", "heat") in prod.locations
        assert prod.init_region == {("idle", "idle"): heater.init_region["idle"]}

    def test_compose_associative_up_to_renesting(self, heater):
        obs = self.make_observer()
        third = HybridAutomaton(
            variables=("w",),
            actions=("off",),
            locations=("w0",),
            transitions=(Transition("w0", "off", "w0"),),
            dyn={"w0": (FlowConstraint(DotVar("w"), Relation.EQ, Const(0.0)),)},
            init=("w0",),
        )
        left = compose(compose(heater, obs), third)
        right = compose(heater, compose(obs, third))

        def flat(loc):
            if isinstance(loc, tuple):
                return tuple(x for part in loc for x in flat(part))
            return (loc,)

        assert {flat(l) for l in left.locations} == {flat(l) for l in right.locations}
        lt = {(flat(t.source), t.action, flat(t.target)) for t in left.transitions}
        rt = {(flat(t.source), t.action, flat(t.target)) for t in right.transitions}
        assert lt == rt
