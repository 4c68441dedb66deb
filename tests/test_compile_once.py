"""Derived data computed once per object: caches, indexes and sharing.

Expressions and constraints keep their variable sets once computed, an
automaton its invariants and its edges by source, and the reach engine
builds rows once per shared invariant or jump tuple. None of it may change
what the objects are: equality, hashing, repr, pickles, the first
validation error and the check's results stay as they were.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import hyltlmc.reach.engine as engine_module
from hyltlmc.errors import ModelError, ParseError
from hyltlmc.formula.parser import Declarations, parse_flow_constraint, parse_formula
from hyltlmc.hybrid import FlowConstraint, HybridAutomaton, JumpConstraint, Relation, Transition
from hyltlmc.hybrid.expr import Add, Call, Const, DotVar, Mul, Neg, PrimedVar, Sub, Var, variables
from hyltlmc.hybrid.modelio import load_model, parse_model
from hyltlmc.monitor import random_trace
from hyltlmc.product import check, instrument
from hyltlmc.reach.engine import WIDEN_AFTER, reachable

from conftest import heater_model
from reference_pipeline import eager_reachable

ROOT = Path(__file__).resolve().parents[1]
THREE_CONJUNCTS = "!F(x >= 21 & X on) & G(x<=23) & G(off -> X(x <= 21 U on))"
# The same three properties under one G, which check() does not split:
# its query automaton has 42 locations and 800 edges.
ONE_G = "G(!(x >= 21 & X on) & x <= 23 & (off -> X(x <= 21 U on)))"
CACHED = ("_variables", "mentions_dot", "state_vars", "dot_vars", "primed_vars", "rows", "defines")
DERIVED = CACHED[1:]


def thermostat() -> HybridAutomaton:
    return parse_model(files("hyltlmc.models").joinpath("thermostat.hyha").read_text())


def rooms() -> HybridAutomaton:
    return load_model(ROOT / "perfbench/models/rooms.hyha")


def product_of(h: HybridAutomaton, text: str) -> HybridAutomaton:
    formula = parse_formula(text, Declarations(variables=h.variables, actions=h.actions))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return check(h, formula).product


def flow_pair():
    """Two equal flow constraints built apart, the second never queried."""

    def build():
        x, y = Var("x"), Var("y")
        return FlowConstraint(Add(Mul(Const(2.0), x), Neg(y)), Relation.LE, Call("exp", DotVar("x")))

    return build(), build()


def jump_pair():
    def build():
        return JumpConstraint(PrimedVar("x"), Relation.EQ, Sub(Var("x"), Var("y")))

    return build(), build()


def fill(c) -> None:
    """Compute every cached value of a constraint and its expressions."""
    for name in DERIVED:
        getattr(c, name, None)
    variables(c.lhs)
    variables(c.rhs)


def cached_keys(obj) -> set[str]:
    return set(vars(obj)) & set(CACHED)


class TestCachedValuesStayOutOfIdentity:
    @pytest.mark.parametrize("pair", [flow_pair, jump_pair])
    def test_equal_hash_and_repr_with_and_without_cache(self, pair):
        filled, fresh = pair()
        fill(filled)
        assert cached_keys(filled) and not cached_keys(fresh)
        assert filled == fresh and fresh == filled
        assert hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh) and str(filled) == str(fresh)

    def test_expressions_equal_hash_and_repr_with_and_without_cache(self):
        # Constraints walk their sides on construction, so build bare trees.
        filled, fresh = (Sub(Mul(Const(2.0), Var("x")), Neg(PrimedVar("y"))) for _ in "ab")
        variables(filled)
        assert cached_keys(filled) and cached_keys(filled.left.right)
        assert not cached_keys(fresh) and not cached_keys(fresh.left.right)
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert pickle.dumps(filled) == pickle.dumps(fresh)
        back = copy.deepcopy(filled)
        assert back == filled and not cached_keys(back)
        assert variables(back) == variables(filled)

    @pytest.mark.parametrize("pair", [flow_pair, jump_pair])
    def test_pickles_are_the_same_bytes(self, pair):
        filled, fresh = pair()
        fill(filled)
        assert pickle.dumps(filled) == pickle.dumps(fresh)

    @pytest.mark.parametrize("pair", [flow_pair, jump_pair])
    @pytest.mark.parametrize(
        "roundtrip", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy]
    )
    def test_roundtrip_drops_the_cache_and_recomputes_it(self, pair, roundtrip):
        filled, fresh = pair()
        fill(filled)
        back = roundtrip(filled)
        assert back == filled and hash(back) == hash(filled)
        assert repr(back) == repr(filled)
        if back is not filled:
            assert not cached_keys(back)
        assert not cached_keys(back.lhs) or back.lhs is filled.lhs
        fill(back)
        for name in DERIVED:
            assert getattr(back, name, None) == getattr(fresh, name, None)

    def test_frozen_fields_still_refuse_assignment(self):
        c, _ = flow_pair()
        fill(c)
        with pytest.raises(AttributeError):
            c.rel = Relation.GE
        with pytest.raises(AttributeError):
            c.lhs.left = Const(0.0)


# Unpickles a constraint hashed under the parent's hash seed, argv[2], and
# checks it against a freshly parsed one under this process's seed.
UNPICKLE = """
import pickle, sys
from hyltlmc.formula.parser import Declarations, parse_flow_constraint
back = pickle.loads(bytes.fromhex(sys.argv[1]))
fresh = parse_flow_constraint(sys.argv[3], Declarations(variables=("x", "y")))
assert "_hash" not in vars(back)
assert back == fresh and hash(back) == hash(fresh) and {fresh: 1}[back] == 1
assert hash(back) != int(sys.argv[2])
"""


class TestCachedHash:
    """A constraint hashes its expression trees once and keeps the hash
    beside its other derived values, out of pickles and copies."""

    @pytest.mark.parametrize("pair", [flow_pair, jump_pair])
    @pytest.mark.parametrize(
        "roundtrip", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy]
    )
    def test_a_copy_carries_no_cached_hash(self, pair, roundtrip):
        hashed, _ = pair()
        hash(hashed)
        assert "_hash" in vars(hashed)
        back = roundtrip(hashed)
        assert "_hash" not in vars(back)
        assert back == hashed and hash(back) == hash(hashed)

    def test_unpickled_under_another_hash_seed_hashes_afresh(self):
        text = "der(x) = -0.2 * x + y"
        hashed = parse_flow_constraint(text, Declarations(variables=("x", "y")))
        parent_hash = hash(hashed)
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        blob = pickle.dumps(hashed).hex()
        subprocess.run(
            [sys.executable, "-c", UNPICKLE, blob, str(parent_hash), text],
            env=env, check=True, timeout=60,
        )

    def test_flow_and_jump_with_the_same_sides_stay_unequal(self):
        flow = FlowConstraint(Var("x"), Relation.LE, Const(1.0))
        jump = JumpConstraint(Var("x"), Relation.LE, Const(1.0))
        assert flow != jump and jump != flow
        assert len({flow, jump}) == 2


class TestVariables:
    def test_shared_subtree_under_two_parents(self):
        shared = Add(Var("x"), DotVar("y"))
        left = Mul(shared, PrimedVar("z"))
        right = Sub(Var("w"), Neg(shared))
        assert variables(left) == ({"x"}, {"y"}, {"z"})
        # right reuses the subtree cached while walking left.
        assert variables(right) == ({"w", "x"}, {"y"}, set())
        assert variables(shared) == ({"x"}, {"y"}, set())
        assert variables(left) == ({"x"}, {"y"}, {"z"})
        assert variables(left) is variables(left)

    def test_leaves_and_calls(self):
        assert variables(Const(3.0)) == (set(), set(), set())
        assert variables(Call("sin", PrimedVar("p"))) == (set(), set(), {"p"})

    def test_not_an_expression(self):
        with pytest.raises(TypeError, match="not an expression"):
            variables(3.0)

    def test_constraint_sets(self):
        c, _ = flow_pair()
        assert c.state_vars == {"x", "y"} and c.dot_vars == {"x"} and c.mentions_dot
        j, _ = jump_pair()
        assert j.state_vars == {"x", "y"} and j.primed_vars == {"x"}


class TestTransitionsFrom:
    @pytest.mark.parametrize(
        "h",
        [
            pytest.param(lambda: product_of(thermostat(), ONE_G), id="thermostat"),
            pytest.param(lambda: product_of(rooms(), "!F(x >= 21 & X on1)"), id="rooms"),
        ],
    )
    def test_index_matches_the_linear_scan(self, h):
        h = h()
        assert len(h.transitions) > 100
        for l in h.locations:
            for a in (None, *h.actions):
                scan = [
                    t for t in h.transitions if t.source == l and (a is None or t.action == a)
                ]
                assert list(h.transitions_from(l, a)) == scan
        assert list(h.transitions_from(("nowhere", 0))) == []

    @pytest.mark.parametrize(
        "h, seed",
        [(heater_model, 3), (thermostat, 6000), (rooms, 1), (rooms, 5)],
    )
    def test_seeded_random_trace_is_unchanged(self, monkeypatch, h, seed):
        h = h()
        indexed = [random_trace(h, np.random.default_rng(seed + k)) for k in range(3)]

        def linear_scan(self, loc, action=None):
            for t in self.transitions:
                if t.source == loc and (action is None or t.action == action):
                    yield t

        monkeypatch.setattr(HybridAutomaton, "transitions_from", linear_scan)
        scanned = [random_trace(h, np.random.default_rng(seed + k)) for k in range(3)]
        for (t1, w1), (t2, w2) in zip(indexed, scanned):
            assert w1 == w2
            assert t1.word() == t2.word()
            for i in range(1, t1.p + t1.c + 1):
                assert np.array_equal(t1.trajectory(i).values, t2.trajectory(i).values)


class TestSharedRows:
    def test_invariant_is_computed_once_per_location(self):
        h = heater_model()
        assert h.invariant("idle") is h.invariant("idle")
        assert [str(c) for c in h.invariant("idle")] == ["x >= 17"]

    def test_instrument_shares_twin_jump_tuples(self):
        """Edges sharing a jump tuple get one twin tuple per final source."""
        keep = (JumpConstraint(PrimedVar("x"), Relation.EQ, Var("x")),)
        flow = (FlowConstraint(DotVar("x"), Relation.EQ, Const(0.0)),)
        h = HybridAutomaton(
            ["x"],
            ["a", "b"],
            ["l0", "l1"],
            [Transition(s, a, t, keep) for s in ("l0", "l1") for a in "ab" for t in ("l0", "l1")],
            {"l0": flow, "l1": flow},
            ["l0"],
            acceptance=[{"l0", "l1"}],
        )
        inst = instrument(h)[0]
        twins = inst.transitions[len(h.transitions) :]
        assert [(t.source, t.action, t.target) for t in twins] == [
            (t.source, t.action, t.target) for t in h.transitions
        ]
        by_source = {s: {id(t.jumps) for t in twins if t.source == s} for s in ("l0", "l1")}
        assert [len(ids) for ids in by_source.values()] == [1, 1]
        assert by_source["l0"] != by_source["l1"]
        assert all(t.jumps[:1] == keep and len(t.jumps) == 4 for t in twins)

    def test_one_image_per_jump_tuple(self, monkeypatch):
        inst = product_of(thermostat(), THREE_CONJUNCTS)
        seen: list = []
        original = engine_module.transition_image

        def counted(h, t):
            seen.append(t.jumps)
            return original(h, t)

        monkeypatch.setattr(engine_module, "transition_image", counted)
        result = reachable(inst)
        assert result.complete
        assert len({id(j) for j in seen}) == len(seen)
        flowed = [l for l in inst.locations if result.visits[l]]
        edges = [t for l in flowed for t in inst.transitions_from(l)]
        assert len(seen) == len({id(t.jumps) for t in edges}) < len(edges)


# First errors as the item-by-item validation reported them before any
# cache existed; each model carries several faults at once.
GOOD = Transition("l0", "a", "l1", (JumpConstraint(PrimedVar("x"), Relation.EQ, Var("x")),))
FAULTS = {
    "jump": Transition("l0", "a", "l1", (JumpConstraint(PrimedVar("x"), Relation.EQ, Var("z")),)),
    "action": Transition("l1", "zap", "l0", ()),
    "endpoint": Transition("l1", "a", "nowhere", ()),
}
JUMP_TEXT = "jump constraint 'x' = z' uses undeclared variables"
ACTION_TEXT = "transition action 'zap' not declared"
ENDPOINT_TEXT = (
    "transition endpoints undeclared: "
    "Transition(source='l1', action='a', target='nowhere', jumps=())"
)
MODEL_HEAD = (
    "vars x;\nactions a, b;\n"
    "location l0 { der(x) = 1; }\nlocation l1 { der(x) = 1; }\n"
    "edge l0 -a-> l1 { x' = x; }\n"
)
MODEL_EDGES = {
    "jump": "edge l0 -a-> l1 { x' = z; }",
    "action": "edge l1 -zap-> l0 { x' = x; }",
    "endpoint": "edge l1 -a-> nowhere { }",
    "source": "edge gone -a-> l0 { }",
}


class TestFirstValidationError:
    @pytest.mark.parametrize(
        "order, text",
        [
            (("jump", "action", "endpoint"), JUMP_TEXT),
            (("jump", "endpoint", "action"), JUMP_TEXT),
            (("action", "jump", "endpoint"), ACTION_TEXT),
            (("action", "endpoint", "jump"), ACTION_TEXT),
            (("endpoint", "jump", "action"), ENDPOINT_TEXT),
            (("endpoint", "action", "jump"), ENDPOINT_TEXT),
        ],
    )
    def test_public_constructor(self, order, text):
        flow = (FlowConstraint(DotVar("x"), Relation.EQ, Const(1.0)),)
        with pytest.raises(ModelError) as err:
            HybridAutomaton(
                ["x"],
                ["a", "b"],
                ["l0", "l1"],
                [GOOD, *(FAULTS[k] for k in order), GOOD],
                {"l0": flow, "l1": flow},
                ["l0"],
            )
        assert str(err.value) == text

    @pytest.mark.parametrize(
        "edge, text",
        [
            (
                Transition("l1", "zap", "nowhere", ()),
                "transition endpoints undeclared: "
                "Transition(source='l1', action='zap', target='nowhere', jumps=())",
            ),
            (
                Transition("l0", "zap", "l1", (JumpConstraint(Var("q"), Relation.LE, Const(1.0)),)),
                ACTION_TEXT,
            ),
        ],
    )
    def test_one_edge_with_two_faults(self, edge, text):
        with pytest.raises(ModelError) as err:
            HybridAutomaton(["x"], ["a"], ["l0", "l1"], [edge], {}, ["l0"])
        assert str(err.value) == text

    def test_shared_bad_jump_tuple_behind_a_late_endpoint(self):
        bad = (JumpConstraint(Var("q"), Relation.LE, Const(1.0)),)
        ts = [Transition("l0", "a", "l1", bad), Transition("l1", "a", "gone", bad)]
        with pytest.raises(ModelError, match=r"^jump constraint 'q <= 1' uses undeclared"):
            HybridAutomaton(["x"], ["a"], ["l0", "l1"], ts, {}, ["l0"])
        with pytest.raises(ModelError, match=r"^transition endpoints undeclared: .*'gone'"):
            HybridAutomaton(["x"], ["a"], ["l0", "l1"], ts[::-1], {}, ["l0"])

    @pytest.mark.parametrize(
        "order, text",
        [
            (("action", "endpoint", "source"), ACTION_TEXT),
            (("endpoint", "action", "source"), ENDPOINT_TEXT),
            (
                ("source", "action", "endpoint"),
                "transition endpoints undeclared: "
                "Transition(source='gone', action='a', target='l0', jumps=())",
            ),
        ],
    )
    def test_parse_model(self, order, text):
        body = "\n".join(MODEL_EDGES[k] for k in order)
        with pytest.raises(ModelError) as err:
            parse_model(MODEL_HEAD + body + "\ninitial l0;\n")
        assert str(err.value) == text

    def test_parse_model_reports_an_undeclared_jump_variable_while_parsing(self):
        # The model reader only knows declared names, so the jump fault
        # on the earliest edge stops it before any later fault is seen.
        body = "\n".join(MODEL_EDGES[k] for k in ("jump", "action", "endpoint", "source"))
        with pytest.raises(ParseError) as err:
            parse_model(MODEL_HEAD + body + "\ninitial l0;\n")
        assert str(err.value) == "6:24: unknown identifier 'z'"


# Halving resets give an endless chain of boxes that only widening ends.
GEOMETRIC_SHRINK = (
    "vars x; actions a;\n"
    "location p { der(x) = 0; x >= 0; x <= 8; }\n"
    "edge p -a-> p { x' = 0.5 * x; }\n"
    "initial p;\ninit { x >= 4; x <= 8; }"
)


def shared_jump_product() -> HybridAutomaton:
    """Edges out of `a` that share one jump tuple and enter targets with
    different invariants: b keeps the whole image, c cuts it, d empties
    it. A second tuple also enters b, so two edges reach b, and b's edge
    back to a makes a cycle whose boxes the stores absorb."""
    x, y = Var("x"), Var("y")

    def flow(rate):
        return (
            FlowConstraint(DotVar("x"), Relation.EQ, Const(rate)),
            FlowConstraint(DotVar("y"), Relation.EQ, Const(0.0)),
        )

    def row(v, rel, k):
        return FlowConstraint(v, rel, Const(k))

    shift = (
        JumpConstraint(x, Relation.GE, Const(2.0)),
        JumpConstraint(PrimedVar("x"), Relation.EQ, Add(x, Const(1.0))),
    )
    reset = (
        JumpConstraint(x, Relation.GE, Const(5.0)),
        JumpConstraint(PrimedVar("x"), Relation.EQ, Const(0.0)),
        JumpConstraint(PrimedVar("y"), Relation.EQ, Const(1.0)),
    )
    back = (JumpConstraint(x, Relation.LE, Const(1.0)),)
    return HybridAutomaton(
        ["x", "y"],
        ["go", "hop", "back"],
        ["a", "b", "c", "d"],
        [
            Transition("a", "go", "b", shift),
            Transition("a", "go", "c", shift),
            Transition("a", "hop", "b", reset),
            Transition("a", "go", "d", shift),
            Transition("a", "hop", "c", shift),
            Transition("b", "back", "a", back),
        ],
        {
            "a": flow(1.0) + (row(x, Relation.LE, 10.0),),
            "b": flow(-1.0) + (row(x, Relation.GE, 0.0),),
            "c": flow(0.0) + (row(x, Relation.LE, 5.0),),
            "d": flow(0.0) + (row(x, Relation.LE, 1.0),),
        },
        ["a"],
        {"a": (row(x, Relation.GE, 0.0), row(x, Relation.LE, 1.0), row(y, Relation.EQ, 0.0))},
    )


def guard_clip_counter(monkeypatch) -> list[int]:
    """Count the engine's clips by a guard: a transition image's guard clip."""
    images, count = [], [0]
    image_of, clip_of = engine_module.transition_image, engine_module.clip

    def transition_image(h, t):
        images.append(image_of(h, t))
        return images[-1]

    def clip(z, rows):
        count[0] += any(rows is img.guard for img in images)
        return clip_of(z, rows)

    monkeypatch.setattr(engine_module, "transition_image", transition_image)
    monkeypatch.setattr(engine_module, "clip", clip)
    return count


def per_visit(h: HybridAutomaton, visits, edges_of) -> int:
    return sum(k * len(edges_of(list(h.transitions_from(l)))) for l, k in visits.items())


class TestEdgeWorkPerJumpTuple:
    """The engine clips and images the tube once per distinct jump tuple
    and pushes one item per edge in transition order, so it stores the
    same boxes as the frozen per-edge loop."""

    def test_hand_product_matches_the_per_edge_loop(self):
        h = shared_jump_product()
        got = reachable(h)
        ref = eager_reachable(h)
        assert got.complete and (got.cause, got.cause_location) == (ref.cause, ref.cause_location)
        assert got.visits == ref.visits
        assert got.visits["d"] == 0 and got.visits["b"] >= 1 and got.visits["c"] >= 1
        for l in h.locations:
            assert [(lo.tobytes(), hi.tobytes()) for lo, hi in got.boxes[l]] == [
                (lo.tobytes(), hi.tobytes()) for lo, hi in ref.boxes[l]
            ]
        # Both tuples reached b: shift keeps y = 0 from the start, reset sets y = 1.
        assert {hi[1] for _, hi in got.boxes["b"]} == {0.0, 1.0}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: parse_model(GEOMETRIC_SHRINK),
            lambda: product_of(load_model(ROOT / "perfbench/models/tanks.hyha"), "false"),
        ],
        ids=["geometric-shrink", "tanks-false"],
    )
    def test_widening_matches_the_per_edge_loop(self, build):
        # Both loops join a box past WIDEN_AFTER visits with the hull of
        # the start boxes and widen it where it exceeds that hull.
        h = build()
        got = reachable(h)
        ref = eager_reachable(h)
        assert got.complete and ref.complete
        assert got.visits == ref.visits
        assert max(got.visits.values()) > WIDEN_AFTER
        for l in h.locations:
            assert [(lo.tobytes(), hi.tobytes()) for lo, hi in got.boxes[l]] == [
                (lo.tobytes(), hi.tobytes()) for lo, hi in ref.boxes[l]
            ]

    @pytest.mark.parametrize(
        "build", [shared_jump_product, lambda: product_of(thermostat(), THREE_CONJUNCTS)]
    )
    def test_one_guard_clip_per_jump_tuple_per_visit(self, monkeypatch, build):
        h = build()
        count = guard_clip_counter(monkeypatch)
        result = reachable(h)
        assert result.complete
        tuples = per_visit(h, result.visits, lambda ts: {id(t.jumps) for t in ts})
        assert count[0] == tuples < per_visit(h, result.visits, lambda ts: ts)

    def test_one_dynamics_read_per_distinct_field(self, monkeypatch):
        inst = product_of(thermostat(), THREE_CONJUNCTS)
        read: list = []
        original = engine_module.location_dynamics

        def counted(h, loc):
            read.append(loc)
            return original(h, loc)

        monkeypatch.setattr(engine_module, "location_dynamics", counted)
        result = reachable(inst)
        flowed = [l for l in inst.locations if result.visits[l]]
        fields = {tuple(id(c) for c in inst.dyn[l] if c.mentions_dot) for l in flowed}
        assert len(read) == len(set(map(repr, read))) == len(fields) < len(flowed)
