"""The observer and the product are built only where a run can go.

`maximally_consistent_sets` enumerates only the free choices and must
return exactly the sets, in the same order, that filtering all 2^pairs
sign choices gives. `compose` must equal the full cross product
restricted to the pairs reachable from an initial pair, in the same
relative order. The pruned observer must equal `prune_unreachable` of the
full one. The oracles are the frozen copies in `reference_pipeline`.
"""

from __future__ import annotations

import random
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyltlmc.formula.closure import closure, maximally_consistent_sets
from hyltlmc.formula.nnf import to_nnf
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.formula.syntax import (
    ActionAtom,
    And,
    Bot,
    FlowAtom,
    Next,
    Not,
    Or,
    Release,
    Top,
    Until,
)
from hyltlmc.hybrid import FlowConstraint, JumpConstraint, Relation
from hyltlmc.hybrid.automaton import HybridAutomaton, Transition, compose
from hyltlmc.hybrid.expr import Const, DotVar, PrimedVar, Var
from hyltlmc.hybrid.modelio import load_model
from hyltlmc.product import check
from hyltlmc.tableau import build_formula_automaton, live_nodes, prune_unreachable

from conftest import loop_system, random_formula
from reference_pipeline import (
    eager_check,
    eager_compose,
    powerset_consistent_sets,
    two_pass_live_nodes,
)

ROOT = Path(__file__).resolve().parents[1]
MODELS = {
    "thermostat": ROOT / "src/hyltlmc/models/thermostat.hyha",
    "thermostat_relaxed": ROOT / "perfbench/models/thermostat_relaxed.hyha",
    "rooms": ROOT / "perfbench/models/rooms.hyha",
    "tanks": ROOT / "perfbench/models/tanks.hyha",
}
THREE_CONJUNCTS = "!F(x >= 21 & X on) & G(x<=23) & G(off -> X(x <= 21 U on))"
# Every (model, formula) of the benchmark's cases, plus G(x<=23).
BENCH_FORMULAS = [
    ("thermostat", THREE_CONJUNCTS),
    ("thermostat", "G F(x>=21) -> G F on"),
    ("thermostat", "!F(x >= 21 & X on)"),
    ("thermostat", "G(on -> X(!on U off))"),
    ("thermostat", "G(x<=23)"),
    ("thermostat_relaxed", "!F(x >= 21 & X on)"),
    ("rooms", "G(x >= 15 & x <= 25 & y >= 15 & y <= 25)"),
    ("rooms", "!F(x >= 21 & X on1)"),
    ("tanks", "!F(a >= 5 & X fill)"),
]


@pytest.fixture(scope="module")
def models():
    return {name: load_model(path) for name, path in MODELS.items()}


def formula_of(h, text: str):
    return parse_formula(text, Declarations(variables=h.variables, actions=h.actions))


def negated(h, text: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return to_nnf(Not(formula_of(h, text)))


def observer(h, text: str, prune: bool = True):
    """The negation's tableau, pruned against the loop over h's actions
    unless prune is false."""
    loop = loop_system(h.actions) if prune else None
    return build_formula_automaton(negated(h, text), h.actions, system=loop)


def assert_same(a: HybridAutomaton, b: HybridAutomaton) -> None:
    """Structurally equal, including the order of every part."""
    assert a == b
    assert list(a.init_region) == list(b.init_region)


def reachable_part(h: HybridAutomaton) -> HybridAutomaton:
    """h restricted to the locations a path from an initial one reaches."""
    succ: dict = {}
    for t in h.transitions:
        succ.setdefault(t.source, []).append(t.target)
    seen = set(h.init)
    stack = list(seen)
    while stack:
        for w in succ.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return HybridAutomaton(
        h.variables,
        h.actions,
        tuple(l for l in h.locations if l in seen),
        tuple(t for t in h.transitions if t.source in seen),
        {l: cs for l, cs in h.dyn.items() if l in seen},
        h.init,
        {l: r for l, r in h.init_region.items() if l in seen},
        tuple(F & seen for F in h.acceptance),
    )


# -- consistent sets ------------------------------------------------------

ACTIONS = ("on", "off")
ATOMS = (
    Top(),
    Bot(),
    ActionAtom("on"),
    ActionAtom("off"),
    FlowAtom(FlowConstraint(Var("x"), Relation.GE, Const(21.0))),
    FlowAtom(FlowConstraint(Var("x"), Relation.LE, Const(19.0))),
)
formulas = st.recursive(
    st.sampled_from(ATOMS),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Next, sub),
        *(st.builds(op, sub, sub) for op in (And, Or, Until, Release)),
    ),
    max_leaves=10,
)
# Formulas whose negation holds x >= 21 and x <= 19 as flow atoms, so some
# of its consistent sets hold both and no state can enter them.
_wrap = st.sampled_from(
    [lambda g: g, Next, lambda g: Until(Top(), g), lambda g: Release(Bot(), g)]
)
_binary = st.sampled_from([And, Or, Until, Release])
contradictory = st.builds(
    lambda f, op1, op2, w1, w2: op1(op2(f, w1(Not(ATOMS[4]))), w2(Not(ATOMS[5]))),
    formulas,
    _binary,
    _binary,
    _wrap,
    _wrap,
)


class TestConsistentSets:
    @pytest.mark.parametrize("model, text", BENCH_FORMULAS)
    def test_benchmark_formulas_match_the_powerset_filter(self, models, model, text):
        h = models[model]
        for f in (negated(h, text), formula_of(h, text)):
            cl = closure(f, h.actions)
            got = maximally_consistent_sets(cl)
            assert [m.bits for m in got] == [m.bits for m in powerset_consistent_sets(cl)]

    def test_three_conjuncts_have_sixteen_pairs(self, models):
        cl = closure(negated(models["thermostat"], THREE_CONJUNCTS), ACTIONS)
        assert cl.n_pairs == 16
        assert len(maximally_consistent_sets(cl)) == 1536

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 26),
        st.sampled_from([ACTIONS, ("on",), ("on", "off", "idle")]),
    )
    def test_drawn_formulas_match_the_powerset_filter(self, seed, size, actions):
        # random_formula spreads closures up to about 19 pairs; action
        # atoms outside the alphabet still join the closure.
        cl = closure(random_formula(random.Random(seed), ATOMS, size), actions)
        assume(cl.n_pairs <= 16)
        got = maximally_consistent_sets(cl)
        assert [m.bits for m in got] == [m.bits for m in powerset_consistent_sets(cl)]


# -- live observer ----------------------------------------------------------


class TestLiveObserver:
    @pytest.mark.parametrize("model, text", BENCH_FORMULAS)
    def test_pruned_observer_equals_the_pruned_full_one(self, models, model, text):
        h = models[model]
        full = build_formula_automaton(negated(h, text), h.actions)
        assert_same(observer(h, text), prune_unreachable(full))

    @settings(max_examples=100, deadline=None)
    @given(formulas)
    def test_drawn_formulas_prune_alike(self, f):
        assume(closure(f, ACTIONS).n_pairs <= 12)
        full = build_formula_automaton(f, ACTIONS)
        pruned = build_formula_automaton(f, ACTIONS, system=loop_system(ACTIONS))
        assert_same(pruned, prune_unreachable(full))

    def test_rooms_safety_keeps_only_enterable_locations(self, models):
        # The negated envelope can hold x < 15 and x > 25 at once; such
        # observer and product locations are not built.
        h = models["rooms"]
        text = "G(x >= 15 & x <= 25 & y >= 15 & y <= 25)"
        assert len(observer(h, text).locations) == 49
        verdict = check(h, formula_of(h, text))
        assert verdict.verified
        assert verdict.stats["product_locations"] == 44
        assert verdict.stats["product_transitions"] == 644

    @settings(max_examples=20, deadline=None)
    @given(contradictory)
    def test_contradictory_atoms_lose_no_verdict(self, f):
        assume(closure(f, ACTIONS).n_pairs <= 10)
        h = load_model(MODELS["thermostat"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            negation = to_nnf(Not(f))
            ref = eager_check(h, f)
            verdict = check(h, f)
        full = build_formula_automaton(negation, ACTIONS)
        loop = loop_system(ACTIONS)
        assert_same(
            build_formula_automaton(negation, ACTIONS, system=loop),
            prune_unreachable(full),
        )
        assert verdict.verified or ref.status != "Verified"

    def test_three_conjunct_observer_keeps_362_locations(self, models):
        assert len(observer(models["thermostat"], THREE_CONJUNCTS).locations) == 362


class TestLiveNodes:
    def test_forward_and_backward_rule(self):
        # 0 -> 1 <-> 2 holds the accepting cycle; 4 is a dead end, 3 and 5
        # are not reachable from 0, and 3 has an accepting self loop.
        succ = [[1], [2, 4], [1], [3, 1], [], [0]]
        assert live_nodes(6, succ, [0], [[2]]) == {0, 1, 2}
        assert live_nodes(6, succ, [0], [[2], [4]]) == set()
        assert live_nodes(6, succ, [3], []) == {1, 2, 3}
        assert live_nodes(6, succ, [4], []) == set()

    def test_a_self_loop_is_a_cycle(self):
        assert live_nodes(2, [[1], [1]], [0], [[1]]) == {0, 1}
        assert live_nodes(2, [[1], []], [0], [[1]]) == set()

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_one_pass_equals_the_two_pass_search(self, data):
        n = data.draw(st.integers(1, 60), label="n")
        node = st.integers(0, n - 1)
        # Sparse lists with self-loops and repeated targets; the initial
        # list may repeat nodes and miss most of the graph, and the
        # acceptance sets may hold nodes it never reaches.
        succ = data.draw(st.lists(st.lists(node, max_size=4), min_size=n, max_size=n), label="succ")
        init = data.draw(st.lists(node, max_size=6), label="init")
        acceptance = data.draw(
            st.lists(st.lists(node, max_size=8), max_size=3), label="acceptance"
        )
        assert live_nodes(n, succ, init, acceptance) == two_pass_live_nodes(
            n, succ, init, acceptance
        )

    def test_a_long_chain_does_not_recurse(self):
        n = 200_000
        succ = [[v + 1] for v in range(n - 1)] + [[n - 1]]
        assert live_nodes(n, succ, [0], [[n - 1]]) == set(range(n))
        assert live_nodes(n, succ, [0], [[0]]) == set()


# -- forward compose -----------------------------------------------------


def _hand_pair() -> tuple[HybridAutomaton, HybridAutomaton]:
    """Two automata whose product has unreachable pairs.

    a's location c is unreachable; go is shared, tick belongs to a alone
    and stop to b alone, so both stutter moves appear.
    """
    x, y = Var("x"), Var("y")
    flow = lambda v, k: FlowConstraint(DotVar(v), Relation.EQ, Const(k))  # noqa: E731
    a = HybridAutomaton(
        ("x", "z"),
        ("go", "tick"),
        ("p", "q", "c"),
        [
            Transition("p", "go", "q", (JumpConstraint(x, Relation.GE, Const(1.0)),)),
            Transition("q", "tick", "q", (JumpConstraint(PrimedVar("x"), Relation.EQ, Const(0.0)),)),
            Transition("q", "go", "p"),
            Transition("c", "go", "p"),
        ],
        {"p": (flow("x", 1.0), flow("z", 0.0)), "q": (flow("x", -1.0), flow("z", 0.0)),
         "c": (flow("x", 0.0), flow("z", 0.0))},
        ("p",),
        {"p": (FlowConstraint(x, Relation.EQ, Const(0.0)),)},
        ({"q"},),
    )
    b = HybridAutomaton(
        ("x", "y"),
        ("go", "stop"),
        ("s", "t", "u"),
        [
            Transition("s", "go", "t", (JumpConstraint(x, Relation.GE, Const(1.0)),)),
            Transition("t", "stop", "u", (JumpConstraint(PrimedVar("y"), Relation.EQ, y),)),
            Transition("u", "go", "u"),
        ],
        {"s": (flow("y", 1.0), flow("x", 1.0)), "t": (flow("y", 0.0),), "u": (flow("y", 2.0),)},
        ("s",),
        {"s": (FlowConstraint(y, Relation.GE, Const(0.0)),)},
        ({"t"}, {"u"}),
    )
    return a, b


class TestForwardCompose:
    def test_hand_pair_drops_the_unreachable_pairs(self):
        a, b = _hand_pair()
        full = eager_compose(a, b)
        got = compose(a, b)
        assert len(got.locations) < len(full.locations)
        assert ("c", "s") not in got.locations
        assert_same(got, reachable_part(full))

    def test_hand_pair_both_ways_round(self):
        a, b = _hand_pair()
        assert_same(compose(b, a), reachable_part(eager_compose(b, a)))

    @pytest.mark.parametrize(
        "model, text",
        [("thermostat", THREE_CONJUNCTS), ("thermostat", "!F(x >= 21 & X on)"),
         ("rooms", "G(x >= 15 & x <= 25 & y >= 15 & y <= 25)"),
         ("rooms", "!F(x >= 21 & X on1)")],
    )
    @pytest.mark.parametrize("prune", [True, False])
    def test_products_equal_the_reachable_cross_product(self, models, model, text, prune):
        h = models[model]
        obs = observer(h, text, prune)
        full = eager_compose(h, obs)
        got = compose(h, obs)
        assert_same(got, reachable_part(full))
        if prune:
            assert_same(prune_unreachable(got), prune_unreachable(full))

    def test_three_conjunct_product_sizes(self, models):
        h = models["thermostat"]
        obs = observer(h, THREE_CONJUNCTS)
        got = compose(h, obs)
        assert len(eager_compose(h, obs).locations) == 724
        assert len(got.locations) == 362
        assert len(prune_unreachable(got).locations) == 82
