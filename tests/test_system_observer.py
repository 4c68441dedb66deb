"""The observer is pruned against the system; the counter product is
built forward.

`check()` builds only the observer sets that lie in a live pair with a
system location, and only the counter locations reachable from an
initial one. Its product must equal the one built with an observer blind
to the system, composed, pruned, turned into the whole counter product
and pruned again (`reference_pipeline.unpaired_product`, which splits the
negation into one observer per top-level conjunct as check() does), and
the system-aware observer must be an induced sub-automaton of the blind
one.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyltlmc.errors import ModelError
from hyltlmc.formula.closure import closure
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
from hyltlmc.hybrid import FlowConstraint, Relation
from hyltlmc.hybrid.automaton import HybridAutomaton, compose
from hyltlmc.hybrid.expr import Const, Var
from hyltlmc.hybrid.modelio import load_model, parse_model
from hyltlmc.product import check, degeneralize
from hyltlmc.reach import engine
from hyltlmc.tableau import build_formula_automaton, prune_unreachable

from conftest import loop_system
from reference_pipeline import (
    full_degeneralize,
    per_set_formula_automaton,
    unpaired_product,
)

ROOT = Path(__file__).resolve().parents[1]
MODELS = {
    "thermostat": ROOT / "src/hyltlmc/models/thermostat.hyha",
    "rooms": ROOT / "perfbench/models/rooms.hyha",
    "tanks": ROOT / "perfbench/models/tanks.hyha",
}
THREE_CONJUNCTS = "!F(x >= 21 & X on) & G(x<=23) & G(off -> X(x <= 21 U on))"

# Two initial locations, two acceptance sets of its own, and an action,
# tick, that none of the formulas below mentions.
HAND = """
vars x;
actions on, off, tick;
location idle { der(x) = -0.2 * x; x >= 17; }
location heat { der(x) = 30 - 0.2 * x; x <= 23; }
location hold { der(x) = 0; x <= 30; }
edge idle -on-> heat { x <= 19; x' = x; }
edge heat -off-> idle { x >= 21; x' = x; }
edge heat -tick-> hold { x' = x; }
edge hold -tick-> heat { x' = x; }
edge hold -off-> idle { x' = x; }
initial idle, heat;
init idle { x >= 19; x <= 21; }
init heat { x >= 19; x <= 20; }
final { idle }
final { heat, hold }
"""
HAND_FORMULAS = [
    "!F(x >= 21 & X on)",
    "G(on -> X(!on U off))",
    THREE_CONJUNCTS,
    "G F(x>=21) -> G F on",
    "G(x <= 23)",
    "F G off",
    "X X on",
]
BENCH_FORMULAS = [
    ("thermostat", THREE_CONJUNCTS),
    ("thermostat", "G F(x>=21) -> G F on"),
    ("thermostat", "!F(x >= 21 & X on)"),
    ("thermostat", "G(on -> X(!on U off))"),
    ("rooms", "G(x >= 15 & x <= 25 & y >= 15 & y <= 25)"),
    ("rooms", "!F(x >= 21 & X on1)"),
    ("tanks", "!F(a >= 5 & X fill)"),
]


@pytest.fixture(scope="module")
def models():
    out = {name: load_model(path) for name, path in MODELS.items()}
    out["hand"] = parse_model(HAND)
    return out


def formula_of(h, text: str):
    return parse_formula(text, Declarations(variables=h.variables, actions=h.actions))


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def negation(f):
    return quiet(to_nnf, Not(f))


def assert_same(a: HybridAutomaton, b: HybridAutomaton) -> None:
    """Structurally equal, including the order of every part."""
    assert a == b
    assert list(a.init_region) == list(b.init_region)


def assert_induced(sub: HybridAutomaton, full: HybridAutomaton) -> None:
    """sub is full restricted to some of its locations, with every edge
    between them, everything in full's order."""
    kept = set(sub.locations)
    assert kept <= set(full.locations)
    assert_same(
        sub,
        HybridAutomaton(
            full.variables,
            full.actions,
            tuple(l for l in full.locations if l in kept),
            tuple(t for t in full.transitions if t.source in kept and t.target in kept),
            {l: full.dyn[l] for l in kept},
            tuple(l for l in full.init if l in kept),
            {l: r for l, r in full.init_region.items() if l in kept},
            tuple(F & kept for F in full.acceptance),
        ),
    )


def reachable_locations(h: HybridAutomaton) -> set:
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
    return seen


# -- the observer pruned against the system -------------------------------


class TestPairedObserver:
    @pytest.mark.parametrize("text", HAND_FORMULAS)
    def test_hand_system_product_equals_the_unpaired_one(self, models, text):
        h = models["hand"]
        f = formula_of(h, text)
        verdict = quiet(check, h, f)
        assert_same(verdict.product, quiet(unpaired_product, h, f))

    @pytest.mark.parametrize(
        "model, text", BENCH_FORMULAS + [("hand", t) for t in HAND_FORMULAS]
    )
    def test_observer_is_induced_by_the_blind_one(self, models, model, text):
        h = models[model]
        f = formula_of(h, text)
        paired = build_formula_automaton(negation(f), h.actions, system=h)
        blind = build_formula_automaton(
            negation(f), h.actions, system=loop_system(h.actions)
        )
        assert_induced(paired, blind)
        # Composing either one gives the same pruned product.
        assert_same(
            prune_unreachable(compose(h, paired)), prune_unreachable(compose(h, blind))
        )

    def test_the_system_prunes_what_the_formula_alone_keeps(self, models):
        h = models["hand"]
        f = formula_of(h, "G(on -> X(!on U off))")
        # After on, the hand system is in heat and only ticks between heat
        # and hold until off. An accepting run visits idle again and again,
        # so it takes off after every on: no pair violates the property
        # under the system's own acceptance, though the blind observer
        # has accepting runs.
        assert build_formula_automaton(negation(f), h.actions, system=h).locations == ()
        loop = loop_system(h.actions)
        assert build_formula_automaton(negation(f), h.actions, system=loop).locations

    def test_three_conjunct_sizes(self, models):
        h = models["thermostat"]
        f = formula_of(h, THREE_CONJUNCTS)
        verdict = quiet(check, h, f)
        # One observer per conjunct, of 9, 8 and 0 locations.
        assert verdict.stats["observer_parts"] == 3
        assert verdict.stats["observer_locations"] == 17
        assert verdict.stats["observer_transitions"] == 54
        assert verdict.stats["product_locations"] == 25
        whole = build_formula_automaton(negation(f), h.actions, system=h)
        assert (len(whole.locations), len(whole.transitions)) == (82, 896)
        blind = build_formula_automaton(
            negation(f), h.actions, system=loop_system(h.actions)
        )
        assert (len(blind.locations), len(blind.transitions)) == (362, 5716)

    def test_one_location_loop_prunes_the_tableau_alone(self, models):
        h = models["thermostat"]
        f = negation(formula_of(h, THREE_CONJUNCTS))
        assert_same(
            build_formula_automaton(f, h.actions, system=loop_system(h.actions)),
            prune_unreachable(build_formula_automaton(f, h.actions)),
        )

    def test_system_over_another_alphabet_is_refused(self, models):
        h = models["thermostat"]
        f = formula_of(h, "G(x <= 23)")
        with pytest.raises(ModelError, match="alphabet"):
            build_formula_automaton(negation(f), h.actions + ("tick",), system=h)

    def test_observer_prunes_exactly_when_given_a_system(self, models):
        h = models["hand"]
        f = negation(formula_of(h, "F G off"))
        paired = build_formula_automaton(f, h.actions, system=h)
        full = build_formula_automaton(f, h.actions)
        frozen = per_set_formula_automaton(f, h.actions, prune=True, system=h)
        assert_same(paired, frozen)
        assert_same(full, per_set_formula_automaton(f, h.actions))
        assert len(paired.locations) < len(full.locations)


def _atoms(variables: tuple[str, str], actions: tuple[str, ...]):
    x, y = variables
    return (
        Top(),
        Bot(),
        *(ActionAtom(a) for a in actions),
        FlowAtom(FlowConstraint(Var(x), Relation.GE, Const(21.0))),
        FlowAtom(FlowConstraint(Var(y), Relation.LE, Const(19.0))),
    )


ATOMS = {
    "thermostat": _atoms(("x", "x"), ("on", "off")),
    "rooms": _atoms(("x", "y"), ("on1", "off1", "on2")),
    "tanks": _atoms(("a", "b"), ("fill", "stop")),
}


def _formulas(model: str):
    return st.recursive(
        st.sampled_from(ATOMS[model]),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Next, sub),
            *(st.builds(op, sub, sub) for op in (And, Or, Until, Release)),
        ),
        max_leaves=6,
    )


drawn = st.sampled_from(sorted(ATOMS)).flatmap(
    lambda m: st.tuples(st.just(m), _formulas(m))
)


class TestDrawnFormulas:
    @settings(max_examples=60, deadline=None)
    @given(drawn)
    def test_check_product_equals_the_unpaired_one(self, models, model_formula):
        model, f = model_formula
        h = models[model]
        assume(closure(f, h.actions).n_pairs <= 10)
        # The product does not depend on the reach budget.
        with mock.patch.object(engine, "MAX_VISITS", 1):
            verdict = quiet(check, h, f)
        assert_same(verdict.product, quiet(unpaired_product, h, f))
        assert_induced(
            build_formula_automaton(negation(f), h.actions, system=h),
            build_formula_automaton(
                negation(f), h.actions, system=loop_system(h.actions)
            ),
        )


# -- the counter product built forward ------------------------------------


class TestForwardDegeneralize:
    @pytest.mark.parametrize(
        "model, text", BENCH_FORMULAS + [("hand", t) for t in HAND_FORMULAS]
    )
    def test_live_input_needs_no_second_prune(self, models, model, text):
        h = models[model]
        observer = build_formula_automaton(
            negation(formula_of(h, text)), h.actions, system=loop_system(h.actions)
        )
        product = prune_unreachable(compose(h, observer))
        assert_same(degeneralize(product), prune_unreachable(full_degeneralize(product)))

    @settings(max_examples=60, deadline=None)
    @given(drawn)
    def test_any_input_gives_the_reachable_counter_locations(self, model_formula):
        model, f = model_formula
        actions = tuple(a.action for a in ATOMS[model] if isinstance(a, ActionAtom))
        # Two more untils make the family at least two sets long.
        f = And(f, And(*(Until(Top(), ActionAtom(a)) for a in actions[:2])))
        assume(closure(f, actions).n_pairs <= 12)
        # The unpruned tableau is not live: some of its counter locations
        # are reachable and lie on no accepting cycle.
        h = build_formula_automaton(f, actions)
        assert len(h.acceptance) >= 2
        full = full_degeneralize(h)
        reached = reachable_locations(full)
        got = degeneralize(h)
        assert set(got.locations) == reached
        assert_induced(got, full)
        live = prune_unreachable(h)
        assert_same(degeneralize(live), prune_unreachable(full_degeneralize(live)))
