"""Only jointly satisfiable pairs are built, and each product once.

Given a system, the tableau's pair search drops a pair (system location,
set) whose joint dynamics the engine's clip proves empty, as
`prune_unreachable` drops such a product location. The observer it
builds then holds exactly the sets that the pruned product pairs with a
system location. `prune_unreachable` hands back its argument when every
location is live, and `instrument` builds the counter product straight
into its query automaton, which must equal instrumenting
`degeneralize`'s automaton.
"""

from __future__ import annotations

import warnings
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyltlmc.formula.closure import closure
from hyltlmc.formula.nnf import to_nnf
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.formula.syntax import ActionAtom, And, Not, Top, Until
from hyltlmc.hybrid.automaton import HybridAutomaton, compose
from hyltlmc.product import check, degeneralize, instrument
from hyltlmc.reach import boxes
from hyltlmc.tableau import build_formula_automaton, live_locations, prune_unreachable

from conftest import loop_system
from test_bitset_tableau import ATOMS, BENCH_FORMULAS, MODELS, assert_same, formulas

# The relaxed thermostat shares the thermostat's names.
DRAWN_ATOMS = dict(ATOMS, thermostat_relaxed=ATOMS["thermostat"])
drawn = st.sampled_from(sorted(DRAWN_ATOMS)).flatmap(
    lambda m: st.tuples(st.just(m), formulas(DRAWN_ATOMS[m]))
)


def negated(f):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return to_nnf(Not(f))


def parsed(h: HybridAutomaton, text: str):
    return parse_formula(text, Declarations(variables=h.variables, actions=h.actions))


def assert_observer_is_the_products_half(h: HybridAutomaton, f) -> None:
    observer = build_formula_automaton(f, h.actions, system=h)
    product = prune_unreachable(compose(h, observer))
    assert set(observer.locations) == {q for _, q in product.locations}


def assert_one_query_automaton(h: HybridAutomaton) -> None:
    got, want = instrument(h), instrument(degeneralize(h))
    assert_same(got[0], want[0])
    assert got[1:] == want[1:]


class TestJointPairs:
    @pytest.mark.parametrize("model, text", BENCH_FORMULAS)
    def test_benchmark_observer_is_the_pruned_products_half(self, model, text):
        h = MODELS[model]
        assert_observer_is_the_products_half(h, negated(parsed(h, text)))

    @settings(max_examples=60, deadline=None)
    @given(drawn)
    def test_drawn_observer_is_the_pruned_products_half(self, model_formula):
        model, f = model_formula
        h = MODELS[model]
        assume(closure(f, h.actions).n_pairs <= 12)
        assert_observer_is_the_products_half(h, f)

    def test_rooms_safety_pairs_only_enterable_sets(self):
        # Each room's invariant keeps its temperature in [17, 23], so no
        # pair of a room location with x < 15, x > 25, y < 15 or y > 25
        # is built, though each atom alone is satisfiable.
        h = MODELS["rooms"]
        f = negated(parsed(h, "G(x >= 15 & x <= 25 & y >= 15 & y <= 25)"))
        observer = build_formula_automaton(f, h.actions, system=h)
        assert (len(observer.locations), len(observer.transitions)) == (32, 780)
        product = compose(h, observer)
        assert (len(product.locations), len(product.transitions)) == (60, 726)
        pruned = prune_unreachable(product)
        assert (len(pruned.locations), len(pruned.transitions)) == (44, 358)

    def test_one_location_loop_keeps_the_tableau_rule(self):
        # The loop has no dynamics, so a pair's joint dynamics are the
        # set's own flow atoms: the rule is the tableau-alone one.
        h = MODELS["rooms"]
        f = negated(parsed(h, "G(x >= 15 & x <= 25 & y >= 15 & y <= 25)"))
        assert_same(
            build_formula_automaton(f, h.actions, system=loop_system(h.actions)),
            prune_unreachable(build_formula_automaton(f, h.actions)),
        )

    @pytest.mark.parametrize("model, text", BENCH_FORMULAS)
    def test_pruning_reads_the_tableaus_answers(self, model, text):
        # The tableau judges the pairs it meets on the set of constraints
        # compose gives them. On these products compose reaches no pair
        # that the search did not meet, so pruning judges none anew.
        h = MODELS[model]
        f = negated(parsed(h, text))
        judge = boxes._satisfiable
        judge.cache_clear()
        observer = build_formula_automaton(f, h.actions, system=h)
        product = compose(h, observer)
        before = judge.cache_info().misses
        shared = prune_unreachable(product)
        assert judge.cache_info().misses == before
        judge.cache_clear()
        assert_same(shared, prune_unreachable(product))
        distinct = {frozenset(product.dyn[l]) for l in product.locations}
        assert judge.cache_info().misses == len(distinct)


class TestPruneKeepsALiveAutomaton:
    @pytest.mark.parametrize("model, text", BENCH_FORMULAS)
    def test_benchmark_products(self, model, text):
        h = MODELS[model]
        f = negated(parsed(h, text))
        product = compose(h, build_formula_automaton(f, h.actions, system=h))
        pruned = prune_unreachable(product)
        dropped = len(pruned.locations) < len(product.locations)
        assert (pruned is product) != dropped
        assert prune_unreachable(pruned) is pruned

    def test_six_of_the_eight_benchmark_products_are_live(self):
        live = []
        for model, text in BENCH_FORMULAS:
            if text == "G(x<=23)":  # not a benchmark case
                continue
            h = MODELS[model]
            f = negated(parsed(h, text))
            product = compose(h, build_formula_automaton(f, h.actions, system=h))
            live.append(prune_unreachable(product) is product)
        assert len(live) == 8 and sum(live) == 6

    @settings(max_examples=60, deadline=None)
    @given(drawn)
    def test_drawn_observers_and_products(self, model_formula):
        model, f = model_formula
        h = MODELS[model]
        assume(closure(f, h.actions).n_pairs <= 12)
        for g in (
            build_formula_automaton(f, h.actions),
            compose(h, build_formula_automaton(f, h.actions, system=h)),
        ):
            pruned = prune_unreachable(g)
            assert (pruned is g) == (live_locations(g) == set(g.locations))
            assert prune_unreachable(pruned) is pruned


class TestOneQueryAutomaton:
    @pytest.mark.parametrize("model, text", BENCH_FORMULAS)
    def test_benchmark_products(self, model, text):
        h = MODELS[model]
        f = negated(parsed(h, text))
        observer = build_formula_automaton(f, h.actions, system=h)
        assert_one_query_automaton(prune_unreachable(compose(h, observer)))

    @settings(max_examples=60, deadline=None)
    @given(drawn)
    def test_drawn_generalized_families(self, model_formula):
        model, f = model_formula
        actions = MODELS[model].actions
        # Two more untils make the family at least two sets long.
        f = And(f, And(*(Until(Top(), ActionAtom(a)) for a in actions[:2])))
        assume(closure(f, actions).n_pairs <= 12)
        h = MODELS[model]
        observer = build_formula_automaton(f, actions)
        assert len(observer.acceptance) >= 2
        # Neither the bare tableau nor its product with the system need be live.
        assert_one_query_automaton(observer)
        assert_one_query_automaton(compose(h, observer))
        assert_one_query_automaton(prune_unreachable(compose(h, observer)))

    def test_three_conjuncts_build_one_automaton(self):
        h = MODELS["thermostat"]
        f = negated(parsed(h, BENCH_FORMULAS[0][1]))
        observer = build_formula_automaton(f, h.actions, system=h)
        product = prune_unreachable(compose(h, observer))
        assert len(product.acceptance) >= 2
        real = HybridAutomaton._validate
        with mock.patch.object(
            HybridAutomaton, "_validate", autospec=True, side_effect=real
        ) as validate:
            inst = instrument(product)[0]
        assert validate.call_count == 1
        assert len(inst.locations) == len(degeneralize(product).locations) == 194
