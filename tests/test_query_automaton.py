"""One call builds the query automaton.

`instrument` takes the pruned product with any acceptance family: it
degeneralizes it and reads an empty family as every location final. It
must build the automaton that the frozen three-call construction builds
(`reference_pipeline.normalize_acceptance` and `frozen_instrument` after
`degeneralize`), location for location and edge for edge, with the same
query targets and auxiliary names, and check() must query that automaton.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import assume, given, settings

from hyltlmc.formula.closure import closure
from hyltlmc.formula.nnf import to_nnf
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.formula.syntax import ActionAtom, Not
from hyltlmc.hybrid.automaton import HybridAutomaton, compose
from hyltlmc.product import check, degeneralize, instrument
from hyltlmc.tableau import build_formula_automaton, prune_unreachable

from reference_pipeline import frozen_instrument, normalize_acceptance
from test_bitset_tableau import MODELS, assert_same, formulas, systems
from test_live_product import BENCH_FORMULAS


def assert_same_query(system: HybridAutomaton, formula) -> None:
    """instrument and check() build the frozen three-call query automaton."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        negation = to_nnf(Not(formula))
        observer = build_formula_automaton(negation, system.actions, system=system)
        product = prune_unreachable(compose(system, observer))
        want = frozen_instrument(normalize_acceptance(degeneralize(product)))
        got = instrument(product)
        verdict = check(system, formula)
    assert_same(got[0], want[0])
    assert got[1:] == want[1:]
    assert_same(verdict.product, want[0])
    _, targets, f, y, w = want
    assert verdict.stats["aux"] == {"f": f, "y": y, "witness": w}
    assert verdict.stats["query_targets"] == len(targets)


class TestFrozenQuery:
    @pytest.mark.parametrize("model, text", BENCH_FORMULAS)
    def test_benchmark_formulas_build_the_frozen_query(self, model, text):
        h = MODELS[model]
        decls = Declarations(variables=h.variables, actions=h.actions)
        assert_same_query(h, parse_formula(text, decls))

    # The drawn systems have no variables, so their formulas have no flow
    # atoms, which would need one.
    @settings(max_examples=60, deadline=None)
    @given(formulas((ActionAtom("on"), ActionAtom("off"))), systems())
    def test_random_systems_with_acceptance_build_the_frozen_query(self, f, system):
        assume(closure(f, system.actions).n_pairs <= 12)
        assert_same_query(system, f)
