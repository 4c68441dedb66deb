"""check() builds one observer per top-level conjunct, joined as a
disjoint union.

The negation of A & B is ¬A ∨ ¬B, and the union of the two observers
accepts exactly the runs one of them accepts, so the union decides what
the observer of the whole negation decides. The split parts are the
top-level disjuncts of the negation's NNF (`reference_pipeline.
split_negation`); each one's observer is built against the system, and
the union (`reference_pipeline.union_observer`) pads the shorter
acceptance families with their part's full location set, to at least
two sets. A split check must prove what the whole formula's check
(`reference_pipeline.eager_check`) proves, and its hits name their
conjunct.
"""

from __future__ import annotations

import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

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
    to_str,
)
from hyltlmc.hybrid import FlowConstraint, Relation
from hyltlmc.hybrid.automaton import HybridAutomaton, compose
from hyltlmc.hybrid.expr import Const, Var
from hyltlmc.hybrid.modelio import load_model
from hyltlmc.product import _conjuncts, _union, check, instrument, recurrence_hits
from hyltlmc.reach.engine import reachable
from hyltlmc.tableau import build_formula_automaton, prune_unreachable

from reference_pipeline import eager_check, split_negation, unpaired_product

ROOT = Path(__file__).resolve().parents[1]
MODEL_FILES = {
    "thermostat": ROOT / "src/hyltlmc/models/thermostat.hyha",
    "thermostat_relaxed": ROOT / "perfbench/models/thermostat_relaxed.hyha",
    "rooms": ROOT / "perfbench/models/rooms.hyha",
    "tanks": ROOT / "perfbench/models/tanks.hyha",
}
MODELS = {name: load_model(path) for name, path in MODEL_FILES.items()}
THREE_CONJUNCTS = "!F(x >= 21 & X on) & G(x<=23) & G(off -> X(x <= 21 U on))"
NO_ON_WHEN_WARM = "!F(x >= 21 & X on)"


def formula_of(model: str, text: str):
    h = MODELS[model]
    return parse_formula(text, Declarations(variables=h.variables, actions=h.actions))


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def checked(model: str, text: str):
    return quiet(check, MODELS[model], formula_of(model, text))


# Per model: a variable and its guard threshold, and two bounds that
# every run keeps, so that conjunctions the whole check proves are drawn
# too. The atoms add the model's first two actions.
ATOMS = {
    "thermostat": ("x", 21.0, "x <= 23", "x >= 17"),
    "thermostat_relaxed": ("x", 21.0, "x <= 23", "x >= 17"),
    "rooms": ("y", 21.0, "x <= 23", "y >= 17"),
    "tanks": ("a", 5.0, "a <= 6", "a >= 1"),
}


def _atoms(model: str):
    h = MODELS[model]
    x, guard, *bounds = ATOMS[model]
    return (
        *(ActionAtom(a) for a in h.actions[:2]),
        FlowAtom(FlowConstraint(Var(x), Relation.GE, Const(guard))),
        *(formula_of(model, b) for b in bounds),
    )


def _always(f):
    return Release(Bot(), f)


def _eventually(f):
    return Until(Top(), f)


def formulas(model: str, max_leaves: int):
    return st.recursive(
        st.sampled_from(_atoms(model)),
        lambda sub: st.one_of(
            *(st.builds(op, sub) for op in (Not, Next, _always, _eventually)),
            *(st.builds(op, sub, sub) for op in (And, Or, Until, Release)),
        ),
        max_leaves=max_leaves,
    )


# A conjunct is a small formula under one of these, so that conjunctions
# of invariants and recurrences, which the whole check proves, are drawn.
WRAPS = (
    lambda f: f,
    _always,
    _eventually,
    lambda f: _always(_eventually(f)),
    lambda f: _eventually(_always(f)),
    lambda f: _always(Not(f)),
)


def conjuncts(model: str):
    return st.builds(lambda wrap, f: wrap(f), st.sampled_from(WRAPS), formulas(model, 2))


class TestSplit:
    @pytest.mark.parametrize(
        "text, parts",
        [
            ("G(x <= 23) & (!F(x >= 21 & X on) & G F on)", 3),
            ("!(F(x >= 21 & X on) | F G off)", 2),
            ("G(x <= 23 & x >= 17)", 1),
            ("G(x <= 23) -> G F on", 1),
            ("G F(x>=21) -> G F on", 1),
        ],
    )
    def test_top_level_conjuncts_only(self, text, parts):
        f = formula_of("thermostat", text)
        conjuncts = _conjuncts(f)
        assert len(conjuncts) == parts
        assert [quiet(to_nnf, Not(c)) for c in conjuncts] == quiet(split_negation, f)
        stats = quiet(check, MODELS["thermostat"], f).stats
        assert stats.get("observer_parts", 1) == parts
        assert ("observer_parts" in stats) == (parts > 1)

    @settings(max_examples=50, deadline=None)
    @given(formulas("thermostat", max_leaves=8))
    def test_conjuncts_negate_to_the_nnf_disjuncts(self, f):
        assert [quiet(to_nnf, Not(c)) for c in _conjuncts(f)] == quiet(split_negation, f)

    @pytest.mark.parametrize(
        "model, text",
        [
            ("thermostat_relaxed", NO_ON_WHEN_WARM),
            ("thermostat", "G(x <= 23 & x >= 17)"),
            ("rooms", "G(x >= 15 & x <= 25 & y >= 15 & y <= 25)"),
            ("tanks", "G F fill -> G(a <= 9)"),
        ],
    )
    def test_one_part_keeps_the_whole_product(self, model, text):
        verdict = checked(model, text)
        ref = quiet(unpaired_product, MODELS[model], formula_of(model, text))
        assert verdict.product == ref
        assert "observer_parts" not in verdict.stats
        assert all("conjunct" not in hit for hit in verdict.hits)


class TestUnion:
    # The negation of X off has no until, so no acceptance set; that of
    # G F on has one, and that of F G on | F G off two. In each pairing the
    # part with the shorter family accepts runs, which padding its family
    # with nothing would drop.
    @pytest.mark.parametrize(
        "model, text",
        [
            ("rooms", "X on1 & G F on1"),
            ("thermostat", "X off & G F on"),
            ("thermostat", "(F G on | F G off) & X off"),
            ("tanks", "(F G fill | F G stop) & X stop"),
        ],
    )
    def test_padding_keeps_the_whole_check_status(self, model, text):
        h, f = MODELS[model], formula_of(model, text)
        verdict = quiet(check, h, f)
        assert verdict.stats["observer_parts"] == 2
        assert verdict.status == quiet(eager_check, h, f).status == "Inconclusive"
        assert verdict.product == quiet(unpaired_product, h, f)

    def test_shorter_family_padded_with_its_part(self):
        h = MODELS["thermostat"]
        parts = [
            quiet(build_formula_automaton, p, h.actions, system=h)
            for p in quiet(split_negation, formula_of("thermostat", "X off & G F on"))
        ]
        assert [len(p.acceptance) for p in parts] == [0, 1]
        union, part_of = _union(parts)
        every = {f"c0_{l}" for l in parts[0].locations}
        # Padded to two sets, the longest family's one set and one more.
        assert every and union.acceptance == (
            frozenset(every | {f"c1_{l}" for l in parts[1].acceptance[0]}),
            frozenset(every | {f"c1_{l}" for l in parts[1].locations}),
        )
        assert union.init == tuple(
            f"c{i}_{l}" for i, p in enumerate(parts) for l in p.init
        )
        assert part_of == {
            f"c{i}_{l}": i for i, p in enumerate(parts) for l in p.locations
        }

    def test_two_sets_need_no_more(self):
        h = MODELS["thermostat"]
        parts = [
            quiet(build_formula_automaton, p, h.actions, system=h)
            for p in quiet(
                split_negation, formula_of("thermostat", "(F G on | F G off) & X off")
            )
        ]
        assert [len(p.acceptance) for p in parts] == [2, 0]
        union, _ = _union(parts)
        every = {f"c1_{l}" for l in parts[1].locations}
        assert union.acceptance == tuple(
            frozenset({f"c0_{l}" for l in F} | every) for F in parts[0].acceptance
        )

    def test_one_part_is_returned_as_it_is(self):
        h = MODELS["thermostat"]
        observer = quiet(
            build_formula_automaton,
            quiet(to_nnf, Not(formula_of("thermostat", NO_ON_WHEN_WARM))),
            h.actions,
            system=h,
        )
        union, part_of = _union([observer])
        assert union is observer and part_of == {}

    def test_observer_counts_sum_over_the_parts(self):
        h = MODELS["thermostat"]
        f = formula_of("thermostat", THREE_CONJUNCTS)
        counts: Counter = Counter()
        sizes = []
        for p in quiet(split_negation, f):
            part: dict = {}
            observer = quiet(build_formula_automaton, p, h.actions, h, part)
            counts.update(part)
            sizes.append(len(observer.locations))
        stats = quiet(check, h, f).stats
        assert sizes == [9, 8, 0]
        assert stats["observer_parts"] == 3
        assert stats["observer_locations"] == sum(sizes)
        assert (stats["observer_sets"], stats["observer_classes"]) == (
            counts["observer_sets"],
            counts["observer_classes"],
        )


def one_set_hits(h, f):
    """The recurrence hits of check()'s pipeline on the union of f's
    parts with its family cut to the first set, as padding only to the
    longest family would leave it when every part has one set."""
    parts = [
        build_formula_automaton(p, h.actions, system=h) for p in split_negation(f)
    ]
    assert [len(p.acceptance) for p in parts] == [1] * len(parts)
    union, _ = _union(parts)
    one_set = HybridAutomaton(
        union.variables, union.actions, union.locations, union.transitions,
        union.dyn, union.init, union.init_region, union.acceptance[:1],
    )
    inst, targets, f_name, y_names, w_names = instrument(
        prune_unreachable(compose(h, one_set))
    )
    reach = reachable(inst, horizon=100.0, step=0.01)
    return recurrence_hits(reach, targets, f_name, y_names, w_names, 1e-6)


class TestTwoSetFamily:
    def test_two_sets_prove_what_one_set_cannot(self):
        # Found by the precision oracle below. With one set, a final
        # location at resting with a > 6 is entered by both the plain and
        # the latching stop edge out of a final location at pumping, and
        # widening joins their boxes into one that meets its own code.
        h, f = MODELS["tanks"], formula_of("tanks", "G(a <= 6) & G X(a <= 6)")
        assert len(quiet(one_set_hits, h, f)) == 2
        verdict = quiet(check, h, f)
        assert verdict.verified and verdict.stats["observer_parts"] == 2
        assert quiet(eager_check, h, f).status == "Verified"
        assert quiet(eager_check, h, f, split=True).status == "Verified"

    @pytest.mark.parametrize(
        "model, text",
        [
            ("thermostat", THREE_CONJUNCTS),
            ("rooms", "G F on1 & G F on2"),
        ],
    )
    def test_one_run_of_the_pipeline(self, model, text):
        verdict = checked(model, text)
        assert set(verdict.stats["timings"]) == {
            "observer", "compose+prune", "instrument", "reach", "query"
        }
        assert len(verdict.product.acceptance) == 1
        # Every product location is a counter location.
        assert all(isinstance(l[1], int) for l in verdict.product.locations)


class TestHitsNameTheirConjunct:
    def test_hits_lie_in_the_violated_conjunct(self):
        conjunct = to_str(formula_of("thermostat_relaxed", NO_ON_WHEN_WARM))
        alone = checked("thermostat_relaxed", NO_ON_WHEN_WARM)
        split = checked("thermostat_relaxed", "G F on & " + NO_ON_WHEN_WARM)
        assert split.status == alone.status == "Inconclusive"
        assert len(split.hits) == 2 and len(alone.hits) == 4
        assert [hit["conjunct"] for hit in split.hits] == [conjunct] * 2
        # Hits of the conjunct alone, in its part c1 at counter index 0.
        for hit in split.hits:
            (l, q), index = hit.pop("location")
            assert index == 0 and q.startswith("c1_")
            assert {**hit, "location": (l, q.removeprefix("c1_"))} in [
                a | {"conjunct": conjunct} for a in alone.hits
            ]
        assert alone.reason == "recurrence query reachable at 4 final location box(es)"
        assert split.reason == (
            f"recurrence query reachable at 2 final location box(es) of conjunct(s) '{conjunct}'"
        )


# -- precision: the split proves what the whole proves ---------------------


pairs = st.sampled_from(sorted(MODELS)).flatmap(
    lambda m: st.tuples(st.just(m), conjuncts(m), conjuncts(m))
)


class TestPrecisionOracle:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(pairs)
    def test_split_verifies_what_the_whole_verifies(self, drawn):
        model, f1, f2 = drawn
        h, f = MODELS[model], And(f1, f2)
        assume(closure(f, h.actions).n_pairs <= 9)
        if quiet(check, h, f).status != "Verified":
            assert quiet(eager_check, h, f).status != "Verified"
