"""The tableau is built a column at a time and searched per class.

`build_formula_automaton` reads pins, targets and acceptance off one
bitset per closure ordinal and searches live pairs on (system location,
class) nodes. It must build the observer that the per-set construction
with its per-pair search builds (`reference_pipeline.
per_set_formula_automaton`), name for name and edge for edge, and
`maximally_consistent_sets` must return the tuple that sorting the sets
built one at a time gives (`reference_pipeline.sorted_consistent_sets`).
"""

from __future__ import annotations

import shlex
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyltlmc.cli import main
from hyltlmc.errors import ModelError
from hyltlmc.formula.closure import MAX_SETS, closure, maximally_consistent_sets
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
from hyltlmc.hybrid.automaton import HybridAutomaton, Transition
from hyltlmc.hybrid.expr import Const, Var
from hyltlmc.hybrid.modelio import load_model
from hyltlmc.product import check
from hyltlmc.tableau import build_formula_automaton

from conftest import loop_system
from reference_pipeline import per_set_formula_automaton, sorted_consistent_sets

ROOT = Path(__file__).resolve().parents[1]
THERMOSTAT = ROOT / "src/hyltlmc/models/thermostat.hyha"
MODELS = {
    "thermostat": load_model(THERMOSTAT),
    "rooms": load_model(ROOT / "perfbench/models/rooms.hyha"),
    "tanks": load_model(ROOT / "perfbench/models/tanks.hyha"),
}
MODELS["thermostat_relaxed"] = load_model(ROOT / "perfbench/models/thermostat_relaxed.hyha")
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


def assert_same(a: HybridAutomaton, b: HybridAutomaton) -> None:
    """Structurally equal, including the order of every part."""
    assert a == b
    assert list(a.init_region) == list(b.init_region)
    assert list(a.dyn) == list(b.dyn)


def negated(h: HybridAutomaton, text: str):
    decls = Declarations(variables=h.variables, actions=h.actions)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return to_nnf(Not(parse_formula(text, decls)))


def ge(v: str, k: float) -> FlowAtom:
    return FlowAtom(FlowConstraint(Var(v), Relation.GE, Const(k)))


def le(v: str, k: float) -> FlowAtom:
    return FlowAtom(FlowConstraint(Var(v), Relation.LE, Const(k)))


def formulas(atoms) -> st.SearchStrategy:
    return st.recursive(
        st.sampled_from((Top(), Bot()) + atoms),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Next, sub),
            *(st.builds(op, sub, sub) for op in (And, Or, Until, Release)),
        ),
        max_leaves=10,
    )


ATOMS = {
    "thermostat": (ActionAtom("on"), ActionAtom("off"), ge("x", 21), le("x", 19)),
    "rooms": (ActionAtom("on1"), ActionAtom("off2"), ge("x", 21), le("y", 19), le("x", 15)),
    "tanks": (ActionAtom("fill"), ActionAtom("stop"), ge("a", 5), le("b", 2)),
}


def matches_frozen(f, actions, system=None) -> None:
    """Unpruned, pruned alone and pruned against system, as frozen."""
    assert_same(
        build_formula_automaton(f, actions), per_set_formula_automaton(f, actions)
    )
    assert_same(
        build_formula_automaton(f, actions, system=loop_system(actions)),
        per_set_formula_automaton(f, actions, prune=True),
    )
    if system is not None:
        assert_same(
            build_formula_automaton(f, actions, system=system),
            per_set_formula_automaton(f, actions, prune=True, system=system),
        )


@st.composite
def systems(draw, actions=("on", "off")) -> HybridAutomaton:
    """A system of 1-4 locations over the actions with its own initial
    locations and acceptance sets, which lift per location."""
    locs = [f"l{k}" for k in range(draw(st.integers(1, 4)))]
    loc = st.sampled_from(locs)
    edges = draw(st.lists(st.tuples(loc, st.sampled_from(actions), loc), max_size=10))
    init = draw(st.lists(loc, min_size=1, max_size=2, unique=True))
    acceptance = draw(st.lists(st.sets(loc), max_size=3))
    return HybridAutomaton(
        (), actions, locs, [Transition(*e) for e in edges], {}, init,
        acceptance=acceptance,
    )


class TestConsistentSets:
    @pytest.mark.parametrize("model, text", BENCH_FORMULAS)
    def test_benchmark_formulas_keep_their_order(self, model, text):
        h = MODELS[model]
        cl = closure(negated(h, text), h.actions)
        assert maximally_consistent_sets(cl) == sorted_consistent_sets(cl)


class TestFrozenObserver:
    @pytest.mark.parametrize("model, text", BENCH_FORMULAS)
    def test_benchmark_formulas_build_the_frozen_observer(self, model, text):
        h = MODELS[model]
        matches_frozen(negated(h, text), h.actions, h)

    @pytest.mark.parametrize("text", [
        "X (x <= 19 U false)",
        "!(X (!(x <= 19 & on) U X false) U on)",
        "X (X (x >= 21 U false) R !X off)",
    ])
    def test_pin_profiles_alike_in_acceptance_split(self, text):
        # X(a U b) pins a U b in a set fulfilling it and in one leaving it
        # pending: one pin profile, but only the first meets the until's
        # acceptance set, so the classes split by acceptance too.
        h = MODELS["thermostat"]
        f = parse_formula(text, Declarations(variables=h.variables, actions=h.actions))
        matches_frozen(f, h.actions, h)

    @pytest.mark.parametrize("model", ["thermostat", "rooms", "tanks"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_formulas_build_the_frozen_observer(self, model, data):
        f = data.draw(formulas(ATOMS[model]), label="f")
        h = MODELS[model]
        assume(closure(f, h.actions).n_pairs <= 12)
        matches_frozen(f, h.actions, h)

    @settings(max_examples=80, deadline=None)
    @given(formulas(ATOMS["thermostat"]), systems())
    def test_random_systems_with_acceptance_build_the_frozen_observer(self, f, system):
        assume(closure(f, system.actions).n_pairs <= 12)
        assert_same(
            build_formula_automaton(f, system.actions, system=system),
            per_set_formula_automaton(f, system.actions, prune=True, system=system),
        )


class TestTableauBound:
    TEXT = "X " * 25 + "on"
    # 25 free next pairs and the choice of no action, on or off.
    SETS = 3 * 2**25

    def test_oversized_tableau_is_refused_before_it_is_built(self):
        assert self.SETS > MAX_SETS == 2**20
        f = parse_formula(self.TEXT, Declarations(variables=("x",), actions=("on", "off")))
        with pytest.raises(ModelError, match=str(self.SETS)):
            build_formula_automaton(f, ("on", "off"), system=loop_system(("on", "off")))
        with pytest.raises(ModelError, match=str(self.SETS)):
            maximally_consistent_sets(closure(f, ("on", "off")))

    @pytest.mark.parametrize("command", [
        ["check", "--model", str(THERMOSTAT), "--formula", TEXT],
        ["translate", "--formula", TEXT, "--alphabet", "on,off"],
    ])
    def test_cli_exits_one_with_e_model(self, capsys, command):
        assert main(command) == 1
        assert str(self.SETS) in capsys.readouterr().err
        assert main(["--machine"] + command) == 1
        fields = dict(part.split("=", 1) for part in shlex.split(capsys.readouterr().out))
        assert fields["error"] == "E_MODEL"


class TestObserverStats:
    def test_three_conjuncts_search_classes_not_pairs(self):
        h = MODELS["thermostat"]
        decls = Declarations(variables=h.variables, actions=h.actions)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = parse_formula(THREE_CONJUNCTS, decls)
            stats = check(h, f).stats
            counts: dict = {}
            whole = build_formula_automaton(to_nnf(Not(f)), h.actions, h, counts)
        assert len(whole.locations) == 82
        assert counts["observer_sets"] == 1536
        # The per-pair search reached 1472 (system location, set) pairs.
        assert counts["observer_classes"] == 133
        # check() builds one observer per conjunct, and sums their counts.
        assert stats["observer_locations"] == 17
        assert stats["observer_sets"] == 84
        assert stats["observer_classes"] == 21

    def test_counts_without_pruning(self):
        counts: dict = {}
        f = parse_formula("F on", Declarations(variables=(), actions=("on", "off")))
        build_formula_automaton(f, ("on", "off"), counts=counts)
        assert counts == {"observer_sets": 6, "observer_classes": 0}
