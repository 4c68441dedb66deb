"""Formula-to-automaton translation and its pruning."""

import random

import pytest

from hyltlmc.errors import ModelError
from hyltlmc.formula import Declarations, parse_formula, to_nnf
from hyltlmc.formula.parser import parse_flow_constraint
from hyltlmc.formula.closure import closure, maximally_consistent_sets
from hyltlmc.formula.syntax import (
    ActionAtom,
    And,
    FlowAtom,
    Next,
    Release,
    Until,
    neg,
)
from hyltlmc.hybrid import FlowConstraint, Relation
from hyltlmc.hybrid.discrete import WordAutomaton, accepts_lasso_word
from hyltlmc.hybrid.expr import Const, Var
from hyltlmc.reach.boxes import satisfiable
from hyltlmc.tableau import build_formula_automaton, prune_unreachable

from conftest import BOOL_ATOMS, random_formula

DECLS = Declarations(variables=("x",), actions=("on", "off"))
AB = ("on", "off")


def mcs_by_name(formula, actions):
    """Reconstruct the location name to consistent-set mapping the builder
    promises: qi is the i-th enumerated set."""
    sets = maximally_consistent_sets(closure(formula, actions))
    return {f"q{i}": m for i, m in enumerate(sets)}


def edge_allowed(cl, M, a, M2):
    """Transition conditions checked directly over formula objects."""
    if ActionAtom(a) not in M2:
        return False
    for g in cl.members:
        match g:
            case Next(op):
                if (g in M) != (op in M2):
                    return False
            case Until(l, r):
                if (g in M) != (r in M or (l in M and g in M2)):
                    return False
            case Release(l, r):
                if (g in M) != ((l in M and r in M) or (r in M and g in M2)):
                    return False
            case _:
                pass
    return True


class TestStructure:
    def test_translation_of_true(self):
        h = build_formula_automaton(parse_formula("true", DECLS), AB)
        assert len(h.locations) == 3
        assert len(h.transitions) == 6
        assert h.init == ("q0",)
        assert h.acceptance == ()

    def test_flagship_negation_has_24_locations(self):
        phi = parse_formula("!F(x >= 21 & X on)", DECLS)
        h = build_formula_automaton(to_nnf(neg(phi)), AB)
        assert len(h.locations) == 24
        assert len(h.acceptance) == 1

    def test_dyn_collects_positive_flow_atoms(self):
        c = FlowConstraint(Var("x"), Relation.GE, Const(21.0))
        h = build_formula_automaton(parse_formula("F(x >= 21)", DECLS), AB)
        assert h.variables == ("x",)
        by_name = mcs_by_name(parse_formula("F(x >= 21)", DECLS), AB)
        for name, m in by_name.items():
            expected = (c,) if FlowAtom(c) in m else ()
            assert h.dyn[name] == expected

    def test_init_locations_hold_formula_and_no_action(self):
        f = parse_formula("F on", DECLS)
        h = build_formula_automaton(f, AB)
        by_name = mcs_by_name(f, AB)
        for name in h.locations:
            m = by_name[name]
            expected = f in m and not m.positive_actions()
            assert (name in h.init) == expected

    def test_acceptance_set_per_until(self):
        f = parse_formula("F on", DECLS)  # true U on
        h = build_formula_automaton(f, AB)
        by_name = mcs_by_name(f, AB)
        (F0,) = h.acceptance
        u = Until(parse_formula("true"), ActionAtom("on"))
        for name in h.locations:
            m = by_name[name]
            assert (name in F0) == (ActionAtom("on") in m or u not in m)

    def test_alphabet_must_cover_action_atoms(self):
        with pytest.raises(ModelError, match="outside the alphabet"):
            build_formula_automaton(parse_formula("F on", DECLS), ("off",))

    def test_deterministic_construction(self):
        f = parse_formula("on U (off & X on)", DECLS)
        assert build_formula_automaton(f, AB) == build_formula_automaton(f, AB)

    def test_edges_match_direct_conditions_on_random_formulas(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(30):
            f = random_formula(rng, BOOL_ATOMS, rng.randint(2, 6))
            cl = closure(f, AB)
            if len(cl) > 14:
                continue
            sets = maximally_consistent_sets(cl)
            h = build_formula_automaton(f, AB)
            built = {(t.source, t.action, t.target) for t in h.transitions}
            expected = set()
            for i, m in enumerate(sets):
                for j, m2 in enumerate(sets):
                    for a in AB:
                        if edge_allowed(cl, m, a, m2):
                            expected.add((f"q{i}", a, f"q{j}"))
            assert built == expected
            checked += 1
        assert checked >= 15


class TestWordSemantics:
    def test_eventually(self):
        h = build_formula_automaton(parse_formula("F on", DECLS), AB)
        w = WordAutomaton(h)
        assert w.accepts_word((), ("on",))
        assert not w.accepts_word((), ("off",))
        assert w.accepts_word(("off", "off"), ("on", "off"))
        # the action before position 2 is already 'on'
        assert w.accepts_word(("on",), ("off",))

    def test_always_not(self):
        h = build_formula_automaton(parse_formula("G !on", DECLS), AB)
        w = WordAutomaton(h)
        assert w.accepts_word((), ("off",))
        assert not w.accepts_word((), ("off", "on"))
        assert not w.accepts_word(("on",), ("off",))

    def test_next(self):
        h = build_formula_automaton(parse_formula("X on", DECLS), AB)
        w = WordAutomaton(h)
        assert w.accepts_word((), ("on",))
        assert w.accepts_word(("on",), ("off",))
        assert not w.accepts_word(("off",), ("on",))

    def test_top_level_until_of_action_atoms_is_unsatisfiable(self):
        # Position 1 satisfies no action atom, so neither a witness at 1
        # nor the left chain through 1 can ever hold.
        h = build_formula_automaton(parse_formula("on U off", DECLS), AB)
        w = WordAutomaton(h)
        assert not w.accepts_word((), ("off",))
        assert not w.accepts_word(("on",), ("off",))

    def test_until_needs_left_to_hold(self):
        # From position 2 on, 'on' must hold until an 'off' position that
        # is itself followed by an 'on' action.
        h = build_formula_automaton(parse_formula("X(on U (off & X on))", DECLS), AB)
        w = WordAutomaton(h)
        assert w.accepts_word(("on", "on", "off"), ("on",))
        assert not w.accepts_word(("on", "off", "off"), ("on",))
        assert w.accepts_word((), ("on", "off"))
        assert not w.accepts_word((), ("on",))

    def test_release_dual(self):
        # off R !on: 'on' may appear only strictly after an 'off' action.
        h = build_formula_automaton(parse_formula("off R !on", DECLS), AB)
        w = WordAutomaton(h)
        assert w.accepts_word((), ("off",))
        assert not w.accepts_word((), ("on",))
        assert w.accepts_word(("off",), ("on",))
        assert not w.accepts_word(("on", "off"), ("on",))


class TestPrune:
    def test_prune_keeps_language(self):
        rng = random.Random(11)
        words = [
            ((), ("on",)),
            ((), ("off",)),
            (("on",), ("off",)),
            (("off",), ("on", "off")),
            (("on", "on"), ("off", "on")),
        ]
        for _ in range(25):
            f = random_formula(rng, BOOL_ATOMS, rng.randint(2, 6))
            raw = build_formula_automaton(f, AB)
            pruned = prune_unreachable(raw)
            wr, wp = WordAutomaton(raw), WordAutomaton(pruned)
            for prefix, cycle in words:
                assert wr.accepts_word(prefix, cycle) == wp.accepts_word(prefix, cycle)

    def test_prune_drops_dead_locations(self):
        phi = parse_formula("!F(x >= 21 & X on)", DECLS)
        raw = build_formula_automaton(to_nnf(neg(phi)), AB)
        pruned = prune_unreachable(raw)
        assert len(pruned.locations) < len(raw.locations)
        assert set(pruned.locations) <= set(raw.locations)

    def test_prune_of_unsatisfiable_formula_is_empty(self):
        raw = build_formula_automaton(parse_formula("false", DECLS), AB)
        pruned = prune_unreachable(raw)
        assert pruned.locations == ()

    @pytest.mark.parametrize(
        "rows, kept",
        [
            (("x < 5", "x > 5"), True),  # closed, they meet at x = 5
            (("x < 15", "x > 25"), False),
            (("1 >= 2",), False),
            (("1 <= 2", "0 < 0"), True),
            (("x * x <= -1",), True),  # nonaffine, skipped
            # Several variables: the clip proves it empty once x and y
            # are bounded, and keeps it while y is not.
            (("x + y <= 0", "x >= 1", "y >= 1"), False),
            (("der(x) = 1", "der(x) = 2"), True),  # rates are not invariants
            (("x = 5", "x > 6"), False),
            (("x = 5", "x <= 5", "y >= 7"), True),
            (("2 * x <= 10", "-3 * x <= -16"), False),
            (("x + y <= 0", "x >= 1"), True),
        ],
    )
    def test_single_variable_bounds_decide_emptiness(self, rows, kept):
        decls = Declarations(variables=("x", "y"), actions=())
        assert satisfiable(parse_flow_constraint(r, decls) for r in rows) is kept

    def test_empty_invariants_are_dropped_with_their_edges(self):
        phi = parse_formula("G(x >= 18 & x <= 22)", DECLS)
        raw = build_formula_automaton(to_nnf(neg(phi)), AB)
        pruned = prune_unreachable(raw)
        empty = {l for l in raw.locations if not satisfiable(raw.dyn[l])}
        assert empty and not empty & set(pruned.locations)
        assert pruned == build_formula_automaton(to_nnf(neg(phi)), AB, prune=True)

    def test_one_shot_helper_agrees(self):
        h = build_formula_automaton(parse_formula("F on", DECLS), AB)
        assert accepts_lasso_word(h, (), ("on",))
        assert not accepts_lasso_word(h, (), ("off",))
