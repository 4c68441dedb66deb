"""Formula parsing, printing and negation normal form."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from hyltlmc.errors import ComplementStrengtheningWarning, ComplementError, ParseError
from hyltlmc.formula import Declarations, parse_formula, to_nnf, to_str
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
    canonical,
    neg,
    size,
)
from hyltlmc.hybrid import FlowConstraint, Relation
from hyltlmc.hybrid.expr import Add, Const, DotVar, Mul, Var


DECLS = Declarations(variables=("x",), actions=("on", "off"))


def atom(text: str) -> FlowAtom:
    f = parse_formula(text, DECLS)
    assert isinstance(f, FlowAtom)
    return f


class TestParsing:
    def test_negated_eventually_with_action(self):
        """The flagship property shape parses into core operators only."""
        f = parse_formula("!F(x >= 21 & X on)", DECLS)
        expected = Not(
            Until(
                Top(),
                And(
                    FlowAtom(FlowConstraint(Var("x"), Relation.GE, Const(21.0))),
                    Next(ActionAtom("on")),
                ),
            )
        )
        assert f == expected

    def test_always_expands_through_negation(self):
        f = parse_formula("G(x >= 15 & x <= 25)", DECLS)
        inner = And(atom("x >= 15"), atom("x <= 25"))
        assert f == Not(Until(Top(), Not(inner)))
        assert to_nnf(f) == Release(Bot(), inner)

    def test_precedence_until_binds_tighter_than_and(self):
        f = parse_formula("on U off & true", DECLS)
        assert f == And(Until(ActionAtom("on"), ActionAtom("off")), Top())

    def test_until_right_associative(self):
        f = parse_formula("on U off U true", DECLS)
        assert f == Until(ActionAtom("on"), Until(ActionAtom("off"), Top()))

    def test_implication_desugars(self):
        f = parse_formula("on -> off", DECLS)
        assert f == Or(Not(ActionAtom("on")), ActionAtom("off"))

    def test_reactivity_pattern(self):
        f = parse_formula("G(on -> F off)", DECLS)
        body = Or(Not(ActionAtom("on")), Until(Top(), ActionAtom("off")))
        assert f == Not(Until(Top(), Not(body)))

    def test_parenthesized_arithmetic_comparison(self):
        f = parse_formula("(x + 1) >= 2", DECLS)
        assert f == FlowAtom(
            FlowConstraint(Add(Var("x"), Const(1.0)), Relation.GE, Const(2.0))
        )

    def test_derivative_atom(self):
        f = parse_formula("der(x) = -0.2 * x", DECLS)
        assert f == FlowAtom(
            FlowConstraint(DotVar("x"), Relation.EQ, Mul(Const(-0.2), Var("x")))
        )

    def test_unknown_identifier_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("true & blorp", DECLS)
        assert "blorp" in str(exc.value)
        assert exc.value.line == 1
        assert exc.value.column == 8

    def test_lexical_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("true @ false", DECLS)
        assert exc.value.column == 6

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("true true", DECLS)

    def test_reserved_names_rejected_in_declarations(self):
        with pytest.raises(ParseError):
            Declarations(variables=("der",))
        with pytest.raises(ParseError):
            Declarations(variables=("x",), actions=("x",))


FORMULAS = st.recursive(
    st.sampled_from(
        [
            Top(),
            Bot(),
            ActionAtom("on"),
            ActionAtom("off"),
            FlowAtom(FlowConstraint(Var("x"), Relation.GE, Const(21.0))),
            FlowAtom(FlowConstraint(Var("x"), Relation.LT, Const(19.0))),
            FlowAtom(
                FlowConstraint(
                    Add(Var("x"), Const(1.0)), Relation.LE, Const(2.5)
                )
            ),
            FlowAtom(
                FlowConstraint(DotVar("x"), Relation.EQ, Mul(Const(-0.2), Var("x")))
            ),
        ]
    ),
    lambda inner: st.one_of(
        inner.map(Not),
        inner.map(Next),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Or(*t)),
        st.tuples(inner, inner).map(lambda t: Until(*t)),
        st.tuples(inner, inner).map(lambda t: Release(*t)),
    ),
    max_leaves=12,
)


class TestPrinting:
    @given(FORMULAS)
    def test_roundtrip(self, f):
        """Printing then parsing reproduces the AST exactly."""
        assert parse_formula(to_str(f), DECLS) == f

    def test_minimal_parens(self):
        f = parse_formula("on U off & true | X !on", DECLS)
        assert to_str(f) == "on U off & true | X !on"


class TestNegation:
    def test_neg_collapses_double_negation(self):
        a = ActionAtom("on")
        assert neg(Not(a)) == a
        assert neg(a) == Not(a)
        assert neg(Top()) == Bot()
        assert neg(Bot()) == Top()

    @given(FORMULAS)
    def test_neg_involutive_on_canonical_forms(self, f):
        g = canonical(f)
        assert neg(neg(g)) == g

    @given(FORMULAS)
    def test_canonical_idempotent(self, f):
        assert canonical(canonical(f)) == canonical(f)

    def test_canonical_collapses_nested_negations(self):
        a = ActionAtom("on")
        assert canonical(Not(Not(a))) == a
        assert canonical(Not(Top())) == Bot()
        assert canonical(And(Not(Not(a)), Not(Bot()))) == And(a, Top())


class TestNnf:
    def test_dualities(self):
        f = parse_formula("!(on U off)", DECLS)
        assert to_nnf(f) == Release(Not(ActionAtom("on")), Not(ActionAtom("off")))
        f = parse_formula("!(on R off)", DECLS)
        assert to_nnf(f) == Until(Not(ActionAtom("on")), Not(ActionAtom("off")))
        f = parse_formula("!X on", DECLS)
        assert to_nnf(f) == Next(Not(ActionAtom("on")))
        f = parse_formula("!(on & off)", DECLS)
        assert to_nnf(f) == Or(Not(ActionAtom("on")), Not(ActionAtom("off")))

    def test_negated_flow_atom_flips_with_warning(self):
        f = Not(atom("x >= 21"))
        with pytest.warns(ComplementStrengtheningWarning):
            g = to_nnf(f)
        assert g == atom("x < 21")

    def test_negated_equality_needs_declaration(self):
        c = FlowConstraint(DotVar("x"), Relation.EQ, Const(0.0))
        with pytest.raises(ComplementError):
            to_nnf(Not(FlowAtom(c)))

    def test_strict_mode_rejects_underived_complement(self):
        with pytest.raises(ComplementError):
            to_nnf(Not(atom("x >= 21")), strict=True)

    def test_flagship_negation(self):
        """not F(x>=21 & X on) becomes false R (x<21 | X !on)."""
        f = Not(parse_formula("F(x >= 21 & X on)", DECLS))
        with pytest.warns(ComplementStrengtheningWarning):
            g = to_nnf(f)
        expected = Release(
            Bot(),
            Or(atom("x < 21"), Next(Not(ActionAtom("on")))),
        )
        assert g == expected

    @given(FORMULAS)
    def test_nnf_negations_only_on_literals(self, f):
        import warnings

        def literal_only(g):
            match g:
                case Not(ActionAtom(_)):
                    return True
                case Not(_):
                    return False
                case And(a, b) | Or(a, b) | Until(a, b) | Release(a, b):
                    return literal_only(a) and literal_only(b)
                case Next(a):
                    return literal_only(a)
                case _:
                    return True

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ComplementStrengtheningWarning)
            try:
                g = to_nnf(f)
            except ComplementError:
                return  # negated equality without declared complement
        assert literal_only(g)
        assert size(g) >= 1
