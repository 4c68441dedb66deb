"""Exporter tests: deterministic text, embedded round trip, rejections."""

import warnings

import pytest

from hyltlmc.errors import ExportError
from hyltlmc.formula.nnf import to_nnf
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.formula.syntax import Not
from hyltlmc.hybrid.automaton import compose
from hyltlmc.hybrid.modelio import model_to_str, parse_model
from hyltlmc.phaver import embedded_model, export_phaver
from hyltlmc.tableau import build_formula_automaton

from conftest import loop_system

DECLS = Declarations(variables=("x",), actions=("on", "off"))


def observer(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        negation = to_nnf(Not(parse_formula(text, DECLS)))
    loop = loop_system(DECLS.actions)
    return build_formula_automaton(negation, DECLS.actions, system=loop)


class TestExportText:
    """The rendered file is deterministic and carries the pieces a reader
    needs: declarations, one loc block per location with rates, guarded
    sync edges with explicit resets, and the initial condition."""

    def test_heater_export_is_stable(self, heater):
        text = export_phaver(heater, name="heater")
        assert text == export_phaver(heater, name="heater")
        lines = text.splitlines()
        assert lines[0] == "automaton heater"
        assert "state_var: x;" in lines
        assert "synclabs: on, off;" in lines
        assert "loc idle: while x >= 17 wait {x' == (-0.2) * x};" in lines
        assert "loc heat: while x <= 23 wait {x' == 30 - 0.2 * x};" in lines
        assert "  when x <= 19 sync on do {x' == x} goto heat;" in lines
        assert "  when x >= 21 sync off do {x' == x} goto idle;" in lines
        assert "initially: idle & x >= 19 & x <= 21;" in lines
        assert "end" in lines

    def test_query_script_follows_the_model(self, heater):
        text = export_phaver(heater, name="box")
        end = text.index("end")
        assert text.index("sys = box;") > end
        assert 'reach.print("box_reach", 2);' in text

    def test_identity_resets_are_spelled_out(self):
        """A jump that only writes y must still pin x, because the target
        format treats unmentioned primed variables as unconstrained."""
        h = parse_model(
            """
            vars x, y;
            actions go;
            location a { der(x) = 1; der(y) = 0; }
            edge a -go-> a { y' = x; }
            initial a;
            init { x = 0; y = 0; }
            """
        )
        text = export_phaver(h)
        assert "do {y' == x & x' == x}" in text

    def test_empty_guard_renders_as_true(self):
        h = parse_model(
            """
            vars x;
            actions go;
            location a { der(x) = 0; }
            edge a -go-> a { x' = x; }
            initial a;
            init { x = 0; }
            """
        )
        assert "when true sync go" in export_phaver(h)

    def test_acceptance_sets_become_comments(self, heater):
        h = observer("F on")
        text = export_phaver(h, name="obs")
        final_lines = [l for l in text.splitlines() if l.startswith("// final set")]
        assert len(final_lines) == len(h.acceptance)

    def test_bad_name_rejected(self, heater):
        with pytest.raises(ExportError, match="identifier"):
            export_phaver(heater, name="2fast")
        with pytest.raises(ExportError, match="identifier"):
            export_phaver(heater, name="a b")


class TestEmbeddedRoundTrip:
    """The trailing tagged comment holds the full native serialization,
    so the exact automaton survives the trip through the foreign
    format."""

    def test_heater_round_trips_exactly(self, heater):
        back = embedded_model(export_phaver(heater, name="heater"))
        assert model_to_str(back) == model_to_str(heater)

    def test_product_round_trips_up_to_renaming(self, heater):
        """Tuple locations flatten to underscore names in the embedding,
        so sizes and variables survive even though names change."""
        prod = compose(heater, observer("!F(x >= 21 & X on)"))
        back = embedded_model(export_phaver(prod, name="prod"))
        assert len(back.locations) == len(prod.locations)
        assert len(back.transitions) == len(prod.transitions)
        assert back.variables == prod.variables
        assert back.actions == prod.actions
        assert len(back.acceptance) == len(prod.acceptance)
        assert {len(F) for F in back.acceptance} == {
            len(F) for F in prod.acceptance
        }

    def test_text_without_tag_yields_none(self):
        assert embedded_model("automaton a\nend\n") is None

    def test_payload_survives_an_edit_above_it(self, heater):
        """Only the tagged lines matter; hand edits elsewhere in the file
        leave the recovered model untouched."""
        text = export_phaver(heater, name="heater")
        doctored = text.replace("while x >= 17", "while x >= 0")
        back = embedded_model(doctored)
        assert model_to_str(back) == model_to_str(heater)


class TestRejections:
    def test_nonlinear_rate_rejected(self):
        h = parse_model(
            """
            vars x;
            actions tick;
            location spin { der(x) = x * x; x >= 0; }
            edge spin -tick-> spin { x' = x; }
            initial spin;
            init { x = 0; }
            """
        )
        with pytest.raises(ExportError, match="not affine"):
            export_phaver(h)

    def test_nonlinear_guard_rejected(self):
        h = parse_model(
            """
            vars x;
            actions tick;
            location a { der(x) = 1; }
            edge a -tick-> a { x * x <= 4; x' = x; }
            initial a;
            init { x = 0; }
            """
        )
        with pytest.raises(ExportError, match="not affine"):
            export_phaver(h)


# Affine, though it divides, negates and calls: each call has a constant
# argument.
ARITHMETIC = """
vars x;
actions a;
location l { der(x) = x / 2 + 1; -x <= 3; x <= exp(0) + 5; }
edge l -a-> l { x <= sin(0) + cos(0); x' = -x + exp(0); }
initial l;
init { x >= 0; x <= 1; }
"""


def test_arithmetic_and_calls_round_trip():
    h = parse_model(ARITHMETIC)
    assert parse_model(model_to_str(h)) == h
    text = export_phaver(h, name="calls")
    assert "loc l: while -x <= 3 & x <= exp(0) + 5 wait {x' == x / 2 + 1};" in text
    assert "  when x <= sin(0) + cos(0) sync a do {x' == -x + exp(0)} goto l;" in text
    assert embedded_model(text) == h


# Two initial locations with different regions: one init line each.
TWO_REGIONS = """
vars x;
actions a;
location l { der(x) = 1; }
location m { der(x) = -1; }
edge l -a-> m { x' = x; }
edge m -a-> l { x' = x; }
initial l, m;
init l { x >= 0; x <= 1; }
init m { x >= 2; x <= 3; }
"""


def test_init_regions_per_location_round_trip():
    h = parse_model(TWO_REGIONS)
    text = model_to_str(h)
    assert "init l { x >= 0; x <= 1; }\ninit m { x >= 2; x <= 3; }\n" in text
    assert parse_model(text) == h
    assert embedded_model(export_phaver(h, name="two")) == h
