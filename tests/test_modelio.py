"""Model text format: parsing, printing, round trips, bundled models."""

import pytest

from hyltlmc.errors import ModelError, ParseError
from hyltlmc.hybrid import HybridAutomaton, compose
from hyltlmc.hybrid.modelio import (
    bundled_model,
    location_renaming,
    model_to_str,
    parse_model,
    save_model,
    load_model,
)

from conftest import heater_model


MINIMAL = """
vars x;
actions a;
location only {
    der(x) = 1;
}
initial only;
"""


class TestParse:
    def test_bundled_thermostat_matches_hand_built(self):
        assert bundled_model("thermostat") == heater_model()

    def test_minimal(self):
        h = parse_model(MINIMAL)
        assert h.locations == ("only",)
        assert h.actions == ("a",)
        assert h.acceptance == ()
        assert h.init_region == {}

    def test_final_blocks_are_ordered_acceptance_sets(self):
        h = parse_model(MINIMAL + "final { only }\nfinal { }\n")
        assert h.acceptance == (frozenset({"only"}), frozenset())

    def test_unknown_keyword_position(self):
        with pytest.raises(ParseError) as e:
            parse_model("vars x;\nbogus y;\n")
        assert "2:1" in str(e.value)
        assert "bogus" in str(e.value)

    def test_undeclared_variable_in_flow(self):
        with pytest.raises(ParseError, match="declared state variable"):
            parse_model("vars x;\nactions a;\nlocation l { der(y) = 1; }\ninitial l;")
        with pytest.raises(ParseError, match="unknown identifier 'y'"):
            parse_model("vars x;\nactions a;\nlocation l { y >= 1; }\ninitial l;")

    def test_duplicate_vars_line(self):
        with pytest.raises(ParseError, match="duplicate vars"):
            parse_model("vars x;\nvars y;\n")

    def test_primed_variable_rejected_in_location_block(self):
        with pytest.raises(ParseError):
            parse_model("vars x;\nlocation l { x' = 1; }\ninitial l;")

    def test_derivative_rejected_in_init_region(self):
        with pytest.raises(ParseError, match="derivative not allowed"):
            parse_model(MINIMAL + "init { der(x) = 1; }\n")

    def test_bare_init_needs_an_initial_location(self):
        text = "vars x;\nactions a;\nlocation l { der(x) = 1; }\n"
        with pytest.raises(ModelError, match="no initial location") as e:
            parse_model(text + "init { x >= 0; x <= 1; }\n")
        assert e.value.code == "E_MODEL"
        h = parse_model(text + "initial l;\ninit { x >= 0; x <= 1; }\n")
        assert list(h.init_region) == ["l"]

    def test_init_region_on_a_location_that_is_not_initial(self):
        text = (
            "vars x;\nactions a;\nlocation a { der(x) = 1; }\nlocation b { der(x) = 1; }\n"
            "initial a;\ninit b { x >= 0; x <= 1; }\n"
        )
        with pytest.raises(ModelError, match="'b', which is not initial") as e:
            parse_model(text)
        assert e.value.code == "E_MODEL"

    @pytest.mark.parametrize("initial", ["initial l, l;", "initial l;\ninitial l;"])
    def test_repeated_initial_location(self, initial):
        # Accepted, it stored the bare init block's rows once per entry.
        text = f"vars x;\nactions a;\nlocation l {{ der(x) = 1; }}\n{initial}\n"
        with pytest.raises(ModelError, match="duplicate initial location") as e:
            parse_model(text + "init { x >= 0; x <= 0.5; }\n")
        assert e.value.code == "E_MODEL"

    def test_comments_and_blank_lines_ignored(self):
        h = parse_model("# header\n\nvars x;  # trailing\nactions a;\n"
                        "location l {\n# inside\nder(x) = 1;\n}\ninitial l;")
        assert h.locations == ("l",)


    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.hyha"
        path.write_bytes(b"vars x;\xff\n")
        with pytest.raises(ParseError, match="not UTF-8") as e:
            load_model(path)
        assert e.value.code == "E_PARSE"


class TestRoundTrip:
    def test_heater_round_trip(self, heater):
        again = parse_model(model_to_str(heater))
        assert again == heater

    def test_bundled_text_is_canonical(self):
        h = bundled_model("thermostat")
        assert parse_model(model_to_str(h)) == h

    def test_file_round_trip(self, heater, tmp_path):
        p = tmp_path / "m.hyha"
        save_model(heater, p)
        assert load_model(p) == heater

    def test_acceptance_survives_round_trip(self, heater):
        h = HybridAutomaton(
            variables=heater.variables,
            actions=heater.actions,
            locations=heater.locations,
            transitions=heater.transitions,
            dyn=heater.dyn,
            init=heater.init,
            init_region=heater.init_region,
            acceptance=(frozenset({"idle"}), frozenset({"idle", "heat"})),
        )
        assert parse_model(model_to_str(h)).acceptance == h.acceptance


class TestTupleLocations:
    def test_renaming_flattens_tuples(self, heater):
        prod = compose(heater, heater_model())
        naming = location_renaming(prod)
        assert naming[("idle", "idle")] == "idle_idle"
        assert len(set(naming.values())) == len(prod.locations)

    def test_renaming_resolves_collisions(self):
        h = HybridAutomaton(
            variables=("x",),
            actions=("a",),
            locations=(("l", "m"), "l_m"),
            transitions=(),
            dyn={},
            init=(("l", "m"),),
        )
        naming = location_renaming(h)
        assert len(set(naming.values())) == 2

    def test_product_round_trips_after_renaming(self, heater):
        prod = compose(heater, heater_model())
        text = model_to_str(prod)
        again = parse_model(text)
        assert len(again.locations) == len(prod.locations)
        assert len(again.transitions) == len(prod.transitions)
        assert model_to_str(again) == text
