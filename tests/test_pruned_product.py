"""check() queries only the product that can hold an accepting cycle.

The composed and the counter product are pruned to locations on a path
from an initial location to an accepting cycle. A pruned location reaches
only pruned locations, and the LIFO worklist finishes a pruned box's
subtree before it pops anything below it, so every kept location gets the
same stored boxes as the eager pipeline in `reference_pipeline`, with the
observer split by conjunct as check() splits it. Only the latch codes
differ: fewer final locations means they renumber. The status must also
be the one the eager pipeline gives with the whole formula's observer, so
that the split loses no precision.
"""

from __future__ import annotations

import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import hyltlmc.product as product_module
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.hybrid.modelio import load_model, parse_model
from hyltlmc.product import check

from reference_pipeline import eager_check

GRAPH_ONLY = "no path from an initial location reaches an accepting cycle of the product"
THREE_CONJUNCTS = "!F(x >= 21 & X on) & G(x<=23) & G(off -> X(x <= 21 U on))"
CASES = [
    ("thermostat", "!F(x >= 21 & X on)"),
    ("thermostat", THREE_CONJUNCTS),
    ("thermostat", "G(on -> X(!on U off))"),
    ("thermostat", "G F(x>=21) -> G F on"),
    ("thermostat", "G(x<=23)"),
    # The one case with query hits: on is allowed up to x <= 25.
    ("relaxed", "!F(x >= 21 & X on)"),
    # Envelopes: the negation holds x < 18 and x > 22 at once in some
    # observer and product locations, which no state can enter.
    ("thermostat", "G(x >= 18 & x <= 22)"),
    ("rooms", "G(x >= 16 & x <= 24) & G F on1"),
    ("tanks", "G(a >= 0 & a <= 10)"),
]


@pytest.fixture(scope="module")
def thermostat_text() -> str:
    return files("hyltlmc.models").joinpath("thermostat.hyha").read_text()


@pytest.fixture(scope="module")
def thermostat(thermostat_text):
    return parse_model(thermostat_text)


@pytest.fixture(scope="module")
def models(thermostat_text, thermostat):
    relaxed = parse_model(thermostat_text.replace("x <= 19;", "x <= 25;"))
    bench = Path(__file__).resolve().parents[1] / "perfbench/models"
    return {
        "thermostat": thermostat,
        "relaxed": relaxed,
        "rooms": load_model(bench / "rooms.hyha"),
        "tanks": load_model(bench / "tanks.hyha"),
    }


def formula_of(h, text: str):
    return parse_formula(text, Declarations(variables=h.variables, actions=h.actions))


def recorded_check(monkeypatch, h, formula, **kwargs):
    """check() with the instrument and reachable results it used."""
    seen = {}

    def keep(name):
        original = getattr(product_module, name)

        def wrapper(*args, **kw):
            seen[name] = original(*args, **kw)
            return seen[name]

        monkeypatch.setattr(product_module, name, wrapper)

    keep("instrument")
    keep("reachable")
    verdict = check(h, formula, **kwargs)
    return verdict, seen


def code_map(ref_targets, new_targets) -> dict[float, float]:
    """Old latch code -> new latch code, by final location; 0 stays 0."""
    new = {t.location: float(t.code) for t in new_targets}
    out = {0.0: 0.0}
    for t in ref_targets:
        if t.location in new:
            out[float(t.code)] = new[t.location]
    return out


def relabel(values: np.ndarray, codes: dict[float, float]) -> np.ndarray:
    return np.array([codes.get(float(v), v) for v in values])


def same_box(ref_lo, ref_hi, lo, hi, fi: int, codes) -> bool:
    """Bit-identical on every variable but f, f equal after renumbering."""
    keep = [i for i in range(len(lo)) if i != fi]
    return (
        np.array_equal(ref_lo[keep], lo[keep])
        and np.array_equal(ref_hi[keep], hi[keep])
        and np.array_equal(relabel(ref_lo[[fi]], codes), lo[[fi]])
        and np.array_equal(relabel(ref_hi[[fi]], codes), hi[[fi]])
    )


class TestMatchesEagerPipeline:
    @pytest.mark.parametrize("step", [0.01, 0.001])
    @pytest.mark.parametrize("model, text", CASES)
    def test_same_status_hits_and_stored_boxes(self, monkeypatch, models, model, text, step):
        h = models[model]
        formula = formula_of(h, text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            whole = eager_check(h, formula, step=step)
            ref = eager_check(h, formula, step=step, split=True)
            verdict, seen = recorded_check(monkeypatch, h, formula, step=step)
        assert verdict.status == ref.status == whole.status

        inst, targets, f_name, _, _ = seen["instrument"]
        assert verdict.product is inst
        assert set(inst.locations) <= set(ref.product.locations)
        fi = inst.variables.index(f_name)
        codes = code_map(ref.targets, targets)

        assert [hit["location"] for hit in verdict.hits] == [
            hit["location"] for hit in ref.hits
        ]
        for new, old in zip(verdict.hits, ref.hits):
            assert codes[float(old["code"])] == new["code"]
            assert {x: b for x, b in new["box"].items() if x != f_name} == {
                x: b for x, b in old["box"].items() if x != f_name
            }

        if "reachable" not in seen:  # pruned to nothing
            assert not inst.locations
            assert not ref.hits
            return
        reach = seen["reachable"]
        for l in inst.locations:
            stored, ref_stored = reach.boxes[l], ref.reach.boxes[l]
            assert len(stored) == len(ref_stored), l
            for (lo, hi), (r_lo, r_hi) in zip(stored, ref_stored):
                assert same_box(r_lo, r_hi, lo, hi, fi, codes), l
            assert reach.visits[l] == ref.reach.visits[l]


class TestGraphOnlyVerdict:
    @pytest.mark.parametrize("text", ["G(on -> X(!on U off))", "G F(x>=21) -> G F on"])
    def test_verified_from_the_location_graph(self, monkeypatch, thermostat, text):
        # Reachability runs, on a product with no location to visit.
        inner = product_module.reachable
        explored = []

        def record(h, *args, **kwargs):
            explored.append(h.locations)
            return inner(h, *args, **kwargs)

        monkeypatch.setattr(product_module, "reachable", record)
        verdict = check(thermostat, formula_of(thermostat, text))
        assert explored == [()]
        assert verdict.verified
        assert verdict.reason == GRAPH_ONLY
        s = verdict.stats
        assert s["boxes"] == 0
        assert s["visits"] == {}
        assert s["reach_complete"] is True
        assert s["reach_incomplete"] is None
        assert s["product_locations"] == 0
        assert s["query_targets"] == 0
        assert s["aux"] == {"f": "f", "y": ("y",), "witness": ("x",)}
        assert "product" not in s
        assert verdict.product is not None and not verdict.product.locations

    def test_relaxed_guard_still_runs_reachability(self, monkeypatch, models):
        relaxed = models["relaxed"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdict, seen = recorded_check(
                monkeypatch, relaxed, formula_of(relaxed, "!F(x >= 21 & X on)")
            )
        assert "reachable" in seen
        assert verdict.status == "Inconclusive"
        assert len(verdict.hits) == 4
        assert any(hit["box"]["x"][1] >= 21.0 for hit in verdict.hits)


# b's invariant meets no state, but only rows over several variables
# show it: x + y <= 1 with x >= 1 and y >= 1.
MULTI_VARIABLE_EMPTY = """
vars x, y; actions go, back;
location a { der(x) = 0; der(y) = 0; }
location b { der(x) = 0; der(y) = 0; x + y <= 1; x >= 1; y >= 1; }
edge a -go-> b { x' = x; y' = y; }
edge b -back-> a { x' = x; y' = y; }
edge a -back-> a { x' = x; y' = y; }
initial a; init { x >= 0; x <= 1; y >= 0; y <= 1; }
"""


class TestMultiVariablePruning:
    """The pruning test asks the engine's own clip, so a location whose
    invariant only rows over several variables prove empty leaves the
    product, and the verdict stays the eager pipeline's."""

    @pytest.mark.parametrize("text", ["G(x <= 1)", "F G back"])
    def test_location_is_pruned_and_the_verdict_kept(self, text):
        h = parse_model(MULTI_VARIABLE_EMPTY)
        formula = formula_of(h, text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdict = check(h, formula)
            ref = eager_check(h, formula)
        assert any(l[0] == "b" for l in ref.product.locations)
        assert not any(l[0] == "b" for l in verdict.product.locations)
        assert verdict.status == ref.status
        assert len(verdict.hits) == len(ref.hits)
