"""The recurrence query compiles like every other region.

`recurrence_hits` clips each stored box of a final location by the rows
of f = code and of |y - w| <= eps for every snapshot y and its tracked
variable w (reach.boxes.compile_rows), and keeps the box unless the clip
proves it empty. Against the frozen query, which tested a hand-built
latch vector and the eps gaps itself
(`reference_pipeline.frozen_recurrence_hits`), every frozen hit is a hit
bit for bit, and the only extra hits are boxes the frozen query set
aside as unbounded, each with an infinite side on a snapshot or on its
tracked variable.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from hyltlmc.formula.nnf import to_nnf
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.formula.syntax import Not
from hyltlmc.hybrid.automaton import compose
from hyltlmc.hybrid.modelio import parse_model
from hyltlmc.product import instrument, recurrence_hits
from hyltlmc.reach import reachable
from hyltlmc.reach.engine import ReachResult
from hyltlmc.tableau import build_formula_automaton, prune_unreachable

from reference_pipeline import frozen_recurrence_hits
from test_bitset_tableau import MODELS
from test_live_product import BENCH_FORMULAS
from test_reach import UNDEFINED_RESET
from test_soundness_oracle import AUTOMATA, FORMULAS, SETTINGS, positive_nnf, random_model

EPS = (0.0, 1e-6, 0.5)


def query_inputs(system, text: str, **settings):
    """The instrumented product's reach result, targets and auxiliaries,
    as check() computes them."""
    formula = parse_formula(text, Declarations(system.variables, system.actions))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        negation = to_nnf(Not(formula))
    observer = build_formula_automaton(negation, system.actions, system=system)
    inst, targets, f, y, w = instrument(prune_unreachable(compose(system, observer)))
    return reachable(inst, **settings), targets, f, y, w


def assert_query_matches_frozen(reach, targets, f, y, w, eps: float) -> int:
    """Per stored box of every target, the new query finds the frozen
    query's hit, or none, or, where the frozen query found a witness pair
    unbounded, possibly a hit on a box with an infinite tracked side; the
    whole call gives those hits in target and store order. Returns the
    number of extra hits."""
    names = reach.names
    tracked = [names.index(v) for v in (*y, *w)]
    expected: list[dict] = []
    extras = 0
    for target in targets:
        for box in reach.boxes.get(target.location, ()):
            one = ReachResult(names, {target.location: [box]})
            want, unbounded = frozen_recurrence_hits(one, (target,), f, y, w, eps)
            if unbounded:
                extra = recurrence_hits(one, (target,), f, y, w, eps)
                if extra:
                    lo, hi = box
                    assert not np.isfinite(np.concatenate([lo[tracked], hi[tracked]])).all()
                    extras += 1
                want += extra
            expected += want
    assert repr(recurrence_hits(reach, targets, f, y, w, eps)) == repr(expected)
    return extras


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("model, text", BENCH_FORMULAS)
def test_benchmark_formulas_find_the_frozen_hits(model, text, eps):
    assert assert_query_matches_frozen(*query_inputs(MODELS[model], text), eps) == 0


def test_random_automata_find_the_frozen_hits():
    # The automata and formulas of tests/test_soundness_oracle.py, drawn
    # from the same seed in the same order. Widening takes the snapshot,
    # which no invariant bounds, to an infinite side, so some boxes are
    # extra hits here.
    rng = random.Random(20131)
    targets = 0
    for _ in range(AUTOMATA):
        h = parse_model(random_model(rng))
        for _ in range(FORMULAS):
            text = f"!({positive_nnf(rng, h.variables, rng.randint(1, 6))})"
            inputs = query_inputs(h, text, **SETTINGS)
            targets += len(inputs[1])
            for eps in EPS:
                assert_query_matches_frozen(*inputs, eps)
    assert targets >= AUTOMATA * FORMULAS


def test_unbounded_witness_is_a_hit_with_its_infinite_range():
    # The jump leaves x free in b: the frozen query found no hit and
    # flagged the witness unbounded; now the box itself is the hit.
    inputs = query_inputs(parse_model(UNDEFINED_RESET), "!F(x >= 5)")
    assert assert_query_matches_frozen(*inputs, 1e-6) > 0
    hits = recurrence_hits(*inputs, 1e-6)
    assert {hit["location"][0] for hit in hits} == {"b"}
    assert all(hit["box"]["x"] == (5.0, np.inf) for hit in hits)
