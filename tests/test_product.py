"""The decision pipeline: observer, counter product, latch, verdicts."""

import itertools
import random
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hyltlmc.errors import (
    ComplementError,
    ComplementStrengtheningWarning,
    ConfigError,
    ModelError,
)
from hyltlmc.formula.nnf import to_nnf
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.formula.syntax import Not
from hyltlmc.hybrid.automaton import compose
from hyltlmc.hybrid.discrete import accepts_lasso_word
from hyltlmc.hybrid.modelio import load_model, parse_model
from hyltlmc.monitor import evaluate_trace, evaluate_word, random_trace
from hyltlmc.product import check, degeneralize, instrument
from hyltlmc.reach import engine
from hyltlmc.tableau import build_formula_automaton, live_locations, prune_unreachable

from conftest import BOOL_ATOMS, heater_model, loop_system, random_formula
from reference_pipeline import full_degeneralize

AB = ("on", "off")
DECLS = Declarations(variables=("x",), actions=AB)


def phi(s: str):
    return parse_formula(s, DECLS)


# Two locations and no variables: the runs alternate a and b.
VARIABLE_FREE = """
actions a, b;
location p { }
location q { }
edge p -a-> q { }
edge q -b-> p { }
initial p;
"""


def variable_free():
    return parse_model(VARIABLE_FREE)


ALL_WORDS = [
    (u, v)
    for p in range(3)
    for c in (1, 2)
    for u in itertools.product(("on", "off"), repeat=p)
    for v in itertools.product(("on", "off"), repeat=c)
]


class TestNegatedObserver:
    def test_accepts_exactly_the_violations(self):
        f = phi("F on")
        obs = build_formula_automaton(to_nnf(Not(f)), AB, system=loop_system(AB))
        for u, v in ALL_WORDS:
            assert accepts_lasso_word(obs, u, v) == (not evaluate_word(u, v, f))

    def test_unknown_action_is_rejected(self):
        decls = Declarations(variables=("x",), actions=("on", "off", "warm"))
        f = parse_formula("F warm", decls)
        with pytest.raises(ModelError, match="alphabet"):
            build_formula_automaton(to_nnf(Not(f)), AB, system=loop_system(AB))

    def test_pruning_only_trims(self):
        # Negating this formula rewrites its flow atom, which warns.
        f = phi("F(x >= 21 & X on)")
        with pytest.warns(ComplementStrengtheningWarning):
            negation = to_nnf(Not(f))
        full = build_formula_automaton(negation, AB)
        trimmed = build_formula_automaton(negation, AB, system=loop_system(AB))
        assert set(trimmed.locations) <= set(full.locations)
        assert len(trimmed.locations) < len(full.locations)


class TestDegeneralize:
    def test_single_or_empty_family_is_untouched(self):
        h = build_formula_automaton(phi("F on"), ("on", "off"))
        assert len(h.acceptance) == 1
        assert degeneralize(h) is h

    def test_counter_product_shape(self):
        """Only the reachable counter locations are built; on a live input
        that is the pruned full counter product."""
        h = build_formula_automaton(phi("F on & F off"), AB, system=loop_system(AB))
        k = len(h.acceptance)
        assert k == 2
        g = degeneralize(h)
        assert len(g.acceptance) == 1
        assert g == prune_unreachable(full_degeneralize(h))
        assert len(g.locations) < k * len(h.locations)
        assert all(l[1] == 0 for l in g.init)

    def test_language_is_preserved(self):
        rng = random.Random(99)
        done = 0
        while done < 6:
            f = random_formula(rng, BOOL_ATOMS, rng.randint(4, 10))
            h = build_formula_automaton(f, ("on", "off"))
            if len(h.acceptance) < 2:
                continue
            done += 1
            g = degeneralize(h)
            for u, v in ALL_WORDS:
                assert accepts_lasso_word(g, u, v) == evaluate_word(u, v, f), (f, u, v)


class TestNormalize:
    """instrument reads an empty family as every location final."""

    def test_empty_family_becomes_all_locations(self):
        h = heater_model()
        assert h.acceptance == ()
        assert instrument(h)[0].acceptance == (frozenset(h.locations),)

    def test_nonempty_family_is_untouched(self):
        h = build_formula_automaton(phi("F on"), ("on", "off"))
        inst, targets, *_ = instrument(h)
        assert inst.acceptance == h.acceptance
        assert {t.location for t in targets} == set(h.acceptance[0])


class TestInstrument:
    def automaton(self):
        return heater_model()

    def two_variable(self):
        h = heater_model()
        return type(h)(
            variables=("x", "a"),
            actions=h.actions,
            locations=h.locations,
            transitions=h.transitions,
            dyn={l: h.dyn[l] for l in h.locations},
            init=h.init,
            init_region=h.init_region,
            acceptance=(frozenset(h.locations),),
        )

    def test_plain_automaton_targets_every_location(self):
        h = self.automaton()
        _, targets, *_ = instrument(h)
        assert [t.location for t in targets] == list(h.locations)
        assert [t.code for t in targets] == list(range(1, len(h.locations) + 1))

    def test_aux_variables_and_rows(self):
        inst, targets, f, y, w = instrument(self.automaton())
        assert (f, y, w) == ("f", ("y",), ("x",))
        assert inst.variables == ("x", "f", "y")
        for l in inst.locations:
            texts = [str(c) for c in inst.dyn[l]]
            assert "der(f) = 0" in texts
            assert "der(y) = 0" in texts
        for l in inst.init:
            texts = [str(c) for c in inst.init_region[l]]
            assert "f = 0" in texts and "y = 0" in texts

    def test_exit_twins_and_codes(self):
        h = self.automaton()
        inst, targets, f, y, w = instrument(h)
        assert [t.code for t in targets] == [1, 2]
        assert {t.location for t in targets} == set(h.locations)
        assert len(inst.transitions) == 2 * len(h.transitions)
        twins = [t for t in inst.transitions if any("f'" in str(j) for j in t.jumps)]
        assert len(twins) == len(h.transitions)
        for t in twins:
            texts = [str(j) for j in t.jumps]
            assert "f = 0" in texts
            assert f"y' = {w[0]}" in texts

    def test_default_witness_is_lexicographically_first(self):
        inst, _, f, y, w = instrument(self.two_variable())
        assert w == ("a",)
        assert y == ("y",)
        twins = [t for t in inst.transitions if any("f'" in str(j) for j in t.jumps)]
        assert twins
        for t in twins:
            assert "y' = a" in [str(j) for j in t.jumps]

    def test_no_variables_means_no_snapshot(self):
        inst, targets, f, y, w = instrument(variable_free())
        assert (f, y, w) == ("f", (), ())
        assert inst.variables == ("f",)
        assert len(targets) == 2

    def test_generalized_family_is_degeneralized_first(self):
        h = build_formula_automaton(phi("F on & F off"), AB, system=loop_system(AB))
        assert len(h.acceptance) == 2
        got, want = instrument(h), instrument(degeneralize(h))
        assert got[0] == want[0]
        assert got[1:] == want[1:]

    def test_aux_name_collision_is_renamed(self):
        h = heater_model()
        renamed = type(h)(
            variables=("x", "f"),
            actions=h.actions,
            locations=h.locations,
            transitions=h.transitions,
            dyn={l: h.dyn[l] for l in h.locations},
            init=h.init,
            init_region=h.init_region,
            acceptance=(frozenset(h.locations),),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst, _, f, y, _ = instrument(renamed)
        assert f == "f_" and y == ("y",)
        assert "f_" in inst.variables


class TestCheck:
    """End to end verdicts on the heater."""

    def test_switch_on_stays_cold_verified(self):
        v = check(heater_model(), phi("!F(x >= 21 & X on)"))
        assert v.verified
        assert v.complete
        assert v.hits == []

    def test_relaxed_guard_goes_inconclusive_with_hot_hits(self):
        v = check(heater_model(on_guard_max=25.0), phi("!F(x >= 21 & X on)"))
        assert not v.verified
        assert v.hits
        for hit in v.hits:
            lo, hi = hit["box"]["x"]
            assert hi >= 21.0

    def test_trivial_property_verifies_on_an_empty_observer(self):
        v = check(heater_model(), phi("true"))
        assert v.verified

    def test_alternation_forces_recurring_on(self):
        v = check(heater_model(), phi("G F on"))
        assert v.verified

    def test_unreachable_target_cannot_be_confirmed(self):
        # x never exceeds 23, so F(x >= 24) is false on every trace; the
        # checker cannot falsify, it only fails to verify. Negating the
        # flow atom also crosses the complement rewrite, which warns.
        with pytest.warns(ComplementStrengtheningWarning):
            v = check(heater_model(), phi("F(x >= 24)"))
        assert not v.verified

    def test_strict_mode_refuses_undeclared_complements(self):
        with pytest.raises(ComplementError):
            check(heater_model(), phi("F(x >= 24)"), strict=True)

    def test_variable_free_model_is_checked(self):
        """With no variable to snapshot, the latch alone answers."""
        h = variable_free()
        decls = Declarations(variables=h.variables, actions=h.actions)
        v = check(h, parse_formula("G F a", decls))
        assert v.verified
        v = check(h, parse_formula("G !a", decls))
        assert v.status == "Inconclusive"
        assert [list(hit["box"]) for hit in v.hits] == [["f"]]
        assert v.stats["aux"] == {"f": "f", "y": (), "witness": ()}

    def test_verdict_renders_as_one_line(self):
        v = check(heater_model(), phi("true"))
        text = str(v)
        assert text.startswith("Verified: ") and "\n" not in text


# Every run takes go at x = 1 and then dwells in b for ever.
DWELLS_IN_B = """
vars x;
actions go, back;
location a { der(x) = 1; x <= 1; }
location b { der(x) = 1; }
edge a -go-> b { x >= 1; x' = x; }
initial a;
init { x >= 0; x <= 0.5; }
"""


def checked(model: str, text: str):
    h = parse_model(model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return check(h, parse_formula(text, Declarations(h.variables, h.actions)))


class TestVacuity:
    """A Verified verdict says when the system has no infinite run, so no
    trace at all: a run that dwells in a location for ever is not one."""

    @pytest.mark.parametrize("text", ["false", "G(x <= 0.7)", "G !go"])
    def test_dwelling_for_ever_is_no_trace(self, text):
        v = checked(DWELLS_IN_B, text)
        assert v.verified and v.stats["vacuous"] is True
        assert v.reason.startswith("vacuous: the system has no infinite run")

    def test_a_cycle_gives_runs(self):
        looped = DWELLS_IN_B + "edge b -back-> a { x' = 0; }\n"
        assert live_locations(parse_model(looped))
        v = checked(looped, "true")
        assert v.verified and v.stats["vacuous"] is False
        assert not v.reason.startswith("vacuous")
        v = checked(looped, "G !go")
        assert v.status == "Inconclusive" and v.stats["vacuous"] is False

    def test_an_empty_invariant_breaks_the_cycle(self):
        empty = DWELLS_IN_B.replace("location b { der(x) = 1; }",
                                    "location b { der(x) = 1; x >= 2; x <= 1; }")
        assert not live_locations(parse_model(empty + "edge b -back-> a { x' = 0; }\n"))

    def test_the_cycle_must_meet_every_acceptance_set(self):
        # a loops, but only b is accepting, and b lies on no cycle.
        model = DWELLS_IN_B + "edge a -back-> a { x' = 0; }\n"
        assert live_locations(parse_model(model))
        assert not live_locations(parse_model(model + "final { b }\n"))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
    def test_a_cycle_no_state_completes_gives_no_run(self):
        # a's invariant keeps x <= 1 and its only edge needs x >= 2, so no
        # run ever jumps, though the location graph has a cycle.
        v = checked("vars x;\nactions go;\nlocation a { der(x) = 1; x <= 1; }\n"
                    "edge a -go-> a { x >= 2; x' = x; }\ninitial a;\n"
                    "init { x >= 0; x <= 0.5; }\n", "false")
        assert v.verified and v.stats["vacuous"] is True

    def test_no_initial_location_is_vacuous(self):
        v = checked("vars x;\nactions a;\nlocation l { der(x) = 0; }\n"
                    "edge l -a-> l { x' = x; }\n", "false")
        assert v.verified and v.stats["vacuous"] is True

    def test_only_an_empty_product_can_be_vacuous(self):
        # check() asks live_locations of the system only when the pruned
        # product is empty: a kept location lies on a path to an accepting
        # cycle whose system part runs through live system locations.
        # Random models with some edges dropped.
        from test_soundness_oracle import positive_nnf, random_model

        rng = random.Random(2208)
        kept = dropped = 0
        for _ in range(60):
            lines = random_model(rng).splitlines()
            text = "\n".join(
                l for l in lines if not (l.startswith("edge") and rng.random() < 0.5)
            )
            h = parse_model(text)
            decls = Declarations(variables=h.variables, actions=h.actions)
            for _ in range(3):
                phi = parse_formula(f"!({positive_nnf(rng, h.variables, 4)})", decls)
                observer = build_formula_automaton(to_nnf(Not(phi)), h.actions, system=h)
                product = prune_unreachable(compose(h, observer))
                assert live_locations(h) or not product.locations, text
                kept += bool(product.locations)
            dropped += not live_locations(h)
        assert kept >= 20 and dropped >= 10

    def test_no_benchmark_case_is_vacuous(self, monkeypatch):
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(str(root))
        from perfbench.cases import MODEL_FILES, WORKLOADS

        cases = [c for w in WORKLOADS.values() for c in w.checks]
        assert len(cases) == 8
        for c in cases:
            h = load_model(root / MODEL_FILES[c.model])
            assert live_locations(h), c.model
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                f = parse_formula(c.formula, Declarations(h.variables, h.actions))
                v = check(h, f, step=c.step)
            assert v.stats["vacuous"] is False, c.label


class TestTimings:
    """stats["timings"] splits a check's wall time into its stages."""

    STAGES = ("observer", "compose+prune", "instrument", "reach", "query")

    def test_stages_cover_the_check(self):
        f = phi("!F(x >= 21 & X on) & G(x<=23) & G(off -> X(x <= 21 U on))")
        h = heater_model()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            start = time.perf_counter()
            v = check(h, f)
            wall = time.perf_counter() - start
        assert v.verified and v.stats["boxes"] > 0
        timings = v.stats["timings"]
        assert tuple(timings) == self.STAGES
        assert all(t >= 0.0 for t in timings.values())
        assert 0.9 * wall <= sum(timings.values()) <= wall

    def test_graph_only_verdict_has_every_stage(self):
        v = check(heater_model(), phi("G(on -> X(!on U off))"))
        assert v.stats["boxes"] == 0
        assert tuple(v.stats["timings"]) == self.STAGES

    def test_observer_sizes_are_reported(self):
        h = heater_model()
        f = phi("!F(x >= 21 & X on)")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = check(h, f)
            observer = build_formula_automaton(to_nnf(Not(f)), h.actions, system=h)
        assert v.stats["observer_locations"] == len(observer.locations) > 0
        assert v.stats["observer_transitions"] == len(observer.transitions) > 0


TANKS = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "tanks.hyha"


class TestIncompleteReason:
    """An incomplete exploration names its first cause and location."""

    def test_overflowing_flow_reason_names_the_failed_enclosure(self):
        # With der(a) = 800 a in resting, e^(800 h) overflows at step 1, so
        # the very first flow has no enclosure, long before any budget.
        text = TANKS.read_text().replace(
            "der(a) = -0.5 * a + 0.1 * b;", "der(a) = 800 * a;"
        )
        tanks = parse_model(text)
        decls = Declarations(variables=tanks.variables, actions=tanks.actions)
        v = check(tanks, parse_formula("!F(a >= 5 & X fill)", decls), step=1.0)
        assert v.status == "Inconclusive" and not v.complete
        assert v.reason == (
            "reachability exploration incomplete, no validated flow "
            "enclosure at location ('resting', 'q3')"
        )
        assert v.stats["reach_incomplete"] in v.reason
        assert "budget" not in v.reason

    def test_complete_run_has_no_cause(self):
        v = check(heater_model(), phi("!F(x >= 21 & X on)"))
        assert v.stats["reach_incomplete"] is None

    def test_coupled_tanks_are_verified(self):
        # Both flows of the coupled tanks are stable contractions; with an
        # exact discretization every flow completes, and the fill guard
        # a <= 2 keeps fill from following a >= 5.
        tanks = load_model(TANKS)
        decls = Declarations(variables=tanks.variables, actions=tanks.actions)
        v = check(tanks, parse_formula("!F(a >= 5 & X fill)", decls), step=0.01)
        assert v.status == "Verified" and v.complete
        assert v.stats["reach_complete"] and v.stats["reach_incomplete"] is None


class TestSettings:
    """check refuses numeric settings it cannot run on, with E_CONFIG."""

    @pytest.mark.parametrize("name", ["step", "horizon"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_step_and_horizon_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ConfigError, match=name) as err:
            check(heater_model(), phi("!F(x >= 21 & X on)"), **{name: value})
        assert err.value.code == "E_CONFIG"

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), True])
    def test_eps_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ConfigError, match="eps"):
            check(heater_model(), phi("!F(x >= 21 & X on)"), eps=value)

    @pytest.mark.parametrize("name", ["horizon", "step", "eps"])
    def test_integers_beyond_the_float_range_are_config_errors(self, name):
        # math.isfinite raises a bare OverflowError on them.
        with pytest.raises(ConfigError, match=name) as err:
            check(heater_model(), phi("!F(x >= 21 & X on)"), **{name: 10**400})
        assert err.value.code == "E_CONFIG"

    def test_a_graph_only_verdict_checks_settings_too(self):
        with pytest.raises(ConfigError):
            check(heater_model(), phi("true"), step=0.0)

    @pytest.mark.parametrize("text", ["!F(x >= 21 & X on)", "true"])
    def test_step_count_must_be_finite(self, text):
        with pytest.raises(ConfigError, match="horizon / step"):
            check(heater_model(), phi(text), horizon=1e308, step=1e-308)

    def test_boundary_values_run(self):
        v = check(heater_model(), phi("!F(x >= 21 & X on)"), eps=0.0)
        assert v.status in ("Verified", "Inconclusive")

    def test_budgets_of_one_run(self):
        # The smallest visit budget and widening threshold still give a
        # verdict; one visit cannot finish the heater's reach set.
        with mock.patch.object(engine, "MAX_VISITS", 1), \
                mock.patch.object(engine, "WIDEN_AFTER", 1):
            v = check(heater_model(), phi("!F(x >= 21 & X on)"))
        assert v.status == "Inconclusive" and not v.complete
        assert "visit budget of 1 spent" in v.stats["reach_incomplete"]

    def test_a_step_rounding_the_flow_to_the_identity_is_not_a_fixpoint(self):
        # At step 1e-17 the idle flow's one-step map rounds to the identity.
        # Its boxes would pass as fixpoints without moving and exclude the
        # states the flow really reaches; the verdict must say so.
        v = check(heater_model(), phi("!F(x >= 21 & X on)"), step=1e-17)
        assert v.status == "Inconclusive" and not v.complete
        assert "rounds the one-step flow map of ['x'] to the identity" in v.reason
        relaxed = check(heater_model(on_guard_max=25.0), phi("!F(x >= 21 & X on)"),
                        step=1e-17)
        assert not relaxed.complete
        assert "identity" in relaxed.stats["reach_incomplete"]


class TestCheckAgreesWithTheMonitor:
    """A Verified verdict must hold on every independently sampled trace."""

    def test_verified_formulas_hold_on_random_traces(self):
        h = heater_model()
        rng = random.Random(5)
        traces = []
        gen = np.random.default_rng(17)
        for _ in range(5):
            traces.append(random_trace(h, gen)[0])
        verified = 0
        for _ in range(20):
            f = random_formula(rng, BOOL_ATOMS, rng.randint(2, 7))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                v = check(h, f, horizon=30.0)
            if not v.verified:
                continue
            verified += 1
            for t in traces:
                assert evaluate_trace(t, f), (f, t.word())
        assert verified >= 3
