"""Trace-level formula evaluation and random trace generation.

The monitor computes satisfaction directly from the definition, so these
tests lean on hand-derived verdicts for concrete lassos and on agreement
with the independently built formula automaton for word-only formulas.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyltlmc.errors import ConfigError, TraceError, UnsupportedDynamicsError
from hyltlmc.formula.parser import Declarations, parse_flow_constraint, parse_formula
from hyltlmc.hybrid import FlowConstraint, HybridAutomaton, JumpConstraint, Relation
from hyltlmc.hybrid.constraints import satisfies_jump
from hyltlmc.hybrid.automaton import accepts, find_accepting_witness, is_generated
from hyltlmc.hybrid.discrete import accepts_lasso_word
from hyltlmc.hybrid.lasso import HybridLassoTrace
from hyltlmc.hybrid.expr import Const, Div, DotVar, Mul, PrimedVar, Sub, Var
from hyltlmc.hybrid.trajectory import SampledTrajectory
from hyltlmc.hybrid.valuation import Valuation
from hyltlmc.monitor import _succ_values, evaluate_trace, evaluate_word, random_trace
from hyltlmc.reach.boxes import bounds, clip, compile_rows, full_box
from hyltlmc.tableau import build_formula_automaton

from conftest import BOOL_ATOMS, heater_model, random_formula

STEP = 0.01
DECLS = Declarations(variables=("x",), actions=("on", "off"))


def phi(s: str):
    return parse_formula(s, DECLS)


def phi_constraint(s: str):
    return parse_flow_constraint(s, DECLS)


def idle_curve(x0: float, n: int) -> np.ndarray:
    return x0 * np.exp(-0.2 * STEP * np.arange(n + 1))


def heat_curve(x0: float, n: int) -> np.ndarray:
    return 150.0 - (150.0 - x0) * np.exp(-0.2 * STEP * np.arange(n + 1))


def heater_segment(vals: np.ndarray, loc: str, action: str):
    derivs = -0.2 * vals if loc == "idle" else 30.0 - 0.2 * vals
    return (SampledTrajectory(("x",), vals[:, None], STEP, derivs[:, None]), action)


def cooling_lasso() -> HybridLassoTrace:
    """One idle prefix segment, then a heat/idle cycle that closes exactly.

    Values follow the closed-form solutions of both locations' dynamics;
    the first sample after each jump and the final wrap sample are pinned
    to the exact floats the identity resets require.
    """
    a = idle_curve(20.0, 52)
    b = heat_curve(float(a[-1]), 12)
    b[0] = a[-1]
    c = idle_curve(float(b[-1]), 80)
    c[0] = b[-1]
    c[-1] = a[-1]
    return HybridLassoTrace(
        (heater_segment(a, "idle", "on"),),
        (heater_segment(b, "heat", "off"), heater_segment(c, "idle", "on")),
    )


def rebuilt(h: HybridAutomaton, **changes) -> HybridAutomaton:
    """The automaton h with some constructor arguments replaced."""
    args = dict(
        variables=h.variables, actions=h.actions, locations=h.locations,
        transitions=h.transitions, dyn=h.dyn, init=h.init,
        init_region=h.init_region, acceptance=h.acceptance,
    )
    return HybridAutomaton(**{**args, **changes})


class TestHandBuiltLasso:
    """A concrete heater lasso with every verdict derived by hand."""

    def test_is_a_run_of_the_heater(self):
        trace = cooling_lasso()
        w = (("idle",), ("heat", "idle"))
        assert is_generated(trace, heater_model(), w)
        assert accepts(trace, heater_model(), w)

    def test_wrong_location_assignment_is_rejected(self):
        trace = cooling_lasso()
        assert not is_generated(trace, heater_model(), (("idle",), ("idle", "heat")))

    @pytest.mark.parametrize(
        "witness, changes",
        [
            ((("idle",), ("heat",)), {}),
            ((("idle",), ("heat", "cool")), {}),
            ((("idle",), ("heat", "idle")), {"init": ("heat",)}),
            ((("idle",), ("heat", "idle")), {"init_region": {"idle": ("x >= 20.5",)}}),
        ],
        ids=["wrong-length", "unknown-location", "not-initial", "outside-init"],
    )
    def test_bad_witness_is_neither_generated_nor_accepted(self, witness, changes):
        # Only the change named by the id separates each case from the
        # run test_is_a_run_of_the_heater accepts.
        if "init_region" in changes:
            changes = {"init_region": {
                l: tuple(map(phi_constraint, texts))
                for l, texts in changes["init_region"].items()
            }}
        h = rebuilt(heater_model(), **changes)
        trace = cooling_lasso()
        assert is_generated(trace, h, witness) is False
        assert accepts(trace, h, witness) is False

    def test_cycle_missing_an_acceptance_set_is_not_accepted(self):
        # The cycle meets the first set but never the unreachable spare.
        h = heater_model()
        h = rebuilt(h, locations=h.locations + ("spare",),
                    acceptance=({"idle"}, {"spare"}))
        w = (("idle",), ("heat", "idle"))
        assert is_generated(cooling_lasso(), h, w)
        assert not accepts(cooling_lasso(), h, w)
        assert find_accepting_witness(cooling_lasso(), h) is None

    def test_witness_search_recovers_the_assignment(self):
        trace = cooling_lasso()
        assert find_accepting_witness(trace, heater_model()) == (
            ("idle",),
            ("heat", "idle"),
        )

    def test_formula_verdicts(self):
        # The heat segment spans roughly [18.0, 21.2], so no segment lies
        # entirely at or above 21, and none lies entirely at or below 19.
        trace = cooling_lasso()
        verdicts = {
            "!F(x >= 21 & X on)": True,
            "F(x >= 21)": False,
            "G(x >= 17)": True,
            "G(x <= 23)": True,
            "F on": True,
            "G F on": True,
            "G F (x <= 19)": False,
            "X X (x <= 23)": True,
            "on U (x >= 21 | off)": False,
        }
        for s, want in verdicts.items():
            assert evaluate_trace(trace, phi(s)) is want, s

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), True, "0"])
    def test_unusable_tol_is_a_config_error(self, tol):
        # A nan or negative tol once failed G(x >= 17) on this run, and an
        # infinite one held F(x >= 100).
        trace = cooling_lasso()
        h = heater_model()
        w = (("idle",), ("heat", "idle"))
        with pytest.raises(ConfigError, match="tol must be a finite number >= 0"):
            evaluate_trace(trace, phi("G(x >= 17)"), tol=tol)
        with pytest.raises(ConfigError, match="tol"):
            evaluate_trace(trace, phi("F(x >= 100)"), tol=tol)
        for search in (
            lambda: find_accepting_witness(trace, h, tol=tol),
            lambda: is_generated(trace, h, w, tol=tol),
            lambda: accepts(trace, h, w, tol=tol),
        ):
            with pytest.raises(ConfigError, match="tol"):
                search()

    def test_zero_tol_is_usable(self):
        assert evaluate_trace(cooling_lasso(), phi("G(x >= 17)"), tol=0)

    def test_position_one_satisfies_no_action_atom(self):
        trace = cooling_lasso()
        assert not evaluate_trace(trace, phi("on"))
        assert not evaluate_trace(trace, phi("off"))
        assert evaluate_trace(trace, phi("X on"))


class TestArtificialTrace:
    """Traces need not come from any automaton to be monitored."""

    def constant_trace(self, level: float) -> HybridLassoTrace:
        vals = np.full(11, level)
        zeros = np.zeros(11)
        seg = lambda a: (SampledTrajectory(("x",), vals[:, None], STEP, zeros[:, None]), a)
        return HybridLassoTrace((), (seg("on"), seg("off")))

    def test_flat_hot_trace_reaches_the_target(self):
        trace = self.constant_trace(22.0)
        assert evaluate_trace(trace, phi("F(x >= 21 & X on)"))
        assert not evaluate_trace(trace, phi("!F(x >= 21 & X on)"))

    def test_heater_cannot_generate_a_flat_trace(self):
        # der(x) = 0 contradicts both locations' dynamics at x = 22.
        trace = self.constant_trace(22.0)
        assert find_accepting_witness(trace, heater_model()) is None


class TestWordSemantics:
    """evaluate_word against hand derivations and the automaton route."""

    def test_hand_probes(self):
        f = phi("F on")
        assert evaluate_word((), ("on",), f)
        assert not evaluate_word((), ("off",), f)
        assert evaluate_word(("off", "off"), ("on", "off"), f)

    def test_until_discrimination(self):
        g = phi("X (on U (off & X on))")
        assert evaluate_word(("on", "on", "off"), ("on",), g)
        assert not evaluate_word(("on", "off", "off"), ("on",), g)
        assert evaluate_word((), ("on", "off"), g)
        assert not evaluate_word((), ("on",), g)

    def test_no_action_before_the_first_position(self):
        assert not evaluate_word((), ("off",), phi("on U off"))

    def test_flow_atom_is_an_error_on_words(self):
        with pytest.raises(TraceError, match="no trajectories"):
            evaluate_word((), ("on",), phi("F(x >= 21)"))

    def test_empty_cycle_is_an_error(self):
        with pytest.raises(TraceError, match="nonempty cycle"):
            evaluate_word(("on",), (), phi("F on"))

    def test_agrees_with_the_formula_automaton(self):
        words = [
            (u, v)
            for p in range(3)
            for c in (1, 2)
            for u in itertools.product(("on", "off"), repeat=p)
            for v in itertools.product(("on", "off"), repeat=c)
        ]
        rng = random.Random(31)
        for _ in range(25):
            f = random_formula(rng, BOOL_ATOMS, rng.randint(2, 9))
            h = build_formula_automaton(f, ("on", "off"))
            for u, v in words:
                assert evaluate_word(u, v, f) == accepts_lasso_word(h, u, v), (f, u, v)

    @given(st.integers(0, (1 << 12) - 1), st.integers(1, 6))
    def test_successor_shift_law(self, val, c):
        # Quotient size p + 2c with p = c here; the last position's
        # successor is the cycle entry of the second copy.
        n, wrap = 3 * c, 2 * c
        val &= (1 << n) - 1
        s = _succ_values(val, n, wrap)
        for i in range(n - 1):
            assert (s >> i) & 1 == (val >> (i + 1)) & 1
        assert (s >> (n - 1)) & 1 == (val >> wrap) & 1


class TestRandomTraces:
    """Simulated heater lassos are valid runs and the searches agree."""

    def test_corpus_is_generated_and_accepted(self):
        h = heater_model()
        rng = np.random.default_rng(7)
        for k in range(20):
            trace, w = random_trace(h, rng)
            assert is_generated(trace, h, w), k
            assert accepts(trace, h, w), k
            found = find_accepting_witness(trace, h)
            assert found is not None and accepts(trace, h, found), k

    def test_rotation_leaves_verdicts_unchanged(self):
        h = heater_model()
        rng = np.random.default_rng(11)
        formulas = [
            phi(s)
            for s in (
                "!F(x >= 21 & X on)",
                "G F on",
                "F(x <= 19 & X on)",
                "G(x >= 17)",
                "on U off",
            )
        ]
        for _ in range(6):
            trace, _w = random_trace(h, rng)
            r1 = trace.rotate()
            r2 = r1.rotate()
            for f in formulas:
                v = evaluate_trace(trace, f)
                assert evaluate_trace(r1, f) is v
                assert evaluate_trace(r2, f) is v

    def test_same_seed_same_trace(self):
        h = heater_model()
        t1, w1 = random_trace(h, np.random.default_rng(3))
        t2, w2 = random_trace(h, np.random.default_rng(3))
        assert w1 == w2
        assert t1.word() == t2.word()
        assert np.array_equal(
            t1.trajectory(1).values, t2.trajectory(1).values
        )

    def test_initial_region_is_respected(self):
        h = heater_model()
        rng = np.random.default_rng(19)
        for _ in range(10):
            trace, w = random_trace(h, rng)
            first = w[0][0] if w[0] else w[1][0]
            assert first == "idle"
            x0 = trace.trajectory(1).fstate["x"]
            assert 19.0 <= x0 <= 21.0

    def test_no_initial_location_is_an_error(self):
        empty = rebuilt(heater_model(), init=(), init_region={})
        with pytest.raises(TraceError, match="no initial location"):
            random_trace(empty, np.random.default_rng(0))

    def test_unbounded_initial_region_is_an_error(self):
        unbounded = rebuilt(heater_model(), init_region={})
        with pytest.raises(TraceError, match="bounded interval"):
            random_trace(unbounded, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("step", 0.0),
            ("step", -0.05),
            ("step", float("nan")),
            ("dwell_max", float("nan")),
            ("dwell_max", 0.0),
            ("dwell_max", float("inf")),
            ("recurrence_tol", float("nan")),
            ("recurrence_tol", -0.01),
            ("max_jumps", 0),
            ("max_jumps", 2.5),
            ("max_jumps", True),
        ],
    )
    def test_unusable_settings_are_config_errors(self, setting, value):
        # step 0 or below once simulated forever, a nan recurrence_tol
        # closed the lasso at the first revisit and a nan dwell_max raised
        # a bare OverflowError.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match=setting):
            random_trace(heater_model(), rng, **{setting: value})
        assert rng.bit_generator.state == state

    def test_zero_recurrence_tol_is_usable(self):
        # Only an exact recurrence closes the lasso, and none comes.
        with pytest.raises(TraceError, match="no cycle closed within 10 jumps"):
            random_trace(
                heater_model(), np.random.default_rng(3), recurrence_tol=0, max_jumps=10
            )

    @pytest.mark.parametrize(
        "heat_flow",
        [
            (FlowConstraint(DotVar("x"), Relation.EQ, Mul(Var("x"), Var("x"))),),
            (),
        ],
        ids=["nonaffine", "no-der"],
    )
    def test_dynamics_outside_the_affine_fragment_are_unsupported(self, heat_flow):
        h = heater_model()
        inv = (FlowConstraint(Var("x"), Relation.LE, Const(23.0)),)
        h = rebuilt(h, dyn={**h.dyn, "heat": heat_flow + inv})
        with pytest.raises(UnsupportedDynamicsError):
            random_trace(h, np.random.default_rng(0))


class TestBoundingBox:
    """Interval extraction from conjunctions of state constraints, as
    random_trace reads its initial box: the full box clipped by the rows."""

    def probe(self, *texts, names=("x",)):
        decls = Declarations(variables=("x", "y"), actions=("on",))
        rows = compile_rows(tuple(parse_flow_constraint(t, decls) for t in texts), names)
        lo, hi = bounds(clip(full_box(len(names)), rows))
        return {x: (lo[i], hi[i]) for i, x in enumerate(names)}

    def test_two_sided_interval(self):
        assert self.probe("x >= 19", "x <= 21") == {"x": (19.0, 21.0)}

    def test_equality_pins_both_ends(self):
        assert self.probe("x = 5") == {"x": (5.0, 5.0)}

    def test_coefficients_and_sign_flips(self):
        assert self.probe("2 * x < 10", "-3 * x < 9") == {"x": (-3.0, 5.0)}

    def test_unconstrained_variable_is_unbounded(self):
        box = self.probe("x >= 19", "x <= 21", names=("x", "y"))
        assert box["y"] == (-np.inf, np.inf)

    def test_multi_variable_rows_are_skipped(self):
        box = self.probe("x + y <= 4", names=("x", "y"))
        assert box == {"x": (-np.inf, np.inf), "y": (-np.inf, np.inf)}

    def test_constant_false_empties_the_box(self):
        lo, hi = self.probe("1 >= 2")["x"]
        assert lo > hi

    def test_nonlinear_rows_are_skipped(self):
        assert self.probe("x * x <= 4") == {"x": (-np.inf, np.inf)}


def constant_segment(x: float, action: str):
    return SampledTrajectory(("x",), [[x], [x], [x]], 0.1, np.zeros((3, 1))), action


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestUndefinedComparisons:
    """A side that is nan at a sample makes the comparison undefined, not
    false: 0 * (1 / (x - x)) is nan at every x, while 1 / (x - x) is a
    defined +inf."""

    NAN_BOUND = "x <= 30 + 0 * (1/(x - x))"

    def test_monitor_raises_on_the_atom_and_its_negation(self):
        trace = HybridLassoTrace([], [constant_segment(22.0, "on")])
        for text in (f"G({self.NAN_BOUND})", f"!G({self.NAN_BOUND})"):
            with pytest.raises(TraceError, match=r"x <= 30 \+ 0 \* \(1 / \(x - x\)\).* x=22"):
                evaluate_trace(trace, phi(text))

    def test_an_infinite_side_stays_a_comparison(self):
        trace = HybridLassoTrace([], [constant_segment(22.0, "on")])
        assert evaluate_trace(trace, phi("G(x <= 1/(x - x))"))
        assert not evaluate_trace(trace, phi("F(x >= 1/(x - x))"))

    def test_jump_row_raises(self):
        nan = Mul(Const(0.0), Div(Const(1.0), Sub(Var("x"), Var("x"))))
        row = JumpConstraint(PrimedVar("x"), Relation.GE, nan)
        v = Valuation({"x": np.float64(22.0)})
        with pytest.raises(TraceError, match=r"x' >= 0 \* \(1 / \(x - x\)\).* x=22 -> x=22"):
            satisfies_jump(v, v, row)

    def test_random_trace_names_the_invariant(self):
        h = heater_model()
        bound = phi_constraint(self.NAN_BOUND)
        h = rebuilt(h, dyn={**h.dyn, "idle": h.dyn["idle"] + (bound,)})
        with pytest.raises(TraceError, match=r"x <= 30 \+ 0 \* \(1 / \(x - x\)\)"):
            random_trace(h, np.random.default_rng(0))


class TestWitnessSearchPresentation:
    """find_accepting_witness tries only location sequences that repeat
    with the trace's own cycle from its entry. A formula automaton's
    locations carry the action just taken, so on these lassos the search
    finds its run only on the rotated presentation of the same trace."""

    @pytest.mark.parametrize(
        "prefix, cycle", [(("on",), ("off",)), ((), ("on",))], ids=["shifted", "no-prefix"]
    )
    def test_rotation_finds_the_run(self, prefix, cycle):
        auto = build_formula_automaton(phi("true"), ("on", "off"))
        trace = HybridLassoTrace(
            [constant_segment(0.0, a) for a in prefix], [constant_segment(0.0, a) for a in cycle]
        )
        assert find_accepting_witness(trace, auto) is None
        assert find_accepting_witness(trace.rotate(), auto) is not None
