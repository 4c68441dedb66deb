"""Trace-level formula evaluation and random trace generation.

The monitor computes satisfaction directly from the definition, so these
tests lean on hand-derived verdicts for concrete lassos and on agreement
with the independently built formula automaton for word-only formulas.
"""

import itertools
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyltlmc.errors import ConfigError, TraceError, UnsupportedDynamicsError
from hyltlmc.formula.nnf import to_nnf
from hyltlmc.formula.parser import Declarations, parse_flow_constraint, parse_formula
from hyltlmc.hybrid import FlowConstraint, HybridAutomaton, JumpConstraint, Relation, Transition
from hyltlmc.hybrid.constraints import satisfies_jump
from hyltlmc.hybrid.automaton import (
    _successors,
    accepts,
    find_accepting_witness,
    is_generated,
)
from hyltlmc.hybrid.modelio import parse_model
from hyltlmc.hybrid.discrete import accepts_lasso_word
from hyltlmc.hybrid.lasso import HybridLassoTrace
from hyltlmc.hybrid.expr import Const, Div, DotVar, Mul, PrimedVar, Sub, Var
from hyltlmc.hybrid.trajectory import SampledTrajectory
from hyltlmc import monitor
from hyltlmc.monitor import _succ_values, evaluate_trace, evaluate_word, random_trace
from hyltlmc.reach.boxes import bounds, clip, compile_rows, full_box
from hyltlmc.tableau import build_formula_automaton, prune_unreachable

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
            # idle's init region goes with its initial mark.
            ((("idle",), ("heat", "idle")), {"init": ("heat",), "init_region": {}}),
            ((("idle",), ("heat", "idle")), {"init_region": {"idle": ("x >= 20.5",)}}),
        ],
        ids=["wrong-length", "unknown-location", "not-initial", "outside-init"],
    )
    def test_bad_witness_is_neither_generated_nor_accepted(self, witness, changes):
        # Only the change named by the id separates each case from the
        # run test_is_a_run_of_the_heater accepts.
        if "init_region" in changes:
            changes = {**changes, "init_region": {
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

    def test_empty_cycle_is_an_error_for_the_automaton_too(self):
        """accepts_word once raised a bare ValueError on the same input."""
        h = build_formula_automaton(to_nnf(phi("F on")), ("on", "off"))
        with pytest.raises(TraceError, match="nonempty cycle"):
            accepts_lasso_word(h, ("on",), ())

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

    def test_settled_flow_without_an_enabled_edge_raises(self):
        """x settles at 5 and the only edge needs x >= 8: the simulation
        once waited for it forever."""
        h = parse_model(
            "vars x; actions a;\n"
            "location l0 { der(x) = -0.5 * x + 2.5; x >= 0; x <= 10; }\n"
            "edge l0 -a-> l0 { x >= 8; x' = x; }\n"
            "initial l0; init { x >= 4; x <= 5; }\n"
        )
        start = time.perf_counter()
        with pytest.raises(TraceError, match="stuck in 'l0'"):
            random_trace(h, np.random.default_rng(0))
        assert time.perf_counter() - start < 1.0

    # The init region reaches below the invariant x >= 5.
    CLIPPED_START = (
        "vars x; actions go;\n"
        "location a { der(x) = 1; x >= 5; x <= 20; }\n"
        "edge a -go-> a { x >= 15; x' = 6; }\n"
        "initial a; init { x >= 0; x <= 10; }\n"
    )

    def test_start_is_drawn_inside_the_invariant(self):
        """A start drawn below the invariant once left the simulation
        stuck in 'a' on about half the seeds."""
        h = parse_model(self.CLIPPED_START)
        for seed in range(20):
            trace, w = random_trace(h, np.random.default_rng(seed))
            assert trace.trajectory(1).fstate["x"] >= 5.0, seed
            assert find_accepting_witness(trace, h) is not None, seed

    def test_initial_locations_with_empty_boxes_are_skipped(self):
        h = parse_model(
            "vars x; actions go;\n"
            "location a { der(x) = 1; x >= 5; x <= 20; }\n"
            "location b { der(x) = 0; x <= 1; }\n"
            "edge a -go-> a { x >= 15; x' = 6; }\n"
            "initial a, b; init a { x >= 0; x <= 10; } init b { x >= 2; x <= 3; }\n"
        )
        for seed in range(5):
            _, w = random_trace(h, np.random.default_rng(seed))
            assert (w[0] + w[1])[0] == "a"
        only_b = rebuilt(h, init=("b",), init_region={"b": h.init_region["b"]})
        with pytest.raises(TraceError, match="no initial location"):
            random_trace(only_b, np.random.default_rng(0))

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

    def test_no_cycle_closes_when_no_state_recurs(self):
        # Every jump moves x one further, so no post-jump state comes back.
        h = parse_model(
            "vars x; actions a;\n"
            "location p { der(x) = 1; }\n"
            "edge p -a-> p { x' = x + 1; }\n"
            "initial p;\ninit { x >= 0; x <= 1; }"
        )
        with pytest.raises(TraceError, match="no cycle closed within 80 jumps"):
            random_trace(h, np.random.default_rng(0))

    def test_zero_recurrence_tol_is_usable(self):
        # Only an exact recurrence closes the lasso, and none comes.
        with mock.patch.object(monitor, "RECURRENCE_TOL", 0.0), \
                mock.patch.object(monitor, "MAX_JUMPS", 10):
            with pytest.raises(TraceError, match="no cycle closed within 10 jumps"):
                random_trace(heater_model(), np.random.default_rng(3))

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


# Every go jump must raise x by at least 1, so the successor that keeps
# x is never one; the canonical successor takes x + 1.
RAISING_JUMP = """
vars x;
actions go, back;
location a { der(x) = 1; x <= 5; }
location b { der(x) = -1; x >= 0; }
edge a -go-> b { x' >= x + 1; }
edge b -back-> a { x <= 2; x' = x; }
initial a;
init { x >= 0; x <= 1; }
"""


class TestJumpsThatMoveAVariable:
    """A jump whose rows bound x' without defining it, and exclude x' = x,
    once left the simulator stuck at the invariant of its source."""

    def model(self):
        return parse_model(RAISING_JUMP)

    def test_one_jump_takes_the_nearest_bound(self):
        h = self.model()
        (t, v2), = list(_successors(h, "a", {"x": 0.5}))
        assert t.action == "go" and v2["x"] == 1.5
        # 5.5 is above a's bound x <= 5, but b only asks x >= 0.
        (t, v2), = list(_successors(h, "a", {"x": 4.5}))
        assert v2["x"] == 5.5

    def test_random_traces_are_runs_of_the_model(self):
        h = self.model()
        decls = Declarations(variables=h.variables, actions=h.actions)
        bounded = parse_formula("G(x >= 0 & x <= 6)", decls)
        recurrent = parse_formula("G F go & G F back", decls)
        rng = np.random.default_rng(5)
        for _ in range(5):
            trace, w = random_trace(h, rng)
            assert is_generated(trace, h, w)
            assert evaluate_trace(trace, bounded)
            assert evaluate_trace(trace, recurrent)
            # Each go jump lands exactly one above its pre-jump value.
            segments = [trace.trajectory(i) for i in range(1, trace.p + trace.c + 1)]
            for i, seg in enumerate(segments):
                if trace.action_after(i + 1) == "go":
                    after = segments[(i + 1) if i + 1 < len(segments) else trace.p]
                    assert after.fstate["x"] == seg.lstate["x"] + 1.0


    def test_strict_bound_is_stepped_one_ulp_inside(self):
        h = parse_model(RAISING_JUMP.replace("x' >= x + 1", "x' > x + 1"))
        (t, v2), = list(_successors(h, "a", {"x": 0.5}))
        assert v2["x"] == np.nextafter(1.5, np.inf)
        decls = Declarations(variables=h.variables, actions=h.actions)
        recurrent = parse_formula("G F go & G F back", decls)
        for seed in range(6):
            trace, w = random_trace(h, np.random.default_rng(seed))
            assert is_generated(trace, h, w)
            assert evaluate_trace(trace, recurrent)


# Every jump lowers x by at least 2, so no jump lands where it started.
LOWERING_LOOP = """
vars x;
actions go;
location a { der(x) = 1; x <= 5; x >= -5; }
edge a -go-> a { x' <= x - 2; }
initial a;
init { x >= 0; x <= 1; }
"""


class TestLassoThroughAMovingJump:
    """The closing sample is shifted so that a jump which moves x lands
    on the recurrence target; snapped onto the target itself, the jump
    would have to keep x, and no lasso closed."""

    def test_traces_close_and_satisfy_the_model_bounds(self):
        h = parse_model(LOWERING_LOOP)
        decls = Declarations(variables=h.variables, actions=h.actions)
        holds = parse_formula("G(x >= -5 & x <= 5) & G F go", decls)
        for seed in range(6):
            trace, w = random_trace(h, np.random.default_rng(seed))
            assert is_generated(trace, h, w)
            assert evaluate_trace(trace, holds)
            # The closing jump lands exactly on the cycle's first state.
            last = trace.trajectory(trace.p + trace.c)
            first = trace.trajectory(trace.p + 1)
            assert first.fstate["x"] <= last.lstate["x"] - 2.0


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
        for v in ({"x": 22.0}, {"x": np.float64(22.0)}):
            with pytest.raises(TraceError, match=r"x' >= 0 \* \(1 / \(x - x\)\).* x=22 -> x=22"):
                satisfies_jump(v, v, row)

    def test_random_trace_names_the_invariant(self):
        h = heater_model()
        bound = phi_constraint(self.NAN_BOUND)
        h = rebuilt(h, dyn={**h.dyn, "idle": h.dyn["idle"] + (bound,)})
        with pytest.raises(TraceError, match=r"x <= 30 \+ 0 \* \(1 / \(x - x\)\)"):
            random_trace(h, np.random.default_rng(0))


class TestWitnessSearchPresentation:
    """A formula automaton's locations carry the action just taken, so its
    runs on these lassos repeat with the trace's cycle only from one cycle
    after its entry. The witness search finds them on the trace as given
    as well as on the rotated presentation of the same trace."""

    @pytest.mark.parametrize(
        "prefix, cycle", [(("on",), ("off",)), ((), ("on",))], ids=["shifted", "no-prefix"]
    )
    def test_both_presentations_find_the_run(self, prefix, cycle):
        auto = build_formula_automaton(phi("true"), ("on", "off"))
        trace = HybridLassoTrace(
            [constant_segment(0.0, a) for a in prefix], [constant_segment(0.0, a) for a in cycle]
        )
        for t in (trace, trace.rotate()):
            w = find_accepting_witness(t, auto)
            assert w is not None and accepts(t, auto, w)
            assert len(w[0]) >= t.p and len(w[1]) % t.c == 0


POSITIVE_LITERALS = ("x >= 21", "x <= 19", "x >= 18", "on", "off", "!on", "!off", "true")
THRESHOLDS = (21.0, 19.0, 18.0)
GRAZE_BAND = 1e-6


def positive_formula(rng: random.Random, size: int) -> str:
    """A formula in negation normal form whose flow atoms occur only
    positively, with at most size operators and literals."""
    if size <= 1:
        return rng.choice(POSITIVE_LITERALS)
    if size == 2 or rng.randrange(5) == 0:
        return f"X ({positive_formula(rng, size - 1)})"
    left = rng.randint(1, size - 2)
    op = rng.choice(("&", "|", "U", "R"))
    return f"({positive_formula(rng, left)}) {op} ({positive_formula(rng, size - 1 - left)})"


class TestObserverAgreesWithMonitor:
    """The formula automaton of psi accepts a trace exactly when the
    monitor says that psi holds on it. With flow atoms only positive,
    an observer label and the monitor read every atom the same way, so
    the agreement is exact on every presentation of the trace: as given,
    rotated, and with the prefix folded into the cycle."""

    def test_every_presentation(self):
        h = heater_model()
        traces, grazing = [], 0
        for seed in range(8):
            trace, _ = random_trace(h, np.random.default_rng(700 + seed))
            xs = np.concatenate([traj.values[:, 0] for traj, _ in (*trace.prefix, *trace.cycle)])
            if any(np.any(np.abs(xs - t) <= GRAZE_BAND) for t in THRESHOLDS):
                grazing += 1
                continue
            traces += [trace, trace.rotate(), HybridLassoTrace((), trace.cycle)]
        assert grazing <= 1 and len(traces) >= 21
        rng = random.Random(41)
        disagree = []
        for _ in range(40):
            psi = phi(positive_formula(rng, rng.randint(1, 9)))
            obs = prune_unreachable(build_formula_automaton(to_nnf(psi), h.actions))
            for trace in traces:
                w = find_accepting_witness(trace, obs)
                if (w is not None) != evaluate_trace(trace, psi):
                    disagree.append((psi, trace))
                assert w is None or accepts(trace, obs, w)
        assert disagree == []


class TestRunGraphWitness:
    """A witness is a lasso over the trace's positions: a prefix at least
    as long as the trace's and a cycle whose length is a multiple of its
    cycle length, each step and the wrap an edge of the run graph."""

    def test_longer_lassos_are_runs_too(self):
        trace, h = cooling_lasso(), heater_model()
        w = (("idle", "heat"), ("idle", "heat", "idle", "heat"))
        assert is_generated(trace, h, w) and accepts(trace, h, w)

    @pytest.mark.parametrize(
        "witness",
        [(("idle",), ("heat", "idle", "heat")), (("idle", "heat", "idle"), ()), ((), ("idle", "heat"))],
        ids=["cycle-not-a-multiple", "no-cycle", "prefix-too-short"],
    )
    def test_other_shapes_are_not_runs(self, witness):
        assert not is_generated(cooling_lasso(), heater_model(), witness)

    def test_a_jump_must_hold_at_its_samples(self):
        # The on jump leaves idle at x = 18.02, above a guard x <= 18.
        h = heater_model(on_guard_max=18.0)
        assert not is_generated(cooling_lasso(), h, (("idle",), ("heat", "idle")))
        assert find_accepting_witness(cooling_lasso(), h) is None

    def test_the_wrap_must_be_an_edge(self):
        # After on and then off the automaton of true is in q2 for good;
        # a cycle of q1 would need q1 -off-> q1.
        auto = build_formula_automaton(phi("true"), ("on", "off"))
        trace = HybridLassoTrace([constant_segment(0.0, "on")], [constant_segment(0.0, "off")])
        assert is_generated(trace, auto, (("q0", "q1"), ("q2",)))
        assert not is_generated(trace, auto, (("q0",), ("q1",)))

    def test_the_cycle_stays_in_its_component(self):
        # From A, D is as near as B and lies in the first set, but the run
        # cannot come back from D to A, so the cycle through A goes by B.
        h = HybridAutomaton(
            ("x",), ("a",), ("A", "B", "D"),
            [Transition(*t) for t in (("A", "a", "D"), ("A", "a", "B"), ("B", "a", "A"), ("D", "a", "D"))],
            {}, ("A",), acceptance=({"B", "D"}, {"A", "D"}),
        )
        trace = HybridLassoTrace([], [constant_segment(0.0, "a")])
        assert find_accepting_witness(trace, h) == ((), ("A", "B"))
