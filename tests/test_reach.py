"""Box reachability: rows, affine views, flow kernels, worklist engine."""

import itertools
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from hyltlmc.errors import ConfigError, UnsupportedDynamicsError
from hyltlmc.formula.parser import Declarations, parse_flow_constraint, parse_formula
from hyltlmc.hybrid import JumpConstraint, Relation, satisfies_jump
from hyltlmc.hybrid.automaton import _solve_jump, find_accepting_witness
from hyltlmc.hybrid.expr import PrimedVar, Var
from hyltlmc.hybrid.lasso import HybridLassoTrace
from hyltlmc.hybrid.modelio import parse_model
from hyltlmc.hybrid.trajectory import SampledTrajectory
from hyltlmc.monitor import evaluate_trace
from hyltlmc.product import check
from hyltlmc.reach.boxes import (
    _box,
    _split,
    bounds,
    clip,
    compile_rows,
    full_box,
    image,
    is_empty,
    satisfiable,
)
from hyltlmc.reach.dynamics import TransitionImage, location_dynamics, transition_image
from hyltlmc.reach import engine
from hyltlmc.reach.engine import reachable
from hyltlmc.reach.kernels import (
    FLOW_BUDGET,
    FLOW_DONE,
    FLOW_NO_ENCLOSURE,
    Discretization,
    flow_tube,
)

from conftest import heater_model
from reference_pipeline import clip_rows, compile_matrix, linear_rows, reset_image

XY = Declarations(variables=("x", "y"), actions=("a",))
XYZ = Declarations(variables=("x", "y", "z"), actions=("a",))


def constraints(*texts):
    return tuple(parse_flow_constraint(t, XY) for t in texts)


def rows_of(*texts, names=("x", "y")):
    return compile_rows(constraints(*texts), names)


class TestRows:
    """Constraint normalization to a . x + k <= 0 and box clipping."""

    def test_single_variable_rows_tighten(self):
        lo, hi = bounds(clip(full_box(2), rows_of("x >= 19", "x <= 21")))
        assert lo[0] == 19.0 and hi[0] == 21.0
        assert lo[1] == -np.inf and hi[1] == np.inf

    def test_equality_becomes_two_rows(self):
        [c] = constraints("x = 5")
        assert len(c.rows) == 2
        lo, hi = bounds(clip(full_box(2), rows_of("x = 5")))
        assert lo[0] == hi[0] == 5.0

    def test_multi_variable_row_prunes_but_never_tightens(self):
        box = _box(np.zeros(2), np.ones(2))
        assert is_empty(clip(box, rows_of("x + y <= -5")))
        lo, hi = bounds(clip(box, rows_of("x + y <= 5")))
        assert (lo == 0).all() and (hi == 1).all()

    def test_constant_false_row_empties(self):
        assert is_empty(clip(full_box(2), rows_of("1 >= 2")))

    def test_contradictory_bounds_empty(self):
        assert is_empty(clip(full_box(2), rows_of("x <= 3", "x >= 4")))

    def test_row_range_is_exact_and_infinity_safe(self):
        [c] = constraints("x + 2 * y <= 0")
        [(coeffs, k)] = c.rows
        row = np.array([[a for _, a in coeffs]])
        lo = np.array([-1.0, -np.inf])
        hi = np.array([2.0, 0.0])
        r_lo, r_hi = bounds(image(_split(row), np.array([-k, k]), _box(lo, hi)))
        assert r_lo == -np.inf and r_hi == 2.0

    def test_rows_with_primed_or_dotted_variables_give_none(self):
        assert constraints("der(x) = 1")[0].rows == ()
        assert JumpConstraint(PrimedVar("x"), Relation.GE, Var("x")).rows == ()
        guard = JumpConstraint(Var("x"), Relation.LE, Var("y"))
        assert guard.rows == (((("x", 1.0), ("y", -1.0)), 0.0),)

    def test_box_algebra(self):
        a = _box([0.0], [2.0])
        b = _box([1.0], [3.0])
        assert bounds(np.maximum(a, b)) == (pytest.approx([0.0]), pytest.approx([3.0]))


@st.composite
def start_boxes(draw, n):
    """A nonempty box with small integer endpoints; any side may be infinite."""
    lo, hi = [], []
    for _ in range(n):
        a, b = sorted(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
        lo.append(-np.inf if draw(st.booleans()) else float(a))
        hi.append(np.inf if draw(st.booleans()) else float(b))
    return np.array(lo), np.array(hi)


@st.composite
def row_sets(draw, n):
    """Rows C x + d <= 0 of every kind: zero, single-variable, over several
    variables, and contradictory pairs on one axis. Single-variable
    coefficients are powers of two, so every bound is a multiple of 1/4
    and every sum over the box stays exact."""
    rows = []
    for kind in draw(st.lists(st.sampled_from(["zero", "single", "multi", "clash"]), max_size=5)):
        row = np.zeros(n)
        k = float(draw(st.integers(-6, 6)))
        i = draw(st.integers(0, n - 1))
        if kind == "single":
            row[i] = draw(st.sampled_from([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0]))
        elif kind == "multi" and n > 1:
            for j in draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)):
                row[j] = draw(st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]))
        elif kind == "clash":
            # x_i <= -k and x_i >= 1 - k.
            other = np.zeros(n)
            row[i], other[i] = 1.0, -1.0
            rows.append((other, 1.0 - k))
        rows.append((row, k))
    if not rows:
        return np.zeros((0, n)), np.zeros(0)
    return np.array([r for r, _ in rows]), np.array([k for _, k in rows])


class MatrixRows(NamedTuple):
    """A constraint stand-in that carries one matrix row as its rows."""

    rows: tuple


def as_constraints(C, d, names):
    return [
        MatrixRows(((tuple(zip(names, map(float, row))), float(k)),)) for row, k in zip(C, d)
    ]


@st.composite
def drawn_constraints(draw, n):
    """Up to six constraints over the first n of x, y, z, of every kind
    that reads as rows or as none: single-variable, multi-variable with
    zero terms, constant, nonaffine, der() and primed, under every
    relation."""
    names = ("x", "y", "z")[:n]
    coeff = st.sampled_from(["0", "1", "-1", "2", "-3", "0.5", "-0.25", "1e-3"])
    const = st.sampled_from(["0", "1", "-2", "5", "0.1", "-7.5"])
    rel = st.sampled_from(["<", "<=", "=", ">=", ">"])
    var = st.sampled_from(names)
    out = []
    kinds = ["single", "multi", "constant", "nonaffine", "der", "primed"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        r, k, x = draw(rel), draw(const), draw(var)
        if kind == "primed":
            out.append(JumpConstraint(PrimedVar(x), Relation(r), Var(draw(var))))
            continue
        lhs = {
            "single": f"{draw(coeff)} * {x}",
            "multi": " + ".join(f"{draw(coeff)} * {v}" for v in names),
            "constant": draw(const),
            "nonaffine": f"{x} * {draw(var)}",
            "der": f"der({x})",
        }[kind]
        out.append(parse_flow_constraint(f"{lhs} {r} {k}", XYZ))
    return names, out


class TestAgainstFrozenAlgebra:
    """The compiled clip and the reset image agree exactly with the
    (lo, hi) operations frozen in reference_pipeline. Small integer data
    keep every sum exact, so any difference is a fault, not rounding.
    compile_rows does the arithmetic of the matrix reader frozen there,
    so its clips agree with it bit for bit on any data."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(start_boxes(n), row_sets(n))))
    def test_clip(self, case):
        (lo, hi), (C, d) = case
        r_lo, r_hi = clip_rows(lo, hi, C, d)
        names = [f"x{i}" for i in range(len(lo))]
        z = clip(_box(lo, hi), compile_rows(as_constraints(C, d, names), names))
        assert is_empty(z) == bool((r_lo > r_hi).any())
        if not is_empty(z):
            n_lo, n_hi = bounds(z)
            assert n_lo.tobytes() == r_lo.tobytes() and n_hi.tobytes() == r_hi.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                start_boxes(n),
                st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            )
        )
    )
    def test_reset_image(self, case):
        (lo, hi), R, r = case
        n = len(lo)
        R = np.array(R, dtype=np.float64).reshape(n, n)
        r = np.array(r, dtype=np.float64)
        img = TransitionImage(compile_rows((), ()), R, np.concatenate([-r, r]))
        r_lo, r_hi = reset_image(img, lo, hi)
        n_lo, n_hi = bounds(image(_split(R), np.concatenate([-r, r]), _box(lo, hi)))
        # Equal as floats: a zero endpoint summed in z = (-lo, hi) may come
        # out as 0.0 where the (lo, hi) sum gives -0.0, or the reverse.
        assert np.array_equal(n_lo, r_lo) and np.array_equal(n_hi, r_hi)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(drawn_constraints))
    def test_compile_rows_matches_the_matrix_reader(self, case):
        names, cs = case
        got = compile_rows(cs, names)
        want = compile_matrix(*linear_rows(cs, names))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(drawn_constraints(n), start_boxes(n))))
    def test_pruning_agrees_with_the_engine_clip(self, case):
        (names, cs), (lo, hi) = case
        if not satisfiable(cs):
            assert is_empty(clip(_box(lo, hi), compile_rows(cs, names)))


class TestDynamics:
    """Affine extraction of derivatives, invariants, guards and resets."""

    def test_heater_fields(self):
        h = heater_model()

        def inv_bounds(l):
            return bounds(clip(full_box(1), compile_rows(h.invariant(l), h.variables)))

        idle = location_dynamics(h, "idle")
        assert idle.A == pytest.approx(np.array([[-0.2]]))
        assert idle.b == pytest.approx([0.0])
        inv_lo, inv_hi = inv_bounds("idle")
        assert inv_lo[0] == 17.0 and inv_hi[0] == np.inf
        heat = location_dynamics(h, "heat")
        assert heat.A == pytest.approx(np.array([[-0.2]]))
        assert heat.b == pytest.approx([30.0])
        inv_lo, inv_hi = inv_bounds("heat")
        assert inv_lo[0] == -np.inf and inv_hi[0] == 23.0

    def test_heater_jump_views(self):
        h = heater_model()
        on = next(t for t in h.transitions if t.action == "on")
        img = transition_image(h, on)
        assert img.R == pytest.approx(np.eye(1))
        assert img.offset == pytest.approx([0.0, 0.0])
        lo, hi = bounds(clip(full_box(1), img.guard))
        assert hi[0] == 19.0

    def model(self, text):
        return parse_model(text)

    def test_missing_derivative_is_rejected(self):
        h = self.model(
            "vars x; actions a;\nlocation p { x >= 0; }\ninitial p;"
        )
        with pytest.raises(UnsupportedDynamicsError, match="no derivative"):
            location_dynamics(h, "p")

    def test_nonlinear_derivative_is_rejected(self):
        h = self.model(
            "vars x; actions a;\nlocation p { der(x) = x * x; }\ninitial p;"
        )
        with pytest.raises(UnsupportedDynamicsError) as e:
            location_dynamics(h, "p")
        # The constraint is named once.
        assert str(e.value) == "'p': 'der(x) = x * x' is not affine"

    def test_derivative_on_the_right_is_read(self):
        h = self.model(
            "vars x; actions a;\nlocation p { -0.2 * x = der(x); }\ninitial p;"
        )
        d = location_dynamics(h, "p")
        assert d.A.tolist() == [[-0.2]] and d.b.tolist() == [0.0]

    @pytest.mark.parametrize("flow, message", [
        ("der(x) = 1; der(x) = 2;", "'p': two derivative equations for x"),
        ("der(x) = der(y); der(y) = 0;",
         "'p': cannot read 'der(x) = der(y)' as der(x) = affine state expression"),
    ])
    def test_unreadable_derivative_equations_are_rejected(self, flow, message):
        h = self.model(
            f"vars x, y; actions a;\nlocation p {{ {flow} }}\ninitial p;"
        )
        with pytest.raises(UnsupportedDynamicsError) as e:
            location_dynamics(h, "p")
        assert str(e.value) == message

    def test_derivative_inequality_is_rejected(self):
        h = self.model(
            "vars x; actions a;\nlocation p { der(x) <= 1; }\ninitial p;"
        )
        with pytest.raises(UnsupportedDynamicsError, match="not an equation"):
            location_dynamics(h, "p")

    def test_nonlinear_reset_is_rejected(self):
        h = self.model(
            "vars x; actions a;\n"
            "location p { der(x) = 0; }\n"
            "edge p -a-> p { x' = x * x; }\ninitial p;"
        )
        t = h.transitions[0]
        with pytest.raises(UnsupportedDynamicsError, match="not affine"):
            transition_image(h, t)

    def test_nondefining_primed_row_frees_the_variable(self):
        # x' >= x constrains the successor but defines nothing, so the
        # image of x is unbounded; y, which no row mentions, keeps its
        # value, and the primed row adds nothing to the guard.
        h = self.model(
            "vars x, y; actions a;\n"
            "location p { der(x) = 0; der(y) = 0; }\n"
            "edge p -a-> p { x' >= x; }\ninitial p;"
        )
        img = transition_image(h, h.transitions[0])
        assert img.R.tolist() == [[0.0, 0.0], [0.0, 1.0]]
        assert img.offset.tolist() == [np.inf, 0.0, np.inf, 0.0]
        assert (img.guard.u == np.inf).all() and len(img.guard.k) == 0
        lo, hi = bounds(image(_split(img.R), img.offset, _box([1.0, 2.0], [1.0, 2.0])))
        assert lo.tolist() == [-np.inf, 2.0] and hi.tolist() == [np.inf, 2.0]

    @pytest.mark.parametrize(
        "row, defined, clamped",
        [
            ("x' = y + 1", {"x"}, {}),
            ("y + 1 = x'", {"x"}, {}),
            ("x' = y'", set(), {}),
            ("2 * x' = x", set(), {"x": 1.5}),
            ("x' >= x", set(), {"x": 3.0}),
            ("x' >= y + 1", set(), {"x": 6.0}),
            ("x' <= x - 2", set(), {"x": 1.0}),
        ],
    )
    def test_one_reset_rule(self, row, defined, clamped):
        """transition_image and the simulator's _solve_jump read the same
        defining rows: a defined variable gets one value in both, a
        constrained but undefined one is free in the image, and any other
        variable is kept by both. The canonical successor clamps a
        constrained variable's old value into the bounds its rows with a
        single primed variable give (clamped), and keeps it otherwise."""
        h = self.model(
            "vars x, y, z; actions a;\n"
            "location p { der(x) = 0; der(y) = 0; der(z) = 0; }\n"
            f"edge p -a-> p {{ {row}; }}\ninitial p;"
        )
        t = h.transitions[0]
        assert {jc.defines[0] for jc in t.jumps if jc.defines} == defined
        start = {"x": 3.0, "y": 5.0, "z": 7.0}
        img = transition_image(h, t)
        point = [start[x] for x in h.variables]
        lo, hi = bounds(image(_split(img.R), img.offset, _box(point, point)))
        successor = _solve_jump(start, t.jumps, h.variables)
        primed = set().union(*(jc.primed_vars for jc in t.jumps))
        for i, x in enumerate(h.variables):
            if x in defined:
                assert lo[i] == hi[i] == successor[x] == start["y"] + 1
            elif x in primed:
                assert (lo[i], hi[i]) == (-np.inf, np.inf)
                assert successor[x] == clamped.get(x, start[x])
            else:
                assert lo[i] == hi[i] == successor[x] == start[x]
        # Every row holds on the successor, except x' = y', which bounds
        # no single primed variable.
        holds = all(satisfies_jump(start, successor, jc) for jc in t.jumps)
        assert holds == (row != "x' = y'")


# A jump row that constrains x' without defining it: x' >= x lets x jump
# from 0.5 to 50, which violates !F(x >= 5).
UNDEFINED_RESET = """
vars x; actions go, stay;
location a { der(x) = 0; }
location b { der(x) = 0; }
edge a -go-> b { x' >= x; }
edge b -stay-> b { x' = x; }
initial a; init { x >= 0; x <= 1; }
"""


class TestUndefinedReset:
    """A variable that a jump constrains but does not define is free in
    reachability, so the violated property is never Verified."""

    def test_a_run_violates_the_property(self):
        h = parse_model(UNDEFINED_RESET)
        formula = parse_formula("!F(x >= 5)", Declarations(h.variables, h.actions))

        def segment(x, action):
            return SampledTrajectory(("x",), [[x], [x], [x]], 0.1, np.zeros((3, 1))), action

        trace = HybridLassoTrace([segment(0.5, "go")], [segment(50.0, "stay")])
        assert find_accepting_witness(trace, h) == (("a",), ("b",))
        assert not evaluate_trace(trace, formula)

    def test_check_is_inconclusive(self):
        h = parse_model(UNDEFINED_RESET)
        formula = parse_formula("!F(x >= 5)", Declarations(h.variables, h.actions))
        verdict = check(h, formula)
        # The jump leaves x unbounded in b, so the recurrence query
        # cannot be ruled out there: the hit shows the infinite range.
        assert verdict.status == "Inconclusive"
        assert any(
            hit["location"][0] == "b" and hit["box"]["x"][1] == np.inf
            for hit in verdict.hits
        )


class TestFlowKernel:
    """Single-location tubes: soundness, clipping and status codes."""

    def decay(self, lo, hi, inv_lo=17.0, inv_hi=np.inf, h=0.01, n=20000):
        return flow_tube(
            np.array([lo]),
            np.array([hi]),
            np.array([[-0.2]]),
            np.array([0.0]),
            h,
            n,
            np.array([inv_lo]),
            np.array([inv_hi]),
        )

    def test_decay_settles_on_the_invariant_floor(self):
        # The kernel stops once the step image is forward invariant, which
        # happens as soon as the lower edge reaches the floor; the final
        # box still sits inside the tube.
        tube_lo, tube_hi, end_lo, end_hi, status = self.decay(19.0, 21.0)
        assert status == FLOW_DONE
        assert tube_lo[0] == 17.0
        assert tube_hi[0] == 21.0
        assert end_lo[0] == 17.0
        assert end_hi[0] <= 21.0

    def test_tube_contains_the_analytic_flow(self):
        # x(t) = x0 exp(-t / 5) stays inside the tube for every start.
        tube_lo, tube_hi, _, _, status = self.decay(19.0, 21.0, inv_lo=-np.inf)
        # Without a floor the box keeps shrinking toward 0, so the step
        # budget may run out before a fixpoint; the tube stays sound.
        assert status in (FLOW_DONE, FLOW_BUDGET)
        for x0 in np.linspace(19.0, 21.0, 7):
            xs = x0 * np.exp(-0.2 * np.linspace(0.0, 200.0, 5000))
            assert (xs >= tube_lo[0] - 1e-9).all()
            assert (xs <= tube_hi[0] + 1e-9).all()

    def test_budget_exhaustion_is_reported(self):
        *_, status = self.decay(19.0, 21.0, n=3)
        assert status == FLOW_BUDGET

    @pytest.mark.parametrize(
        "rate, drift",
        [
            (800.0, 0.0),  # e^(800 h) overflows at step 1
            (1.0, 1e300),  # the offsets v_k overflow after about 20 steps
        ],
    )
    def test_overflowing_flow_map_is_reported(self, rate, drift):
        *_, status = flow_tube(
            [19.0], [21.0], [[rate]], [drift], 1.0, 100, [17.0], [np.inf]
        )
        assert status == FLOW_NO_ENCLOSURE

    def test_step_rounding_the_map_to_the_identity_is_reported(self):
        # At step 1e-17, e^(-0.2 h) rounds to 1 and g is 0, so the first
        # segment would pass the fixpoint rule without moving.
        disc = Discretization(np.array([[-0.2]]), np.array([0.0]), 1e-17)
        assert disc.stalled == (0,)
        tube_lo, tube_hi, _, _, status = flow_tube(
            [19.0], [21.0], [[-0.2]], [0.0], 1e-17, 10**19, [17.0], [np.inf]
        )
        assert status == FLOW_NO_ENCLOSURE
        assert tube_lo.tolist() == [19.0] and tube_hi.tolist() == [21.0]

    def test_constant_axes_and_usable_steps_are_not_stalled(self):
        A = np.array([[-0.2, 0.0], [0.0, 0.0]])
        assert Discretization(A, np.zeros(2), 1e-17).stalled == (0,)
        assert Discretization(A, np.zeros(2), 1e-6).stalled == ()
        # A drift alone moves the axis: g = 1e-17 is not 0.
        assert Discretization(np.zeros((1, 1)), np.ones(1), 1e-17).stalled == ()

    def test_large_steps_stay_sound(self):
        # The first segment's remainder bound is loose at step 50 but the
        # flow still completes, and the tube covers the analytic decay.
        tube_lo, tube_hi, _, _, status = self.decay(19.0, 21.0, h=50.0)
        assert status == FLOW_DONE
        assert tube_lo[0] == 17.0 and tube_hi[0] >= 21.0


class TestOpenKernelDefects:
    """Kernel defects recorded as FOUND in CHANGES.md, pinned until mended."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
    def test_a_flow_below_rounding_does_not_finish_in_place(self):
        # The thermostat's heat flow: g = 3e-16 is below half an ulp of 21,
        # so the step image rounds back onto the start box.
        _, tube_hi, _, _, status = flow_tube(
            [19.0], [21.0], [[-0.2]], [30.0], 1e-17, 10**6, [-np.inf], [23.0]
        )
        assert status != FLOW_DONE or tube_hi[0] >= 23.0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 8")
    def test_a_one_sided_equilibrium_reaches_the_fixpoint(self):
        # x converges to 30 from below; each segment's image reaches past it.
        *_, status = flow_tube(
            [19.0, 1.0, 19.5], [21.0, 1.0, 20.5], _AUX_A, _AUX_B, 0.01, 20000,
            [17.0, -np.inf, -np.inf], [np.inf] * 3,
        )
        assert status == FLOW_DONE

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
    def test_one_infinite_side_keeps_the_finite_sides(self):
        # x only decreases from at most 21 and y stays at most 3.
        _, tube_hi, *_ = flow_tube(
            [19.0, -np.inf], [21.0, 3.0], [[-0.2, 0.1], [0.0, -1.0]], [0.0, 0.0],
            0.01, 20000, [17.0, -np.inf], [np.inf, np.inf],
        )
        assert np.isfinite(tube_hi).all()


def bench_kernel_inputs(steps=20000):
    """Heater, rotation and dense 6-d flow_tube inputs.

    The same three inputs are timed by the benchmark's kernels.probe.*
    metrics (perfbench/bench.py, kernel_probe).
    """
    rng = np.random.default_rng(11)
    A6 = -np.eye(6) + 0.1 * rng.standard_normal((6, 6))
    b6 = rng.standard_normal(6) * 0.1
    return {
        "heater": ([19.0], [21.0], [[-0.2]], [0.0], 0.01, steps, [17.0], [np.inf]),
        "rotation": (
            [0.9, -0.1], [1.1, 0.1], [[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0],
            0.005, steps, [-np.inf] * 2, [np.inf] * 2,
        ),
        "dense6d": ([-1.0] * 6, [1.0] * 6, A6, b6, 0.01, steps, [-100.0] * 6, [100.0] * 6),
    }


# Sparse rows with a zero row and a zero column, as in an instrumented
# product: x flows, the latch f and the snapshot y are constant.
_AUX_A = [[-0.2, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
_AUX_B = [6.0, 0.0, 0.0]


@st.composite
def kernel_inputs(draw):
    n = draw(st.integers(1, 4))
    coef = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
    A = [[draw(coef) for _ in range(n)] for _ in range(n)]
    b = [draw(st.floats(-5.0, 5.0)) for _ in range(n)]
    for i in range(n):
        # Constant axes (zero row and b) and unread axes (zero column).
        if draw(st.integers(0, 3)) == 0:
            A[i] = [0.0] * n
            b[i] = 0.0
        if draw(st.integers(0, 3)) == 0:
            for row in A:
                row[i] = 0.0
    lo = [draw(st.floats(-10.0, 10.0)) for _ in range(n)]
    hi = [x + draw(st.floats(0.0, 3.0)) for x in lo]
    side = draw(st.integers(0, 4 * n - 1))
    if side < n:  # a start box with one infinite side, as widening makes
        lo[side] = -np.inf
    elif side < 2 * n:
        hi[side - n] = np.inf
    bound = st.one_of(st.just(np.inf), st.floats(0.0, 20.0))
    inv_lo = [min(x, -draw(bound)) for x in lo]
    inv_hi = [max(x, draw(bound)) for x in hi]
    h = draw(st.sampled_from([1e-3, 0.01, 0.1, 0.5, 3.0]))
    n_steps = draw(st.integers(0, 300))
    return lo, hi, A, b, h, n_steps, inv_lo, inv_hi


def start_points(lo, hi, rng, count=24):
    """Corners and random points of a start box; an infinite side is
    replaced by a point 20 beyond the finite one."""
    lo = np.where(np.isinf(lo), hi - 20.0, lo)
    hi = np.where(np.isinf(hi), lo + 20.0, hi)
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    return np.vstack([corners, rng.uniform(lo, hi, size=(count, len(lo)))])


def exact_states(A, b, starts, dt, count):
    """States at times 0, dt, .., (count - 1) dt from every start.

    Steps by scipy's exponential of the augmented matrix [[A, b], [0, 0]],
    which is exact up to rounding and independent of the kernel's own.
    An entry of the exponential is zero unless a path of nonzero entries
    of M leads to it; rounding leaves such an entry near 1e-16, which a
    state that grows to 1e18 would turn into a drift of 100 on an axis it
    does not drive, so those entries are set to zero.
    """
    n = len(b)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = b
    paths = (M != 0.0) | np.eye(n + 1, dtype=bool)
    for _ in range(n):
        paths = paths | ((paths.astype(int) @ paths.astype(int)) > 0)
    X = np.hstack([starts, np.ones((len(starts), 1))])
    out = np.empty((count, len(starts), n))
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.where(paths, expm(M * dt), 0.0).T
        for j in range(count):
            out[j] = X[:, :n]
            X = X @ step
    return out


def assert_sound(args, seed=0, samples=3000, tol=1e-9):
    """Every exactly solved state still inside the invariant is in the tube.

    A run is checked until its first sample that lies within one sample's
    travel of the invariant boundary (or beyond it), since it may leave
    between two samples. Budget runs are checked up to the time they
    cover; completed runs up to a much longer horizon.
    """
    tube_lo, tube_hi, _, _, status = flow_tube(*args)
    if status == FLOW_NO_ENCLOSURE:
        return status
    lo, hi, A, b, h, n_steps, inv_lo, inv_hi = (
        np.asarray(a, dtype=float) for a in args
    )
    covered = n_steps * h
    horizon = covered if status == FLOW_BUDGET else 4.0 * covered + 20.0
    count = int(min(samples, np.ceil(3.0 * horizon / h) + 1))
    dt = horizon / max(count - 1, 1)
    starts = start_points(lo, hi, np.random.default_rng(seed))
    xs = exact_states(A, b, starts, dt, count)
    with np.errstate(over="ignore", invalid="ignore"):
        speed = np.abs(xs @ A.T + b)
        reach = 1.5 * dt * np.maximum.accumulate(
            np.concatenate([speed[1:], speed[-1:]]), axis=0
        )
        inside = np.isfinite(xs) & (xs >= inv_lo + reach) & (xs <= inv_hi - reach)
    alive = np.logical_and.accumulate(inside.all(axis=2), axis=0)
    slack = tol * (1.0 + np.abs(xs))
    out = ((xs < tube_lo - slack) | (xs > tube_hi + slack)).any(axis=2) & alive
    assert not out.any(), (
        f"status {status}: state {xs[out][0]} outside the tube "
        f"[{tube_lo}, {tube_hi}]"
    )
    return status


class TestKernelSoundness:
    """The tube holds every exactly solved state inside the invariant."""

    @pytest.mark.parametrize("name", ["heater", "rotation", "dense6d"])
    def test_bench_inputs(self, name):
        assert_sound(bench_kernel_inputs()[name]) != FLOW_NO_ENCLOSURE

    @settings(max_examples=150, deadline=None)
    @given(kernel_inputs())
    def test_drawn_inputs(self, args):
        assert_sound(args)

    @pytest.mark.parametrize(
        "h, n_steps, inv_hi, status",
        [
            (0.01, 20000, 23.0, FLOW_DONE),  # leaves through x <= 23
            (0.01, 5, np.inf, FLOW_BUDGET),
        ],
    )
    def test_zero_rows_and_columns(self, h, n_steps, inv_hi, status):
        args = (
            [19.0, 1.0, 19.5], [21.0, 1.0, 20.5], _AUX_A, _AUX_B, h, n_steps,
            [17.0, -np.inf, -np.inf], [inv_hi, np.inf, np.inf],
        )
        assert assert_sound(args) == status

    @pytest.mark.parametrize("h, n_steps", [(0.1, 100), (1.0, 1), (1.0, 20)])
    def test_rotation_from_a_point(self, h, n_steps):
        # x peaks inside a step once the step is long enough; a point start
        # leaves no box around the orbit to hide a missed peak.
        args = ([1.0, 0.5], [1.0, 0.5], [[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0],
                h, n_steps, [-np.inf] * 2, [np.inf] * 2)
        assert assert_sound(args) == FLOW_BUDGET

    @pytest.mark.parametrize("drift", [1e6, 1e12, 1e300])
    def test_large_drift_keeps_the_growth_rate(self, drift):
        # A drift far larger than A h must not swamp A in the exponential.
        args = ([0.0], [1.0], [[0.2]], [drift], 0.01, 2000, [-np.inf], [np.inf])
        assert assert_sound(args) == FLOW_BUDGET

    def test_every_status_and_infinite_bounds(self):
        seen = set()
        for lo, hi, A, b, inv in (
            ([1.0], [2.0], [[0.5]], [0.0], ([-np.inf], [np.inf])),
            ([1.0], [2.0], [[0.0]], [1.0], ([-np.inf], [3.0])),
            ([-1.0], [1.0], [[-1.0]], [0.0], ([-np.inf], [np.inf])),
            ([1.0], [2.0], [[800.0]], [0.0], ([-np.inf], [np.inf])),
            ([0.9, -0.1], [1.1, 0.1], [[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0],
             ([-np.inf, -2.0], [2.0, np.inf])),
        ):
            for h in (1e-3, 0.05, 0.7, 4.0):
                for n_steps in (0, 1, 40, 2000):
                    seen.add(assert_sound((lo, hi, A, b, h, n_steps, *inv)))
        assert seen == {FLOW_DONE, FLOW_BUDGET, FLOW_NO_ENCLOSURE}


class TestKernelTightness:
    """Exact discretization keeps tubes close to the true reach sets."""

    def test_heater_tube_is_exact(self):
        tube_lo, tube_hi, _, _, status = flow_tube(*bench_kernel_inputs()["heater"])
        assert status == FLOW_DONE
        assert tube_lo.tolist() == [17.0] and tube_hi.tolist() == [21.0]

    def test_rotation_stays_near_its_start_radius(self):
        tube_lo, tube_hi, *_ = flow_tube(*bench_kernel_inputs()["rotation"])
        radius = np.hypot(1.1, 0.1)
        assert np.abs(tube_lo).max() <= 1.5 * radius
        assert np.abs(tube_hi).max() <= 1.5 * radius

    def test_dense6d_stays_near_its_start_box(self):
        tube_lo, tube_hi, _, _, status = flow_tube(*bench_kernel_inputs()["dense6d"])
        assert status == FLOW_DONE
        assert np.abs(tube_lo).max() <= 1.5 and np.abs(tube_hi).max() <= 1.5

    @pytest.mark.parametrize("h", [1e-3, 0.01, 0.5, 60.0])
    @pytest.mark.parametrize("n_steps", [1, 5, 20000])
    def test_constant_axes_keep_their_start_interval(self, h, n_steps):
        for rate in (-0.2, 800.0):
            A = [row[:] for row in _AUX_A]
            A[0][0] = rate
            tube_lo, tube_hi, end_lo, end_hi, _ = flow_tube(
                [19.0, 1.0, 19.5], [21.0, 1.0, 20.5], A, _AUX_B, h, n_steps,
                [17.0, -np.inf, -np.inf], [23.0, np.inf, np.inf],
            )
            assert tube_lo[1:].tolist() == end_lo[1:].tolist() == [1.0, 19.5]
            assert tube_hi[1:].tolist() == end_hi[1:].tolist() == [1.0, 20.5]

    @pytest.mark.parametrize("h", [0.5, 1.0])
    def test_constant_axis_is_not_padded_by_a_growing_one(self, h):
        tube_lo, tube_hi, *_ = flow_tube(
            [1, 1], [2, 1], [[0.5, 0], [0, 0]], [0, 0], h, 3,
            [-np.inf] * 2, [np.inf] * 2,
        )
        assert tube_lo[1] == tube_hi[1] == 1.0
        assert tube_lo[0] == 1.0 and tube_hi[0] == pytest.approx(2.0 * np.exp(1.5 * h))


class TestEngine:
    """Whole-automaton reachability on small models."""

    def test_heater_reach_hull(self):
        r = reachable(heater_model())
        assert r.complete
        assert r.hull() == {"x": (17.0, 23.0)}

    def test_heater_stores_respect_invariants(self):
        r = reachable(heater_model())
        for lo, hi in r.boxes["idle"]:
            assert lo[0] >= 17.0
        for lo, hi in r.boxes["heat"]:
            assert hi[0] <= 23.0

    def test_unbounded_initial_region_is_rejected(self):
        h = parse_model(
            "vars x; actions a;\n"
            "location p { der(x) = 0; }\n"
            "edge p -a-> p { x' = x; }\ninitial p;"
        )
        with pytest.raises(UnsupportedDynamicsError, match="unbounded"):
            reachable(h)

    @pytest.mark.parametrize("settings, name", [
        ({"step": 0.0}, "step"),
        ({"step": float("nan")}, "step"),
        ({"horizon": float("inf")}, "horizon"),
        ({"horizon": 1e308, "step": 1e-308}, "horizon / step"),
    ])
    def test_unusable_settings_are_config_errors(self, settings, name):
        with pytest.raises(ConfigError, match=name):
            reachable(heater_model(), **settings)

    def test_complete_run_records_no_cause(self):
        r = reachable(heater_model())
        assert r.cause is None and r.incompleteness() is None

    def test_visit_budget_is_named_with_its_location(self):
        with mock.patch.object(engine, "MAX_VISITS", 1):
            r = reachable(heater_model())
        assert not r.complete
        assert r.incompleteness() == (
            "incomplete, visit budget of 1 spent at location 'heat'"
        )

    def test_flow_budget_is_named_with_its_location(self):
        r = reachable(heater_model(), horizon=0.02, step=0.01)
        assert not r.complete
        assert r.cause == "flow step budget of 2 steps spent"
        assert r.cause_location == "idle"

    def test_failed_enclosure_is_named(self):
        r = reachable(heater_model(idle_rate=800.0), step=1.0)
        assert not r.complete
        assert r.cause == "no validated flow enclosure"
        assert r.cause_location == "idle"

    def test_stalled_flow_is_named(self):
        r = reachable(heater_model(), step=1e-17)
        assert not r.complete
        assert r.cause == (
            "no validated flow enclosure: step 1e-17 rounds the one-step "
            "flow map of ['x'] to the identity"
        )
        assert r.cause_location == "idle"

    def test_push_target_reads_only_its_invariant(self):
        # Every box pushed into hot is emptied by its invariant, so its
        # nonaffine dynamics are never read.
        text = (
            "vars x; actions a;\n"
            "location p { der(x) = -0.2 * x; x >= 17; }\n"
            "location hot { der(x) = x * x; x >= 30; }\n"
            "edge p -a-> hot { x <= 19; x' = x; }\n"
            "initial p;\ninit { x >= 19; x <= 21; }"
        )
        r = reachable(parse_model(text))
        assert r.complete
        assert r.boxes["hot"] == [] and r.visits["hot"] == 0
        with pytest.raises(UnsupportedDynamicsError, match="not affine"):
            reachable(parse_model(text.replace("x >= 30", "x <= 30")))

    def test_diverging_counter_terminates_by_widening(self):
        h = parse_model(
            "vars x; actions a;\n"
            "location p { der(x) = 0; }\n"
            "edge p -a-> p { x' = x + 1; }\n"
            "initial p;\ninit { x = 0; }"
        )
        r = reachable(h)
        assert r.complete
        assert r.hull()["x"][1] == np.inf

    def test_widening_bounds_the_visits_past_widen_after(self):
        # One variable has two bounds, so p takes at most 2 * 1 + 1 visits
        # past WIDEN_AFTER (module docstring).
        h = parse_model(
            "vars x; actions a;\n"
            "location p { der(x) = 0; }\n"
            "edge p -a-> p { x' = x + 1; }\n"
            "initial p;\ninit { x = 0; }"
        )
        with mock.patch.object(engine, "WIDEN_AFTER", 4):
            r = reachable(h)
        assert r.complete
        assert r.hull()["x"][1] == np.inf
        assert 4 < r.visits["p"] <= 4 + 3

    def test_geometric_shrink_terminates(self):
        # Halving produces an infinite chain of uncovered boxes; widening
        # against the start boxes must cut it off at the invariant floor.
        h = parse_model(
            "vars x; actions a;\n"
            "location p { der(x) = 0; x >= 0; x <= 8; }\n"
            "edge p -a-> p { x' = 0.5 * x; }\n"
            "initial p;\ninit { x >= 4; x <= 8; }"
        )
        r = reachable(h)
        assert r.complete
        lo, hi = r.hull()["x"]
        assert lo == 0.0 and hi == 8.0

    def test_tanks_against_false_completes_in_few_boxes(self):
        # Contracting resets push an endless chain of boxes inside the
        # hull of the stored tubes but inside no start box; joining each
        # with the hull of the start boxes ends the chain.
        root = Path(__file__).resolve().parents[1]
        tanks = parse_model((root / "perfbench/models/tanks.hyha").read_text())
        decls = Declarations(variables=tanks.variables, actions=tanks.actions)
        verdict = check(tanks, parse_formula("false", decls))
        assert verdict.complete and verdict.stats["boxes"] < 100
