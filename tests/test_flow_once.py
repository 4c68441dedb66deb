"""Each distinct flow runs once per field, on the axes that move.

The kernel flows only the axes of a field that are not decoupled
constants, and a Discretization remembers every flow it has made and
the operands of its first chunks. None of it may change the results:
the frozen kernel of `reference_pipeline`, which flowed every axis and
kept nothing, gives the same four arrays, bit for bit, and the same
status, on the whole field when no flowed sum has two nonzero terms,
and on the flowed block otherwise. The engine still calls flow_tube
once per visit, but runs the kernel's flow only once per distinct
start box and invariant of a field.
"""

from __future__ import annotations

import copy
import tracemalloc
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyltlmc.reach.engine as engine_module
import hyltlmc.reach.kernels as kernels
from hyltlmc.cli import main
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.hybrid import FlowConstraint, HybridAutomaton, Relation
from hyltlmc.hybrid.expr import Const, DotVar, Mul, Var
from hyltlmc.hybrid.modelio import load_model, parse_model
from hyltlmc.product import check
from hyltlmc.reach.engine import reachable
from hyltlmc.reach.kernels import Discretization, flow_tube

from reference_pipeline import FrozenDiscretization, frozen_flow_tube

ROOT = Path(__file__).resolve().parents[1]
THREE_CONJUNCTS = "!F(x >= 21 & X on) & G(x<=23) & G(off -> X(x <= 21 U on))"
NO_ON_WHEN_WARM = "!F(x >= 21 & X on)"
SPELLED_OUT = """
vars x, y; actions go;
location a { der(x) = -0.2 * x; der(y) = 0; x >= 1; }
location b { der(x) = -0.2 * x; der(y) = 0; x >= 1; }
location c { der(x) = -0.2 * x; der(y) = 0; x >= 2; }
edge a -go-> c { x <= 5; }
initial a, b, c;
init { x >= 4; x <= 5; y >= 0; y <= 1; }
"""

# Endpoints with both zeros: the flowed arithmetic turns -0.0 into +0.0.
_END = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10.0, 10.0))
_RATE = st.one_of(st.sampled_from([0.0, -0.2, 800.0]), st.floats(-2.0, 2.0))


@st.composite
def fields(draw, coupled: bool):
    """A field of 1-3 moving axes and 0-3 decoupled constant axes in any
    order, or of constant axes only, with a start box and an invariant.

    Uncoupled moving axes have der(x_i) = a_i x_i + b_i. Coupled ones
    read each other, and at times a parameter axis (zero row and b)
    feeds the first of them; their constant axes have finite sides and
    meet the invariant.
    """
    m = draw(st.integers(1 if coupled else 0, 3))
    c = draw(st.integers(0 if m else 1, 3))
    param = coupled and draw(st.booleans())
    n = m + c + param
    order = draw(st.permutations(range(n)))
    moving, fixed = order[:m], order[m : m + c]
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i in moving:
        for j in moving if coupled else (i,):
            A[i, j] = draw(_RATE)
        b[i] = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
        if not (A[i].any() or b[i]):
            A[i, i] = -0.5  # keep the axis moving
    if param:
        A[moving[0], order[-1]] = draw(st.sampled_from([1.0, -0.5]))
    lo = np.array([draw(_END) for _ in range(n)])
    hi = lo + np.array([draw(st.sampled_from([0.0, 0.5, 3.0])) for _ in range(n)])
    hi[hi == 0.0] = draw(st.sampled_from([0.0, -0.0]))
    inv_lo = np.array([draw(st.sampled_from([-np.inf, -20.0, -0.0, 0.0])) for _ in range(n)])
    inv_hi = np.array([draw(st.sampled_from([np.inf, 20.0, -0.0, 0.0])) for _ in range(n)])
    inv_lo = np.minimum(inv_lo, lo)
    inv_hi = np.maximum(inv_hi, hi)
    for i in fixed:
        side = draw(st.integers(3 if coupled else 0, 5))
        if side == 0:  # an infinite side, as widening makes
            lo[i] = -np.inf
        elif side == 1:
            hi[i] = np.inf
        elif side == 2:  # outside the invariant
            inv_hi[i] = lo[i] - 1.0
        elif side == 3:  # an endpoint on the invariant bound
            inv_hi[i] = hi[i]
    h = draw(st.sampled_from([1e-17, 1e-3, 0.01, 0.5, 3.0]))
    n_steps = draw(st.sampled_from([0, 1, 7, 300, 600]))
    return lo, hi, A, b, h, n_steps, inv_lo, inv_hi


def assert_same(new, old, axes=slice(None)):
    *arrays, status = new
    *frozen, frozen_status = old
    assert status == frozen_status
    for a, f in zip(arrays, frozen):
        assert a.dtype == f.dtype and a[axes].tobytes() == f.tobytes(), (a, f)


def fresh_and_shared(args):
    """flow_tube's results with a fresh Discretization, and with a shared
    one on its second call (a memo hit), after the first call's arrays
    were overwritten."""
    lo, hi, A, b, h, *_ = args
    disc = Discretization(A, b, h)
    first = flow_tube(*args, disc=disc)
    fresh = tuple(a.copy() for a in first[:4]) + first[4:]
    for a in first[:4]:
        a[...] = np.nan
    hit = flow_tube(*args, disc=disc)
    assert disc.flows <= 1
    return fresh, hit


class TestFrozenKernel:
    """flow_tube gives the frozen whole-field kernel's results."""

    @settings(max_examples=400, deadline=None)
    @given(fields(coupled=False))
    def test_uncoupled_fields_bit_for_bit(self, args):
        old = frozen_flow_tube(*args)
        for new in (flow_tube(*args), *fresh_and_shared(args)):
            assert_same(new, old)

    @settings(max_examples=300, deadline=None)
    @given(fields(coupled=True))
    def test_coupled_fields_flow_their_block_bit_for_bit(self, args):
        # A dot product of two or more nonzero terms may round otherwise
        # when zeros are dropped from it (the matrix-vector product groups
        # terms by position), so the moving axes are held to the frozen
        # kernel run on the flowed block alone, and the constant axes,
        # which no rounding reaches, to the whole-field run.
        lo, hi, A, b, h, n_steps, inv_lo, inv_hi = args
        box = Discretization(A, b, h).moving
        ax = box[: len(box) // 2]
        fixed = np.setdiff1d(np.arange(len(b)), ax)
        block = frozen_flow_tube(
            lo[ax], hi[ax], A[np.ix_(ax, ax)], b[ax], h, n_steps, inv_lo[ax], inv_hi[ax]
        )
        whole = frozen_flow_tube(*args)
        for new in (flow_tube(*args), *fresh_and_shared(args)):
            assert_same(new, block, ax)
            for a, f in zip(new[:4], whole[:4]):
                assert a[fixed].tobytes() == f[fixed].tobytes()

    @pytest.mark.parametrize(
        "A, b, h",
        [
            ([[-0.2, 0.0], [0.0, 0.0]], [0.0, 0.0], 1e-17),  # stalled x
            ([[800.0, 0.0], [0.0, 0.0]], [0.0, 0.0], 1.0),  # overflowing x
            ([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], 0.01),  # all constant
            ([[-1.0, 1.0], [0.0, 0.0]], [0.0, 0.0], 0.01),  # parameter y
        ],
    )
    def test_named_fields(self, A, b, h):
        for lo, hi in (([19.0, -0.0], [21.0, -0.0]), ([19.0, 0.0], [21.0, np.inf])):
            args = (lo, hi, A, b, h, 300, [17.0, -np.inf], [23.0, np.inf])
            assert_same(flow_tube(*args), frozen_flow_tube(*args))

    def test_stalled_axes_keep_whole_field_indices(self):
        A = np.zeros((3, 3))
        A[2, 2] = -0.2
        disc = Discretization(A, np.zeros(3), 1e-17)
        assert disc.stalled == FrozenDiscretization(A, np.zeros(3), 1e-17).stalled == (2,)
        assert disc.moving.tolist() == [2, 5] and disc.fixed.tolist() == [0, 1, 3, 4]

    def test_parameter_axis_is_flowed(self):
        # der(p) = 0, der(x) = p - x: p feeds x, so both are flowed.
        disc = Discretization([[0.0, 0.0], [1.0, -1.0]], [0.0, 0.0], 0.01)
        assert disc.n == 2 and disc.fixed.size == 0


# (args, start boxes flowed first on the same field, status): heat
# der(x) = 30 - 0.2 x crosses x = 23 in its 83rd chunk, and the rotation
# probe of the benchmark runs to its budget of 79 chunks; both run past
# the chunks a Discretization keeps.
LONG_FLOWS = {
    "heat": (
        ([17.0], [17.5], [[-0.2]], [30.0], 1e-5, 100000, [-np.inf], [23.0]),
        [([17.5], [18.0]), ([16.0], [16.2])],
        kernels.FLOW_DONE,
    ),
    "rotation": (
        ([0.9, -0.1], [1.1, 0.1], [[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0],
         0.005, 20000, [-np.inf] * 2, [np.inf] * 2),
        [([1.0, 0.0], [1.2, 0.1])],
        kernels.FLOW_BUDGET,
    ),
}


class TestLongFlows:
    """Flows of many chunks, and chunk operands shared between flows."""

    @pytest.mark.parametrize("name", LONG_FLOWS)
    def test_fresh_and_after_other_flows_bit_for_bit(self, name):
        args, others, status = LONG_FLOWS[name]
        lo, hi, A, b, h, n_steps, inv_lo, inv_hi = args
        old = frozen_flow_tube(*args)
        assert old[4] == status
        assert_same(flow_tube(*args), old)
        disc = Discretization(A, b, h)
        for other_lo, other_hi in others:
            flow_tube(other_lo, other_hi, A, b, h, n_steps, inv_lo, inv_hi, disc=disc)
        assert len(disc._chunks) == kernels._KEPT_CHUNKS
        assert_same(flow_tube(*args, disc=disc), old)

    def test_chunk_operands_stay_within_their_bound(self):
        # A budget flow of 10^6 steps, 3907 chunks, on a 2-axis field
        # grows its Discretization by the documented bound (module
        # docstring of reach.kernels), with a tenth more for the array
        # headers and the remembered flow, and by more than the kept
        # chunks alone. Keeping every chunk would take 80 MB.
        n = 2
        chunk = kernels._CHUNK * (2 * n * n + n) * 8
        (lo, hi, A, b, h, _, inv_lo, inv_hi), *_ = LONG_FLOWS["rotation"]
        tracemalloc.start()
        try:
            disc = Discretization(A, b, h)
            before = tracemalloc.get_traced_memory()[0]
            *_, status = flow_tube(lo, hi, A, b, h, 10**6, inv_lo, inv_hi, disc=disc)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert status == kernels.FLOW_BUDGET
        kept = kernels._KEPT_CHUNKS
        assert kept * chunk < grown < 1.1 * (kept + 2) * chunk


def thermostat():
    return parse_model(files("hyltlmc.models").joinpath("thermostat.hyha").read_text())


def product_of(h, text: str):
    formula = parse_formula(text, Declarations(variables=h.variables, actions=h.actions))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return check(h, formula)


def counted(monkeypatch, owner, name) -> list:
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestWorkDoneOnce:
    """flow_tube is called once per visit, its flow once per distinct input."""

    @pytest.mark.parametrize(
        "model, formula, visits, flows",
        [
            (thermostat, THREE_CONJUNCTS, 38, 6),
            (lambda: load_model(ROOT / "perfbench/models/thermostat_relaxed.hyha"),
             NO_ON_WHEN_WARM, 35, 8),
        ],
    )
    def test_benchmark_products(self, monkeypatch, model, formula, visits, flows):
        product = product_of(model(), formula).product
        tubes = counted(monkeypatch, engine_module, "flow_tube")
        runs = counted(monkeypatch, kernels, "_flow")
        result = reachable(product)
        assert sum(result.visits.values()) == len(tubes) == visits
        assert len(runs) == result.flows == flows

    def test_locations_differing_in_an_invariant_flow_apart(self, monkeypatch):
        # a, b and c share one field of x and the constant y; b's bound on
        # x differs, so it flows its own box, and c repeats a's flow.
        x = Var("x")
        field = (
            FlowConstraint(DotVar("x"), Relation.EQ, Mul(Const(-0.2), x)),
            FlowConstraint(DotVar("y"), Relation.EQ, Const(0.0)),
        )
        start = (
            FlowConstraint(x, Relation.GE, Const(19.0)),
            FlowConstraint(x, Relation.LE, Const(21.0)),
            FlowConstraint(Var("y"), Relation.EQ, Const(1.0)),
        )
        floor = {"a": 17.0, "b": 18.0, "c": 17.0}
        h = HybridAutomaton(
            variables=("x", "y"),
            actions=("go",),
            locations=tuple(floor),
            transitions=[],
            dyn={l: field + (FlowConstraint(x, Relation.GE, Const(v)),) for l, v in floor.items()},
            init=tuple(floor),
            init_region={l: start for l in floor},
        )
        runs = counted(monkeypatch, kernels, "_flow")
        result = reachable(h)
        assert result.visits == {"a": 1, "b": 1, "c": 1}
        assert len(runs) == result.flows == 2
        assert result.boxes["a"][0][0].tolist() == result.boxes["c"][0][0].tolist() == [17.0, 1.0]
        assert result.boxes["b"][0][0].tolist() == [18.0, 1.0]

    def test_parsed_locations_spelling_out_one_field_share_it(self, monkeypatch):
        # The engine keys fields and invariants by value, so a and b, which
        # spell out the same field and invariant, flow once. c flows its
        # initial box and then the box a pushes, [2, 5] in x, which its
        # first tube holds but its first start box [4, 5] does not: a box
        # is skipped only inside a start box already flowed.
        h = parse_model(SPELLED_OUT)
        assert h.dyn["a"] == h.dyn["b"]
        runs = counted(monkeypatch, kernels, "_flow")
        result = reachable(h)
        assert result.visits == {"a": 1, "b": 1, "c": 2}
        assert len(runs) == result.flows == 3
        # Copies that share no object share the field all the same, and
        # give the same boxes.
        apart = reachable(HybridAutomaton(
            h.variables, h.actions, h.locations, h.transitions,
            {l: copy.deepcopy(cs) for l, cs in h.dyn.items()}, h.init, h.init_region,
        ))
        assert apart.flows == 3
        assert {l: [b.tobytes() for bx in bs for b in bx] for l, bs in result.boxes.items()} == {
            l: [b.tobytes() for bx in bs for b in bx] for l, bs in apart.boxes.items()
        }

    def test_flows_are_reported(self, capsys):
        verdict = product_of(thermostat(), THREE_CONJUNCTS)
        assert verdict.stats["flows"] == 6
        path = files("hyltlmc.models").joinpath("thermostat.hyha")
        assert main(["check", "--model", str(path), "--formula", THREE_CONJUNCTS]) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("explored: ")]
        assert line == f"explored: {verdict.stats['boxes']} boxes, 6 flows (complete)"
