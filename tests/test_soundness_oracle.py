"""Soundness oracle on seeded random automata.

Each automaton has 1-2 variables and 1-3 locations, and every location
has a contracting field der(v) = -r (v - c) per variable, with r in
[0.1, 1], and the bounded invariant -1 <= v <= 11. In each location one
variable drives: its equilibrium c lies beyond the invariant, and the
location's out-edge has a guard that c meets, so every run reaches that
guard before the invariant ends, and the simulation keeps jumping. The
other variable settles toward an equilibrium inside [0, 10]. Some
locations get a second edge with a random guard. Init lies inside
[0, 10], and every reset is the identity or a contracting affine map of
[-1, 11] into itself.

The driving variable leaves the invariant in finite time, which ends
every flow tube, so reachability can complete (a flow that approaches an
equilibrium from one side spends its step budget instead).

Formulas are phi = !psi with psi in negation normal form over positive
flow atoms, action literals and true, so the observer of !phi is psi's
own and no complement is taken. Whenever check() says Verified, every
simulated trace must satisfy phi.

When reachability completes, every simulated state must lie in a stored
box of its location, with one variable and with two. The engine skips a
pushed box only inside a start box already flowed at its location, not
inside a stored tube: a tube that ends by leaving the invariant is the
hull of the flow from its own start box only, and a state inside that
hull but outside the start box can flow out of it on an axis that
settles while the other axis is still on its way out.
"""

import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from hyltlmc.errors import ComplementStrengtheningWarning, TraceError
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.hybrid.modelio import load_model, parse_model
from hyltlmc.monitor import evaluate_trace, random_trace
from hyltlmc.product import check
from hyltlmc.reach import reachable
from hyltlmc.reach.boxes import clip, compile_rows

SETTINGS = dict(step=0.05, horizon=20.0)
CONTAINMENT_TOL = 1e-9
AUTOMATA = 12
FORMULAS = 4
TRACES = 3

# Replayed after the run by conftest's terminal summary.
REPORT_LINES: list[str] = []


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def random_model(rng: random.Random) -> str:
    names = ("x", "z")[: rng.randint(1, 2)]
    locs = [f"l{i}" for i in range(rng.randint(1, 3))]
    lines = [f"vars {', '.join(names)};", "actions a, b;"]
    driver = {l: rng.choice(names) for l in locs}
    up = {l: rng.random() < 0.5 for l in locs}
    for l in locs:
        body = []
        for v in names:
            r = _num(rng, 0.1, 1.0)
            if v != driver[l]:
                c = _num(rng, 0.0, 10.0)
            else:
                c = _num(rng, 16.0, 22.0) if up[l] else _num(rng, -12.0, -6.0)
            body.append(f"der({v}) = {-r} * {v} + {round(r * c, 6)};")
            body.append(f"{v} >= -1; {v} <= 11;")
        lines.append(f"location {l} {{ {' '.join(body)} }}")

    def resets() -> str:
        out = []
        for v in names:
            if rng.random() < 0.5:
                out.append(f"{v}' = {v};")
            else:
                s = _num(rng, 0.5, 1.0)
                m = _num(rng, 0.0, 10.0)
                out.append(f"{v}' = {s} * {v} + {round((1 - s) * m, 6)};")
        return " ".join(out)

    for l in locs:
        v = driver[l]
        guard = (
            f"{v} >= {_num(rng, 4.0, 10.0)};" if up[l] else f"{v} <= {_num(rng, 0.0, 6.0)};"
        )
        edges = [guard]
        if rng.random() < 0.5:
            k = rng.choice(names)
            edges.append(f"{k} {rng.choice(['>=', '<='])} {_num(rng, 0.0, 10.0)};")
        for guard in edges:
            lines.append(
                f"edge {l} -{rng.choice('ab')}-> {rng.choice(locs)} "
                f"{{ {guard} {resets()} }}"
            )
    init = []
    for v in names:
        lo = _num(rng, 0.0, 9.0)
        init.append(f"{v} >= {lo}; {v} <= {round(lo + _num(rng, 0.1, 1.0), 3)};")
    lines.append("initial l0;")
    lines.append(f"init {{ {' '.join(init)} }}")
    return "\n".join(lines) + "\n"


def positive_nnf(rng: random.Random, names, size: int) -> str:
    """A formula in NNF whose only negations are on action atoms."""
    if size <= 1:
        v = rng.choice(names)
        return rng.choice(
            ["true", "a", "b", "!a", "!b",
             f"{v} >= {rng.randint(0, 20) / 2}", f"{v} <= {rng.randint(0, 20) / 2}"]
        )
    if size == 2 or rng.random() < 0.3:
        op = rng.choice("XFG")
        return f"{op}({positive_nnf(rng, names, size - 1)})"
    left = rng.randint(1, size - 2)
    op = rng.choice(["&", "|", "U", "R"])
    return (
        f"({positive_nnf(rng, names, left)}) {op} "
        f"({positive_nnf(rng, names, size - 1 - left)})"
    )


def test_verified_random_automata_admit_no_violating_run():
    rng = random.Random(20131)
    cases = verified = drawn = undrawn = budget = 0
    points = {1: 0, 2: 0}
    violations: list[str] = []
    outside: dict[int, list[str]] = {1: [], 2: []}
    for k in range(AUTOMATA):
        text = random_model(rng)
        h = parse_model(text)
        decls = Declarations(variables=h.variables, actions=h.actions)
        traces = []
        for seed in range(TRACES):
            try:
                traces.append(random_trace(h, np.random.default_rng(1000 * k + seed)))
            except TraceError:
                undrawn += 1
        drawn += len(traces)

        reach = reachable(h, **SETTINGS)
        # No stored box is empty, and none moves when clipped by its
        # location's invariant, bit for bit (reach.engine).
        assert all((lo <= hi).all() for store in reach.boxes.values() for lo, hi in store)
        for loc, store in reach.boxes.items():
            rows = compile_rows(h.invariant(loc), h.variables)
            for lo, hi in store:
                z = np.concatenate([-lo, hi])
                assert clip(z, rows).tobytes() == z.tobytes(), (loc, z, text)
        if reach.complete:
            for trace, (wp, wc) in traces:
                segments = (*trace.prefix, *trace.cycle)
                for i, ((traj, _), loc) in enumerate(zip(segments, wp + wc)):
                    values = traj.values
                    # The closing sample is snapped onto the recurrence
                    # target (random_trace), so it need not be reachable.
                    if i == len(segments) - 1:
                        values = values[:-1]
                    n = len(h.variables)
                    for state in values:
                        points[n] += 1
                        if not any(
                            np.all(lo - CONTAINMENT_TOL <= state)
                            and np.all(state <= hi + CONTAINMENT_TOL)
                            for lo, hi in reach.boxes.get(loc, ())
                        ):
                            outside[n].append(f"{loc} {state} of\n{text}")

        for _ in range(FORMULAS):
            cases += 1
            phi = parse_formula(
                f"!({positive_nnf(rng, h.variables, rng.randint(1, 6))})", decls
            )
            with warnings.catch_warnings():
                # psi has no negated flow atom, so none is rewritten.
                warnings.simplefilter("error", ComplementStrengtheningWarning)
                verdict = check(h, phi, **SETTINGS)
            budget += "visit budget" in (verdict.stats["reach_incomplete"] or "")
            if not verdict.verified:
                continue
            verified += 1
            for trace, _ in traces:
                if not evaluate_trace(trace, phi):
                    violations.append(f"{phi} on\n{text}")
    REPORT_LINES.append(
        f"{cases} random cases, {verified} Verified, {drawn} traces drawn, "
        f"{undrawn} could not be drawn, {len(violations)} violations, "
        f"{budget} stopped on the visit budget"
    )
    for n in (1, 2):
        REPORT_LINES.append(
            f"{n} variable(s): {points[n]} simulated states, "
            f"{len(outside[n])} outside the reach boxes"
        )
    assert not violations, violations[:3]
    # Widening bounds the visits of every location (reach.engine).
    assert budget == 0
    assert not outside[1], outside[1][:3]
    assert not outside[2], outside[2][:3]
    # The oracle must have something to judge.
    assert verified >= 10 and drawn >= AUTOMATA and min(points.values()) >= 500


# -- negated flow atoms on the thermostat ------------------------------------

ROOT = Path(__file__).resolve().parents[1]
THERMOSTAT = ROOT / "src/hyltlmc/models/thermostat.hyha"
ITEM_2 = pytest.mark.xfail(strict=True, reason="ROADMAP item 2")


@pytest.fixture(scope="module")
def thermostat_traces():
    h = load_model(THERMOSTAT)
    return h, [random_trace(h, np.random.default_rng(seed))[0] for seed in range(30)]


@pytest.mark.parametrize("text", [
    pytest.param("G(x <= 22)", marks=ITEM_2),
    pytest.param("G(x >= 17.5)", marks=ITEM_2),
    pytest.param("F G(x >= 18)", marks=ITEM_2),
    "G(x <= 23)",
])
def test_not_verified_when_a_trace_violates_it(thermostat_traces, text):
    # Negating each formula rewrites its flow atom to the complement,
    # which no sample of a violating trace needs to meet.
    h, traces = thermostat_traces
    phi = parse_formula(text, Declarations(variables=h.variables, actions=h.actions))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ComplementStrengtheningWarning)
        verdict = check(h, phi)
    violated = sum(not evaluate_trace(trace, phi) for trace in traces)
    assert not (verdict.verified and violated), f"{violated}/30 traces violate it"
