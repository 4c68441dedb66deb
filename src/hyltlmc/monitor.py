"""Direct evaluation of formulas on lasso traces, plus trace generation.

This route never builds closures, consistent sets or reachability: it is
the satisfaction relation itself, computed positionwise, and serves as an
independent oracle for the compiled automaton route.

On a lasso with p prefix and c cycle segments, every atom's value at
positions i >= p + 2 repeats with period c (action atoms look one step
back, which is why period starts one past the cycle entry). Positions
1 .. p + 2c with the successor of the last position wrapping back to
p + c + 1 therefore quotient the infinite trace faithfully. Until and
release are the least and greatest fixpoints of their one-step unfoldings
on this quotient. Each subformula's value is one bit per position, packed
in an int, so the fixpoint sweeps are a handful of integer operations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import TraceError
from .formula.syntax import (
    ActionAtom,
    And,
    Bot,
    FlowAtom,
    Formula,
    Next,
    Not,
    Or,
    Release,
    Top,
    Until,
)
from .hybrid.automaton import HybridAutomaton, Loc, _successors
from .hybrid.constraints import FlowConstraint, satisfies_jump
from .hybrid.lasso import HybridLassoTrace
from .hybrid.trajectory import DEFAULT_FLOW_TOL, SampledTrajectory, check_tol
from .hybrid.trajectory import satisfies_flow
from .reach.boxes import bounds, is_empty
from .reach.dynamics import location_dynamics
from .reach.engine import initial_box


def _succ_values(val: int, n: int, wrap_bit: int) -> int:
    """Value at each position's successor; position n reads wrap_bit + 1."""
    return (val >> 1) | ((val >> wrap_bit & 1) << (n - 1))


def _eval_positions(
    formula: Formula, n: int, wrap_bit: int, action_before, flow_mask
) -> int:
    """Bit i - 1 holds the formula's value at position i of the quotient.

    action_before(i) is the action taken just before position i >= 2, and
    flow_mask(con) gives the positions whose trajectory meets con.
    """
    full = (1 << n) - 1
    memo: dict[Formula, int] = {}

    def go(f: Formula) -> int:
        v = memo.get(f)
        if v is not None:
            return v
        match f:
            case Top():
                v = full
            case Bot():
                v = 0
            case ActionAtom(a):
                v = 0
                for i in range(2, n + 1):
                    if action_before(i) == a:
                        v |= 1 << (i - 1)
            case FlowAtom(con):
                v = flow_mask(con)
            case Not(x):
                v = ~go(x) & full
            case And(a, b):
                v = go(a) & go(b)
            case Or(a, b):
                v = go(a) | go(b)
            case Next(x):
                v = _succ_values(go(x), n, wrap_bit)
            case Until(a, b):
                va, vb = go(a), go(b)
                v = vb
                while True:
                    nv = vb | va & _succ_values(v, n, wrap_bit)
                    if nv == v:
                        break
                    v = nv
            case Release(a, b):
                va, vb = go(a), go(b)
                v = full
                while True:
                    nv = vb & (va | _succ_values(v, n, wrap_bit))
                    if nv == v:
                        break
                    v = nv
            case _:
                raise TypeError(f"not a formula atom: {f!r}")
        memo[f] = v
        return v

    return go(formula)


def evaluate_trace(
    trace: HybridLassoTrace, formula: Formula, tol: float = DEFAULT_FLOW_TOL
) -> bool:
    """Does the trace satisfy the formula at position 1?

    Raises ConfigError unless tol is a finite number >= 0.
    """
    check_tol(tol)
    p, c = trace.p, trace.c
    n = p + 2 * c

    def flow_mask(con: FlowConstraint) -> int:
        m = 0
        for s in range(1, p + c + 1):
            if satisfies_flow(trace.trajectory(s), con, tol):
                m |= 1 << (s - 1)
                if s > p:  # cycle segments recur c positions later
                    m |= 1 << (s + c - 1)
        return m

    return bool(_eval_positions(formula, n, p + c, trace.action_before, flow_mask) & 1)


def evaluate_word(
    prefix: Sequence[str], cycle: Sequence[str], formula: Formula
) -> bool:
    """Formula value on an action lasso word; flow atoms have no meaning here."""
    if not cycle:
        raise TraceError("lasso word needs a nonempty cycle")
    p, c = len(prefix), len(cycle)
    w = tuple(prefix) + tuple(cycle) + tuple(cycle)

    def flow_mask(con: FlowConstraint) -> int:
        raise TraceError(
            f"formula constrains the continuous state ('{con}') "
            "but a word carries no trajectories"
        )

    return bool(
        _eval_positions(formula, p + 2 * c, p + c, lambda i: w[i - 2], flow_mask) & 1
    )


# -- random valid traces ---------------------------------------------------


def _runge_kutta(A: np.ndarray, b: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """One fourth order Runge-Kutta step of der(x) = A x + b."""
    k1 = A @ v + b
    k2 = A @ (v + 0.5 * dt * k1) + b
    k3 = A @ (v + 0.5 * dt * k2) + b
    k4 = A @ (v + dt * k3) + b
    return v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


# random_trace's sample step, jump limit, recurrence tolerance (between
# post-jump states at one location, in every variable) and longest dwell.
STEP = 0.05
MAX_JUMPS = 80
RECURRENCE_TOL = 0.05
DWELL_MAX = 4.0


def random_trace(h: HybridAutomaton, rng: np.random.Generator):
    """A random valid lasso trace of the automaton, with its witness.

    Simulates each location's affine field der(x) = A x + b, read by
    `reach.dynamics.location_dynamics` as for check(), with fourth order
    Runge-Kutta at sample step STEP from a random state of a nonempty box
    where reachability starts (reach.engine.initial_box), dwelling a
    random time of at most DWELL_MAX before taking a random enabled
    transition (or jumping early when the invariant is about to break).
    Derivative samples come from the field itself, so derivative
    equations hold at every sample. The lasso closes once a post-jump
    state comes within RECURRENCE_TOL of an earlier one; the final
    pre-jump sample is then snapped so the closing jump reproduces the
    recurrence target exactly: onto the target itself, or else shifted
    by the target's offset from the post-jump state, as a jump that
    moves a variable needs. Returns (trace, (prefix locations, cycle
    locations)).

    Raises UnsupportedDynamicsError when some location's dynamics lie
    outside the affine fragment check() accepts (a nonaffine field or a
    variable without der()), and TraceError when every initial box is
    empty, the drawn one unbounded, no edge is enabled within
    10 * DWELL_MAX time units after a dwell, or no cycle closes within
    MAX_JUMPS jumps.
    """
    names = h.variables
    starts = [(l, z) for l in h.init if not is_empty(z := initial_box(h, l))]
    if not starts:
        raise TraceError("automaton has no initial location with a nonempty box")
    loc, z = starts[int(rng.integers(len(starts)))]
    lo, hi = bounds(z)
    for k, x in enumerate(names):
        if not (np.isfinite(lo[k]) and np.isfinite(hi[k])):
            raise TraceError(f"initial region gives no bounded interval for {x}")
    vec = rng.uniform(lo, hi)

    fields = {l: location_dynamics(h, l) for l in h.locations}
    segments: list[tuple[Loc, np.ndarray, str]] = []
    history: list[tuple[Loc, np.ndarray, int]] = []
    history.append((loc, vec.copy(), 1))

    def admissible(l: Loc, v: np.ndarray) -> bool:
        return h.admissible(l, dict(zip(names, v)))

    def enabled(l: Loc, v: np.ndarray):
        return [
            (t, np.array([v2[x] for x in names]))
            for t, v2 in _successors(h, l, dict(zip(names, v)))
        ]

    # After its dwell, a segment waits at most ten longest dwells for an
    # enabled edge: a flow that settles inside its invariant with no edge
    # enabled would otherwise wait forever.
    patience = 10 * DWELL_MAX
    for _ in range(MAX_JUMPS):
        field = fields[loc]
        dwell = rng.uniform(3 * STEP, DWELL_MAX)
        values = [vec.copy()]
        while True:
            elapsed = (len(values) - 1) * STEP
            options = enabled(loc, values[-1]) if elapsed >= dwell else []
            nxt = _runge_kutta(field.A, field.b, values[-1], STEP)
            if not admissible(loc, nxt) and not options:
                options = enabled(loc, values[-1])
                if not options:
                    raise TraceError(f"simulation stuck in {loc!r}")
            if options:
                t, v2 = options[int(rng.integers(len(options)))]
                break
            if elapsed - dwell > patience:
                raise TraceError(
                    f"simulation stuck in {loc!r}: no edge enabled within "
                    f"{patience:g} time units after the dwell"
                )
            values.append(nxt)

        closed = None
        for (hloc, hvec, hseg) in history:
            if hloc != t.target:
                continue
            if np.max(np.abs(hvec - v2)) > RECURRENCE_TOL:
                continue
            # Snap the pre-jump sample so the closing jump lands exactly
            # on the recurrence target (docstring).
            val_tgt = dict(zip(names, hvec))
            for snapped in (hvec.copy(), values[-1] + (hvec - v2)):
                val_end = dict(zip(names, snapped))
                if all(
                    satisfies_jump(val_end, val_tgt, jc) for jc in t.jumps
                ) and admissible(loc, snapped):
                    closed = (hseg, snapped)
                    break
            if closed is not None:
                break

        if closed is not None:
            hseg, snapped = closed
            values[-1] = snapped
            segments.append((loc, np.stack(values), t.action))
            trajs = [
                (SampledTrajectory(names, vals, STEP, vals @ fields[l].A.T + fields[l].b), a)
                for l, vals, a in segments
            ]
            trace = HybridLassoTrace(trajs[: hseg - 1], trajs[hseg - 1 :])
            wp = tuple(l for l, _, _ in segments[: hseg - 1])
            wc = tuple(l for l, _, _ in segments[hseg - 1 :])
            return trace, (wp, wc)

        segments.append((loc, np.stack(values), t.action))
        loc = t.target
        vec = v2
        history.append((loc, vec.copy(), len(segments) + 1))

    raise TraceError(f"no cycle closed within {MAX_JUMPS} jumps")
