"""The eager check pipeline, kept only as a test oracle.

`check()` prunes the composed product and the counter product to the
locations on a path from an initial location to an accepting cycle, and
its reach engine reads a location's dynamics and edge images on first
use. This module keeps the pipeline that came before: the whole counter
product is instrumented, and `eager_reachable` is a frozen copy of the
reach loop that read the dynamics of every location and the image of
every edge up front. It also keeps frozen copies of the 2^pairs
consistent-set enumerator (`powerset_consistent_sets`) and of the full
cross-product `eager_compose`, which the pipeline's enumerator and
forward compose must agree with, of the observer pruning that saw only
the location graph (`graph_pruned`), of the two-pass liveness search it
used (`two_pass_live_nodes`), of the box operations on (lo, hi) pairs
that the reach loop used before boxes became upper-bound vectors
(`clip_rows`, `row_range`, `reset_image`), and of the constraint reader
that built a matrix of rows for each use before constraints cached their
own rows (`linear_rows`, `compile_matrix`). Tests compare the two;
nothing in the package imports this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from hyltlmc.errors import UnsupportedDynamicsError
from hyltlmc.formula.closure import MCS, ClosureSet
from hyltlmc.formula.syntax import Top
from hyltlmc.hybrid.automaton import (
    HybridAutomaton,
    Transition,
    _dedup,
    _freeze_jumps,
)
from hyltlmc.product import (
    QueryTarget,
    build_negated_observer,
    degeneralize,
    instrument,
    normalize_acceptance,
    recurrence_hits,
)
from hyltlmc.hybrid.constraints import FlowConstraint, Relation
from hyltlmc.hybrid.expr import Sub, affine_form
from hyltlmc.reach.boxes import Clip, _split, bounds, clip
from hyltlmc.reach.dynamics import TransitionImage, location_dynamics, transition_image
from hyltlmc.reach.engine import ReachResult
from hyltlmc.reach.kernels import FLOW_BUDGET, FLOW_DONE, flow_tube


# -- boxes as (lo, hi) pairs ------------------------------------------------


def full_box(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full(n, -np.inf), np.full(n, np.inf)


def is_empty(lo: np.ndarray, hi: np.ndarray) -> bool:
    return bool(np.any(lo > hi))


def contains(
    out_lo: np.ndarray, out_hi: np.ndarray, in_lo: np.ndarray, in_hi: np.ndarray
) -> bool:
    return bool(np.all(out_lo <= in_lo) and np.all(in_hi <= out_hi))


def hull(
    a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    return np.minimum(a_lo, b_lo), np.maximum(a_hi, b_hi)


def row_range(
    row: np.ndarray, k: float, lo: np.ndarray, hi: np.ndarray
) -> tuple[float, float]:
    """Exact range of row . x + k over the box; 0 coefficients contribute 0."""
    r_lo = r_hi = float(k)
    for a, l, u in zip(row, lo, hi):
        if a > 0.0:
            r_lo += a * l
            r_hi += a * u
        elif a < 0.0:
            r_lo += a * u
            r_hi += a * l
    if np.isnan(r_lo):
        r_lo = -np.inf
    if np.isnan(r_hi):
        r_hi = np.inf
    return r_lo, r_hi


def clip_rows(
    lo: np.ndarray, hi: np.ndarray, C: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Intersect a box with rows C . x + d <= 0.

    Single-variable rows tighten their axis exactly. Rows over several
    variables cannot tighten an axis-aligned box; they only empty it when
    interval evaluation proves them infeasible. Passes repeat until a
    fixpoint.
    """
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(len(d) + 1):
        changed = False
        for row, k in zip(C, d):
            nz = np.nonzero(row)[0]
            if len(nz) == 0:
                if k > 0.0:
                    return np.full_like(lo, np.inf), np.full_like(hi, -np.inf)
                continue
            if len(nz) == 1:
                i = nz[0]
                a = row[i]
                bound = -k / a
                if a > 0.0:
                    if bound < hi[i]:
                        hi[i] = bound
                        changed = True
                else:
                    if bound > lo[i]:
                        lo[i] = bound
                        changed = True
                if lo[i] > hi[i]:
                    return lo, hi
                continue
            r_lo, _ = row_range(row, k, lo, hi)
            if r_lo > 0.0:
                return np.full_like(lo, np.inf), np.full_like(hi, -np.inf)
        if not changed:
            break
    return lo, hi


def reset_image(
    img: TransitionImage, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The box of R x + r over [lo, hi], with r read from the image's
    offset (-r, r); a free variable's +inf halves give (-inf, inf)."""
    n = len(lo)
    out_lo = np.empty(n)
    out_hi = np.empty(n)
    for i in range(n):
        out_lo[i] = row_range(img.R[i], -img.offset[i], lo, hi)[0]
        out_hi[i] = row_range(img.R[i], img.offset[n + i], lo, hi)[1]
    return out_lo, out_hi


# -- constraints as a matrix of rows ---------------------------------------


def linear_rows(
    constraints: Iterable[FlowConstraint], names: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize derivative-free constraints to rows C . x + d <= 0.

    Rows that are not affine in the plain variables are skipped, which
    over-approximates. Returns (C, d) with C of shape (m, n) and d of
    shape (m,).
    """
    idx = {x: i for i, x in enumerate(names)}
    rows: list[np.ndarray] = []
    consts: list[float] = []

    def push(sign: float, coeffs, k: float) -> None:
        row = np.zeros(len(names))
        for (kind, name), a in coeffs.items():
            row[idx[name]] = sign * a
        rows.append(row)
        consts.append(sign * k)

    for c in constraints:
        form = affine_form(Sub(c.lhs, c.rhs))
        if form is None:
            continue
        coeffs, k = form
        if any(kind != "v" for kind, _ in coeffs):
            continue
        match c.rel:
            case Relation.LE | Relation.LT:
                push(1.0, coeffs, k)
            case Relation.GE | Relation.GT:
                push(-1.0, coeffs, k)
            case Relation.EQ:
                push(1.0, coeffs, k)
                push(-1.0, coeffs, k)
    if not rows:
        return np.zeros((0, len(names))), np.zeros(0)
    return np.stack(rows), np.array(consts)


def compile_matrix(C: np.ndarray, d: np.ndarray) -> Clip:
    """The Clip of the rows C . x + d <= 0."""
    n = C.shape[1]
    u = np.full(2 * n, np.inf)
    multi = []
    for r, (row, k) in enumerate(zip(C, d)):
        nz = np.flatnonzero(row)
        if len(nz) > 1:
            multi.append(r)
        elif len(nz) == 0:
            if k > 0.0:
                u[:] = -np.inf
        else:
            # a x_i + k <= 0 bounds x_i above by -k / a when a > 0, and
            # -x_i above by k / a when a < 0. A tie keeps the earlier row.
            i = nz[0]
            a = row[i]
            j, v = (n + i, -k / a) if a > 0.0 else (i, k / a)
            if v < u[j]:
                u[j] = v
    return Clip(u, _split(C[multi])[: len(multi)], d[multi])


# -- liveness in two passes ------------------------------------------------


def strongly_connected_components(
    n: int, succ: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Tarjan's algorithm, iterative so deep graphs cannot overflow the
    Python stack. Components come out in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def _reaching_set(n: int, succ: Sequence[Sequence[int]], targets: set[int]) -> set[int]:
    """All nodes with a path into targets (targets included)."""
    pred: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for u in pred[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def two_pass_live_nodes(
    n: int,
    succ: Sequence[Sequence[int]],
    init: Iterable[int],
    acceptance: Sequence[Iterable[int]],
) -> set[int]:
    """The live nodes (hybrid.discrete.live_nodes) in two passes: Tarjan
    over the renumbered forward-reachable subgraph, then a backward
    search from the components that meet every acceptance set."""
    forward = set(init)
    frontier = list(forward)
    while frontier:
        v = frontier.pop()
        for w in succ[v]:
            if w not in forward:
                forward.add(w)
                frontier.append(w)
    nodes = sorted(forward)
    local = {v: k for k, v in enumerate(nodes)}
    sub = [[local[w] for w in succ[v]] for v in nodes]
    sets = [{local[v] for v in F if v in local} for F in acceptance]

    good: set[int] = set()
    for comp in strongly_connected_components(len(nodes), sub):
        nontrivial = len(comp) > 1 or comp[0] in sub[comp[0]]
        if nontrivial and all(F.intersection(comp) for F in sets):
            good.update(comp)
    return {nodes[k] for k in _reaching_set(len(nodes), sub, good)}


# -- the eager pipeline -----------------------------------------------------


def powerset_consistent_sets(cl: ClosureSet) -> tuple[MCS, ...]:
    """Every one of the 2^pairs sign choices, filtered by consistency."""
    top_ord = cl.index[Top()]
    action_mask = 0
    for i in cl.action_ordinals.values():
        action_mask |= 1 << i

    out: list[MCS] = []
    for choice in itertools.product((0, 1), repeat=cl.n_pairs):
        bits = 0
        for k, c in enumerate(choice):
            bits |= 1 << (2 * k + c)
        if not bits >> top_ord & 1:
            continue
        ok = True
        for i, l, r in cl.and_nodes:
            if (bits >> i & 1) != ((bits >> l & 1) and (bits >> r & 1)):
                ok = False
                break
        if not ok:
            continue
        for i, l, r in cl.or_nodes:
            if (bits >> i & 1) != ((bits >> l & 1) or (bits >> r & 1)):
                ok = False
                break
        if not ok:
            continue
        pos_actions = bits & action_mask
        if pos_actions and pos_actions & (pos_actions - 1):
            continue
        out.append(MCS(cl, bits))

    width = len(cl.members)
    out.sort(key=lambda m: tuple(m.bits >> i & 1 for i in range(width)))
    return tuple(out)


def eager_compose(h1: HybridAutomaton, h2: HybridAutomaton) -> HybridAutomaton:
    """The full cross product: every location pair and every edge pair."""
    variables = _dedup(h1.variables + h2.variables)
    actions = _dedup(h1.actions + h2.actions)
    locations = tuple((l1, l2) for l1 in h1.locations for l2 in h2.locations)

    private1 = set(h1.variables) - set(h2.variables)
    private2 = set(h2.variables) - set(h1.variables)

    def moves(h: HybridAutomaton, private: set, action: str):
        if action in h.actions:
            return [
                (t.source, t.target, t.jumps) for t in h.transitions if t.action == action
            ]
        frozen = _freeze_jumps(private)
        return [(l, l, frozen) for l in h.locations]

    transitions = []
    for a in actions:
        for s1, t1, j1 in moves(h1, private1, a):
            for s2, t2, j2 in moves(h2, private2, a):
                transitions.append(
                    Transition((s1, s2), a, (t1, t2), _dedup(j1 + j2))
                )

    dyn = {
        (l1, l2): _dedup(h1.dyn[l1] + h2.dyn[l2])
        for l1 in h1.locations
        for l2 in h2.locations
    }
    init = tuple((l1, l2) for l1 in h1.init for l2 in h2.init)

    init_region = {}
    for l1, l2 in locations:
        r1 = h1.init_region.get(l1)
        r2 = h2.init_region.get(l2)
        if r1 is not None or r2 is not None:
            init_region[(l1, l2)] = _dedup(tuple(r1 or ()) + tuple(r2 or ()))

    acceptance = [
        frozenset((l1, l2) for l1, l2 in locations if l1 in s) for s in h1.acceptance
    ] + [
        frozenset((l1, l2) for l1, l2 in locations if l2 in s) for s in h2.acceptance
    ]

    return HybridAutomaton(
        variables,
        actions,
        locations,
        transitions,
        dyn,
        init,
        init_region,
        acceptance,
    )


@dataclass(frozen=True)
class EagerDynamics:
    """A location's field, and its invariant as a matrix of rows and as
    bounds, as the eager reach loop read them."""

    A: np.ndarray
    b: np.ndarray
    inv_C: np.ndarray
    inv_d: np.ndarray
    inv_lo: np.ndarray
    inv_hi: np.ndarray


def eager_dynamics(h: HybridAutomaton, l) -> EagerDynamics:
    d = location_dynamics(h, l)
    C, k = linear_rows(h.invariant(l), h.variables)
    lo, hi = bounds(clip(np.full(2 * len(h.variables), np.inf), compile_matrix(C, k)))
    return EagerDynamics(d.A, d.b, C, k, lo, hi)


def eager_reachable(
    h: HybridAutomaton,
    horizon: float = 100.0,
    step: float = 0.01,
    widen_after: int = 16,
    max_visits: int = 4000,
) -> ReachResult:
    """The reach loop with every location's dynamics built up front."""
    names = h.variables
    n = len(names)
    n_steps = max(1, math.ceil(horizon / step))
    dyn = {l: eager_dynamics(h, l) for l in h.locations}
    images = {l: [] for l in h.locations}
    for t in h.transitions:
        # Only guards give rows: a row with a primed variable gives none.
        images[t.source].append((transition_image(h, t), linear_rows(t.jumps, names), t.target))

    store = {l: [] for l in h.locations}
    visits = {l: 0 for l in h.locations}
    work = []

    for l in h.init:
        C, d = linear_rows(h.init_region.get(l, ()), names)
        lo, hi = clip_rows(*full_box(n), C, d)
        lo, hi = clip_rows(lo, hi, dyn[l].inv_C, dyn[l].inv_d)
        if is_empty(lo, hi):
            continue
        bad = [x for i, x in enumerate(names) if not np.isfinite([lo[i], hi[i]]).all()]
        if bad:
            raise UnsupportedDynamicsError(
                f"initial region of {l!r} leaves {bad} unbounded"
            )
        work.append((l, lo, hi))

    cause = None
    cause_location = None
    total = 0
    while work:
        l, lo, hi = work.pop()
        if any(contains(s_lo, s_hi, lo, hi) for s_lo, s_hi in store[l]):
            continue
        total += 1
        if total > max_visits:
            if cause is None:
                cause, cause_location = f"visit budget of {max_visits} spent", l
            break
        visits[l] += 1
        d_l = dyn[l]
        if visits[l] > widen_after and store[l]:
            w_lo = np.full(n, np.inf)
            w_hi = np.full(n, -np.inf)
            for s_lo, s_hi in store[l]:
                w_lo, w_hi = hull(w_lo, w_hi, s_lo, s_hi)
            lo = np.where(lo < w_lo, d_l.inv_lo, lo)
            hi = np.where(hi > w_hi, d_l.inv_hi, hi)

        tube_lo, tube_hi, _end_lo, _end_hi, status = flow_tube(
            lo, hi, d_l.A, d_l.b, step, n_steps, d_l.inv_lo, d_l.inv_hi
        )
        if status != FLOW_DONE and cause is None:
            cause_location = l
            if status == FLOW_BUDGET:
                cause = f"flow step budget of {n_steps} steps spent"
            else:
                cause = "no validated flow enclosure"
        tube_lo, tube_hi = clip_rows(tube_lo, tube_hi, d_l.inv_C, d_l.inv_d)
        if is_empty(tube_lo, tube_hi):
            tube_lo, tube_hi = lo, hi
        store[l].append((tube_lo, tube_hi))

        for img, (guard_C, guard_d), target in images[l]:
            g_lo, g_hi = clip_rows(tube_lo, tube_hi, guard_C, guard_d)
            if is_empty(g_lo, g_hi):
                continue
            p_lo, p_hi = reset_image(img, g_lo, g_hi)
            d_t = dyn[target]
            p_lo, p_hi = clip_rows(p_lo, p_hi, d_t.inv_C, d_t.inv_d)
            if is_empty(p_lo, p_hi):
                continue
            work.append((target, p_lo, p_hi))

    return ReachResult(names, store, visits, cause, cause_location)


def graph_pruned(h: HybridAutomaton) -> HybridAutomaton:
    """h restricted to the live nodes of its location graph, blind to
    invariants: the observer pruning from before locations with empty
    invariants were dropped."""
    idx = {l: i for i, l in enumerate(h.locations)}
    succ: list[list[int]] = [[] for _ in h.locations]
    for t in h.transitions:
        succ[idx[t.source]].append(idx[t.target])
    live = two_pass_live_nodes(
        len(h.locations),
        succ,
        [idx[l] for l in h.init],
        [[idx[l] for l in F] for F in h.acceptance],
    )
    kept = {l for l in h.locations if idx[l] in live}
    return HybridAutomaton(
        h.variables,
        h.actions,
        tuple(l for l in h.locations if l in kept),
        tuple(t for t in h.transitions if t.source in kept and t.target in kept),
        {l: h.dyn[l] for l in kept},
        tuple(l for l in h.init if l in kept),
        {l: r for l, r in h.init_region.items() if l in kept},
        tuple(F & kept for F in h.acceptance),
    )


@dataclass
class EagerRun:
    status: str
    hits: list[dict]
    reach: ReachResult
    product: HybridAutomaton
    targets: tuple[QueryTarget, ...]


def eager_check(
    system: HybridAutomaton,
    formula,
    step: float = 0.01,
    horizon: float = 100.0,
    eps: float = 1e-6,
) -> EagerRun:
    """compose -> degeneralize -> instrument -> reach, with the observer
    pruned on its location graph alone and nothing pruned after it."""
    observer = graph_pruned(build_negated_observer(formula, system.actions, prune=False))
    product = normalize_acceptance(degeneralize(eager_compose(system, observer)))
    inst, targets, f_name, y_names, w_names = instrument(product)
    reach = eager_reachable(inst, horizon=horizon, step=step)
    hits, unbounded = recurrence_hits(reach, targets, f_name, y_names, w_names, eps)
    if hits or not reach.complete or unbounded:
        status = "Inconclusive"
    else:
        status = "Verified"
    return EagerRun(status, hits, reach, inst, targets)
