"""The eager check pipeline, kept only as a test oracle.

`check()` prunes the composed product and the counter product to the
locations on a path from an initial location to an accepting cycle, and
its reach engine reads a location's dynamics and edge images on first
use. This module keeps the pipeline that came before: the whole counter
product is instrumented, and `eager_reachable` is a frozen copy of the
reach loop that read the dynamics of every location and the image of
every edge up front. It also keeps frozen copies of the 2^pairs
consistent-set enumerator (`powerset_consistent_sets`), of the
enumerator that built the sets one at a time and sorted them
(`sorted_consistent_sets`), of the tableau that computed pins, targets
and acceptance per set and searched live (system location, set) pairs
one pair at a time, a pair whose joint dynamics `satisfiable` proves
empty having no successors (`per_set_formula_automaton`), and of the full
cross-product `eager_compose`, which the pipeline's enumerator and
forward compose must agree with, of the observer pruning that saw only
the location graph (`graph_pruned`), of the two-pass liveness search it
used (`two_pass_live_nodes`), of the box operations on (lo, hi) pairs
that the reach loop used before boxes became upper-bound vectors
(`clip_rows`, `row_range`, `reset_image`), and of the constraint reader
that built a matrix of rows for each use before constraints cached their
own rows (`linear_rows`, `compile_matrix`), of the whole counter
product (`full_degeneralize`), and of the product pipeline from before
the observer was pruned against the system and the counter product was
built forward (`unpaired_product`), and of the flow kernel that flowed
every axis of a field and remembered no flow (`FrozenDiscretization`,
`frozen_flow_tube`), and of the query construction that took a
degeneralized product whose empty family had been made explicit
(`normalize_acceptance`, `frozen_instrument`), and of the recurrence
query read with a hand-built latch vector and gap tests
(`frozen_recurrence_hits`). The observers of `unpaired_product` and
`eager_check` are the negation's tableau as the pipeline once built it:
pruned against the one-location loop over every action
(`conftest.loop_system`) and not pruned at all. Tests compare the two;
nothing in the package imports this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from hyltlmc.errors import ModelError, UnsupportedDynamicsError
from hyltlmc.formula.closure import MCS, ClosureSet, closure
from hyltlmc.formula.nnf import to_nnf
from hyltlmc.formula.syntax import Formula, Not, Top
from hyltlmc.hybrid.automaton import (
    HybridAutomaton,
    Transition,
    _dedup,
    _freeze_jumps,
    compose,
    live_nodes,
)
from hyltlmc.product import QueryTarget, _fresh_name
from hyltlmc.tableau import build_formula_automaton, prune_unreachable
from hyltlmc.hybrid.constraints import FlowConstraint, JumpConstraint, Relation
from hyltlmc.hybrid.expr import Const, DotVar, PrimedVar, Sub, Var, affine_form
from hyltlmc.reach.boxes import Clip, _bound, _box, _split, bounds, clip, satisfiable
from hyltlmc.reach.boxes import is_empty as box_is_empty
from hyltlmc.reach.dynamics import TransitionImage, location_dynamics, transition_image
from hyltlmc.reach.engine import MAX_VISITS, WIDEN_AFTER, ReachResult
from hyltlmc.reach.kernels import (
    FLOW_BUDGET,
    FLOW_DONE,
    FLOW_NO_ENCLOSURE,
    _expm,
    _shift,
    flow_tube,
)

from conftest import loop_system


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
        if any(
            (bits >> i & 1)
            != (bits >> l & bits >> r & 1 if conj else (bits >> l | bits >> r) & 1)
            for i, l, r, conj in cl.derived
        ):
            continue
        pos_actions = bits & action_mask
        if pos_actions and pos_actions & (pos_actions - 1):
            continue
        out.append(MCS(cl, bits))

    width = len(cl.members)
    out.sort(key=lambda m: tuple(m.bits >> i & 1 for i in range(width)))
    return tuple(out)


def sorted_consistent_sets(cl: ClosureSet) -> tuple[MCS, ...]:
    """The sets from their free choices and action, one set at a time, then
    sorted lexicographic on bit vectors, bit 0 first."""
    top = cl.index[Top()]
    derived = cl.derived
    fixed = {top} | set(cl.action_ordinals.values()) | {i for i, *_ in derived}
    free = [2 * k for k in range(cl.n_pairs) if 2 * k not in fixed]
    actions = [0] + [1 << i for i in sorted(cl.action_ordinals.values())]
    # Every action pair starts negative; a chosen action flips its pair.
    base = 1 << top
    for i in cl.action_ordinals.values():
        base |= 1 << (i + 1)

    out: list[MCS] = []
    for choice in itertools.product((0, 1), repeat=len(free)):
        bits = base
        for i, c in zip(free, choice):
            bits |= 1 << (i + c)
        for a in actions:
            b = bits ^ (a | a << 1)
            for i, l, r, conj in derived:
                if conj:
                    v = b >> l & b >> r & 1
                else:
                    v = (b >> l | b >> r) & 1
                b |= 1 << (i + 1 - v)
            out.append(MCS(cl, b))

    spec = f"0{len(cl.members)}b"
    out.sort(key=lambda m: format(m.bits, spec)[::-1])
    return tuple(out)


# -- the observer built one set at a time -----------------------------------


def per_set_formula_automaton(
    formula: Formula,
    actions: Sequence[str],
    prune: bool = False,
    system: HybridAutomaton | None = None,
) -> HybridAutomaton:
    """The tableau with pins, targets and acceptance computed per set and
    the live pairs searched one (system location, set) pair at a time."""
    actions = tuple(actions)
    cl = closure(formula, actions)
    sets = sorted_consistent_sets(cl)
    n = len(sets)
    names = [f"q{i}" for i in range(n)]

    vnames: set[str] = set()
    for c in cl.flow_ordinals:
        vnames |= c.state_vars | c.dot_vars
    variables = tuple(sorted(vnames))

    target_bits = [m.bits for m in sets]
    target_actions = [m.positive_actions() for m in sets]

    def flow_constraints(m: MCS) -> tuple[FlowConstraint, ...]:
        return tuple(c for c, i in cl.flow_ordinals.items() if m.bits >> i & 1)

    usable = [True] * n
    if prune:
        flow_mask = sum(1 << i for i in cl.flow_ordinals.values())
        feasible: dict[int, bool] = {}
        for i, m in enumerate(sets):
            key = m.bits & flow_mask
            ok = feasible.get(key)
            if ok is None:
                ok = feasible[key] = satisfiable(flow_constraints(m))
            usable[i] = ok
    targets = [ti for ti in range(n) if target_actions[ti] and usable[ti]]

    succ: list[Sequence[int]] = []
    buckets_by_mask: dict[int, dict[int, list[int]]] = {}
    for i, b in enumerate(target_bits):
        pins = _pins(cl, b) if usable[i] else None
        if pins is None:
            succ.append(())
            continue
        mask, vals = pins
        buckets = buckets_by_mask.get(mask)
        if buckets is None:
            buckets = buckets_by_mask[mask] = {}
            for ti in targets:
                buckets.setdefault(target_bits[ti] & mask, []).append(ti)
        succ.append(buckets.get(vals, ()))

    i_formula = cl.index[cl.formula]
    init = [
        i
        for i, m in enumerate(sets)
        if m.bits >> i_formula & 1 and not target_actions[i]
    ]
    acceptance = [
        [i for i, b in enumerate(target_bits) if (b >> i_2 & 1) or not (b >> i_u & 1)]
        for i_u, i_1, i_2 in cl.until_nodes
    ]

    if prune:
        live = _per_pair_live_sets(
            system or loop_system(actions),
            succ,
            target_actions,
            init,
            acceptance,
            [flow_constraints(m) for m in sets],
        )
    else:
        live = range(n)
    kept = sorted(live)

    transitions = [
        Transition(names[i], a, names[ti])
        for i in kept
        for ti in succ[i]
        if ti in live
        for a in target_actions[ti]
    ]
    return HybridAutomaton(
        variables=variables,
        actions=actions,
        locations=tuple(names[i] for i in kept),
        transitions=tuple(transitions),
        dyn={names[i]: flow_constraints(sets[i]) for i in kept},
        init=tuple(names[i] for i in init if i in live),
        acceptance=tuple(
            frozenset(names[i] for i in F if i in live) for F in acceptance
        ),
    )


def _per_pair_live_sets(
    system: HybridAutomaton,
    succ: Sequence[Sequence[int]],
    target_actions: Sequence[tuple[str, ...]],
    init: Sequence[int],
    acceptance: Sequence[Sequence[int]],
    flows: Sequence[tuple[FlowConstraint, ...]],
) -> set[int]:
    """Sets that lie in a live pair (system location, set), searched on
    compose's location graph with the system's acceptance sets first. A
    pair whose system dynamics and set flow atoms (flows) `satisfiable`
    proves empty has no successors, as in prune_unreachable."""
    n = len(succ)
    sidx = {l: k for k, l in enumerate(system.locations)}
    # Pair (s, i) is the node s * n + i.
    moves: list[dict[str, list[int]]] = [{} for _ in system.locations]
    for t in system.transitions:
        moves[sidx[t.source]].setdefault(t.action, []).append(sidx[t.target] * n)
    lifted = [[sidx[l] * n + i for l in F for i in range(n)] for F in system.acceptance]
    lifted += [[s * n + i for s in range(len(sidx)) for i in F] for F in acceptance]
    roots = [sidx[l] * n + i for l in system.init for i in init]
    judged: dict[tuple[int, tuple[FlowConstraint, ...]], bool] = {}

    def empty(s: int, i: int) -> bool:
        key = (s, flows[i])
        if key not in judged:
            dyn = system.dyn[system.locations[s]] + flows[i]
            judged[key] = not satisfiable(dyn)
        return judged[key]

    live = live_nodes(
        len(sidx) * n,
        _PairSuccessors(n, moves, succ, target_actions, empty),
        roots,
        lifted,
    )
    return {v % n for v in live}


class _PairSuccessors(dict):
    """Successor lists of pair nodes, each computed when the search first
    asks for it; pairs of one system location with sets of one pin
    profile share one list, and a pair that empty(s, i) calls empty has
    none."""

    def __init__(self, n, moves, succ, target_actions, empty):
        super().__init__()
        self.n = n
        self.moves = moves
        self.succ = succ
        self.target_actions = target_actions
        self.empty = empty
        self.shared: dict[tuple[int, int], list[int]] = {}

    def __missing__(self, v: int) -> list[int]:
        s, i = divmod(v, self.n)
        if self.empty(s, i):
            self[v] = []
            return []
        js = self.succ[i]
        out = self.shared.get((s, id(js)))
        if out is None:
            split: dict[str, list[int]] = {}
            for j in js:
                split.setdefault(self.target_actions[j][0], []).append(j)
            out = self.shared[s, id(js)] = [
                base + j
                for a, bases in self.moves[s].items()
                if a in split
                for base in bases
                for j in split[a]
            ]
        self[v] = out
        return out


def _pins(cl: ClosureSet, b: int) -> tuple[int, int] | None:
    """(mask, values) every successor of the set with bits b must match,
    or None when two pins disagree or an obligation cannot hold."""
    pins: dict[int, int] = {}

    def pin(i: int, v: int) -> bool:
        return pins.setdefault(i, v) == v

    for i_x, i_op in cl.next_nodes:
        if not pin(i_op, b >> i_x & 1):
            return None
    for i_u, i_1, i_2 in cl.until_nodes:
        u = b >> i_u & 1
        if b >> i_2 & 1:
            if not u:
                return None
        elif b >> i_1 & 1:
            if not pin(i_u, u):
                return None
        elif u:
            return None
    for i_r, i_1, i_2 in cl.release_nodes:
        r = b >> i_r & 1
        if not (b >> i_2 & 1):
            if r:
                return None
        elif b >> i_1 & 1:
            if not r:
                return None
        elif not pin(i_r, r):
            return None
    mask = vals = 0
    for i, v in pins.items():
        mask |= 1 << i
        vals |= v << i
    return mask, vals


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

    # An init region belongs to an initial location.
    init_region = {}
    for l1, l2 in init:
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


# -- the flow kernel that flowed every axis ----------------------------------

_FROZEN_CHUNK = 256


class FrozenDiscretization:
    """The one-step map of der(x) = A x + b at step h over every axis,
    with cached powers."""

    def __init__(self, A, b, h: float):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        self.h = h = float(h)
        self.n = n = len(b)
        a_norm = float(np.abs(A).sum(axis=1).max(initial=0.0)) * h
        b_norm = float(np.abs(b).max(initial=0.0)) * h
        c = 2.0 ** max(0, math.frexp(b_norm)[1] - math.frexp(max(a_norm, 1.0))[1])
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = A * h
        M[:n, n] = b * (h / c)
        K = np.zeros((2 * n, 2 * n))
        K[:n, :n] = np.abs(A) * h
        K[:n, n:] = np.eye(n) * h
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _expm(M)
            self.W = np.maximum(_expm(K)[:n, n:] - np.eye(n) * h, 0.0)
            self.phi = np.ascontiguousarray(psi[:n, :n])
            self.Gphi = _split(self.phi)
        self.g = psi[:n, n] * c
        self.finite = bool(np.isfinite(psi).all() and np.isfinite(self.g).all())
        moving = (A != 0.0).any(axis=1) | (b != 0.0)
        unit = (self.phi == np.eye(n)).all(axis=1) & (self.g == 0.0)
        self.stalled = tuple(int(i) for i in np.flatnonzero(moving & unit))
        self.GA = _split(A)
        self.b2 = np.concatenate([-b, b])
        self.g2 = np.concatenate([-self.g, self.g])
        self._P = np.eye(n)[None]
        self._V = np.zeros((1, n))

    def powers(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        P, V = self._P, self._V
        while len(P) < count:
            P2, V2 = _shift(P, V, P[-1] @ self.phi, P[-1] @ self.g + V[-1])
            P, V = np.concatenate([P, P2]), np.concatenate([V, V2])
        self._P, self._V = P, V
        return P[:count], V[:count]


def _frozen_first_segment(disc: FrozenDiscretization, x: np.ndarray, bound) -> np.ndarray:
    n = disc.n
    f = bound(disc.GA, x) + disc.b2
    rem = bound(disc.W, np.maximum(np.abs(f[:n]), np.abs(f[n:])))
    e = x + disc.h * np.maximum(f, 0.0) + np.concatenate([rem, rem])
    d = bound(disc.GA, e) + disc.b2
    mono = (d[:n] <= 0.0) | (d[n:] <= 0.0)
    if mono.any():
        x1 = bound(disc.Gphi, x) + disc.g2
        e = np.where(np.concatenate([mono, mono]), np.minimum(e, np.maximum(x, x1)), e)
    return e


def frozen_flow_tube(lo, hi, A, b, h, n_steps, inv_lo, inv_hi, *, disc=None):
    """flow_tube as it was when every axis was flowed and nothing kept."""
    x = _box(lo, hi)
    n_steps = int(n_steps)
    if disc is None and n_steps > 0:
        disc = FrozenDiscretization(A, b, h)
    if n_steps <= 0 or not disc.finite or disc.stalled:
        status = FLOW_BUDGET if n_steps <= 0 else FLOW_NO_ENCLOSURE
        return *bounds(x), *bounds(x), status
    with np.errstate(over="ignore", invalid="ignore"):
        tube, end, status = _frozen_flow(disc, x, n_steps, _box(inv_lo, inv_hi))
    return *bounds(tube), *bounds(end), status


def _frozen_flow(disc: FrozenDiscretization, x, n_steps: int, inv):
    n = disc.n
    bound = np.matmul if np.isfinite(x).all() else _bound
    s0 = np.minimum(_frozen_first_segment(disc, x, bound), inv)
    halves = np.stack([s0[:n], s0[n:]], axis=1)
    tube = end = x
    start, count = 0, min(_FROZEN_CHUNK, n_steps)
    P, V = disc.powers(count)
    while True:
        flat = P.reshape(-1, n)
        pos = np.maximum(flat, 0.0)
        R = bound(np.concatenate([pos, pos - flat]), halves).reshape(2, count, n, 2)
        seg = np.concatenate(
            [R[0, ..., 0] + R[1, ..., 1] - V, R[1, ..., 0] + R[0, ..., 1] + V], axis=1
        )
        seg = np.minimum(seg, inv)
        img = np.minimum(bound(disc.Gphi, seg.T).T + disc.g2, inv)
        bad = np.isnan(seg).any(axis=1)
        if not (np.isfinite(P[-1]).all() and np.isfinite(V[-1]).all()):
            bad |= ~(np.isfinite(P).all(axis=(1, 2)) & np.isfinite(V).all(axis=1))
        empty = (seg[:, :n] + seg[:, n:] < 0.0).any(axis=1)
        stop = bad | empty | (img <= seg).all(axis=1)
        k = int(stop.argmax()) if stop.any() else count
        last = k + 1 if k < count and not (bad[k] or empty[k]) else k
        if last:
            tube = np.maximum(tube, seg[:last].max(axis=0))
            end = seg[last - 1]
        if k < count:
            return tube, end, FLOW_NO_ENCLOSURE if bad[k] else FLOW_DONE
        start += count
        if start >= n_steps:
            return tube, end, FLOW_BUDGET
        phi_s, v_s = P[-1] @ disc.phi, P[-1] @ disc.g + V[-1]
        count = min(_FROZEN_CHUNK, n_steps - start)
        P, V = _shift(*disc.powers(count), phi_s, v_s)


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
    h: HybridAutomaton, horizon: float = 100.0, step: float = 0.01
) -> ReachResult:
    """The reach loop with every location's dynamics built up front; a
    popped box is skipped inside a start box already flowed there, and
    past WIDEN_AFTER visits is widened against the start boxes' hull."""
    names = h.variables
    n = len(names)
    n_steps = max(1, math.ceil(horizon / step))
    dyn = {l: eager_dynamics(h, l) for l in h.locations}
    images = {l: [] for l in h.locations}
    for t in h.transitions:
        # Only guards give rows: a row with a primed variable gives none.
        images[t.source].append((transition_image(h, t), linear_rows(t.jumps, names), t.target))

    store = {l: [] for l in h.locations}
    starts = {l: [] for l in h.locations}
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
        if any(contains(s_lo, s_hi, lo, hi) for s_lo, s_hi in starts[l]):
            continue
        total += 1
        if total > MAX_VISITS:
            if cause is None:
                cause, cause_location = f"visit budget of {MAX_VISITS} spent", l
            break
        visits[l] += 1
        d_l = dyn[l]
        if visits[l] > WIDEN_AFTER:
            # Join with the hull of the start boxes, and widen where the
            # box exceeds it.
            w_lo = np.full(n, np.inf)
            w_hi = np.full(n, -np.inf)
            for s_lo, s_hi in starts[l]:
                w_lo, w_hi = hull(w_lo, w_hi, s_lo, s_hi)
            lo = np.where(lo < w_lo, d_l.inv_lo, w_lo)
            hi = np.where(hi > w_hi, d_l.inv_hi, w_hi)
        starts[l].append((lo, hi))

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


def full_degeneralize(h: HybridAutomaton) -> HybridAutomaton:
    """The whole counter product: every (location, index), reachable or
    not, and every edge at every index."""
    k = len(h.acceptance)
    if k <= 1:
        return h
    locations = tuple((l, i) for i in range(k) for l in h.locations)
    transitions = []
    for t in h.transitions:
        for i in range(k):
            j = (i + 1) % k if t.source in h.acceptance[i] else i
            transitions.append(
                Transition((t.source, i), t.action, (t.target, j), t.jumps)
            )
    return HybridAutomaton(
        h.variables,
        h.actions,
        locations,
        transitions,
        {(l, i): h.dyn[l] for l, i in locations},
        tuple((l, 0) for l in h.init),
        {(l, 0): r for l, r in h.init_region.items()},
        (frozenset((l, 0) for l in h.acceptance[0]),),
    )


def normalize_acceptance(h: HybridAutomaton) -> HybridAutomaton:
    """An empty acceptance family accepts everything; make that explicit."""
    if h.acceptance:
        return h
    return HybridAutomaton(
        h.variables,
        h.actions,
        h.locations,
        h.transitions,
        h.dyn,
        h.init,
        h.init_region,
        (frozenset(h.locations),),
    )


def frozen_instrument(h: HybridAutomaton) -> tuple[
    HybridAutomaton, tuple[QueryTarget, ...], str, tuple[str, ...], tuple[str, ...]
]:
    """The latch and snapshot instrumentation of a degeneralized automaton,
    whose empty family means no final locations."""
    if len(h.acceptance) > 1:
        raise ModelError("instrument needs a degeneralized automaton")
    witness_vars = (min(h.variables),) if h.variables else ()
    f_name = _fresh_name("f", h.variables)
    y_names = (_fresh_name("y", (*h.variables, f_name)),) if witness_vars else ()
    variables = h.variables + (f_name,) + y_names

    zero = Const(0.0)
    aux_dyn = tuple(
        FlowConstraint(DotVar(n), Relation.EQ, zero) for n in (f_name, *y_names)
    )
    dyn = {l: h.dyn[l] + aux_dyn for l in h.locations}

    aux_init = tuple(
        FlowConstraint(Var(n), Relation.EQ, zero) for n in (f_name, *y_names)
    )
    init_region = {l: h.init_region.get(l, ()) + aux_init for l in h.init}
    for l, r in h.init_region.items():
        if l not in init_region:
            init_region[l] = r

    finals = h.acceptance[0] if h.acceptance else frozenset()
    order = [l for l in h.locations if l in finals]
    codes = {l: i + 1 for i, l in enumerate(order)}
    targets = tuple(QueryTarget(l, codes[l]) for l in order)

    unlatched = JumpConstraint(Var(f_name), Relation.EQ, zero)
    copies = tuple(
        JumpConstraint(PrimedVar(y), Relation.EQ, Var(w))
        for y, w in zip(y_names, witness_vars)
    )
    latch = {
        l: (
            unlatched,
            JumpConstraint(PrimedVar(f_name), Relation.EQ, Const(float(code))),
            *copies,
        )
        for l, code in codes.items()
    }
    twins: dict[tuple[int, int], tuple[JumpConstraint, ...]] = {}
    transitions = list(h.transitions)
    for t in h.transitions:
        rows = latch.get(t.source)
        if rows is not None:
            jumps = twins.setdefault((id(t.jumps), id(rows)), t.jumps + rows)
            transitions.append(Transition(t.source, t.action, t.target, jumps))

    out = HybridAutomaton(
        variables,
        h.actions,
        h.locations,
        transitions,
        dyn,
        h.init,
        init_region,
        h.acceptance,
    )
    return out, targets, f_name, y_names, witness_vars


def unpaired_product(
    system: HybridAutomaton, formula, strict: bool = False
) -> HybridAutomaton:
    """The instrumented product as check() built it with an observer blind
    to the system: compose, prune, whole counter product, prune."""
    observer = build_formula_automaton(
        to_nnf(Not(formula), strict=strict),
        system.actions,
        system=loop_system(system.actions),
    )
    product = prune_unreachable(compose(system, observer))
    product = prune_unreachable(normalize_acceptance(full_degeneralize(product)))
    return frozen_instrument(product)[0]


def frozen_recurrence_hits(
    reach: ReachResult,
    targets: tuple[QueryTarget, ...],
    f_name: str,
    y_names: tuple[str, ...],
    w_names: tuple[str, ...],
    eps: float,
) -> tuple[list[dict], bool]:
    """Stored boxes where a target's recurrence query may hold, read with
    a hand-built latch vector and gap tests, before the query compiled
    its rows like every other region.

    Returns the hits and whether some latched box left a witness pair
    unbounded, which makes a missing hit inconclusive.
    """
    names = reach.names
    fi = names.index(f_name)
    pairs = [(names.index(y), names.index(w)) for y, w in zip(y_names, w_names)]

    hits: list[dict] = []
    unbounded = False
    for target in targets:
        # f = code as an upper-bound vector (see reach.boxes).
        u = np.full(2 * len(names), np.inf)
        u[fi], u[len(names) + fi] = -float(target.code), float(target.code)
        for lo, hi in reach.boxes.get(target.location, ()):
            z = np.minimum(u, _box(lo, hi))
            if box_is_empty(z):
                continue
            c_lo, c_hi = bounds(z)
            # A hit needs every snapshot within eps of its variable. A
            # pair that definitely misses rules the box out even when
            # another pair is unbounded.
            missed = False
            unknown = False
            for yi, wi in pairs:
                corners = (c_lo[wi], c_hi[wi], c_lo[yi], c_hi[yi])
                if not all(np.isfinite(v) for v in corners):
                    unknown = True
                    continue
                gap_lo = c_lo[yi] - c_hi[wi]
                gap_hi = c_hi[yi] - c_lo[wi]
                if not (gap_lo <= eps and gap_hi >= -eps):
                    missed = True
                    break
            if missed:
                continue
            if unknown:
                unbounded = True
                continue
            hits.append(
                {
                    "location": target.location,
                    "code": target.code,
                    "box": {
                        x: (float(c_lo[i]), float(c_hi[i]))
                        for i, x in enumerate(names)
                    },
                }
            )
    return hits, unbounded


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
    negation = to_nnf(Not(formula))
    observer = graph_pruned(build_formula_automaton(negation, system.actions))
    product = normalize_acceptance(full_degeneralize(eager_compose(system, observer)))
    inst, targets, f_name, y_names, w_names = frozen_instrument(product)
    reach = eager_reachable(inst, horizon=horizon, step=step)
    hits, unbounded = frozen_recurrence_hits(
        reach, targets, f_name, y_names, w_names, eps
    )
    if hits or not reach.complete or unbounded:
        status = "Inconclusive"
    else:
        status = "Verified"
    return EagerRun(status, hits, reach, inst, targets)
