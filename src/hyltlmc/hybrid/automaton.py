"""Hybrid automata with optional generalized Buchi acceptance.

A location's dynamics is a set of flow constraints over state and dotted
variables; every trajectory spent in the location must satisfy all of them
at every sample. Transitions carry jump constraints over state and primed
variables relating the pre- and post-jump valuations. An automaton with an
empty acceptance family is a plain automaton: every generated run accepts.

Locations are hashable keys, strings for hand-written models and nested
tuples for products.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cache, partial
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import ModelError
from ..lexer import is_name
from .constraints import FlowConstraint, JumpConstraint, Relation, satisfies_jump
from .expr import PrimedVar, Var, evaluate
from .lasso import HybridLassoTrace
from .trajectory import DEFAULT_FLOW_TOL, check_tol, satisfies_flow

Loc = object  # str for source models, tuples for products


class Transition(NamedTuple):
    """An edge; immutable, and equal to the plain 4-tuple of its fields."""

    source: Loc
    action: str
    target: Loc
    jumps: tuple[JumpConstraint, ...] = ()


class HybridAutomaton:
    """Automaton over named continuous variables and a discrete action set."""

    def __init__(
        self,
        variables: Sequence[str],
        actions: Sequence[str],
        locations: Sequence[Loc],
        transitions: Iterable[Transition],
        dyn: Mapping[Loc, Sequence[FlowConstraint]],
        init: Sequence[Loc],
        init_region: Mapping[Loc, Sequence[FlowConstraint]] | None = None,
        acceptance: Sequence[Iterable[Loc]] = (),
    ):
        self.variables = tuple(variables)
        self.actions = tuple(actions)
        self.locations = tuple(locations)
        self.transitions = tuple(transitions)
        self.dyn = {l: tuple(dyn.get(l, ())) for l in self.locations}
        self.init = tuple(init)
        self.init_region = {
            l: tuple(cs) for l, cs in (init_region or {}).items()
        }
        self.acceptance = tuple(frozenset(s) for s in acceptance)
        # Edges by source and invariants, computed on first use.
        self._out: dict[Loc, list[Transition]] | None = None
        self._invariants: dict[Loc, tuple[FlowConstraint, ...]] = {}
        self._validate()

    def _validate(self) -> None:
        locset = set(self.locations)
        if len(locset) != len(self.locations):
            raise ModelError("duplicate location")
        varset = set(self.variables)
        if len(varset) != len(self.variables):
            raise ModelError("duplicate variable")
        if len(set(self.actions)) != len(self.actions):
            raise ModelError("duplicate action")
        for name in (*self.variables, *self.actions):
            if not is_name(name):
                raise ModelError(f"name {name!r} is reserved or not an identifier")
        both = varset.intersection(self.actions)
        if both:
            raise ModelError(f"name '{min(both)}' is both a variable and an action")
        initial = set(self.init)
        if len(initial) != len(self.init):
            raise ModelError("duplicate initial location")
        for l in self.init:
            if l not in locset:
                raise ModelError(f"initial location {l!r} not declared")
        # Products share their components' constraint objects, so each
        # distinct object is checked once; the first location or edge
        # holding a bad one is still the first one reported.
        seen: set[int] = set()
        for l, cs in self.dyn.items():
            for c in cs:
                if id(c) in seen:
                    continue
                seen.add(id(c))
                bad = (c.state_vars | c.dot_vars) - varset
                if bad:
                    raise ModelError(
                        f"flow constraint '{c}' of {l!r} uses undeclared {sorted(bad)}"
                    )
        # Initial locations are declared, so an undeclared one fails too.
        for l, cs in self.init_region.items():
            if l not in initial:
                raise ModelError(f"init region for {l!r}, which is not initial")
            for c in cs:
                if c.mentions_dot:
                    raise ModelError(
                        f"init region constraint '{c}' must not use derivatives"
                    )
                if c.state_vars - varset:
                    raise ModelError(
                        f"init region constraint '{c}' uses undeclared variables"
                    )
        actions = set(self.actions)
        # Jump tuples are shared by many edges too; a tuple seen before
        # had every one of its constraints checked then.
        seen = set()
        for t in self.transitions:
            if t.source not in locset or t.target not in locset:
                raise ModelError(f"transition endpoints undeclared: {t}")
            if t.action not in actions:
                raise ModelError(f"transition action '{t.action}' not declared")
            if id(t.jumps) in seen:
                continue
            seen.add(id(t.jumps))
            for jc in t.jumps:
                if (jc.state_vars | jc.primed_vars) - varset:
                    raise ModelError(
                        f"jump constraint '{jc}' uses undeclared variables"
                    )
        for s in self.acceptance:
            if s - locset:
                raise ModelError("acceptance set contains undeclared locations")

    # -- structure helpers -------------------------------------------------

    def transitions_from(self, loc: Loc, action: str | None = None):
        """Edges from loc (with the action, if given) in transition order."""
        if self._out is None:
            self._out = {}
            for t in self.transitions:
                self._out.setdefault(t.source, []).append(t)
        for t in self._out.get(loc, ()):
            if action is None or t.action == action:
                yield t

    def invariant(self, loc: Loc) -> tuple[FlowConstraint, ...]:
        """The derivative-free part of the location's dynamics, computed
        once per location."""
        inv = self._invariants.get(loc)
        if inv is None:
            inv = self._invariants[loc] = tuple(
                c for c in self.dyn[loc] if not c.mentions_dot
            )
        return inv

    def admissible(self, loc: Loc, v: Mapping[str, float]) -> bool:
        return all(c.holds_at(v) for c in self.invariant(loc))

    def __repr__(self) -> str:
        return (
            f"HybridAutomaton(|Loc|={len(self.locations)}, "
            f"|Edg|={len(self.transitions)}, |A|={len(self.actions)}, "
            f"|F|={len(self.acceptance)})"
        )

    def __eq__(self, other) -> bool:
        """Structural equality."""
        if not isinstance(other, HybridAutomaton):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.actions == other.actions
            and self.locations == other.locations
            and self.transitions == other.transitions
            and self.dyn == other.dyn
            and self.init == other.init
            and self.init_region == other.init_region
            and self.acceptance == other.acceptance
        )

    __hash__ = None


def _freeze_jumps(names: Iterable[str]) -> tuple[JumpConstraint, ...]:
    return tuple(
        JumpConstraint(PrimedVar(x), Relation.EQ, Var(x)) for x in sorted(names)
    )


def _dedup(seq):
    return tuple(dict.fromkeys(seq))


def compose(h1: HybridAutomaton, h2: HybridAutomaton) -> HybridAutomaton:
    """Parallel composition: sync on shared actions, stutter otherwise.

    A component not owning an action stays in place and freezes its private
    variables; shared variables are related by whichever jump constraints the
    owning components impose. Acceptance families are lifted through the two
    projections, first automaton's sets first.

    Only the location pairs reachable from an initial pair are built, so
    no run of the product is lost: a forward search finds them, then one
    loop over the full edge product, in the order (action, edge of h1,
    edge of h2), keeps the edges out of them. That loop visits, summed
    over actions, the product of the two components' move counts, a
    stutter counting as a move. Locations keep the full cross product's
    order, first automaton's location first. Only initial pairs get an
    init region.
    """
    variables = _dedup(h1.variables + h2.variables)
    actions = _dedup(h1.actions + h2.actions)

    def moves(h: HybridAutomaton, private: set):
        """Per action, h's moves (source, target, jumps) in the full
        product's order: its edges with the action, or, for an action h
        does not own, a stutter at each location."""
        frozen = _freeze_jumps(private)
        return {
            a: [(t.source, t.target, t.jumps) for t in h.transitions if t.action == a]
            if a in h.actions
            else [(l, l, frozen) for l in h.locations]
            for a in actions
        }

    def step(h: HybridAutomaton, l: Loc, a: str) -> list:
        """The targets of h's moves out of l with the action."""
        return [t.target for t in h.transitions_from(l, a)] if a in h.actions else [l]

    moves1 = moves(h1, set(h1.variables) - set(h2.variables))
    moves2 = moves(h2, set(h2.variables) - set(h1.variables))

    init = tuple((l1, l2) for l1 in h1.init for l2 in h2.init)
    # Each reached pair maps to the one tuple the product uses for it, so
    # that lookups of a location by its users find it by identity.
    reached = {p: p for p in init}
    stack = list(reached)
    while stack:
        l1, l2 = stack.pop()
        for a in actions:
            for t1 in step(h1, l1, a):
                for t2 in step(h2, l2, a):
                    p = (t1, t2)
                    if p not in reached:
                        reached[p] = p
                        stack.append(p)

    locations = tuple(
        reached[p] for p in product(h1.locations, h2.locations) if p in reached
    )
    # Components share their jump tuples across edges; merge each
    # combination once.
    merged: dict[tuple[int, int], tuple[JumpConstraint, ...]] = {}
    transitions = []
    for a in actions:
        for s1, t1, j1 in moves1[a]:
            for s2, t2, j2 in moves2[a]:
                source = reached.get((s1, s2))
                if source is not None:
                    jumps = merged.get((id(j1), id(j2)))
                    if jumps is None:
                        jumps = merged[id(j1), id(j2)] = _dedup(j1 + j2)
                    transitions.append(Transition(source, a, reached[t1, t2], jumps))

    dyn = {p: _dedup(h1.dyn[p[0]] + h2.dyn[p[1]]) for p in locations}
    init_region = {
        p: _dedup(h1.init_region.get(p[0], ()) + h2.init_region.get(p[1], ()))
        for p in init
        if p[0] in h1.init_region or p[1] in h2.init_region
    }

    acceptance = [
        frozenset(p for p in locations if p[0] in s) for s in h1.acceptance
    ] + [frozenset(p for p in locations if p[1] in s) for s in h2.acceptance]

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


def _solve_jump(
    v: Mapping[str, float], jumps: Sequence[JumpConstraint], names: Sequence[str]
) -> dict[str, float] | None:
    """Construct the canonical successor valuation of a jump.

    A defining row x' = e(state) (JumpConstraint.defines) sets the new
    value of x. A variable that other rows bound without defining it
    takes its old value clamped into the bounds that its rows with a
    single primed variable (JumpConstraint.jump_rows) give once the
    pre-state is substituted; every other variable keeps its value. The
    caller checks every row on the result, so it is one successor of the
    jump relation or none: the trace oracles build and check only real
    runs, though not every one (x' >= x allows more). A strict bound
    (x' > e) is stepped one ulp inside, so the value on it is not taken.
    Returns None when the value a defining equation gives is not finite.
    """
    new = {x: v[x] for x in names}
    defined: set[str] = set()
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    for jc in jumps:
        if jc.defines is not None:
            x, e = jc.defines
            with np.errstate(all="ignore"):
                new[x] = float(evaluate(e, state=v))
            if not math.isfinite(new[x]):
                return None
            defined.add(x)
            continue
        strict = jc.rel in (Relation.LT, Relation.GT)
        for coeffs, k in jc.jump_rows:
            post = [(y[:-1], a) for y, a in coeffs if y.endswith("'")]
            if len(post) != 1 or post[0][1] == 0.0:
                continue
            (x, a), = post
            # a x' + rest <= 0 bounds x' from above when a > 0.
            rest = k + sum(c * v[y] for y, c in coeffs if not y.endswith("'"))
            bound = -rest / a
            if strict:
                # One ulp inside: down for an upper bound (a > 0).
                bound = math.nextafter(bound, -a * math.inf)
            if a > 0:
                hi[x] = min(hi.get(x, math.inf), bound)
            else:
                lo[x] = max(lo.get(x, -math.inf), bound)
    for x in (lo.keys() | hi.keys()) - defined:
        new[x] = min(max(new[x], lo.get(x, -math.inf)), hi.get(x, math.inf))
    return new


def _successors(h: HybridAutomaton, loc: Loc, v: Mapping[str, float]):
    """(transition, successor valuation) pairs of the concrete jumps from v.

    Successors are built as _solve_jump builds them: defining reset
    equations solved, bounded variables clamped and the others held.
    They are then filtered by the full jump constraint set and
    admissibility in the target location, in transition order.
    """
    for t in h.transitions_from(loc):
        v2 = _solve_jump(v, t.jumps, h.variables)
        if v2 is None or not all(satisfies_jump(v, v2, jc) for jc in t.jumps):
            continue
        if h.admissible(t.target, v2):
            yield t, v2


def live_nodes(
    n: int,
    succ: Sequence[Sequence[int]],
    init: Iterable[int],
    acceptance: Sequence[Iterable[int]],
) -> set[int]:
    """Nodes on a path from an initial node to a nontrivial strongly
    connected component that meets every acceptance set.

    Such a component holds a cycle visiting every set, so these are the
    nodes an accepting run can visit. One iterative Tarjan search, rooted
    only at the initial nodes, visits exactly the nodes they reach.
    Components complete in reverse topological order, so when one
    completes, every component it has an edge into is already decided:
    it is live when it is nontrivial and the union of its members'
    acceptance bits is full, or when one of its edges enters a live
    component.
    """
    full = (1 << len(acceptance)) - 1
    accept = [0] * n
    for i, F in enumerate(acceptance):
        for v in F:
            accept[v] |= 1 << i

    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    live: set[int] = set()
    stack: list[int] = []
    counter = 0
    for root in init:
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    w = stack.pop()
                    on_stack[w] = False
                    comp = [w]
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                    bits = 0
                    for w in comp:
                        bits |= accept[w]
                    if (bits == full and (len(comp) > 1 or v in succ[v])) or any(
                        w in live for u in comp for w in succ[u]
                    ):
                        live.update(comp)
                # A completed child has low == index > low of its parent.
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return live


def _run_graph(trace: HybridLassoTrace, h: HybridAutomaton, tol: float):
    """The runs of h on a lasso trace, as a graph (index, succ, roots).

    A node (i, l) pairs a position i in 1..p + c of the trace's quotient,
    where p + c is followed by p + 1, with a location l whose dynamics
    trajectory i satisfies; index numbers the nodes position by position,
    in location order. (i, s) steps to (j, t), j following i, along a
    transition s -> t that carries the action after i and whose jumps
    hold from the last state of trajectory i to the first of trajectory
    j. The roots are the nodes at position 1 of initial locations whose
    init region holds at the first sample. Raises ConfigError unless tol
    is a finite number >= 0.
    """
    check_tol(tol)
    p, n = trace.p, trace.p + trace.c
    index: dict[tuple[int, Loc], int] = {}
    # Per position: the action after it and its first and last states.
    ends = {}
    for i in range(1, n + 1):
        traj, action = trace.segment(i)
        ends[i] = (action, traj.fstate, traj.lstate)
        # Locations share constraints; check each once per position.
        fits = cache(partial(satisfies_flow, traj, tol=tol))
        for l in h.locations:
            if all(map(fits, h.dyn[l])):
                index[i, l] = len(index)
    succ = []
    for i, s in index:
        j = i + 1 if i < n else p + 1
        action, _, before = ends[i]
        after = ends[j][1]
        succ.append([
            index[j, t.target]
            for t in h.transitions_from(s, action)
            if (j, t.target) in index
            and all(satisfies_jump(before, after, jc) for jc in t.jumps)
        ])
    roots = [
        index[1, l]
        for l in h.init
        if (1, l) in index
        and all(c.holds_at(ends[1][1], tol=tol) for c in h.init_region.get(l, ()))
    ]
    return index, succ, roots


def _bfs(succ, sources, inside) -> dict[int, int | None]:
    """The nodes that sources reach through nodes of inside, in
    breadth-first order, each mapped to its parent (None for a source)."""
    parent = dict.fromkeys(sources)
    queue = deque(parent)
    while queue:
        u = queue.popleft()
        for w in succ[u]:
            if w in inside and w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def _path(succ, sources, goal, inside) -> list[int]:
    """A shortest path from a node of sources to a node of goal through
    nodes of inside, which must exist."""
    parent = _bfs(succ, sources, inside)
    path = [next(u for u in parent if u in goal)]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def find_accepting_witness(
    trace: HybridLassoTrace,
    h: HybridAutomaton,
    tol: float = DEFAULT_FLOW_TOL,
) -> tuple[tuple[Loc, ...], tuple[Loc, ...]] | None:
    """An accepting run of h on the trace, as a lasso of locations.

    Returns a witness (prefix locations, cycle locations) with
    accepts(trace, h, witness) true, or None when h has no accepting run
    on the trace, whichever presentation of it is given. Location k of
    prefix + cycle is taken at position k of the unfolded trace; the
    prefix has at least p locations and the cycle's length is a positive
    multiple of c, so a (p, c) witness is the special case.

    live_nodes runs on the run graph (_run_graph), each acceptance set
    lifted to its nodes. Every nontrivial component that meets every set
    has a node at the cycle entry p + 1. The first such node starts the
    cycle, which visits the sets in order along shortest paths inside
    the component; the prefix is a shortest path to it from a root.
    Raises ConfigError unless tol is a finite number >= 0.
    """
    index, succ, roots = _run_graph(trace, h, tol)
    nodes = list(index)
    sets = [{k for k, (_, l) in enumerate(nodes) if l in F} for F in h.acceptance]
    live = live_nodes(len(nodes), succ, roots, sets)
    pred: list[list[int]] = [[] for _ in nodes]
    for u in live:
        for w in succ[u]:
            pred[w].append(u)
    for v in sorted(k for k in live if nodes[k][0] == trace.p + 1):
        # v's component: the live nodes v reaches that also reach v.
        comp = _bfs(pred, [v], _bfs(succ, [v], live)).keys()
        if not comp & set(succ[v]) or not all(comp & F for F in sets):
            continue
        walk = [v]
        for goal in (*sets, {v}):
            walk += _path(succ, walk[-1:], goal, comp)[1:]
        if len(walk) == 1:  # v meets every set: close a cycle through it
            walk += _path(succ, [w for w in succ[v] if w in comp], {v}, comp)
        prefix = _path(succ, roots, {v}, live)[:-1]
        return tuple(nodes[k][1] for k in prefix), tuple(nodes[k][1] for k in walk[:-1])
    return None


def _on_witness(trace, h, witness, tol, acceptance) -> bool:
    """Whether the witness is a path of the run graph from a root whose
    cycle closes and meets every set of the acceptance family."""
    index, succ, roots = _run_graph(trace, h, tol)
    wp, wc = tuple(witness[0]), tuple(witness[1])
    p, c = trace.p, trace.c
    path = [
        index.get((k if k <= p else p + 1 + (k - p - 1) % c, l))
        for k, l in enumerate(wp + wc, 1)
    ]
    if not wc or None in path or path[0] not in roots:
        return False
    # The wrap is an edge only when the prefix covers the trace's prefix
    # and the cycle's length is a multiple of c: the witness's shape.
    path.append(path[len(wp)])
    return all(w in succ[u] for u, w in zip(path, path[1:])) and all(
        not F.isdisjoint(wc) for F in acceptance
    )


def is_generated(
    trace: HybridLassoTrace,
    h: HybridAutomaton,
    witness: tuple[Sequence[Loc], Sequence[Loc]],
    tol: float = DEFAULT_FLOW_TOL,
) -> bool:
    """Check that a lasso trace is a run of the automaton along a witness.

    The witness (prefix locations, cycle locations) takes location k of
    prefix + cycle at position k of the unfolded trace, with at least p
    prefix locations and a positive multiple of c cycle locations. It
    must be a path of the run graph (_run_graph) from a root whose last
    cycle location steps to its first; a witness of another shape or
    with an unknown location is simply not generated. Raises ConfigError
    unless tol is a finite number >= 0.
    """
    return _on_witness(trace, h, witness, tol, ())


def accepts(
    trace: HybridLassoTrace,
    h: HybridAutomaton,
    witness: tuple[Sequence[Loc], Sequence[Loc]],
    tol: float = DEFAULT_FLOW_TOL,
) -> bool:
    """Generated along the witness (of is_generated's shape), and the
    cycle meets every acceptance set."""
    return _on_witness(trace, h, witness, tol, h.acceptance)
