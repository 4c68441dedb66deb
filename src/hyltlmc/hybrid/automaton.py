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

from typing import Iterable, Mapping, NamedTuple, Sequence

from ..errors import ModelError
from .constraints import FlowConstraint, JumpConstraint, Relation, satisfies_jump
from .expr import PrimedVar, Var, evaluate
from .lasso import HybridLassoTrace
from .trajectory import DEFAULT_FLOW_TOL, check_tol, satisfies_all_flows
from .valuation import Valuation

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
        for l, cs in self.init_region.items():
            if l not in locset:
                raise ModelError(f"init region for unknown location {l!r}")
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

    def admissible(self, loc: Loc, v: Valuation, tol: float = 0.0) -> bool:
        return all(bool(c.holds_at(v, tol=tol)) for c in self.invariant(loc))

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
    no run of the product is lost. They keep the order of the full cross
    product, first automaton's location first, and the edges keep the
    order (action, edge of h1, edge of h2) of the full edge product.
    """
    variables = _dedup(h1.variables + h2.variables)
    actions = _dedup(h1.actions + h2.actions)
    L1, L2 = h1.locations, h2.locations

    def moves(h: HybridAutomaton, private: set):
        """Per action and source index: (rank, target index, jumps).

        The rank is the move's place in the full product's order: the
        edge's among h's edges with that action, or, for a stutter on an
        action h does not own, the location's index.
        """
        idx = {l: i for i, l in enumerate(h.locations)}
        frozen = _freeze_jumps(private)
        table = []
        for a in actions:
            out: list[list] = [[] for _ in h.locations]
            if a in h.actions:
                rank = 0
                for t in h.transitions:
                    if t.action == a:
                        out[idx[t.source]].append((rank, idx[t.target], t.jumps))
                        rank += 1
            else:
                for i in range(len(out)):
                    out[i].append((i, i, frozen))
            table.append(out)
        return table, idx

    moves1, idx1 = moves(h1, set(h1.variables) - set(h2.variables))
    moves2, idx2 = moves(h2, set(h2.variables) - set(h1.variables))

    init_pairs = [(idx1[l1], idx2[l2]) for l1 in h1.init for l2 in h2.init]
    seen = set(init_pairs)
    stack = list(seen)
    edges = []
    while stack:
        s1, s2 = stack.pop()
        for k in range(len(actions)):
            out2 = moves2[k][s2]
            if not out2:
                continue
            for r1, t1, j1 in moves1[k][s1]:
                for r2, t2, j2 in out2:
                    edges.append((k, r1, r2, s1, s2, t1, t2, j1, j2))
                    if (t1, t2) not in seen:
                        seen.add((t1, t2))
                        stack.append((t1, t2))
    # (action, rank in h1, rank in h2) is unique per edge, so sorting
    # never compares further fields.
    edges.sort()

    pair = {(i1, i2): (L1[i1], L2[i2]) for i1, i2 in sorted(seen)}
    locations = tuple(pair.values())
    # Components share their jump tuples across edges; merge each
    # combination once.
    merged: dict[tuple[int, int], tuple[JumpConstraint, ...]] = {}
    transitions = []
    for k, _, _, s1, s2, t1, t2, j1, j2 in edges:
        jumps = merged.get((id(j1), id(j2)))
        if jumps is None:
            jumps = merged[id(j1), id(j2)] = _dedup(j1 + j2)
        transitions.append(Transition(pair[s1, s2], actions[k], pair[t1, t2], jumps))

    dyn = {p: _dedup(h1.dyn[p[0]] + h2.dyn[p[1]]) for p in locations}
    init = tuple(pair[ij] for ij in init_pairs)

    init_region = {}
    for l1, l2 in locations:
        r1 = h1.init_region.get(l1)
        r2 = h2.init_region.get(l2)
        if r1 is not None or r2 is not None:
            init_region[(l1, l2)] = _dedup(tuple(r1 or ()) + tuple(r2 or ()))

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
    v: Valuation, jumps: Sequence[JumpConstraint], names: Sequence[str]
) -> Valuation | None:
    """Construct the canonical successor valuation of a jump.

    A defining row x' = e(state) (JumpConstraint.defines) sets the new
    value of x; every other variable keeps its value. The caller checks
    every row on the result, so it is one successor of the jump relation
    or none: the trace oracles build and check only real runs, though not
    every one (x' >= x allows more). Returns None when a defining
    equation is itself unevaluable.
    """
    new = {x: v[x] for x in names}
    for jc in jumps:
        if jc.defines is not None:
            x, e = jc.defines
            try:
                new[x] = float(evaluate(e, state=v))
            except (ModelError, ZeroDivisionError):
                return None
    return Valuation(new)


def _successors(h: HybridAutomaton, loc: Loc, v: Valuation, action=None, tol=0.0):
    """(transition, successor valuation) pairs of the concrete jumps from v.

    Successors are built by solving the defining reset equations and
    holding unconstrained variables, then filtered by the full jump
    constraint set and admissibility in the target location, in
    transition order.
    """
    for t in h.transitions_from(loc, action):
        v2 = _solve_jump(v, t.jumps, h.variables)
        if v2 is None or not all(satisfies_jump(v, v2, jc) for jc in t.jumps):
            continue
        if h.admissible(t.target, v2, tol):
            yield t, v2


def discrete_step(
    h: HybridAutomaton,
    state: tuple[Loc, Valuation],
    action: str,
    tol: float = 0.0,
) -> tuple[tuple[Loc, Valuation], ...]:
    """Concrete successors of (location, valuation) under one action.

    Only the canonical identity-completed family of `_successors` is
    enumerated; constraints leaving a variable genuinely free describe
    more successors than any finite set could.
    """
    loc, v = state
    if loc not in h.dyn:
        raise ModelError(f"unknown location {loc!r}")
    if not h.admissible(loc, v, tol):
        return ()
    out = []
    for t, v2 in _successors(h, loc, v, action, tol):
        if (t.target, v2) not in out:
            out.append((t.target, v2))
    return tuple(out)


def _on_witness(trace, h, witness, tol, acceptance) -> bool:
    """The layered search of find_accepting_witness, one location per segment."""
    check_tol(tol)
    wp, wc = tuple(witness[0]), tuple(witness[1])
    locs = wp + wc
    if (len(wp), len(wc)) != (trace.p, trace.c) or not all(l in h.dyn for l in locs):
        return False
    return _witness_search(trace, h, tol, acceptance, locs) is not None


def is_generated(
    trace: HybridLassoTrace,
    h: HybridAutomaton,
    witness: tuple[Sequence[Loc], Sequence[Loc]],
    tol: float = DEFAULT_FLOW_TOL,
) -> bool:
    """Check that a lasso trace is a run of the automaton along a witness.

    The witness assigns one location per segment, prefix and cycle
    separately. The first location must be initial (and meet the init region
    when one is declared), every trajectory must satisfy its location's
    dynamics, and every consecutive pair, including the cycle wrap, must be
    linked by a transition whose jump constraints the endpoint valuations
    satisfy. A witness of the wrong length or with an unknown location is
    simply not generated.
    """
    return _on_witness(trace, h, witness, tol, ())


def accepts(
    trace: HybridLassoTrace,
    h: HybridAutomaton,
    witness: tuple[Sequence[Loc], Sequence[Loc]],
    tol: float = DEFAULT_FLOW_TOL,
) -> bool:
    """Generated along the witness, and the cycle meets every acceptance set."""
    return _on_witness(trace, h, witness, tol, h.acceptance)


def find_accepting_witness(
    trace: HybridLassoTrace,
    h: HybridAutomaton,
    tol: float = DEFAULT_FLOW_TOL,
) -> tuple[tuple[Loc, ...], tuple[Loc, ...]] | None:
    """Search every location assignment for one that accepts the trace.

    Returns a witness (prefix locations, cycle locations) with
    accepts(trace, h, witness) true, or None when no assignment works.
    Only location sequences that repeat with the trace's own cycle from
    its entry are tried, so None is no rejection: a formula automaton's
    runs on a lasso with an empty prefix, or whose last prefix and cycle
    actions differ, are found only on `trace.rotate()`. `is_generated`
    and `accepts` run the same search with one location per segment.

    Runs a layered search: candidate locations per segment are those whose
    dynamics the trajectory satisfies, consecutive candidates must be
    linked by a transition whose jumps the endpoint valuations meet, and
    the cycle part additionally tracks which acceptance sets the candidate
    cycle has touched so far, closing only on a wrap link back to its
    entry location with every set covered. Raises ConfigError unless tol
    is a finite number >= 0.
    """
    check_tol(tol)
    return _witness_search(trace, h, tol, h.acceptance)


def _witness_search(trace, h, tol, acceptance, fixed=None):
    """Witness over the given acceptance family; fixed pins segment i to
    fixed[i - 1] instead of trying every location."""
    p, c = trace.p, trace.c
    n = p + c
    cands: list[list[Loc]] = []
    for i in range(1, n + 1):
        traj = trace.trajectory(i)
        pool = h.locations if fixed is None else (fixed[i - 1],)
        cands.append([l for l in pool if satisfies_all_flows(traj, h.dyn[l], tol)])
        if not cands[-1]:
            return None

    first_ok = []
    fstate = trace.trajectory(1).fstate
    for l in cands[0]:
        if l not in h.init:
            continue
        region = h.init_region.get(l)
        if region is not None and not all(
            bool(cst.holds_at(fstate, tol=tol)) for cst in region
        ):
            continue
        first_ok.append(l)
    if not first_ok:
        return None

    def links(i: int, sources, targets) -> dict:
        """Allowed (source, target) location pairs around the i-th action."""
        a = trace.action_after(i)
        v_end = trace.trajectory(i).lstate
        v_next = trace.trajectory(i + 1).fstate if i < n else trace.trajectory(p + 1).fstate
        out: dict[Loc, list[Loc]] = {}
        src_set, tgt_set = set(sources), set(targets)
        for t in h.transitions:
            if t.action != a or t.source not in src_set or t.target not in tgt_set:
                continue
            if all(satisfies_jump(v_end, v_next, jc) for jc in t.jumps):
                out.setdefault(t.source, []).append(t.target)
        return out

    # Prefix: layered reachability with parents.
    layer: dict[Loc, Loc | None] = {l: None for l in first_ok}
    prefix_parents: list[dict] = [dict(layer)]
    for i in range(1, p + 1):
        lk = links(i, layer.keys(), cands[i])
        nxt: dict[Loc, Loc] = {}
        for src, tgts in lk.items():
            for tgt in tgts:
                nxt.setdefault(tgt, src)
        if not nxt:
            return None
        layer = nxt
        prefix_parents.append(dict(layer))

    full_mask = (1 << len(acceptance)) - 1
    loc_mask = {
        l: sum(1 << j for j, F in enumerate(acceptance) if l in F)
        for cs in cands[p:]
        for l in cs
    }

    cycle_links = [
        links(p + 1 + j, cands[p + j], cands[(p + (j + 1) % c)])
        for j in range(c)
    ]

    for entry in layer.keys():
        # States (layer j, loc, mask); parents for reconstruction.
        states: dict[tuple[Loc, int], tuple[Loc, int] | None] = {
            (entry, loc_mask[entry]): None
        }
        trail: list[dict] = [dict(states)]
        for j in range(c - 1):
            lk = cycle_links[j]
            nxt: dict[tuple[Loc, int], tuple[Loc, int]] = {}
            for (loc, mask) in states:
                for tgt in lk.get(loc, ()):
                    key = (tgt, mask | loc_mask[tgt])
                    if key not in nxt:
                        nxt[key] = (loc, mask)
            states = nxt
            trail.append(dict(states))
            if not states:
                break
        if not states:
            continue
        closing = cycle_links[c - 1]
        done = None
        for (loc, mask) in states:
            if mask == full_mask and entry in closing.get(loc, ()):
                done = (loc, mask)
                break
        if done is None:
            continue

        wc_rev = []
        key = done
        for j in range(c - 1, -1, -1):
            wc_rev.append(key[0])
            key = trail[j][key]
        wc = tuple(reversed(wc_rev))

        wp_rev = []
        cur = entry
        for i in range(p, 0, -1):
            cur = prefix_parents[i][cur]
            wp_rev.append(cur)
        # the walk above starts from the entry's parent in layer p
        wp = tuple(reversed(wp_rev))
        return (wp, wc)
    return None
