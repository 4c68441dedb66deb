"""Compiling a formula into an automaton whose runs are exactly its models.

Locations are the maximally consistent subsets of the formula's closure
over the given action alphabet, named q0, q1, ... in their enumeration
order. An edge (M, a, M') exists when M' holds the action atom a, every
next obligation of M is discharged in M', and every until and release
obligation unfolds by one step. A location's dynamics collects its
positively held flow constraints; discrete jumps are unconstrained.
Initial locations hold the formula and no action atom. One acceptance set
per until operator, listing the locations where that until is fulfilled
or dropped, keeps runs from postponing an until forever.

Successors are computed on set indices first. A pruned automaton keeps
only the locations on a path from an initial location to a cycle that
meets every acceptance set (live_nodes), leaving out the sets whose flow
atoms no state can meet, which the reach engine's clip of the full box
decides (reach.boxes.satisfiable); prune_unreachable applies the same
rule, and no edge is made for any other location.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ModelError
from .formula.closure import ClosureSet, closure, maximally_consistent_sets
from .formula.syntax import Formula, action_atoms
from .hybrid.automaton import HybridAutomaton, Transition
from .hybrid.discrete import live_nodes
from .reach.boxes import satisfiable


def build_formula_automaton(
    formula: Formula, actions: Sequence[str], prune: bool = False
) -> HybridAutomaton:
    """Translate a formula over the given action alphabet.

    The alphabet must cover every action atom of the formula. Location
    names follow the maximally consistent set enumeration, so q17 is the
    eighteenth set in the order maximally_consistent_sets returns. With
    prune, only the locations prune_unreachable would keep are built;
    the result equals prune_unreachable of the full automaton.
    """
    actions = tuple(actions)
    missing = action_atoms(formula) - set(actions)
    if missing:
        raise ModelError(
            f"formula uses actions outside the alphabet: {sorted(missing)}"
        )

    cl = closure(formula, actions)
    sets = maximally_consistent_sets(cl)
    n = len(sets)
    names = [f"q{i}" for i in range(n)]

    vnames: set[str] = set()
    for c in cl.flow_ordinals:
        vnames |= c.state_vars | c.dot_vars
    variables = tuple(sorted(vnames))

    target_bits = [m.bits for m in sets]
    target_actions = [m.positive_actions() for m in sets]

    # A set whose flow atoms no state can meet lies on no run (see
    # prune_unreachable), so when pruning it is no target and has no
    # successors. Sets with the same flow atoms share one answer.
    usable = [True] * n
    if prune:
        flow_mask = sum(1 << i for i in cl.flow_ordinals.values())
        feasible: dict[int, bool] = {}
        for i, m in enumerate(sets):
            key = m.bits & flow_mask
            ok = feasible.get(key)
            if ok is None:
                ok = feasible[key] = satisfiable(m.positive_flow_constraints())
            usable[i] = ok
    targets = [ti for ti in range(n) if target_actions[ti] and usable[ti]]

    # Successor indices per set: the targets matching its pin profile. The
    # targets are bucketed by their pinned bits once per distinct mask.
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

    live = live_nodes(n, succ, init, acceptance) if prune else range(n)
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
        dyn={names[i]: sets[i].positive_flow_constraints() for i in kept},
        init=tuple(names[i] for i in init if i in live),
        acceptance=tuple(
            frozenset(names[i] for i in F if i in live) for F in acceptance
        ),
    )


def _pins(cl: ClosureSet, b: int) -> tuple[int, int] | None:
    """(mask, values) every successor of the set with bits b must match.

    A next obligation and an until/release unfolding can pin the same
    ordinal; a disagreement means the set has no successors at all, and
    gives None.
    """
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


def prune_unreachable(h: HybridAutomaton) -> HybridAutomaton:
    """Restrict to locations on a graph path from an initial location to a
    cycle meeting every acceptance set (see live_nodes), leaving out every
    location whose invariant the reach engine's clip proves empty
    (reach.boxes.satisfiable): the clip, compiled from the same rows as
    the engine's, of the full box is empty.

    Every accepting run of the automaton survives pruning. A run samples
    each location it visits at a state meeting the location's invariant,
    so it never visits a location with an empty one, and every location
    of an accepting run lies on such a path. Unless its visit budget runs
    out first, the reach engine finds the same boxes, visits and hits at
    every kept location as without the emptiness rule. A clip is
    monotone, and the engine's invariant clip is the one that emptied
    the full box, so it rejects every initial and pushed box at an empty
    location. A dropped location it can still reach has no
    path into a kept one that avoids the empty ones, so no box stored
    there flows into a kept location. The language of `WordAutomaton`,
    which ignores the continuous part, may shrink.
    """
    locs = h.locations
    idx = {l: i for i, l in enumerate(locs)}
    succ: list[list[int]] = [[] for _ in locs]
    for t in h.transitions:
        succ[idx[t.source]].append(idx[t.target])
    # An empty location loses its out-edges, so it lies on no path to a
    # cycle. Locations share their constraint objects, so each distinct
    # dynamics is judged once.
    feasible: dict[tuple[int, ...], bool] = {}
    for i, l in enumerate(locs):
        dyn = h.dyn[l]
        key = tuple(map(id, dyn))
        ok = feasible.get(key)
        if ok is None:
            ok = feasible[key] = satisfiable(dyn)
        if not ok:
            succ[i] = []
    live = live_nodes(
        len(locs),
        succ,
        (idx[l] for l in h.init),
        [[idx[l] for l in F] for F in h.acceptance],
    )
    kept_locs = tuple(l for l in locs if idx[l] in live)
    kept_set = set(kept_locs)
    return HybridAutomaton(
        variables=h.variables,
        actions=h.actions,
        locations=kept_locs,
        transitions=tuple(
            t
            for t in h.transitions
            if t.source in kept_set and t.target in kept_set
        ),
        dyn={l: h.dyn[l] for l in kept_locs},
        init=tuple(l for l in h.init if l in kept_set),
        init_region={
            l: cs for l, cs in h.init_region.items() if l in kept_set
        },
        acceptance=tuple(F & kept_set for F in h.acceptance),
    )
