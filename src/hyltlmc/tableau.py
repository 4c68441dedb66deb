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
"""

from __future__ import annotations

from typing import Sequence

from .errors import ModelError
from .formula.closure import ClosureSet, MCS, closure, maximally_consistent_sets
from .formula.syntax import Formula, action_atoms
from .hybrid.automaton import HybridAutomaton, Transition
from .hybrid.discrete import strongly_connected_components, _reaching_set


def build_formula_automaton(formula: Formula, actions: Sequence[str]) -> HybridAutomaton:
    """Translate a formula over the given action alphabet.

    The alphabet must cover every action atom of the formula. Location
    names follow the maximally consistent set enumeration, so q17 is the
    eighteenth set in the order maximally_consistent_sets returns.
    """
    actions = tuple(actions)
    missing = action_atoms(formula) - set(actions)
    if missing:
        raise ModelError(
            f"formula uses actions outside the alphabet: {sorted(missing)}"
        )

    cl = closure(formula, actions)
    sets = maximally_consistent_sets(cl)
    names = {m: f"q{i}" for i, m in enumerate(sets)}

    vnames: set[str] = set()
    for c in cl.flow_ordinals:
        vnames |= c.state_vars | c.dot_vars
    variables = tuple(sorted(vnames))

    target_bits = [m.bits for m in sets]
    target_actions = [m.positive_actions() for m in sets]

    transitions: list[Transition] = []
    profile_targets: dict[tuple[int, int], list[int]] = {}
    for m in sets:
        b = m.bits
        # Required bit values on the target set. A next obligation and an
        # until/release unfolding can pin the same ordinal; a disagreement
        # means the source has no successors at all.
        pins: dict[int, int] = {}
        ok = True

        for i_x, i_op in cl.next_nodes:
            want = b >> i_x & 1
            prev = pins.get(i_op)
            if prev is None:
                pins[i_op] = want
            elif prev != want:
                ok = False
                break
        if ok:
            for i_u, i_1, i_2 in cl.until_nodes:
                u = b >> i_u & 1
                if b >> i_2 & 1:
                    if not u:
                        ok = False
                        break
                elif b >> i_1 & 1:
                    prev = pins.get(i_u)
                    if prev is None:
                        pins[i_u] = u
                    elif prev != u:
                        ok = False
                        break
                else:
                    if u:
                        ok = False
                        break
        if ok:
            for i_r, i_1, i_2 in cl.release_nodes:
                r = b >> i_r & 1
                if not (b >> i_2 & 1):
                    if r:
                        ok = False
                        break
                elif b >> i_1 & 1:
                    if not r:
                        ok = False
                        break
                else:
                    prev = pins.get(i_r)
                    if prev is None:
                        pins[i_r] = r
                    elif prev != r:
                        ok = False
                        break
        if not ok:
            continue
        mask = 0
        vals = 0
        for i, v in pins.items():
            mask |= 1 << i
            if v:
                vals |= 1 << i
        key = (mask, vals)
        targets = profile_targets.get(key)
        if targets is None:
            targets = [
                ti for ti, tb in enumerate(target_bits) if tb & mask == vals
            ]
            profile_targets[key] = targets
        src = names[m]
        for ti in targets:
            for a in target_actions[ti]:
                transitions.append(Transition(src, a, names[sets[ti]]))

    dyn = {names[m]: m.positive_flow_constraints() for m in sets}
    i_formula = cl.index[cl.formula]
    init = tuple(
        names[m]
        for m in sets
        if m.bits >> i_formula & 1 and not m.positive_actions()
    )
    acceptance = tuple(
        frozenset(
            names[m]
            for m in sets
            if (m.bits >> i_2 & 1) or not (m.bits >> i_u & 1)
        )
        for i_u, i_1, i_2 in cl.until_nodes
    )
    notes = {names[m]: repr(m) for m in sets}

    return HybridAutomaton(
        variables=variables,
        actions=actions,
        locations=tuple(names[m] for m in sets),
        transitions=tuple(transitions),
        dyn=dyn,
        init=init,
        acceptance=acceptance,
        location_notes=notes,
    )


def prune_unreachable(h: HybridAutomaton) -> HybridAutomaton:
    """Restrict to locations on a graph path from an initial location to a
    cycle meeting every acceptance set.

    Only the location graph is inspected, never continuous feasibility, so
    every run of the automaton survives pruning.
    """
    locs = list(h.locations)
    idx = {l: i for i, l in enumerate(locs)}
    n = len(locs)
    succ: list[list[int]] = [[] for _ in range(n)]
    for t in h.transitions:
        succ[idx[t.source]].append(idx[t.target])

    forward = {idx[l] for l in h.init}
    frontier = list(forward)
    while frontier:
        v = frontier.pop()
        for w in succ[v]:
            if w not in forward:
                forward.add(w)
                frontier.append(w)

    good: set[int] = set()
    for comp in strongly_connected_components(n, succ):
        members = set(comp)
        nontrivial = len(comp) > 1 or comp[0] in succ[comp[0]]
        if not nontrivial:
            continue
        if all(members & {idx[l] for l in F} for F in h.acceptance):
            good.update(members)
    live = _reaching_set(n, succ, good)

    keep = forward & live
    kept_locs = tuple(l for l in locs if idx[l] in keep)
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
        location_notes={
            l: s for l, s in h.location_notes.items() if l in kept_set
        },
    )
