"""Compiling a formula into an automaton whose runs are exactly its models.

Locations are the maximally consistent subsets of the formula's closure
over the given action alphabet, named q0, q1, ... in the order
maximally_consistent_sets returns them. An edge (M, a, M') exists when
M' holds the action atom a, every next obligation of M is discharged in
M', and every until and release obligation unfolds by one step. A
location's dynamics collects its positively held flow constraints;
discrete jumps are unconstrained. Initial locations hold the formula and
no action atom. One acceptance set per until operator, listing the
locations where that until is fulfilled or dropped, keeps runs from
postponing an until forever.

Every property of the sets is a column (closure.Columns), made with a
few and/or operations per closure node, and only a kept set gets a name,
from its rank. A set pins the ordinals its successors must match. The
valid sets split into classes of one pin profile and one acceptance
vector, whose members have the same successors and acceptance bits.
Given a system, only the sets in a live pair (system location, set) are
built, searched per class (see _live_sets), after leaving out the sets
whose flow atoms no state can meet (reach.boxes.satisfiable) and the
pairs whose joint dynamics, the system location's with the set's flow
atoms, none can. So the search keeps prune_unreachable's rule: composing
the kept sets with the system and pruning gives the product that
composing every set and pruning gives, and the kept sets are exactly
the observer halves of its locations. Without one, every consistent set
is built. satisfiable remembers its answers, so pruning judges no pair
that the search judged already.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ModelError
from .formula.closure import Columns, closure, members
from .formula.closure import maximally_consistent_sets  # noqa: F401 (traced by name)
from .formula.syntax import Formula, action_atoms
from .hybrid.automaton import HybridAutomaton, Transition, live_nodes
from .reach.boxes import satisfiable


def build_formula_automaton(
    formula: Formula,
    actions: Sequence[str],
    system: HybridAutomaton | None = None,
    counts: dict[str, int] | None = None,
) -> HybridAutomaton:
    """Translate a formula over the given action alphabet, which must
    cover every action atom of the formula.

    Without a system, every consistent set is built. With a system over
    the same alphabet, only the sets in a live pair of system and tableau
    are built (see _live_sets), with every edge between them: an induced
    sub-automaton of the full one, whose composition with the system
    prunes (prune_unreachable) to what the full one's does, and whose
    locations are the observer halves of that pruned product's. A pair
    whose joint dynamics the engine's clip proves empty is never reached,
    as pruning drops it. counts receives observer_sets, the number of
    consistent sets, and observer_classes, the pair search's nodes.
    """
    actions = tuple(actions)
    missing = action_atoms(formula) - set(actions)
    if missing:
        raise ModelError(
            f"formula uses actions outside the alphabet: {sorted(missing)}"
        )
    if system is not None and set(system.actions) != set(actions):
        raise ModelError(
            f"system alphabet {sorted(system.actions)} is not the "
            f"observer's {sorted(actions)}"
        )

    cl = closure(formula, actions)
    sets = Columns(cl)
    col, full = sets.cols, sets.full
    flows = cl.flow_ordinals
    variables = tuple(sorted(set().union(*(c.state_vars | c.dot_vars for c in flows))))

    # A next obligation pins its operand in every successor to its own
    # sign; an until or release its unfolding leaves open pins itself.
    # pinned[i] holds the sets pinning ordinal i to 1 and to 0. bad holds
    # the sets that break an until or release or pin an ordinal both
    # ways; they have no successors.
    pins = [(i_op, full, col[i_x]) for i_x, i_op in cl.next_nodes]
    pins += [(i, col[i2 ^ 1] & col[i1], col[i]) for i, i1, i2 in cl.until_nodes]
    pins += [(i, col[i2] & col[i1 ^ 1], col[i]) for i, i1, i2 in cl.release_nodes]
    pinned: dict[int, tuple[int, int]] = {}
    for i, where, value in pins:
        ones, zeros = pinned.get(i, (0, 0))
        pinned[i] = ones | where & value, zeros | where & ~value
    bad = 0
    for i, i1, i2 in cl.until_nodes:
        bad |= col[i2] & col[i ^ 1] | col[i2 ^ 1] & col[i1 ^ 1] & col[i]
    for i, i1, i2 in cl.release_nodes:
        bad |= col[i2 ^ 1] & col[i] | col[i2] & col[i1] & col[i ^ 1]
    for ones, zeros in pinned.values():
        bad |= ones & zeros

    # Given a system, a set whose flow atoms no state can meet lies on no
    # run (see prune_unreachable): it is no target and has no successors.
    # Every combination of flow atoms is a free choice, judged once.
    usable = full
    if system is not None:
        combos = [(full, ())]
        for c, i in flows.items():
            combos = [
                p
                for x, cs in combos
                for p in ((x & col[i ^ 1], cs), (x & col[i], cs + (c,)))
            ]
        for x, cs in combos:
            if not satisfiable(cs):
                usable ^= x
        combos = [(x, cs) for x, cs in combos if x & usable]

    # At most one action atom is positive, so the columns are disjoint.
    has_action = sum(col[i] for i in sets.actions)
    targets = has_action & usable
    valid = usable & ~bad
    init = col[cl.index[cl.formula]] & ~has_action
    acceptance = [col[i2] | col[i ^ 1] for i, _, i2 in cl.until_nodes]

    # The valid sets split by pin profile, each part with the targets
    # matching its pins, then by acceptance into classes (sets, part).
    parts = [(valid, targets)]
    for i, (ones, zeros) in pinned.items():
        rest = ~(ones | zeros)
        parts = [
            (y, t)
            for x, ts in parts
            for y, t in (
                (x & ones, ts & col[i]), (x & zeros, ts & col[i ^ 1]), (x & rest, ts)
            )
            if y
        ]
    successors = [ts for _, ts in parts]
    classes = [(x, j) for j, (x, _) in enumerate(parts)]
    for F in acceptance:
        classes = [(y, j) for x, j in classes for y in (x & F, x & ~F) if y]

    live, searched = full, 0
    if system is not None:
        act = {a: col[cl.action_ordinals[a]] & valid for a in actions}
        live, searched = _live_sets(
            system, classes, successors, act, init & valid, acceptance, combos
        )
    if counts is not None:
        counts.update(observer_sets=sets.n, observer_classes=searched)

    rank = {r: sets.rank(r) for r in members(live)}
    kept = sorted(rank, key=rank.__getitem__)
    names = {r: f"q{rank[r]}" for r in kept}
    labels = [None] + sorted(cl.action_ordinals, key=cl.action_ordinals.__getitem__)
    part = {r: j for x, j in classes for r in members(x & live)}
    edges = {
        j: [
            (labels[t % sets.radix], names[t])
            for t in sorted(members(successors[j] & live), key=rank.__getitem__)
        ]
        for j in set(part.values())
    }
    free = [(c, sets.free.index(i)) for c, i in flows.items()]
    dyn = {
        names[r]: tuple(c for c, t in free if r // sets.radix >> t & 1) for r in kept
    }
    initial = set(members(init & live))
    return HybridAutomaton(
        variables=variables,
        actions=actions,
        locations=tuple(names[r] for r in kept),
        transitions=tuple(
            Transition(names[r], a, target)
            for r in kept
            if r in part
            for a, target in edges[part[r]]
        ),
        dyn=dyn,
        init=tuple(names[r] for r in kept if r in initial),
        acceptance=tuple(
            frozenset(names[r] for r in members(F & live)) for F in acceptance
        ),
    )


def _live_sets(
    system: HybridAutomaton,
    classes: Sequence[tuple[int, int]],
    successors: Sequence[int],
    act: dict[str, int],
    init: int,
    acceptance: Sequence[int],
    combos: Sequence[tuple[int, tuple]],
) -> tuple[int, int]:
    """The sets in a live pair (system location, set), and the number of
    (system location, class) nodes searched.

    (s, i) steps to (s', j) when j is a successor of i whose action
    labels a system edge s -> s', as in compose; a pair is live
    (live_nodes) under the acceptance family compose lifts, a pair whose
    joint dynamics the engine's clip proves empty (prune_unreachable)
    having no successors. Such a pair is never live, so it is left out:
    reach[s] collects the sets paired with s on a path from an initial
    pair that some state of s may meet. combos holds each combination of
    flow atoms as (its sets, its atoms), judged on s's dynamics with the
    atoms, the set of constraints compose gives the pair, the first time
    one of its sets is paired with s. A class met at s adds its kept
    successors by each action to the system locations that action leads
    to. The quotient steps from (s, K) to (s', K') when a successor of K
    by an edge s -> s' lies in K' and is kept at s'. Every member of K
    has those successors, so each quotient edge leaves every member, and
    the quotient is a forward bisimulation: following a closed walk
    through every node of a quotient component from one member, a pair
    repeats after whole rounds, and the cycle between meets every
    acceptance set the component meets. So a reached pair is live exactly
    when its quotient node is.
    """
    locs = system.locations
    ns, nk = len(locs), len(classes)
    sidx = {l: s for s, l in enumerate(locs)}
    moves: list[dict[str, list[int]]] = [{} for _ in range(ns)]
    for t in system.transitions:
        moves[sidx[t.source]].setdefault(t.action, []).append(sidx[t.target])

    seen, fits = [0] * ns, [0] * ns

    def fit(s: int, x: int) -> int:
        """The members of the bitset x that some state of s may meet."""
        new = x & ~seen[s]
        if new:
            seen[s] |= new
            dyn = system.dyn[locs[s]]
            for y, cs in combos:
                if y & new and satisfiable(dyn + cs):
                    fits[s] |= y
        return x & fits[s]

    def meets(x: int) -> list[int]:
        """The classes the bitset x meets."""
        return [k for k, (y, _) in enumerate(classes) if x & y]

    reach, scanned = [0] * ns, [0] * ns
    todo = [sidx[l] for l in system.init]
    for s in todo:
        reach[s] = fit(s, init)
    # Quotient node s * nk + k -> its successor nodes.
    quotient: dict[int, list[int]] = {}
    while todo:
        s = todo.pop()
        fresh, scanned[s] = reach[s] & ~scanned[s], reach[s]
        for k in meets(fresh):
            if s * nk + k in quotient:
                continue
            quotient[s * nk + k] = out = []
            j = classes[k][1]
            for a, dests in moves[s].items():
                ts = successors[j] & act[a]
                for s2 in dests:
                    kept = fit(s2, ts)
                    out += [s2 * nk + k2 for k2 in meets(kept)]
                    if kept & ~reach[s2]:
                        reach[s2] |= kept
                        todo.append(s2)

    lifted = [[v for v in quotient if locs[v // nk] in F] for F in system.acceptance]
    lifted += [[v for v in quotient if classes[v % nk][0] & F] for F in acceptance]
    live = 0
    for v in live_nodes(ns * nk, quotient, quotient, lifted):
        s, k = divmod(v, nk)
        live |= reach[s] & classes[k][0]
    return live, len(quotient)


def live_locations(h: HybridAutomaton) -> set:
    """The locations on a graph path from an initial location to a cycle
    meeting every acceptance set (see live_nodes), a location whose
    invariant the reach engine's clip proves empty
    (reach.boxes.satisfiable) having no out-edges: the clip, compiled from
    the same rows as the engine's, of the full box is empty. Every
    location of an accepting run is one of them (prune_unreachable), so
    an empty result proves that h has no accepting run at all.
    """
    locs = h.locations
    idx = {l: i for i, l in enumerate(locs)}
    succ: list[list[int]] = [[] for _ in locs]
    for t in h.transitions:
        succ[idx[t.source]].append(idx[t.target])
    # An empty location loses its out-edges, so it lies on no path to a
    # cycle.
    for i, l in enumerate(locs):
        if not satisfiable(h.dyn[l]):
            succ[i] = []
    live = live_nodes(
        len(locs),
        succ,
        (idx[l] for l in h.init),
        [[idx[l] for l in F] for F in h.acceptance],
    )
    return {locs[i] for i in live}


def prune_unreachable(h: HybridAutomaton) -> HybridAutomaton:
    """Restrict to the live locations (live_locations).

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
    which ignores the continuous part, may shrink. When every location is
    live, h itself is returned, not a copy; pruning is idempotent, since
    every location on a path to an accepting cycle keeps that path.
    """
    kept_set = live_locations(h)
    if len(kept_set) == len(h.locations):
        return h
    kept_locs = tuple(l for l in h.locations if l in kept_set)
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
