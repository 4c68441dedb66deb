"""The decision pipeline: does a system satisfy a formula?

The question is reduced to a reachability query in three steps:

1. The negated formula is compiled into an observer automaton whose
   accepting runs are exactly the traces violating the property. Given
   the system, the tableau builds only the observer locations that lie
   in a live pair with a system location: a pair on a path from an
   initial pair to a cycle meeting every acceptance set of the
   composition, searched on the composition's location graph from the
   initial pairs. The sets whose flow atoms no state can meet, and the
   pairs whose joint dynamics none can, are left out, as step 2 prunes
   them, so the observer's locations are exactly the observer halves of
   the pruned product's.
2. Observer and system are composed, from the initial pairs forward;
   accepting product runs are system traces that violate the property.
   Such a run only visits locations that an initial location reaches,
   that reach a cycle meeting every acceptance set and whose invariant
   the reach engine's own clip does not prove empty, so the product is
   pruned to those (tableau.prune_unreachable), which hands it back as
   it is when every location is kept. Every live pair of the
   composition with the full observer is a pair of kept locations, so
   this is the product the full observer would give. When nothing is
   left, no run violates the property, and it is Verified from the
   location graph alone.
3. The product is instrumented (instrument). Generalized acceptance is
   first reduced to a single final set (counter product) built forward
   from the initial locations; every counter location reachable from a
   live product is live (see degeneralize), so it needs no second
   prune. The counter product is built straight into the query
   automaton, so only that one automaton is built. An empty family
   accepts every run, so every location is then final. Every exit edge
   of a final location gets a twin that, once, records a code in a
   latch f and the first variable in its snapshot y. An accepting run
   must revisit a final location with a state close to an earlier
   visit, so if no state with f set and that variable back within eps
   of y is reachable, no accepting run exists and the property is
   Verified. The query is compiled like every other region
   (reach.boxes.compile_rows), and a stored box is a hit unless its clip
   proves the box empty, an unbounded one included.

Interval box reachability over-approximates, so a query hit only means
the property could not be confirmed: verdicts are Verified or
Inconclusive, never Falsified. A Verified verdict is vacuous when the
system has no infinite run at all (live_locations finds none of its
locations), and then says so: a run that dwells in a location for ever
is not a trace.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import check_settings
from .formula.nnf import to_nnf
from .formula.syntax import Formula, Not, to_str
from .hybrid.automaton import HybridAutomaton, Loc, Transition, compose
from .hybrid.constraints import FlowConstraint, JumpConstraint, Relation
from .hybrid.expr import Const, DotVar, PrimedVar, Sub, Var
from .reach.boxes import _box, bounds, clip, compile_rows, is_empty
from .reach.engine import ReachResult, check_reach_settings, reachable
from .tableau import build_formula_automaton, live_locations, prune_unreachable


def degeneralize(h: HybridAutomaton) -> HybridAutomaton:
    """Counter product reducing a generalized family to one final set.

    Locations become (location, index); the index advances past set i
    when leaving one of its members, and the single final set is family
    set 0 at index 0. Only the counter locations reachable from an
    initial (location, 0) are built, in the order (index, location) of
    the full counter product, and edges in the order (edge, index).
    Families of size 0 or 1 are returned unchanged. instrument builds
    the same counter product (_counter_parts) straight into its query
    automaton.

    On a live input (every location on a path from an initial location
    to a nontrivial component meeting every set, as prune_unreachable
    leaves it) every counter location built is live too, so pruning the
    result changes nothing. From a reachable (l, i), a run can go on into
    such a component and cycle through it: each round visits a member of
    the set the index waits for and leaves it, so the index moves on,
    and it passes 0 at a final location again and again. There are
    finitely many final counter locations, so one of them lies on a
    cycle that the run reaches.
    """
    if len(h.acceptance) <= 1:
        return h
    return HybridAutomaton(h.variables, h.actions, *_counter_parts(h))


def _counter_parts(h: HybridAutomaton) -> tuple:
    """The locations, transitions, dyn, init, init region and acceptance
    of degeneralize(h), without building an automaton of them."""
    k = len(h.acceptance)
    if k <= 1:
        return h.locations, h.transitions, h.dyn, h.init, h.init_region, h.acceptance
    idx = {l: n for n, l in enumerate(h.locations)}
    member = [[l in F for F in h.acceptance] for l in h.locations]
    out: list[list[int]] = [[] for _ in h.locations]
    for t in h.transitions:
        out[idx[t.source]].append(idx[t.target])
    # reached[n] has bit i set when (location n, index i) is reachable.
    reached = [0] * len(h.locations)
    stack = [(idx[l], 0) for l in h.init]
    for n, _ in stack:
        reached[n] |= 1
    while stack:
        n, i = stack.pop()
        j = (i + 1) % k if member[n][i] else i
        for m in out[n]:
            if not reached[m] >> j & 1:
                reached[m] |= 1 << j
                stack.append((m, j))

    locations = tuple(
        (l, i)
        for i in range(k)
        for n, l in enumerate(h.locations)
        if reached[n] >> i & 1
    )
    transitions = []
    for t in h.transitions:
        n = idx[t.source]
        for i in range(k):
            if reached[n] >> i & 1:
                j = (i + 1) % k if member[n][i] else i
                transitions.append(
                    Transition((t.source, i), t.action, (t.target, j), t.jumps)
                )
    dyn = {(l, i): h.dyn[l] for l, i in locations}
    init = tuple((l, 0) for l in h.init)
    init_region = {(l, 0): r for l, r in h.init_region.items()}
    acceptance = (
        frozenset(
            (l, 0)
            for n, l in enumerate(h.locations)
            if member[n][0] and reached[n] & 1
        ),
    )
    return locations, transitions, dyn, init, init_region, acceptance


@dataclass(frozen=True)
class QueryTarget:
    """One final location's recurrence query: f = code, witness near y."""

    location: Loc
    code: int


def _fresh_name(want: str, taken) -> str:
    name = want
    while name in taken:
        name = name + "_"
    return name


def instrument(h: HybridAutomaton) -> tuple[
    HybridAutomaton, tuple[QueryTarget, ...], str, tuple[str, ...], tuple[str, ...]
]:
    """The recurrence query automaton: h degeneralized, with the latch f
    and snapshot variable y added.

    A family of several acceptance sets is first reduced to one: the
    counter product of degeneralize is built straight into the query
    automaton (_counter_parts), so this is instrument(degeneralize(h))
    with one automaton built and validated instead of two. An empty
    family accepts every run, so every location is final. Every exit
    edge of a final location gains a twin, enabled only while f = 0, that
    sets f to the location's code and copies the tracked variable, the
    lexicographically first one, into y. An automaton with no variables
    gets no snapshot, and the latch alone answers. All auxiliaries start
    at 0 and never flow. Returns the instrumented automaton, whose one
    acceptance set is the final locations, the query targets, the latch
    name, the snapshot names and the tracked variable names, the last two
    aligned index by index.
    """
    locations, edges, base_dyn, init, base_region, acceptance = _counter_parts(h)
    finals = acceptance[0] if acceptance else frozenset(locations)
    witness_vars = (min(h.variables),) if h.variables else ()
    taken = (*h.variables, *h.actions)
    f_name = _fresh_name("f", taken)
    y_names = (_fresh_name("y", (*taken, f_name)),) if witness_vars else ()
    aux = (f_name, *y_names)
    variables = h.variables + aux

    zero = Const(0.0)
    aux_dyn = tuple(FlowConstraint(DotVar(n), Relation.EQ, zero) for n in aux)
    dyn = {l: base_dyn[l] + aux_dyn for l in locations}

    aux_init = tuple(FlowConstraint(Var(n), Relation.EQ, zero) for n in aux)
    init_region = {l: base_region.get(l, ()) + aux_init for l in init}

    order = [l for l in locations if l in finals]
    targets = tuple(QueryTarget(l, i + 1) for i, l in enumerate(order))

    # One set of latch rows per final location, shared by its exit twins.
    unlatched = JumpConstraint(Var(f_name), Relation.EQ, zero)
    copies = tuple(
        JumpConstraint(PrimedVar(y), Relation.EQ, Var(w))
        for y, w in zip(y_names, witness_vars)
    )
    latch = {
        t.location: (
            unlatched,
            JumpConstraint(PrimedVar(f_name), Relation.EQ, Const(float(t.code))),
            *copies,
        )
        for t in targets
    }
    # Edges share their jump tuples, and so do their twins: one twin tuple
    # per (jumps, latch rows) pair.
    twins: dict[tuple[int, int], tuple[JumpConstraint, ...]] = {}
    transitions = list(edges)
    for t in edges:
        rows = latch.get(t.source)
        if rows is not None:
            jumps = twins.setdefault((id(t.jumps), id(rows)), t.jumps + rows)
            transitions.append(Transition(t.source, t.action, t.target, jumps))

    out = HybridAutomaton(
        variables,
        h.actions,
        locations,
        transitions,
        dyn,
        init,
        init_region,
        (finals,),
    )
    return out, targets, f_name, y_names, witness_vars


@dataclass
class Verdict:
    """Outcome of a check run; Verified only when the proof is airtight.

    product is the instrumented product the query ran on, kept out of
    stats; `hyltl-mc check --export-phaver` writes it.
    """

    status: str
    reason: str
    formula: str
    hits: list[dict] = field(default_factory=list)
    complete: bool = True
    stats: dict = field(default_factory=dict)
    product: HybridAutomaton | None = field(default=None, repr=False, compare=False)

    @property
    def verified(self) -> bool:
        return self.status == "Verified"

    def __str__(self) -> str:
        return f"{self.status}: {self.reason}"


def recurrence_hits(
    reach: ReachResult,
    targets: tuple[QueryTarget, ...],
    f_name: str,
    y_names: tuple[str, ...],
    w_names: tuple[str, ...],
    eps: float,
) -> list[dict]:
    """Stored boxes where a target's recurrence query may hold.

    The query compiles like every other region (reach.boxes.compile_rows):
    f equal to the target's code, and every snapshot y within eps of its
    tracked variable w, y - w <= eps and w - y <= eps. A stored box is a
    hit unless clip proves it empty, so a box leaving a snapshot or its
    variable unbounded is a hit too, with that infinite range. The eps
    rows are compiled only once some box meets its latch.
    """
    names = reach.names
    latched = []
    for target in targets:
        stored = reach.boxes.get(target.location)
        if stored:
            latch = compile_rows(
                [FlowConstraint(Var(f_name), Relation.EQ, Const(float(target.code)))],
                names,
            )
            for box in stored:
                z = clip(_box(*box), latch)
                if not is_empty(z):
                    latched.append((target, z))
    if not latched:
        return []
    near = compile_rows(
        [
            FlowConstraint(Sub(a, b), Relation.LE, Const(eps))
            for y, w in zip(y_names, w_names)
            for a, b in ((Var(y), Var(w)), (Var(w), Var(y)))
        ],
        names,
    )
    hits = []
    for target, z in latched:
        if not is_empty(clip(z, near)):
            lo, hi = bounds(z)
            box = dict(zip(names, zip(lo.tolist(), hi.tolist())))
            hits.append({"location": target.location, "code": target.code, "box": box})
    return hits


@contextmanager
def _timed(timings: dict[str, float], stage: str):
    """Record the wall seconds of the enclosed stage under its name."""
    start = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - start


def check(
    system: HybridAutomaton,
    formula: Formula,
    horizon: float = 100.0,
    step: float = 0.01,
    eps: float = 1e-6,
    strict: bool = False,
) -> Verdict:
    """Decide system |= formula via the instrumented reachability query.

    An accepting product run stays on locations that an initial location
    reaches, that reach a cycle meeting every acceptance set and whose
    invariant some state meets. The observer is built only where it
    pairs with the system on such a location, the composed product is
    pruned to those locations, and instrument builds the counter product
    forward from them, which keeps it live. When none is left, no run
    violates the formula and the verdict is Verified from the location
    graph alone: reachability has no location to visit. Raises
    ConfigError, before any stage runs, on settings that
    reach.engine.check_reach_settings rejects or an eps that is not
    finite and nonnegative. stats holds the observer and product sizes,
    the observer's consistent sets and searched class nodes,
    stats["timings"] the wall seconds of each stage, observer to query,
    and stats["vacuous"] whether the verdict is Verified because the
    system has no infinite run at all.
    """
    check_reach_settings(horizon, step)
    check_settings(nonnegative=[("eps", eps)])
    timings: dict[str, float] = {}
    counts: dict[str, int] = {}
    with _timed(timings, "observer"):
        negated = to_nnf(Not(formula), strict=strict)
        observer = build_formula_automaton(negated, system.actions, system, counts)
    with _timed(timings, "compose+prune"):
        product = prune_unreachable(compose(system, observer))
    with _timed(timings, "instrument"):
        inst, targets, f_name, y_names, w_names = instrument(product)

    with _timed(timings, "reach"):
        reach = reachable(inst, horizon=horizon, step=step)
    with _timed(timings, "query"):
        hits = recurrence_hits(reach, targets, f_name, y_names, w_names, eps)

    stats = {
        "observer_locations": len(observer.locations),
        "observer_transitions": len(observer.transitions),
        **counts,
        "product_locations": len(inst.locations),
        "product_transitions": len(inst.transitions),
        "query_targets": len(targets),
        "boxes": sum(len(v) for v in reach.boxes.values()),
        "visits": dict(reach.visits),
        "flows": reach.flows,
        "reach_complete": reach.complete,
        "reach_incomplete": reach.incompleteness(),
        "aux": {"f": f_name, "y": y_names, "witness": w_names},
        "vacuous": False,
        "timings": timings,
    }
    if hits:
        status = "Inconclusive"
        reason = f"recurrence query reachable at {len(hits)} final location box(es)"
    elif not reach.complete:
        status = "Inconclusive"
        reason = f"reachability exploration {reach.incompleteness()}"
    elif not inst.locations:
        status = "Verified"
        # A kept product location lies on a path to an accepting cycle of
        # the product; the observer moves on the system's actions, so the
        # path's system part runs through live system locations. Only an
        # empty product can therefore be vacuous.
        stats["vacuous"] = not live_locations(system)
        if stats["vacuous"]:
            reason = (
                "vacuous: the system has no infinite run, since no initial "
                "location reaches an accepting cycle of its location graph"
            )
        else:
            reason = "no path from an initial location reaches an accepting cycle of the product"
    else:
        status = "Verified"
        reason = "no reachable state closes the recurrence at any final location"
    return Verdict(status, reason, to_str(formula), hits, reach.complete, stats, inst)
