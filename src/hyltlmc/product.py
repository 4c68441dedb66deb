"""The decision pipeline: does a system satisfy a formula?

The question is reduced to a reachability query in four steps:

1. The negated formula is compiled into an observer automaton whose
   accepting runs are exactly the traces violating the property. Only
   its locations on a path from an initial location to a cycle meeting
   every acceptance set, and whose flow atoms some state can meet, are
   built.
2. Observer and system are composed, from the initial pairs forward;
   accepting product runs are system traces that violate the property.
   Such a run only visits locations that an initial location reaches,
   that reach a cycle meeting every acceptance set and whose invariant
   the reach engine's own clip does not prove empty, so the product is
   pruned to those (tableau.prune_unreachable).
3. Generalized acceptance is reduced to a single final set (counter
   product), and an empty family becomes the trivial one, since an
   automaton with no acceptance sets accepts every run. The counter
   product is pruned again; when nothing is left, no run violates the
   property, and it is Verified from the location graph alone.
4. The product is instrumented with a latch f and snapshots: every exit
   edge of a final location gets a twin that, once, records a code in f
   and each witness variable in its snapshot. An accepting run must
   revisit a final location with a state close to an earlier visit, so
   if no state with f set and every witness back within eps of its
   snapshot is reachable, no accepting run exists and the property is
   Verified.

Interval box reachability over-approximates, so a query hit only means
the property could not be confirmed: verdicts are Verified or
Inconclusive, never Falsified.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, VariableRenamedWarning, check_settings
from .formula.nnf import to_nnf
from .formula.syntax import Formula, Not, action_atoms, to_str
from .hybrid.automaton import HybridAutomaton, Loc, Transition, compose
from .hybrid.constraints import FlowConstraint, JumpConstraint, Relation
from .hybrid.expr import Const, DotVar, PrimedVar, Var
from .reach.boxes import _box, bounds, is_empty
from .reach.engine import ReachResult, reachable
from .tableau import build_formula_automaton, prune_unreachable


def build_negated_observer(
    formula: Formula, actions, prune: bool = True, strict: bool = False
) -> HybridAutomaton:
    """Observer automaton accepting exactly the traces violating formula.

    With prune, only the locations prune_unreachable would keep are
    built: those on a path from an initial location to an accepting
    cycle whose invariant the engine's clip does not prove empty.
    """
    missing = set(action_atoms(formula)) - set(actions)
    if missing:
        raise ModelError(
            f"formula uses actions outside the system alphabet: {sorted(missing)}"
        )
    negated = to_nnf(Not(formula), strict=strict)
    return build_formula_automaton(negated, actions, prune=prune)


def degeneralize(h: HybridAutomaton) -> HybridAutomaton:
    """Counter product reducing a generalized family to one final set.

    Locations become (location, index); the index advances past set i
    when leaving one of its members, and the single final set is family
    set 0 at index 0. Families of size 0 or 1 are returned unchanged.
    """
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
    dyn = {(l, i): h.dyn[l] for l, i in locations}
    init = tuple((l, 0) for l in h.init)
    init_region = {(l, 0): r for l, r in h.init_region.items()}
    acceptance = (frozenset((l, 0) for l in h.acceptance[0]),)
    return HybridAutomaton(
        h.variables,
        h.actions,
        locations,
        transitions,
        dyn,
        init,
        init_region,
        acceptance,
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


@dataclass(frozen=True)
class QueryTarget:
    """One final location's recurrence query: f = code, witness near y."""

    location: Loc
    code: int


def _fresh_name(want: str, taken) -> str:
    name = want
    while name in taken:
        name = name + "_"
    if name != want:
        warnings.warn(
            f"auxiliary variable '{want}' collides with a model variable; "
            f"using '{name}'",
            VariableRenamedWarning,
            stacklevel=3,
        )
    return name


def instrument(
    h: HybridAutomaton, witness: str | None = None
) -> tuple[
    HybridAutomaton, tuple[QueryTarget, ...], str, tuple[str, ...], tuple[str, ...]
]:
    """Add the latch f and snapshot variables for the recurrence query.

    Every exit edge of a final location gains a twin, enabled only while
    f = 0, that sets f to the location's code and copies each witness
    variable into its snapshot. All auxiliaries start at 0 and never
    flow. witness picks the tracked variable; None takes the
    lexicographically first one, and "all" (when no variable carries
    that name) tracks the full continuous state with one snapshot per
    variable. Returns the instrumented automaton, the query targets, the
    latch name, the snapshot names and the witness names, the last two
    aligned index by index.

    Needs at most one acceptance set; an empty family means no final
    locations, hence no targets and no accepting runs at all.
    """
    if len(h.acceptance) > 1:
        raise ModelError("instrument needs a degeneralized automaton")
    if not h.variables:
        raise ModelError("cannot pick a witness variable: automaton has none")
    if witness is None:
        witness_vars = (min(h.variables),)
    elif witness == "all" and "all" not in h.variables:
        witness_vars = tuple(h.variables)
    elif witness not in h.variables:
        raise ModelError(f"witness variable {witness!r} is not declared")
    else:
        witness_vars = (witness,)

    taken = set(h.variables)
    f_name = _fresh_name("f", taken)
    taken.add(f_name)
    snapshots = []
    for w in witness_vars:
        name = _fresh_name("y" if len(witness_vars) == 1 else f"y_{w}", taken)
        taken.add(name)
        snapshots.append(name)
    y_names = tuple(snapshots)
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

    # One set of latch rows per final location, shared by its exit twins.
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
    # Edges share their jump tuples, and so do their twins: one twin tuple
    # per (jumps, latch rows) pair.
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
) -> tuple[list[dict], bool]:
    """Stored boxes where a target's recurrence query may hold.

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
            if is_empty(z):
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
    widen_after: int = 16,
    max_visits: int = 4000,
    strict: bool = False,
    witness: str | None = None,
) -> Verdict:
    """Decide system |= formula via the instrumented reachability query.

    An accepting product run stays on locations that an initial location
    reaches, that reach a cycle meeting every acceptance set and whose
    invariant some state meets, so the composed product and the counter
    product are both pruned to those locations. When none is left, no
    run violates the formula and the verdict is Verified from the
    location graph alone, without reachability. Raises ConfigError on a
    step or horizon that is not finite and positive, an eps that is not
    finite and nonnegative, or a widen_after or max_visits that is not an
    integer of at least 1. stats["timings"] holds the wall seconds of
    each stage, observer to query.
    """
    check_settings(
        positive=[("horizon", horizon), ("step", step)],
        nonnegative=[("eps", eps)],
        counts=[("widen_after", widen_after), ("max_visits", max_visits)],
    )
    timings: dict[str, float] = {}
    with _timed(timings, "observer"):
        observer = build_negated_observer(formula, system.actions, strict=strict)
    with _timed(timings, "compose+prune"):
        product = prune_unreachable(compose(system, observer))
    with _timed(timings, "degeneralize+prune"):
        product = prune_unreachable(normalize_acceptance(degeneralize(product)))
    with _timed(timings, "instrument"):
        inst, targets, f_name, y_names, w_names = instrument(product, witness)

    graph_only = not inst.locations
    with _timed(timings, "reach"):
        if graph_only:
            reach = ReachResult(inst.variables, {})
        else:
            reach = reachable(
                inst,
                horizon=horizon,
                step=step,
                widen_after=widen_after,
                max_visits=max_visits,
            )
    with _timed(timings, "query"):
        hits, unbounded = recurrence_hits(reach, targets, f_name, y_names, w_names, eps)

    stats = {
        "product_locations": len(inst.locations),
        "product_transitions": len(inst.transitions),
        "query_targets": len(targets),
        "boxes": sum(len(v) for v in reach.boxes.values()),
        "visits": dict(reach.visits),
        "reach_complete": reach.complete,
        "reach_incomplete": reach.incompleteness(),
        "aux": {"f": f_name, "y": y_names, "witness": w_names},
        "timings": timings,
    }
    if hits:
        status = "Inconclusive"
        reason = f"recurrence query reachable at {len(hits)} final location box(es)"
    elif not reach.complete:
        status = "Inconclusive"
        reason = f"reachability exploration {reach.incompleteness()}"
    elif unbounded:
        status = "Inconclusive"
        reason = "witness variable unbounded at a latched final location"
    elif graph_only:
        status = "Verified"
        reason = "no path from an initial location reaches an accepting cycle of the product"
    else:
        status = "Verified"
        reason = "no reachable state closes the recurrence at any final location"
    return Verdict(status, reason, to_str(formula), hits, reach.complete, stats, inst)
