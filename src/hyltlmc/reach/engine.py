"""Worklist reachability over (location, box) pairs.

From each pending box the engine flows a tube through the location's
dynamics, then fires every edge whose guard the tube can meet, pushing
the reset image clipped to the target invariant. Per-location stores
keep unions of boxes; a box already covered by a stored one is dropped.
Locations visited more than widen_after times widen incoming boxes to
the invariant bounds on every growing axis, which forces termination.

Edges that share a jump tuple share their work. On each visit the tube
is clipped by each distinct guard out of the location and imaged once,
and each image is clipped once per distinct (jump tuple, target
invariant) pair. Every edge then pushes its pair's box, in transition
order, so the LIFO worklist pops the same boxes as with one clip and
image per edge; a pushed box may sit in several work items and is never
written in place. The dynamics are read once per distinct tuple of
derivative constraints, and a flow's invariant bounds come from the
location's compiled invariant clip.

The result is an over-approximation: every reachable state lies in some
stored box. It is only guaranteed to cover everything when `complete`
is true; budget exhaustion or a failed flow enclosure makes it false,
and callers must then treat absence of a hit as unknown. The first such
cause is recorded with the location where it struck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import UnsupportedDynamicsError
from ..hybrid.automaton import HybridAutomaton, Loc
from .boxes import Clip, _box, _split, bounds, clip, compile_rows, contains, full_box
from .boxes import image, is_empty
from .dynamics import location_dynamics, transition_image
from .kernels import FLOW_BUDGET, FLOW_DONE, Discretization, flow_tube


@dataclass
class ReachResult:
    names: tuple[str, ...]
    boxes: dict[Loc, list[tuple[np.ndarray, np.ndarray]]]
    visits: dict[Loc, int] = field(default_factory=dict)
    cause: str | None = None
    cause_location: Loc | None = None

    @property
    def complete(self) -> bool:
        return self.cause is None

    def incompleteness(self) -> str | None:
        """Why `complete` is false, with the location; None when complete."""
        if self.cause is None:
            return None
        return f"incomplete, {self.cause} at location {self.cause_location!r}"

    def hull(self) -> dict[str, tuple[float, float]]:
        """Per-variable bounds over every stored box of every location."""
        z = np.full(2 * len(self.names), -np.inf)
        for store in self.boxes.values():
            for box in store:
                z = np.maximum(z, _box(*box))
        lo, hi = bounds(z)
        return {x: (float(lo[i]), float(hi[i])) for i, x in enumerate(self.names)}


class _Plan(NamedTuple):
    """What the engine reads of a location once: its flow, its invariant,
    and its out-edges grouped by jump tuple (module docstring)."""

    A: np.ndarray
    b: np.ndarray
    disc: Discretization
    inv: Clip
    inv_lo: np.ndarray
    inv_hi: np.ndarray
    jumps: list[tuple[Clip, np.ndarray, np.ndarray]]
    pairs: list[tuple[int, Clip]]
    pushes: list[tuple[int, Loc]]


def reachable(
    h: HybridAutomaton,
    horizon: float = 100.0,
    step: float = 0.01,
    widen_after: int = 16,
    max_visits: int = 4000,
) -> ReachResult:
    """Over-approximate the reachable states of the automaton.

    horizon bounds the continuous time of any single flow segment; a
    location whose flow neither stabilizes nor leaves its invariant
    within it clears the complete flag. Initial regions must give every
    variable a finite interval.
    """
    names = h.variables
    n = len(names)
    n_steps = max(1, math.ceil(horizon / step))
    # Every box is an upper-bound vector z = (-lo, hi) (see reach.boxes)
    # until the result is returned. A location's flow and edges are read
    # when a box is first flowed there; initial and pushed boxes only
    # need an invariant clip, so locations and edges no box is flowed at
    # are never read. The product repeats a few fields, invariants and
    # jump tuples at many locations and edges, so each is read once per
    # distinct tuple of constraints; a field's discretization is made
    # with its dynamics.
    inv_clips: dict[tuple[int, ...], tuple[Clip, np.ndarray, np.ndarray]] = {}
    flows: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, Discretization]] = {}
    jumps: dict[int, tuple[Clip, np.ndarray, np.ndarray]] = {}
    plans: dict[Loc, _Plan] = {}

    def invariant(l: Loc) -> tuple[Clip, np.ndarray, np.ndarray]:
        """The invariant's clip and its bounds (lo, hi) as a box."""
        inv = h.invariant(l)
        key = tuple(map(id, inv))
        c = inv_clips.get(key)
        if c is None:
            rows = compile_rows(inv, names)
            c = inv_clips[key] = (rows, *bounds(clip(full_box(n), rows)))
        return c

    def jump(t) -> tuple[Clip, np.ndarray, np.ndarray]:
        """The guard clip and the reset's G(R) and offset."""
        j = jumps.get(id(t.jumps))
        if j is None:
            img = transition_image(h, t)
            j = jumps[id(t.jumps)] = (img.guard, _split(img.R), img.offset)
        return j

    def plan(l: Loc) -> _Plan:
        """The location's flow, invariant and out-edges grouped by jump tuple."""
        key = tuple(id(c) for c in h.dyn[l] if c.mentions_dot)
        f = flows.get(key)
        if f is None:
            d = location_dynamics(h, l)
            f = flows[key] = (d.A, d.b, Discretization(d.A, d.b, step))
        groups: dict[int, int] = {}
        pairs: dict[tuple[int, int], int] = {}
        jump_list, pair_list, pushes = [], [], []
        for t in h.transitions_from(l):
            g = groups.get(id(t.jumps))
            if g is None:
                g = groups[id(t.jumps)] = len(jump_list)
                jump_list.append(jump(t))
            target_inv = invariant(t.target)[0]
            k = pairs.get((g, id(target_inv)))
            if k is None:
                k = pairs[g, id(target_inv)] = len(pair_list)
                pair_list.append((g, target_inv))
            pushes.append((k, t.target))
        return _Plan(*f, *invariant(l), jump_list, pair_list, pushes)

    store: dict[Loc, list[np.ndarray]] = {l: [] for l in h.locations}
    visits = {l: 0 for l in h.locations}
    work: list[tuple[Loc, np.ndarray]] = []

    for l in h.init:
        init = compile_rows(h.init_region.get(l, ()), names)
        z = clip(clip(full_box(n), init), invariant(l)[0])
        if is_empty(z):
            continue
        bad = [x for i, x in enumerate(names) if not np.isfinite(z[[i, n + i]]).all()]
        if bad:
            raise UnsupportedDynamicsError(
                f"initial region of {l!r} leaves {bad} unbounded"
            )
        work.append((l, z))

    cause: str | None = None
    cause_location: Loc | None = None
    total = 0
    while work:
        l, z = work.pop()
        if any(contains(s, z) for s in store[l]):
            continue
        total += 1
        if total > max_visits:
            if cause is None:
                cause, cause_location = f"visit budget of {max_visits} spent", l
            break
        visits[l] += 1
        p = plans.get(l)
        if p is None:
            p = plans[l] = plan(l)
        if visits[l] > widen_after and store[l]:
            z = np.where(z > np.max(store[l], axis=0), p.inv.u, z)

        tube_lo, tube_hi, _end_lo, _end_hi, status = flow_tube(
            *bounds(z), p.A, p.b, step, n_steps, p.inv_lo, p.inv_hi, disc=p.disc
        )
        if status != FLOW_DONE and cause is None:
            cause_location = l
            if status == FLOW_BUDGET:
                cause = f"flow step budget of {n_steps} steps spent"
            elif p.disc.stalled:
                stalled = [names[i] for i in p.disc.stalled]
                cause = (
                    f"no validated flow enclosure: step {step:g} rounds the "
                    f"one-step flow map of {stalled} to the identity"
                )
            else:
                cause = "no validated flow enclosure"
        tube = clip(_box(tube_lo, tube_hi), p.inv)
        if is_empty(tube):
            tube = z
        # The stored tube is flow closed whenever the flow completed, so
        # any later box inside it has nothing new to contribute.
        store[l].append(tube)

        # One guard clip and image per jump tuple, one clip per (jump
        # tuple, target invariant) pair, one push per edge in transition
        # order (module docstring).
        images = []
        for guard, G, offset in p.jumps:
            g = clip(tube, guard)
            images.append(None if is_empty(g) else image(G, offset, g))
        pushed = []
        for g, target_inv in p.pairs:
            img = images[g]
            if img is not None:
                img = clip(img, target_inv)
                if is_empty(img):
                    img = None
            pushed.append(img)
        for k, target in p.pushes:
            if pushed[k] is not None:
                work.append((target, pushed[k]))

    boxes = {l: [bounds(z) for z in zs] for l, zs in store.items()}
    return ReachResult(names, boxes, visits, cause, cause_location)
