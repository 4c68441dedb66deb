"""Worklist reachability over (location, box) pairs.

From each pending box the engine flows a tube through the location's
dynamics, then fires every edge whose guard the tube can meet, pushing
the reset image clipped to the target invariant. Per-location stores
keep unions of boxes; a box already covered by a stored one is dropped.
Locations visited more than widen_after times widen incoming boxes to
the invariant bounds on every growing axis, which forces termination.

The result is an over-approximation: every reachable state lies in some
stored box. It is only guaranteed to cover everything when `complete`
is true; budget exhaustion or a failed flow enclosure makes it false,
and callers must then treat absence of a hit as unknown. The first such
cause is recorded with the location where it struck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import UnsupportedDynamicsError
from ..hybrid.automaton import HybridAutomaton, Loc
from .boxes import Clip, _box, _split, bounds, clip, compile_rows, contains, full_box
from .boxes import image, is_empty, linear_rows
from .dynamics import LocationDynamics, location_dynamics, transition_image
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
    # until the result is returned. Dynamics are read when a box is
    # popped at a location, and a location's edges when a box is first
    # flowed there. Initial and pushed boxes only need an invariant clip,
    # so locations and edges no box is flowed at are never read. The
    # product repeats a few invariant and jump tuples at many locations
    # and edges, so their clips and reset images are built once per tuple.
    dyn: dict[Loc, LocationDynamics] = {}
    inv_clips: dict[tuple[int, ...], Clip] = {}
    jumps: dict[int, tuple[Clip, np.ndarray, np.ndarray]] = {}
    out_edges: dict[Loc, list[tuple[Clip, np.ndarray, np.ndarray, Clip, Loc]]] = {}

    def dynamics(l: Loc) -> LocationDynamics:
        d = dyn.get(l)
        if d is None:
            d = dyn[l] = location_dynamics(h, l)
        return d

    def invariant(l: Loc) -> Clip:
        inv = h.invariant(l)
        key = tuple(map(id, inv))
        c = inv_clips.get(key)
        if c is None:
            # The same rows location_dynamics reads, so the bounds agree.
            c = inv_clips[key] = compile_rows(*linear_rows(inv, names))
        return c

    def jump(t) -> tuple[Clip, np.ndarray, np.ndarray]:
        """The guard clip and the reset's G(R) and offset (-r, r)."""
        j = jumps.get(id(t.jumps))
        if j is None:
            img = transition_image(h, t)
            j = jumps[id(t.jumps)] = (
                compile_rows(img.guard_C, img.guard_d),
                _split(img.R),
                np.concatenate([-img.r, img.r]),
            )
        return j

    # One discretization per distinct field, made on its first flow; the
    # product repeats each system location's field at many locations.
    discs: dict[tuple[bytes, bytes], Discretization] = {}

    store: dict[Loc, list[np.ndarray]] = {l: [] for l in h.locations}
    visits = {l: 0 for l in h.locations}
    work: list[tuple[Loc, np.ndarray]] = []

    for l in h.init:
        init = compile_rows(*linear_rows(h.init_region.get(l, ()), names))
        z = clip(clip(full_box(n), init), invariant(l))
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
        d_l = dynamics(l)
        inv = invariant(l)
        if visits[l] > widen_after and store[l]:
            z = np.where(z > np.max(store[l], axis=0), inv.u, z)

        key = (d_l.A.tobytes(), d_l.b.tobytes())
        disc = discs.get(key)
        if disc is None:
            disc = discs[key] = Discretization(d_l.A, d_l.b, step)
        tube_lo, tube_hi, _end_lo, _end_hi, status = flow_tube(
            *bounds(z), d_l.A, d_l.b, step, n_steps, d_l.inv_lo, d_l.inv_hi, disc=disc
        )
        if status != FLOW_DONE and cause is None:
            cause_location = l
            if status == FLOW_BUDGET:
                cause = f"flow step budget of {n_steps} steps spent"
            elif disc.stalled:
                stalled = [names[i] for i in disc.stalled]
                cause = (
                    f"no validated flow enclosure: step {step:g} rounds the "
                    f"one-step flow map of {stalled} to the identity"
                )
            else:
                cause = "no validated flow enclosure"
        tube = clip(_box(tube_lo, tube_hi), inv)
        if is_empty(tube):
            tube = z
        # The stored tube is flow closed whenever the flow completed, so
        # any later box inside it has nothing new to contribute.
        store[l].append(tube)

        out = out_edges.get(l)
        if out is None:
            out = out_edges[l] = [
                (*jump(t), invariant(t.target), t.target)
                for t in h.transitions_from(l)
            ]
        for guard, G, offset, target_inv, target in out:
            g = clip(tube, guard)
            if is_empty(g):
                continue
            p = clip(image(G, offset, g), target_inv)
            if is_empty(p):
                continue
            work.append((target, p))

    boxes = {l: [bounds(z) for z in zs] for l, zs in store.items()}
    return ReachResult(names, boxes, visits, cause, cause_location)
