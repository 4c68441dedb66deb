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
from .boxes import clip_rows, contains, full_box, hull, is_empty, linear_rows, row_range
from .dynamics import (
    LocationDynamics,
    TransitionImage,
    location_dynamics,
    transition_image,
)
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
        n = len(self.names)
        lo = np.full(n, np.inf)
        hi = np.full(n, -np.inf)
        for store in self.boxes.values():
            for b_lo, b_hi in store:
                lo = np.minimum(lo, b_lo)
                hi = np.maximum(hi, b_hi)
        return {x: (float(lo[i]), float(hi[i])) for i, x in enumerate(self.names)}


def _reset_image(
    img: TransitionImage, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    n = len(lo)
    out_lo = np.empty(n)
    out_hi = np.empty(n)
    for i in range(n):
        out_lo[i], out_hi[i] = row_range(img.R[i], img.r[i], lo, hi)
    return out_lo, out_hi


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
    # Dynamics are read when a box is initialised or popped at a location,
    # and a location's edge images when a box is first flowed there. A
    # pushed box only needs the target's invariant rows for its clip, so
    # locations and edges no box is flowed at are never read. The product
    # repeats a few invariant and jump tuples at many locations and edges,
    # so their rows are built once per tuple.
    dyn: dict[Loc, LocationDynamics] = {}
    inv_rows: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    images: dict[int, TransitionImage] = {}
    out_edges: dict[Loc, list[tuple[TransitionImage, Loc]]] = {}

    def dynamics(l: Loc) -> LocationDynamics:
        d = dyn.get(l)
        if d is None:
            d = dyn[l] = location_dynamics(h, l)
        return d

    def invariant_rows(l: Loc) -> tuple[np.ndarray, np.ndarray]:
        inv = h.invariant(l)
        key = tuple(map(id, inv))
        rows = inv_rows.get(key)
        if rows is None:
            # The same call location_dynamics makes, so the rows agree.
            rows = inv_rows[key] = linear_rows(inv, names)
        return rows

    def image(t) -> TransitionImage:
        img = images.get(id(t.jumps))
        if img is None:
            img = images[id(t.jumps)] = transition_image(h, t)
        return img

    # One discretization per distinct field, made on its first flow; the
    # product repeats each system location's field at many locations.
    discs: dict[tuple[bytes, bytes], Discretization] = {}

    store: dict[Loc, list[tuple[np.ndarray, np.ndarray]]] = {
        l: [] for l in h.locations
    }
    visits = {l: 0 for l in h.locations}
    work: list[tuple[Loc, np.ndarray, np.ndarray]] = []

    for l in h.init:
        C, d = linear_rows(h.init_region.get(l, ()), names)
        lo, hi = clip_rows(*full_box(n), C, d)
        d_l = dynamics(l)
        lo, hi = clip_rows(lo, hi, d_l.inv_C, d_l.inv_d)
        if is_empty(lo, hi):
            continue
        bad = [x for i, x in enumerate(names) if not np.isfinite([lo[i], hi[i]]).all()]
        if bad:
            raise UnsupportedDynamicsError(
                f"initial region of {l!r} leaves {bad} unbounded"
            )
        work.append((l, lo, hi))

    cause: str | None = None
    cause_location: Loc | None = None
    total = 0
    while work:
        l, lo, hi = work.pop()
        if any(contains(s_lo, s_hi, lo, hi) for s_lo, s_hi in store[l]):
            continue
        total += 1
        if total > max_visits:
            if cause is None:
                cause, cause_location = f"visit budget of {max_visits} spent", l
            break
        visits[l] += 1
        d_l = dynamics(l)
        if visits[l] > widen_after and store[l]:
            w_lo = np.full(n, np.inf)
            w_hi = np.full(n, -np.inf)
            for s_lo, s_hi in store[l]:
                w_lo, w_hi = hull(w_lo, w_hi, s_lo, s_hi)
            lo = np.where(lo < w_lo, d_l.inv_lo, lo)
            hi = np.where(hi > w_hi, d_l.inv_hi, hi)

        key = (d_l.A.tobytes(), d_l.b.tobytes())
        disc = discs.get(key)
        if disc is None:
            disc = discs[key] = Discretization(d_l.A, d_l.b, step)
        tube_lo, tube_hi, _end_lo, _end_hi, status = flow_tube(
            lo, hi, d_l.A, d_l.b, step, n_steps, d_l.inv_lo, d_l.inv_hi, disc=disc
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
        tube_lo, tube_hi = clip_rows(tube_lo, tube_hi, d_l.inv_C, d_l.inv_d)
        if is_empty(tube_lo, tube_hi):
            tube_lo, tube_hi = lo, hi
        # The stored tube is flow closed whenever the flow completed, so
        # any later box inside it has nothing new to contribute.
        store[l].append((tube_lo, tube_hi))

        out = out_edges.get(l)
        if out is None:
            out = out_edges[l] = [(image(t), t.target) for t in h.transitions_from(l)]
        for img, target in out:
            g_lo, g_hi = clip_rows(tube_lo, tube_hi, img.guard_C, img.guard_d)
            if is_empty(g_lo, g_hi):
                continue
            p_lo, p_hi = _reset_image(img, g_lo, g_hi)
            p_lo, p_hi = clip_rows(p_lo, p_hi, *invariant_rows(target))
            if is_empty(p_lo, p_hi):
                continue
            work.append((target, p_lo, p_hi))

    return ReachResult(names, store, visits, cause, cause_location)
