"""Worklist reachability over (location, box) pairs.

From each pending box the engine flows a tube through the location's
dynamics, then fires every edge whose guard the tube can meet, pushing
the reset image clipped to the target invariant. Per-location stores
keep unions of tubes, and a box inside a start box already flowed at its
location is dropped: the tube and pushes of that start box cover every
state it holds. A tube is no such bound, since a flow that leaves the
invariant only covers the states its own start box reaches.

Widening. Past WIDEN_AFTER visits to a location, a popped box that is
not skipped is joined with H, the hull of the location's start boxes,
and every axis on which it exceeds H goes to the location's invariant
bound, infinity where it has none. The first such box becomes a start
box that holds H, so every later box inside H is skipped, and every
later one that is flowed exceeds H on some axis. That axis then stays at
its bound, which no push can exceed, since a pushed box is clipped to
the target invariant. Each flowed box thus raises one of the 2n bounds
for good, and a location takes at most 2n + 1 visits past WIDEN_AFTER,
which forces termination. So a location's start boxes fit one array of
WIDEN_AFTER + 2n + 1 rows, made with its plan: each visit writes the
next row, and the skip test reads the rows written so far.

Edges that share a jump tuple share their work. On each visit the tube
is clipped by each distinct guard out of the location and imaged once,
and each image is clipped once per distinct (jump tuple, target
invariant) pair. Every edge then pushes its pair's box, in transition
order, so the LIFO worklist pops the same boxes as with one clip and
image per edge; a pushed box may sit in several work items and is never
written in place. The dynamics are read once per distinct tuple of
derivative constraints, and a flow's invariant bounds come from the
location's compiled invariant clip.

Each distinct field gets one kernel Discretization per run, shared by
every location with that field. It flows only the field's moving axes
and remembers each flow by the moving axes' start box and invariant
bounds, so product copies of one system location that receive the same
box share one flow; flow_tube is still called once per visit, and
`flows` counts the flows actually run.

No stored tube is empty. Every popped box lies inside its location's
invariant: initial boxes and pushes are clipped by it, and widening
joins only start boxes and invariant bounds. The tube flow_tube returns
contains its start box.

The tube is stored as flow_tube returns it, with no second clip by the
invariant, since that clip would not change a bit of it. The kernel cuts
every segment to the invariant box, the bounds of its single-variable
rows, and the start box lies inside that box too. A multi-variable row
can only prove a box empty, and that test is monotone: it would have
emptied the popped box, which the tube contains.

The result is an over-approximation: every reachable state lies in some
stored box. It is only guaranteed to cover everything when `complete`
is true; budget exhaustion or a failed flow enclosure makes it false,
and callers must then treat absence of a hit as unknown. The first such
cause is recorded with the location where it struck.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import UnsupportedDynamicsError, check_settings
from ..hybrid.automaton import HybridAutomaton, Loc
from .boxes import Clip, _box, _split, bounds, clip, compile_rows, full_box
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
    # Flows the kernel ran; a flow_tube call whose flow its field's
    # Discretization already made reuses it and adds none.
    flows: int = 0

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
    """What the engine reads of a location once: its flow, invariant and
    out-edges by jump tuple, and room for its start boxes (module docstring)."""

    A: np.ndarray
    b: np.ndarray
    disc: Discretization
    inv: Clip
    inv_lo: np.ndarray
    inv_hi: np.ndarray
    jumps: list[tuple[Clip, np.ndarray, np.ndarray]]
    pairs: list[tuple[int, Clip]]
    pushes: list[tuple[int, Loc]]
    starts: np.ndarray


# Visits to one location before its boxes are widened (module docstring).
WIDEN_AFTER = 16
# Visits of a whole run before it stops incomplete. Widening bounds each
# location's visits, so this only caps the time a run may take.
MAX_VISITS = 4000


def check_reach_settings(horizon, step) -> None:
    """Raise ConfigError unless horizon and step are finite numbers > 0
    with a finite ratio, the flow step budget."""
    check_settings(positive=[("horizon", horizon), ("step", step)])
    check_settings(nonnegative=[("horizon / step", horizon / step)])


def initial_box(h: HybridAutomaton, l: Loc) -> np.ndarray:
    """The box of l's initial region clipped by its invariant, where both
    reachability and random_trace start; all -inf when proved empty."""
    names = h.variables
    z = clip(full_box(len(names)), compile_rows(h.init_region.get(l, ()), names))
    return clip(z, compile_rows(h.invariant(l), names))


def reachable(
    h: HybridAutomaton, horizon: float = 100.0, step: float = 0.01
) -> ReachResult:
    """Over-approximate the reachable states of the automaton.

    horizon bounds the continuous time of any single flow segment; a
    location whose flow neither stabilizes nor leaves its invariant
    within it clears the complete flag, and so does a run of more than
    MAX_VISITS visits. Initial regions must give every variable a finite
    interval. Raises ConfigError on settings that check_reach_settings
    rejects.
    """
    check_reach_settings(horizon, step)
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

    @functools.cache
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
        # The most visits widening allows (module docstring).
        starts = np.empty((WIDEN_AFTER + 2 * n + 1, 2 * n))
        return _Plan(*f, *invariant(l), jump_list, pair_list, pushes, starts)

    store: dict[Loc, list[np.ndarray]] = {l: [] for l in h.locations}
    visits = {l: 0 for l in h.locations}
    work: list[tuple[Loc, np.ndarray]] = []

    for l in h.init:
        z = initial_box(h, l)
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
        p = plans.get(l)
        if p is not None and np.logical_or.reduce(
            np.logical_and.reduce(z <= p.starts[: visits[l]], axis=1)
        ):
            continue
        total += 1
        if total > MAX_VISITS:
            if cause is None:
                cause, cause_location = f"visit budget of {MAX_VISITS} spent", l
            break
        visits[l] += 1
        if p is None:
            p = plans[l] = plan(l)
        if visits[l] > WIDEN_AFTER:
            # Join with the hull of the start boxes, and widen where the
            # box exceeds it (module docstring).
            hull = np.max(p.starts[: visits[l] - 1], axis=0)
            z = np.where(z > hull, p.inv.u, hull)
        p.starts[visits[l] - 1] = z

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
        tube = np.concatenate((-tube_lo, tube_hi))
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
    ran = sum(disc.flows for _, _, disc in flows.values())
    return ReachResult(names, boxes, visits, cause, cause_location, ran)
