"""Affine views of an automaton's dynamics, invariants, guards and resets.

The reachability engine works on the affine fragment: every location must
give each variable exactly one derivative equation der(x) = e with e
affine in the state, and every reset equation x' = e must be affine too.
Guards, invariants and initial regions may contain anything; rows outside
the affine fragment are simply dropped, which over-approximates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UnsupportedDynamicsError
from ..hybrid.automaton import HybridAutomaton, Loc
from ..hybrid.constraints import Relation
from ..hybrid.expr import affine_form
from .boxes import Clip, compile_rows


@dataclass(frozen=True)
class LocationDynamics:
    """der(x) = A x + b."""

    A: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class TransitionImage:
    """A jump tuple's guard clip and its reset x' = R x + r.

    offset is (-r, r), the form boxes.image takes. A variable that the
    tuple constrains primed but does not define has a zero row of R and
    +inf in both halves of offset, so its image is unbounded.
    """

    guard: Clip
    R: np.ndarray
    offset: np.ndarray


def _affine_state_row(e, idx) -> tuple[np.ndarray, float] | None:
    """Coefficient row of an expression affine in the plain variables."""
    form = affine_form(e)
    if form is None:
        return None
    coeffs, k = form
    row = np.zeros(len(idx))
    for (kind, name), a in coeffs.items():
        if kind != "v":
            return None
        row[idx[name]] = a
    return row, float(k)


def location_dynamics(h: HybridAutomaton, loc: Loc) -> LocationDynamics:
    names = h.variables
    idx = {x: i for i, x in enumerate(names)}
    n = len(names)
    A = np.zeros((n, n))
    b = np.zeros(n)
    defined: set[str] = set()
    for c in h.dyn[loc]:
        if not c.mentions_dot:
            continue
        if c.rel is not Relation.EQ:
            raise UnsupportedDynamicsError(
                f"{loc!r}: derivative constraint '{c}' is not an equation"
            )
        if c.defines is None:
            raise UnsupportedDynamicsError(
                f"{loc!r}: cannot read '{c}' as der(x) = affine state expression"
            )
        x, e = c.defines
        got = _affine_state_row(e, idx)
        if got is None:
            raise UnsupportedDynamicsError(f"{loc!r}: '{c}' is not affine")
        if x in defined:
            raise UnsupportedDynamicsError(
                f"{loc!r}: two derivative equations for {x}"
            )
        defined.add(x)
        A[idx[x]], b[idx[x]] = got
    missing = set(names) - defined
    if missing:
        raise UnsupportedDynamicsError(
            f"{loc!r}: no derivative equation for {sorted(missing)}"
        )
    return LocationDynamics(A, b)


def transition_image(h: HybridAutomaton, t) -> TransitionImage:
    """Affine jump view: guard clip on the source state, reset image.

    It depends on the edge's jump tuple only, so edges that share a tuple
    can share its image; the edge itself is only named in errors. The
    guard clip counts only the tuple's rows free of primed variables. A
    defining row x' = e(state) (JumpConstraint.defines) fills the reset.
    A variable that some row mentions primed but none defines, as in
    x' >= x, is free: its image is unbounded, and the target invariant
    clip bounds it as it bounds every push. A variable that no row
    mentions primed keeps its value.
    """
    names = h.variables
    idx = {x: i for i, x in enumerate(names)}
    n = len(names)
    R = np.eye(n)
    r = np.zeros(n)
    primed: set[str] = set()
    defined: set[str] = set()
    for jc in t.jumps:
        primed |= jc.primed_vars
        if jc.defines is None:
            continue
        x, e = jc.defines
        got = _affine_state_row(e, idx)
        if got is None:
            raise UnsupportedDynamicsError(
                f"{t.source!r} -{t.action}-> {t.target!r}: "
                f"reset '{jc}' is not affine in the state"
            )
        R[idx[x]], r[idx[x]] = got
        defined.add(x)
    offset = np.concatenate([-r, r])
    for x in primed - defined:
        R[idx[x]] = 0.0
        offset[[idx[x], n + idx[x]]] = np.inf
    return TransitionImage(compile_rows(t.jumps, names), R, offset)
