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
from ..hybrid.expr import DotVar, PrimedVar, affine_form, variables
from .boxes import bounds, clip, compile_rows, full_box, linear_rows


@dataclass(frozen=True)
class LocationDynamics:
    """der(x) = A x + b inside the row region C x + d <= 0."""

    A: np.ndarray
    b: np.ndarray
    inv_C: np.ndarray
    inv_d: np.ndarray
    inv_lo: np.ndarray
    inv_hi: np.ndarray


@dataclass(frozen=True)
class TransitionImage:
    """A jump tuple's guard rows and affine reset x' = R x + r."""

    guard_C: np.ndarray
    guard_d: np.ndarray
    R: np.ndarray
    r: np.ndarray


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
        for dot_side, expr_side in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
            if not isinstance(dot_side, DotVar):
                continue
            plain, dotted, primed = variables(expr_side)
            if dotted or primed:
                continue
            got = _affine_state_row(expr_side, idx)
            if got is None:
                raise UnsupportedDynamicsError(
                    f"{loc!r}: der({dot_side.name}) = {c} is not affine"
                )
            if dot_side.name in defined:
                raise UnsupportedDynamicsError(
                    f"{loc!r}: two derivative equations for {dot_side.name}"
                )
            defined.add(dot_side.name)
            A[idx[dot_side.name]], b[idx[dot_side.name]] = got
            break
        else:
            raise UnsupportedDynamicsError(
                f"{loc!r}: cannot read '{c}' as der(x) = affine state expression"
            )
    missing = set(names) - defined
    if missing:
        raise UnsupportedDynamicsError(
            f"{loc!r}: no derivative equation for {sorted(missing)}"
        )
    C, d = linear_rows(h.invariant(loc), names)
    lo, hi = bounds(clip(full_box(n), compile_rows(C, d)))
    return LocationDynamics(A, b, C, d, lo, hi)


def transition_image(h: HybridAutomaton, t) -> TransitionImage:
    """Affine jump view: guard rows on the source state, reset matrix.

    It depends on the edge's jump tuple only, so edges that share a tuple
    can share its image; the edge itself is only named in errors.
    Defining rows x' = e(state) fill the reset; variables without one
    keep their value. Constraint rows that mention primed variables
    without defining one are dropped, over-approximating the jump
    relation.
    """
    names = h.variables
    idx = {x: i for i, x in enumerate(names)}
    n = len(names)
    R = np.eye(n)
    r = np.zeros(n)
    guards = []
    for jc in t.jumps:
        lhs_p = variables(jc.lhs)[2]
        rhs_p = variables(jc.rhs)[2]
        if not lhs_p and not rhs_p:
            # linear_rows only reads lhs, rel and rhs, which jump rows share.
            guards.append(jc)
            continue
        if jc.rel is not Relation.EQ:
            continue
        for p_side, e_side, p_vars, e_vars in (
            (jc.lhs, jc.rhs, lhs_p, rhs_p),
            (jc.rhs, jc.lhs, rhs_p, lhs_p),
        ):
            if not isinstance(p_side, PrimedVar) or e_vars:
                continue
            got = _affine_state_row(e_side, idx)
            if got is None:
                raise UnsupportedDynamicsError(
                    f"{t.source!r} -{t.action}-> {t.target!r}: "
                    f"reset '{jc}' is not affine in the state"
                )
            R[idx[p_side.name]], r[idx[p_side.name]] = got
            break
    C, d = linear_rows(guards, names)
    return TransitionImage(C, d, R, r)
