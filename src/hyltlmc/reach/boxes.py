"""Axis-aligned interval boxes and linear constraint rows over them.

Representation. A box [lo, hi] over n variables is the vector of upper
bounds z = (-lo, hi), so clipping, hulls and containment are each one
elementwise operation (np.minimum, np.maximum, z <= s) and a box is
empty when some z_i + z_{n+i} < 0. The box image under a matrix M is
G(M) z with the nonnegative block matrix G(M) = [[M+, M-], [M-, M+]],
where M+ = max(M, 0) and M- = max(-M, 0); it is exact per axis and keeps
every endpoint that M passes through unchanged, bit for bit.

Infinite endpoints. Boxes widened to the invariant bounds may have
infinite sides, +inf in z. Products take 0 * inf = 0, so an infinite
side spreads only along nonzero coefficients.

Constraint rows. Each flow and jump constraint reads itself once as
rows a . x + k <= 0 over plain variables, its cached `rows`: strict
inequalities are closed, equalities become two rows, and a comparison
that is not affine in plain variables, or mentions der(x) or x', gives
none. Every relaxation only enlarges the described region. compile_rows
is the one place that turns constraints into a Clip: the engine's
invariant, initial and guard clips, the simulator's initial box and the
pruning test `satisfiable` all go through it. All operations stay sound
under over-approximation: anything not provably excluded is kept.

One clip pass. A row set compiles once into a Clip: the upper-bound
vector of its single-variable rows, and the split rows of its
multi-variable rows. A single-variable row bounds its own axis and no
other, so all of them together are one np.minimum. A multi-variable row
never tightens an axis-aligned box; it only proves the box empty, when
its least value over the box is positive. Neither kind can sharpen
what the other does, so testing the multi-variable rows once, on the
box the single-variable rows have bounded, is as tight as repeating the
rows to a fixpoint.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np


def _box(lo, hi) -> np.ndarray:
    """The box [lo, hi] as its vector of upper bounds z = (-lo, hi)."""
    return np.concatenate(
        [-np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)]
    )


def bounds(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) pair of the box z."""
    n = len(z) // 2
    return -z[:n], z[n:]


def _split(M: np.ndarray) -> np.ndarray:
    """G(M) of the module docstring, for an (m, n) matrix M."""
    m, n = M.shape
    G = np.empty((2 * m, 2 * n))
    G[:m, :n] = G[m:, n:] = np.maximum(M, 0.0)
    G[:m, n:] = G[m:, :n] = G[:m, :n] - M
    return G


def _bound(G: np.ndarray, z: np.ndarray) -> np.ndarray:
    """G z for a nonnegative G and z of shape (m,) or (m, cols).

    Takes 0 * inf = 0: an infinite entry of z spreads only along the
    nonzero entries of G.
    """
    inf = np.isinf(z)
    if not inf.any():
        return G @ z
    out = G @ np.where(inf, 0.0, z)
    out[(G > 0.0) @ inf] = np.inf
    return out


def full_box(n: int) -> np.ndarray:
    return np.full(2 * n, np.inf)


def is_empty(z: np.ndarray) -> bool:
    n = len(z) // 2
    return bool((z[:n] + z[n:] < 0.0).any())


def contains(outer: np.ndarray, inner: np.ndarray) -> bool:
    return bool((inner <= outer).all())


def image(G: np.ndarray, offset: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The box of M x + c over the box z, for G = G(M) and offset (-c, c).

    A nan bound, left where an overflow meets an opposite one, reads as
    no bound.
    """
    out = _bound(G, z) + offset
    out[np.isnan(out)] = np.inf
    return out


class Clip(NamedTuple):
    """Constraint rows compiled for clipping boxes (module docstring).

    u is the upper-bound vector of the single-variable rows, all -inf
    when a constant row is false. The multi-variable rows prove a box z
    empty when G z < k for one of them, with G their split rows.
    """

    u: np.ndarray
    G: np.ndarray
    k: np.ndarray


def compile_rows(constraints: Iterable, names: Sequence[str]) -> Clip:
    """The Clip of the constraints' rows (their cached `rows`) over the
    named variables; constraints without rows add nothing."""
    n = len(names)
    idx = {x: i for i, x in enumerate(names)}
    u = [np.inf] * (2 * n)
    multi: list[np.ndarray] = []
    ks: list[float] = []
    for c in constraints:
        for coeffs, k in c.rows:
            terms = [(idx[x], a) for x, a in coeffs if a != 0.0]
            if len(terms) > 1:
                row = np.zeros(n)
                for i, a in terms:
                    row[i] = a
                multi.append(row)
                ks.append(k)
            elif not terms:
                if k > 0.0:
                    u = [-np.inf] * (2 * n)
            else:
                # a x_i + k <= 0 bounds x_i above by -k / a when a > 0, and
                # -x_i above by k / a when a < 0. A tie keeps the earlier row.
                [(i, a)] = terms
                j, v = (n + i, -k / a) if a > 0.0 else (i, k / a)
                if v < u[j]:
                    u[j] = v
    G = _split(np.array(multi))[: len(multi)] if multi else np.empty((0, 2 * n))
    return Clip(np.array(u, dtype=np.float64), G, np.array(ks, dtype=np.float64))


def clip(z: np.ndarray, rows: Clip) -> np.ndarray:
    """z intersected with the compiled rows; all -inf when they prove it empty."""
    # np.minimum returns its second operand on a tie, so an endpoint the
    # rows do not move keeps its bits, signed zeros included.
    z = np.minimum(rows.u, z)
    if len(rows.k) and (_bound(rows.G, z) < rows.k).any():
        return np.full_like(z, -np.inf)
    return z


def satisfiable(constraints: Iterable) -> bool:
    """False when the clip of the full box by the constraints' rows is
    empty; True only means not proved empty. A clip is monotone, so the
    engine's clip by these rows empties every box too. One axis that no
    row names lets a constant false row show when no row names a variable.
    """
    constraints = tuple(constraints)
    names = ("",) + tuple(
        dict.fromkeys(x for c in constraints for coeffs, _ in c.rows for x, _ in coeffs)
    )
    return not is_empty(clip(full_box(len(names)), compile_rows(constraints, names)))
