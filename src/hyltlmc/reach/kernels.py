"""Flow tube kernel: the hot loop of box reachability.

One call advances a box through up to n_steps Euler-Taylor steps of
der(x) = A x + b, clipping to per-axis invariant bounds, and returns the
hull of everything visited (the tube), the final box, and a status flag.
Each step encloses the whole [0, h] slice with a validated a priori box,
so the tube covers intra-step states, not just step endpoints.

The loop runs on plain Python floats: the boxes are lists, and each row
of A is reduced once per call to its nonzero coefficients in ascending
column order. Reading a numpy array one element at a time costs far more
than the arithmetic it feeds, and skipping zeros was already part of the
interval sums (0 * inf is nan), so the sums run in the same order and
the results equal those of an element-wise numpy loop bit for bit.

Status codes: 0 ran to a provable fixpoint or left the invariant, 1 hit
the step budget first, 2 could not validate an enclosure (both nonzero
codes mean the tube may miss states and the caller must degrade the
overall verdict).
"""

from __future__ import annotations

import numpy as np

FLOW_DONE = 0
FLOW_BUDGET = 1
FLOW_NO_ENCLOSURE = 2

_ENCLOSURE_TRIES = 8


def _floats(v) -> list[float]:
    return np.asarray(v, dtype=np.float64).tolist()


def _signed_rows(A, n: int) -> list[list[tuple[float, int, int]]]:
    """Per row of A, its nonzero terms as (a, p, q) in ascending column.

    Interval sums read the concatenation lo + hi of a box: the lower sum
    adds a * box[p] and the upper sum a * box[q], so p and q pick the
    endpoint that the sign of a calls for.
    """
    rows = np.asarray(A, dtype=np.float64).tolist()
    out = []
    for i in range(n):
        terms = []
        for j in range(n):
            a = rows[i][j]
            if a > 0.0:
                terms.append((a, j, n + j))
            elif a < 0.0:
                terms.append((a, n + j, j))
        out.append(terms)
    return out


def _affine_range(rows, base, box):
    """Interval range of base + A x over x in box (lo list + hi list)."""
    out_lo = []
    out_hi = []
    for c, terms in zip(base, rows):
        s_lo = c
        s_hi = c
        for a, p, q in terms:
            s_lo += a * box[p]
            s_hi += a * box[q]
        out_lo.append(s_lo)
        out_hi.append(s_hi)
    return out_lo, out_hi


def flow_tube(lo, hi, A, b, h, n_steps, inv_lo, inv_hi):
    """Tube, final box and status of der(x) = A x + b from [lo, hi].

    Returns (tube_lo, tube_hi, end_lo, end_hi, status) with float64
    arrays; see the module docstring for the status codes.
    """
    cur_lo = _floats(lo)
    cur_hi = _floats(hi)
    n = len(cur_lo)
    rows = _signed_rows(A, n)
    b = _floats(b)
    zero = [0.0] * n
    inv_lo = _floats(inv_lo)
    inv_hi = _floats(inv_hi)
    h = float(h)
    half = 0.5 * h * h
    tube_lo = cur_lo[:]
    tube_hi = cur_hi[:]
    status = FLOW_BUDGET

    for _step in range(int(n_steps)):
        # Derivative range over the current box.
        f_lo, f_hi = _affine_range(rows, b, cur_lo + cur_hi)

        # A priori enclosure of every state in [0, h]: must absorb one
        # Picard iterate of itself. Conditional expressions spell out
        # min and max with their exact tie and nan behaviour.
        e_lo = []
        e_hi = []
        for c_lo, c_hi, d_lo, d_hi in zip(cur_lo, cur_hi, f_lo, f_hi):
            t = c_lo + h * d_lo
            e_lo.append(t if t < c_lo else c_lo)
            t = c_hi + h * d_hi
            e_hi.append(t if t > c_hi else c_hi)
        pad = h
        for _try in range(_ENCLOSURE_TRIES):
            g_lo, g_hi = _affine_range(rows, b, e_lo + e_hi)
            new_lo = []
            new_hi = []
            ok = True
            for c_lo, c_hi, d_lo, d_hi, el, eh in zip(
                cur_lo, cur_hi, g_lo, g_hi, e_lo, e_hi
            ):
                nl = c_lo + h * (0.0 if d_lo > 0.0 else d_lo)
                nh = c_hi + h * (0.0 if d_hi < 0.0 else d_hi)
                new_lo.append(nl)
                new_hi.append(nh)
                if nl < el or nh > eh:
                    ok = False
            if ok:
                break
            for i in range(n):
                t = new_lo[i] - pad
                if t < e_lo[i]:
                    e_lo[i] = t
                t = new_hi[i] + pad
                if t > e_hi[i]:
                    e_hi[i] = t
            pad = pad * 2.0
        if not ok:
            status = FLOW_NO_ENCLOSURE
            break

        # Step image with second order remainder: the second derivative
        # along the flow is A (A x + b), bounded over the enclosure. The
        # invariant truncates both the slice and the step image, and a
        # step image inside the previous box can never escape it.
        s_lo, s_hi = _affine_range(rows, zero, g_lo + g_hi)
        new_lo = []
        new_hi = []
        empty = False
        inside = True
        for i in range(n):
            c_lo = cur_lo[i]
            c_hi = cur_hi[i]
            nl = c_lo + h * f_lo[i] + half * s_lo[i]
            nh = c_hi + h * f_hi[i] + half * s_hi[i]
            il = inv_lo[i]
            ih = inv_hi[i]
            el = e_lo[i]
            if il > el:
                el = il
            eh = e_hi[i]
            if ih < eh:
                eh = ih
            if el <= eh:
                if el < tube_lo[i]:
                    tube_lo[i] = el
                if eh > tube_hi[i]:
                    tube_hi[i] = eh
            if nl < il:
                nl = il
            if nh > ih:
                nh = ih
            if nl > nh:
                empty = True
            if nl < c_lo or nh > c_hi:
                inside = False
            new_lo.append(nl)
            new_hi.append(nh)
        if empty:
            status = FLOW_DONE
            break
        cur_lo = new_lo
        cur_hi = new_hi
        if inside:
            status = FLOW_DONE
            break

    return (
        np.array(tube_lo, dtype=np.float64),
        np.array(tube_hi, dtype=np.float64),
        np.array(cur_lo, dtype=np.float64),
        np.array(cur_hi, dtype=np.float64),
        status,
    )
