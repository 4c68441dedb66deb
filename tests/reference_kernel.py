"""Frozen copy of the element-wise flow tube kernel, kept as a test oracle.

`hyltlmc.reach.kernels.flow_tube` runs on Python float lists and sparse
rows of A for speed, and promises the same tubes as this original
numpy loop, bit for bit. The loop is kept here unchanged, and only here,
so the tests can compare the two on every input they draw. It is not
part of the package and must not be edited to follow the kernel.
"""

from __future__ import annotations

import numpy as np

from hyltlmc.reach.kernels import FLOW_BUDGET, FLOW_DONE, FLOW_NO_ENCLOSURE

_ENCLOSURE_TRIES = 8


def _flow_tube_py(lo, hi, A, b, h, n_steps, inv_lo, inv_hi):
    n = lo.shape[0]
    cur_lo = lo.copy()
    cur_hi = hi.copy()
    tube_lo = lo.copy()
    tube_hi = hi.copy()
    f_lo = np.empty(n)
    f_hi = np.empty(n)
    g_lo = np.empty(n)
    g_hi = np.empty(n)
    e_lo = np.empty(n)
    e_hi = np.empty(n)
    new_lo = np.empty(n)
    new_hi = np.empty(n)
    status = FLOW_BUDGET

    for _step in range(n_steps):
        # Derivative range over the current box; zero coefficients must
        # not touch infinite endpoints (0 * inf is nan).
        for i in range(n):
            s_lo = b[i]
            s_hi = b[i]
            for j in range(n):
                a = A[i, j]
                if a > 0.0:
                    s_lo += a * cur_lo[j]
                    s_hi += a * cur_hi[j]
                elif a < 0.0:
                    s_lo += a * cur_hi[j]
                    s_hi += a * cur_lo[j]
            f_lo[i] = s_lo
            f_hi[i] = s_hi

        # A priori enclosure of every state in [0, h]: must absorb one
        # Picard iterate of itself.
        pad = h
        for i in range(n):
            e_lo[i] = min(cur_lo[i], cur_lo[i] + h * f_lo[i])
            e_hi[i] = max(cur_hi[i], cur_hi[i] + h * f_hi[i])
        ok = False
        for _try in range(_ENCLOSURE_TRIES):
            for i in range(n):
                s_lo = b[i]
                s_hi = b[i]
                for j in range(n):
                    a = A[i, j]
                    if a > 0.0:
                        s_lo += a * e_lo[j]
                        s_hi += a * e_hi[j]
                    elif a < 0.0:
                        s_lo += a * e_hi[j]
                        s_hi += a * e_lo[j]
                g_lo[i] = s_lo
                g_hi[i] = s_hi
            ok = True
            for i in range(n):
                new_lo[i] = cur_lo[i] + h * min(g_lo[i], 0.0)
                new_hi[i] = cur_hi[i] + h * max(g_hi[i], 0.0)
                if new_lo[i] < e_lo[i] or new_hi[i] > e_hi[i]:
                    ok = False
            if ok:
                break
            for i in range(n):
                if new_lo[i] - pad < e_lo[i]:
                    e_lo[i] = new_lo[i] - pad
                if new_hi[i] + pad > e_hi[i]:
                    e_hi[i] = new_hi[i] + pad
            pad = pad * 2.0
        if not ok:
            status = FLOW_NO_ENCLOSURE
            break

        # Step image with second order remainder: the second derivative
        # along the flow is A (A x + b), bounded over the enclosure.
        half = 0.5 * h * h
        for i in range(n):
            s_lo = 0.0
            s_hi = 0.0
            for j in range(n):
                a = A[i, j]
                if a > 0.0:
                    s_lo += a * g_lo[j]
                    s_hi += a * g_hi[j]
                elif a < 0.0:
                    s_lo += a * g_hi[j]
                    s_hi += a * g_lo[j]
            new_lo[i] = cur_lo[i] + h * f_lo[i] + half * s_lo
            new_hi[i] = cur_hi[i] + h * f_hi[i] + half * s_hi

        # The invariant truncates both the slice and the step image.
        empty = False
        for i in range(n):
            el = max(e_lo[i], inv_lo[i])
            eh = min(e_hi[i], inv_hi[i])
            if el <= eh:
                if el < tube_lo[i]:
                    tube_lo[i] = el
                if eh > tube_hi[i]:
                    tube_hi[i] = eh
            if new_lo[i] < inv_lo[i]:
                new_lo[i] = inv_lo[i]
            if new_hi[i] > inv_hi[i]:
                new_hi[i] = inv_hi[i]
            if new_lo[i] > new_hi[i]:
                empty = True
        if empty:
            status = FLOW_DONE
            break

        # A step image inside the previous box can never escape it.
        inside = True
        for i in range(n):
            if new_lo[i] < cur_lo[i] or new_hi[i] > cur_hi[i]:
                inside = False
        for i in range(n):
            cur_lo[i] = new_lo[i]
            cur_hi[i] = new_hi[i]
        if inside:
            status = FLOW_DONE
            break

    return tube_lo, tube_hi, cur_lo, cur_hi, status


def reference_flow_tube(lo, hi, A, b, h, n_steps, inv_lo, inv_hi):
    """The old dispatcher's numpy path: coerce, then run the loop above."""
    return _flow_tube_py(
        np.ascontiguousarray(lo, dtype=np.float64),
        np.ascontiguousarray(hi, dtype=np.float64),
        np.ascontiguousarray(A, dtype=np.float64),
        np.ascontiguousarray(b, dtype=np.float64),
        float(h),
        int(n_steps),
        np.ascontiguousarray(inv_lo, dtype=np.float64),
        np.ascontiguousarray(inv_hi, dtype=np.float64),
    )
