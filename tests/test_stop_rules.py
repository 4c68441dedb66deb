"""Where a flow stops inside a chunk, and what a memo hit returns.

The kernel tests a whole chunk for a nan or empty segment before it
tests its columns one by one, and the last segment of a flow may lie in
the chunk before the one that stops it. Each flow here stops at such a
place, and flow_tube must give the frozen kernel's results of
`reference_pipeline` bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from hyltlmc.reach.kernels import (
    _CHUNK,
    FLOW_BUDGET,
    FLOW_DONE,
    FLOW_NO_ENCLOSURE,
    Discretization,
    flow_tube,
)

from reference_pipeline import frozen_flow_tube

INF = np.inf


def drift(inv_hi: float, axes: int):
    """der(x) = 1 (and der(y) = 1) from the origin at step 1 under
    x <= inv_hi: segment k holds x in [k, k + 1]."""
    return (
        [0.0] * axes, [0.0] * axes, np.zeros((axes, axes)), [1.0] * axes, 1.0, 600,
        [-INF] * axes, [inv_hi] + [INF] * (axes - 1),
    )


def assert_same(new, old):
    assert new[4] == old[4]
    for a, f in zip(new[:4], old[:4]):
        assert a.dtype == f.dtype and a.tobytes() == f.tobytes(), (a, f)


# (args, status, end box x range): y keeps the image of every segment
# out of it, so x <= c stops the flow when x first leaves it, in
# segment floor(c) + 1; without y, the image of segment k lies in it
# once k + 1 >= c.
STOPS = {
    "empty at 255": (drift(254.5, 2), FLOW_DONE, (254.0, 254.5)),
    "empty at 256": (drift(255.5, 2), FLOW_DONE, (255.0, 255.5)),
    "fixpoint at 255": (drift(256.0, 1), FLOW_DONE, (255.0, 256.0)),
    "fixpoint at 256": (drift(257.0, 1), FLOW_DONE, (256.0, 257.0)),
}


@pytest.mark.parametrize("name", STOPS)
def test_stop_at_a_chunk_boundary(name):
    args, status, (lo, hi) = STOPS[name]
    new = flow_tube(*args)
    assert_same(new, frozen_flow_tube(*args))
    assert new[4] == status and (new[2][0], new[3][0]) == (lo, hi)


# (args, k): segment k is the first the flow cannot enclose, inside
# chunk 0, so a budget of k steps ends without it and one of k + 1 stops
# on it with the same tube.
FAILURES = {
    # Coupled growth from 1e305: a segment's sum is inf - inf.
    "nan segment": (
        ([1e305] * 2, [1e305] * 2, [[0.5, 0.0], [-1.0, 0.5]], [0.0, 0.0], 0.1, 600,
         [-INF] * 2, [INF] * 2),
        150,
    ),
    # Rate 800 at step 0.01: Phi^89 = e^712 overflows.
    "non-finite power": (([1.0], [1.0], [[800.0]], [0.0], 0.01, 600, [-INF], [INF]), 89),
}


@pytest.mark.parametrize("name", FAILURES)
def test_no_enclosure_inside_a_chunk(name):
    (lo, hi, A, b, h, n_steps, inv_lo, inv_hi), k = FAILURES[name]
    assert 0 < k < _CHUNK - 1
    runs = {}
    for steps in (k, k + 1, n_steps):
        args = (lo, hi, A, b, h, steps, inv_lo, inv_hi)
        runs[steps] = flow_tube(*args)
        assert_same(runs[steps], frozen_flow_tube(*args))
    assert runs[k][4] == FLOW_BUDGET
    assert runs[k + 1][4] == runs[n_steps][4] == FLOW_NO_ENCLOSURE
    for a, b in zip(runs[k][:4], runs[n_steps][:4]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("args", [STOPS["empty at 256"][0], FAILURES["nan segment"][0]])
def test_memo_hit_without_decoupled_axes_is_fresh(args):
    # Every axis is flowed, so the whole result comes out of the memo.
    lo, hi, A, b, h, *_ = args
    disc = Discretization(A, b, h)
    assert disc.fixed.size == 0
    first = flow_tube(*args, disc=disc)
    for a in first[:4]:
        a[...] = np.nan
    assert_same(flow_tube(*args, disc=disc), frozen_flow_tube(*args))
    assert disc.flows == 1
