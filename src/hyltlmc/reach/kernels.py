"""Flow tube kernel: the hot loop of box reachability.

One call encloses every state that der(x) = A x + b reaches from the box
X0 = [lo, hi] while it stays inside the per-axis invariant bounds
inv = [inv_lo, inv_hi], over up to n_steps segments of length h. It
returns the hull of those states (the tube), the last segment box and a
status.

Exact discretization. Over one step the flow is the affine map
x -> Phi x + g, with Phi = e^{Ah} and g = int_0^h e^{As} b ds. Both are
read off Psi = e^{Mh} = [[Phi, g], [0, 1]] for M = [[A, b], [0, 0]], and
Psi^k = [[Phi^k, v_k], [0, 1]] maps a state to its value k steps later.
The exponential is a Taylor series with scaling and squaring, so a zero
row of M stays an exact unit row of every power.

Segment enclosure. E0 holds every state of the first segment [0, h].
For x' = f(x) = A x + b, x(t) = x0 + t f(x0) + R(t) with
R(t) = sum_{k>=2} t^k / k! A^{k-1} f(x0), so |R(t)| <= W F per axis for
t in [0, h], with W = sum_{k>=2} h^k / k! |A|^{k-1} and F = sup |f| over
X0. Hence E0 = [lo + h min(0, f_lo) - W F, hi + h max(0, f_hi) + W F],
where [f_lo, f_hi] is the range of f over X0. An axis whose derivative
keeps one sign over E0 is monotone along every trajectory on [0, h], so
each of its states lies between its start value and its value at h:
the axis is also cut to the hull of X0 and X1 = box(Phi X0 + g).

Flowed axes. An axis with a zero row and column of A and zero b, such as
a product's latch f or snapshot y, is a decoupled constant: it moves
nothing and nothing moves it. Discretization finds these once per field
and flows only the others (a constant that feeds a moving axis, such as
p in der(x) = p - x, is flowed). In every segment a decoupled axis holds
min(min(x, inv) + 0.0, inv) in the upper-bound vector: its start
interval cut by the invariant as the whole block's segment sums give it,
an endpoint -0.0 read as +0.0. If that interval is empty, the flow is
FLOW_DONE with the start box as tube and end box. The flowed block's
sums drop only zero terms: bit for bit where a sum has at most one
nonzero term, as in a diagonal field; with several, the matrix-vector
product may round otherwise in the last bits, as it groups terms by
position.

Memo. A Discretization keeps each flow of the flowed block under its
start box, invariant bounds, n_steps and whether the whole start box is
finite (which picks the product rule, see _flow), and the decoupled
axes' result under their start and invariant intervals. A hit gives the
bits a new run would, copied into new arrays: no caller is handed an
array of the memo. The engine shares one per field and run. It keeps the
operands of its first _KEPT_CHUNKS chunks and of the last one past them,
from which the next is chained: with the powers, at most
(_KEPT_CHUNKS + 2) 256 (2n^2 + n) float64 for n flowed axes, 1.3 MB at
n = 2 (all of a 10^6-step flow would take 80 MB).

Direct mapping. A trajectory that is inside the invariant at time
kh + t stayed inside it from time 0, so it was in S_0 = E0 & inv at
time t, and every state of segment k is Psi^k applied to a state of
S_0: S_k = box(Phi^k S_0 + v_k) & inv. Each S_k is computed from S_0,
never from S_{k-1}, so no wrapping builds up. Segments are evaluated
in vectorized chunks of 256, as the columns of a (2n, count) array;
the operands of one chunk are the split powers of Psi and the offsets
(Discretization.chunk), shifted by Psi^(chunk start) from those of the
first chunk, that power chained from the last one of the chunk before.
A chunk's split powers times the columns (z_lo, z_hi) are one matrix
product, whose rows come out the same whatever rows stand beside them.
A column of a matrix product need not equal the matrix-vector product
of that column (OpenBLAS, n >= 2), so the offsets are shifted by their
own matrix-vector product, never batched as a column of the powers'.

Stopping rules and statuses:
- FLOW_DONE, S_k empty: every trajectory left the invariant before or
  during segment k and cannot come back, so the tube is the hull of X0
  and S_0 .. S_{k-1}.
- FLOW_DONE, box(Phi S_k + g) & inv inside S_k: the states of segment
  k + 1 are images of states of segment k that stay in the invariant,
  so they lie in S_k; by induction so do all later ones, and the tube
  (which includes S_k) holds every reachable state.
- FLOW_BUDGET: n_steps segments passed without either rule; the tube
  holds every state up to time n_steps h, not later ones.
- FLOW_NO_ENCLOSURE: Psi or one of its powers is not finite, or a
  segment endpoint is nan: the flow map overflowed, and the tube holds
  the segments before that point only. Also when the step is so small
  that the one-step map of a moving axis (nonzero row of A or nonzero
  b) rounds to the identity, a unit row of Phi and g = 0: the fixpoint
  rule would then hold at once, although the flow moves. The tube is
  then the start box.
Both nonzero codes mean the tube may miss states, and the caller must
degrade the overall verdict. The first segment that meets a rule stops
the flow, and is left out of the tube unless only the fixpoint rule
holds. A chunk tests the fixpoint rule per segment, and the others on
the whole chunk first (is some -lo + hi negative or nan, or a power not
finite?), then per segment only when they hold somewhere.

Boxes are upper-bound vectors z = (-lo, hi), imaged under a matrix M by
G(M) z with 0 * inf = 0; `reach.boxes` defines both.

Arithmetic is float64 rounded to nearest, with no outward rounding: the
tube is exact up to rounding errors in the powers of Psi, of relative
order k times machine epsilon after k steps.
"""

from __future__ import annotations

import math

import numpy as np

from .boxes import _bound, _box, _split, is_empty

FLOW_DONE = 0
FLOW_BUDGET = 1
FLOW_NO_ENCLOSURE = 2

# Segments per chunk. Much smaller chunks cost more numpy calls than they
# save work on short flows; larger ones hold more memory per field.
_CHUNK = 256
# Chunks whose operands a Discretization keeps (module docstring).
_KEPT_CHUNKS = 64
# Taylor terms of e^X for a scaled norm |X| below 1/2: the series stops
# once a term is below 1e-18, and after 18 terms it is below 1e-22.
_TAYLOR_TERMS = 18


def _expm(M: np.ndarray) -> np.ndarray:
    """e^M by scaling and squaring a Taylor series; nan if M is not finite."""
    norm = float(np.abs(M).sum(axis=1).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full_like(M, np.nan)
    s = max(0, math.frexp(norm)[1] + 1)
    X = M * 2.0**-s
    E = T = np.eye(len(M))
    for k in range(1, _TAYLOR_TERMS + 1):
        T = (T @ X) / k
        E = E + T
        if not np.abs(T).max(initial=0.0) >= 1e-18:
            break
    for _ in range(s):
        E = E @ E
    return E


def _shift(P: np.ndarray, V: np.ndarray, phi: np.ndarray, v: np.ndarray):
    """Phi^i -> Phi^i phi and v_i -> Phi^i v + v_i, for all i at once."""
    count, n = V.shape
    flat = P.reshape(-1, n)
    return (flat @ phi).reshape(count, n, n), (flat @ v).reshape(count, n) + V


class Discretization:
    """The one-step map of der(x) = A x + b at step h, with cached powers.

    phi = e^{Ah} and g are read off e^{[[A, b], [0, 0]] h}; W bounds the
    Taylor remainder of one step (see the module docstring). All of them
    are of the flowed block only, the axes at `moving`; `fixed` holds the
    decoupled constant axes. Build one per distinct (A, b, h) and pass it
    to every flow_tube call on that field, so its powers and chunk
    operands are computed once and each distinct flow runs once; `flows`
    counts those runs.
    """

    def __init__(self, A, b, h: float):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        self.h = h = float(h)
        nz = A != 0.0
        flowed = nz.any(axis=1) | nz.any(axis=0) | (b != 0.0)
        axes, fixed = np.flatnonzero(flowed), np.flatnonzero(~flowed)
        # Positions of the flowed and of the decoupled constant axes in a
        # box vector (-lo, hi) of the whole field.
        self.moving = np.concatenate([axes, axes + len(b)])
        self.fixed = np.concatenate([fixed, fixed + len(b)])
        # Columns of flow_tube's rows, start box and invariant, with the
        # flowed axes first, at their places in (-lo, -inv_lo, hi, inv_hi);
        # and the inverse order of columns.
        order = np.concatenate([self.moving, self.fixed])
        self.order = order + len(b) * ((order >= len(b)) + np.array([[0], [1]]))
        self.unorder = np.argsort(order)
        self.flows = 0
        self._tubes: dict = {}
        self._held: dict = {}
        A, b = A[axes][:, axes], b[axes]
        self.n = n = len(b)
        # g is linear in b: scaling b down by a power of two c to the size
        # of A h and g back up is exact, and keeps a large b from scaling
        # A h away in the squaring.
        a_norm = float(np.abs(A).sum(axis=1).max(initial=0.0)) * h
        b_norm = float(np.abs(b).max(initial=0.0)) * h
        c = 2.0 ** max(0, math.frexp(b_norm)[1] - math.frexp(max(a_norm, 1.0))[1])
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = A * h
        M[:n, n] = b * (h / c)
        # The upper right block of e^K, K = [[|A|, I], [0, 0]] h, is
        # sum_{k>=1} h^k / k! |A|^{k-1} = h I + W.
        K = np.zeros((2 * n, 2 * n))
        K[:n, :n] = np.abs(A) * h
        K[:n, n:] = np.eye(n) * h
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _expm(M)
            self.W = np.maximum(_expm(K)[:n, n:] - np.eye(n) * h, 0.0)
            self.phi = np.ascontiguousarray(psi[:n, :n])
            self.Gphi = _split(self.phi)
        self.g = psi[:n, n] * c
        self.finite = bool(np.isfinite(psi).all() and np.isfinite(self.g).all())
        moving = (A != 0.0).any(axis=1) | (b != 0.0)
        unit = (self.phi == np.eye(n)).all(axis=1) & (self.g == 0.0)
        # Indices (of the whole field) of moving axes whose one-step map
        # rounds to the identity.
        self.stalled = tuple(int(axes[i]) for i in np.flatnonzero(moving & unit))
        self.GA = _split(A)
        self.b2 = np.concatenate([-b, b])
        self.g2 = np.concatenate([-self.g, self.g])
        self.g2s = np.repeat(self.g2[:, None], _CHUNK, axis=1)
        self._P = np.eye(n)[None]
        self._V = np.zeros((1, n))
        # Operands of the kept chunks and of the last one past them, each
        # with the shift to the chunk after it.
        self._chunks: list = []
        self._tail = None

    def powers(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Phi^k and v_k for k < count, shapes (count, n, n) and (count, n)."""
        P, V = self._P, self._V
        while len(P) < count:
            # Psi^len(P) = Psi^(len(P) - 1) Psi; the length doubles.
            P2, V2 = _shift(P, V, P[-1] @ self.phi, P[-1] @ self.g + V[-1])
            P, V = np.concatenate([P, P2]), np.concatenate([V, V2])
        self._P, self._V = P, V
        return P[:count], V[:count]

    def chunk(self, j: int, count: int):
        """For k = _CHUNK j .. _CHUNK j + count - 1: [Phi^k+; Phi^k-] of
        shape (2 count n, n), v_k as the columns of an (n, count) array,
        and the mask of the k whose power or offset is not finite, None
        when all are finite. Chained from chunk j - 1, which must be
        asked for first; the first _KEPT_CHUNKS full chunks are kept."""
        kept = self._chunks
        if count == _CHUNK and j < len(kept):
            return kept[j][0]
        P, V = self.powers(count)
        if j:
            # Psi^(_CHUNK j) from the last power of chunk j - 1.
            P, V = _shift(P, V, *(kept[j - 1] if j <= len(kept) else self._tail)[1])
        flat = P.reshape(-1, self.n)
        pos = np.maximum(flat, 0.0)
        nonfinite = None
        if not (np.isfinite(P[-1]).all() and np.isfinite(V[-1]).all()):
            # A non-finite power or offset makes every later one non-finite.
            nonfinite = ~(np.isfinite(P).all(axis=(1, 2)) & np.isfinite(V).all(axis=1))
        ops = (np.concatenate([pos, pos - flat]), np.ascontiguousarray(V.T), nonfinite)
        if count == _CHUNK:
            entry = (ops, (P[-1] @ self.phi, P[-1] @ self.g + V[-1]))
            if j < _KEPT_CHUNKS:
                kept.append(entry)
            else:
                self._tail = entry
        return ops


def _first_segment(disc: Discretization, x: np.ndarray, bound) -> np.ndarray:
    """E0, the enclosure of every state on [0, h] from the box x."""
    f = bound(disc.GA, x) + disc.b2
    rem = bound(disc.W, np.maximum.reduce(np.abs(f.reshape(2, -1))))
    e = x + disc.h * np.maximum(f, 0.0)
    sides = e.reshape(2, -1)
    sides += rem
    d = bound(disc.GA, e) + disc.b2
    mono = np.logical_or.reduce(d.reshape(2, -1) <= 0.0)
    x1 = bound(disc.Gphi, x) + disc.g2
    np.copyto(sides, np.minimum(e, np.maximum(x, x1)).reshape(2, -1), where=mono)
    return e


def flow_tube(lo, hi, A, b, h, n_steps, inv_lo, inv_hi, *, disc=None):
    """Tube, final box and status of der(x) = A x + b from [lo, hi].

    Returns (tube_lo, tube_hi, end_lo, end_hi, status) with float64
    arrays; see the module docstring for the status codes. disc, when
    given, must be Discretization(A, b, h); callers that flow the same
    field many times pass it to share its powers and its memo.
    """
    # The start box and the invariant as z vectors, their halves
    # interleaved: (-lo, -inv_lo, hi, inv_hi).
    boxes = np.concatenate((lo, inv_lo, hi, inv_hi), dtype=np.float64)
    np.negative(boxes[: len(boxes) // 2], out=boxes[: len(boxes) // 2])
    n_steps = int(n_steps)
    if disc is None and n_steps > 0:
        disc = Discretization(A, b, h)
    if n_steps <= 0 or not disc.finite or disc.stalled:
        status = FLOW_BUDGET if n_steps <= 0 else FLOW_NO_ENCLOSURE
        return _result(np.tile(_box(lo, hi), (2, 1)), status)
    rows, m = boxes.take(disc.order), 2 * disc.n
    key = rows[:, m:].tobytes()
    fixed = disc._held.get(key)
    if fixed is None:
        # The decoupled constant axes (module docstring).
        x, inv = rows[:, m:]
        s = np.minimum(np.minimum(x, inv) + 0.0, inv)
        held = None if is_empty(s) else np.stack((np.maximum(x, s), s))
        fixed = disc._held[key] = held, bool(np.isfinite(x).all())
    held, finite = fixed
    if held is None:
        return _result(np.tile(_box(lo, hi), (2, 1)), FLOW_DONE)
    key = (rows[:, :m].tobytes(), n_steps, finite)
    flow = disc._tubes.get(key)
    if flow is None:
        disc.flows += 1
        x, inv = rows[:, :m]
        # Overflow is detected from the results and reported as a status.
        with np.errstate(over="ignore", invalid="ignore"):
            flow = _flow(disc, x, inv, n_steps, finite and bool(np.isfinite(x).all()))
        disc._tubes[key] = flow
    flowed, status = flow
    if flowed is None:
        return _result(np.tile(_box(lo, hi), (2, 1)), status)
    # The memo's rows are copied into rows, never handed out.
    rows[:, :m] = flowed
    rows[:, m:] = held
    return _result(rows.take(disc.unorder, axis=1), status)


def _result(out: np.ndarray, status: int):
    """flow_tube's tuple from the z rows of its tube and end box."""
    N = out.shape[1] // 2
    np.negative(out[:, :N], out=out[:, :N])
    return out[0, :N], out[0, N:], out[1, :N], out[1, N:], status


def _flow(disc: Discretization, x, inv, n_steps: int, finite: bool):
    """Tube and end box of the flowed block from its box x, as the rows
    of one array (None when the flow stops before its first segment),
    and the status."""
    n = disc.n
    if not n:
        return np.empty((2, 0)), FLOW_DONE
    # A finite start box keeps every box finite, and an overflow then
    # shows as nan; only infinite sides need 0 * inf = 0.
    bound = np.matmul if finite else _bound
    s0 = np.minimum(_first_segment(disc, x, bound), inv)
    # Columns (z_lo, z_hi): the positive and negative parts of Phi^k,
    # stacked, times them give every product that G(Phi^k) s0 sums.
    halves = np.ascontiguousarray(s0.reshape(2, n).T)
    # The invariant and g as columns of full chunks: ufuncs run faster on
    # whole arrays than broadcast along rows.
    inv, g2 = np.repeat(inv[:, None], _CHUNK, axis=1), disc.g2s
    tube, end, status = x, None, FLOW_BUDGET
    for j, start in enumerate(range(0, n_steps, _CHUNK)):
        count = min(_CHUNK, n_steps - start)
        G, VT, nonfinite = disc.chunk(j, count)
        lim = inv[:, :count]
        R = bound(G, halves).reshape(2, count, n, 2).transpose(0, 3, 2, 1)
        # Segment k is column k: with Phi = Phi^k and v = v_k, its -lo is
        # Phi+ z_lo + Phi- z_hi - v and its hi is Phi- z_lo + Phi+ z_hi + v.
        seg = np.empty((2 * n, count))
        neg_lo, hi = seg[:n], seg[n:]
        np.add(R[:, 0], R[::-1, 1], out=seg.reshape(2, n, count))
        np.subtract(neg_lo, VT, out=neg_lo)
        np.add(hi, VT, out=hi)
        np.minimum(seg, lim, out=seg)
        img = bound(disc.Gphi, seg)
        img += g2[:, :count]
        np.minimum(img, lim, out=img)
        # Stop tests (module docstring): the fixpoint rule per column, the
        # others per column only when the whole chunk fails them.
        stop, cut = np.logical_and.reduce(img <= seg), None
        if nonfinite is not None or not np.minimum.reduce(neg_lo + hi, axis=None) >= 0.0:
            bad = np.logical_or.reduce(np.isnan(seg))
            if nonfinite is not None:
                bad |= nonfinite
            cut = bad | np.logical_or.reduce(neg_lo + hi < 0.0)
            stop |= cut
        k = int(stop.argmax())
        halt = stop[k] and cut is not None and cut[k]
        last = k + (not halt) if stop[k] else count
        if last:
            tube = np.maximum(tube, np.maximum.reduce(seg[:, :last], axis=1))
            end = seg[:, last - 1]
        if stop[k]:
            status = FLOW_NO_ENCLOSURE if halt and bad[k] else FLOW_DONE
            break
    return None if end is None else np.array((tube, end)), status
