"""Closure sets and maximally consistent sets.

The closure of a formula f over an action alphabet is the smallest set that
contains f, every action atom of the alphabet and the constant true, and is
closed under subformulas and single negation (double negations collapse, and
the negation of true is false). Every member therefore has a complementary
partner, and the closure splits into pairs (g, neg(g)): the pair with index
k owns ordinals 2k (positive form) and 2k + 1 (negated form).

A maximally consistent set picks exactly one member of every pair such that
true is in, conjunctions and disjunctions agree with their arguments, and at
most one action atom is positive. Only flow atoms, next, until and release
pairs are free choices. Members are ordered by size, so a conjunction or
disjunction follows from arguments that precede it. Columns holds all
N = 2^free * (A + 1) sets at once, A the number of action atoms. Set r is
r = c * (A + 1) + a, bit t of c the sign of the t-th free pair and a its
action (0 for none), and column i is an integer whose bit r is set when
set r holds ordinal i: a tiled bit pattern for a free or action pair, the
and or or of two earlier columns for a conjunction or disjunction.

The sets are ordered lexicographically on their bit vectors, bit 0 first.
Two sets first differ at a free or action pair, whose negative half sorts
first. So the rank of set r sums, over its positive free and action pairs
p, the sets that agree before p and are negative at p: 2^(free pairs after
p) times the action choices left, which is 1 when an action before p is
positive and otherwise 1 + (action pairs after p).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import ModelError
from ..hybrid.constraints import FlowConstraint
from .syntax import (
    ActionAtom,
    And,
    Bot,
    FlowAtom,
    Formula,
    Next,
    Not,
    Or,
    Release,
    Top,
    Until,
    canonical,
    neg,
    size,
    to_str,
)


def _positive_rep(f: Formula) -> Formula:
    """The positive half of f's complementary pair."""
    match f:
        case Not(g):
            return g
        case Bot():
            return Top()
        case _:
            return f


class ClosureSet:
    """Closure of a formula, with a fixed ordinal for every member."""

    def __init__(self, formula: Formula, actions: Iterable[str]):
        self.formula = canonical(formula)
        self.actions = tuple(actions)

        members: set[Formula] = set()

        def add(g: Formula) -> None:
            # Recurse on the positive half of the pair so that subformulas
            # under a negation are still collected.
            p = _positive_rep(g)
            if p in members:
                return
            members.add(p)
            members.add(neg(p))
            match p:
                case Next(x):
                    add(x)
                case And(a, b) | Or(a, b) | Until(a, b) | Release(a, b):
                    add(a)
                    add(b)
                case _:
                    pass

        add(Top())
        for a in self.actions:
            add(ActionAtom(a))
        add(self.formula)

        positives = sorted(
            {_positive_rep(g) for g in members},
            key=lambda g: (size(g), to_str(g)),
        )
        ordered: list[Formula] = []
        for p in positives:
            ordered.append(p)
            ordered.append(neg(p))
        self.members: tuple[Formula, ...] = tuple(ordered)
        self.index: dict[Formula, int] = {g: i for i, g in enumerate(ordered)}
        self.n_pairs = len(positives)

        self.action_ordinals: dict[str, int] = {
            g.action: i for g, i in self.index.items() if isinstance(g, ActionAtom)
        }
        self.flow_ordinals: dict[FlowConstraint, int] = {
            g.constraint: i for g, i in self.index.items() if isinstance(g, FlowAtom)
        }
        # Positive temporal/boolean nodes with the ordinals of their parts,
        # the raw material of consistency filtering and edge generation;
        # derived holds each conjunction (True) and disjunction (False) in
        # ordinal order.
        self.derived: list[tuple[int, int, int, bool]] = []
        self.next_nodes: list[tuple[int, int]] = []
        self.until_nodes: list[tuple[int, int, int]] = []
        self.release_nodes: list[tuple[int, int, int]] = []
        for g in positives:
            i = self.index[g]
            match g:
                case And(a, b) | Or(a, b):
                    conj = isinstance(g, And)
                    self.derived.append((i, self.index[a], self.index[b], conj))
                case Next(a):
                    self.next_nodes.append((i, self.index[a]))
                case Until(a, b):
                    self.until_nodes.append((i, self.index[a], self.index[b]))
                case Release(a, b):
                    self.release_nodes.append((i, self.index[a], self.index[b]))
                case _:
                    pass

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, f: Formula) -> bool:
        return f in self.index or canonical(f) in self.index

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.members)


@dataclass(frozen=True)
class MCS:
    """One maximally consistent subset of a closure, as a bit vector."""

    closure: ClosureSet
    bits: int

    def __contains__(self, f: Formula) -> bool:
        i = self.closure.index.get(f)
        if i is None:
            i = self.closure.index.get(canonical(f))
        return i is not None and bool(self.bits >> i & 1)

    def formulas(self) -> tuple[Formula, ...]:
        return tuple(
            g for i, g in enumerate(self.closure.members) if self.bits >> i & 1
        )

    def positive_actions(self) -> tuple[str, ...]:
        return tuple(
            a for a, i in self.closure.action_ordinals.items() if self.bits >> i & 1
        )

    def __repr__(self) -> str:
        return "{" + ", ".join(map(to_str, self.formulas())) + "}"


def closure(formula: Formula, actions: Iterable[str]) -> ClosureSet:
    return ClosureSet(formula, actions)


# Closures with more consistent sets are refused before any column is built:
# 25 nested X before an action would ask for 3 * 2^25 and exhaust memory.
MAX_SETS = 1 << 20


def _tile(pattern: int, width: int, total: int) -> int:
    """pattern, width bits wide, repeated to total bits (a power-of-two
    multiple of width)."""
    while width < total:
        pattern |= pattern << width
        width *= 2
    return pattern


class Columns:
    """The maximally consistent sets of a closure, one bitset per ordinal
    (see the module docstring); more than MAX_SETS raise ModelError."""

    def __init__(self, cl: ClosureSet):
        top = cl.index[Top()]
        fixed = {top} | set(cl.action_ordinals.values()) | {i for i, *_ in cl.derived}
        self.free = [2 * k for k in range(cl.n_pairs) if 2 * k not in fixed]
        self.actions = sorted(cl.action_ordinals.values())
        self.radix = radix = len(self.actions) + 1
        self.n = n = radix << len(self.free)
        if n > MAX_SETS:
            raise ModelError(
                f"the formula's tableau has {n} consistent sets, more than {MAX_SETS}"
            )
        self.full = full = (1 << n) - 1
        cols = self.cols = [0] * len(cl.members)

        def put(i: int, col: int) -> None:
            cols[i], cols[i ^ 1] = col, full ^ col

        put(top, full)
        for k, i in enumerate(self.actions, 1):
            put(i, _tile(1 << k, radix, n))
        for t, i in enumerate(self.free):
            run = radix << t
            put(i, _tile(((1 << run) - 1) << run, 2 * run, n))
        for i, l, r, conj in cl.derived:
            put(i, cols[l] & cols[r] if conj else cols[l] | cols[r])

        # The sets a positive pair at ordinal i puts first (see the
        # module docstring), with or without a positive action before i.
        def first(i: int, no_action: bool = True) -> int:
            n_free = sum(p > i for p in self.free)
            return (sum(p > i for p in self.actions) + 1 if no_action else 1) << n_free

        self._base = [0] + [first(a) for a in self.actions]
        self._weights = [
            [first(i, a is None or a > i) for i in self.free]
            for a in [None] + self.actions
        ]

    def rank(self, r: int) -> int:
        """The place of set r in the order on bit vectors."""
        c, a = divmod(r, self.radix)
        weights = enumerate(self._weights[a])
        return self._base[a] + sum(w for t, w in weights if c >> t & 1)


def members(x: int) -> list[int]:
    """The indices of the set bits of x, ascending."""
    return [m.start() for m in re.finditer("1", format(x, "b")[::-1])]


def maximally_consistent_sets(cl: ClosureSet) -> tuple[MCS, ...]:
    """Every maximally consistent set, in rank order, read off the columns."""
    cs = Columns(cl)
    # Row i holds ordinal i of every set, set r at character r.
    rows = [format(col, f"0{cs.n}b")[::-1] for col in cs.cols]
    out: list = [None] * cs.n
    for r, chars in enumerate(zip(*rows)):
        out[cs.rank(r)] = MCS(cl, int("".join(chars)[::-1], 2))
    return tuple(out)
