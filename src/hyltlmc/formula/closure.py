"""Closure sets and maximally consistent sets.

The closure of a formula f over an action alphabet is the smallest set that
contains f, every action atom of the alphabet and the constant true, and is
closed under subformulas and single negation (double negations collapse, and
the negation of true is false). Every member therefore has a complementary
partner, and the closure splits into pairs (g, neg(g)).

A maximally consistent set picks exactly one member of every pair such that
true is in, conjunctions and disjunctions agree with their arguments, and at
most one action atom is positive. Sets are represented as bit vectors over
closure ordinals: the pair with index k owns bits 2k (positive form) and
2k + 1 (negated form). Members are ordered by size, so the arguments of a
conjunction or disjunction come before it; the sets are enumerated from
the free choices (flow atoms, next, until, release) and the action atom,
with every conjunction and disjunction then read off its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

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
        # Rendered once here, so formatting a set is a join of cached text.
        self.texts: tuple[str, ...] = tuple(to_str(g) for g in ordered)
        self.index: dict[Formula, int] = {g: i for i, g in enumerate(ordered)}
        self.n_pairs = len(positives)

        self.action_ordinals: dict[str, int] = {
            g.action: i for g, i in self.index.items() if isinstance(g, ActionAtom)
        }
        self.flow_ordinals: dict[FlowConstraint, int] = {
            g.constraint: i for g, i in self.index.items() if isinstance(g, FlowAtom)
        }
        # Positive temporal/boolean nodes with the ordinals of their parts,
        # the raw material of consistency filtering and edge generation.
        self.and_nodes: list[tuple[int, int, int]] = []
        self.or_nodes: list[tuple[int, int, int]] = []
        self.next_nodes: list[tuple[int, int]] = []
        self.until_nodes: list[tuple[int, int, int]] = []
        self.release_nodes: list[tuple[int, int, int]] = []
        for g in positives:
            i = self.index[g]
            match g:
                case And(a, b):
                    self.and_nodes.append((i, self.index[a], self.index[b]))
                case Or(a, b):
                    self.or_nodes.append((i, self.index[a], self.index[b]))
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

    def positive_flow_constraints(self) -> tuple[FlowConstraint, ...]:
        return tuple(
            c for c, i in self.closure.flow_ordinals.items() if self.bits >> i & 1
        )

    def __hash__(self) -> int:
        return hash((id(self.closure), self.bits))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MCS)
            and self.closure is other.closure
            and self.bits == other.bits
        )

    def __repr__(self) -> str:
        texts = self.closure.texts
        return "{" + ", ".join(
            texts[i] for i in range(len(texts)) if self.bits >> i & 1
        ) + "}"


def closure(formula: Formula, actions: Iterable[str]) -> ClosureSet:
    return ClosureSet(formula, actions)


def maximally_consistent_sets(cl: ClosureSet) -> tuple[MCS, ...]:
    """Enumerate all maximally consistent sets, lexicographic on bit vectors.

    Only flow atoms, next, until and release pairs are free choices. True
    is always in, the action atoms are none or exactly one positive, and
    every conjunction or disjunction follows from its arguments, which
    precede it in closure order. The candidates built that way are
    exactly the consistent sets, so the cost is O(2^free * (|actions| + 1)
    * |cl|) with free the number of free pairs, and nothing is rejected.
    """
    top = cl.index[Top()]
    derived = sorted(
        [(i, l, r, True) for i, l, r in cl.and_nodes]
        + [(i, l, r, False) for i, l, r in cl.or_nodes]
    )
    fixed = {top} | set(cl.action_ordinals.values()) | {i for i, *_ in derived}
    free = [2 * k for k in range(cl.n_pairs) if 2 * k not in fixed]
    actions = [0] + [1 << i for i in sorted(cl.action_ordinals.values())]
    # Every action pair starts negative; a chosen action flips its pair.
    base = 1 << top
    for i in cl.action_ordinals.values():
        base |= 1 << (i + 1)

    out: list[MCS] = []
    for choice in product((0, 1), repeat=len(free)):
        bits = base
        for i, c in zip(free, choice):
            bits |= 1 << (i + c)
        for a in actions:
            b = bits ^ (a | a << 1)
            for i, l, r, conj in derived:
                if conj:
                    v = b >> l & b >> r & 1
                else:
                    v = (b >> l | b >> r) & 1
                b |= 1 << (i + 1 - v)
            out.append(MCS(cl, b))

    # Lexicographic on the bit vectors, bit 0 first: the binary digits
    # read from the lowest bit.
    spec = f"0{len(cl.members)}b"
    out.sort(key=lambda m: format(m.bits, spec)[::-1])
    return tuple(out)
