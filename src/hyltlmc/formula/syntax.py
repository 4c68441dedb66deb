"""Formula AST for the temporal logic over hybrid traces.

Atoms are flow constraints (checked against a whole trajectory segment) and
action names (checked against the discrete action taken just before the
current position). The temporal operators are Next, Until and Release; F and
G exist only as parser sugar and never appear in the AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..hybrid.constraints import FlowConstraint


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class FlowAtom(Formula):
    constraint: FlowConstraint


@dataclass(frozen=True)
class ActionAtom(Formula):
    action: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


def neg(f: Formula) -> Formula:
    """Logical negation with double negations collapsed.

    neg(neg(f)) is always f, and the constants map to each other, so closure
    sets stay finite and complementary pairs are well defined.
    """
    match f:
        case Top():
            return Bot()
        case Bot():
            return Top()
        case Not(x):
            return x
        case _:
            return Not(f)


def canonical(f: Formula) -> Formula:
    """Rebuild f with every negation routed through neg.

    Double negations vanish and negated constants become the other constant,
    so structurally distinct spellings of the same formula coincide.
    """
    match f:
        case Not(x):
            return neg(canonical(x))
        case Next(x):
            return Next(canonical(x))
        case And(a, b):
            return And(canonical(a), canonical(b))
        case Or(a, b):
            return Or(canonical(a), canonical(b))
        case Until(a, b):
            return Until(canonical(a), canonical(b))
        case Release(a, b):
            return Release(canonical(a), canonical(b))
        case _:
            return f


def size(f: Formula) -> int:
    """Number of AST nodes."""
    match f:
        case Top() | Bot() | FlowAtom(_) | ActionAtom(_):
            return 1
        case Not(x) | Next(x):
            return 1 + size(x)
        case And(a, b) | Or(a, b) | Until(a, b) | Release(a, b):
            return 1 + size(a) + size(b)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformulas including f itself, preorder."""
    yield f
    match f:
        case Not(x) | Next(x):
            yield from subformulas(x)
        case And(a, b) | Or(a, b) | Until(a, b) | Release(a, b):
            yield from subformulas(a)
            yield from subformulas(b)


def action_atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.action for g in subformulas(f) if isinstance(g, ActionAtom))


# Precedence levels for printing and parsing: | < & < U/R < unary < atom.
_OR, _AND, _UR, _UNARY, _ATOM = 1, 2, 3, 4, 5


def to_str(f: Formula, _min_prec: int = 0) -> str:
    """Render in the concrete syntax; parse(to_str(f)) reproduces f."""
    match f:
        case Top():
            return "true"
        case Bot():
            return "false"
        case FlowAtom(c):
            return str(c)
        case ActionAtom(a):
            return a
        case Not(x):
            s, prec = f"!{to_str(x, _UNARY)}", _UNARY
        case Next(x):
            s, prec = f"X {to_str(x, _UNARY)}", _UNARY
        case And(a, b):
            s, prec = f"{to_str(a, _AND)} & {to_str(b, _AND + 1)}", _AND
        case Or(a, b):
            s, prec = f"{to_str(a, _OR)} | {to_str(b, _OR + 1)}", _OR
        case Until(a, b):
            s, prec = f"{to_str(a, _UR + 1)} U {to_str(b, _UR)}", _UR
        case Release(a, b):
            s, prec = f"{to_str(a, _UR + 1)} R {to_str(b, _UR)}", _UR
        case _:
            raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if prec < _min_prec else s
