"""Negation normal form.

Negations are pushed down to the atoms through the usual dualities:

    !(a & b) = !a | !b      !(a U b) = !a R !b      !X a = X !a
    !(a | b) = !a & !b      !(a R b) = !a U !b

A negated action atom stays as a literal (positions carry at most one action,
so the automaton construction handles it through mutual exclusion). A negated
flow atom is rewritten to the relation-flipped comparison (a negated equality
has none and is a ComplementError). The rewrite strengthens trajectory-level
negation ("some sample violates c") to "every sample satisfies the
complement", so a ComplementStrengtheningWarning is emitted; strict mode
refuses every negated flow atom instead.
"""

from __future__ import annotations

import warnings

from ..errors import ComplementStrengtheningWarning
from ..hybrid.constraints import complement_of
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
)


def to_nnf(f: Formula, strict: bool = False) -> Formula:
    match f:
        case Top() | Bot() | FlowAtom(_) | ActionAtom(_):
            return f
        case And(a, b):
            return And(to_nnf(a, strict), to_nnf(b, strict))
        case Or(a, b):
            return Or(to_nnf(a, strict), to_nnf(b, strict))
        case Next(a):
            return Next(to_nnf(a, strict))
        case Until(a, b):
            return Until(to_nnf(a, strict), to_nnf(b, strict))
        case Release(a, b):
            return Release(to_nnf(a, strict), to_nnf(b, strict))
        case Not(g):
            return _nnf_neg(g, strict)
    raise TypeError(f"not a formula: {f!r}")


def _nnf_neg(f: Formula, strict: bool) -> Formula:
    """NNF of Not(f)."""
    match f:
        case Top():
            return Bot()
        case Bot():
            return Top()
        case ActionAtom(_):
            return Not(f)
        case FlowAtom(c):
            comp = complement_of(c, strict)
            warnings.warn(
                f"negated flow atom '{c}' rewritten to '{comp}'; trajectories "
                "straddling the boundary satisfy neither atom",
                ComplementStrengtheningWarning,
                stacklevel=3,
            )
            return FlowAtom(comp)
        case Not(g):
            return to_nnf(g, strict)
        case And(a, b):
            return Or(_nnf_neg(a, strict), _nnf_neg(b, strict))
        case Or(a, b):
            return And(_nnf_neg(a, strict), _nnf_neg(b, strict))
        case Next(a):
            return Next(_nnf_neg(a, strict))
        case Until(a, b):
            return Release(_nnf_neg(a, strict), _nnf_neg(b, strict))
        case Release(a, b):
            return Until(_nnf_neg(a, strict), _nnf_neg(b, strict))
    raise TypeError(f"not a formula: {f!r}")
