"""Flow and jump constraints: comparisons between expression trees.

A flow constraint compares expressions over state and dotted variables and is
checked against every sample of a trajectory. A jump constraint compares
expressions over state and primed variables and relates the values right
before a discrete action to the values right after it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ComplementError, ModelError, TraceError
from .expr import Expr, PrimedVar, Sub, affine_form, evaluate, fields_only, to_str
from .expr import variables
from .valuation import Valuation


class Relation(enum.Enum):
    LT = "<"
    LE = "<="
    EQ = "="
    GE = ">="
    GT = ">"

    def __str__(self) -> str:
        return self.value


_UPPER = (Relation.LT, Relation.LE)
_FLIP = {
    Relation.LT: Relation.GE,
    Relation.LE: Relation.GT,
    Relation.GE: Relation.LT,
    Relation.GT: Relation.LE,
}


def holds(lhs: float, rel: Relation, rhs: float, tol: float = 0.0):
    """Compare two values (scalars or arrays) with symmetric slack tol.

    Equality means |lhs - rhs| <= tol; inequalities get tol of slack toward
    satisfaction. tol = 0 is exact comparison on the represented numbers.
    """
    if rel is Relation.EQ:
        return np.abs(lhs - rhs) <= tol if isinstance(lhs - rhs, np.ndarray) else abs(lhs - rhs) <= tol
    if rel is Relation.LE:
        return lhs <= rhs + tol
    if rel is Relation.LT:
        return lhs < rhs + tol
    if rel is Relation.GE:
        return lhs >= rhs - tol
    return lhs > rhs - tol


# A row sum(a * x) + k <= 0: its (variable, coefficient) pairs and k.
Row = tuple[tuple[tuple[str, float], ...], float]


def _rows(lhs: Expr, rel: Relation, rhs: Expr) -> tuple[Row, ...]:
    """lhs rel rhs as rows over plain variables: a strict inequality is
    closed and an equality gives two rows, which only enlarges the region.
    A comparison that is not affine in plain variables gives no row."""
    form = affine_form(Sub(lhs, rhs))
    if form is None or any(kind != "v" for kind, _ in form[0]):
        return ()
    coeffs, k = form
    signs = (1.0, -1.0) if rel is Relation.EQ else (1.0 if rel in _UPPER else -1.0,)
    return tuple(
        (tuple((name, sign * a) for (_, name), a in coeffs.items()), sign * k)
        for sign in signs
    )


def undefined(c, *states) -> TraceError:
    """The error for a constraint with a side that is nan at a state, or
    at the states before and after a jump: undefined, not false."""
    at = " -> ".join(
        ", ".join(f"{x}={float(v):g}" for x, v in sorted(s.items())) for s in states
    )
    return TraceError(f"constraint '{c}' is undefined (nan) at {at}")


@dataclass(frozen=True)
class FlowConstraint:
    """Comparison over state and dotted variables, e.g. der(x) = -0.2 * x.

    The optional complement is a constraint equivalent to the pointwise
    negation; it is consulted when negation normal form needs to rewrite a
    negated atom. It does not participate in equality or hashing. The
    variable sets and the rows are cached, outside equality, hashing, repr
    and pickles. rows holds the comparison as rows sum(a * x) + k <= 0
    over plain variables (_rows); one that mentions der(x) gives none.
    """

    lhs: Expr
    rel: Relation
    rhs: Expr
    complement: "FlowConstraint | None" = field(default=None, compare=False)

    def __post_init__(self):
        for e in (self.lhs, self.rhs):
            _, _, primed = variables(e)
            if primed:
                raise ModelError(f"primed variable in flow constraint: {to_str(e)}")

    __getstate__ = fields_only

    @cached_property
    def mentions_dot(self) -> bool:
        return bool(self.dot_vars)

    @cached_property
    def state_vars(self) -> frozenset[str]:
        return variables(self.lhs)[0] | variables(self.rhs)[0]

    @cached_property
    def dot_vars(self) -> frozenset[str]:
        return variables(self.lhs)[1] | variables(self.rhs)[1]

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        return _rows(self.lhs, self.rel, self.rhs)

    def holds_at(self, state, dot=None, tol: float = 0.0):
        """Raises TraceError when a side is nan at the state."""
        a = evaluate(self.lhs, state=state, dot=dot)
        b = evaluate(self.rhs, state=state, dot=dot)
        if np.isnan(a).any() or np.isnan(b).any():
            raise undefined(self, state)
        return holds(a, self.rel, b, tol)

    def __str__(self) -> str:
        return f"{to_str(self.lhs)} {self.rel} {to_str(self.rhs)}"


@dataclass(frozen=True)
class JumpConstraint:
    """Comparison over state and primed variables, e.g. x' = x; variable
    sets, rows and the defined variable cached as on FlowConstraint."""

    lhs: Expr
    rel: Relation
    rhs: Expr

    def __post_init__(self):
        for e in (self.lhs, self.rhs):
            _, dotted, _ = variables(e)
            if dotted:
                raise ModelError(f"dotted variable in jump constraint: {to_str(e)}")

    __getstate__ = fields_only

    @cached_property
    def state_vars(self) -> frozenset[str]:
        return variables(self.lhs)[0] | variables(self.rhs)[0]

    @cached_property
    def primed_vars(self) -> frozenset[str]:
        return variables(self.lhs)[2] | variables(self.rhs)[2]

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """As on FlowConstraint: only a row free of primed variables, a
        guard, gives rows, so a whole jump tuple can be read for its
        guards."""
        return _rows(self.lhs, self.rel, self.rhs)

    @cached_property
    def defines(self) -> tuple[str, Expr] | None:
        """(x, e) when the row is x' = e or e = x' with e free of primed
        variables: the row that sets the successor value of x."""
        if self.rel is not Relation.EQ:
            return None
        for side, e in ((self.lhs, self.rhs), (self.rhs, self.lhs)):
            if isinstance(side, PrimedVar) and not variables(e)[2]:
                return side.name, e
        return None

    def __str__(self) -> str:
        return f"{to_str(self.lhs)} {self.rel} {to_str(self.rhs)}"


def complement_of(c: FlowConstraint, strict: bool = False) -> FlowConstraint:
    """Pointwise complement of a flow constraint.

    A declared complement wins. Otherwise the relation is flipped, which is
    only possible for inequalities; equalities have no single-comparison
    complement. In strict mode an undeclared complement is always an error.
    """
    if c.complement is not None:
        return c.complement
    if strict:
        raise ComplementError(f"missing complement declaration for negated flow constraint '{c}'")
    if c.rel is Relation.EQ:
        raise ComplementError(
            f"negated equality '{c}' has no derivable complement; declare one in the model"
        )
    return FlowConstraint(c.lhs, _FLIP[c.rel], c.rhs)


def satisfies_jump(v: Valuation, v_next: Valuation, jc: JumpConstraint) -> bool:
    """Check one jump constraint with substitution semantics, exactly.

    v supplies the unprimed variables, v_next the primed ones. Raises
    TraceError when a side is nan.
    """
    a = evaluate(jc.lhs, state=v, primed=v_next)
    b = evaluate(jc.rhs, state=v, primed=v_next)
    if np.isnan(a) or np.isnan(b):
        raise undefined(jc, v, v_next)
    return bool(holds(a, jc.rel, b, 0.0))

