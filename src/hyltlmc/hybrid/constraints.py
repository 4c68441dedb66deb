"""Flow and jump constraints: comparisons between expression trees.

A flow constraint compares expressions over state and dotted variables and is
checked against every sample of a trajectory. A jump constraint compares
expressions over state and primed variables and relates the values right
before a discrete action to the values right after it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from ..errors import ComplementError, ModelError
from .expr import Expr, Sub, affine_form, evaluate, fields_only, to_str, variables
from .valuation import Valuation


class Relation(enum.Enum):
    LT = "<"
    LE = "<="
    EQ = "="
    GE = ">="
    GT = ">"

    def __str__(self) -> str:
        return self.value


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


@dataclass(frozen=True)
class FlowConstraint:
    """Comparison over state and dotted variables, e.g. der(x) = -0.2 * x.

    The optional complement is a constraint equivalent to the pointwise
    negation; it is consulted when negation normal form needs to rewrite a
    negated atom. It does not participate in equality or hashing. The
    variable sets are cached, outside equality, hashing, repr and pickles.
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
    def bound(self) -> tuple[str | None, float, float] | None:
        """(x, lo, hi) when the constraint confines the one variable x to
        [lo, hi], read as reach.boxes.compile_rows reads its row: strict
        inequalities closed, an equality giving both ends. A constant
        false row gives (None, inf, -inf). None when it confines no single
        variable: it mentions a derivative, is not affine, has several
        variables or always holds.
        """
        if self.mentions_dot:
            return None
        form = affine_form(Sub(self.lhs, self.rhs))
        if form is None:
            return None
        coeffs, k = form
        terms = [(name, a) for (kind, name), a in coeffs.items() if a != 0.0]
        upper = self.rel in (Relation.LE, Relation.LT)
        if not terms:
            # The row k <= 0, -k <= 0 for >= and >, and both for =.
            rows = (k, -k) if self.rel is Relation.EQ else (k if upper else -k,)
            return (None, math.inf, -math.inf) if any(r > 0.0 for r in rows) else None
        if len(terms) > 1:
            return None
        [(name, a)] = terms
        v = -k / a
        if self.rel is Relation.EQ:
            return name, v, v
        return (name, -math.inf, v) if upper == (a > 0.0) else (name, v, math.inf)

    def holds_at(self, state, dot=None, tol: float = 0.0):
        a = evaluate(self.lhs, state=state, dot=dot)
        b = evaluate(self.rhs, state=state, dot=dot)
        return holds(a, self.rel, b, tol)

    def __str__(self) -> str:
        return f"{to_str(self.lhs)} {self.rel} {to_str(self.rhs)}"


@dataclass(frozen=True)
class JumpConstraint:
    """Comparison over state and primed variables, e.g. x' = x; variable
    sets cached as on FlowConstraint."""

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

    def __str__(self) -> str:
        return f"{to_str(self.lhs)} {self.rel} {to_str(self.rhs)}"


def satisfiable(constraints: Iterable[FlowConstraint]) -> bool:
    """False when the constraints' single-variable bounds (see
    FlowConstraint.bound) prove that no state meets them all.

    Every other row is skipped, so True only means not proved empty. The
    engine's invariant clip reads the same rows and floats, so it rejects
    every box at a location whose invariant this rejects.
    """
    box: dict[str | None, tuple[float, float]] = {}
    for c in constraints:
        b = c.bound
        if b is None:
            continue
        name, lo, hi = b
        old_lo, old_hi = box.get(name, (-math.inf, math.inf))
        # A nan end leaves the old one, as compile_rows does.
        lo = lo if lo > old_lo else old_lo
        hi = hi if hi < old_hi else old_hi
        if hi < lo:
            return False
        box[name] = lo, hi
    return True


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

    v supplies the unprimed variables, v_next the primed ones.
    """
    a = evaluate(jc.lhs, state=v, primed=v_next)
    b = evaluate(jc.rhs, state=v, primed=v_next)
    return bool(holds(a, jc.rel, b, 0.0))

