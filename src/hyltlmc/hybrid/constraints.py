"""Flow and jump constraints: comparisons between expression trees.

A flow constraint compares expressions over state and dotted variables and is
checked against every sample of a trajectory. A jump constraint compares
expressions over state and primed variables and relates the values right
before a discrete action to the values right after it.

_Comparison.judge alone decides a comparison, at one state (a float per
name) or over a trajectory (an array per name): both sides are float64 by
numpy's rules, so +-inf (1/0, exp(1000)) compares, a nan side at a judged
sample is a TraceError (E_TRACE), and a derivative constraint skips the
first and last sample. holds_at, satisfies_jump and satisfies_flow call it.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ComplementError, ModelError, TraceError
from .expr import DotVar, Expr, PrimedVar, Sub, affine_form, evaluate, fields_only, to_str
from .expr import variables


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
        return np.abs(lhs - rhs) <= tol
    if rel is Relation.LE:
        return lhs <= rhs + tol
    if rel is Relation.LT:
        return lhs < rhs + tol
    if rel is Relation.GE:
        return lhs >= rhs - tol
    return lhs > rhs - tol


# A row sum(a * x) + k <= 0: its (variable, coefficient) pairs and k.
Row = tuple[tuple[tuple[str, float], ...], float]


def _rows(
    lhs: Expr, rel: Relation, rhs: Expr, primed: bool = False
) -> tuple[Row, ...]:
    """lhs rel rhs as rows over plain variables: a strict inequality is
    closed and an equality gives two rows, which only enlarges the region.
    A comparison that is not affine in plain variables gives no row. With
    primed, primed variables may occur too, named x'."""
    form = affine_form(Sub(lhs, rhs))
    kinds = ("v", "p") if primed else ("v",)
    if form is None or any(kind not in kinds for kind, _ in form[0]):
        return ()
    coeffs, k = form
    signs = (1.0, -1.0) if rel is Relation.EQ else (1.0 if rel in _UPPER else -1.0,)
    return tuple(
        (
            tuple(
                (name + "'" if kind == "p" else name, sign * a)
                for (kind, name), a in coeffs.items()
            ),
            sign * k,
        )
        for sign in signs
    )


@dataclass(frozen=True)
class _Comparison:
    """lhs rel rhs over state variables and one marked namespace: dotted
    on FlowConstraint, primed on JumpConstraint.

    The variable sets, the rows and the defined variable are cached,
    outside equality, hashing, repr and pickles. rows holds the comparison
    as rows sum(a * x) + k <= 0 over plain variables (_rows); one that
    mentions a marked variable gives none.
    """

    lhs: Expr
    rel: Relation
    rhs: Expr

    # Each subclass sets _marked, its marked variable node, and _slot,
    # that node's place in the triple expr.variables returns.

    __getstate__ = fields_only

    def _marked_vars(self) -> frozenset[str]:
        return variables(self.lhs)[self._slot] | variables(self.rhs)[self._slot]

    @cached_property
    def state_vars(self) -> frozenset[str]:
        return variables(self.lhs)[0] | variables(self.rhs)[0]

    @cached_property
    def mentions_dot(self) -> bool:
        return bool(variables(self.lhs)[1] | variables(self.rhs)[1])

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        return _rows(self.lhs, self.rel, self.rhs)

    @cached_property
    def defines(self) -> tuple[str, Expr] | None:
        """(x, e) when the comparison is m = e or e = m, with m the marked
        variable of x (der(x) or x') and e free of marked variables: the
        equation that gives x its derivative or its successor value."""
        if self.rel is not Relation.EQ:
            return None
        for side, e in ((self.lhs, self.rhs), (self.rhs, self.lhs)):
            if isinstance(side, self._marked) and not variables(e)[self._slot]:
                return side.name, e
        return None

    def judge(self, state, dot=None, primed=None, tol: float = 0.0) -> bool:
        """lhs rel rhs, with slack tol, at every judged sample (module docstring)."""
        with np.errstate(all="ignore"):
            a = evaluate(self.lhs, state, dot, primed)
            b = evaluate(self.rhs, state, dot, primed)
            ok = holds(a, self.rel, b, tol)
        first = int(self.mentions_dot)
        if first:
            ok = ok[1:-1]
        if np.count_nonzero(ok) == ok.size:
            return True
        # A nan side fails every comparison, so only a failure looks for one.
        nan = np.flatnonzero(np.isnan(a) | np.isnan(b))
        nan = [i for i in nan if first <= i < first + ok.size]
        if not nan:
            return False
        at = " -> ".join(
            ", ".join(f"{x}={float(np.take(v, nan[0])):g}" for x, v in sorted(s.items()))
            for s in (state, primed) if s is not None
        )
        raise TraceError(f"constraint '{self}' is undefined (nan) at {at}")

    def __str__(self) -> str:
        return f"{to_str(self.lhs)} {self.rel} {to_str(self.rhs)}"


@dataclass(frozen=True)
class FlowConstraint(_Comparison):
    """Comparison over state and dotted variables, e.g. der(x) = -0.2 * x."""

    _marked, _slot = DotVar, 1

    def __post_init__(self):
        for e in (self.lhs, self.rhs):
            if variables(e)[2]:
                raise ModelError(f"primed variable in flow constraint: {to_str(e)}")

    dot_vars = cached_property(_Comparison._marked_vars)

    def holds_at(self, state, tol: float = 0.0) -> bool:
        return self.judge(state, tol=tol)


@dataclass(frozen=True)
class JumpConstraint(_Comparison):
    """Comparison over state and primed variables, e.g. x' = x. Only a
    comparison free of primed variables, a guard, gives rows, so a whole
    jump tuple can be read for its guards."""

    _marked, _slot = PrimedVar, 2

    def __post_init__(self):
        for e in (self.lhs, self.rhs):
            if variables(e)[1]:
                raise ModelError(f"dotted variable in jump constraint: {to_str(e)}")

    primed_vars = cached_property(_Comparison._marked_vars)

    @cached_property
    def jump_rows(self) -> tuple[Row, ...]:
        """The comparison as rows over state and primed variables, a
        primed one named x' (_rows); none when it is not affine."""
        return _rows(self.lhs, self.rel, self.rhs, primed=True)


def complement_of(c: FlowConstraint, strict: bool = False) -> FlowConstraint:
    """Pointwise complement of a flow constraint: the relation flipped.

    Only an inequality flips; an equality has no single-comparison
    complement. Strict mode refuses every complement, since the flip
    strengthens the negation (see formula.nnf).
    """
    if strict:
        raise ComplementError(f"strict negation refuses the negated flow constraint '{c}'")
    if c.rel is Relation.EQ:
        raise ComplementError(f"negated equality '{c}' has no complement comparison")
    return FlowConstraint(c.lhs, _FLIP[c.rel], c.rhs)


def satisfies_jump(
    v: Mapping[str, float], v_next: Mapping[str, float], jc: JumpConstraint
) -> bool:
    """Check one jump constraint with substitution semantics, exactly.

    v supplies the unprimed variables, v_next the primed ones. Raises
    TraceError when a side is nan.
    """
    return jc.judge(v, primed=v_next)
