"""Arithmetic expression trees over model variables.

Expressions appear on both sides of flow and jump constraints. Three variable
namespaces exist: plain state variables, dotted variables (time derivatives,
concrete syntax ``der(x)``) and primed variables (post-jump values, concrete
syntax ``x'``). Flow constraints may use plain and dotted variables; jump
constraints may use plain and primed variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping

import numpy as np

from ..errors import ModelError


def fields_only(obj) -> dict:
    """Pickle and copy state of an expression or constraint: its fields,
    never the derived values it caches beside them."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


class Expr:
    """Base class; concrete nodes are frozen dataclasses below."""

    __slots__ = ()
    __getstate__ = fields_only


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class DotVar(Expr):
    name: str


@dataclass(frozen=True)
class PrimedVar(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str  # sin | cos | exp
    operand: Expr


_FUNCS: dict[str, Callable] = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_SCALAR_FUNCS: dict[str, Callable] = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def evaluate(
    e: Expr,
    state: Mapping[str, float] | None = None,
    dot: Mapping[str, float] | None = None,
    primed: Mapping[str, float] | None = None,
):
    """Evaluate an expression in float64 by numpy's rules: values, floats
    or arrays, are read as np.float64, so 1/0 is inf, and numpy warns
    unless the caller holds np.errstate. Raises ModelError when a
    referenced variable is absent from its namespace."""

    def look(env: Mapping | None, name: str, kind: str):
        if env is None or name not in env:
            raise ModelError(f"unknown {kind} variable '{name}' in expression")
        return np.float64(env[name])

    match e:
        case Const(v):
            return np.float64(v)
        case Var(n):
            return look(state, n, "state")
        case DotVar(n):
            return look(dot, n, "dotted")
        case PrimedVar(n):
            return look(primed, n, "primed")
        case Add(a, b):
            return evaluate(a, state, dot, primed) + evaluate(b, state, dot, primed)
        case Sub(a, b):
            return evaluate(a, state, dot, primed) - evaluate(b, state, dot, primed)
        case Mul(a, b):
            return evaluate(a, state, dot, primed) * evaluate(b, state, dot, primed)
        case Div(a, b):
            return evaluate(a, state, dot, primed) / evaluate(b, state, dot, primed)
        case Neg(a):
            return -evaluate(a, state, dot, primed)
        case Call(f, a):
            return _FUNCS[f](evaluate(a, state, dot, primed))
    raise TypeError(f"not an expression: {e!r}")


def variables(e: Expr) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """Return (plain, dotted, primed) variable name sets of an expression.

    Computed on first use and kept on the node, so a subtree shared by
    several expressions is walked once.
    """
    got = getattr(e, "_variables", None)
    if got is not None:
        return got
    none = frozenset()
    match e:
        case Const(_):
            got = (none, none, none)
        case Var(n):
            got = (frozenset((n,)), none, none)
        case DotVar(n):
            got = (none, frozenset((n,)), none)
        case PrimedVar(n):
            got = (none, none, frozenset((n,)))
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b):
            got = tuple(x | y for x, y in zip(variables(a), variables(b)))
        case Neg(a) | Call(_, a):
            got = variables(a)
        case _:
            raise TypeError(f"not an expression: {e!r}")
    object.__setattr__(e, "_variables", got)
    return got


# Affine form: mapping from term keys to coefficients plus a constant.
# Term keys are ("v", name) for state vars, ("d", name) for dotted vars,
# ("p", name) for primed vars.
AffineForm = tuple[dict[tuple[str, str], float], float]


def affine_form(e: Expr) -> AffineForm | None:
    """Extract (coefficients, constant) when e is affine; None otherwise.

    Products need one constant side; divisions a constant divisor; sin/cos/exp
    only fold when the argument is itself constant.
    """
    match e:
        case Const(v):
            return {}, float(v)
        case Var(n):
            return {("v", n): 1.0}, 0.0
        case DotVar(n):
            return {("d", n): 1.0}, 0.0
        case PrimedVar(n):
            return {("p", n): 1.0}, 0.0
        case Add(a, b):
            fa, fb = affine_form(a), affine_form(b)
            if fa is None or fb is None:
                return None
            coeffs = dict(fa[0])
            for k, c in fb[0].items():
                coeffs[k] = coeffs.get(k, 0.0) + c
            return coeffs, fa[1] + fb[1]
        case Sub(a, b):
            fa, fb = affine_form(a), affine_form(b)
            if fa is None or fb is None:
                return None
            coeffs = dict(fa[0])
            for k, c in fb[0].items():
                coeffs[k] = coeffs.get(k, 0.0) - c
            return coeffs, fa[1] - fb[1]
        case Neg(a):
            fa = affine_form(a)
            if fa is None:
                return None
            return {k: -c for k, c in fa[0].items()}, -fa[1]
        case Mul(a, b):
            fa, fb = affine_form(a), affine_form(b)
            if fa is None or fb is None:
                return None
            if not fa[0]:
                return {k: fa[1] * c for k, c in fb[0].items()}, fa[1] * fb[1]
            if not fb[0]:
                return {k: fb[1] * c for k, c in fa[0].items()}, fb[1] * fa[1]
            return None
        case Div(a, b):
            fa, fb = affine_form(a), affine_form(b)
            if fa is None or fb is None or fb[0] or fb[1] == 0.0:
                return None
            return {k: c / fb[1] for k, c in fa[0].items()}, fa[1] / fb[1]
        case Call(f, a):
            fa = affine_form(a)
            if fa is None or fa[0]:
                return None
            return {}, float(_SCALAR_FUNCS[f](fa[1]))
    return None


def _fmt_number(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def to_str(e: Expr, _parent_prec: int = 0) -> str:
    """Render an expression in the concrete syntax the parser accepts."""
    match e:
        case Const(v):
            if v < 0:
                s = "-" + _fmt_number(-v)
                return f"({s})" if _parent_prec >= 3 else s
            return _fmt_number(v)
        case Var(n):
            return n
        case DotVar(n):
            return f"der({n})"
        case PrimedVar(n):
            return f"{n}'"
        case Add(a, b):
            s = f"{to_str(a, 1)} + {to_str(b, 2)}"
            prec = 1
        case Sub(a, b):
            s = f"{to_str(a, 1)} - {to_str(b, 2)}"
            prec = 1
        case Mul(a, b):
            s = f"{to_str(a, 2)} * {to_str(b, 3)}"
            prec = 2
        case Div(a, b):
            s = f"{to_str(a, 2)} / {to_str(b, 3)}"
            prec = 2
        case Neg(a):
            s = f"-{to_str(a, 3)}"
            prec = 3
        case Call(f, a):
            return f"{f}({to_str(a, 0)})"
        case _:
            raise TypeError(f"not an expression: {e!r}")
    return f"({s})" if prec < _parent_prec else s
