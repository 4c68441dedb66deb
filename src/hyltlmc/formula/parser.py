"""Lexer and recursive descent parser for formulas and constraint expressions.

Grammar, loosest to tightest binding:

    formula  := or ('->' formula)?          implication desugars to !a | b
    or       := and ('|' and)*
    and      := ur ('&' ur)*
    ur       := unary (('U' | 'R') ur)?     right associative
    unary    := ('!' | 'X' | 'F' | 'G') unary | primary
    primary  := 'true' | 'false' | action | comparison | '(' formula ')'
    comparison := arith relop arith         relop in < <= = >= >

F p expands to true U p and G p to !(true U !p) at parse time; the AST has no
F, G or -> nodes. Arithmetic expressions support + - * / unary minus, sin,
cos, exp, der(x) for derivatives and x' for post-jump values (jump constraint
contexts only). Identifier resolution (variable vs action) comes from a
Declarations context.

Every constant is finite: a number literal that overflows, a division by a
constant equal to 0 and a variable-free subexpression whose value is not
finite (1e308 * 10, exp(1000)) are parse errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ParseError
from ..hybrid.constraints import FlowConstraint, JumpConstraint, Relation
from ..hybrid.expr import (
    Add,
    Call,
    Const,
    Div,
    DotVar,
    Expr,
    Mul,
    Neg,
    PrimedVar,
    Sub,
    Var,
    evaluate,
    to_str,
    variables,
)
from ..lexer import Token, is_name, tokenize
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

_RELOPS = {"<": Relation.LT, "<=": Relation.LE, "=": Relation.EQ,
           ">=": Relation.GE, ">": Relation.GT}


@dataclass(frozen=True)
class Declarations:
    """Name context for parsing: state variables and actions."""

    variables: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        for name in (*self.variables, *self.actions):
            if not is_name(name):
                raise ParseError(f"name {name!r} is reserved or not an identifier")
            if name in seen:
                raise ParseError(f"name '{name}' declared in more than one namespace")
            seen.add(name)


class _Parser:
    def __init__(self, tokens: Sequence[Token], decls: Declarations):
        self.toks = tokens
        self.pos = 0
        self.decls = decls

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at_op(self, *values: str) -> bool:
        t = self.peek()
        return t.kind == "OP" and t.value in values

    def expect_op(self, value: str) -> Token:
        t = self.peek()
        if not (t.kind == "OP" and t.value == value):
            raise ParseError(f"expected '{value}', found '{t.value or 'end of input'}'",
                             t.line, t.column)
        return self.advance()

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.column)

    def finite(self, e: Expr, at: Token) -> Expr:
        """e, unless it is constant and its value is not finite."""
        value = _constant_value(e)
        if value is not None and not math.isfinite(value):
            raise ParseError(f"constant '{to_str(e)}' is not finite", at.line, at.column)
        return e

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        left = self.f_or()
        if self.at_op("->"):
            self.advance()
            right = self.formula()
            return Or(Not(left), right)
        return left

    def f_or(self) -> Formula:
        f = self.f_and()
        while self.at_op("|"):
            self.advance()
            f = Or(f, self.f_and())
        return f

    def f_and(self) -> Formula:
        f = self.f_ur()
        while self.at_op("&"):
            self.advance()
            f = And(f, self.f_ur())
        return f

    def f_ur(self) -> Formula:
        left = self.f_unary()
        t = self.peek()
        if t.kind == "IDENT" and t.value in ("U", "R"):
            self.advance()
            right = self.f_ur()
            return Until(left, right) if t.value == "U" else Release(left, right)
        return left

    def f_unary(self) -> Formula:
        t = self.peek()
        if self.at_op("!"):
            self.advance()
            return Not(self.f_unary())
        if t.kind == "IDENT" and t.value in ("X", "F", "G"):
            self.advance()
            inner = self.f_unary()
            if t.value == "X":
                return Next(inner)
            if t.value == "F":
                return Until(Top(), inner)
            return Not(Until(Top(), Not(inner)))
        return self.f_primary()

    def f_primary(self) -> Formula:
        t = self.peek()
        if t.kind == "IDENT":
            v = t.value
            if v == "true":
                self.advance()
                return Top()
            if v == "false":
                self.advance()
                return Bot()
            if v in self.decls.actions:
                self.advance()
                return ActionAtom(v)
            if v in self.decls.variables or v in ("der", "sin", "cos", "exp"):
                return FlowAtom(self.comparison())
            raise self.error(f"unknown identifier '{v}'")
        if t.kind == "NUMBER" or self.at_op("-"):
            return FlowAtom(self.comparison())
        if self.at_op("("):
            # Could open a parenthesized formula or a parenthesized
            # arithmetic expression; try the comparison reading first.
            save = self.pos
            try:
                return FlowAtom(self.comparison())
            except ParseError:
                self.pos = save
            self.advance()
            f = self.formula()
            self.expect_op(")")
            return f
        raise self.error(f"expected a formula, found '{t.value or 'end of input'}'")

    # -- comparisons and arithmetic ---------------------------------------

    def comparison(self, allow_dot: bool = True, allow_primed: bool = False):
        lhs = self.arith(allow_dot, allow_primed)
        t = self.peek()
        if not (t.kind == "OP" and t.value in _RELOPS):
            raise self.error("expected comparison operator")
        self.advance()
        rhs = self.arith(allow_dot, allow_primed)
        if allow_primed:
            return JumpConstraint(lhs, _RELOPS[t.value], rhs)
        return FlowConstraint(lhs, _RELOPS[t.value], rhs)

    def arith(self, allow_dot: bool, allow_primed: bool) -> Expr:
        e = self.a_term(allow_dot, allow_primed)
        while self.at_op("+", "-"):
            op = self.advance()
            r = self.a_term(allow_dot, allow_primed)
            e = self.finite(Add(e, r) if op.value == "+" else Sub(e, r), op)
        return e

    def a_term(self, allow_dot: bool, allow_primed: bool) -> Expr:
        e = self.a_factor(allow_dot, allow_primed)
        while self.at_op("*", "/"):
            op = self.advance()
            r = self.a_factor(allow_dot, allow_primed)
            if op.value == "/" and _constant_value(r) == 0.0:
                raise ParseError(
                    f"division by zero: the divisor '{to_str(r)}' is the constant 0",
                    op.line,
                    op.column,
                )
            e = self.finite(Mul(e, r) if op.value == "*" else Div(e, r), op)
        return e

    def a_factor(self, allow_dot: bool, allow_primed: bool) -> Expr:
        t = self.peek()
        if self.at_op("-"):
            self.advance()
            inner = self.a_factor(allow_dot, allow_primed)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        if self.at_op("("):
            self.advance()
            e = self.arith(allow_dot, allow_primed)
            self.expect_op(")")
            return e
        if t.kind == "NUMBER":
            self.advance()
            return Const(float(t.value))
        if t.kind == "IDENT":
            v = t.value
            if v in ("sin", "cos", "exp"):
                self.advance()
                self.expect_op("(")
                e = self.arith(allow_dot, allow_primed)
                self.expect_op(")")
                return self.finite(Call(v, e), t)
            if v == "der":
                self.advance()
                self.expect_op("(")
                name_tok = self.peek()
                if name_tok.kind != "IDENT" or name_tok.value not in self.decls.variables:
                    raise self.error("der() takes a declared state variable")
                self.advance()
                self.expect_op(")")
                if not allow_dot:
                    raise ParseError("derivative not allowed here",
                                     t.line, t.column)
                return DotVar(name_tok.value)
            if v in self.decls.variables:
                self.advance()
                if self.at_op("'"):
                    if not allow_primed:
                        raise self.error("primed variable not allowed here")
                    self.advance()
                    return PrimedVar(v)
                return Var(v)
            raise self.error(f"unknown identifier '{v}'")
        raise self.error(f"expected an expression, found '{t.value or 'end of input'}'")


def _constant_value(e: Expr) -> float | None:
    """The value of a variable-free expression in float64 (inf or nan when
    it overflows or divides by zero); None when e has a variable."""
    if any(variables(e)):
        return None
    with np.errstate(all="ignore"):
        return float(evaluate(e))


def parse_formula(text: str, decls: Declarations | None = None) -> Formula:
    """Parse a formula; raises ParseError with line:column on bad input."""
    decls = decls or Declarations()
    p = _Parser(tokenize(text), decls)
    f = p.formula()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected trailing input '{t.value}'", t.line, t.column)
    return f


def parse_flow_constraint(text: str, decls: Declarations) -> FlowConstraint:
    p = _Parser(tokenize(text), decls)
    c = p.comparison(allow_dot=True, allow_primed=False)
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected trailing input '{t.value}'", t.line, t.column)
    return c
