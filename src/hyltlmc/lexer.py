"""Tokens of the formula and model languages, and the names they declare.

A name is an identifier that is not a reserved word: tokenize reads it as
one IDENT token and nothing else. Declarations and HybridAutomaton accept
only names, so every automaton prints to text the readers take back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .errors import ParseError

RESERVED = frozenset(
    {"true", "false", "X", "U", "R", "F", "G", "der", "sin", "cos", "exp"}
)


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | NUMBER | OP | EOF
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    two_char = ("->", "<=", ">=")
    singles = "()+-*/{};,<>=!&|'"
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"bad number literal '{lit}'", line, start_col) from None
            if math.isinf(value):
                raise ParseError(f"number literal '{lit}' is out of range", line, start_col)
            toks.append(Token("NUMBER", lit, line, start_col))
            col += j - i
            i = j
            continue
        if text[i : i + 2] in two_char:
            toks.append(Token("OP", text[i : i + 2], line, start_col))
            i += 2
            col += 2
            continue
        if ch in singles:
            toks.append(Token("OP", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    toks.append(Token("EOF", "", line, col))
    return toks


@cache
def is_name(s) -> bool:
    """Whether s is one IDENT token and not a reserved word; each distinct
    s is tokenized once."""
    if not isinstance(s, str) or s in RESERVED:
        return False
    try:
        first = tokenize(s)[0]
    except ParseError:
        return False
    return first.kind == "IDENT" and first.value == s
