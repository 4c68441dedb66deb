"""Export to PhaVer's input language, with the native model embedded.

The export is deterministic: locations in declaration order (tuple
locations flattened to underscore names), constraints rendered from the
original expression trees, identity resets spelled out because PhaVer
leaves unconstrained primed variables arbitrary where this package keeps
them unchanged. PhaVer has no acceptance sets, so final sets are listed
as comments above a reachability query script.

The full native serialization rides along in trailing comment lines
tagged @hyha, so the exact automaton can be recovered from the exported
file alone; embedded_model() does that.
"""

from __future__ import annotations

import re

from .errors import ExportError
from .hybrid.automaton import HybridAutomaton
from .hybrid.constraints import Relation
from .hybrid.expr import (
    Add,
    Call,
    Const,
    Div,
    DotVar,
    Mul,
    Neg,
    PrimedVar,
    Sub,
    Var,
    _fmt_number,
    affine_form,
)
from .hybrid.modelio import location_renaming, model_to_str, parse_model

_TAG = "// @hyha "


def _pv_expr(e, parent: int = 0) -> str:
    """Render an expression PhaVer-style: primes for rates and resets."""
    match e:
        case Const(v):
            s = _fmt_number(v) if v >= 0 else f"-{_fmt_number(-v)}"
            return f"({s})" if v < 0 and parent >= 3 else s
        case Var(n):
            return n
        case DotVar(n) | PrimedVar(n):
            return f"{n}'"
        case Add(a, b):
            s = f"{_pv_expr(a, 1)} + {_pv_expr(b, 2)}"
            prec = 1
        case Sub(a, b):
            s = f"{_pv_expr(a, 1)} - {_pv_expr(b, 2)}"
            prec = 1
        case Mul(a, b):
            s = f"{_pv_expr(a, 3)} * {_pv_expr(b, 4)}"
            prec = 3
        case Div(a, b):
            s = f"{_pv_expr(a, 3)} / {_pv_expr(b, 4)}"
            prec = 3
        case Neg(a):
            s = f"-{_pv_expr(a, 4)}"
            prec = 2
        case Call(fn, arg):
            return f"{fn}({_pv_expr(arg)})"
        case _:
            raise ExportError(f"cannot render expression {e!r}")
    return f"({s})" if parent > prec else s


_REL = {
    Relation.EQ: "==",
    Relation.LE: "<=",
    Relation.LT: "<",
    Relation.GE: ">=",
    Relation.GT: ">",
}


def _pv_constraint(c) -> str:
    if affine_form(Sub(c.lhs, c.rhs)) is None:
        raise ExportError(
            f"'{c}' is not affine; the export target only takes linear constraints"
        )
    return f"{_pv_expr(c.lhs)} {_REL[c.rel]} {_pv_expr(c.rhs)}"


def _conj(parts) -> str:
    parts = list(parts)
    return " & ".join(parts) if parts else "true"


def export_phaver(h: HybridAutomaton, name: str = "model") -> str:
    """Render the automaton as a PhaVer file; see the module docstring.

    Raises ExportError on constraints outside the linear fragment or on
    an unusable automaton name.
    """
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise ExportError(f"automaton name {name!r} is not an identifier")
    rename = location_renaming(h)
    out = []
    out.append(f"automaton {name}")
    out.append(f"state_var: {', '.join(h.variables)};")
    out.append(f"synclabs: {', '.join(h.actions)};")
    for l in h.locations:
        inv = _conj(_pv_constraint(c) for c in h.invariant(l))
        rates = _conj(
            _pv_constraint(c) for c in h.dyn[l] if c.mentions_dot
        )
        out.append(f"loc {rename[l]}: while {inv} wait {{{rates}}};")
        for t in h.transitions_from(l):
            guards = [jc for jc in t.jumps if not jc.primed_vars]
            resets = [jc for jc in t.jumps if jc.primed_vars]
            defined = set()
            for jc in resets:
                defined |= jc.primed_vars
            identity = [
                f"{x}' == {x}" for x in h.variables if x not in defined
            ]
            do_parts = [_pv_constraint(jc) for jc in resets] + identity
            out.append(
                f"  when {_conj(_pv_constraint(jc) for jc in guards)} "
                f"sync {t.action} do {{{_conj(do_parts)}}} "
                f"goto {rename[t.target]};"
            )
    inits = []
    for l in h.init:
        rows = [_pv_constraint(c) for c in h.init_region.get(l, ())]
        inits.append(" & ".join([rename[l]] + rows))
    out.append(f"initially: {' | '.join(inits) if inits else 'false'};")
    out.append("end")
    out.append("")
    for i, s in enumerate(h.acceptance):
        members = ", ".join(sorted(rename[l] for l in s))
        out.append(f"// final set {i}: {members}")
    out.append(f"sys = {name};")
    out.append("reach = sys.reachable;")
    out.append(f'reach.print("{name}_reach", 2);')
    out.append("")
    payload = model_to_str(h).replace("\\", "\\\\").replace("\n", "\\n")
    out.append(_TAG + payload)
    return "\n".join(out) + "\n"


def embedded_model(text: str) -> HybridAutomaton | None:
    """Recover the automaton embedded in an exported file, if any."""
    chunks = [
        line[len(_TAG):]
        for line in text.splitlines()
        if line.startswith(_TAG)
    ]
    if not chunks:
        return None
    joined = "".join(chunks)
    native = re.sub(
        r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), joined
    )
    return parse_model(native)
