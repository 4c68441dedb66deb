"""Reading and writing hybrid automata as text.

The format is line oriented with # comments:

    vars x;
    actions on, off;

    location idle {
        der(x) = -0.2 * x;
        x >= 17;
    }

    edge idle -on-> heat {
        x <= 19;
        x' = x;
    }

    initial idle;
    init { x >= 19; x <= 21; }
    final { idle, heat }

Location blocks list flow constraints (derivative equations and state
invariants alike), edge blocks list jump constraints (guards on current
values, primed equations for post-jump values), and each final block gives
one acceptance set, in order. A bare init block constrains the starting
valuation in every initial location, so a model with one must have an
initial location; init followed by a location name constrains that
location only, which must be initial. Either mistake is a ModelError.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from ..errors import ModelError, ParseError
from ..formula.parser import Declarations, _Parser
from ..lexer import Token, tokenize
from .automaton import HybridAutomaton, Transition
from .constraints import FlowConstraint

_ITEM_KEYWORDS = ("vars", "actions", "location", "edge", "initial", "init", "final")


class _ModelParser(_Parser):
    """Model grammar on top of the expression parser's token plumbing."""

    def __init__(self, tokens: list[Token]):
        super().__init__(tokens, Declarations())
        self.variables: tuple[str, ...] | None = None
        self.actions: tuple[str, ...] | None = None
        self.locations: list[str] = []
        self.dyn: dict[str, tuple[FlowConstraint, ...]] = {}
        self.transitions: list[Transition] = []
        self.init: tuple[str, ...] = ()
        self.init_region: dict[str, list[FlowConstraint]] = {}
        self.global_region: list[FlowConstraint] = []
        self.acceptance: list[frozenset[str]] = []

    def ident(self, what: str) -> str:
        t = self.peek()
        if t.kind != "IDENT":
            raise ParseError(f"expected {what}, found '{t.value or 'end of input'}'",
                             t.line, t.column)
        self.advance()
        return t.value

    def ident_list(self) -> list[str]:
        names = [self.ident("a name")]
        while self.at_op(","):
            self.advance()
            names.append(self.ident("a name"))
        return names

    def model(self) -> HybridAutomaton:
        while self.peek().kind != "EOF":
            kw_tok = self.peek()
            kw = self.ident("a declaration")
            if kw == "vars":
                if self.variables is not None:
                    raise ParseError("duplicate vars declaration",
                                     kw_tok.line, kw_tok.column)
                self.variables = tuple(self.ident_list())
                self.expect_op(";")
                self.decls = Declarations(variables=self.variables,
                                          actions=self.actions or ())
            elif kw == "actions":
                if self.actions is not None:
                    raise ParseError("duplicate actions declaration",
                                     kw_tok.line, kw_tok.column)
                self.actions = tuple(self.ident_list())
                self.expect_op(";")
                self.decls = Declarations(variables=self.variables or (),
                                          actions=self.actions)
            elif kw == "location":
                name = self.ident("a location name")
                self.locations.append(name)
                self.dyn[name] = tuple(self.block(allow_dot=True))
            elif kw == "edge":
                src = self.ident("a location name")
                self.expect_op("-")
                act = self.ident("an action name")
                self.expect_op("->")
                dst = self.ident("a location name")
                jumps = self.block(allow_primed=True)
                self.transitions.append(Transition(src, act, dst, tuple(jumps)))
            elif kw == "initial":
                self.init = self.init + tuple(self.ident_list())
                self.expect_op(";")
            elif kw == "init":
                if self.peek().kind == "IDENT":
                    loc = self.ident("a location name")
                    cs = self.init_region.setdefault(loc, [])
                    cs.extend(self.block())
                else:
                    self.global_region.extend(self.block())
            elif kw == "final":
                self.expect_op("{")
                names: list[str] = []
                if not self.at_op("}"):
                    names = self.ident_list()
                self.expect_op("}")
                self.acceptance.append(frozenset(names))
            else:
                raise ParseError(
                    f"expected one of {', '.join(_ITEM_KEYWORDS)}, found '{kw}'",
                    kw_tok.line, kw_tok.column)

        if self.global_region and not self.init:
            raise ModelError("init block, but no initial location")
        region = {l: tuple(cs) for l, cs in self.init_region.items()}
        if self.global_region:
            for l in self.init:
                region[l] = region.get(l, ()) + tuple(self.global_region)
        return HybridAutomaton(
            variables=self.variables or (),
            actions=self.actions or (),
            locations=tuple(self.locations),
            transitions=tuple(self.transitions),
            dyn=self.dyn,
            init=self.init,
            init_region=region,
            acceptance=tuple(self.acceptance),
        )

    def block(self, allow_dot: bool = False, allow_primed: bool = False) -> list:
        """A braced block of comparisons, each ended by ';': flow
        constraints with allow_dot, jump constraints with allow_primed,
        state constraints with neither."""
        self.expect_op("{")
        out = []
        while not self.at_op("}"):
            out.append(self.comparison(allow_dot, allow_primed))
            self.expect_op(";")
        self.expect_op("}")
        return out


def parse_model(text: str) -> HybridAutomaton:
    """Parse the model format; raises ParseError with line:column on bad input."""
    return _ModelParser(tokenize(text)).model()


def _flat_name(loc) -> str:
    if isinstance(loc, tuple):
        return "_".join(_flat_name(part) for part in loc)
    return str(loc)


def location_renaming(h: HybridAutomaton) -> dict:
    """Printable name per location: tuples from composition flatten with
    underscores, collisions get numeric suffixes."""
    naming: dict = {}
    used: set[str] = set()
    for loc in h.locations:
        base = _flat_name(loc)
        name = base
        k = 2
        while name in used:
            name = f"{base}_{k}"
            k += 1
        used.add(name)
        naming[loc] = name
    return naming


def model_to_str(h: HybridAutomaton) -> str:
    naming = location_renaming(h)
    lines: list[str] = []
    if h.variables:
        lines.append(f"vars {', '.join(h.variables)};")
    if h.actions:
        lines.append(f"actions {', '.join(h.actions)};")
    for loc in h.locations:
        lines.append("")
        lines.append(f"location {naming[loc]} {{")
        for c in h.dyn.get(loc, ()):
            lines.append(f"    {c};")
        lines.append("}")
    for t in h.transitions:
        lines.append("")
        lines.append(f"edge {naming[t.source]} -{t.action}-> {naming[t.target]} {{")
        for j in t.jumps:
            lines.append(f"    {j};")
        lines.append("}")
    lines.append("")
    if h.init:
        lines.append(f"initial {', '.join(naming[l] for l in h.init)};")
    regions = {l: cs for l, cs in h.init_region.items() if cs}
    if regions:
        distinct = set(regions.values())
        if set(regions) == set(h.init) and len(distinct) == 1:
            body = " ".join(f"{c};" for c in next(iter(distinct)))
            lines.append(f"init {{ {body} }}")
        else:
            for l in h.locations:
                cs = regions.get(l)
                if cs:
                    body = " ".join(f"{c};" for c in cs)
                    lines.append(f"init {naming[l]} {{ {body} }}")
    for F in h.acceptance:
        names = sorted(naming[l] for l in F)
        lines.append(f"final {{ {', '.join(names)} }}")
    return "\n".join(lines).strip() + "\n"


def load_model(path) -> HybridAutomaton:
    try:
        return parse_model(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"model file is not UTF-8 text: {e}") from e


def save_model(h: HybridAutomaton, path) -> None:
    Path(path).write_text(model_to_str(h))


def bundled_model(name: str = "thermostat") -> HybridAutomaton:
    """One of the models shipped with the package."""
    text = resources.files("hyltlmc.models").joinpath(f"{name}.hyha").read_text()
    return parse_model(text)
