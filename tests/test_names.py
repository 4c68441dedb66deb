"""Automata built by the library hold only names the model reader accepts.

The reader refuses a name declared both as a variable and as an action,
so the automaton constructor refuses it too: compose cannot join two
models whose variables and actions collide, and instrument draws its
latch and snapshot names fresh against both namespaces. Every automaton
the library builds from the benchmark models then prints to text that
reads back to the same text, and exports to a PhaVer file whose embedded
model reads back.
"""

import itertools
import shlex
import sys
import warnings
from pathlib import Path

import pytest

from hyltlmc.cli import main
from hyltlmc import lexer
from hyltlmc.errors import ModelError, ParseError
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.hybrid import HybridAutomaton, compose
from hyltlmc.hybrid.modelio import load_model, model_to_str, parse_model
from hyltlmc.phaver import embedded_model, export_phaver
from hyltlmc.product import check, instrument

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.cases import MODEL_FILES, WORKLOADS  # noqa: E402

# x and go swap namespaces between the two models.
VAR_X_ACTION_GO = """
vars x;
actions go;
location a { der(x) = 0; }
edge a -go-> a { x' = x; }
initial a;
init { x = 0; }
"""
VAR_GO_ACTION_X = """
vars go;
actions x;
location b { der(go) = 0; }
edge b -x-> b { go' = go; }
initial b;
init { go = 0; }
"""
# Actions named like the latch f and the snapshot y of the query automaton.
ACTIONS_F_Y = """
vars x;
actions f, y;
location a { der(x) = 1; x <= 10; }
edge a -f-> a { x' = 0; }
edge a -y-> a { x' = 0; }
initial a;
init { x = 0; }
"""
ACTIONS_F_Y_FORMULA = "G !f"


def machine_fields(line):
    return dict(part.split("=", 1) for part in shlex.split(line))


def checked(h: HybridAutomaton, formula: str, step: float = 0.01):
    phi = parse_formula(formula, Declarations(h.variables, h.actions))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return check(h, phi, step=step)


class TestVariableAndActionClash:
    def test_constructor_refuses_a_name_in_both_namespaces(self):
        with pytest.raises(ModelError, match="name 'go' is both a variable and an action"):
            HybridAutomaton(("x", "go"), ("go",), ("a",), [], {"a": ()}, ("a",))

    def test_compose_refuses_swapped_names(self):
        with pytest.raises(ModelError, match="name 'go' is both a variable and an action"):
            compose(parse_model(VAR_X_ACTION_GO), parse_model(VAR_GO_ACTION_X))

    def test_compose_command_exits_one_with_e_model(self, tmp_path, capsys):
        a, b = tmp_path / "a.hyha", tmp_path / "b.hyha"
        a.write_text(VAR_X_ACTION_GO)
        b.write_text(VAR_GO_ACTION_X)
        assert main(["--machine", "compose", str(a), str(b)]) == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields == {
            "error": "E_MODEL",
            "message": "name 'go' is both a variable and an action",
        }


class TestNamesTheReaderTakes:
    """The constructor refuses what Declarations and the model reader
    refuse, so `vars G;` is never printed."""

    @pytest.mark.parametrize("name", ["G", "der", "x y", "1x", "x'", "x#", "", 7])
    def test_constructor_refuses_a_reserved_word_or_non_identifier(self, name):
        for variables, actions in (((name,), ("a",)), (("x",), (name,))):
            with pytest.raises(ModelError, match="is reserved or not an identifier"):
                HybridAutomaton(variables, actions, ("l",), [], {"l": ()}, ("l",))
        with pytest.raises(ParseError, match="is reserved or not an identifier"):
            Declarations(variables=(name,))

    def test_each_distinct_name_is_tokenized_once(self, monkeypatch):
        seen = []
        tokenize = lexer.tokenize
        monkeypatch.setattr(lexer, "tokenize", lambda s: seen.append(s) or tokenize(s))
        lexer.is_name.cache_clear()
        h = parse_model(VAR_X_ACTION_GO)
        for _ in range(5):
            HybridAutomaton(h.variables, h.actions, h.locations, h.transitions, h.dyn, h.init)
        assert sorted(seen) == ["go", "x"]


class TestInstrumentNames:
    def test_latch_and_snapshot_avoid_the_actions(self):
        h = parse_model(ACTIONS_F_Y)
        inst, _, f_name, y_names, w_names = instrument(h)
        assert (f_name, y_names, w_names) == ("f_", ("y_",), ("x",))
        assert inst.variables == ("x", "f_", "y_") and inst.actions == ("f", "y")

    def test_exported_query_reads_back(self, tmp_path, capsys):
        model, out = tmp_path / "fy.hyha", tmp_path / "out.pha"
        model.write_text(ACTIONS_F_Y)
        code = main(["--machine", "check", "--model", str(model),
                     "--formula", ACTIONS_F_Y_FORMULA, "--export-phaver", str(out)])
        assert code == 2
        assert machine_fields(capsys.readouterr().out)["status"] == "Inconclusive"
        text = out.read_text()
        assert "state_var: x, f_, y_;" in text and "synclabs: f, y;" in text
        back = embedded_model(text)
        assert back.variables == ("x", "f_", "y_") and back.actions == ("f", "y")


def library_built():
    """The query automaton of each benchmark case, each composition of
    two benchmark models, and the query automaton of ACTIONS_F_Y."""
    models = {name: load_model(ROOT / path) for name, path in MODEL_FILES.items()}
    for w in WORKLOADS.values():
        for c in w.checks:
            yield pytest.param(
                lambda c=c: checked(models[c.model], c.formula, c.step).product, id=c.label
            )
    for a, b in itertools.combinations(models, 2):
        yield pytest.param(lambda a=a, b=b: compose(models[a], models[b]), id=f"{a}*{b}")
    yield pytest.param(
        lambda: checked(parse_model(ACTIONS_F_Y), ACTIONS_F_Y_FORMULA).product,
        id="actions f, y",
    )


@pytest.mark.parametrize("build", library_built())
def test_library_built_automaton_round_trips(build):
    h = build()
    text = model_to_str(h)
    assert model_to_str(parse_model(text)) == text
    assert model_to_str(embedded_model(export_phaver(h))) == text
