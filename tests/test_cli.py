"""Command line behaviour: exit codes, machine lines, file plumbing."""

import inspect
import json
import shlex
import subprocess
import sys
import warnings
from argparse import Namespace
from importlib.resources import files
from pathlib import Path

import pytest

from hyltlmc.cli import DEFAULTS, _setting, main
from hyltlmc.errors import HyltlError
from hyltlmc.formula.nnf import to_nnf
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.formula.syntax import Not, to_str
from hyltlmc.hybrid.modelio import load_model, model_to_str, parse_model
from hyltlmc.monitor import evaluate_trace
from hyltlmc.phaver import embedded_model
from hyltlmc.product import check
from hyltlmc.reach import reachable
from hyltlmc.tableau import build_formula_automaton, prune_unreachable

from conftest import heater_model
from test_product import DWELLS_IN_B
from test_reach import UNDEFINED_RESET

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.cases import (  # noqa: E402
    MODEL_FILES,
    RECURRENT_ON,
    THREE_CONJUNCTS,
    WORKLOADS,
)

# The benchmark's (model, formula, negate) whose observer has one part.
# Negated, the three conjuncts split. Plain, translate builds the
# observer of the negation of G F(x>=21) -> G F on, an Or, which splits.
ONE_PART_BENCHMARK_FORMULAS = [
    (model, text, negate)
    for model, text in dict.fromkeys(
        (c.model, c.formula) for w in WORKLOADS.values() for c in w.checks
    )
    for negate in (False, True)
    if (text, negate) not in {(THREE_CONJUNCTS, True), (RECURRENT_ON, False)}
]
SPLIT = "G F on & !F(x >= 21 & X on)"

LASSO_CSV = """t,x
0.0,22.0
0.1,22.0
0.2,22.0

0.0,22.0
0.1,22.0
"""


# Locations that record the last action taken.
LAST_ACTION = """
vars x;
actions on, off;
location start { der(x) = 0; }
location was_on { der(x) = 0; }
location was_off { der(x) = 0; }
edge start -on-> was_on { x' = x; }
edge start -off-> was_off { x' = x; }
edge was_on -off-> was_off { x' = x; }
edge was_off -on-> was_on { x' = x; }
initial start;
"""


@pytest.fixture
def heater_path(tmp_path, heater):
    p = tmp_path / "heater.hyha"
    p.write_text(model_to_str(heater))
    return str(p)


@pytest.fixture
def thermostat_path():
    return str(files("hyltlmc.models").joinpath("thermostat.hyha"))


@pytest.fixture
def lasso_path(tmp_path):
    p = tmp_path / "lasso.csv"
    p.write_text(LASSO_CSV)
    return str(p)


def machine_fields(line):
    return dict(part.split("=", 1) for part in shlex.split(line))


class TestCheckCommand:
    """check exits 0 on Verified, 2 on Inconclusive, 1 on errors."""

    def test_verified_property_exits_zero(self, heater_path, capsys):
        code = main(["check", "--model", heater_path,
                     "--formula", "!F(x >= 21 & X on)"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Verified:")
        assert "explored: " in out and "(complete)" in out

    def test_observer_and_stage_times_are_printed(self, heater_path, capsys):
        code = main(["check", "--model", heater_path,
                     "--formula", "!F(x >= 21 & X on)"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        observer = [l for l in lines if l.startswith("observer: ")]
        assert len(observer) == 1 and observer[0].endswith(" transitions")
        (time_line,) = [l for l in lines if l.startswith("time: ")]
        stages = [part.rsplit(" ", 2)[0] for part in time_line[6:].split(", ")]
        assert stages == ["observer", "compose+prune", "instrument", "reach", "query"]
        assert all(part.endswith(" ms") for part in time_line[6:].split(", "))

    def test_machine_line_keeps_its_fields(self, heater_path, capsys):
        code = main(["--machine", "check", "--model", heater_path,
                     "--formula", "!F(x >= 21 & X on)"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and len(out) == 1
        assert list(machine_fields(out[0])) == [
            "status", "reason", "formula", "hits", "complete", "boxes"]

    def test_explored_line_names_the_incomplete_cause(self, tmp_path, capsys):
        # der(x) = 800 x in idle: e^(800 h) overflows at step 1.
        path = tmp_path / "overflow.hyha"
        path.write_text(model_to_str(heater_model(idle_rate=800.0)))
        code = main(["check", "--model", str(path), "--step", "1",
                     "--formula", "!F(x >= 21 & X on)"])
        out = capsys.readouterr().out
        assert code == 2
        assert "incomplete, no validated flow enclosure at location" in out
        assert "budget hit" not in out

    @pytest.mark.parametrize(
        "flag, value",
        [("--step", v) for v in ("0", "-1", "nan", "inf")]
        + [("--horizon", v) for v in ("0", "-1", "nan", "inf")]
        + [("--eps", v) for v in ("-1", "nan")],
    )
    def test_unusable_settings_exit_one_with_e_config(
        self, heater_path, capsys, flag, value
    ):
        args = ["check", "--model", heater_path, "--formula", "!F(x >= 21 & X on)",
                f"{flag}={value}"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be a finite number")
        assert main(["--machine"] + args) == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_CONFIG"

    def test_infinite_step_count_exits_one_with_e_config(self, thermostat_path, capsys):
        args = ["--machine", "check", "--model", thermostat_path,
                "--formula", "!F(x >= 21 & X on)", "--horizon", "1e308", "--step", "1e-308"]
        assert main(args) == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_CONFIG"
        assert fields["message"].startswith("horizon / step must be a finite number")

    @pytest.mark.parametrize("formula, status, code", [
        ("G F a", "Verified", 0), ("G !a", "Inconclusive", 2)])
    def test_variable_free_model_is_checked(self, tmp_path, capsys, formula,
                                            status, code):
        """A model without vars once failed: no witness variable to pick."""
        model = tmp_path / "novars.hyha"
        model.write_text("actions a, b;\nlocation p { }\nlocation q { }\n"
                         "edge p -a-> q { }\nedge q -b-> p { }\ninitial p;\n")
        assert main(["--machine", "check", "--model", str(model),
                     "--formula", formula]) == code
        fields = machine_fields(capsys.readouterr().out)
        assert fields["status"] == status
        assert fields["hits"] == ("1" if code == 2 else "0")

    def test_witness_is_no_option(self, heater_path, capsys):
        assert main(["check", "--model", heater_path, "--formula", "true",
                     "--witness", "x"]) == 1
        assert "--witness" in capsys.readouterr().err

    def test_negated_equality_names_the_equality(self, thermostat_path, capsys):
        code = main(["--machine", "check", "--model", thermostat_path,
                     "--formula", "G(x = 20)"])
        fields = machine_fields(capsys.readouterr().out)
        assert code == 1
        assert fields["error"] == "E_COMPLEMENT"
        assert "'x = 20'" in fields["message"]
        assert "declare" not in fields["message"]

    def test_machine_line_is_parsable(self, heater_path, capsys):
        code = main(["--machine", "check", "--model", heater_path,
                     "--formula", "!F(x >= 21 & X on)"])
        fields = machine_fields(capsys.readouterr().out.strip())
        assert code == 0
        assert fields["status"] == "Verified"
        assert fields["complete"] == "true"
        assert int(fields["hits"]) == 0

    def test_inconclusive_exits_two(self, tmp_path, capsys):
        relaxed = tmp_path / "relaxed.hyha"
        relaxed.write_text(model_to_str(heater_model(on_guard_max=25.0)))
        code = main(["check", "--model", str(relaxed),
                     "--formula", "!F(x >= 21 & X on)"])
        assert code == 2
        assert "Inconclusive" in capsys.readouterr().out

    def test_unbounded_hit_shows_its_infinite_range(self, tmp_path, capsys):
        # The jump leaves x free in b, so the query is not ruled out there.
        model = tmp_path / "undefined_reset.hyha"
        model.write_text(UNDEFINED_RESET)
        code = main(["check", "--model", str(model), "--formula", "!F(x >= 5)"])
        hits = [l for l in capsys.readouterr().out.splitlines() if l.startswith("hit: ")]
        assert code == 2
        assert any(
            l.startswith("hit: location ('b', ") and "x in [5, inf]" in l for l in hits
        )

    def test_split_check_names_each_hits_conjunct(self, capsys):
        model = str(ROOT / MODEL_FILES["thermostat_relaxed"])
        for text, suffix in ((SPLIT, " of conjunct '!(true U (x >= 21 & X on))'"),
                             ("!F(x >= 21 & X on)", "]")):
            code = main(["check", "--model", model, "--formula", text])
            out = capsys.readouterr().out.splitlines()
            hits = [l for l in out if l.startswith("hit: ")]
            assert code == 2 and hits
            assert all(l.endswith(suffix) for l in hits), hits

    def test_parse_error_exits_one_with_code(self, heater_path, capsys):
        code = main(["--machine", "check", "--model", heater_path,
                     "--formula", "F(x >="])
        fields = machine_fields(capsys.readouterr().out.strip())
        assert code == 1
        assert fields["error"] == "E_PARSE"

    def test_missing_model_file_exits_one(self, tmp_path, capsys):
        code = main(["check", "--model", str(tmp_path / "nope.hyha"),
                     "--formula", "true"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_export_phaver_side_output(self, heater_path, tmp_path, capsys):
        target = tmp_path / "query.pha"
        code = main(["check", "--model", heater_path,
                     "--formula", "!F(x >= 21 & X on)",
                     "--export-phaver", str(target)])
        assert code == 0
        text = target.read_text()
        assert text.startswith("automaton query")
        back = embedded_model(text)
        assert back is not None
        assert "f" in back.variables and "y" in back.variables

    def test_export_is_the_queried_product(self, thermostat_path, tmp_path, capsys):
        target = tmp_path / "query.pha"
        code = main(["check", "--model", thermostat_path,
                     "--formula", "!F(x >= 21 & X on)",
                     "--export-phaver", str(target)])
        assert code == 0
        line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("product:")
        )
        locations = int(line.split()[1])
        assert locations > 0
        back = embedded_model(target.read_text())
        assert len(back.locations) == locations
        # Only the initial locations carry an init region.
        assert set(back.init_region) == set(back.init)

    def test_graph_only_verdict_exports_an_empty_product(
        self, thermostat_path, tmp_path, capsys
    ):
        target = tmp_path / "query.pha"
        code = main(["check", "--model", thermostat_path,
                     "--formula", "G(on -> X(!on U off))",
                     "--export-phaver", str(target)])
        assert code == 0
        assert "product: 0 locations" in capsys.readouterr().out
        text = target.read_text()
        assert "initially: false;" in text
        back = embedded_model(text)
        assert back.locations == ()
        assert back.variables == ("x", "f", "y")
        assert back.actions == ("on", "off")


class TestTranslateCommand:
    def test_observer_text_parses_back(self, capsys):
        code = main(["translate", "--formula", "F on", "--alphabet", "on,off"])
        out = capsys.readouterr().out
        assert code == 0
        observer = parse_model(out)
        assert observer.acceptance
        assert set(observer.actions) == {"on", "off"}

    def test_negate_flag_swaps_the_language(self, tmp_path):
        plain = tmp_path / "plain.hyha"
        neg = tmp_path / "neg.hyha"
        assert main(["translate", "--formula", "F on", "--alphabet", "on,off",
                     "-o", str(plain)]) == 0
        assert main(["translate", "--formula", "F on", "--alphabet", "on,off",
                     "--negate", "-o", str(neg)]) == 0
        assert plain.read_text() != neg.read_text()

    def test_needs_declarations(self, capsys):
        assert main(["translate", "--formula", "F on"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--vars", "--alphabet"])
    def test_declaration_flag_with_a_model_exits_one_with_e_config(
        self, heater_path, capsys, flag
    ):
        """The model's declarations once won and the flag was dropped."""
        code = main(["--machine", "translate", "--model", heater_path,
                     "--formula", "F on", flag, "y"])
        assert code == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_CONFIG"
        assert flag in fields["message"]

    @pytest.mark.parametrize("flags, message", [
        (["--vars", "x,x"], "name 'x' declared twice"),
        (["--alphabet", "on,on"], "name 'on' declared twice"),
        (["--vars", "x", "--alphabet", "x"], "name 'x' declared in more than one namespace"),
    ], ids=["vars", "alphabet", "both"])
    def test_repeated_declaration_exits_one_with_e_parse(self, capsys, flags, message):
        assert main(["--machine", "translate", "--formula", "true", *flags]) == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields == {"error": "E_PARSE", "message": message}

    @pytest.mark.parametrize("model, text, negate", [
        (None, "G(on -> X(x >= 18 & x <= 22 U off))", False),
        *ONE_PART_BENCHMARK_FORMULAS,
    ])
    def test_prunes_the_tableau_unless_told_not_to(self, capsys, model, text, negate):
        """A formula whose observer has one part prints that one tableau."""
        if model is None:
            decls = Declarations(variables=("x",), actions=("on", "off"))
            args = ["--vars", "x", "--alphabet", "on,off"]
        else:
            path = ROOT / MODEL_FILES[model]
            h = load_model(path)
            decls = Declarations(h.variables, h.actions)
            args = ["--model", str(path)]
        args = ["translate", "--formula", text, *args, *["--negate"] * negate]
        formula = parse_formula(text, decls)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full = build_formula_automaton(
                to_nnf(Not(formula) if negate else formula), decls.actions
            )
            assert main(args) == 0
            assert capsys.readouterr().out == model_to_str(prune_unreachable(full))
            assert main([*args, "--no-prune"]) == 0
            assert capsys.readouterr().out == model_to_str(full)
        assert prune_unreachable(full) != full

    def test_negate_prints_the_observer_a_split_check_composes(self, capsys):
        """Every hit's observer location is printed, with flow atoms among
        the hit location's dynamics."""
        path = ROOT / MODEL_FILES["thermostat_relaxed"]
        h = load_model(path)
        verdict = check(h, parse_formula(SPLIT, Declarations(h.variables, h.actions)))
        assert verdict.stats["observer_parts"] == 2 and verdict.hits
        assert main(["translate", "--model", str(path), "--formula", SPLIT,
                     "--negate"]) == 0
        observer = parse_model(capsys.readouterr().out)
        for hit in verdict.hits:
            # A counter location is ((system, observer) location, index).
            (_, location), _ = hit["location"]
            assert location in observer.locations
            atoms = set(observer.dyn[location])
            assert atoms <= set(verdict.product.dyn[hit["location"]])


class TestComposeCommand:
    def test_product_of_model_and_observer(self, heater_path, tmp_path, capsys):
        obs = tmp_path / "obs.hyha"
        assert main(["translate", "--formula", "F on", "--alphabet", "on,off",
                     "-o", str(obs)]) == 0
        code = main(["compose", heater_path, str(obs)])
        out = capsys.readouterr().out
        assert code == 0
        product = parse_model(out)
        assert "x" in product.variables
        assert len(product.locations) > 2


class TestExportCommand:
    def test_export_to_stdout(self, heater_path, capsys):
        code = main(["export", "--model", heater_path, "--name", "box"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("automaton box")

    def test_export_to_file(self, heater_path, tmp_path):
        target = tmp_path / "out.pha"
        assert main(["export", "--model", heater_path,
                     "-o", str(target)]) == 0
        assert target.read_text().startswith("automaton model")


class TestNoTrace:
    """A model whose initial locations or init block cannot be read exits 1
    with E_MODEL, and a system with no infinite run says that its Verified
    is vacuous."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("location l { der(x) = 1; }\ninit { x >= 0; x <= 1; }\n",
             "init block, but no initial location"),
            ("location l { der(x) = 1; }\nlocation b { der(x) = 1; }\n"
             "initial l;\ninit b { x >= 0; x <= 1; }\n",
             "init region for 'b', which is not initial"),
            ("location l { der(x) = 1; }\ninitial l, l;\ninit { x >= 0; x <= 1; }\n",
             "duplicate initial location"),
        ],
        ids=["bare-init", "not-initial", "repeated-initial"],
    )
    def test_init_rules_exit_one_with_e_model(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.hyha"
        path.write_text("vars x;\nactions a;\n" + text)
        args = ["check", "--model", str(path), "--formula", "false"]
        assert main(["--machine", *args]) == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_MODEL" and fields["message"] == message
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("formula", ["false", "G(x <= 0.7)", "G !go"])
    def test_dwelling_for_ever_is_a_vacuous_verified(self, tmp_path, capsys, formula):
        path = tmp_path / "dwell.hyha"
        path.write_text(DWELLS_IN_B)
        assert main(["--machine", "check", "--model", str(path), "--formula", formula]) == 0
        fields = machine_fields(capsys.readouterr().out)
        assert fields["status"] == "Verified"
        assert fields["reason"].startswith("vacuous: the system has no infinite run")


class TestUndecodableInput:
    """A file that is not UTF-8 text is an error with its code, not a crash."""

    @pytest.mark.parametrize("command", [
        ["check", "--model", "MODEL", "--formula", "true"],
        ["export", "--model", "MODEL"],
        ["compose", "MODEL", "MODEL"],
    ])
    def test_model_file_exits_one_with_e_parse(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.hyha"
        bad.write_bytes(b"vars x;\xff\n")
        args = [str(bad) if a == "MODEL" else a for a in command]
        assert main(["--machine", *args]) == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_PARSE"
        assert "not UTF-8" in fields["message"]

    def test_trace_file_exits_one_with_e_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,x\n0.0,1.0\xff\n0.1,1.0\n")
        assert main(["--machine", "monitor", "--trace", str(bad), "--actions", "on",
                     "--formula", "true"]) == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_TRACE"
        assert "UTF-8" in fields["message"]


class TestTraceFile:
    """A trace file monitor cannot read exits 1 with E_TRACE."""

    def monitor(self, tmp_path, text, actions="on"):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        return main(["--machine", "monitor", "--trace", str(path),
                     "--actions", actions, "--formula", "true"])

    @pytest.mark.parametrize("text, message", [
        ("", "trace file is empty"),
        ("x,t\n0.0,1.0\n0.1,1.0\n", "trace header must be t followed by variable names"),
        ("t,x\n0.0,1.0\n0.1,1.0,2.0\n", "row ['0.1', '1.0', '2.0'] does not match the header"),
        ("t,x\n0.0,1.0\n0.1,warm\n", "row ['0.1', 'warm'] holds a non-numeric sample"),
        ("t,x\n0.0,1.0\n0.1,1.0\n\n0.0,1.0\n", "every segment needs at least two samples"),
        ("t,x,x\n0.0,1.0,1.0\n0.1,1.0,1.0\n", "trace header: name 'x' declared twice"),
        ("t,\n0.0,1.0\n0.1,1.0\n", "trace header: name '' is reserved or not an identifier"),
        ("t,G\n0.0,1.0\n0.1,1.0\n", "trace header: name 'G' is reserved or not an identifier"),
        ("t,1x\n0.0,1.0\n0.1,1.0\n",
         "trace header: name '1x' is reserved or not an identifier"),
        ("t,on\n0.0,1.0\n0.1,1.0\n", "trace header: column 'on' is named like an action"),
    ], ids=["empty", "header", "row-length", "non-numeric", "one-sample",
            "repeated-column", "empty-column", "reserved-column", "non-identifier-column",
            "action-column"])
    def test_refusals_exit_one_with_e_trace(self, tmp_path, capsys, text, message):
        assert self.monitor(tmp_path, text, actions="on,off") == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_TRACE" and fields["message"] == message

    def test_trailing_blank_lines_open_no_segment(self, tmp_path, capsys):
        assert self.monitor(tmp_path, "t,x\n0.0,1.0\n0.1,1.0\n\n\n") == 0
        assert machine_fields(capsys.readouterr().out)["status"] == "Holds"


class TestMonitorCommand:
    """monitor exits 0 when the trace satisfies the formula, 2 when not."""

    def test_holding_formula_exits_zero(self, lasso_path, capsys):
        code = main(["monitor", "--trace", lasso_path, "--actions", "on,off",
                     "--formula", "F(x >= 21 & X on)"])
        assert code == 0
        assert capsys.readouterr().out.startswith("holds:")

    def test_failing_formula_exits_two(self, lasso_path, capsys):
        code = main(["--machine", "monitor", "--trace", lasso_path,
                     "--actions", "on,off", "--cycle-start", "2",
                     "--formula", "on"])
        fields = machine_fields(capsys.readouterr().out.strip())
        assert code == 2
        assert fields["status"] == "Fails"

    def test_action_count_mismatch(self, lasso_path, capsys):
        code = main(["--machine", "monitor", "--trace", lasso_path,
                     "--actions", "on", "--formula", "on"])
        fields = machine_fields(capsys.readouterr().out.strip())
        assert code == 1
        assert fields["error"] == "E_TRACE"

    def test_cycle_start_out_of_range(self, lasso_path, capsys):
        code = main(["monitor", "--trace", lasso_path, "--actions", "on,off",
                     "--cycle-start", "5", "--formula", "on"])
        assert code == 1
        assert "cycle-start" in capsys.readouterr().err

    def test_nonuniform_samples_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n0.0,1.0\n0.1,1.0\n0.35,1.0\n")
        code = main(["monitor", "--trace", str(bad), "--actions", "on",
                     "--formula", "true"])
        assert code == 1
        assert "uniformly spaced" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["t", "x"])
    def test_non_finite_rows_rejected(self, tmp_path, capsys, bad, column):
        """A NaN time once passed the spacing check and gave Holds."""
        rows = [["0.0", "20.0"], ["0.1", "20.1"], ["0.2", "20.2"]]
        rows[1][column == "x"] = bad
        trace = tmp_path / "bad.csv"
        trace.write_text("t,x\n" + "".join(f"{t},{x}\n" for t, x in rows))
        code = main(["--machine", "monitor", "--trace", str(trace),
                     "--actions", "on", "--formula", "G(x <= 30)"])
        fields = machine_fields(capsys.readouterr().out.strip())
        assert code == 1
        assert fields["error"] == "E_TRACE"
        assert "non-finite" in fields["message"]

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("formula", ["x >= 1", "x >= 100"])
    def test_unusable_tol_exits_one_with_e_config(
        self, lasso_path, capsys, value, formula
    ):
        """On this trace (x = 22) nan and -1 once gave Fails for x >= 1,
        and inf gave Holds for x >= 100."""
        args = ["monitor", "--trace", lasso_path, "--actions", "on,off",
                "--formula", formula, f"--tol={value}"]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: tol must be a finite number")
        assert main(["--machine"] + args) == 1
        assert machine_fields(capsys.readouterr().out)["error"] == "E_CONFIG"

    def test_unusable_tol_from_config(self, lasso_path, tmp_path, capsys):
        args = ["monitor", "--trace", lasso_path, "--actions", "on,off",
                "--formula", "x >= 1"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": -1}))
        assert main(["--config", str(cfg), "--machine"] + args) == 1
        assert machine_fields(capsys.readouterr().out)["error"] == "E_CONFIG"

    def test_generated_search_reports_no_run(self, lasso_path, heater_path,
                                             capsys):
        """Constant samples have derivative zero, which no heater location
        allows, so the witness search must come back empty."""
        code = main(["monitor", "--trace", lasso_path, "--actions", "on,off",
                     "--formula", "G(x >= 21)", "--model", heater_path,
                     "--generated"])
        out = capsys.readouterr().out
        assert code == 0
        assert "is not a run" in out

    def test_generated_search_finds_the_run_as_given(self, lasso_path, tmp_path,
                                                     capsys):
        """Each location records the last action, so a run of this lasso
        with an empty prefix enters the cycle in a location that recurs
        only one cycle later; the witness search finds it on the trace as
        given."""
        model = tmp_path / "last_action.hyha"
        model.write_text(LAST_ACTION)
        code = main(["monitor", "--trace", lasso_path, "--actions", "on,off",
                     "--formula", "G(x >= 21)", "--model", str(model),
                     "--generated"])
        assert code == 0
        assert "trace is a run of the model" in capsys.readouterr().out
        assert main(["--machine", "monitor", "--trace", lasso_path,
                     "--actions", "on,off", "--formula", "G(x >= 21)",
                     "--model", str(model), "--generated"]) == 0
        assert machine_fields(capsys.readouterr().out)["generated"] == "true"

    def test_alphabet_extends_the_declarations(self, lasso_path):
        code = main(["monitor", "--trace", lasso_path, "--actions", "on,on",
                     "--alphabet", "off", "--formula", "F off"])
        assert code == 2

    def test_generated_without_a_model_exits_one_with_e_config(
        self, lasso_path, capsys
    ):
        """With no model to search, --generated was once dropped."""
        code = main(["--machine", "monitor", "--trace", lasso_path,
                     "--actions", "on,off", "--formula", "F on", "--generated"])
        assert code == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_CONFIG"
        assert "--generated" in fields["message"]

    def test_alphabet_with_a_model_exits_one_with_e_config(
        self, lasso_path, heater_path, capsys
    ):
        """The model's actions once won and --alphabet was dropped."""
        code = main(["--machine", "monitor", "--trace", lasso_path,
                     "--actions", "on,off", "--formula", "F on",
                     "--model", heater_path, "--alphabet", "reset"])
        assert code == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_CONFIG"
        assert "--alphabet" in fields["message"]


class TestUndefinedComparisons:
    """A constraint side that is nan on a sample is an error (E_TRACE, exit
    1): on this one-segment trace at x = 22 the atom once gave Fails and
    its negation Holds."""

    @pytest.mark.parametrize("negate", [False, True])
    def test_monitor_exits_one(self, tmp_path, capsys, negate):
        trace = tmp_path / "one.csv"
        trace.write_text("t,x\n0.0,22.0\n0.1,22.0\n0.2,22.0\n")
        formula = "G(x <= 30 + 0 * (1/(x - x)))"
        code = main(["--machine", "monitor", "--trace", str(trace), "--actions", "on",
                     "--formula", f"!{formula}" if negate else formula])
        fields = machine_fields(capsys.readouterr().out.strip())
        assert code == 1
        assert fields["error"] == "E_TRACE"
        assert "x <= 30 + 0 * (1 / (x - x))" in fields["message"]
        assert "x=22" in fields["message"]


class TestUndefinedReset:
    def test_check_exits_two(self, tmp_path, capsys):
        """x' >= x lets x jump anywhere above, so the property is not
        Verified; it once was."""
        model = tmp_path / "jump.hyha"
        model.write_text(
            "vars x; actions go, stay;\n"
            "location a { der(x) = 0; }\nlocation b { der(x) = 0; }\n"
            "edge a -go-> b { x' >= x; }\nedge b -stay-> b { x' = x; }\n"
            "initial a; init { x >= 0; x <= 1; }\n"
        )
        code = main(["--machine", "check", "--model", str(model), "--formula", "!F(x >= 5)"])
        assert code == 2
        assert machine_fields(capsys.readouterr().out)["status"] == "Inconclusive"


class TestSettingsResolution:
    """Flag beats config file beats default."""

    def test_flag_wins(self):
        args = Namespace(eps=0.125)
        assert _setting(args, {"eps": 0.25}, "eps") == 0.125

    def test_config_beats_default(self):
        args = Namespace(eps=None)
        assert _setting(args, {"eps": 0.25}, "eps") == 0.25
        assert _setting(args, {}, "eps") == 1e-6

    def test_defaults_are_the_library_defaults(self):
        # The command line restates them; each setting it names defaults
        # to the same value in every library call that takes it.
        params = [
            p
            for f in (check, reachable, evaluate_trace)
            for p in inspect.signature(f).parameters.values()
        ]
        for name, value in DEFAULTS.items():
            defaults = [p.default for p in params if p.name == name]
            assert defaults and all(d == value for d in defaults), name

    def test_environment_is_not_read(self, heater_path, monkeypatch, capsys):
        """HYLTL_MC_EPS and HYLTL_MC_TOL once sat between flag and config."""
        monkeypatch.setenv("HYLTL_MC_EPS", "soon")
        monkeypatch.setenv("HYLTL_MC_TOL", "nan")
        args = Namespace(eps=None, tol=None)
        assert _setting(args, {"eps": 0.25}, "eps") == 0.25
        assert _setting(args, {}, "tol") == DEFAULTS["tol"]
        code = main(["--machine", "check", "--model", heater_path, "--formula", "true"])
        assert code == 0

    def test_config_file_flows_into_check(self, heater_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": 50.0, "step": 0.02}))
        code = main(["--config", str(cfg), "check", "--model", heater_path,
                     "--formula", "!F(x >= 21 & X on)"])
        assert code == 0

    @pytest.mark.parametrize(
        "config", [{"step": True}, {"horizon": True}, {"eps": "soon"}, {"witness": 1}]
    )
    def test_unusable_config_values_exit_one_with_e_config(
        self, thermostat_path, tmp_path, capsys, config
    ):
        """A JSON boolean once read as 1.0, so step and horizon true gave
        an Inconclusive check that spent a one-step flow budget."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["--machine", "--config", str(cfg), "check", "--model", thermostat_path,
                     "--formula", "!F(x >= 21 & X on)"])
        assert code == 1
        assert machine_fields(capsys.readouterr().out)["error"] == "E_CONFIG"

    @pytest.mark.parametrize("config", [{"stpe": 0.5}, {"step": "abc"}])
    @pytest.mark.parametrize("command", ["check", "translate", "monitor"])
    def test_config_is_read_whole_by_every_command(
        self, heater_path, lasso_path, tmp_path, capsys, config, command
    ):
        """A misspelt key was once ignored, and a bad value passed every
        command that did not read its key."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = {
            "check": ["check", "--model", heater_path, "--formula", "true"],
            "translate": ["translate", "--model", heater_path, "--formula", "F on"],
            "monitor": ["monitor", "--trace", lasso_path, "--actions", "on,off",
                        "--formula", "x >= 1"],
        }[command]
        assert main(["--machine", "--config", str(cfg)] + args) == 1
        fields = machine_fields(capsys.readouterr().out)
        assert fields["error"] == "E_CONFIG"
        assert repr(next(iter(config))) in fields["message"]

    @pytest.mark.parametrize("text", [None, "[1, 2]", "{"])
    def test_unusable_config_files_exit_one_with_e_config(
        self, heater_path, tmp_path, capsys, text
    ):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code = main(["--machine", "--config", str(cfg), "check", "--model", heater_path,
                     "--formula", "true"])
        assert code == 1
        assert machine_fields(capsys.readouterr().out)["error"] == "E_CONFIG"

    def test_bad_config_file_exits_one(self, heater_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = main(["--config", str(cfg), "check", "--model", heater_path,
                     "--formula", "true"])
        assert code == 1
        assert "JSON object" in capsys.readouterr().err


class TestUsageAndEntrypoints:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_module_entrypoint_runs(self, heater_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hyltlmc", "export", "--model", heater_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("automaton model")


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        assert all(line.startswith("ok") for line in out.strip().splitlines())


# Constants whose value is not finite: divisions by a constant 0, also
# of a variable, a literal that overflows and a constant subexpression
# that overflows.
NON_FINITE = ["1/0", "0/0", "x/(1 - 1)", "1e400", "1e308*10"]


def _thermostat_with_heat_bound(thermostat_path, bound: str) -> str:
    text = open(thermostat_path).read()
    assert text.count("x <= 23;") == 1
    return text.replace("x <= 23;", f"x <= {bound};")


class TestNonFiniteConstants:
    """A constant that is not finite is a parse error (E_PARSE, exit 1):
    1/0 once ended monitor in a ZeroDivisionError traceback, a heat
    invariant x <= 23 + 1/0 was silently dropped by check, and 1e400 was
    read as inf."""

    @pytest.mark.parametrize("const", NON_FINITE)
    def test_check_formula(self, heater_path, capsys, const):
        code = main(["--machine", "check", "--model", heater_path,
                     "--formula", f"G(x <= {const})"])
        assert code == 1
        assert machine_fields(capsys.readouterr().out)["error"] == "E_PARSE"

    @pytest.mark.parametrize("const", NON_FINITE)
    def test_monitor_formula(self, lasso_path, thermostat_path, capsys, const):
        code = main(["--machine", "monitor", "--trace", lasso_path,
                     "--actions", "on,off", "--model", thermostat_path,
                     "--formula", f"G(x <= {const})"])
        assert code == 1
        assert machine_fields(capsys.readouterr().out)["error"] == "E_PARSE"

    @pytest.mark.parametrize("const", NON_FINITE)
    def test_model_invariant(self, thermostat_path, tmp_path, capsys, const):
        text = _thermostat_with_heat_bound(thermostat_path, f"23 + {const}")
        with pytest.raises(HyltlError) as info:
            parse_model(text)
        assert info.value.code == "E_PARSE"
        path = tmp_path / "bad.hyha"
        path.write_text(text)
        code = main(["--machine", "check", "--model", str(path),
                     "--formula", "!F(x >= 21 & X on)"])
        assert code == 1
        assert machine_fields(capsys.readouterr().out)["error"] == "E_PARSE"

    def test_divisor_with_a_variable_still_parses(self, thermostat_path):
        text = _thermostat_with_heat_bound(thermostat_path, "23 + 1/(x - x)")
        h = parse_model(text)
        assert "1 / (x - x)" in model_to_str(h)
        decls = Declarations(variables=h.variables, actions=h.actions)
        assert "x <= 1 / (x - x)" in to_str(parse_formula("G(x <= 1/(x - x))", decls))
