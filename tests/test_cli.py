"""Command line behaviour: exit codes, machine lines, file plumbing."""

import json
import shlex
import subprocess
import sys
from argparse import Namespace
from importlib.resources import files

import pytest

from hyltlmc.cli import _setting, main
from hyltlmc.errors import HyltlError
from hyltlmc.formula.parser import Declarations, parse_formula
from hyltlmc.formula.syntax import to_str
from hyltlmc.hybrid.modelio import model_to_str, parse_model
from hyltlmc.phaver import embedded_model

from conftest import heater_model

LASSO_CSV = """t,x
0.0,22.0
0.1,22.0
0.2,22.0

0.0,22.0
0.1,22.0
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

    def test_witness_all_tracks_the_full_state(self, heater_path, capsys):
        code = main(["check", "--model", heater_path,
                     "--formula", "!F(x >= 21 & X on)", "--witness", "all"])
        assert code == 0
        assert capsys.readouterr().out.startswith("Verified:")

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
        assert len(embedded_model(target.read_text()).locations) == locations

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

    def test_unusable_tol_from_environment_or_config(
        self, lasso_path, tmp_path, monkeypatch, capsys
    ):
        args = ["monitor", "--trace", lasso_path, "--actions", "on,off",
                "--formula", "x >= 1"]
        monkeypatch.setenv("HYLTL_MC_TOL", "nan")
        assert main(["--machine"] + args) == 1
        assert machine_fields(capsys.readouterr().out)["error"] == "E_CONFIG"
        monkeypatch.delenv("HYLTL_MC_TOL")
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

    def test_alphabet_extends_the_declarations(self, lasso_path):
        code = main(["monitor", "--trace", lasso_path, "--actions", "on,on",
                     "--alphabet", "off", "--formula", "F off"])
        assert code == 2


class TestUndefinedComparisons:
    """A constraint side that is nan on a sample is an error (E_TRACE, exit
    1): on this one-segment trace at x = 22 the atom once gave Fails and
    its negation Holds."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    """Flag beats environment beats config file beats default."""

    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("HYLTL_MC_EPS", "0.5")
        args = Namespace(eps=0.125)
        assert _setting(args, {"eps": 0.25}, "eps") == 0.125

    def test_environment_beats_config(self, monkeypatch):
        monkeypatch.setenv("HYLTL_MC_EPS", "0.5")
        args = Namespace(eps=None)
        assert _setting(args, {"eps": 0.25}, "eps") == 0.5

    def test_config_beats_default(self, monkeypatch):
        monkeypatch.delenv("HYLTL_MC_EPS", raising=False)
        args = Namespace(eps=None)
        assert _setting(args, {"eps": 0.25}, "eps") == 0.25
        assert _setting(args, {}, "eps") == 1e-6

    def test_bad_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv("HYLTL_MC_EPS", "soon")
        with pytest.raises(HyltlError, match="HYLTL_MC_EPS"):
            _setting(Namespace(eps=None), {}, "eps")

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

    def test_non_numeric_environment_value_exits_one_with_e_config(
        self, heater_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("HYLTL_MC_EPS", "abc")
        code = main(["--machine", "check", "--model", heater_path, "--formula", "true"])
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
