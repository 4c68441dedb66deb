"""Refusals of outside input, each with its error type and message.

Input that reaches the command line exits 1 from `hyltl-mc --machine`
with its E_* code; input that only the library accepts (constraints,
formula pieces and traces built in Python) raises the matching error.
The strict comparison x < c is evaluated here too.
"""

import shlex

import numpy as np
import pytest

from hyltlmc.cli import main
from hyltlmc.errors import ModelError, ParseError, TraceError
from hyltlmc.formula.parser import Declarations, parse_flow_constraint
from hyltlmc.hybrid import FlowConstraint, JumpConstraint, Relation, satisfies_jump
from hyltlmc.hybrid.constraints import holds
from hyltlmc.hybrid.expr import Const, DotVar, PrimedVar, Var
from hyltlmc.hybrid.lasso import HybridLassoTrace
from hyltlmc.hybrid.trajectory import SampledTrajectory

MODEL = """
vars x;
actions on, off;
location a { der(x) = 1; x <= 10; }
edge a -on-> a { x' = 0; }
initial a;
init { x = 0; }
"""
TRACE = "t,x\n0.0,22.0\n0.1,22.0\n0.2,22.0\n"


def machine_fields(line):
    return dict(part.split("=", 1) for part in shlex.split(line))


def refused(capsys, args) -> dict:
    assert main(["--machine", *args]) == 1
    return machine_fields(capsys.readouterr().out)


@pytest.fixture
def model_path(tmp_path):
    p = tmp_path / "m.hyha"
    p.write_text(MODEL)
    return str(p)


class TestNamespaces:
    """A flow constraint has no primed variable and a jump constraint no
    dotted one."""

    def test_flow_constraint_refuses_a_primed_variable(self):
        with pytest.raises(ModelError, match=r"^primed variable in flow constraint: x'$"):
            FlowConstraint(PrimedVar("x"), Relation.EQ, Const(1.0))

    def test_jump_constraint_refuses_a_dotted_variable(self):
        with pytest.raises(ModelError, match=r"^dotted variable in jump constraint: der\(x\)$"):
            JumpConstraint(Var("x"), Relation.LE, DotVar("x"))


class TestStrictLessThan:
    def test_holds(self):
        assert not holds(1.0, Relation.LT, 1.0)
        assert holds(1.0, Relation.LT, 1.0, tol=0.5)
        assert holds(0.5, Relation.LT, 1.0)
        got = holds(np.array([0.0, 1.0, 2.0]), Relation.LT, 1.0)
        assert got.tolist() == [True, False, False]

    def test_flow_and_jump_constraints(self):
        c = FlowConstraint(Var("x"), Relation.LT, Const(1.0))
        assert c.holds_at({"x": 0.5}) and not c.holds_at({"x": 1.0})
        jc = JumpConstraint(PrimedVar("x"), Relation.LT, Var("x"))
        assert satisfies_jump({"x": 1.0}, {"x": 0.5}, jc)
        assert not satisfies_jump({"x": 1.0}, {"x": 1.0}, jc)

    @pytest.mark.parametrize("bound, status, code", [
        ("21.9", "Fails", 2), ("22.1", "Holds", 0),
    ])
    def test_monitor_command(self, tmp_path, capsys, bound, status, code):
        trace = tmp_path / "t.csv"
        trace.write_text(TRACE)
        assert main(["--machine", "monitor", "--trace", str(trace), "--actions", "on",
                     "--formula", f"x < {bound}"]) == code
        assert machine_fields(capsys.readouterr().out)["status"] == status


class TestParseRefusals:
    @pytest.mark.parametrize("formula, message", [
        ("G(x <= 1.2.3)", "1:8: bad number literal '1.2.3'"),
        ("G(", "1:3: expected a formula, found 'end of input'"),
        ("& on", "1:1: expected a formula, found '&'"),
        ("x + 1", "1:6: expected comparison operator"),
    ], ids=["number", "formula", "formula-op", "comparison"])
    def test_formula_exits_one_with_e_parse(self, capsys, model_path, formula, message):
        fields = refused(capsys, ["check", "--model", model_path, "--formula", formula])
        assert fields == {"error": "E_PARSE", "message": message}

    @pytest.mark.parametrize("text, message", [
        ("vars ;\n", "1:6: expected a name, found ';'"),
        ("vars x;\nactions a;\nactions b;\n", "3:1: duplicate actions declaration"),
        ("vars x;\nactions a;\nlocation l { x 1; }\n", "3:16: expected comparison operator"),
    ], ids=["missing-name", "second-actions", "comparison"])
    def test_model_exits_one_with_e_parse(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.hyha"
        path.write_text(text)
        fields = refused(capsys, ["check", "--model", str(path), "--formula", "true"])
        assert fields == {"error": "E_PARSE", "message": message}

    def test_flow_constraint_with_trailing_input(self):
        decls = Declarations(variables=("x",))
        assert str(parse_flow_constraint("x <= 1", decls)) == "x <= 1"
        with pytest.raises(ParseError, match=r"^1:8: unexpected trailing input '2'$"):
            parse_flow_constraint("x <= 1 2", decls)


class TestUnwritablePaths:
    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "missing" / "obs.hyha"
        fields = refused(capsys, ["translate", "--formula", "F on", "--alphabet", "on",
                                  "-o", str(target)])
        assert fields["error"] == "E_GENERIC"
        assert fields["message"].startswith("cannot write output file: ")

    def test_export_file(self, tmp_path, capsys, model_path):
        target = tmp_path / "missing" / "out.pha"
        fields = refused(capsys, ["check", "--model", model_path, "--formula", "true",
                                  "--export-phaver", str(target)])
        assert fields["error"] == "E_GENERIC"
        assert fields["message"].startswith("cannot write export file: ")


def trajectory(names=("x",), n=2):
    return SampledTrajectory(names, np.zeros((n, len(names))), 0.1)


class TestTraceRefusals:
    @pytest.mark.parametrize("prefix, cycle, message", [
        ([], [], "lasso trace needs a nonempty cycle"),
        ([(trajectory(("y",)), "on")], [(trajectory(), "on")],
         "all segments must range over the same variables"),
        ([], [(trajectory(), "")], "every segment needs a following action"),
        ([], [(trajectory(), None)], "every segment needs a following action"),
    ], ids=["empty-cycle", "names", "empty-action", "no-action"])
    def test_lasso(self, prefix, cycle, message):
        with pytest.raises(TraceError, match=f"^{message}$"):
            HybridLassoTrace(prefix, cycle)

    def test_positions_are_one_based(self):
        trace = HybridLassoTrace([], [(trajectory(), "on")])
        assert trace.segment(1) == trace.cycle[0]
        with pytest.raises(TraceError, match="^positions are 1-based, got 0$"):
            trace.segment(0)

    def test_derivative_samples_match_the_values(self):
        with pytest.raises(
            TraceError, match="^derivative samples must match value samples in shape$"
        ):
            SampledTrajectory(("x",), np.zeros((3, 1)), 0.1, derivs=np.zeros((2, 1)))
