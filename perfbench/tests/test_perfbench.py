"""Tests of the benchmark's own code: self time, wrapping, failure counting.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

from hyltlmc import Verdict  # noqa: E402
from hyltlmc import product, tableau  # noqa: E402
from hyltlmc.hybrid.automaton import HybridAutomaton  # noqa: E402
from hyltlmc.reach import engine  # noqa: E402

import cases  # noqa: E402
import bench  # noqa: E402
from inputs import load_inputs  # noqa: E402
from ops import Outcome, PassRecord, _run_check, _run_trace, judge, run_pass  # noqa: E402
from speed import REFERENCE_S, Speedometer  # noqa: E402
from tracer import Span, Tracer, pipeline_targets, self_time_by_name, self_times  # noqa: E402


def test_self_time_subtracts_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("leaf", 1.5, 2.5, 1, 0),  # a grandchild only counts against a
        Span("b", 4.0, 5.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 2 - 1, 2 - 1, 1, 1])


def test_self_time_of_a_slice_ignores_parents_before_it():
    spans = [
        Span("outer", 0.0, 10.0, -1, 0),
        Span("x", 1.0, 4.0, 0, 1),
        Span("y", 2.0, 3.0, 1, 1),
    ]
    assert self_time_by_name(spans[1:], offset=1) == pytest.approx({"x": 2.0, "y": 1.0})


def test_installed_wrappers_are_restored_also_after_an_error():
    targets = pipeline_targets()
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    compose, flow_tube, init = product.compose, engine.flow_tube, HybridAutomaton.__init__
    with pytest.raises(RuntimeError):
        with Tracer().installed(targets):
            assert product.compose is not compose
            assert engine.flow_tube.__wrapped__ is flow_tube
            assert HybridAutomaton.__init__ is not init
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert getattr(owner, attr) is original
    assert tableau.closure.__module__ == "hyltlmc.formula.closure"


@pytest.fixture(scope="module")
def thermostat_inputs():
    workload = cases.Workload("thermostat", (cases.THERMO_GUARD,))
    return load_inputs(workload, ROOT)


def test_traced_check_records_every_layer(thermostat_inputs):
    tracer = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.installed(pipeline_targets()):
            out = _run_check(cases.THERMO_GUARD, thermostat_inputs, tracer)
    assert out.failure is None and out.decided
    names = {s.name for s in tracer.spans}
    for layer in ("product.check", "nnf", "closure", "tableau", "tableau.prune",
                  "automaton.compose", "automaton.init", "product.instrument",
                  "engine", "dynamics", "kernels"):
        assert layer in names
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer.counts["kernels.calls"] == out.work["engine.visits"]
    assert sum(self_times(tracer.spans)) == pytest.approx(
        sum(s.end - s.start for s in tracer.spans if s.parent == -1)
    )


def _verdict(status: str, hits=()) -> Verdict:
    return Verdict(status, "", "", list(hits))


def test_verified_on_the_relaxed_guard_case_is_a_failure():
    case = cases.THERMO_RELAXED
    assert "violated" in judge(case, _verdict("Verified"))
    # Inconclusive is not enough: a hit must reach x >= 21.
    low = {"box": {"x": (17.0, 20.5)}}
    assert judge(case, _verdict("Inconclusive", [low])) is not None
    high = {"box": {"x": (17.0, 23.0)}}
    assert judge(case, _verdict("Inconclusive", [low, high])) is None
    # Inconclusive on a case that holds only lowers decided_ratio.
    assert judge(cases.TANKS_GUARD, _verdict("Inconclusive")) is None


def test_relaxed_guard_check_is_inconclusive_with_a_warm_hit():
    workload = cases.WORKLOADS["symbolic-heavy"]
    inputs = load_inputs(workload, ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = _run_check(cases.THERMO_RELAXED, inputs, None)
    assert out.status == "Inconclusive" and out.failure is None


def test_a_trace_violating_its_formula_is_a_failure(thermostat_inputs):
    import numpy as np

    from hyltlmc import parse_formula
    from hyltlmc.formula.parser import Declarations

    h = thermostat_inputs.models["thermostat"]
    decls = Declarations(variables=h.variables, actions=h.actions)
    thermostat_inputs.formulas["thermostat", "G(x <= 20)"] = parse_formula("G(x <= 20)", decls)
    bad = cases.TraceCase("thermostat", "G(x <= 20)", 1)
    out = _run_trace(bad, np.random.default_rng(3), thermostat_inputs, None)
    assert out.failure is not None and "violates" in out.failure
    good = cases.TraceCase("thermostat", cases.NO_ON_WHEN_WARM, 1)
    out = _run_trace(good, np.random.default_rng(3), thermostat_inputs, None)
    assert out.failure is None and out.work["monitor.samples"] > 0


def test_suite_time_leaves_out_side_operations():
    workload = cases.Workload(
        "tiny",
        (cases.TraceCase("thermostat", cases.NO_ON_WHEN_WARM, 2),),
        (cases.THERMO_GUARD,),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = run_pass(workload, ROOT, seed=1, index=0)
    kinds = [o.kind for o in p.outcomes]
    assert kinds == ["trace", "trace", "check"]
    assert p.busy == pytest.approx(sum(o.seconds for o in p.outcomes[:2]))
    assert p.counts["engine.boxes"] > 0 and p.counts["monitor.samples"] > 0


def test_passes_repeat_the_same_traces():
    workload = cases.Workload(
        "tiny", (cases.TraceCase("thermostat", cases.NO_ON_WHEN_WARM, 3),)
    )
    meter = Speedometer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = run_pass(workload, ROOT, seed=4, index=0, meter=meter)
        b = run_pass(workload, ROOT, seed=4, index=1, meter=meter)
    assert a.counts["monitor.samples"] == b.counts["monitor.samples"] > 0
    # Every operation is marked by a sample before it, and each pass
    # closes with one after its last operation.
    assert all(0 <= o.mark < len(meter.refs) - 1 for o in a.outcomes + b.outcomes)


def test_operations_are_scaled_medians_over_passes():
    meter = Speedometer()
    # Samples 0-1 at the reference speed, 2-3 twice as slow.
    meter.refs = [REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert meter.scaled(3.0, 1) == pytest.approx(2.0)  # between 1 and 2

    def rec(mark, *seconds):
        cs = (cases.THERMO_GUARD, cases.THERMO_OFF)
        return PassRecord(
            sum(seconds), [Outcome("check", c, t, mark=mark) for c, t in zip(cs, seconds)]
        )

    passes = [rec(0, 1.0, 5.0), rec(2, 4.0, 12.0), rec(1, 4.5, 6.0)]
    assert bench.op_times(passes, meter) == [
        (cases.THERMO_GUARD, pytest.approx(2.0)),
        (cases.THERMO_OFF, pytest.approx(5.0)),
    ]
    workload = cases.Workload("pair", (cases.THERMO_GUARD,), (cases.THERMO_OFF,))
    m = bench.end_to_end(workload, passes, meter, [0.3, 0.1, 0.2], [0.9, 0.7, 0.8])
    assert m["suite_s"]["value"] == pytest.approx(2.0)  # side operations are left out
    assert m["verdict_s.geomean"]["value"] == pytest.approx((2.0 * 5.0) ** 0.5)
    assert m["setup_s"]["value"] == 0.2 and m["cli_check_s"]["value"] == 0.8


def _record(**counts) -> PassRecord:
    return PassRecord(1.0, [], counts=Counter(counts))


def test_gate_fails_loudly_on_a_changed_count(tmp_path):
    full = {k: 5 for k in bench.GATED}
    seen = {k: 5 for k in bench.GATED if k not in ("tableau.locations", "kernels.calls")}
    record = tmp_path / "counts.json"
    bench.gate_counts([(_record(**seen), _record(**full))], record, "v1")
    bench.gate_counts([(_record(**seen), _record(**full))], record, "v1")

    moved = dict(full, **{"engine.boxes": 6})
    with pytest.raises(bench.NotDeterministic, match="untraced vs traced"):
        bench.gate_counts([(_record(**seen), _record(**moved))], record, "v1")
    with pytest.raises(bench.NotDeterministic, match="pass 1 vs pass 0"):
        bench.gate_counts(
            [(_record(), _record(**full)), (_record(), _record(**moved))],
            record, "v1",
        )
    with pytest.raises(bench.NotDeterministic, match="differs from"):
        bench.gate_counts([(_record(), _record(**moved))], record, "v1")


def test_gate_replaces_a_record_of_other_code(tmp_path):
    full = {k: 5 for k in bench.GATED}
    moved = dict(full, **{"engine.boxes": 6})
    record = tmp_path / "counts.json"
    bench.gate_counts([(_record(), _record(**full))], record, "parent")
    # Other code may change a count legitimately: no raise, and the
    # record now holds the new code's counts.
    bench.gate_counts([(_record(), _record(**moved))], record, "child")
    bench.gate_counts([(_record(), _record(**moved))], record, "child")
    with pytest.raises(bench.NotDeterministic, match="differs from"):
        bench.gate_counts([(_record(), _record(**full))], record, "child")


def test_every_violated_case_names_its_hit_and_models_exist():
    for w in cases.WORKLOADS.values():
        assert w.checks, w.name
        for c in w.checks:
            assert c.why
            assert c.holds or (c.hit_var and c.hit_reaches is not None)
        for model in w.models():
            assert (ROOT / cases.MODEL_FILES[model]).is_file()
