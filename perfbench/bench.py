"""The benchmark's measurement: timed passes, set-up and CLI probes, the
traced run, the kernel probe, the determinism gate and the report.

run.py is the command; it puts src/ on the path before importing this.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from hyltlmc.reach import kernels

from cases import MODEL_FILES, WORKLOADS, Case, Workload
from ops import PassRecord, operations, run_pass
from speed import Speedometer
from tracer import Tracer, pipeline_targets, self_time_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_PAIRS = 2  # untraced/traced pass pairs in a --trace 1 run
PROBES = 6  # spawned set-up and command-line probes in a --trace 0 run
CHILD_TIMEOUT_S = 170
KERNEL_PROBE_REPEATS = 3
KERNEL_PROBE_STEPS = 20000

# Work counts that must repeat exactly at one seed.
GATED = (
    "tableau.locations",
    "product.locations",
    "product.transitions",
    "engine.visits",
    "engine.boxes",
    "kernels.calls",
    "monitor.samples",
)


class NotDeterministic(Exception):
    pass


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def median_of(records, fn) -> float:
    return statistics.median(fn(r) for r in records)


def timed_passes(seconds: float, min_count: int, run_one) -> list:
    """Call run_one(i) at least min_count times, then until the next call
    would end past the budget."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(run_one(len(out)))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(out) >= min_count and elapsed + last > seconds:
            return out


# -- end-to-end ---------------------------------------------------------------


def time_setup(workload: Workload) -> float:
    """Spawn to "ready" of a fresh interpreter loading the workload."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as p:
        line = p.stdout.readline()
        seconds = time.perf_counter() - t0
        p.communicate(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or p.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {p.returncode}")
    return seconds


def cli_check(case: Case) -> tuple[float, str | None, str]:
    """Cold `python -m hyltlmc --machine check`: (seconds, status, output)."""
    cmd = [
        sys.executable, "-m", "hyltlmc", "--machine", "check",
        "--model", MODEL_FILES[case.model],
        "--formula", case.formula,
        "--step", repr(case.step),
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    seconds = time.perf_counter() - t0
    fields = {}
    lines = done.stdout.strip().splitlines()
    if lines:
        for part in shlex.split(lines[-1]):
            k, _, v = part.partition("=")
            fields[k] = v
    if done.returncode not in (0, 2):
        return seconds, None, done.stdout + done.stderr
    return seconds, fields.get("status"), done.stdout


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def op_times(passes, meter: Speedometer) -> list[tuple[object, float]]:
    """(case, median time over the passes) of each operation, in order,
    at the reference speed (speed.py). Every pass repeats the same
    operations on the same inputs."""
    return [
        (ops[0].case, statistics.median(meter.scaled(o.seconds, o.mark) for o in ops))
        for ops in zip(*(p.outcomes for p in passes))
    ]


def _by_case(times) -> dict[object, list[float]]:
    out: dict[object, list[float]] = {}
    for case, seconds in times:
        out.setdefault(case, []).append(seconds)
    return out


def end_to_end(workload: Workload, passes, meter: Speedometer, setup_s, cli_s) -> dict:
    """Cases differ too much in cost for a quantile across them to mean
    a tail, so check latencies are taken per case and combined by
    geometric mean: a gain on a cheap case shows even next to an
    expensive one. Every time is at the reference speed: operations at
    their median over the passes (op_times), probes at their median."""
    times = op_times(passes, meter)
    checks = [v for c, v in _by_case(times).items() if isinstance(c, Case)]
    holds = decided = 0
    for p in passes:
        for o in p.outcomes:
            if o.kind == "check" and o.case.holds:
                holds += 1
                decided += o.decided
    suite = len(operations(workload.suite))
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "suite_s": metric(sum(t for _, t in times[:suite]), "s"),
        "verdict_s.geomean": metric(_geomean(v[0] for v in checks), "s"),
        "decided_ratio": metric(ratio(decided, holds), "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "cli_check_s": metric(statistics.median(cli_s), "s"),
    }


def trace_figures(passes, meter: Speedometer) -> dict:
    """Throughput and latency of one random_trace plus evaluate_trace,
    from op_times. The latencies are per trace case, combined by
    geometric mean."""
    traces = [v for c, v in _by_case(op_times(passes, meter)).items() if not isinstance(c, Case)]
    return {
        "monitor.traces_per_s": metric(sum(map(len, traces)) / sum(map(sum, traces)), "1/s"),
        "monitor.trace_s.p50": metric(_geomean(statistics.median(v) for v in traces), "s"),
        "monitor.trace_s.p90": metric(
            _geomean(statistics.quantiles(v, n=10)[8] for v in traces), "s"
        ),
    }


def untraced(workload: Workload, seed: int, seconds: float):
    """Passes until the budget is spent, each followed by the probes then
    due: (passes, set-up seconds, CLI results, speedometer), every time
    at the reference speed.

    The spawned probes are spread over the whole run rather than timed
    in a block of their own, so they see the same machine as the passes.
    """
    meter = Speedometer()
    first = workload.checks[0]
    setup_s, cli = [], []

    def probe():
        mark = meter.mark()
        took = time_setup(workload)
        meter.sample()
        setup_s.append(meter.scaled(took, mark))
        mark = meter.mark()
        took, status, output = cli_check(first)
        meter.sample()
        cli.append((meter.scaled(took, mark), status, output))

    start = time.perf_counter()

    def one_pass(i):
        p = run_pass(workload, ROOT, seed, i, meter=meter)
        due = PROBES * (time.perf_counter() - start) / seconds
        while len(setup_s) < min(due, PROBES):
            probe()
        return p

    passes = timed_passes(seconds, MIN_PASSES, one_pass)
    while len(setup_s) < PROBES:
        probe()
    return passes, setup_s, cli, meter


# -- per layer ----------------------------------------------------------------


def kernel_probe() -> dict:
    """The three flow_tube inputs of benchmarks/bench_kernels.py, numpy path."""
    rng = np.random.default_rng(11)
    A6 = -np.eye(6) + 0.1 * rng.standard_normal((6, 6))
    b6 = rng.standard_normal(6) * 0.1
    inputs = {
        "heater": ([19.0], [21.0], [[-0.2]], [0.0], 0.01, [17.0], [np.inf]),
        "rotation": (
            [0.9, -0.1], [1.1, 0.1], [[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0],
            0.005, [-np.inf] * 2, [np.inf] * 2,
        ),
        "dense6d": ([-1.0] * 6, [1.0] * 6, A6, b6, 0.01, [-100.0] * 6, [100.0] * 6),
    }
    saved = os.environ.get("HYLTL_MC_BACKEND")
    os.environ["HYLTL_MC_BACKEND"] = "numpy"
    out = {}
    try:
        for name, (lo, hi, A, b, h, inv_lo, inv_hi) in inputs.items():
            args = [np.asarray(v, dtype=float) for v in (lo, hi, A, b)]
            times = []
            for _ in range(KERNEL_PROBE_REPEATS):
                t0 = time.perf_counter()
                tube_lo, tube_hi, _, _, status = kernels.flow_tube(
                    *args, h, KERNEL_PROBE_STEPS,
                    np.asarray(inv_lo, dtype=float), np.asarray(inv_hi, dtype=float),
                )
                times.append(time.perf_counter() - t0)
            width = float(np.max(tube_hi - tube_lo))
            out[f"kernels.probe.{name}_s"] = metric(statistics.median(times), "s")
            out[f"kernels.probe.{name}_status"] = metric(status, "code")
            out[f"kernels.probe.{name}_width"] = metric(
                min(width, sys.float_info.max), "state"
            )
    finally:
        if saved is None:
            os.environ.pop("HYLTL_MC_BACKEND", None)
        else:
            os.environ["HYLTL_MC_BACKEND"] = saved
    return out


def pass_layers(tracer: Tracer, p: PassRecord) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass."""
    spans = tracer.spans[p.span_lo : p.span_hi]
    st = self_time_by_name(spans, p.span_lo)
    n = Counter(s.name for s in spans)
    c = p.counts
    t = lambda *names: sum(st.get(x, 0.0) for x in names)  # noqa: E731
    return {
        "closure.s": (t("closure"), "s"),
        "closure.sets": (c["closure.sets"], "count"),
        "tableau.s": (t("tableau"), "s"),
        "tableau.locations": (c["tableau.locations"], "count"),
        "tableau.edges": (c["tableau.edges"], "count"),
        "tableau.prune_s": (t("tableau.prune"), "s"),
        "tableau.kept_ratio": (ratio(c["tableau.prune_kept"], c["tableau.prune_in"]), "ratio"),
        "automaton.compose_s": (t("automaton.compose"), "s"),
        "automaton.init_s": (t("automaton.init"), "s"),
        "automaton.inits": (n["automaton.init"], "count"),
        "product.degeneralize_s": (t("product.degeneralize"), "s"),
        "product.instrument_s": (t("product.instrument"), "s"),
        "product.query_s": (t("product.check"), "s"),
        "product.locations": (c["product.locations"], "count"),
        "product.transitions": (c["product.transitions"], "count"),
        "product.query_targets": (c["product.query_targets"], "count"),
        "dynamics.s": (t("dynamics"), "s"),
        "dynamics.calls": (n["dynamics"], "count"),
        "dynamics.used_ratio": (
            ratio(c["engine.boxed_locations"], c["dynamics.locations"]), "ratio"
        ),
        "engine.s": (t("engine"), "s"),
        "engine.visits": (c["engine.visits"], "count"),
        "engine.boxes": (c["engine.boxes"], "count"),
        "engine.complete_ratio": (ratio(c["engine.complete"], c["engine.calls"]), "ratio"),
        "kernels.s": (t("kernels"), "s"),
        "kernels.calls": (c["kernels.calls"], "count"),
        "kernels.done_ratio": (ratio(c["kernels.done"], c["kernels.calls"]), "ratio"),
        "kernels.width_max": (c["kernels.width_max"], "state"),
        "kernels.suite_share": (ratio(t("kernels"), p.busy), "ratio"),
        "monitor.simulate_s": (t("monitor.simulate"), "s"),
        "monitor.evaluate_s": (t("monitor.evaluate"), "s"),
        "monitor.samples": (c["monitor.samples"], "count"),
        "monitor.retry_ratio": (
            ratio(c["monitor.retries"], c["monitor.retries"] + c["monitor.traces"]),
            "ratio",
        ),
        "parser.s": (t("parser"), "s"),
        "nnf.s": (t("nnf"), "s"),
        "modelio.s": (t("modelio"), "s"),
    }


def code_key() -> str:
    """Hash of the program and benchmark sources the counts depend on."""
    h = hashlib.sha256()
    for top in (SRC / "hyltlmc", HERE):
        for path in sorted(top.rglob("*")):
            if path.suffix in (".py", ".hyha") and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def gate_counts(pairs, record: Path, code: str) -> None:
    """Raise NotDeterministic unless the gated counts repeat exactly.

    An untraced pass and the traced pass over the same inputs agree on
    every count both see; every pass repeats the same operations, so
    passes agree with each other; and every count matches the earlier traced run
    of the same code (code_key) at the same seed recorded in record,
    pass by pass. A record of other code is replaced, not compared.
    """
    for i, (plain, traced) in enumerate(pairs):
        diff = {
            k: (plain.counts[k], traced.counts[k])
            for k in GATED
            if k in plain.counts and plain.counts[k] != traced.counts[k]
        }
        if diff:
            raise NotDeterministic(f"pass {i} untraced vs traced: {diff}")
    first = pairs[0][1].counts
    for i, (_, traced) in enumerate(pairs[1:], 1):
        diff = {
            k: (first[k], traced.counts[k])
            for k in GATED
            if traced.counts[k] != first[k]
        }
        if diff:
            raise NotDeterministic(f"pass {i} vs pass 0: {diff}")
    now = {
        "code": code,
        "passes": [{k: t.counts[k] for k in GATED} for _, t in pairs],
    }
    before = json.loads(record.read_text()) if record.exists() else {}
    if before.get("code") == code:
        for i, (a, b) in enumerate(zip(before["passes"], now["passes"])):
            if a != b:
                raise NotDeterministic(f"pass {i} differs from {record}: {a} vs {b}")
        if len(before["passes"]) > len(now["passes"]):
            now["passes"] = before["passes"]
    record.write_text(json.dumps(now, indent=1) + "\n")


def per_layer(workload: Workload, seed: int, seconds: float) -> tuple[list, dict]:
    """Alternating untraced and traced passes."""
    tracer = Tracer()
    meter = Speedometer()

    def pair(i):
        plain = run_pass(workload, ROOT, seed, i, meter=meter)
        with tracer.installed(pipeline_targets()):
            traced = run_pass(workload, ROOT, seed, i, tracer)
        return plain, traced

    pairs = timed_passes(seconds, MIN_PAIRS, pair)
    plain = [a for a, _ in pairs]
    traced = [b for _, b in pairs]

    STATE.mkdir(exist_ok=True)
    tracer.write(STATE / f"spans-{workload.name}-{seed}.jsonl")
    gate_counts(pairs, STATE / f"counts-{workload.name}-{seed}.json", code_key())

    layers = [pass_layers(tracer, p) for p in traced]
    out = {
        name: metric(statistics.median(l[name][0] for l in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    out.update(trace_figures(plain, meter))
    out.update(kernel_probe())
    out["trace.overhead_ratio"] = metric(
        median_of(traced, lambda p: p.busy) / median_of(plain, lambda p: p.busy),
        "ratio",
    )
    return plain + traced, out


# -- command ------------------------------------------------------------------


def report(
    workload: Workload, records, metrics: dict, failures: list[str], attempted: int,
    probes: dict[str, list[float]],
) -> None:
    """Human-readable summary ahead of the JSON line."""
    print(f"workload {workload.name}: {len(records)} passes")
    print("  busy seconds per pass: " + " ".join(f"{p.busy:.3f}" for p in records))
    for name, times in probes.items():
        print(f"  {name} probe seconds at reference speed: "
              + " ".join(f"{t:.3f}" for t in times))
    statuses: dict[Case, Counter] = {c: Counter() for c in workload.checks}
    for p in records:
        for o in p.outcomes:
            if o.kind == "check":
                statuses[o.case][o.status or "error"] += 1
    for case, seen in statuses.items():
        answer = "holds" if case.holds else "violated"
        print(f"  [{answer}] {case.label}: "
              + ", ".join(f"{s} x{k}" for s, k in sorted(seen.items())))
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':<30} {ratio(len(failures), attempted):.6g} ratio "
          f"({len(failures)} of {attempted})")
    for f in sorted(set(failures)):
        print(f"  FAILED: {f}")


def run(workload: Workload, seed: int, seconds: float, trace: int) -> int:
    """One benchmark run; prints the report and the JSON result line."""
    warnings.simplefilter("ignore")
    failures: list[str] = []
    attempted = 0
    probes = {}
    if trace:
        try:
            records, metrics = per_layer(workload, seed, seconds)
        except NotDeterministic as e:
            print(f"perfbench: work counts are not deterministic: {e}", file=sys.stderr)
            return 3
    else:
        records, setup_s, cli, meter = untraced(workload, seed, seconds)
        first = workload.checks[0]
        library = {o.status for p in records for o in p.outcomes if o.case == first}
        for _, status, output in cli:
            attempted += 1
            if status is None or {status} != library:
                failures.append(
                    f"cli status {status!r} disagrees with library {sorted(library)} "
                    f"on {first.label}: {output.strip()[-200:]}"
                )
        cli_s = [took for took, _, _ in cli]
        probes = {"set-up": setup_s, "cli": cli_s}
        metrics = end_to_end(workload, records, meter, setup_s, cli_s)
        print(f"machine speed: {meter.summary()}")

    for p in records:
        for o in p.outcomes:
            attempted += 1
            if o.failure is not None:
                failures.append(f"{o.case.label}: {o.failure}")

    report(workload, records, metrics, failures, attempted, probes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0
