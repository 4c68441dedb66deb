"""One pass over a workload: every check and every trace, judged.

A check fails when it raises, when it says Verified on a case known to
be violated, or when a violated case lacks a query hit reaching the
value its argument names. A trace fails when no trace closes within
TRACE_TRIES calls, or when the trace violates its formula, which holds
on the model by the case table. Inconclusive on a case that holds is
not a failure: it only lowers decided_ratio.

Each operation starts on a freshly collected heap, so garbage left by
the one before it is not collected on its clock; collection its own
allocations trigger still counts.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hyltlmc import check, evaluate_trace, random_trace
from hyltlmc.errors import TraceError

from cases import Case, TraceCase, Workload
from inputs import Inputs, load_inputs
from tracer import span

TRACE_TRIES = 5


@dataclass
class Outcome:
    kind: str  # "check" or "trace"
    case: Case | TraceCase
    seconds: float
    failure: str | None = None
    status: str | None = None  # verdict status of a check
    decided: bool = False  # Verified on a case that holds
    work: dict = field(default_factory=dict)  # counts read off the result
    mark: int = -1  # Speedometer sample taken just before it, if any


@dataclass
class PassRecord:
    busy: float  # summed times of the suite operations: suite_s
    outcomes: list[Outcome]
    span_lo: int = 0
    span_hi: int = 0
    counts: Counter = field(default_factory=Counter)


def judge(case: Case, verdict) -> str | None:
    """Why the verdict contradicts the case's known answer, or None."""
    if case.holds:
        return None
    if verdict.verified:
        return f"Verified, but the property is violated: {case.why}"
    if not any(hit["box"][case.hit_var][1] >= case.hit_reaches for hit in verdict.hits):
        return (
            f"{verdict.status} without a hit whose {case.hit_var} range "
            f"reaches {case.hit_reaches:g}"
        )
    return None


def operations(items) -> list[tuple[int, int, Case | TraceCase]]:
    """(item index, k, item): once per check, count times per trace case."""
    ops = []
    for ti, item in enumerate(items):
        ops += [(ti, k, item) for k in range(getattr(item, "count", 1))]
    return ops


def _run_check(case: Case, inputs: Inputs, tracer) -> Outcome:
    h = inputs.models[case.model]
    formula = inputs.formulas[case.model, case.formula]
    t0 = time.perf_counter()
    try:
        with span(tracer, "product.check"):
            verdict = check(h, formula, step=case.step)
    except Exception as e:  # a crash is a counted failure, not the end of the run
        return Outcome("check", case, time.perf_counter() - t0, f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - t0
    s = verdict.stats
    work = {
        "product.locations": s["product_locations"],
        "product.transitions": s["product_transitions"],
        "product.query_targets": s["query_targets"],
        "engine.visits": sum(s["visits"].values()),
        "engine.boxes": s["boxes"],
    }
    return Outcome(
        "check",
        case,
        seconds,
        judge(case, verdict),
        verdict.status,
        case.holds and verdict.verified,
        work,
    )


def _run_trace(tc: TraceCase, rng, inputs: Inputs, tracer) -> Outcome:
    h = inputs.models[tc.model]
    formula = inputs.formulas[tc.model, tc.formula]
    t0 = time.perf_counter()
    trace = None
    retries = 0
    try:
        for _ in range(TRACE_TRIES):
            try:
                with span(tracer, "monitor.simulate"):
                    trace, _ = random_trace(h, rng)
                break
            except TraceError:
                retries += 1
        if trace is None:
            return Outcome(
                "trace", tc, time.perf_counter() - t0,
                f"no trace closed in {TRACE_TRIES} tries",
            )
        with span(tracer, "monitor.evaluate"):
            holds = evaluate_trace(trace, formula)
    except Exception as e:  # a crash is a counted failure, not the end of the run
        return Outcome("trace", tc, time.perf_counter() - t0, f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - t0
    work = {
        "monitor.traces": 1,
        "monitor.retries": retries,
        "monitor.samples": sum(len(traj.values) for traj, _ in trace.prefix + trace.cycle),
    }
    failure = None if holds else "the trace violates the formula"
    return Outcome("trace", tc, seconds, failure, work=work)


def run_pass(
    workload: Workload,
    root: Path,
    seed: int,
    index: int,
    tracer=None,
    meter=None,
) -> PassRecord:
    """Load the inputs, then run every operation of the suite and side
    items once, interleaved in an order seeded by (seed, index); busy
    sums the suite ones.

    Trace k of item ti draws from a generator seeded by (seed, ti, k):
    every pass of a run repeats the same operations, so each can be
    compared across the passes. A Speedometer, when given, samples the
    machine's speed between operations and after the last one.
    """
    lo = 0
    if tracer is not None:
        tracer.counts.clear()
        lo = len(tracer.spans)
    inputs = load_inputs(workload, root, tracer)
    ops = operations(workload.suite + workload.side)
    order = np.random.default_rng([seed, 0, index]).permutation(len(ops))
    outcomes: list[Outcome | None] = [None] * len(ops)
    for j in order:
        ti, k, item = ops[j]
        gc.collect()
        if tracer is not None:
            tracer.op += 1
        mark = meter.mark() if meter is not None else -1
        if isinstance(item, Case):
            outcomes[j] = _run_check(item, inputs, tracer)
        else:
            rng = np.random.default_rng([seed, 1, ti, k])
            outcomes[j] = _run_trace(item, rng, inputs, tracer)
        outcomes[j].mark = mark
    if meter is not None:
        meter.sample()
    counts = Counter()
    for o in outcomes:
        counts.update(o.work)
    if tracer is not None:
        counts.update(tracer.counts)
    suite = len(operations(workload.suite))
    busy = sum(o.seconds for o in outcomes[:suite])
    return PassRecord(busy, outcomes, lo, len(tracer.spans) if tracer else 0, counts)
