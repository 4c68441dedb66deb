"""Spans recorded from outside the program, by wrapping module-level names.

The pipeline looks its stages up in module globals at call time
(`product.compose`, `engine.flow_tube`, ...), so replacing those names
with timing wrappers traces every call without editing the program.
`Tracer.installed` puts the wrappers in place and restores every
original name on exit, also when the traced code raises.

A span is (name, start, end, parent, op): parent is the index of the
enclosing span or -1, and op identifies the check or trace the span
belongs to. Self time is a span's duration minus the durations of its
children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import NamedTuple

import numpy as np

from hyltlmc.reach.kernels import FLOW_DONE


class Span(NamedTuple):
    # A tuple of plain values, so the garbage collector stops tracking it.
    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int, float]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # filled in on close; keeps start order
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name: str, idx: int, parent: int, start: float) -> None:
        self.spans[idx] = Span(name, start, time.perf_counter(), parent, self.op)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def wrap(self, fn, name: str, observe=None):
        """fn inside a span; observe(tracer, result, args) counts its work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if observe is not None:
                observe(self, result, args)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap (owner, attribute, span name, observe) targets, then restore."""
        saved = []
        try:
            for owner, attr, name, observe in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s._asdict()) + "\n")


def span(tracer: Tracer | None, name: str):
    """tracer.span(name), or nothing when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from synchronous calls on one stack, so children neither
    overlap nor outlive their parent. spans may be the tail
    spans[offset:] of a longer record; parent indices keep referring to
    the full record, and parents before the slice are ignored.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= offset:
            out[s.parent - offset] -= s.end - s.start
    return out


def self_time_by_name(spans: list[Span], offset: int = 0) -> dict[str, float]:
    """Summed self time per span name; offset as in self_times."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans, offset)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


# -- what each wrapped stage adds to the counters ---------------------------


def _count_tableau(tr: Tracer, h, args) -> None:
    tr.counts["tableau.locations"] += len(h.locations)
    tr.counts["tableau.edges"] += len(h.transitions)


def _count_prune(tr: Tracer, h, args) -> None:
    tr.counts["tableau.prune_in"] += len(args[0].locations)
    tr.counts["tableau.prune_kept"] += len(h.locations)


def _count_sets(tr: Tracer, sets, args) -> None:
    tr.counts["closure.sets"] += len(sets)


def _count_reach(tr: Tracer, reach, args) -> None:
    tr.counts["engine.calls"] += 1
    tr.counts["engine.complete"] += bool(reach.complete)
    tr.counts["engine.boxed_locations"] += sum(1 for v in reach.boxes.values() if v)


def _count_dynamics(tr: Tracer, dyn, args) -> None:
    tr.counts["dynamics.locations"] += 1


def _count_kernel(tr: Tracer, result, args) -> None:
    tube_lo, tube_hi, _, _, status = result
    tr.counts["kernels.calls"] += 1
    tr.counts["kernels.done"] += status == FLOW_DONE
    width = tube_hi - tube_lo
    width = width[np.isfinite(width)]
    if width.size:
        tr.counts["kernels.width_max"] = max(
            tr.counts["kernels.width_max"], float(width.max())
        )


def pipeline_targets():
    """(owner, attribute, span name, observe) for every stage check() calls."""
    from hyltlmc import product, tableau
    from hyltlmc.hybrid.automaton import HybridAutomaton
    from hyltlmc.reach import engine

    return [
        (product, "to_nnf", "nnf", None),
        (product, "build_formula_automaton", "tableau", _count_tableau),
        (product, "prune_unreachable", "tableau.prune", _count_prune),
        (product, "compose", "automaton.compose", None),
        (product, "degeneralize", "product.degeneralize", None),
        (product, "instrument", "product.instrument", None),
        (product, "reachable", "engine", _count_reach),
        (tableau, "closure", "closure", None),
        (tableau, "maximally_consistent_sets", "closure", _count_sets),
        (engine, "location_dynamics", "dynamics", _count_dynamics),
        (engine, "transition_image", "dynamics", None),
        (engine, "flow_tube", "kernels", _count_kernel),
        (HybridAutomaton, "__init__", "automaton.init", None),
    ]
