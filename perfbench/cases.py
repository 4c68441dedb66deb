"""Models, checked cases with their known answers, and the workloads.

Every known answer below is argued by hand from the model text, never
taken from `check()`. A case that holds may come back Verified or
Inconclusive, since reachability over-approximates; a case that is
violated must never come back Verified.
"""

from __future__ import annotations

from dataclasses import dataclass

# Paths relative to the checkout root.
MODEL_FILES = {
    "thermostat": "src/hyltlmc/models/thermostat.hyha",
    "thermostat_relaxed": "perfbench/models/thermostat_relaxed.hyha",
    "rooms": "perfbench/models/rooms.hyha",
    "tanks": "perfbench/models/tanks.hyha",
}

THREE_CONJUNCTS = "!F(x >= 21 & X on) & G(x<=23) & G(off -> X(x <= 21 U on))"
NO_ON_WHEN_WARM = "!F(x >= 21 & X on)"
OFF_AFTER_ON = "G(on -> X(!on U off))"
ROOMS_SAFE = "G(x >= 15 & x <= 25 & y >= 15 & y <= 25)"
ROOMS_NO_ON1_WHEN_WARM = "!F(x >= 21 & X on1)"
TANKS_NO_FILL_WHEN_FULL = "!F(a >= 5 & X fill)"
RECURRENT_ON = "G F(x>=21) -> G F on"


@dataclass(frozen=True)
class Case:
    """One (model, formula, step) with its hand-argued answer.

    A violated case names a variable and a value that some query hit
    must reach: the hit box's range of that variable includes the value.
    """

    model: str
    formula: str
    step: float
    holds: bool
    why: str
    hit_var: str | None = None
    hit_reaches: float | None = None

    @property
    def label(self) -> str:
        return f"{self.model} | {self.formula} | step {self.step:g}"


# Hand arguments shared by several steps.
_GUARD_19 = (
    "on needs x <= 19 at the last sample, so no segment with x >= 21 "
    "throughout can be followed by on"
)
_GUARD_ON1 = (
    "on1 needs x <= 19 at the last sample, so no segment with x >= 21 "
    "throughout can be followed by on1"
)
_OFF_NEXT = (
    "after on the run is in heat, whose only edge is off, so the next "
    "position carries off and the until is met at once"
)

THERMO_THREE = Case(
    "thermostat", THREE_CONJUNCTS, 0.01, True,
    _GUARD_19 + "; heat stops at its invariant x <= 23 and idle only "
    "decays, so x <= 23 always; after off the next position follows an "
    "on jump, so on holds there and the until is met at once",
)
THERMO_RECURRENT = Case(
    "thermostat", RECURRENT_ON, 0.01, True,
    "idle decays to its invariant x >= 17 and heat rises to x <= 23, so "
    "neither can be stayed in for ever and every run takes on infinitely "
    "often",
)
THERMO_RELAXED = Case(
    "thermostat_relaxed", NO_ON_WHEN_WARM, 0.01, False,
    "off can fire at x = 22, and the relaxed guard x <= 25 then allows on "
    "right away while x is still above 21",
    hit_var="x", hit_reaches=21.0,
)
ROOMS_SAFE_CASE = Case(
    "rooms", ROOMS_SAFE, 0.01, True,
    "each room heats from at least 17 up to its invariant 23 and decays "
    "from at most 23 down to its invariant 17, so x and y stay in [17, 23]",
)
THERMO_GUARD_FINE = Case("thermostat", NO_ON_WHEN_WARM, 1e-4, True, _GUARD_19)
THERMO_OFF_FINE = Case("thermostat", OFF_AFTER_ON, 1e-4, True, _OFF_NEXT)
ROOMS_GUARD_MID = Case("rooms", ROOMS_NO_ON1_WHEN_WARM, 0.001, True, _GUARD_ON1)
TANKS_GUARD = Case(
    "tanks", TANKS_NO_FILL_WHEN_FULL, 0.01, True,
    "fill needs a <= 2 at the last sample, so no segment with a >= 5 "
    "throughout can be followed by fill",
)
THERMO_GUARD = Case("thermostat", NO_ON_WHEN_WARM, 0.01, True, _GUARD_19)
THERMO_OFF = Case("thermostat", OFF_AFTER_ON, 0.01, True, _OFF_NEXT)


@dataclass(frozen=True)
class TraceCase:
    """Seeded random traces of a model, each evaluated against a formula
    that holds on the model, so every trace must satisfy it."""

    model: str
    formula: str
    count: int

    @property
    def label(self) -> str:
        return f"{self.model} | {self.formula} | random traces"


@dataclass(frozen=True)
class Workload:
    """One pass runs every suite and side item, interleaved; an item is a
    check or a trace case. suite_s sums the suite operations only, so
    side operations are measured one by one without diluting it.

    The first check, in suite or else in side, is also the one timed
    through the command line.
    """

    name: str
    suite: tuple[Case | TraceCase, ...]
    side: tuple[Case | TraceCase, ...] = ()

    @property
    def checks(self) -> tuple[Case, ...]:
        return tuple(c for c in self.suite + self.side if isinstance(c, Case))

    def models(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(c.model for c in self.suite + self.side))

    def formulas(self) -> tuple[tuple[str, str], ...]:
        return tuple(dict.fromkeys((c.model, c.formula) for c in self.suite + self.side))


def _oracle(checks: tuple[Case, ...], count: int) -> tuple[TraceCase, ...]:
    """Random traces against every case that holds: the soundness oracle."""
    return tuple(TraceCase(c.model, c.formula, count) for c in checks if c.holds)


ORACLE_TRACES = 6  # per case and pass
# Each tuple of checks starts with its cheapest case, which the
# command-line figure reruns in fresh interpreters.
_SYMBOLIC = (THERMO_RECURRENT, THERMO_RELAXED, THERMO_THREE, ROOMS_SAFE_CASE)
_FLOW = (ROOMS_GUARD_MID, THERMO_GUARD_FINE, THERMO_OFF_FINE, TANKS_GUARD)

WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen is recorded in BENCHMARK.json.
        Workload("symbolic-heavy", _SYMBOLIC, _oracle(_SYMBOLIC, ORACLE_TRACES)),
        Workload("flow-heavy", _FLOW, _oracle(_FLOW, ORACLE_TRACES)),
    )
}
