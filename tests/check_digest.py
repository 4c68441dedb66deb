"""One sha256 over everything a check computes that a speed-up must keep.

    python tests/check_digest.py [--cases] [--parts]

Run from any directory; the program is imported from the src/ directory
next to this one, and the benchmark cases from perfbench/cases.py. The
digest covers, for the 8 benchmark cases and EXTRA_CHECKS, the verdict's
status, reason and hits and its stats without the timings, then every
stored box of reachable(verdict.product) at the case's step, with its
visits, cause and flow count; and reachable() on each benchmark model at
each of MODEL_STEPS. Floats enter by their repr and arrays by their
bytes, so a digest that is unchanged means every bit is. --cases also
prints one sha256 per item, to find the one that moved. --parts prints
one sha256 per item and part: for a check, its verdict (status, reason,
hits), its stats without the timings, its product automaton
(verdict.product, which the digest leaves out) and its reach; for a
model, its reach. A change that moves only the observer's sizes in the
stats then shows every other part unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cases import MODEL_FILES, WORKLOADS  # noqa: E402

from hyltlmc import check, load_model, parse_formula  # noqa: E402
from hyltlmc.formula.parser import Declarations  # noqa: E402
from hyltlmc.reach.engine import reachable  # noqa: E402

# (model, formula) checked at step 0.01 besides the benchmark cases.
EXTRA_CHECKS = (
    ("thermostat", "G(x <= 23)"),
    ("thermostat", "G(x <= 22)"),
    ("thermostat", "F G(x >= 18)"),
    ("thermostat", "G F on"),
    ("thermostat", "G(on -> F off)"),
    ("rooms", "G F on1 & G F on2"),
    ("tanks", "G F fill -> G(a <= 9)"),
    ("thermostat_relaxed", "G(x <= 24)"),
)
MODEL_STEPS = (0.01, 0.001)


def _reach_items(reach) -> list:
    items = [reach.names, list(reach.visits.items()), reach.cause, reach.flows]
    for l, store in reach.boxes.items():
        items.append(l)
        for lo, hi in store:
            items += [lo.dtype.str, lo.tobytes(), hi.dtype.str, hi.tobytes()]
    return items


def _automaton_items(h) -> list:
    """Every part of h, with dicts as item lists and acceptance sets in
    location order, so that no part depends on string hashing."""
    return [
        h.variables,
        h.actions,
        h.locations,
        h.transitions,
        list(h.dyn.items()),
        h.init,
        list(h.init_region.items()),
        [[l for l in h.locations if l in F] for F in h.acceptance],
    ]


def check_parts(verdict, step: float) -> dict[str, list]:
    """Part name -> the items of one check's verdict that it digests."""
    return {
        "verdict": [verdict.status, verdict.reason, verdict.hits],
        "stats": [{k: v for k, v in verdict.stats.items() if k != "timings"}],
        "product": _automaton_items(verdict.product),
        "reach": _reach_items(reachable(verdict.product, step=step)),
    }


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def case_parts() -> dict[str, dict[str, list]]:
    """Label -> part name -> items, for every checked case and every
    model's reach."""
    models = {name: load_model(ROOT / path) for name, path in MODEL_FILES.items()}
    checks = dict.fromkeys(
        (c.model, c.formula, c.step) for w in WORKLOADS.values() for c in w.checks
    )
    checks.update(dict.fromkeys((m, f, 0.01) for m, f in EXTRA_CHECKS))
    out = {}
    for model, text, step in checks:
        h = models[model]
        formula = parse_formula(text, Declarations(variables=h.variables, actions=h.actions))
        with warnings.catch_warnings():
            # Negated flow atoms warn that their complement is strengthened.
            warnings.simplefilter("ignore")
            verdict = check(h, formula, step=step)
        out[f"{model} | {text} | step {step:g}"] = check_parts(verdict, step)
    for model, h in models.items():
        for step in MODEL_STEPS:
            out[f"{model} | reachable | step {step:g}"] = {
                "reach": _reach_items(reachable(h, step=step))
            }
    return out


def case_digest(parts: dict[str, list]) -> str:
    """The sha256 of one item: every part but the product, in order, so
    that it stays the digest recorded before --parts existed."""
    return _digest([x for name, xs in parts.items() if name != "product" for x in xs])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", action="store_true", help="print one digest per item")
    ap.add_argument(
        "--parts", action="store_true", help="print one digest per item and part"
    )
    args = ap.parse_args(argv)
    parts = case_parts()
    digests = {label: case_digest(p) for label, p in parts.items()}
    if args.cases:
        for label, d in digests.items():
            print(f"{d}  {label}")
    if args.parts:
        for label, p in parts.items():
            for name, items in p.items():
                print(f"{_digest(items)}  {label} | {name}")
    print(_digest(list(digests.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
