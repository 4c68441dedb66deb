"""tests/check_digest.py gives one sha256 whatever the hash seed.

The digest covers every status, hit, visit, flow count and stored box of
the benchmark cases, so a change that claims to keep every bit compares
it before and after; that comparison means nothing if the digest moved
with the interpreter's string hashing. Its per-part digests (--parts)
must each move only with their own part.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from hyltlmc import check, parse_formula
from hyltlmc.formula.parser import Declarations

from check_digest import _digest, case_digest, check_parts
from conftest import heater_model

SCRIPT = Path(__file__).with_name("check_digest.py")


def run(seed: int, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()


def test_same_digest_under_two_hash_seeds():
    *parts, plain = run(0, "--parts")
    *lines, last = run(1, "--cases", "--parts")
    assert len(plain) == 64 and last == plain
    # 8 benchmark cases, 8 extra checks, 4 models at 2 steps.
    cases = lines[:24]
    assert len(cases) == 24 and all(len(line.split("  ")[0]) == 64 for line in cases)
    # Verdict, stats, product and reach per check; reach per model.
    assert lines[24:] == parts and len(parts) == 16 * 4 + 8
    names = [line.rsplit(" | ", 1)[1] for line in parts]
    assert names[:4] == ["verdict", "stats", "product", "reach"] and names[-1] == "reach"


def part_digests(verdict) -> dict[str, str]:
    return {name: _digest(items) for name, items in check_parts(verdict, 0.01).items()}


def test_each_part_moves_alone():
    h = heater_model()
    f = parse_formula("G F on", Declarations(variables=h.variables, actions=h.actions))
    verdict = check(h, f)
    base = part_digests(verdict)
    moved = {
        "stats": dataclasses.replace(
            verdict, stats=dict(verdict.stats, observer_locations=-1)
        ),
        "verdict": dataclasses.replace(verdict, reason="other"),
        "product": dataclasses.replace(verdict, product=h),
    }
    for name, other in moved.items():
        digests = part_digests(other)
        assert [p for p in base if digests[p] != base[p]] == (
            ["product", "reach"] if name == "product" else [name]
        )
    # The item digest leaves the product out, as before --parts existed.
    parts = check_parts(verdict, 0.01)
    assert case_digest(parts) == _digest(
        parts["verdict"] + parts["stats"] + parts["reach"]
    )
