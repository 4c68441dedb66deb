"""tests/check_digest.py gives one sha256 whatever the hash seed.

The digest covers every status, hit, visit, flow count and stored box of
the benchmark cases, so a change that claims to keep every bit compares
it before and after; that comparison means nothing if the digest moved
with the interpreter's string hashing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("check_digest.py")


def run(seed: int, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()


def test_same_digest_under_two_hash_seeds():
    [plain] = run(0)
    *cases, last = run(1, "--cases")
    assert len(plain) == 64 and last == plain
    # 8 benchmark cases, 8 extra checks, 4 models at 2 steps.
    assert len(cases) == 24 and all(len(line.split("  ")[0]) == 64 for line in cases)
