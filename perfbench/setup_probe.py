"""Set-up probe: import hyltlmc, load a workload's models, parse its formulas.

Run from the checkout root as a fresh interpreter; it prints "ready" once
the inputs are in memory. The parent process times it from spawn to that
line.

    python3 perfbench/setup_probe.py <workload>
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from cases import WORKLOADS  # noqa: E402
from inputs import load_inputs  # noqa: E402

if __name__ == "__main__":
    load_inputs(WORKLOADS[sys.argv[1]], ROOT)
    print("ready", flush=True)
