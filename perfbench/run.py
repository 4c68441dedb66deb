"""Time-to-verdict benchmark of hyltlmc over two workloads.

    python3 perfbench/run.py --workload symbolic-heavy --seed 1 --seconds 60 --trace 0

Run from the checkout root; the program is imported from its src/
directory. One process runs one workload with a single closed-loop
client: every operation starts when the previous one has finished.
cases.py holds the workloads and the hand-argued known answers that
every verdict and trace is checked against.

With --trace 0 the run reports end-to-end metrics: for --seconds it
repeats passes over the workload, each followed by the fresh-interpreter
set-up and command-line probes then due. A pass interleaves the suite
items, whose summed times make suite_s, with side items timed one by one
(the oracle traces). Every pass repeats the same
operations, and each is reported as its median over the passes, scaled
to a fixed machine speed read off a reference loop (speed.py). With
--trace 1 it alternates untraced passes with passes traced by wrappers
around the pipeline's module-level names (tracer.py), and reports
per-layer metrics; the spans go to .perfbench/spans-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The traced run stops with exit code 3
when a work count differs between its passes, or from an earlier traced
run of the same code at the same seed
(.perfbench/counts-<workload>-<seed>.json).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be at least 0")
    if not (SRC / "hyltlmc" / "__init__.py").is_file():
        print(f"perfbench: no hyltlmc package under {SRC}", file=sys.stderr)
        return 1
    # One CPU for the whole run, before any library starts a thread: the
    # operations, the reference loop that reads the machine's speed
    # (speed.py) and the spawned probes then all run on the same CPU.
    # Each CPU of a shared host is slowed down at its own times.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    if args.workload not in bench.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    return bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
