"""Timing of the flow tube kernel on four fixed workloads.

Each workload runs once to warm up and then --repeat more times; the
median wall time is printed with the final status, the widest axis of
the tube, the tube's radius over the start box's radius (the largest
absolute coordinate of each box), and whether the axes with a zero row
of A and zero b kept their start interval exactly.

    python3 benchmarks/bench_kernels.py [--steps N] [--repeat K]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from hyltlmc.reach.kernels import FLOW_BUDGET, FLOW_DONE, FLOW_NO_ENCLOSURE, flow_tube

STATUS = {FLOW_DONE: "done", FLOW_BUDGET: "step budget", FLOW_NO_ENCLOSURE: "no enclosure"}


def workloads(steps: int):
    yield (
        "heater idle (1d contraction)",
        dict(
            lo=np.array([19.0]),
            hi=np.array([21.0]),
            A=np.array([[-0.2]]),
            b=np.array([0.0]),
            h=0.01,
            n_steps=steps,
            inv_lo=np.array([17.0]),
            inv_hi=np.array([np.inf]),
        ),
    )
    yield (
        "rotation (2d, no invariant)",
        dict(
            lo=np.array([0.9, -0.1]),
            hi=np.array([1.1, 0.1]),
            A=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            b=np.array([0.0, 0.0]),
            h=0.005,
            n_steps=steps,
            inv_lo=np.full(2, -np.inf),
            inv_hi=np.full(2, np.inf),
        ),
    )
    rng = np.random.default_rng(11)
    A = -np.eye(6) + 0.1 * rng.standard_normal((6, 6))
    yield (
        "dense 6d contraction",
        dict(
            lo=np.full(6, -1.0),
            hi=np.full(6, 1.0),
            A=A,
            b=rng.standard_normal(6) * 0.1,
            h=0.01,
            n_steps=steps,
            inv_lo=np.full(6, -100.0),
            inv_hi=np.full(6, 100.0),
        ),
    )
    yield (
        "growth beside a constant axis",
        dict(
            lo=np.array([1.0, 1.0]),
            hi=np.array([2.0, 1.0]),
            A=np.array([[0.5, 0.0], [0.0, 0.0]]),
            b=np.array([0.0, 0.0]),
            h=0.5,
            n_steps=3,
            inv_lo=np.full(2, -np.inf),
            inv_hi=np.full(2, np.inf),
        ),
    )


def radius(lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.max(np.maximum(np.abs(lo), np.abs(hi))))


def constant_axes(kw: dict, tube_lo: np.ndarray, tube_hi: np.ndarray) -> str:
    """'exact' or 'widened' for the axes with a zero row and zero b."""
    const = ~kw["A"].any(axis=1) & (kw["b"] == 0.0)
    if not const.any():
        return "-"
    kept = np.array_equal(tube_lo[const], kw["lo"][const]) and np.array_equal(
        tube_hi[const], kw["hi"][const]
    )
    return "exact" if kept else "widened"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=20000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(
        f"{'workload':<30} {'median':>10}  {'status':<12} {'tube width':>10}"
        f" {'radius x':>9} {'constant axes':>13}"
    )
    for name, kw in workloads(args.steps):
        tube_lo, tube_hi, _, _, status = flow_tube(**kw)
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            flow_tube(**kw)
            times.append(time.perf_counter() - t0)
        width = float(np.max(tube_hi - tube_lo))
        ratio = radius(tube_lo, tube_hi) / radius(kw["lo"], kw["hi"])
        print(
            f"{name:<30} {statistics.median(times) * 1e3:>8.2f}ms  "
            f"{STATUS[status]:<12} {width:>10.4g} {ratio:>9.4f} "
            f"{constant_axes(kw, tube_lo, tube_hi):>13}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
