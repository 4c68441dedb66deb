"""Machine speed, read off a fixed reference loop timed between operations.

On a shared host the machine's speed swings by up to 2x: within a run
for seconds at a time, and between runs for minutes at a time, so the
same operation on the same inputs takes up to twice as long in one run
as in another, in spawned processes too. The reference loop is
interpreted Python (dict stores and float arithmetic) and its time moves
with the machine's speed the way the program's does. An operation's
time divided by the loop's time around it does not, and the benchmark
reports every time in seconds at the reference speed: that quotient
times REFERENCE_S, the loop's time when the machine is not slowed down.

The loop belongs to the benchmark and never changes with the program, so
a change to the program moves the scaled times as it moves the raw ones.
It reads the speed of the CPU it runs on; run.py keeps the benchmark and
its probes on one CPU.

Samples are taken between operations, never during one, at most every
INTERVAL_S. An operation is scaled by the mean of the last sample
before it and the first sample after it.
"""

from __future__ import annotations

import statistics
import time

# The loop's time on an unloaded 2.0 GHz Xeon vCPU; scaled times read as
# seconds on that machine.
REFERENCE_S = 0.0015
INTERVAL_S = 0.2
REPEATS = 3  # a sample is the fastest of this many loops


def reference_loop() -> float:
    d = {}
    s = 0.0
    for i in range(15000):
        d[i & 255] = s
        s += i * 0.5
    return s


class Speedometer:
    """Reference-loop samples taken between operations."""

    def __init__(self):
        self.refs: list[float] = []
        self._last = -float("inf")

    def sample(self) -> int:
        """Take a sample now; its index."""
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - t0)
        self.refs.append(best)
        self._last = time.perf_counter()
        return len(self.refs) - 1

    def mark(self) -> int:
        """Index of the latest sample, taking one first when due. Whoever
        marks an operation takes a sample once it has ended."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            return self.sample()
        return len(self.refs) - 1

    def scaled(self, seconds: float, mark: int) -> float:
        """seconds, spent between sample mark and the next, at the
        reference speed."""
        ref = (self.refs[mark] + self.refs[mark + 1]) / 2
        return seconds * REFERENCE_S / ref

    def summary(self) -> str:
        q = statistics.quantiles(self.refs, n=10)
        return (
            f"reference loop, {len(self.refs)} samples: ms p10 {q[0] * 1e3:.3f} "
            f"p50 {q[4] * 1e3:.3f} p90 {q[8] * 1e3:.3f} "
            f"(unloaded {REFERENCE_S * 1e3:.3f})"
        )
