"""Uniformly sampled trajectories and flow-constraint checking.

satisfies_flow judges a constraint on a trajectory's state and derivative
columns with _Comparison.judge: float64 by numpy's rules, +-inf compared,
a nan side an E_TRACE error, a derivative constraint skipping the ends.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import TraceError, check_settings
from .constraints import FlowConstraint

DEFAULT_FLOW_TOL = 1e-9


def check_tol(tol) -> None:
    """Raise ConfigError unless the flow tolerance is a finite number >= 0.

    A nan tolerance fails every comparison and an infinite one passes
    every inequality, so either would decide a trace without reading it.
    """
    check_settings(nonnegative=[("tol", tol)])


class SampledTrajectory:
    """A trajectory represented by equally spaced samples.

    values is an (n_samples, n_vars) array over the named variables; derivs
    holds per-sample time derivatives with the same shape. When derivatives
    are not supplied they are estimated by central differences (one-sided at
    the endpoints); flow checking never consults the endpoint derivatives, so
    the one-sided estimates carry no semantic weight. Estimating them needs
    finite values: a non-finite one is a TraceError naming its sample.
    """

    __slots__ = ("names", "values", "derivs", "h")

    def __init__(
        self,
        names: Sequence[str],
        values: np.ndarray,
        h: float,
        derivs: np.ndarray | None = None,
    ):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(names):
            raise TraceError("trajectory values must be (n_samples, n_vars)")
        if values.shape[0] < 1:
            raise TraceError("trajectory needs at least one sample")
        if not (np.isfinite(h) and h > 0):
            raise TraceError(f"sample step must be finite and positive, got {h}")
        if derivs is None:
            if not np.isfinite(values).all():
                i, j = np.argwhere(~np.isfinite(values))[0]
                value = f"{names[j]}={values[i, j]:g}"
                raise TraceError(f"sample {i} holds a non-finite value {value}")
            derivs = _central_differences(values, h)
        else:
            derivs = np.asarray(derivs, dtype=float)
            if derivs.shape != values.shape:
                raise TraceError("derivative samples must match value samples in shape")
        self.names = tuple(names)
        self.values = values
        self.derivs = derivs
        self.h = float(h)

    @classmethod
    def from_function(
        cls,
        names: Sequence[str],
        f: Callable[[float], Sequence[float]],
        duration: float,
        h: float,
        df: Callable[[float], Sequence[float]] | None = None,
    ) -> "SampledTrajectory":
        """Sample a closed-form trajectory on [0, duration]."""
        n = int(round(duration / h)) + 1
        ts = np.arange(n) * h
        vals = np.array([f(t) for t in ts], dtype=float)
        ders = np.array([df(t) for t in ts], dtype=float) if df is not None else None
        return cls(names, vals, h, ders)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) * self.h

    @property
    def fstate(self) -> dict[str, float]:
        return self.value_at(0)

    @property
    def lstate(self) -> dict[str, float]:
        return self.value_at(self.n_samples - 1)

    def value_at(self, i: int) -> dict[str, float]:
        return dict(zip(self.names, self.values[i]))

    def __repr__(self) -> str:
        return (
            f"SampledTrajectory(vars={self.names}, n={self.n_samples}, h={self.h})"
        )


def _central_differences(values: np.ndarray, h: float) -> np.ndarray:
    n = values.shape[0]
    d = np.zeros_like(values)
    if n == 1:
        return d
    d[0] = (values[1] - values[0]) / h
    d[-1] = (values[-1] - values[-2]) / h
    if n > 2:
        d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    return d


def satisfies_flow(
    traj: SampledTrajectory, c: FlowConstraint, tol: float = DEFAULT_FLOW_TOL
) -> bool:
    """Check a flow constraint against every sample of a trajectory, a
    derivative constraint at interior samples only, with slack tol.
    Raises TraceError when a side is nan at a checked sample."""
    state = {n: traj.values[:, i] for i, n in enumerate(traj.names)}
    dot = {n: traj.derivs[:, i] for i, n in enumerate(traj.names)}
    return c.judge(state, dot, tol=tol)
