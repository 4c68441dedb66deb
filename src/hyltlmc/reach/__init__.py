"""Interval box reachability for affine hybrid automata."""

from .engine import ReachResult, reachable

__all__ = ["ReachResult", "reachable"]
