"""Exception and warning types shared across the package."""

import math
from numbers import Real


class HyltlError(Exception):
    """Base class for all errors raised by this package."""

    code = "E_GENERIC"


class ParseError(HyltlError):
    """Syntax error in a formula or model text, with source position."""

    code = "E_PARSE"

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}" if line else message)


class ModelError(HyltlError):
    """Ill-formed automaton or model file (undeclared names, partial maps)."""

    code = "E_MODEL"


class ComplementError(HyltlError):
    """A negated flow atom has no usable complement constraint."""

    code = "E_COMPLEMENT"


class UnsupportedDynamicsError(HyltlError):
    """Location dynamics outside the affine/rectangular fragment."""

    code = "E_DYNAMICS"


class ExportError(HyltlError):
    """Model cannot be exported (e.g. nonlinear constraints)."""

    code = "E_EXPORT"


class TraceError(HyltlError):
    """Ill-formed trace input or failed trace generation."""

    code = "E_TRACE"


class ConfigError(HyltlError):
    """A numeric setting outside its usable range (step 0, nan, ...)."""

    code = "E_CONFIG"


def check_settings(positive=(), nonnegative=()) -> None:
    """Raise ConfigError unless every (name, value) pair of positive holds
    a finite number > 0 and of nonnegative a finite number >= 0. A bool
    is neither, and an integer beyond the float range is not finite."""

    def finite(v) -> bool:
        try:
            return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)
        except OverflowError:
            return False

    for name, v in positive:
        if not (finite(v) and v > 0):
            raise ConfigError(f"{name} must be a finite number > 0, got {v!r}")
    for name, v in nonnegative:
        if not (finite(v) and v >= 0):
            raise ConfigError(f"{name} must be a finite number >= 0, got {v!r}")


class ComplementStrengtheningWarning(UserWarning):
    """NNF rewrote a negated flow atom to its pointwise complement.

    Trajectory-level negation ("some sample violates c") is weaker than the
    complement atom ("every sample satisfies the complement"); verdicts on
    trajectories straddling the constraint boundary may differ.
    """
