"""Exception hierarchy shared by all wnc modules.

The CLI maps these onto exit codes: input problems exit 1, numeric
failures exit 2, instability/divergence verdicts exit 3 under --strict.
"""

__all__ = ["WncError", "ValidationError", "NumericFailure", "HeavyTailError",
           "UnstableSystemError"]


class WncError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(WncError):
    """Invalid input: bad parameter, malformed scenario, broken invariant."""


class NumericFailure(WncError):
    """A numeric procedure failed: no convergence, overflow, empty bracket."""


class HeavyTailError(WncError):
    """Tail certification found no positive exponential rate on the fit range."""


class UnstableSystemError(WncError):
    """The queue is not stable at the requested arrival rate."""
