"""Shared exception types.

Every class derives from ``BlowfishError`` and keeps its builtin base, so
callers may catch either.
"""


class BlowfishError(Exception):
    """Base of every error this package defines."""


class BudgetExceededError(BlowfishError, RuntimeError):
    """An enumeration or search exceeded its configured budget."""


class InfeasibleConstraintsError(BlowfishError, ValueError):
    """No database satisfies the recorded constraint answers."""


class NonSparseConstraintsError(BlowfishError, ValueError):
    """Constraint set is not sparse with respect to the secret graph."""


class ShapeNotRecognizedError(BlowfishError, ValueError):
    """Constraint set does not match any specialized sensitivity shape."""


class InfiniteSensitivityError(BlowfishError, ValueError):
    """The query cannot be released with finite noise under this policy."""
