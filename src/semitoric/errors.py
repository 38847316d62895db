"""Shared exception types."""


class SemitoricError(Exception):
    """Base class for all library-specific errors."""


class DegenerateSystemError(SemitoricError):
    """The discriminant lies inside the degeneracy band; the system is not
    semitoric."""


class NonconvergenceError(SemitoricError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class ConsistencyError(SemitoricError):
    """An internal self-check failed; the result it guards is not returned."""
