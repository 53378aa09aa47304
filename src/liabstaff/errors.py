"""Shared exception types."""


class ParameterError(ValueError):
    """A model or simulation parameter is unknown, out of range or out of order."""


class UnstableError(ValueError):
    """Offered load meets or exceeds capacity; the queue has no steady state."""


class InfeasibleError(ValueError):
    """The requested constraint set admits no feasible policy."""
