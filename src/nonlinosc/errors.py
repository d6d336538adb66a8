"""Exception types shared across the package."""


class NonlinoscError(Exception):
    """Base of the package's errors; each also keeps a builtin base, such as ValueError."""


class SpecError(NonlinoscError, ValueError):
    """Invalid potential parameters or unparseable potential text."""


class DomainError(NonlinoscError, ValueError):
    """Argument outside the mathematical domain of a special function."""


class ConvergenceError(NonlinoscError, RuntimeError):
    """An iterative evaluation failed its self-consistency or iteration cap."""


class GridError(NonlinoscError, RuntimeError):
    """Grid construction or grid compatibility failure."""


class NormalizationError(NonlinoscError, ValueError):
    """Wavefunction has zero or non-finite norm."""
