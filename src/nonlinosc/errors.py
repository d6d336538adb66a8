"""Exception types shared across the package."""


class SpecError(ValueError):
    """Invalid potential parameters or unparseable potential text."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed its self-consistency or iteration cap."""


class GridError(RuntimeError):
    """Grid construction or grid compatibility failure."""


class NormalizationError(ValueError):
    """Wavefunction has zero or non-finite norm."""

