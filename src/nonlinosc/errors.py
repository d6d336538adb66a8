"""Exception types shared across the package."""


class SpecError(ValueError):
    """Invalid potential parameters or unparseable potential text."""


class UnsupportedSpecError(SpecError):
    """Valid potential passed to an operation that does not support it."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed its self-consistency or iteration cap."""


class GridError(RuntimeError):
    """Grid construction or grid compatibility failure."""


class GridGrowthExhaustedError(GridError):
    """A sampled state is still above 10% of its peak at the grid extent cap."""


class IncompatibleDomainError(GridError):
    """Two sampled wavefunctions do not share a grid."""


class NormalizationError(ValueError):
    """Wavefunction has zero or non-finite norm."""

