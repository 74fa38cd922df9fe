"""Exception types shared across the toolkit."""


class LogChoquardError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(LogChoquardError, ValueError):
    """A constructor or operation received an out-of-range parameter."""


class GridMismatchError(LogChoquardError, ValueError):
    """Two fields (or a field and a weight) live on different grids."""


class DomainError(LogChoquardError, ValueError):
    """Scalar argument outside the mathematical domain of the map."""


class NonConvergenceError(LogChoquardError, RuntimeError):
    """An iterative scalar solve failed to reach its tolerance."""


class EmptyFamilyError(LogChoquardError, ValueError):
    """A search was asked to run over an empty field family."""


class UnsupportedGridError(LogChoquardError, ValueError):
    """The requested fast path does not support this grid layout."""


class ResolutionFailureError(LogChoquardError, ValueError):
    """The grid cannot resolve a requested feature (e.g. a plateau)."""


class GeometryFailureError(LogChoquardError, RuntimeError):
    """Mountain-pass geometry could not be certified for this problem."""


class NoInteriorMaxError(LogChoquardError, RuntimeError):
    """A ray analysis found no interior maximum; raise t_max and retry."""


class ValidationError(LogChoquardError, ValueError):
    """A run configuration failed validation before any computation."""
