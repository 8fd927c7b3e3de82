"""Exception types shared across the package."""


class UwocError(Exception):
    """Base class for all package-specific errors."""


class ConvergenceError(UwocError):
    """A numerical routine failed to reach its tolerance.

    Carries the best available estimate and an error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class DataError(UwocError, ValueError):
    """Invalid sample data; ``index`` points at the first offending entry."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DegenerateComponentError(UwocError):
    """A mixture component has (numerically) no responsibility mass."""


class FitFailureError(UwocError):
    """Every EM restart ended degenerate; ``diagnostics`` holds per-restart info."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class HistogramError(UwocError, ValueError):
    """Samples cannot be binned (e.g. all values identical)."""


class UndefinedScoreError(UwocError, ZeroDivisionError):
    """A goodness-of-fit score is undefined (zero total variation)."""
