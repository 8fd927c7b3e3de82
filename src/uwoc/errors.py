"""Exception types shared across the package, and the input check of every
public entry point: ``checked_array`` for arrays (DataError at the first bad
entry's index) and ``check_positive`` for scalars (ValueError naming it), and
``check_finite`` for the scalars that may be zero or negative."""

import math

import numpy as np


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


def checked_array(x, name, *, allow_zero=False):
    """``x`` as a float array, each entry finite and positive (>= 0 with
    ``allow_zero``); else DataError at the flat index of the first that is not."""
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    ok = (flat >= 0.0 if allow_zero else flat > 0.0) & (flat < math.inf)
    if not ok.all():
        k = int(ok.argmin())
        value = float(flat[k])
        problem = "is not finite" if not math.isfinite(value) else "is negative" if value < 0.0 else "is zero"
        where = f"{name} {k}" if arr.ndim else name
        raise DataError(f"{where} {problem} ({value!r})", index=k)
    return arr


def check_positive(**scalars):
    """Raise ``ValueError`` naming the first of ``scalars`` that is not finite and positive."""
    for name, value in scalars.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_finite(**scalars):
    """Raise ``ValueError`` naming the first of ``scalars`` that is not finite."""
    for name, value in scalars.items():
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")
