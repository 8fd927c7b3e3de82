"""Goodness-of-fit scoring of a fitted mixture against raw samples.

Two scores: the mean squared error between the model CDF and the empirical
distribution function at the sorted sample points, and the coefficient of
determination between the model density and a normalized histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import MixtureModel
from .errors import HistogramError, UndefinedScoreError

__all__ = [
    "Histogram",
    "mse_cdf",
    "build_histogram",
    "r_square",
    "DEFAULT_BIN_RANGE",
]

# auto bin selection (Freedman-Diaconis) is clamped into this range
DEFAULT_BIN_RANGE = (20, 200)


@dataclass(frozen=True)
class Histogram:
    """Equal-width density histogram with its raw counts."""

    bin_edges: np.ndarray
    densities: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        counts = np.asarray(self.counts, dtype=int)
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise HistogramError("bin_edges must be strictly increasing")
        if len(dens) != len(edges) - 1 or len(counts) != len(dens):
            raise HistogramError("densities/counts do not match the bin count")
        if np.any(dens < 0):
            raise HistogramError("densities must be non-negative")
        total = float(np.sum(dens * np.diff(edges)))
        if abs(total - 1.0) > 1e-12:
            raise HistogramError(f"densities integrate to {total!r}, expected 1")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "counts", counts)

    @property
    def n_bins(self):
        return len(self.densities)

    @property
    def centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def mse_cdf(samples, model: MixtureModel):
    """Mean squared CDF error at the sorted sample points.

    The empirical distribution is evaluated with the midpoint plotting
    position (i - 0.5)/n, which avoids the guaranteed nonzero end-point
    residuals of the i/n convention.
    """
    arr = np.sort(np.asarray(samples, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError("need at least one sample")
    n = arr.size
    positions = (np.arange(1, n + 1) - 0.5) / n
    residual = positions - model.cdf(arr)
    return float(np.mean(residual**2))


def build_histogram(samples, bins="auto"):
    """Equal-width histogram over [min, max] with unit-integral densities.

    ``bins='auto'`` applies the Freedman-Diaconis count clamped into
    ``DEFAULT_BIN_RANGE``; all-equal samples cannot be binned.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < 2:
        raise HistogramError("need at least two samples to build a histogram")
    lo, hi = float(arr.min()), float(arr.max())
    if not hi > lo:
        raise HistogramError("all samples are equal; histogram is degenerate")
    if bins == "auto":
        q75, q25 = np.percentile(arr, [75, 25])
        iqr = q75 - q25
        if iqr > 0:
            width = 2.0 * iqr / arr.size ** (1.0 / 3.0)
            m = int(np.ceil((hi - lo) / width))
        else:
            m = DEFAULT_BIN_RANGE[1]
        m = int(np.clip(m, *DEFAULT_BIN_RANGE))
    else:
        m = int(bins)
        if m < 1:
            raise HistogramError("bin count must be >= 1")
    counts, edges = np.histogram(arr, bins=m, range=(lo, hi))
    widths = np.diff(edges)
    densities = counts / (arr.size * widths)
    # exact renormalization against accumulated rounding
    densities = densities / float(np.sum(densities * widths))
    return Histogram(edges, densities, counts)


def r_square(hist: Histogram, model: MixtureModel):
    """Coefficient of determination of the model density against the histogram.

    The model is evaluated at bin centers; the score is 1 - SS_err/SS_tot
    where SS_tot measures the histogram's variation around its mean density.
    """
    measured = hist.densities
    predicted = model.pdf(hist.centers)
    mean = measured.mean()
    ss_tot = float(np.sum((measured - mean) ** 2))
    if ss_tot == 0.0:
        raise UndefinedScoreError("histogram has zero total variation")
    ss_err = float(np.sum((measured - predicted) ** 2))
    return 1.0 - ss_err / ss_tot
