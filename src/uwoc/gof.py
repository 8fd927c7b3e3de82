"""Goodness-of-fit scoring of a fitted mixture against raw samples.

Two scores: the mean squared error between the model CDF and the empirical
distribution function at the sorted sample points, and the coefficient of
determination between the model density and a normalized histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MixtureModel
from .errors import DataError, HistogramError, UndefinedScoreError, check_integer, checked_array

# auto bin selection (Freedman-Diaconis) is clamped into this range
DEFAULT_BIN_RANGE = (20, 200)


@dataclass(frozen=True)
class Histogram:
    """Equal-width density histogram with its raw counts; densities are finite and >= 0."""

    bin_edges: np.ndarray
    densities: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        dens = checked_array(self.densities, "density", allow_zero=True)
        counts = np.asarray(self.counts, dtype=int)
        if edges.ndim != 1 or len(edges) < 2 or not np.all(np.diff(edges) > 0):
            raise HistogramError("bin_edges must be strictly increasing")
        if len(dens) != len(edges) - 1 or len(counts) != len(dens):
            raise HistogramError("densities/counts do not match the bin count")
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
    residuals of the i/n convention.  No samples, or one that is not finite
    and >= 0, is a DataError.
    """
    arr = np.sort(checked_array(samples, "sample", allow_zero=True).ravel())
    if arr.size == 0:
        raise DataError("no samples given")
    n = arr.size
    positions = (np.arange(1, n + 1) - 0.5) / n
    residual = positions - model.cdf(arr)
    return float(np.mean(residual**2))


def build_histogram(samples, bins="auto"):
    """Equal-width histogram over [min, max] with unit-integral densities.

    ``bins`` is a count (an integer >= 1, else ValueError) or ``'auto'``, the
    Freedman-Diaconis count clamped into ``DEFAULT_BIN_RANGE``.  All-equal
    samples cannot be binned, nor samples whose span is too narrow for
    ``bins`` distinct edges, or too wide for the densities to be finite.
    Samples are checked as in :func:`mse_cdf`.
    """
    arr = checked_array(samples, "sample", allow_zero=True).ravel()
    if arr.size < 2:
        raise HistogramError("need at least two samples to build a histogram")
    lo, hi = float(arr.min()), float(arr.max())
    if not hi > lo:
        raise HistogramError("all samples are equal; histogram is degenerate")
    if bins == "auto":
        q75, q25 = np.percentile(arr, [75, 25])
        width = 2.0 * float(q75 - q25) / arr.size ** (1.0 / 3.0)
        # a zero width (equal quartiles, or a subnormal IQR that underflows)
        # and a ratio that overflows to inf both ask for the most bins
        m = math.ceil(min((hi - lo) / width, DEFAULT_BIN_RANGE[1])) if width > 0 else DEFAULT_BIN_RANGE[1]
        m = int(np.clip(m, *DEFAULT_BIN_RANGE))
    else:
        check_integer(1, bins=bins)
        m = int(bins)
    try:
        counts, edges = np.histogram(arr, bins=m, range=(lo, hi))
    except ValueError as exc:  # the edges of a subnormal span coincide
        raise HistogramError(f"cannot split [{lo!r}, {hi!r}] into {m} bins: {exc}") from exc
    widths = np.diff(edges)
    widest = float(widths.max())
    if not math.isfinite(arr.size * widest):  # n * width scales the densities
        raise HistogramError(f"{arr.size} samples in bins {widest!r} wide overflow the densities")
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
