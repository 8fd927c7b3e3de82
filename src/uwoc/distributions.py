"""Irradiance fading mixture models.

Three competing two-lobe distributions for the received optical intensity:
an Exponential lobe (signal blockage by air bubbles) mixed with either a
Generalized Gamma lobe (the primary model), a Gamma lobe (its shape-one
special case, for thermally uniform water), or a Lognormal lobe (comparison
baseline).  Each exposes the same surface: pdf, cdf, integer moments,
scintillation index, and sampling.  The shared ``_Mixture`` holds the
exponential lobe, the weight and the mixing, and each variant writes only its
second lobe; the Gamma lobe runs the Generalized Gamma lobe's code at c = 1.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import astuple, dataclass, fields
from typing import Union

import numpy as np

from .errors import check_finite, check_positive, checked_array
from .special import sp

# mixture weights below this are treated as an absent component
WEIGHT_EPS = 1e-12

# exponent clip keeping exp() inside float range; safe only where exp(t) is an
# additive term (the GG log density, the samplers), not where it is raised to a
# small power as in P(a, exp(t))
_EXP_LO, _EXP_HI = -745.0, 709.0

# below this c ln(i/b), exp() nears the subnormal range and P(a, e^t) is taken
# as its leading series term; the next term is a e^t/(a+1) < 1e-300 relative
_GG_SERIES_T = -700.0

# smallest positive normal float: sampled values are kept at or above it, and
# the GG CDF's deep-tail series reads a value below it as 0
_TINY = float(np.finfo(float).tiny)


def _log_mix(omega, log_exp, log_second):
    """ln(e^x + e^y) and the exponential lobe's share e^x / (e^x + e^y).

    x and y are the weighted lobe log densities, both overwritten.  One pass of
    log-sum-exp: with m = max(x, y) and e = exp(-|x - y|), ln(e^x + e^y) =
    m + ln(1 + e), and the share is 1/(1 + e) where the exponential lobe is the
    larger and e/(1 + e) where it is not.  A lobe whose weight is below
    WEIGHT_EPS is absent: the other lobe's log density is returned as it is,
    with a share of 0 or 1.
    """
    if omega < WEIGHT_EPS:
        return log_second, np.zeros(log_second.shape)
    if 1.0 - omega < WEIGHT_EPS:
        return log_exp, np.ones(log_exp.shape)
    exp_wins = log_exp >= log_second
    log_mix = np.maximum(log_exp, log_second)
    e = np.minimum(log_exp, log_second, out=log_second)
    e -= log_mix
    np.exp(e, out=e)
    log_mix += np.log1p(e, out=log_exp)
    share = np.maximum(e, exp_wins, out=log_exp)
    e += 1.0
    share /= e
    return log_mix, share


def _exp(x):
    """e^x, or inf where it exceeds the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _scaled_moment(scale, n, log_ratio):
    """scale^n e^log_ratio, a lobe's n-th moment; taken in log space where a
    factor leaves the range of normal doubles, so inf where the product
    overflows and 0 only where it underflows."""
    try:
        power = scale**n
        if power >= _TINY:
            return power * math.exp(log_ratio)
    except OverflowError:
        pass
    return _exp(n * math.log(scale) + log_ratio)


def _maybe_scalar(value, template):
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(value)
    return value


class _Mixture(ABC):
    """Exponential lobe of weight omega and scale lam, mixed with a second lobe.

    The mixture owns the exponential lobe, the weight, the mixing of the log
    density, CDF and moments, the sampler and the parameter mapping; a variant
    supplies only its second lobe: ``_second_log_pdf``, ``_second_cdf``,
    ``_second_moment`` and ``_sample_second``.  A lobe whose weight is below
    WEIGHT_EPS is absent from the density and the CDF; a lobe whose weight is
    exactly 0 is absent from the moments.
    """

    variant: str

    @abstractmethod
    def _second_log_pdf(self, i, log_i):
        """log of the weighted second-lobe density (weight 1 - omega included)."""

    @abstractmethod
    def _second_cdf(self, i):
        """Second-lobe CDF at an array of irradiances i >= 0."""

    @abstractmethod
    def _second_moment(self, n):
        """Second-lobe E[I^n] for integer n >= 0."""

    @abstractmethod
    def _sample_second(self, rng, n):
        """Draw n values from the second (non-exponential) lobe."""

    def component_log_pdfs(self, i, *, log_i=None):
        """Weighted per-lobe log densities (exponential lobe, second lobe) as arrays.

        An ``i`` that is not finite and positive raises DataError.  ``log_i``
        is ln i of an array ``i`` the caller has already checked; passing it
        skips the check and the logarithm.
        """
        if log_i is None:
            i = np.atleast_1d(checked_array(i, "i"))
            log_i = np.log(i)
        if 1.0 - self.omega < WEIGHT_EPS:
            return self._exp_log_pdf(i), np.full_like(log_i, -np.inf)
        return self._exp_log_pdf(i), self._second_log_pdf(i, log_i)

    def log_pdf(self, i):
        """log of the mixture density at irradiance i > 0 (else DataError)."""
        log_mix = _log_mix(self.omega, *self.component_log_pdfs(i))[0]
        return log_mix[0] if np.ndim(i) == 0 else log_mix

    def pdf(self, i):
        out = np.exp(self.log_pdf(i))
        return _maybe_scalar(out, i)

    def cdf(self, i):
        """Mixture CDF at irradiance i >= 0 (else DataError at the first bad entry)."""
        arr = checked_array(i, "i", allow_zero=True)
        second = self._second_cdf(arr)
        omega = self.omega
        if omega < WEIGHT_EPS:
            omega = 0.0
        elif 1.0 - omega < WEIGHT_EPS:
            omega = 1.0
        out = omega * -np.expm1(-arr / self.lam) + (1.0 - omega) * second
        return _maybe_scalar(out, i)

    def moment(self, n):
        """E[I^n] for integer n >= 0, from the closed-form lobe moments.

        A moment beyond the double range is inf.  A lobe of weight 0 is left
        out, so that a second lobe whose moment overflows does not turn the
        moments of a pure exponential model into NaN (0 times inf).
        """
        if n < 0 or n != int(n):
            raise ValueError("moment order must be a non-negative integer")
        n = int(n)
        out = 0.0
        if self.omega > 0.0:
            out = self.omega * _scaled_moment(self.lam, n, 0.0) * math.factorial(n)
        if self.omega < 1.0:
            out += (1.0 - self.omega) * self._second_moment(n)
        return out

    def scintillation_index(self):
        """Normalized intensity variance E[I^2]/E[I]^2 - 1, or NaN where E[I^2]
        or E[I]^2 leaves the double range and the ratio cannot be formed."""
        m1 = self.moment(1)
        m2 = self.moment(2)
        try:
            return m2 / m1**2 - 1.0 if m2 < math.inf else math.nan
        except ArithmeticError:  # E[I]^2 overflows, or underflows to 0
            return math.nan

    def sample(self, rng, size=None):
        """Draw irradiance values using ``rng`` (a numpy Generator)."""
        n = 1 if size is None else int(size)
        pick_exp = rng.random(n) < self.omega
        out = np.empty(n)
        k = int(pick_exp.sum())
        if k:
            out[pick_exp] = rng.exponential(self.lam, size=k)
        if k < n:
            out[~pick_exp] = self._sample_second(rng, n - k)
        np.maximum(out, _TINY, out=out)
        return float(out[0]) if size is None else out

    def params_dict(self):
        """Variant-specific parameter mapping (JSON-friendly)."""
        return dict(zip(_keys(self), astuple(self)))

    def to_dict(self):
        return {"model": self.variant, "params": self.params_dict()}

    def _exp_log_pdf(self, i):
        # log of the exponential-lobe density, weight included
        if self.omega < WEIGHT_EPS:
            return np.full_like(i, -np.inf)
        out = np.divide(i, self.lam)
        return np.subtract(math.log(self.omega) - math.log(self.lam), out, out=out)


def _keys(variant):
    """JSON names of a variant's parameters, in field order."""
    return ["lambda" if f.name == "lam" else f.name for f in fields(variant)]


def _validate_weight(omega):
    if not 0.0 <= omega <= 1.0:  # False for NaN too
        raise ValueError(f"omega must lie in [0, 1], got {omega!r}")


@dataclass(frozen=True)
class EggParams(_Mixture):
    """Exponential plus Generalized Gamma mixture.

    Parameters
    ----------
    omega : float
        Mixture weight of the exponential lobe; 0 and 1 are admitted as
        degenerate single-component models.
    lam : float
        Exponential scale (normalized irradiance units).
    a, b, c : float
        Generalized Gamma shape, scale, and power-shape parameters; the
        second-lobe density is c i^{ac-1} exp(-(i/b)^c) / (b^{ac} Gamma(a)).
    """

    omega: float
    lam: float
    a: float
    b: float
    c: float

    variant = "egg"
    # each class holds its own cdf and sample, so that they can be wrapped
    # per class (the benchmark's tracer looks them up in the class __dict__)
    cdf, sample = _Mixture.cdf, _Mixture.sample

    def __post_init__(self):
        _validate_weight(self.omega)
        check_positive(lam=self.lam, a=self.a, b=self.b, c=self.c)

    @property
    def _gg(self):
        """(a, b, c) of the GG lobe; EgParams runs this lobe's code at c = 1."""
        return self.a, self.b, self.c

    def _second_log_pdf(self, i, log_i):
        # evaluated in log space: c up to a few hundred makes (i/b)^c overflow
        a, b, c = self._gg
        if c == 1.0:
            # no log-exp round trip, so the Gamma special case is bit-exact
            power = i / b
            overflow = None
        else:
            power = np.subtract(log_i, math.log(b))
            power *= c
            overflow = power > _EXP_HI
            np.exp(np.clip(power, _EXP_LO, _EXP_HI, out=power), out=power)
        out = np.multiply(log_i, a * c - 1.0)
        out += math.log1p(-self.omega) + math.log(c)
        out -= a * c * math.log(b)
        out -= power
        out -= sp.gammaln(a)
        if overflow is not None:
            out[overflow] = -np.inf
        return out

    def _second_cdf(self, i):
        a, b, c = self._gg
        if c == 1.0:
            return sp.gammainc(a, i / b)
        with np.errstate(divide="ignore"):
            t = c * (np.log(i) - math.log(b))
        x = np.exp(np.clip(t, _GG_SERIES_T, _EXP_HI))
        x = np.where(t > _EXP_HI, np.inf, x)
        # deep lower tail in log space: P(a, e^t) = e^{a t} / Gamma(a + 1)
        series = np.exp(a * np.minimum(t, _GG_SERIES_T) - sp.gammaln(a + 1.0))
        # subnormals read 0 as from scipy's P(a, x) past the switch: the CDF never falls
        series = np.where(series < _TINY, 0.0, series)
        return np.where(t < _GG_SERIES_T, series, sp.gammainc(a, x))

    def _second_moment(self, n):
        a, b, c = self._gg
        return _scaled_moment(b, n, sp.gammaln(a + n / c) - sp.gammaln(a))

    def _sample_second(self, rng, n):
        a, b, c = self._gg
        if a >= 0.1:
            return b * rng.standard_gamma(a, size=n) ** (1.0 / c)
        # small shapes: gamma draws underflow, so build log G from the
        # boost identity G =d Gamma(a+1) * U^(1/a)
        log_g = np.log(rng.standard_gamma(a + 1.0, size=n))
        log_g += np.log(rng.random(n)) / a
        return b * np.exp(np.maximum(log_g / c, _EXP_LO))


@dataclass(frozen=True)
class EgParams(_Mixture):
    """Exponential plus Gamma mixture (shape-one special case).

    ``alpha`` and ``beta`` are the Gamma shape and scale.  The Gamma lobe is
    the Generalized Gamma lobe at c = 1 and runs EggParams' code, so this
    model and ``as_egg()`` give the same floats.
    """

    omega: float
    lam: float
    alpha: float
    beta: float

    variant = "eg"
    cdf, sample = _Mixture.cdf, _Mixture.sample  # per class: see EggParams

    def __post_init__(self):
        _validate_weight(self.omega)
        check_positive(lam=self.lam, alpha=self.alpha, beta=self.beta)

    def as_egg(self):
        """The same distribution as a power-shape-one EggParams."""
        return EggParams(self.omega, self.lam, self.alpha, self.beta, 1.0)

    @property
    def _gg(self):
        return self.alpha, self.beta, 1.0

    _second_log_pdf = EggParams._second_log_pdf
    _second_cdf = EggParams._second_cdf
    _second_moment = EggParams._second_moment
    _sample_second = EggParams._sample_second


@dataclass(frozen=True)
class ExpLognormalParams(_Mixture):
    """Exponential plus Lognormal mixture (comparison baseline).

    ``mu`` and ``sigma2`` are the mean and variance of log-intensity; ``mu``
    must be finite and ``lam``, ``sigma2`` finite and positive, else
    ValueError.  This
    variant is scored against the others in goodness-of-fit comparisons only;
    no SNR-domain performance formulas are defined for it.
    """

    omega: float
    lam: float
    mu: float
    sigma2: float

    variant = "explognormal"
    cdf, sample = _Mixture.cdf, _Mixture.sample  # per class: see EggParams

    def __post_init__(self):
        _validate_weight(self.omega)
        check_positive(lam=self.lam, sigma2=self.sigma2)
        check_finite(mu=self.mu)

    def _second_log_pdf(self, i, log_i):
        s2 = self.sigma2
        out = np.subtract(math.log1p(-self.omega), log_i)
        out -= 0.5 * math.log(2.0 * math.pi * s2)
        z = np.subtract(log_i, self.mu)
        z *= z
        z /= 2.0 * s2
        out -= z
        return out

    def _second_cdf(self, i):
        with np.errstate(divide="ignore"):
            z = (np.log(i) - self.mu) / math.sqrt(self.sigma2)
        return sp.ndtr(z)

    def _second_moment(self, n):
        return _exp(n * self.mu + 0.5 * n**2 * self.sigma2)

    def _sample_second(self, rng, n):
        return rng.lognormal(self.mu, math.sqrt(self.sigma2), size=n)


MixtureModel = Union[EggParams, EgParams, ExpLognormalParams]

_VARIANTS = {cls.variant: cls for cls in (EggParams, EgParams, ExpLognormalParams)}


def model_from_dict(payload):
    """Rebuild a mixture model from its ``to_dict`` form."""
    try:
        variant = payload["model"]
        params = payload["params"]
        cls = _VARIANTS[variant]
    except KeyError as exc:
        raise ValueError(f"unknown or incomplete model payload: {exc}") from exc
    keys = _keys(cls)
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError(f"model '{variant}' is missing parameters {missing}")
    return cls(*(float(params[k]) for k in keys))
