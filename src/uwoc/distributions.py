"""Irradiance fading mixture models.

Three competing two-lobe distributions for the received optical intensity:
an Exponential lobe (signal blockage by air bubbles) mixed with either a
Generalized Gamma lobe (the primary model), a Gamma lobe (its shape-one
special case, for thermally uniform water), or a Lognormal lobe (comparison
baseline).  Each exposes the same surface: pdf, cdf, integer moments,
scintillation index, and sampling.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special as sp

__all__ = [
    "EggParams",
    "EgParams",
    "ExpLognormalParams",
    "MixtureModel",
    "model_from_dict",
    "WEIGHT_EPS",
]

# mixture weights below this are treated as an absent component
WEIGHT_EPS = 1e-12

# exponent clip keeping exp() inside float range; safe only where exp(t) is an
# additive term (the GG log density, the samplers), not where it is raised to a
# small power as in P(a, exp(t))
_EXP_LO, _EXP_HI = -745.0, 709.0

# below this c ln(i/b), exp() nears the subnormal range and P(a, e^t) is taken
# as its leading series term; the next term is a e^t/(a+1) < 1e-300 relative
_GG_SERIES_T = -700.0

# smallest positive normal float; guards sampled values against underflow to 0
_TINY = float(np.finfo(float).tiny)


def _as_positive_array(i, name="i", allow_zero=False):
    arr = np.asarray(i, dtype=float)
    bad = (arr < 0) | ~np.isfinite(arr) if allow_zero else (arr <= 0) | ~np.isfinite(arr)
    if np.any(bad):
        kind = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be {kind} and finite")
    return arr


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


def _maybe_scalar(value, template):
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(value)
    return value


class _Mixture(ABC):
    """Shared surface of the two-lobe irradiance models."""

    variant: str

    @abstractmethod
    def _second_log_pdf(self, i, log_i):
        """log of the weighted second-lobe density (weight 1 - omega included)."""

    def component_log_pdfs(self, i, *, log_i=None):
        """Weighted per-lobe log densities (exponential lobe, second lobe) as arrays.

        ``log_i`` is ln i of an array ``i`` the caller has already validated
        (positive and finite); passing it skips the check and the logarithm.
        """
        if log_i is None:
            i = np.atleast_1d(_as_positive_array(i))
            log_i = np.log(i)
        return self._exp_log_pdf(i), self._second_log_pdf(i, log_i)

    def log_pdf(self, i):
        """log of the mixture density at irradiance i > 0."""
        log_mix = _log_mix(self.omega, *self.component_log_pdfs(i))[0]
        return log_mix[0] if np.ndim(i) == 0 else log_mix

    @abstractmethod
    def cdf(self, i):
        """Mixture CDF at irradiance i >= 0."""

    @abstractmethod
    def moment(self, n):
        """E[I^n] for integer n >= 0, from the closed-form component moments."""

    @abstractmethod
    def sample(self, rng, size=None):
        """Draw irradiance values using ``rng`` (a numpy Generator)."""

    @abstractmethod
    def params_dict(self):
        """Variant-specific parameter mapping (JSON-friendly)."""

    def pdf(self, i):
        out = np.exp(self.log_pdf(i))
        return _maybe_scalar(out, i)

    @property
    def effective_weight(self):
        """Mixing weight with numerically absent components snapped to 0/1."""
        if self.omega < WEIGHT_EPS:
            return 0.0
        if 1.0 - self.omega < WEIGHT_EPS:
            return 1.0
        return self.omega

    def scintillation_index(self):
        """Normalized intensity variance E[I^2]/E[I]^2 - 1."""
        m1 = self.moment(1)
        m2 = self.moment(2)
        return m2 / m1**2 - 1.0

    def mean(self):
        return self.moment(1)

    def to_dict(self):
        return {"model": self.variant, "params": self.params_dict()}

    def _exp_log_pdf(self, i):
        # log of the exponential-lobe density, weight included
        if self.omega < WEIGHT_EPS:
            return np.full_like(i, -np.inf)
        out = np.divide(i, self.lam)
        return np.subtract(math.log(self.omega) - math.log(self.lam), out, out=out)

    def _exp_cdf(self, i):
        return -np.expm1(-i / self.lam)

    def _sample_components(self, rng, size):
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

    @abstractmethod
    def _sample_second(self, rng, n):
        """Draw n values from the second (non-exponential) lobe."""


def _validate_weight(omega):
    if not (0.0 <= omega <= 1.0) or not np.isfinite(omega):
        raise ValueError(f"omega must lie in [0, 1], got {omega!r}")


def _validate_positive(**kwargs):
    for name, value in kwargs.items():
        if not np.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


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

    def __post_init__(self):
        _validate_weight(self.omega)
        _validate_positive(lam=self.lam, a=self.a, b=self.b, c=self.c)

    def _second_log_pdf(self, i, log_i):
        # evaluated in log space: c up to a few hundred makes (i/b)^c overflow
        if 1.0 - self.omega < WEIGHT_EPS:
            return np.full_like(log_i, -np.inf)
        a, b, c = self.a, self.b, self.c
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

    def cdf(self, i):
        arr = _as_positive_array(i, allow_zero=True)
        a = self.a
        if self.c == 1.0:
            gg = sp.gammainc(a, arr / self.b)
        else:
            with np.errstate(divide="ignore"):
                t = self.c * (np.log(arr) - math.log(self.b))
            x = np.exp(np.clip(t, _GG_SERIES_T, _EXP_HI))
            x = np.where(t > _EXP_HI, np.inf, x)
            # deep lower tail in log space: P(a, e^t) = e^{a t} / Gamma(a + 1)
            series = np.exp(a * np.minimum(t, _GG_SERIES_T) - sp.gammaln(a + 1.0))
            gg = np.where(t < _GG_SERIES_T, series, sp.gammainc(a, x))
        om = self.effective_weight
        out = om * self._exp_cdf(arr) + (1.0 - om) * gg
        return _maybe_scalar(out, i)

    def moment(self, n):
        if n < 0 or n != int(n):
            raise ValueError("moment order must be a non-negative integer")
        n = int(n)
        gg = self.b**n * math.exp(sp.gammaln(self.a + n / self.c) - sp.gammaln(self.a))
        return self.omega * self.lam**n * math.factorial(n) + (1.0 - self.omega) * gg

    def _sample_second(self, rng, n):
        a, b, c = self.a, self.b, self.c
        if a >= 0.1:
            return b * rng.standard_gamma(a, size=n) ** (1.0 / c)
        # small shapes: gamma draws underflow, so build log G from the
        # boost identity G =d Gamma(a+1) * U^(1/a)
        log_g = np.log(rng.standard_gamma(a + 1.0, size=n))
        log_g += np.log(rng.random(n)) / a
        return b * np.exp(np.maximum(log_g / c, _EXP_LO))

    def sample(self, rng, size=None):
        return self._sample_components(rng, size)

    def params_dict(self):
        return {
            "omega": self.omega,
            "lambda": self.lam,
            "a": self.a,
            "b": self.b,
            "c": self.c,
        }


@dataclass(frozen=True)
class EgParams(_Mixture):
    """Exponential plus Gamma mixture (shape-one special case).

    ``alpha`` and ``beta`` are the Gamma shape and scale.
    """

    omega: float
    lam: float
    alpha: float
    beta: float

    variant = "eg"

    def __post_init__(self):
        _validate_weight(self.omega)
        _validate_positive(lam=self.lam, alpha=self.alpha, beta=self.beta)

    def as_egg(self):
        """The same distribution as a power-shape-one EggParams."""
        return EggParams(self.omega, self.lam, self.alpha, self.beta, 1.0)

    def _second_log_pdf(self, i, log_i):
        if 1.0 - self.omega < WEIGHT_EPS:
            return np.full_like(log_i, -np.inf)
        al, be = self.alpha, self.beta
        # term order mirrors the power-shape-one GG path so the two variants
        # agree to the last bit
        out = np.multiply(log_i, al - 1.0)
        out += math.log1p(-self.omega)
        out -= al * math.log(be)
        out -= i / be
        out -= sp.gammaln(al)
        return out

    def cdf(self, i):
        arr = _as_positive_array(i, allow_zero=True)
        om = self.effective_weight
        out = om * self._exp_cdf(arr) + (1.0 - om) * sp.gammainc(
            self.alpha, arr / self.beta
        )
        return _maybe_scalar(out, i)

    def moment(self, n):
        if n < 0 or n != int(n):
            raise ValueError("moment order must be a non-negative integer")
        n = int(n)
        g = self.beta**n * math.exp(sp.gammaln(self.alpha + n) - sp.gammaln(self.alpha))
        return self.omega * self.lam**n * math.factorial(n) + (1.0 - self.omega) * g

    def _sample_second(self, rng, n):
        if self.alpha >= 0.1:
            return self.beta * rng.standard_gamma(self.alpha, size=n)
        log_g = np.log(rng.standard_gamma(self.alpha + 1.0, size=n))
        log_g += np.log(rng.random(n)) / self.alpha
        return self.beta * np.exp(np.maximum(log_g, _EXP_LO))

    def sample(self, rng, size=None):
        return self._sample_components(rng, size)

    def params_dict(self):
        return {
            "omega": self.omega,
            "lambda": self.lam,
            "alpha": self.alpha,
            "beta": self.beta,
        }


@dataclass(frozen=True)
class ExpLognormalParams(_Mixture):
    """Exponential plus Lognormal mixture (comparison baseline).

    ``mu`` and ``sigma2`` are the mean and variance of log-intensity.  This
    variant is scored against the others in goodness-of-fit comparisons only;
    no SNR-domain performance formulas are defined for it.
    """

    omega: float
    lam: float
    mu: float
    sigma2: float

    variant = "explognormal"

    def __post_init__(self):
        _validate_weight(self.omega)
        _validate_positive(lam=self.lam, sigma2=self.sigma2)

    def _second_log_pdf(self, i, log_i):
        if 1.0 - self.omega < WEIGHT_EPS:
            return np.full_like(log_i, -np.inf)
        s2 = self.sigma2
        out = np.subtract(math.log1p(-self.omega), log_i)
        out -= 0.5 * math.log(2.0 * math.pi * s2)
        z = np.subtract(log_i, self.mu)
        z *= z
        z /= 2.0 * s2
        out -= z
        return out

    def cdf(self, i):
        arr = _as_positive_array(i, allow_zero=True)
        s = math.sqrt(self.sigma2)
        with np.errstate(divide="ignore"):
            z = (np.log(arr) - self.mu) / s
        om = self.effective_weight
        out = om * self._exp_cdf(arr) + (1.0 - om) * sp.ndtr(z)
        return _maybe_scalar(out, i)

    def moment(self, n):
        if n < 0 or n != int(n):
            raise ValueError("moment order must be a non-negative integer")
        n = int(n)
        ln_part = math.exp(n * self.mu + 0.5 * n**2 * self.sigma2)
        return self.omega * self.lam**n * math.factorial(n) + (1.0 - self.omega) * ln_part

    def _sample_second(self, rng, n):
        return rng.lognormal(self.mu, math.sqrt(self.sigma2), size=n)

    def sample(self, rng, size=None):
        return self._sample_components(rng, size)

    def params_dict(self):
        return {
            "omega": self.omega,
            "lambda": self.lam,
            "mu": self.mu,
            "sigma2": self.sigma2,
        }


MixtureModel = Union[EggParams, EgParams, ExpLognormalParams]

_VARIANTS = {
    "egg": (EggParams, ("omega", "lambda", "a", "b", "c")),
    "eg": (EgParams, ("omega", "lambda", "alpha", "beta")),
    "explognormal": (ExpLognormalParams, ("omega", "lambda", "mu", "sigma2")),
}


def model_from_dict(payload):
    """Rebuild a mixture model from its ``to_dict`` form."""
    try:
        variant = payload["model"]
        params = payload["params"]
        cls, keys = _VARIANTS[variant]
    except KeyError as exc:
        raise ValueError(f"unknown or incomplete model payload: {exc}") from exc
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError(f"model '{variant}' is missing parameters {missing}")
    return cls(*(float(params[k]) for k in keys))
