"""SNR-domain statistics and link metrics over the two-lobe fading models.

Maps the irradiance mixture into the electrical-SNR domain for heterodyne
(r = 1) and intensity-modulation/direct-detection (r = 2) receivers, and
evaluates outage probability, average bit error rate, and ergodic capacity.
Every metric has an exact route (incomplete-gamma or Fox H closed form), an
independent adaptive-quadrature route, and a high-SNR asymptote in elementary
functions.  The exact BER/capacity default to the quadrature route, the more
robust choice for the very large power-shape values seen in fitted
parameters, and return it when its own error bound certifies it.  Otherwise
the Fox H closed form cross-checks the quadrature value, or replaces it when
the quadrature fails to converge, with a warning either way.  Both routes
can still be wrong together in the deep tail of a few fitted shapes (the
``*-0lpm`` rows at high SNR); such values stay flagged by the cross-check
warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import special as sp

from .distributions import EggParams, EgParams, WEIGHT_EPS
from .errors import ConvergenceError
from .special import Estimate, FoxHSpec, QuadratureConfig, adaptive_quad, fox_h_ln

__all__ = [
    "DetectionMode",
    "HETERODYNE",
    "IMDD",
    "Modulation",
    "LinkBudget",
    "modulation_params",
    "electrical_snr",
    "snr_pdf",
    "snr_cdf",
    "snr_cdf_asymptotic",
    "snr_moment",
    "outage",
    "avg_ber",
    "avg_ber_quadrature",
    "avg_ber_asymptotic",
    "ergodic_capacity",
    "capacity_quadrature",
    "capacity_asymptotic",
    "CAPACITY_TAU",
]

# multiplicative SNR constant inside the capacity log
CAPACITY_TAU = math.e / (2.0 * math.pi)

# a quadrature value is returned as certified when its error bound is at most
# this fraction of it; an uncertified value is cross-checked against the Fox H
# closed form, which must match it this tightly or a warning is issued
CROSSCHECK_RTOL = 1e-6

_QUAD = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-8, max_subdivisions=400)
_FOXH_QUAD = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-10, max_subdivisions=64)

_EXP_LO = -745.0


@dataclass(frozen=True)
class DetectionMode:
    """Receiver type: r = 1 for heterodyne, r = 2 for IM/DD."""

    r: int

    def __post_init__(self):
        if self.r not in (1, 2):
            raise ValueError("detection parameter r must be 1 (heterodyne) or 2 (IM/DD)")

    @property
    def name(self):
        return "heterodyne" if self.r == 1 else "imdd"

    @classmethod
    def parse(cls, text):
        key = str(text).strip().lower()
        if key in ("het", "heterodyne", "1"):
            return HETERODYNE
        if key in ("imdd", "im/dd", "2"):
            return IMDD
        raise ValueError(f"unknown detection mode {text!r} (expected 'imdd' or 'het')")


HETERODYNE = DetectionMode(1)
IMDD = DetectionMode(2)


def _is_pow2(m):
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Modulation:
    """Modulation scheme, expanded to the (delta, p, {q_k}, n) BER kernel tuple.

    OOK is only defined for IM/DD; BPSK and the M-ary schemes for heterodyne
    detection.  M must be a power of two, at least 4, for M-PSK and M-QAM.
    """

    scheme: str
    m: Optional[int] = None

    def __post_init__(self):
        if self.scheme not in ("ook", "bpsk", "mpsk", "mqam"):
            raise ValueError(f"unknown modulation scheme {self.scheme!r}")
        if self.scheme in ("mpsk", "mqam"):
            if self.m is None or self.m < 4 or not _is_pow2(self.m):
                raise ValueError(f"{self.scheme} requires order M = power of two >= 4")
        elif self.m is not None:
            raise ValueError(f"{self.scheme} takes no order")

    @classmethod
    def ook(cls):
        return cls("ook")

    @classmethod
    def bpsk(cls):
        return cls("bpsk")

    @classmethod
    def mpsk(cls, m):
        return cls("mpsk", int(m))

    @classmethod
    def mqam(cls, m):
        return cls("mqam", int(m))

    @classmethod
    def parse(cls, text):
        """Parse 'ook', 'bpsk', 'mpsk:M', 'mqam:M'."""
        key = str(text).strip().lower()
        if ":" in key:
            name, _, order = key.partition(":")
            return cls(name, int(order))
        return cls(key)

    @property
    def required_r(self):
        return 2 if self.scheme == "ook" else 1

    @property
    def label(self):
        return self.scheme if self.m is None else f"{self.m}-{self.scheme[1:].upper()}"

    def params(self):
        return modulation_params(self)


def modulation_params(modulation: Modulation):
    """Expand a scheme to its (delta, p, q list, n_terms) kernel parameters."""
    scheme, m = modulation.scheme, modulation.m
    if scheme == "ook":
        return 1.0, 0.5, (0.25,), 1
    if scheme == "bpsk":
        return 1.0, 0.5, (1.0,), 1
    if scheme == "mpsk":
        n = max(m // 4, 1)
        delta = 2.0 / max(math.log2(m), 2.0)
        q = tuple(math.sin((2 * k - 1) * math.pi / m) ** 2 for k in range(1, n + 1))
        return delta, 0.5, q, n
    # mqam
    n = int(round(math.sqrt(m))) // 2
    delta = (4.0 / math.log2(m)) * (1.0 - 1.0 / math.sqrt(m))
    q = tuple(3.0 * (2 * k - 1) ** 2 / (2.0 * (m - 1)) for k in range(1, n + 1))
    return delta, 0.5, q, n


def electrical_snr(params: EggParams, mode: DetectionMode, gamma_bar):
    """Average electrical SNR mu_r for a given average SNR.

    Heterodyne uses mu_1 = gamma_bar; IM/DD divides by the second intensity
    moment so that gamma_bar = mu_2 E[I^2].
    """
    if gamma_bar <= 0:
        raise ValueError("gamma_bar must be positive")
    if mode.r == 1:
        return float(gamma_bar)
    return float(gamma_bar) / params.moment(2)


@dataclass(frozen=True)
class LinkBudget:
    """Fading parameters plus detection mode, average SNR, and outage threshold.

    ``gamma_bar`` and ``gamma_th`` are linear SNRs.  ``EgParams`` inputs are
    promoted to the power-shape-one ``EggParams`` equivalent.
    """

    params: EggParams
    mode: DetectionMode
    gamma_bar: float
    gamma_th: float = 1.0
    mu_r: float = field(init=False)

    def __post_init__(self):
        params = self.params
        if isinstance(params, EgParams):
            params = params.as_egg()
            object.__setattr__(self, "params", params)
        if not isinstance(params, EggParams):
            raise ValueError(
                "link performance is defined for the EGG/EG fading models only"
            )
        if self.gamma_bar <= 0 or self.gamma_th <= 0:
            raise ValueError("gamma_bar and gamma_th must be positive")
        object.__setattr__(
            self, "mu_r", electrical_snr(params, self.mode, self.gamma_bar)
        )

    @property
    def r(self):
        return self.mode.r


# ---------------------------------------------------------------------------
# SNR distribution
# ---------------------------------------------------------------------------

def snr_pdf(link: LinkBudget, gamma):
    """Density of the instantaneous SNR gamma = mu_r I^r."""
    arr = np.asarray(gamma, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("gamma must be positive and finite")
    r, mu = link.r, link.mu_r
    intensity = (arr / mu) ** (1.0 / r)
    jac = intensity / (r * arr)
    out = np.exp(link.params.log_pdf(intensity)) * jac
    return float(out) if np.ndim(gamma) == 0 else out


def snr_cdf(link: LinkBudget, gamma):
    """CDF of the instantaneous SNR; the outage probability at threshold gamma."""
    arr = np.asarray(gamma, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("gamma must be non-negative and finite")
    out = link.params.cdf((arr / link.mu_r) ** (1.0 / link.r))
    return float(out) if np.ndim(gamma) == 0 else out


def snr_cdf_asymptotic(link: LinkBudget, gamma):
    """High-SNR approximation of the SNR CDF (tight for gamma << mu_r)."""
    arr = np.asarray(gamma, dtype=float)
    p = link.params
    r, mu = link.r, link.mu_r
    om = p.effective_weight
    first = (om / p.lam) * (arr / mu) ** (1.0 / r)
    with np.errstate(divide="ignore"):
        expo = (p.a * p.c / r) * (np.log(arr) - r * math.log(p.b) - math.log(mu))
    second = np.exp(np.maximum(expo, _EXP_LO) - sp.gammaln(p.a + 1.0)) * (1.0 - om)
    out = first + second
    return float(out) if np.ndim(gamma) == 0 else out


def snr_moment(link: LinkBudget, n):
    """E[gamma^n] in closed form."""
    if n < 1 or n != int(n):
        raise ValueError("moment order must be a positive integer")
    n = int(n)
    p = link.params
    r, mu = link.r, link.mu_r
    first = p.omega * (p.lam**r * mu) ** n * math.gamma(r * n + 1)
    second = (
        (1.0 - p.omega)
        * (p.b**r * mu) ** n
        * math.exp(sp.gammaln(r * n / p.c + p.a) - sp.gammaln(p.a))
    )
    return first + second


def outage(link: LinkBudget):
    """P[gamma < gamma_th]."""
    return snr_cdf(link, link.gamma_th)


# ---------------------------------------------------------------------------
# Quadrature routes (independent of the closed forms)
# ---------------------------------------------------------------------------

def _gamma_lobe_expectation(a, h_ln, scale_ln, power, cfg=_QUAD, feature_log_i=None):
    """E[h_ln(scale_ln + power * ln U)] for U ~ Gamma(a, 1) by quadrature.

    The integrand receives log-intensity so that tiny shapes (mass spread
    over hundreds of decades of U) never underflow.  For a < 1 the
    substitution w = u^a flattens the u^{a-1} endpoint singularity; for
    a >= 1 the density is integrated in log space around its bulk.
    ``feature_log_i`` marks a log-intensity where h_ln changes sharply
    (e.g. an error-function transition) so the subdivision can find it.
    """
    feature_log_u = None
    if feature_log_i is not None:
        feature_log_u = (feature_log_i - scale_ln) / power

    def ladder(center_log, lo, hi, spread):
        # geometric split points straddling a transition whose width in the
        # integration variable is not known a priori; without them the
        # adaptive rule can sample only the flat zero region and stop early
        pts = [math.exp(center_log + k) for k in spread if abs(center_log + k) < 700.0]
        return [p_ for p_ in pts if lo < p_ < hi] or None

    if a < 1.0:
        w_hi = math.exp(a * math.log(50.0))
        points = None
        if feature_log_u is not None:
            points = ladder(a * feature_log_u, 0.0, w_hi, (-7.0, -3.5, 0.0, 3.5, 7.0))

        def integrand(w):
            log_u = math.log(w) / a
            damp = math.exp(-math.exp(log_u)) if log_u > -40.0 else 1.0
            return damp * h_ln(scale_ln + power * log_u)

        est = adaptive_quad(integrand, 0.0, w_hi, cfg, points=points)
        norm = math.gamma(a + 1.0)
        return Estimate(est / norm, est.error_bound / norm)

    lg = sp.gammaln(a)
    hi = a + 40.0 * math.sqrt(a) + 60.0
    points = [a]
    if feature_log_u is not None:
        points += ladder(feature_log_u, 0.0, hi, (-6.0, -3.0, 0.0, 3.0, 6.0)) or []

    def integrand(u):
        if u <= 0.0:
            return 0.0
        log_u = math.log(u)
        return math.exp((a - 1.0) * log_u - u - lg) * h_ln(scale_ln + power * log_u)

    return adaptive_quad(integrand, 0.0, hi, cfg, points=points)


def _mixture_expectation(params: EggParams, h_ln, cfg=_QUAD, feature_log_i=None):
    """E over the fading mixture of h_ln(ln I), by component-wise quadrature.

    The exponential lobe is integrated in log intensity, where both the
    weight roll-off and any h_ln transition have order-one widths, with a
    split point at ``feature_log_i`` when given.  The returned
    :class:`Estimate` carries the weighted sum of the lobes' error bounds.
    """
    total = bound = 0.0
    if params.omega >= WEIGHT_EPS:
        log_lam = math.log(params.lam)

        def exp_part(v):
            # v = ln x for x ~ Exp(1); integrand x e^{-x} h(ln lam + ln x)
            x = math.exp(v)
            return math.exp(v - x) * h_ln(log_lam + v)

        lo, hi = -50.0, 6.0
        points = None
        if feature_log_i is not None:
            v_c = feature_log_i - log_lam
            lo = min(lo, v_c - 50.0)
            if lo < v_c < hi:
                points = [v_c]
        est = adaptive_quad(exp_part, lo, hi, cfg, points=points)
        total += params.omega * est
        bound += params.omega * est.error_bound
    if 1.0 - params.omega >= WEIGHT_EPS:
        est = _gamma_lobe_expectation(
            params.a, h_ln, math.log(params.b), 1.0 / params.c, cfg, feature_log_i
        )
        total += (1.0 - params.omega) * est
        bound += (1.0 - params.omega) * est.error_bound
    return Estimate(total, bound)


def avg_ber_quadrature(link: LinkBudget, modulation: Modulation, cfg=_QUAD):
    """Average BER from the defining conditional-kernel integral.

    The returned :class:`Estimate` carries the error bound of the value.
    """
    _check_compat(link, modulation)
    delta, p, q, _ = modulation_params(modulation)
    r, mu = link.r, link.mu_r
    total = bound = 0.0
    for qk in q:
        log_q_mu = math.log(qk) + math.log(mu)

        def kernel(log_i):
            return sp.gammaincc(p, math.exp(min(log_q_mu + r * log_i, 709.0)))

        # the kernel falls from 1 to 0 around q mu I^r = 1
        est = _mixture_expectation(link.params, kernel, cfg, feature_log_i=-log_q_mu / r)
        total += est
        bound += est.error_bound
    return Estimate(0.5 * delta * total, 0.5 * delta * bound)


def capacity_quadrature(link: LinkBudget, cfg=_QUAD):
    """Ergodic capacity E[ln(1 + tau gamma)] by quadrature, in nats.

    The returned :class:`Estimate` carries the error bound of the value.
    """
    r = link.r
    log_tau_mu = math.log(CAPACITY_TAU) + math.log(link.mu_r)

    def kernel(log_i):
        t = log_tau_mu + r * log_i
        if t > 36.0:
            return t  # log1p(e^t) = t to double precision
        return math.log1p(math.exp(t))

    # the integrand bends from ~0 to ~linear around tau mu I^r = 1
    return _mixture_expectation(
        link.params, kernel, cfg, feature_log_i=-log_tau_mu / r
    )


# ---------------------------------------------------------------------------
# Closed forms (Fox H / Meijer G routes)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _ber_spec_exp(p, r_inv):
    return FoxHSpec(
        m=1, n=2, p=2, q=2,
        upper_params=((1.0, 1.0), (1.0 - p, r_inv)),
        lower_params=((1.0, 1.0), (0.0, 1.0)),
    )


@lru_cache(maxsize=256)
def _ber_spec_gg(p, a, cr):
    return FoxHSpec(
        m=1, n=2, p=2, q=2,
        upper_params=((1.0, 1.0), (1.0 - p, cr)),
        lower_params=((a, 1.0), (0.0, 1.0)),
    )


@lru_cache(maxsize=256)
def _ber_spec_meijer(p, x, r):
    # G^{r,2}_{2,r+1}[z | 1, 1-p ; x/r, ..., (x+r-1)/r, 0]
    lower = tuple(((x + j) / r, 1.0) for j in range(r)) + ((0.0, 1.0),)
    return FoxHSpec(
        m=r, n=2, p=2, q=r + 1,
        upper_params=((1.0, 1.0), (1.0 - p, 1.0)),
        lower_params=lower,
    )


@lru_cache(maxsize=256)
def _cap_spec_exp(r_inv):
    return FoxHSpec(
        m=2, n=1, p=1, q=2,
        upper_params=((0.0, r_inv),),
        lower_params=((0.0, 1.0), (0.0, r_inv)),
    )


@lru_cache(maxsize=256)
def _cap_spec_gg(a, cr):
    return FoxHSpec(
        m=3, n=1, p=2, q=3,
        upper_params=((0.0, cr), (1.0, 1.0)),
        lower_params=((a, 1.0), (0.0, 1.0), (0.0, cr)),
    )


def _check_compat(link: LinkBudget, modulation: Modulation):
    if modulation.required_r != link.r:
        need = "IM/DD" if modulation.required_r == 2 else "heterodyne"
        raise ValueError(
            f"{modulation.label} is defined for {need} detection only"
        )


def _avg_ber_foxh(link: LinkBudget, modulation: Modulation, cfg=_FOXH_QUAD):
    """Exact BER via the Fox H closed form (Meijer G route when c = 1)."""
    p_ = link.params
    delta, p, q, _ = modulation_params(modulation)
    r, mu = link.r, link.mu_r
    omega, lam, a, b, c = p_.omega, p_.lam, p_.a, p_.b, p_.c
    reduced = c == 1.0
    log_2pi_term = ((r - 1) / 2.0) * math.log(2.0 * math.pi)
    total = 0.0
    for qk in q:
        term = 0.0
        if omega >= WEIGHT_EPS:
            if reduced:
                spec = _ber_spec_meijer(p, 1.0, r)
                log_z = -(math.log(qk) + r * math.log(r * lam) + math.log(mu))
                log_pref = 0.5 * math.log(r) - log_2pi_term
            else:
                spec = _ber_spec_exp(p, 1.0 / r)
                log_z = -math.log(lam) - (math.log(qk) + math.log(mu)) / r
                log_pref = 0.0
            term += omega * fox_h_ln(spec, log_z, cfg, log_prefactor=log_pref)
        if 1.0 - omega >= WEIGHT_EPS:
            if reduced:
                spec = _ber_spec_meijer(p, a, r)
                log_z = -(math.log(qk) + r * math.log(r * b) + math.log(mu))
                log_pref = (a - 0.5) * math.log(r) - log_2pi_term - sp.gammaln(a)
            else:
                spec = _ber_spec_gg(p, a, c / r)
                log_z = -c * math.log(b) - (c / r) * (math.log(qk) + math.log(mu))
                log_pref = -sp.gammaln(a)
            term += (1.0 - omega) * fox_h_ln(spec, log_z, cfg, log_prefactor=log_pref)
        total += term
    return 0.5 * delta * math.exp(-sp.gammaln(p)) * total


def _capacity_foxh(link: LinkBudget, cfg=_FOXH_QUAD):
    """Exact ergodic capacity via the Fox H closed form, in nats."""
    p_ = link.params
    r, mu = link.r, link.mu_r
    omega, lam, a, b, c = p_.omega, p_.lam, p_.a, p_.b, p_.c
    log_tau_mu = math.log(CAPACITY_TAU) + math.log(mu)
    total = 0.0
    if omega >= WEIGHT_EPS:
        log_z = -math.log(lam) - log_tau_mu / r
        total += omega * fox_h_ln(_cap_spec_exp(1.0 / r), log_z, cfg)
    if 1.0 - omega >= WEIGHT_EPS:
        log_z = -c * math.log(b) - (c / r) * log_tau_mu
        total += (1.0 - omega) * fox_h_ln(
            _cap_spec_gg(a, c / r), log_z, cfg, log_prefactor=-sp.gammaln(a)
        )
    return total


def _crosschecked(exact_fn, quad_fn, what, method):
    if method == "foxh":
        return exact_fn()
    if method == "quadrature":
        return float(quad_fn())
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    try:
        estimate = quad_fn()
    except ConvergenceError as failure:
        try:
            closed = exact_fn()
        except ConvergenceError:
            raise failure
        warnings.warn(
            f"{what}: {failure}; using the closed form value {closed!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        return closed
    reference = float(estimate)
    if 0.0 < estimate.error_bound <= CROSSCHECK_RTOL * reference:
        return reference
    try:
        closed = exact_fn()
    except ConvergenceError as exc:
        warnings.warn(
            f"{what}: closed form did not converge ({exc}); using quadrature value",
            RuntimeWarning,
            stacklevel=3,
        )
        return reference
    if abs(closed - reference) > CROSSCHECK_RTOL * max(abs(closed), abs(reference)) + 1e-300:
        warnings.warn(
            f"{what}: closed form {closed!r} disagrees with quadrature "
            f"{reference!r} beyond rtol {CROSSCHECK_RTOL}; using quadrature value",
            RuntimeWarning,
            stacklevel=3,
        )
    return reference


def avg_ber(link: LinkBudget, modulation: Modulation, method="auto"):
    """Average bit error rate.

    ``method='auto'`` evaluates the quadrature route and returns it when its
    error bound is at most ``CROSSCHECK_RTOL`` of the (positive) value.
    Otherwise the Fox H closed form is evaluated too: if the quadrature
    converged, the closed form only cross-checks it (a ``RuntimeWarning`` on
    disagreement, the quadrature value is kept); if the quadrature raised
    :class:`ConvergenceError`, the closed form value is returned with a
    ``RuntimeWarning``, and the quadrature's error is re-raised when the
    closed form fails too.  ``'foxh'`` and ``'quadrature'`` force a single
    route.
    """
    _check_compat(link, modulation)
    return _crosschecked(
        lambda: _avg_ber_foxh(link, modulation),
        lambda: avg_ber_quadrature(link, modulation),
        f"avg_ber[{modulation.label}]",
        method,
    )


def ergodic_capacity(link: LinkBudget, method="auto"):
    """Ergodic capacity in nats per channel use.

    ``method='auto'`` returns the quadrature value when its own error bound
    certifies it and brings in the Fox H closed form otherwise, exactly as
    :func:`avg_ber` does; ``'foxh'`` and ``'quadrature'`` force one route.
    """
    return _crosschecked(
        lambda: _capacity_foxh(link),
        lambda: capacity_quadrature(link),
        "ergodic_capacity",
        method,
    )


# ---------------------------------------------------------------------------
# High-SNR asymptotics
# ---------------------------------------------------------------------------

def avg_ber_asymptotic(link: LinkBudget, modulation: Modulation):
    """Elementary-function BER approximation, tight as mu_r grows."""
    _check_compat(link, modulation)
    p_ = link.params
    delta, p, q, _ = modulation_params(modulation)
    r, mu = link.r, link.mu_r
    omega, lam, a, b, c = p_.effective_weight, p_.lam, p_.a, p_.b, p_.c
    total = 0.0
    for qk in q:
        first = omega * math.gamma(p + 1.0 / r) * math.exp(
            -(r * math.log(lam) + math.log(qk) + math.log(mu)) / r
        )
        second = math.exp(
            sp.gammaln(p + a * c / r)
            - sp.gammaln(a + 1.0)
            + max(-(a * c / r) * (r * math.log(b) + math.log(qk) + math.log(mu)), _EXP_LO)
        ) * (1.0 - omega)
        total += first + second
    return 0.5 * delta * math.exp(-sp.gammaln(p)) * total


def capacity_asymptotic(link: LinkBudget):
    """Moments-method capacity approximation at high SNR, in nats."""
    p_ = link.params
    r, mu = link.r, link.mu_r
    omega, lam, a, b, c = p_.omega, p_.lam, p_.a, p_.b, p_.c
    out = math.log(CAPACITY_TAU)
    if omega >= WEIGHT_EPS:
        out += omega * (r * math.log(lam) + math.log(mu) + r * sp.digamma(1.0))
    if 1.0 - omega >= WEIGHT_EPS:
        out += (1.0 - omega) * (
            r * math.log(b) + math.log(mu) + (r / c) * sp.digamma(a)
        )
    return out
