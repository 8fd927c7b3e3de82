"""SNR-domain statistics and link metrics over the two-lobe fading models.

Maps the irradiance mixture into the electrical-SNR domain for heterodyne
(r = 1) and intensity-modulation/direct-detection (r = 2) receivers, and
evaluates outage probability, average bit error rate, and ergodic capacity.
Outage comes from the incomplete-gamma closed form.  BER and capacity have
one production route, a certified quadrature: each lobe's expectation is
integrated in t = ln U around the peak of its concave log-integrand, the
parts are summed in log space, and the value is returned only when the
error bound of the total is at most ``CERTIFY_RTOL`` of it (else
:class:`ConvergenceError`).  Values below the double range therefore come
back certified as 0.0 or subnormal.  The paper's Fox H closed forms stay
available as ``method='foxh'``, and every metric has a high-SNR asymptote in
elementary functions.
"""

from __future__ import annotations

import math
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

# a quadrature value is returned only when the error bound of the metric's
# total is at most this fraction of it; otherwise ConvergenceError is raised
CERTIFY_RTOL = 1e-6

# each lobe is integrated, scaled to peak at 1, between the points where its
# log-integrand has fallen this far below its peak
_DROP = 40.0
_QUAD = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-8, max_subdivisions=400)
_FOXH_QUAD = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-10, max_subdivisions=64)

_EXP_LO = -745.0
_SQRT_PI = math.sqrt(math.pi)


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
# Quadrature route (independent of the closed forms)
# ---------------------------------------------------------------------------

def _ln_erfc_sqrt(s):
    """ln erfc(sqrt(x)) at x = e^s, with its first two derivatives in s.

    ln erfc(y) = ln erfcx(y) - y^2 stays in range far beyond the point where
    erfc itself underflows.
    """
    if s > 709.0:
        return -math.inf, -math.inf, -math.inf
    x = math.exp(s)
    y = math.sqrt(x)
    ex = float(sp.erfcx(y))
    k = y / (_SQRT_PI * ex)
    # 1/2 - x + k cancels for large x, where it is 1 - 1/(2x) + O(x^-2)
    bend = 0.5 - x + k if x < 1e5 else 1.0 - 0.5 / x
    return math.log(ex) - x, -k, -k * bend


def _ln_softplus(s):
    """ln ln(1 + e^s), with its first two derivatives in s."""
    if s < -36.0:
        return s, 1.0, 0.0  # ln(1 + e^s) = e^s to double precision
    if s > 36.0:
        return math.log(s), 1.0 / s, -1.0 / (s * s)
    e = math.exp(s)
    soft = math.log1p(e)
    sig = e / (1.0 + e)
    d1 = sig / soft
    return math.log(soft), d1, sig * (1.0 - sig) / soft - d1 * d1


def _argmax(ell, t):
    """Maximum of a concave ``ell`` by Newton steps kept inside a bracket.

    Returns t* and ell's value and second derivative there.
    """
    lo, hi, step = -math.inf, math.inf, 1.0
    for _ in range(200):
        f, d1, d2 = ell(t)
        if d1 > 0.0:
            lo = t
        elif d1 < 0.0:
            hi = t
        else:
            break
        nxt = t - d1 / d2 if d2 < 0.0 else math.nan
        if not lo < nxt < hi:
            if hi == math.inf:
                nxt, step = lo + step, 2.0 * step
            elif lo == -math.inf:
                nxt, step = hi - step, 2.0 * step
            else:
                nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 1e-9 * (1.0 + abs(t)):
            break
        t = nxt
    return t, f, d2


def _level_point(ell, t_star, target, step, direction):
    """A point on one side of the peak where the concave ``ell`` is at most
    ``target`` (and within one unit of it), with ell and its slope there."""
    inner = t_star
    for _ in range(100):
        t = t_star + direction * step
        f, d1, _ = ell(t)
        if f <= target:
            break
        inner, step = t, 2.0 * step
    # Newton steps from outside the level set stay outside for a concave ell
    for _ in range(100):
        if f >= target - 1.0:
            break
        nxt = t - (f - target) / d1
        if not (min(inner, t) < nxt < max(inner, t)):
            nxt = 0.5 * (inner + t)
        g, g1, _ = ell(nxt)
        if g > target:
            inner = nxt
        else:
            t, f, d1 = nxt, g, g1
    return t, f, d1


def _lobe_expectation(a, s0, kappa, log_h):
    """E[h(s0 + kappa ln U)] for U ~ Gamma(a, 1), as (log scale, value, bound).

    The expectation is exp(log scale) * value, and bound bounds the error of
    value.  With t = ln U the log-integrand L(t) = a t - e^t + ln h(s0 +
    kappa t) - ln Gamma(a) is concave for the BER and capacity kernels.  It
    is integrated as exp(L - L*) between the points where it has fallen
    ``_DROP`` below its peak L*; concavity bounds each tail beyond by
    exp(L - L*) / |L'| there.
    """

    def ell(t):
        # L(t) + ln Gamma(a) and its first two derivatives
        u = math.exp(t) if t < 709.0 else math.inf
        h, h1, h2 = log_h(s0 + kappa * t)
        return a * t - u + h, a - u + kappa * h1, kappa * kappa * h2 - u

    t_star, f_star, d2 = _argmax(ell, math.log(a))
    target = f_star - _DROP
    step = math.sqrt(2.0 * _DROP / max(-d2, 1e-12))
    t_lo, f_lo, slope_lo = _level_point(ell, t_star, target, step, -1.0)
    t_hi, f_hi, slope_hi = _level_point(ell, t_star, target, step, 1.0)
    tails = (math.exp(f_lo - f_star) / slope_lo if slope_lo > 0.0 else math.inf) + (
        math.exp(f_hi - f_star) / -slope_hi if slope_hi < 0.0 else math.inf
    )
    try:
        est = adaptive_quad(
            lambda t: math.exp(ell(t)[0] - f_star), t_lo, t_hi, _QUAD, points=(t_star,)
        )
        value, err = float(est), est.error_bound
    except ConvergenceError as exc:
        value, err = exc.estimate, exc.error_bound
    return f_star - sp.gammaln(a), value, err + tails


def _certified_expectation(link: LinkBudget, terms, log_h):
    """sum_k w_k E[h(s_k + r ln I)] over the fading mixture, certified.

    ``terms`` holds (ln w_k, s_k) pairs.  Every lobe of every term is scaled
    by its own peak; the parts are summed in log space and the summed error
    bound is tested against ``CERTIFY_RTOL`` of the summed value.  Returns an
    :class:`Estimate`, which is 0.0 or subnormal when the value lies below
    the double range, or raises :class:`ConvergenceError`.
    """
    p, r = link.params, link.r
    lobes = []
    if p.omega >= WEIGHT_EPS:
        lobes.append((math.log(p.omega), 1.0, math.log(p.lam), 1.0))
    if 1.0 - p.omega >= WEIGHT_EPS:
        lobes.append((math.log1p(-p.omega), p.a, math.log(p.b), p.c))
    parts = []
    for log_w, s in terms:
        for log_weight, a, log_b, c in lobes:
            scale, value, bound = _lobe_expectation(a, s + r * log_b, r / c, log_h)
            parts.append((log_w + log_weight + scale, value, bound))
    top = max(scale for scale, _, _ in parts)
    total = sum(math.exp(scale - top) * value for scale, value, _ in parts)
    bound = sum(math.exp(scale - top) * b for scale, _, b in parts)
    value, err = math.exp(top) * total, math.exp(top) * bound
    if not bound <= CERTIFY_RTOL * total:
        raise ConvergenceError(
            f"quadrature did not converge (estimate {value!r}, bound {err!r})",
            estimate=value,
            error_bound=err,
        )
    return Estimate(value, err)


def avg_ber_quadrature(link: LinkBudget, modulation: Modulation):
    """Average BER from the defining conditional-kernel integral.

    Returns an :class:`Estimate` carrying its error bound, or raises
    :class:`ConvergenceError` when the bound exceeds ``CERTIFY_RTOL`` of it.
    """
    _check_compat(link, modulation)
    delta, _, q, _ = modulation_params(modulation)
    # p = 1/2 for every scheme: Gamma(1/2, x) / Gamma(1/2) = erfc(sqrt(x))
    log_w = math.log(0.5 * delta)
    log_mu = math.log(link.mu_r)
    return _certified_expectation(
        link, [(log_w, math.log(qk) + log_mu) for qk in q], _ln_erfc_sqrt
    )


def capacity_quadrature(link: LinkBudget):
    """Ergodic capacity E[ln(1 + tau gamma)] by quadrature, in nats.

    Returns an :class:`Estimate` carrying its error bound, or raises
    :class:`ConvergenceError` when the bound exceeds ``CERTIFY_RTOL`` of it.
    """
    log_tau_mu = math.log(CAPACITY_TAU) + math.log(link.mu_r)
    return _certified_expectation(link, [(0.0, log_tau_mu)], _ln_softplus)


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


def _route(method, foxh, quadrature):
    if method == "quadrature":
        return float(quadrature())
    if method == "foxh":
        return foxh()
    raise ValueError(f"unknown method {method!r} (expected 'quadrature' or 'foxh')")


def avg_ber(link: LinkBudget, modulation: Modulation, method="quadrature"):
    """Average bit error rate.

    ``method='quadrature'`` returns the certified quadrature value and raises
    :class:`ConvergenceError` when it cannot be certified; ``'foxh'``
    evaluates the paper's Fox H closed form instead.
    """
    _check_compat(link, modulation)
    return _route(
        method,
        lambda: _avg_ber_foxh(link, modulation),
        lambda: avg_ber_quadrature(link, modulation),
    )


def ergodic_capacity(link: LinkBudget, method="quadrature"):
    """Ergodic capacity in nats per channel use.

    ``method`` chooses the route as in :func:`avg_ber`.
    """
    return _route(
        method,
        lambda: _capacity_foxh(link),
        lambda: capacity_quadrature(link),
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
