"""SNR-domain statistics and link metrics over the two-lobe fading models.

Maps the irradiance mixture into the electrical-SNR domain for heterodyne
(r = 1) and intensity-modulation/direct-detection (r = 2) receivers, and
evaluates outage probability, average bit error rate, and ergodic capacity.
Outage comes from the incomplete-gamma closed form.  BER and capacity have
one production route, a certified quadrature: each lobe's expectation is
integrated in t = ln U around the peak of its concave log-integrand, on
vectorized Gauss-Kronrod panels seeded at a sqrt(2) ladder of widths out to
each end from the peak, and from a steep end (the first round of panels of all
of a point's lobes in one integrand call, certifying nearly all), the parts are
summed in log space, and the value is returned only when the error bound of
the total is at most ``CERTIFY_RTOL`` of it (else :class:`ConvergenceError`).
Values below the double range therefore come back certified as 0.0 or
subnormal.  A lobe with a = 1 and kappa = r/c of 1 or 2 skips the quadrature
for a closed form (:func:`_ber_exponential`, :func:`_capacity_exponential`).
The route needs numpy and the compiled ufuncs of ``scipy.special`` only.
:func:`avg_ber` and :func:`ergodic_capacity` return its value.  The paper's
Fox H closed forms, :func:`avg_ber_foxh` and :func:`capacity_foxh`, are the
tests' oracle for it, their contour integrals on the same Gauss-Kronrod
panels, and every metric has a high-SNR asymptote in elementary functions.

The exponential lobe omega/lambda e^(-I/lambda) is the Generalized Gamma
lobe GG(a = 1, b = lambda, c = 1), so every Fox H closed form and asymptote
evaluates one GG-lobe term per lobe present (see :func:`_lobes`), with no
Meijer G special case for c = 1, and the certified route a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .distributions import EggParams, EgParams, WEIGHT_EPS, _exp
from .errors import ConvergenceError, check_positive, checked_array
from .special import (Estimate, FoxHSpec, QuadratureConfig, _gauss_kronrod, _gk_nodes, _gk_panels,
                      fox_h_ln, sp)

# multiplicative SNR constant inside the capacity log
CAPACITY_TAU = math.e / (2.0 * math.pi)

# a quadrature value is returned only when the error bound of the metric's
# total is at most this fraction of it; otherwise ConvergenceError is raised
CERTIFY_RTOL = 1e-6

# each lobe is integrated, scaled to peak at 1, between the points where its
# log-integrand has fallen this far below its peak
_DROP = 40.0
_QUAD = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-8, max_subdivisions=400)
# panel breaks 2^(k/2) (k < _RUNGS) widths out from the peak to each end (see _rung_count),
# and from an end over _STEEP times as curved as the peak, its own widths (_panel_breaks)
_RUNGS, _STEEP = 80, 1024.0
_BREAK_LADDER = [-(2.0 ** (k / 2.0)) for k in range(_RUNGS - 1, -1, -1)] + [0.0] + [2.0 ** (k / 2.0) for k in range(_RUNGS)]
_FOXH_QUAD = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-12, max_subdivisions=2000)

_SQRT_PI = math.sqrt(math.pi)
_EPS = math.ulp(1.0)


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
    detection.  M must be a power of two, at least 4, for M-PSK and M-QAM,
    and for M-QAM a square: the unified BER expression is for square M-QAM.
    """

    scheme: str
    m: Optional[int] = None

    def __post_init__(self):
        if self.scheme not in ("ook", "bpsk", "mpsk", "mqam"):
            raise ValueError(f"unknown modulation scheme {self.scheme!r}")
        if self.scheme in ("mpsk", "mqam"):
            if self.m is None or self.m < 4 or not _is_pow2(self.m):
                raise ValueError(f"{self.scheme} requires order M = power of two >= 4")
            if self.scheme == "mqam" and math.isqrt(self.m) ** 2 != self.m:
                raise ValueError(f"mqam requires a square order M, got {self.m}")
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
    n = math.isqrt(m) // 2
    delta = (4.0 / math.log2(m)) * (1.0 - 1.0 / math.sqrt(m))
    q = tuple(3.0 * (2 * k - 1) ** 2 / (2.0 * (m - 1)) for k in range(1, n + 1))
    return delta, 0.5, q, n


def _check_compat(link: LinkBudget, modulation: Modulation):
    if modulation.required_r != link.r:
        need = "IM/DD" if modulation.required_r == 2 else "heterodyne"
        raise ValueError(
            f"{modulation.label} is defined for {need} detection only"
        )


def electrical_snr(params: EggParams, mode: DetectionMode, gamma_bar):
    """Average electrical SNR mu_r for a given average SNR.

    Heterodyne uses mu_1 = gamma_bar; IM/DD divides by the second intensity
    moment so that gamma_bar = mu_2 E[I^2].  ``gamma_bar`` > 0, else
    ValueError; so is a mu_r that leaves the double range, as a finite
    gamma_bar over a tiny or underflowed E[I^2] can.
    """
    check_positive(gamma_bar=gamma_bar)
    if mode.r == 1:
        return float(gamma_bar)
    second = params.moment(2)
    mu_r = float(gamma_bar) / second if second > 0.0 else math.inf
    check_positive(mu_r=mu_r)
    return mu_r


@dataclass(frozen=True)
class LinkBudget:
    """Fading parameters plus detection mode, average SNR, and outage threshold.

    ``gamma_bar`` and ``gamma_th`` are linear SNRs > 0 (else ValueError).
    ``EgParams`` inputs are promoted to the power-shape-one ``EggParams``
    equivalent.
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
        check_positive(gamma_th=self.gamma_th)  # electrical_snr checks gamma_bar
        object.__setattr__(
            self, "mu_r", electrical_snr(params, self.mode, self.gamma_bar)
        )

    @property
    def r(self):
        return self.mode.r


def _lobes(params: EggParams):
    """(ln weight, a, ln b, c) of each lobe whose weight is at least
    ``WEIGHT_EPS``; the exponential lobe is GG(1, lambda, 1)."""
    lobes = []
    if params.omega >= WEIGHT_EPS:
        lobes.append((math.log(params.omega), 1.0, math.log(params.lam), 1.0))
    if 1.0 - params.omega >= WEIGHT_EPS:
        lobes.append((math.log1p(-params.omega), params.a, math.log(params.b), params.c))
    return lobes


# ---------------------------------------------------------------------------
# SNR distribution
# ---------------------------------------------------------------------------

def snr_pdf(link: LinkBudget, gamma):
    """Density of the instantaneous SNR gamma = mu_r I^r at gamma > 0 (else DataError)."""
    arr = checked_array(gamma, "gamma")
    r, mu = link.r, link.mu_r
    intensity = (arr / mu) ** (1.0 / r)
    jac = intensity / (r * arr)
    out = np.exp(link.params.log_pdf(intensity)) * jac
    return float(out) if np.ndim(gamma) == 0 else out


def snr_cdf(link: LinkBudget, gamma):
    """CDF of the instantaneous SNR at gamma >= 0 (else DataError); the outage
    probability at threshold gamma."""
    arr = checked_array(gamma, "gamma", allow_zero=True)
    out = link.params.cdf((arr / link.mu_r) ** (1.0 / link.r))
    return float(out) if np.ndim(gamma) == 0 else out


def snr_cdf_asymptotic(link: LinkBudget, gamma):
    """High-SNR approximation of the SNR CDF (tight for gamma << mu_r).

    Each lobe contributes w (gamma / (b^r mu_r))^(ac/r) / Gamma(a + 1); a
    term beyond the double range gives inf.  ``gamma`` >= 0, else DataError.
    """
    arr = checked_array(gamma, "gamma", allow_zero=True)
    r = link.r
    out = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        log_x = np.log(arr) - math.log(link.mu_r)
        for log_w, a, log_b, c in _lobes(link.params):
            out = out + np.exp(log_w - sp.gammaln(a + 1.0) + (a * c / r) * (log_x - r * log_b))
    return float(out) if np.ndim(gamma) == 0 else out


def snr_moment(link: LinkBudget, n):
    """E[gamma^n] in closed form: each lobe contributes
    w Gamma(rn/c + a) / Gamma(a) (b^r mu_r)^n, inf beyond the double range."""
    if not (n >= 1 and math.isfinite(n) and n == int(n)):
        raise ValueError("moment order must be a positive integer")
    n = int(n)
    r, log_mu = link.r, math.log(link.mu_r)
    return sum(
        _exp(log_w + n * (r * log_b + log_mu) + sp.gammaln(r * n / c + a) - sp.gammaln(a))
        for log_w, a, log_b, c in _lobes(link.params)
    )


def outage(link: LinkBudget):
    """P[gamma < gamma_th]."""
    return snr_cdf(link, link.gamma_th)


# ---------------------------------------------------------------------------
# Certified route (independent of the Fox H closed forms)
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


def _ln_erfc_sqrt_array(s):
    """ln erfc(sqrt(x)) at x = e^s, for an array s (value only)."""
    x = np.exp(np.minimum(s, 709.0))
    out = np.log(sp.erfcx(np.sqrt(x))) - x
    out[s > 709.0] = -np.inf
    return out


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


def _ln_softplus_array(s):
    """ln ln(1 + e^s) for an array s (value only)."""
    out = np.log(np.log1p(np.exp(np.clip(s, -36.0, 36.0))))
    np.copyto(out, s, where=s < -36.0)
    return np.log(s, out=out, where=s > 36.0)


_BER_KERNEL = (_ln_erfc_sqrt, _ln_erfc_sqrt_array)
_CAPACITY_KERNEL = (_ln_softplus, _ln_softplus_array)


def _ber_exponential(s0, kappa):
    """E[erfc(sqrt(e^s0 U^kappa))] for U ~ Exp(1) and kappa = 1 or 2, in
    closed form, as (log scale, value, bound) with bound = 8 eps value.

    kappa = 1: 1 / (sqrt(1 + m) (sqrt(1 + m) + sqrt(m))) at m = e^s0.
    kappa = 2: 1 - erfcx(z) at z = e^(-s0/2) / 2, which below z = 0.7 is
    e^(z^2) erf(z) - expm1(z^2), the form with less cancellation there.
    """
    if kappa == 1.0:  # scaled by 1 / max(m, 1): root = sqrt(1 + min(m, 1/m))
        root = math.sqrt(1.0 + math.exp(-abs(s0)))
        scale, value = -max(s0, 0.0), 1.0 / (root * (root + math.exp(0.5 * min(s0, 0.0))))
    elif (z := 0.5 * math.exp(min(-0.5 * s0, 700.0))) >= 0.7:
        scale, value = 0.0, 1.0 - float(sp.erfcx(z))
    else:
        z = max(z, 1e-20)  # below it the value is 1/sqrt(pi) - z to double precision
        scale, value = -0.5 * s0, (math.exp(z * z) * float(sp.erf(z)) - math.expm1(z * z)) / (2.0 * z)
    return scale, value, 8.0 * _EPS * value


def _capacity_exponential(s0, kappa):
    """E[ln(1 + e^s0 U^kappa)] for U ~ Exp(1) and kappa = 1 or 2, in closed
    form, as (log scale, value, bound) with bound = 8 eps value.

    kappa = 1: e^y E1(y) at y = e^-s0.  kappa = 2: 2 Re[e^(i beta) E1(i beta)]
    at beta = e^(-s0/2), by Ci and Si up to beta = 1 and beyond by the
    continued fraction e^z E1(z) = 1/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...))),
    free of their cancellation.  Far below m = e^s0 = 1, the moments' series
    sum (-1)^(n+1) (kappa n)! m^n / n to n = 24 (the next term < 2e-18 m).
    """
    scale = 0.0
    if s0 > 700.0 * kappa:  # -ln y - gamma, or -2 ln beta - 2 gamma, to double precision
        value = s0 - kappa * np.euler_gamma
    elif s0 < -4.0 * kappa:
        k, m, scale = int(kappa), math.exp(s0), s0
        value = sum((-1) ** (n + 1) * math.factorial(k * n) / n * m ** (n - 1) for n in range(24, 0, -1))
    elif kappa == 1.0:
        y = math.exp(-s0)
        value = math.exp(y) * float(sp.exp1(y))
    elif (beta := math.exp(-0.5 * s0)) <= 1.0:
        si, ci = map(float, sp.sici(beta))
        value = -2.0 * (ci * math.cos(beta) + (si - 0.5 * math.pi) * math.sin(beta))
    else:
        d = 1j * beta + 2 * (depth := int(200.0 / beta) + 8) + 1
        for k in range(depth, 0, -1):
            d = 1j * beta + (2 * k - 1) - k * k / d
        value = 2.0 * (1.0 / d).real
    return scale, value, 8.0 * _EPS * value


def _argmax(ell, a):
    """Peak of the concave log-integrand ``ell`` of a lobe of shape ``a``, by
    Newton steps from t = ln a kept inside the bracket of the points seen.

    The slope splits as ell' = P - N, with P = a + max(kappa h', 0) and
    N = e^t + max(-kappa h', 0), and each step is taken in ln N - ln P.
    Far from the peak ln N and ln P are each nearly linear in t, so the step
    is nearly exact where a step in ell' gains about one unit of t per call.
    Returns t* and ell's value and second derivative there.
    """
    t, lo, hi, step = math.log(a), -math.inf, math.inf, 1.0
    for _ in range(200):
        f, d1, d2 = ell(t)
        if d1 > 0.0:
            lo = t
        elif d1 < 0.0:
            hi = t
        else:
            break
        u = math.exp(t) if t < 709.0 else math.inf
        g, g1 = d1 - a + u, d2 + u  # kappa h' and its slope
        n, n1, p, p1 = (u - g, -d2, a, 0.0) if g <= 0.0 else (u, u, a + g, g1)
        slope = n1 / n - p1 / p if n > 0.0 else math.nan
        nxt = t - math.log1p(-d1 / p) / slope if slope > 0.0 else math.nan
        # a converged step may round onto the bracket end: accept it first
        if abs(nxt - t) <= 1e-9 * (1.0 + abs(t)):
            break
        if not lo < nxt < hi:
            if hi == math.inf:
                nxt, step = lo + step, 2.0 * step
            elif lo == -math.inf:
                nxt, step = hi - step, 2.0 * step
            else:
                nxt = 0.5 * (lo + hi)
        t = nxt
    return t, f, d2


def _level_point(ell, t_star, target, step, direction):
    """A point on one side of the peak where the concave ``ell`` is at most
    ``target`` (and within one unit of it), with ell, ell' and ell'' there.

    The first probe is ``step`` from the peak t*; from a probe inside the
    level set the next is the farther of the doubled probe and the tangent
    point, which lies outside for a concave ell.  From outside, while the
    fall from the peak, target + ``_DROP`` - ell, exceeds 4 ``_DROP`` the
    Newton step is taken in ln(fall), nearly linear in t where ell falls like
    -e^t; nearer the level it is taken in ell.  A step that leaves the
    bracket of the points seen is replaced by a false-position step in
    ln(fall) between its ends, Illinois-weighted (Dowell & Jarratt, BIT 11,
    1971), or by a bisection while the inner end is still the peak.
    """
    inner, f_in = t_star, target + _DROP
    t = t_star + direction * step
    for _ in range(100):
        f, d1, d2 = ell(t)
        if f <= target:
            break
        inner, f_in, t = t, f, 2.0 * t - t_star
        if d1 * direction < 0.0:
            tangent = inner - (f - target) / d1
            if (tangent - t) * direction > 0.0:
                t = tangent
    # Newton steps in ell from outside the level set stay outside for a concave ell
    run = 0  # points in a row that landed inside; Illinois halves the outer end from the second
    for _ in range(100):
        if f >= target - 1.0:
            break
        fall = target + _DROP - f
        nxt = t + math.log(fall / _DROP) * fall / d1 if fall > 4.0 * _DROP else t - (f - target) / d1
        if not (min(inner, t) < nxt < max(inner, t)):
            fall_in = target + _DROP - f_in
            if fall_in > 0.0:
                phi, phi_in = math.log(fall / _DROP) * 0.5 ** max(run - 1, 0), math.log(fall_in / _DROP)
                nxt = t + (inner - t) * phi / (phi - phi_in)
            if not (min(inner, t) < nxt < max(inner, t)):
                nxt = 0.5 * (inner + t)
        g, g1, g2 = ell(nxt)
        if g > target:
            inner, f_in, run = nxt, g, run + 1
        else:
            t, f, d1, d2, run = nxt, g, g1, g2, 0
    return t, f, d1, d2


def _log_integrand(a, s0, kappa, log_h):
    """L(t) + ln Gamma(a) of one lobe of :func:`_lobe_expectations` and its first two derivatives."""

    def ell(t):
        u = math.exp(t) if t < 709.0 else math.inf
        h, h1, h2 = log_h(s0 + kappa * t)
        return a * t - u + h, a - u + kappa * h1, kappa * kappa * h2 - u

    return ell


def _lobe_integrand(a, s0, kappa, f_star, log_h_array, t):
    """exp(L(t) - L*), the scaled integrand of :func:`_lobe_expectations`."""
    out = a * t - np.exp(np.minimum(t, 709.0)) + log_h_array(s0 + kappa * t) - f_star
    return np.exp(out, out=out)


def _rung_count(span):
    """2 e + (m > sqrt(1/2)) for 1 + span = m 2^e, one more than the rungs 2^(k/2) short of 1 + span:
    every rung short of an end ``span`` widths away, and one that rounds onto it, is among them."""
    m, e = math.frexp(1.0 + span)
    return 2 * e + (m > 0.7071067811865476)


def _panel_breaks(t_star, t_lo, t_hi, curv, curv_lo, curv_hi):
    """A lobe's first-round breaks: t_lo, t* + ``_BREAK_LADDER`` / sqrt(curv) out to each end, t_hi,
    with curv, curv_lo and curv_hi -L'' at t*, t_lo and t_hi.  An end over ``_STEEP`` times as curved
    as t* takes the half of its side nearer it with t_end -+ 2^(k/2) / sqrt(curv_end): a ladder's
    breaks lie about 0.4 times their distance from its origin apart, so each half keeps the finer."""
    curv = max(curv, 1e-12)
    root, lo_end, hi_end, mid_lo, mid_hi = math.sqrt(curv), (), (), t_lo, t_hi
    if curv_lo > _STEEP * curv:
        mid_lo, root_lo = 0.5 * (t_lo + t_star), math.sqrt(curv_lo)
        lo_end = [t for x in _BREAK_LADDER[_RUNGS + 1:_RUNGS + 1 + _rung_count((mid_lo - t_lo) * root_lo)]
                  if (t := t_lo + x / root_lo) < mid_lo]
    if curv_hi > _STEEP * curv:
        mid_hi, root_hi = 0.5 * (t_star + t_hi), math.sqrt(curv_hi)
        hi_end = [t for x in _BREAK_LADDER[_RUNGS + _rung_count((t_hi - mid_hi) * root_hi):_RUNGS:-1]
                  if mid_hi < (t := t_hi - x / root_hi)]
    first, last = _RUNGS - _rung_count((t_star - mid_lo) * root), _RUNGS + 1 + _rung_count((mid_hi - t_star) * root)
    inner = [t_star + x / root for x in _BREAK_LADDER[first:last]]
    while not inner[0] > mid_lo:
        del inner[0]
    while not inner[-1] < mid_hi:
        inner.pop()
    return [t_lo, *lo_end, *inner, *hi_end, t_hi]


def _lobe_expectations(lobes, kernel):
    """w E[h(s0 + kappa ln U)] for U ~ Gamma(a, 1) and each (ln w, a, s0,
    kappa) of ``lobes``, as a list of (log scale, value, bound).

    ``kernel`` is the pair of forms of ln h: scalar with its first two
    derivatives, and array-valued.  A part is exp(log scale) * value, and
    bound bounds the error of value.  With t = ln U the
    log-integrand L(t) = a t - e^t + ln h(s0 + kappa t) - ln Gamma(a) is
    concave for the BER and capacity kernels.  It is integrated as
    exp(L - L*) on Gauss-Kronrod panels between the points where it has
    fallen ``_DROP`` below its peak L*, with breaks at t* +- w 2^(k/2) out to
    each end (w = 1/sqrt(-L''(t*)); see :func:`_panel_breaks` for a steep end);
    concavity bounds each tail beyond by
    exp(L - L*) / |L'| there.  The peak is found by Newton steps in
    ln N - ln P, where L' = P - N splits into its positive and negative
    parts; each end by a probe that steps past the tangent point, then Newton
    steps in ln(L* - L) far below the level and in L near it, with false
    position where a step leaves the bracket (see :func:`_level_point`).

    The searches and breaks run lobe by lobe, in Python floats.  The first
    round of panels of every lobe then goes through one integrand call and
    one :func:`_gk_panels`, and each lobe's own :func:`_gauss_kronrod` takes
    its slice of that round and stops, before any array of its panels is
    built, or splits by its own tolerance and goes on alone.  Over the
    ``curves`` grid 11 of 1440 lobe integrals go on, each for one round: the
    e^t cliff of a strong-turbulence GG lobe gets the ladder of its own end.
    """
    log_h, log_h_array = kernel
    params, scales, panels, tails, lo, hi = [], [], [], [], [], []
    for log_w, a, s0, kappa in lobes:
        ell = _log_integrand(a, s0, kappa, log_h)
        t_star, f_star, d2 = _argmax(ell, a)
        target = f_star - _DROP
        step = math.sqrt(2.0 * _DROP / max(-d2, 1e-12))
        t_lo, f_lo, slope_lo, d2_lo = _level_point(ell, t_star, target, step, -1.0)
        t_hi, f_hi, slope_hi, d2_hi = _level_point(ell, t_star, target, step, 1.0)
        tails.append((math.exp(f_lo - f_star) / slope_lo if slope_lo > 0.0 else math.inf) + (
            math.exp(f_hi - f_star) / -slope_hi if slope_hi < 0.0 else math.inf
        ))
        breaks = _panel_breaks(t_star, t_lo, t_hi, -d2, -d2_lo, -d2_hi)
        lo += breaks[:-1]
        hi += breaks[1:]
        panels.append(breaks)
        params.append((a, s0, kappa, f_star))
        scales.append(log_w + (f_star - sp.gammaln(a)))
    counts = [len(breaks) - 1 for breaks in panels]
    lo = np.array(lo)
    half = 0.5 * (np.array(hi) - lo)
    # each panel's (a, s0, kappa, L*), as columns that broadcast over its 15 nodes
    columns = np.array(params).repeat(counts, axis=0).T[:, :, None]
    value, error = _gk_panels(_lobe_integrand(*columns, log_h_array, _gk_nodes(lo, half)), half)
    out, end = [], 0
    for args, scale, breaks, tail, count in zip(params, scales, panels, tails, counts):
        first, end = slice(end, end + count), end + count
        integrand = partial(_lobe_integrand, *args, log_h_array)
        try:
            est = _gauss_kronrod(integrand, breaks, _QUAD, (value[first], error[first]))
            v, err = float(est), est.error_bound
        except ConvergenceError as exc:
            v, err = exc.estimate, exc.error_bound
        out.append((scale, v, err + tail))
    return out


def _certified_expectation(link: LinkBudget, terms, kernel, exponential):
    """sum_k w_k E[h(s_k + r ln I)] over the fading mixture, certified.

    ``terms`` holds (ln w_k, s_k) pairs.  A lobe with a = 1 and kappa = r/c
    of 1 or 2, every exponential lobe among them, goes to the closed form
    ``exponential(s0, kappa)``; every other lobe of every term is scaled by
    its own peak, all of them in one :func:`_lobe_expectations` call.  The
    parts are summed in log space and the summed error bound is tested
    against ``CERTIFY_RTOL`` of the summed value.  Returns an
    :class:`Estimate`, which is 0.0 or subnormal when the value lies below
    the double range, or raises :class:`ConvergenceError`.
    """
    r, parts, rest = link.r, [], []
    for log_w, s in terms:
        for log_weight, a, log_b, c in _lobes(link.params):
            log_w_lobe, s0, kappa = log_w + log_weight, s + r * log_b, r / c
            if a == 1.0 and kappa in (1.0, 2.0):
                scale, value, bound = exponential(s0, kappa)
                parts.append((log_w_lobe + scale, value, bound))
            else:
                rest.append((log_w_lobe, a, s0, kappa))
    if rest:
        parts += _lobe_expectations(rest, kernel)
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
        link, [(log_w, math.log(qk) + log_mu) for qk in q], _BER_KERNEL, _ber_exponential
    )


def capacity_quadrature(link: LinkBudget):
    """Ergodic capacity E[ln(1 + tau gamma)] by quadrature, in nats.

    Returns an :class:`Estimate` carrying its error bound, or raises
    :class:`ConvergenceError` when the bound exceeds ``CERTIFY_RTOL`` of it.
    """
    log_tau_mu = math.log(CAPACITY_TAU) + math.log(link.mu_r)
    return _certified_expectation(link, [(0.0, log_tau_mu)], _CAPACITY_KERNEL, _capacity_exponential)


def avg_ber(link: LinkBudget, modulation: Modulation):
    """Average bit error rate, the certified quadrature value; raises
    :class:`ConvergenceError` when it cannot be certified."""
    return float(avg_ber_quadrature(link, modulation))


def ergodic_capacity(link: LinkBudget):
    """Ergodic capacity in nats per channel use, the certified quadrature
    value; raises :class:`ConvergenceError` when it cannot be certified."""
    return float(capacity_quadrature(link))


# ---------------------------------------------------------------------------
# Closed forms (Fox H, the oracle of the quadrature): one GG-lobe term per
# lobe, the exponential lobe as GG(1, lambda, 1), so c = 1 needs no Meijer G
# special case
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _ber_spec_gg(p, a, cr):
    return FoxHSpec(
        m=1, n=2, p=2, q=2,
        upper_params=((1.0, 1.0), (1.0 - p, cr)),
        lower_params=((a, 1.0), (0.0, 1.0)),
    )


@lru_cache(maxsize=256)
def _cap_spec_gg(a, cr):
    return FoxHSpec(
        m=3, n=1, p=2, q=3,
        upper_params=((0.0, cr), (1.0, 1.0)),
        lower_params=((a, 1.0), (0.0, 1.0), (0.0, cr)),
    )


def avg_ber_foxh(link: LinkBudget, modulation: Modulation):
    """Average BER from the paper's Fox H closed form, the tests' oracle for
    :func:`avg_ber`."""
    _check_compat(link, modulation)
    delta, p, q, _ = modulation_params(modulation)
    r, log_mu = link.r, math.log(link.mu_r)
    total = 0.0
    for qk in q:
        for log_w, a, log_b, c in _lobes(link.params):
            log_z = -c * log_b - (c / r) * (math.log(qk) + log_mu)
            total += math.exp(log_w) * fox_h_ln(
                _ber_spec_gg(p, a, c / r), log_z, _FOXH_QUAD, log_prefactor=-sp.gammaln(a)
            )
    return 0.5 * delta * math.exp(-sp.gammaln(p)) * total


def capacity_foxh(link: LinkBudget):
    """Ergodic capacity from the paper's Fox H closed form, in nats; the
    tests' oracle for :func:`ergodic_capacity`."""
    r = link.r
    log_tau_mu = math.log(CAPACITY_TAU) + math.log(link.mu_r)
    total = 0.0
    for log_w, a, log_b, c in _lobes(link.params):
        log_z = -c * log_b - (c / r) * log_tau_mu
        total += math.exp(log_w) * fox_h_ln(
            _cap_spec_gg(a, c / r), log_z, _FOXH_QUAD, log_prefactor=-sp.gammaln(a)
        )
    return total


# ---------------------------------------------------------------------------
# High-SNR asymptotics
# ---------------------------------------------------------------------------

def avg_ber_asymptotic(link: LinkBudget, modulation: Modulation):
    """Elementary-function BER approximation, tight as mu_r grows.

    Each lobe contributes w Gamma(p + ac/r) / Gamma(a + 1) (b^r q_k mu_r)^(-ac/r)
    to the k-th kernel term; a term beyond the double range gives inf.
    """
    _check_compat(link, modulation)
    delta, p, q, _ = modulation_params(modulation)
    r, log_mu = link.r, math.log(link.mu_r)
    total = 0.0
    for qk in q:
        for log_w, a, log_b, c in _lobes(link.params):
            x = a * c / r
            total += _exp(
                log_w + sp.gammaln(p + x) - sp.gammaln(a + 1.0)
                - x * (r * log_b + math.log(qk) + log_mu)
            )
    return 0.5 * delta * math.exp(-sp.gammaln(p)) * total


def capacity_asymptotic(link: LinkBudget):
    """Moments-method capacity approximation at high SNR, in nats."""
    r, log_mu = link.r, math.log(link.mu_r)
    out = math.log(CAPACITY_TAU)
    for log_w, a, log_b, c in _lobes(link.params):
        out += math.exp(log_w) * (r * log_b + log_mu + (r / c) * sp.psi(a))
    return out
