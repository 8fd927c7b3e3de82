"""Numerical integration primitives and the Fox H function.

Adaptive quadrature with an error bound, and a numerical Fox H evaluator
based on direct Mellin-Barnes contour integration along a vertical line.
Gamma-family functions come straight from ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

# scipy.integrate and scipy.optimize are imported inside the functions that use
# them: importing uwoc, and each CLI command that needs neither, skips them

from .errors import ConvergenceError

__all__ = [
    "QuadratureConfig",
    "FoxHSpec",
    "adaptive_quad",
    "fox_h",
    "fox_h_ln",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and effort cap for the adaptive integration routines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadratureConfig()


def _check_positive(name, x):
    if not np.isfinite(x) or x <= 0:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


class Estimate(float):
    """A quadrature value that also carries its absolute error bound."""

    __slots__ = ("error_bound",)

    def __new__(cls, value, error_bound):
        self = super().__new__(cls, value)
        self.error_bound = float(error_bound)
        return self

    def __reduce__(self):
        return Estimate, (float(self), self.error_bound)


def adaptive_quad(f, lo, hi, cfg: QuadratureConfig = DEFAULT_QUAD, points=None):
    """Integrate ``f`` over (lo, hi); either end may be infinite.

    Returns the estimate, an :class:`Estimate` whose ``error_bound`` is the
    absolute error estimate of ``scipy.integrate.quad``, or raises
    :class:`ConvergenceError` carrying the best estimate and its error bound
    when the requested tolerance cannot be certified within
    ``cfg.max_subdivisions`` subdivisions.
    """
    kwargs = dict(
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=max(cfg.max_subdivisions, 10),
        full_output=True,
    )
    if points is not None and np.isfinite(lo) and np.isfinite(hi):
        pts = [p for p in points if lo < p < hi]
        if pts:
            kwargs["points"] = sorted(pts)
    from scipy import integrate

    out = integrate.quad(f, lo, hi, **kwargs)
    value, err = out[0], out[1]
    if err > max(cfg.abs_tol, cfg.rel_tol * abs(value)) * 10.0:
        raise ConvergenceError(
            f"quadrature did not converge (estimate {value!r}, bound {err!r})",
            estimate=value,
            error_bound=err,
        )
    return Estimate(value, err)


@dataclass(frozen=True)
class FoxHSpec:
    """Order and coefficient pairs of a Fox H function.

    Represents H^{m,n}_{p,q}[z | (a_j, A_j)_{1..p} ; (b_j, B_j)_{1..q}] with
    the Mellin-Barnes kernel

        theta(s) = prod_{j<=m} Gamma(b_j + B_j s) * prod_{j<=n} Gamma(1 - a_j - A_j s)
                   / [prod_{j>m} Gamma(1 - b_j - B_j s) * prod_{j>n} Gamma(a_j + A_j s)]

    integrated as (1/2 pi i) int theta(s) z^{-s} ds over a vertical contour
    separating the two pole families.  Construction fails when no such
    contour exists.
    """

    m: int
    n: int
    p: int
    q: int
    upper_params: tuple = field(default_factory=tuple)
    lower_params: tuple = field(default_factory=tuple)

    def __post_init__(self):
        upper = tuple((float(a), float(A)) for a, A in self.upper_params)
        lower = tuple((float(b), float(B)) for b, B in self.lower_params)
        object.__setattr__(self, "upper_params", upper)
        object.__setattr__(self, "lower_params", lower)
        if not (0 <= self.n <= self.p == len(upper)):
            raise ValueError("need 0 <= n <= p == len(upper_params)")
        if not (0 <= self.m <= self.q == len(lower)):
            raise ValueError("need 0 <= m <= q == len(lower_params)")
        if any(A <= 0 for _, A in upper) or any(B <= 0 for _, B in lower):
            raise ValueError("all A_j, B_j must be positive")
        if self.contour_lo >= self.contour_hi:
            raise ValueError(
                "pole families are not separable by a vertical contour "
                f"(gap [{self.contour_lo}, {self.contour_hi}] is empty)"
            )

    @property
    def contour_lo(self):
        """Left edge of the admissible contour strip: max_j<=m(-b_j / B_j)."""
        vals = [-b / B for b, B in self.lower_params[: self.m]]
        return max(vals) if vals else -math.inf

    @property
    def contour_hi(self):
        """Right edge of the admissible strip: min_j<=n((1 - a_j) / A_j)."""
        vals = [(1.0 - a) / A for a, A in self.upper_params[: self.n]]
        return min(vals) if vals else math.inf

    @property
    def decay_rate(self):
        """Coefficient of the e^{-pi |t| delta / 2} kernel decay along the contour."""
        delta = sum(B for _, B in self.lower_params[: self.m])
        delta += sum(A for _, A in self.upper_params[: self.n])
        delta -= sum(B for _, B in self.lower_params[self.m :])
        delta -= sum(A for _, A in self.upper_params[self.n :])
        return delta

    def log_kernel(self, s):
        """log theta(s) for complex s (branch irrelevant: only exp'd sums are used)."""
        total = 0.0 + 0.0j
        for j, (b, B) in enumerate(self.lower_params):
            if j < self.m:
                total += sp.loggamma(b + B * s)
            else:
                total -= sp.loggamma(1.0 - b - B * s)
        for j, (a, A) in enumerate(self.upper_params):
            if j < self.n:
                total += sp.loggamma(1.0 - a - A * s)
            else:
                total -= sp.loggamma(a + A * s)
        return total


def _contour_abscissa(spec: FoxHSpec, log_z: float) -> float:
    """Abscissa of the integration line.

    Chosen to minimize the t = 0 integrand magnitude log|theta(c)| - c log z
    within the admissible strip (a saddle-point rule).  This keeps the
    integrand scaled to the result: a fixed abscissa such as the strip
    midpoint can overshoot the result's magnitude by many orders for extreme
    arguments, losing the value to roundoff in the oscillatory cancellation.
    The kernel magnitude diverges at both pole walls, so the minimum is
    interior to the strip.
    """
    from scipy import optimize

    lo, hi = spec.contour_lo, spec.contour_hi

    def height(c):
        return float(np.real(spec.log_kernel(complex(c, 0.0)))) - c * log_z

    if math.isfinite(lo) and math.isfinite(hi):
        margin = min(0.02 * (hi - lo), 0.05)
        res = optimize.minimize_scalar(
            height, bounds=(lo + margin, hi - margin), method="bounded"
        )
        return float(res.x) if res.success else 0.5 * (lo + hi)

    reach = 10.0 + 3.0 * math.exp(min(abs(log_z), 25.0))
    if math.isfinite(lo):
        res = optimize.minimize_scalar(
            height, bounds=(lo + 0.25, lo + reach), method="bounded"
        )
        return float(res.x) if res.success else lo + 0.5
    if math.isfinite(hi):
        res = optimize.minimize_scalar(
            height, bounds=(hi - reach, hi - 0.25), method="bounded"
        )
        return float(res.x) if res.success else hi - 0.5
    return 0.0


def fox_h_ln(spec: FoxHSpec, log_z: float, cfg: QuadratureConfig = DEFAULT_QUAD,
             log_prefactor: float = 0.0):
    """exp(log_prefactor) * H[exp(log_z)]; all scaling stays in log space.

    ``log_prefactor`` lets callers fold constants such as 1/Gamma(a) into the
    contour integrand, keeping it inside float range even when the bare H
    value would overflow.
    """
    if spec.decay_rate <= 0:
        raise ValueError(
            "Mellin-Barnes integral does not decay along vertical contours "
            f"(decay rate {spec.decay_rate}); this parameter family is unsupported"
        )
    from scipy import integrate

    c0 = _contour_abscissa(spec, log_z)

    def integrand(t):
        # real part of theta(s) z^{-s} on the vertical line s = c0 + i t
        s = complex(c0, t)
        w = spec.log_kernel(s) - s * log_z + log_prefactor
        re = w.real
        if re > 700.0:
            raise ConvergenceError("Mellin-Barnes integrand overflow", estimate=None)
        return math.exp(re) * math.cos(w.imag)

    # The integrand is the real part of a Hermitian function of t, so the
    # full-line integral equals (1/pi) * int_0^inf.  Truncate in chunks,
    # extending until two consecutive chunks are negligible against the
    # running tolerance.
    half_width = max(0.5, 4.0 / (math.pi * spec.decay_rate / 2.0))
    # resolve pole-proximity structure near t = 0 for narrow contour strips
    margin = min(
        c0 - spec.contour_lo if math.isfinite(spec.contour_lo) else half_width,
        spec.contour_hi - c0 if math.isfinite(spec.contour_hi) else half_width,
    )
    first = min(half_width, max(margin, 1e-6) * 8.0)

    total = 0.0
    scale = 0.0
    t0, t1 = 0.0, first
    negligible = 0
    chunk = math.inf
    for _ in range(cfg.max_subdivisions):
        eps = max(cfg.abs_tol, cfg.rel_tol * scale) / 8.0
        chunk = integrate.quad(
            integrand, t0, t1, epsabs=eps, epsrel=1e-12, limit=400,
            full_output=True,
        )[0]
        total += chunk
        scale = max(scale, abs(chunk), abs(total))
        tol = max(cfg.abs_tol, cfg.rel_tol * scale)
        if abs(chunk) < 0.25 * tol:
            negligible += 1
            if negligible >= 2:
                return total / math.pi
        else:
            negligible = 0
        width = min(2.0 * (t1 - t0), 16.0 * half_width)
        t0, t1 = t1, t1 + width
    raise ConvergenceError(
        "Fox H contour truncation did not converge",
        estimate=total / math.pi,
        error_bound=abs(chunk),
    )


def fox_h(spec: FoxHSpec, z: float, cfg: QuadratureConfig = DEFAULT_QUAD):
    """Evaluate H^{m,n}_{p,q}[z] for real z > 0 by contour integration."""
    z = float(z)
    _check_positive("z", z)
    return fox_h_ln(spec, math.log(z), cfg)
