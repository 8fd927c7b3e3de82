"""Numerical integration primitives and the Fox H function.

A numpy Gauss-Kronrod (G7/K15) integrator that evaluates every open panel
in one array call carries the lobe integrals of the BER and capacity route,
whose first round of panels one call serves for several integrals, and the
Fox H evaluator's Mellin-Barnes integral along a vertical contour.
``adaptive_quad`` wraps QUADPACK (``scipy.integrate.quad``) with the same
contract, an error bound or :class:`ConvergenceError`, and stays as the
tests' oracle.  Gamma-family functions are ``scipy.special``'s compiled
ufuncs, through ``sp``, which loads them on first use.
"""

from __future__ import annotations

import importlib.util
import math
import sys
import threading
import types
from dataclasses import dataclass, field

import numpy as np

# SciPy loads on first use: scipy.integrate inside adaptive_quad, the ufuncs
# of scipy.special through ``sp``; importing uwoc loads none of them

from .errors import ConvergenceError, check_finite, check_integer, check_positive, checked_array


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and effort cap for the adaptive integration routines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        check_positive(abs_tol=self.abs_tol, rel_tol=self.rel_tol)
        check_integer(1, max_subdivisions=self.max_subdivisions)


DEFAULT_QUAD = QuadratureConfig()


class _OnFirstUse(types.ModuleType):
    """``scipy.special._ufuncs``, imported on the first attribute read.

    That read copies its namespace in and makes this a plain module, as
    ``importlib.util.LazyLoader`` does; ``_LOAD_LOCK`` makes threads that read
    first at once load it once.  The import skips the package ``__init__``,
    and with it SciPy's array-API layer, which uwoc never uses.
    """

    def __getattr__(self, attr):
        with _LOAD_LOCK:
            if type(self) is _OnFirstUse:
                self.__dict__.update(vars(_import_ufuncs()))
                self.__class__ = types.ModuleType
        return getattr(self, attr)


def _import_ufuncs():
    """The ufuncs module; a later ``import scipy.special`` runs the real ``__init__`` on it.

    While the ufuncs load, a bare package marked as initializing stands in for
    ``scipy.special`` under that module's import lock, so an import of it on
    another thread waits, as for any module being initialized, and then finds
    no stand-in and loads the real package.
    """
    name = "scipy.special"
    try:
        if name not in sys.modules:
            spec = importlib.util.find_spec(name)
            with importlib._bootstrap._ModuleLockManager(name):
                if name not in sys.modules:
                    # CPython's _find_and_load takes a module's lock, and so waits,
                    # when the module it finds in sys.modules has __spec__._initializing
                    # set; _load_unlocked sets the flag before it inserts the module,
                    # and so does this.  A loader-race test in tests/test_special.py guards it.
                    stub = importlib.util.module_from_spec(spec)
                    spec._initializing = True
                    sys.modules[name] = stub
                    try:
                        return importlib.import_module(name + "._ufuncs")
                    finally:  # before the lock is released
                        if sys.modules.get(name) is stub:
                            del sys.modules[name]
    except (ImportError, AttributeError, RuntimeError):
        pass  # moved in a later SciPy or Python, or a deadlock the lock detected: the ordinary import
    return importlib.import_module(name + "._ufuncs")


_LOAD_LOCK = threading.Lock()
sp = _OnFirstUse("scipy.special._ufuncs")  # not put in sys.modules


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


# Gauss-Kronrod G7/K15 rule on [-1, 1] (QUADPACK's qk15): nodes, and the
# Kronrod and Gauss weights at those nodes (Gauss nodes are every other one)
_GK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_GK_NODES = np.concatenate([-_GK_HALF, [0.0], _GK_HALF[::-1]])
_GK_SPAN = 1.0 + _GK_NODES  # the nodes on [0, 2]
_K15 = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_K15 = np.concatenate([_K15, [0.209482141084727828012999174891714], _K15[::-1]])
_G7 = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                0.381830050505118944950369775488975])
_G7 = np.concatenate([_G7, [0.417959183673469387755102040816327], _G7[::-1]])
_GK_WEIGHTS = np.zeros((15, 2))
_GK_WEIGHTS[:, 0] = _K15
_GK_WEIGHTS[1::2, 1] = _G7
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# the Fox H contour ends where the integrand has fallen this far in log below
# its value at t = 0; the abscissa search takes this many points out from each
# pole wall and again to refine its best point
_FOXH_DROP = 60.0
_ABSCISSA_GRID = 64


def _gk_nodes(lo, half):
    """The 15 nodes of each panel (left end ``lo``, half-width ``half``), one row a panel."""
    return lo[:, None] + half[:, None] * _GK_SPAN


def _gk_panels(fv, half):
    """Kronrod value and error of each panel from ``fv``, its integrand at its
    nodes (one row a panel; overwritten), and its half-width ``half``.

    The error is QUADPACK's: resasc * min(1, (200 |K - G| / resasc)^1.5),
    floored at 50 eps resabs.  The ratio is taken as min(200 |K - G|, resasc)
    / max(resasc, tiny), which is the same wherever resasc is a normal float
    and neither divides by zero nor overflows where it is not.
    """
    sums = fv @ _GK_WEIGHTS
    kronrod = sums[:, 0]
    resabs = np.abs(fv) @ _K15
    fv -= 0.5 * kronrod[:, None]
    resasc = np.abs(fv, out=fv) @ _K15
    spread = 200.0 * np.abs(kronrod - sums[:, 1])
    error = resasc * (np.minimum(spread, resasc) / np.maximum(resasc, _TINY)) ** 1.5
    np.maximum(error, 50.0 * _EPS * resabs, out=error)
    kronrod *= half
    error *= half
    return kronrod, error


def _gauss_kronrod(f, breaks, cfg: QuadratureConfig = DEFAULT_QUAD, first=None):
    """Integrate ``f`` over [breaks[0], breaks[-1]] on G7/K15 panels.

    ``f`` maps an array of nodes (a row of 15 a panel) to the integrand
    there, elementwise; every new panel's nodes go through it in one call.  ``breaks`` (finite, increasing) seed
    the panels; ``first``, when given, is the (value, error) pair that
    :func:`_gk_panels` already returned for those panels, so a caller can
    evaluate the first round of several integrals at once; one that certifies
    returns before ``f`` runs or any array of panels is built.  Each panel's error
    is QUADPACK's estimate (see :func:`_gk_panels`).  While the summed error
    exceeds max(abs_tol, rel_tol |total|), every panel whose error is over its
    share, by width, of that tolerance is bisected.  Returns an
    :class:`Estimate`, or raises :class:`ConvergenceError` with the estimate
    and its bound once more than ``cfg.max_subdivisions`` panels would be in
    use.
    """
    if first is None:
        edges = np.asarray(breaks, dtype=float)
        half = 0.5 * (edges[1:] - edges[:-1])
        return _gauss_kronrod(f, edges, cfg, _gk_panels(f(_gk_nodes(edges[:-1], half)), half))
    value, error = first
    lo = None  # every panel so far: its left end, half-width, integral and error
    while True:
        total, bound = float(value.sum()), float(error.sum())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if bound <= tol:
            return Estimate(total, bound)
        if lo is None:  # the first split lays out the seed panels
            breaks = np.asarray(breaks, dtype=float)
            lo, half, span = breaks[:-1], 0.5 * (breaks[1:] - breaks[:-1]), breaks[-1] - breaks[0]
        # the shares sum to tol, so some panel is over its share, up to rounding
        split = error > tol * 2.0 * half / span
        if not split.any():
            split[np.argmax(error)] = True
        if lo.size + np.count_nonzero(split) > cfg.max_subdivisions:
            raise ConvergenceError(
                f"quadrature did not converge (estimate {total!r}, bound {bound!r})",
                estimate=total,
                error_bound=bound,
            )
        keep = ~split
        new_half = 0.5 * half[split]
        new_lo = np.concatenate([lo[split], lo[split] + 2.0 * new_half])
        new_half = np.concatenate([new_half, new_half])
        new_value, new_error = _gk_panels(f(_gk_nodes(new_lo, new_half)), new_half)
        lo, half = np.concatenate([lo[keep], new_lo]), np.concatenate([half[keep], new_half])
        value = np.concatenate([value[keep], new_value])
        error = np.concatenate([error[keep], new_error])


@dataclass(frozen=True)
class FoxHSpec:
    """Order and coefficient pairs of a Fox H function.

    Represents H^{m,n}_{p,q}[z | (a_j, A_j)_{1..p} ; (b_j, B_j)_{1..q}] with
    the Mellin-Barnes kernel

        theta(s) = prod_{j<=m} Gamma(b_j + B_j s) * prod_{j<=n} Gamma(1 - a_j - A_j s)
                   / [prod_{j>m} Gamma(1 - b_j - B_j s) * prod_{j>n} Gamma(a_j + A_j s)]

    integrated as (1/2 pi i) int theta(s) z^{-s} ds over a vertical contour
    separating the two pole families.  Construction fails when no such
    contour exists, with DataError when a scale is not finite and positive
    (indexed over A_1..A_p, then B_1..B_q), and with ValueError naming a_j or
    b_j when a location is not finite.
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
        checked_array([A for _, A in upper + lower], "scale A_j/B_j")
        check_finite(**{f"a_{j}": a for j, (a, _) in enumerate(upper, 1)},
                     **{f"b_{j}": b for j, (b, _) in enumerate(lower, 1)})
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
        """log theta(s) for complex s, a scalar or an array (branch irrelevant:
        only exp'd sums are used)."""
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
    within the admissible strip (a saddle-point rule): over a grid geometric
    out from each pole wall, then over a uniform grid between the neighbours
    of its best point.  This keeps the integrand scaled to the result: a
    fixed abscissa such as the strip midpoint can overshoot the result's
    magnitude by many orders for extreme arguments, losing the value to
    roundoff in the oscillatory cancellation.  The kernel magnitude diverges
    at both pole walls, so the minimum is interior to the strip; at extreme
    arguments it lies close to a wall, which the geometric grid reaches.
    """
    lo, hi = spec.contour_lo, spec.contour_hi
    if math.isfinite(lo) and math.isfinite(hi):
        steps = np.geomspace(1e-10, 0.5, _ABSCISSA_GRID) * (hi - lo)
        grid = np.concatenate([lo + steps, hi - steps[-2::-1]])  # the midpoint once
    elif math.isfinite(lo) or math.isfinite(hi):
        reach = 10.0 + 3.0 * math.exp(min(abs(log_z), 25.0))
        steps = np.geomspace(1e-10, reach, _ABSCISSA_GRID)
        grid = lo + steps if math.isfinite(lo) else hi - steps[::-1]
    else:
        return 0.0
    # c log z stays in range; past the cap every |log z| picks the same end of the grid
    cap = 1e300 / max(abs(grid[0]), abs(grid[-1]), 1.0)
    log_z = min(max(log_z, -cap), cap)

    def height(c):
        return spec.log_kernel(c + 0j).real - c * log_z

    k = int(np.argmin(height(grid)))
    grid = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)], _ABSCISSA_GRID)
    return float(grid[np.argmin(height(grid))])


def fox_h_ln(spec: FoxHSpec, log_z: float, cfg: QuadratureConfig = DEFAULT_QUAD,
             log_prefactor: float = 0.0):
    """exp(log_prefactor) * H[exp(log_z)]; all scaling stays in log space.

    ``log_prefactor`` lets callers fold constants such as 1/Gamma(a) into the
    contour integrand, keeping it inside float range even when the bare H
    value would overflow.  The integrand on s = c0 + i t is the real part
    of theta(s) z^{-s}, a Hermitian function of t, so H is (1/pi) times its
    integral over t >= 0.  It is integrated scaled by its magnitude at t = 0
    on Gauss-Kronrod panels out to where it has fallen ``_FOXH_DROP`` in
    log below that, and ``cfg`` is in those scaled units.  Returns an
    :class:`Estimate`, or raises :class:`ConvergenceError` carrying the
    estimate and bound scaled back; a ``log_z`` or ``log_prefactor`` that is
    not finite raises ValueError.
    """
    check_finite(log_z=log_z, log_prefactor=log_prefactor)
    if spec.decay_rate <= 0:
        raise ValueError(
            "Mellin-Barnes integral does not decay along vertical contours "
            f"(decay rate {spec.decay_rate}); this parameter family is unsupported"
        )
    c0 = _contour_abscissa(spec, log_z)

    def log_integrand(t):
        s = c0 + 1j * t
        return spec.log_kernel(s) - s * log_z

    top = float(log_integrand(0.0).real)
    if top + log_prefactor > 700.0:
        raise ConvergenceError("Mellin-Barnes integrand overflow", estimate=None)
    scale = math.exp(top + log_prefactor) / math.pi
    if scale == 0.0:  # scaled, the integrand is 1 at t = 0: H is below the double range
        return Estimate(0.0, 0.0)

    def integrand(t):
        w = log_integrand(t)
        return np.exp(w.real - top) * np.cos(w.imag)

    # panels from t = 0 double in width up to a cap, the first resolving any
    # pole close to the contour in a narrow strip
    half_width = max(0.5, 4.0 / (math.pi * spec.decay_rate / 2.0))
    margin = min(
        c0 - spec.contour_lo if math.isfinite(spec.contour_lo) else half_width,
        spec.contour_hi - c0 if math.isfinite(spec.contour_hi) else half_width,
    )
    width = min(half_width, 8.0 * margin)
    breaks = [0.0, width]
    while log_integrand(breaks[-1]).real > top - _FOXH_DROP:
        width = min(2.0 * width, 16.0 * half_width)
        breaks.append(breaks[-1] + width)
    try:
        est = _gauss_kronrod(integrand, breaks, cfg)
    except ConvergenceError as exc:
        raise ConvergenceError(
            "Fox H contour integral did not converge",
            estimate=scale * exc.estimate,
            error_bound=scale * exc.error_bound,
        ) from exc
    return Estimate(scale * est, scale * est.error_bound)

