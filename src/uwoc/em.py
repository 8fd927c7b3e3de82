"""Expectation-Maximization fitting of the two-lobe irradiance mixtures.

Alternates posterior responsibilities for the hidden component labels with
weighted maximum-likelihood updates of the component parameters.  The
Generalized Gamma M-step is derived directly from the expected complete-data
log-likelihood: with theta = b^c, the inner Gamma ML eliminates the shape a
and scale theta, and a warm-started Newton ascent of the resulting profile
likelihood in ln c finds the power shape.  SQUAREM (Varadhan & Roland, Scand.
J. Stat. 35:335, 2008) accelerates the EM maps of every variant.
"""

from __future__ import annotations

import contextvars
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .distributions import (
    EggParams,
    EgParams,
    ExpLognormalParams,
    MixtureModel,
    _log_mix,
)
from .errors import DataError, DegenerateComponentError, FitFailureError
from .special import sp

__all__ = [
    "EmConfig",
    "FitReport",
    "e_step",
    "m_step_gg",
    "m_step_exp",
    "update_omega",
    "log_likelihood",
    "fit",
]

# per-step slack on the ascent property, absorbing rounding in the M-steps
ASCENT_SLACK = 1e-9

# responsibility mass below this (relative to n) freezes a component
_MASS_EPS = 1e-10

# admissible power shapes c, as ln c
_LOG_C_LIMITS = (math.log(1e-3), math.log(2e4))
# grid points of the cold-start scan in ln c
_SCAN_POINTS = 33
# Newton ascent in ln c: longest step, step short enough to take untested,
# convergence in ln c, iteration cap
_MAX_LOG_STEP = 1.0
_TRUSTED_STEP = 1e-4
_LOG_C_TOL = 1e-10
_NEWTON_ITERS = 100
# the slope c Q'(c) / W counts as zero below _DQ_TOL * (1 + a): rounding in
# the spread ln(S_c / W) - c lbar ~ 1 / (2a) reaches the slope amplified ~2a
_DQ_TOL = 1e-13
# largest |ln b| that m_step_gg returns
_LOG_B_MAX = 700.0
# Gamma shape equation: relative step at which a counts as solved, iteration cap
_SHAPE_RTOL = 1e-15
_SHAPE_ITERS = 200


@dataclass(frozen=True)
class EmConfig:
    """Knobs of the EM driver.

    ``epsilon`` bounds the largest absolute parameter change at convergence;
    ``init_strategy`` is ``quantile_split`` (default: the exponential lobe
    seeds from the lowest-intensity quintile, matching its physical role as
    the blockage component) or ``user_supplied`` (requires ``init_params``).  ``max_iters`` caps the EM maps (M-steps) of one
    restart.
    """

    epsilon: float = 1e-6
    max_iters: int = 500
    restarts: int = 3
    init_strategy: str = "quantile_split"
    seed: int = 0
    init_params: Optional[MixtureModel] = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        if self.init_strategy not in ("quantile_split", "user_supplied"):
            raise ValueError(f"unknown init_strategy {self.init_strategy!r}")
        if self.init_strategy == "user_supplied" and self.init_params is None:
            raise ValueError("user_supplied initialization requires init_params")


@dataclass
class FitReport:
    """Result of one EM fit: the selected model plus convergence diagnostics.

    ``iterations`` counts the EM maps (M-steps) of the selected restart and
    ``loglik_trace`` holds the log-likelihood of each point it accepted.
    ``diagnostics`` has one entry per restart: its EM maps, extrapolations
    accepted and rejected, convergence flag and final log-likelihood, or the
    error that ended it.
    """

    model: MixtureModel
    loglik_trace: list[float]
    iterations: int
    converged: bool
    responsibilities_summary: dict
    scintillation_index: float
    restart_index: int = 0
    diagnostics: list[dict] = field(default_factory=list)

    @property
    def loglik(self):
        return self.loglik_trace[-1]

    def to_dict(self):
        out = self.model.to_dict()
        out.update(
            loglik=self.loglik,
            iterations=self.iterations,
            converged=self.converged,
            scintillation_index=self.scintillation_index,
            responsibilities_summary=self.responsibilities_summary,
            diagnostics=self.diagnostics,
        )
        return out


def validate_samples(samples):
    """Samples as a float array; positive and finite or DataError with index."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("no samples given")
    bad = ~(np.isfinite(arr) & (arr > 0))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DataError(
            f"sample {idx} is not a positive finite value ({arr[idx]!r})", index=idx
        )
    return arr


def log_likelihood(samples, model: MixtureModel):
    """Observed-data log-likelihood sum_i ln f(I_i)."""
    arr = validate_samples(samples)
    return float(np.sum(model.log_pdf(arr)))


def _resp_and_loglik(arr, log_i, params):
    """Responsibilities and observed-data log-likelihood in one density pass."""
    log_mix, resp = _log_mix(params.omega, *params.component_log_pdfs(arr, log_i=log_i))
    return resp, float(log_mix.sum())


def e_step(samples, params: MixtureModel):
    """Posterior probability gamma_i that each sample came from the exponential lobe."""
    arr = validate_samples(samples)
    return _resp_and_loglik(arr, np.log(arr), params)[0]


def update_omega(responsibilities):
    """Mixing weight as the mean responsibility."""
    resp = np.asarray(responsibilities, dtype=float)
    if resp.size == 0:
        raise DataError("no responsibilities given")
    return float(resp.mean())


def m_step_exp(samples, responsibilities):
    """Weighted ML update of the exponential scale.

    The maximizer of the expected complete-data log-likelihood divides the
    responsibility-weighted intensity sum by the responsibility mass.
    """
    return _exp_scale(validate_samples(samples), np.asarray(responsibilities, dtype=float))


def _exp_scale(samples, resp):
    """m_step_exp on samples the caller has already validated."""
    mass = resp.sum()
    if mass <= _MASS_EPS * samples.size:
        raise DegenerateComponentError("exponential component has no responsibility mass")
    return _dot(resp, samples) / mass


def _dot(x, y):
    """sum_i x_i y_i, summed in an order that does not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", x, y))


def m_step_gg(samples, responsibilities, c_hint=None, *, log_i=None):
    """Weighted Generalized Gamma ML update, returned as (a, b, c).

    Maximizes Q = sum_i w_i ln g(I_i; a, b, c) with w_i = 1 - gamma_i.  For a
    fixed power shape c the values I^c are Gamma(a, theta = b^c), so the
    weighted Gamma ML gives a(c) and theta(c), and the profile Q(c) with its
    first two derivatives follows from S_c = sum w I^c, T_c = sum w I^c ln I
    and U_c = sum w I^c ln^2 I: one pass over the data per c.  A safeguarded
    Newton ascent in ln c starts at ``c_hint``; without a hint, or when no
    step from it ascends, it starts from the best point of a coarse ln c scan
    over the admissible range instead.  Where the maximum lies at a c whose
    scale b would over- or underflow, the best point evaluated with a finite
    b is returned.  ``log_i`` is ln I of samples the caller has already
    validated; passing it skips the check and the logarithm.
    """
    if log_i is None:
        log_i = np.log(validate_samples(samples))
    weights = 1.0 - np.asarray(responsibilities, dtype=float)
    w_total = float(weights.sum())
    if w_total <= _MASS_EPS * log_i.size:
        raise DegenerateComponentError("second component has no responsibility mass")
    # centred on lbar, the sums give R_c - lbar and ln(S_c/W) - c lbar directly;
    # arrays are updated in place, as fresh 100k-sample buffers cost page faults
    lbar = _dot(weights, log_i) / w_total
    x = np.subtract(log_i, lbar)
    x2 = x * x
    with np.errstate(divide="ignore"):
        log_w = np.log(weights, out=weights)
    log_w_total = math.log(w_total)
    work = np.empty_like(x)
    visited = []

    def point(u):
        """Profile Q/W at c = e^u with its first two derivatives in u, or None."""
        c = math.exp(u)
        t = np.multiply(x, c, out=work)
        t += log_w
        m = t.max()
        t -= m
        np.exp(t, out=t)
        s = float(t.sum())
        mean = _dot(t, x) / s  # R_c - lbar, R_c = T_c / S_c
        var = _dot(t, x2) / s - mean * mean  # U_c / S_c - R_c^2
        spread = m + math.log(s) - log_w_total  # ln(S_c / W) - c lbar
        if not spread > 0.0:
            return None
        a = _solve_gamma_shape(spread)
        q = u - lbar - a * spread + a * math.log(a) - a - sp.gammaln(a)
        da_dc = mean / (1.0 / a - _trigamma(a))
        dq = 1.0 - a * c * mean
        d2q = -a * c * mean - c * c * (mean * da_dc + a * var)
        visited.append(_ProfilePoint(u, q, dq, d2q, a, lbar + (spread - math.log(a)) / c))
        return visited[-1]

    best, ascended = None, False
    if c_hint is not None and np.isfinite(c_hint) and c_hint > 0:
        start = point(min(max(math.log(c_hint), _LOG_C_LIMITS[0]), _LOG_C_LIMITS[1]))
        if start is not None:
            best, ascended = _newton_ascent(point, start)
    if not ascended:
        cold = _newton_ascent(point, _scan(point))[0]
        if best is None or cold.q > best.q:
            best = cold
    if abs(best.log_b) > _LOG_B_MAX:
        # b = theta^(1/c) would over- or underflow: best point seen where it does not
        best = max((p for p in visited if abs(p.log_b) <= _LOG_B_MAX), key=lambda p: p.q, default=None)
        if best is None:
            raise DegenerateComponentError("no power shape gives the GG component a finite scale")
    return best.a, math.exp(best.log_b), math.exp(best.u)


@dataclass(frozen=True)
class _ProfilePoint:
    u: float  # ln c
    q: float  # profile Q / W
    dq: float  # dQ/du / W
    d2q: float  # d2Q/du2 / W
    a: float
    log_b: float


def _scan(point):
    """Best point of a coarse ln c grid over the admissible range."""
    points = [p for p in map(point, np.linspace(*_LOG_C_LIMITS, _SCAN_POINTS)) if p is not None]
    if not points:
        raise DegenerateComponentError("samples are degenerate for the GG component")
    return max(points, key=lambda p: p.q)


def _newton_ascent(point, current):
    """Newton ascent of the profile in u = ln c from ``current``.

    A step is the Newton step where the profile is concave and a full-length
    gradient step elsewhere, clamped to _MAX_LOG_STEP and to the admissible
    range, and halved until it ascends.  Short Newton steps in a concave
    region are taken as they are: their gain lies below the rounding of Q.
    Returns (point, ascended); ascended is False when a step that should have
    ascended found no ascent before it shrank to nothing.
    """
    for _ in range(_NEWTON_ITERS):
        if current.d2q < 0.0:
            step = -current.dq / current.d2q
        else:
            step = math.copysign(_MAX_LOG_STEP, current.dq)
        step = min(max(step, -_MAX_LOG_STEP), _MAX_LOG_STEP)
        step = min(max(current.u + step, _LOG_C_LIMITS[0]), _LOG_C_LIMITS[1]) - current.u
        if abs(step) <= _LOG_C_TOL or abs(current.dq) <= _DQ_TOL * (1.0 + current.a):
            return current, True
        while True:
            trial = point(current.u + step)
            if trial is not None and (
                trial.q >= current.q or (current.d2q < 0.0 and abs(step) <= _TRUSTED_STEP)
            ):
                current = trial
                break
            step *= 0.5
            if abs(step) <= _LOG_C_TOL:
                return current, False
    return current, True


def _trigamma(a):
    """psi'(a): the ufunc behind sp.polygamma(1, a), without its Python wrapper."""
    return sp.zeta(2.0, a)


def _solve_gamma_shape(spread):
    """Shape a with ln a - digamma(a) = spread (> 0), the weighted Gamma ML equation.

    ln a - psi(a) decreases from +inf to 0 and is convex.  From Minka's
    closed-form start a bracket is grown until it holds the root; Newton steps
    then shrink it, with a bisection in ln a wherever a step leaves the
    bracket or fails to halve the step before it.  Near the root of a large a
    rounding makes ln a - psi(a) a staircase, which only the bisection pins.
    """
    if spread <= 0.0:
        raise DegenerateComponentError("zero spread in the Gamma shape equation")
    if spread < 1e-12:
        return 0.5 / spread  # ln a - psi(a) = 1/(2a) + O(1/a^2)
    a = (3.0 - spread + math.sqrt((spread - 3.0) ** 2 + 24.0 * spread)) / (12.0 * spread)
    a = min(max(a, 1e-12), 1e14)
    lo, hi = a, a
    for _ in range(200):
        if math.log(lo) - sp.digamma(lo) - spread >= 0.0:
            break
        lo /= 4.0
    for _ in range(200):
        if math.log(hi) - sp.digamma(hi) - spread <= 0.0:
            break
        hi *= 4.0
    last_step = math.inf
    for _ in range(_SHAPE_ITERS):
        g = math.log(a) - sp.digamma(a) - spread
        if g == 0.0:
            return a
        if g > 0.0:
            lo = a
        else:
            hi = a
        new = a - g / (1.0 / a - _trigamma(a))
        if not lo < new < hi or abs(new - a) > 0.5 * last_step:
            new = math.sqrt(lo * hi)
        if abs(new - a) <= _SHAPE_RTOL * a:
            return new
        last_step = abs(new - a)
        a = new
    return a


def _m_step_gamma(samples, log_i, responsibilities):
    """Weighted Gamma ML update (shape via the digamma equation, scale closed form)."""
    weights = 1.0 - responsibilities
    w_total = float(weights.sum())
    if w_total <= _MASS_EPS * samples.size:
        raise DegenerateComponentError("second component has no responsibility mass")
    mean = _dot(weights, samples) / w_total
    mean_log = _dot(weights, log_i) / w_total
    spread = math.log(mean) - mean_log
    alpha = _solve_gamma_shape(spread)
    return alpha, mean / alpha


def _m_step_lognormal(log_i, responsibilities):
    """Weighted ML update of the Lognormal lobe: mean/variance of ln I."""
    weights = 1.0 - responsibilities
    w_total = float(weights.sum())
    if w_total <= _MASS_EPS * log_i.size:
        raise DegenerateComponentError("second component has no responsibility mass")
    mu = _dot(weights, log_i) / w_total
    sigma2 = _dot(weights, (log_i - mu) ** 2) / w_total
    if sigma2 <= 0.0:
        raise DegenerateComponentError("zero log-variance in the Lognormal lobe")
    return mu, sigma2


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _gg_moment_init(values):
    """Method-of-moments (a, b) at fixed c = 2: values^2 is then Gamma(a, b^2)."""
    squared = values**2
    mean = float(squared.mean())
    var = float(squared.var())
    if var <= 0.0 or mean <= 0.0:
        return 1.0, math.sqrt(max(mean, 1e-12))
    a = min(max(mean**2 / var, 1e-3), 1e4)
    return a, math.sqrt(mean / a)


def _initial_params(samples, variant, cfg: EmConfig):
    if cfg.init_strategy == "user_supplied":
        if cfg.init_params.variant != variant:
            raise ValueError(
                f"init_params is a {cfg.init_params.variant!r} model, expected {variant!r}"
            )
        return cfg.init_params

    split = np.quantile(samples, 0.2)
    low = samples[samples <= split]
    high = samples[samples > split]
    if low.size == 0 or high.size == 0:
        low = high = samples
    omega, lam = 0.2, float(low.mean())

    if variant == "egg":
        a, b = _gg_moment_init(high)
        return EggParams(omega, lam, a, b, 2.0)
    if variant == "eg":
        mean = float(high.mean())
        var = float(high.var())
        alpha = min(max(mean**2 / var, 1e-3), 1e6) if var > 0 else 1.0
        return EgParams(omega, lam, alpha, mean / alpha)
    log_high = np.log(high)
    mu = float(log_high.mean())
    sigma2 = max(float(log_high.var()), 1e-6)
    return ExpLognormalParams(omega, lam, mu, sigma2)


def _perturb(params, rng):
    """Multiplicative log-normal jitter for restart diversification."""
    factor = lambda: float(rng.lognormal(0.0, 0.3))
    omega = min(max(params.omega * factor(), 1e-3), 1.0 - 1e-3)
    if isinstance(params, EggParams):
        return EggParams(
            omega, params.lam * factor(), params.a * factor(),
            params.b * factor(), params.c * factor(),
        )
    if isinstance(params, EgParams):
        return EgParams(omega, params.lam * factor(), params.alpha * factor(),
                        params.beta * factor())
    return ExpLognormalParams(
        omega, params.lam * factor(),
        params.mu + float(rng.normal(0.0, 0.3 * (abs(params.mu) + 0.1))),
        params.sigma2 * factor(),
    )


def _param_vector(params):
    if isinstance(params, EggParams):
        return np.array([params.a, params.b, params.c, params.lam, params.omega])
    if isinstance(params, EgParams):
        return np.array([params.alpha, params.beta, params.lam, params.omega])
    return np.array([params.mu, params.sigma2, params.lam, params.omega])


def _squarem_point(theta0, theta1, theta2):
    """SQUAREM's extrapolation from two successive EM maps, or None where undefined.

    In unconstrained coordinates x (logit omega and ln of each positive
    parameter; the Lognormal mu, first in its vector, as it is), with
    r = x1 - x0, v = x2 - 2 x1 + x0 and the S3 step length alpha = -|r| / |v|
    clamped to at most -1, the point is x0 - 2 alpha r + alpha^2 v; alpha = -1
    gives theta2 itself.
    """
    k = 1 if isinstance(theta0, ExpLognormalParams) else 0

    def free(params):
        x = _param_vector(params)
        with np.errstate(divide="ignore"):
            x[k:] = np.log(x[k:])
            x[-1] -= np.log1p(-params.omega)
        return x

    x0, x1, x2 = free(theta0), free(theta1), free(theta2)
    r = x1 - x0
    v = x2 - x1 - r
    r_norm, v_norm = math.hypot(*r), math.hypot(*v)
    if not (math.isfinite(r_norm) and math.isfinite(v_norm) and v_norm > 0.0):
        return None
    alpha = min(-r_norm / v_norm, -1.0)
    x = x0 - 2.0 * alpha * r + alpha * alpha * v
    with np.errstate(over="ignore"):
        x[k:-1] = np.exp(x[k:-1])
    x[-1] = sp.expit(x[-1])
    try:
        return type(theta2)(float(x[-1]), float(x[-2]), *map(float, x[:-2]))
    except ValueError:
        return None  # a parameter left the range of a double


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _gg_update(samples, log_i, resp, params: EggParams):
    """GG lobe M-step, kept only when it does not lower the lobe's Q.

    The profile Newton ascent starts at the previous c; comparing the lobe's
    expected log-likelihood directly guards the monotone trace against
    rounding in the closed-form profile.
    """
    weights = 1.0 - resp
    w_total = float(weights.sum())
    w_log_i = _dot(weights, log_i)
    work = np.empty_like(log_i)

    def q_of(a, b, c):
        """sum_i w_i ln g(I_i; a, b, c), the Q contribution of the GG lobe."""
        log_theta = c * math.log(b)
        power = np.multiply(log_i, c, out=work)
        power -= log_theta
        np.minimum(power, 700.0, out=power)
        np.exp(power, out=power)
        return (w_total * (math.log(c) - a * log_theta - sp.gammaln(a))
                + (a * c - 1.0) * w_log_i - _dot(weights, power))

    a, b, c = m_step_gg(samples, resp, c_hint=params.c, log_i=log_i)
    if q_of(a, b, c) >= q_of(params.a, params.b, params.c):
        return replace(params, a=a, b=b, c=c)
    return params


def _second_lobe_update(samples, log_i, resp, params, variant):
    """M-step of the non-exponential lobe; returns an updated params object."""
    if variant == "egg":
        return _gg_update(samples, log_i, resp, params)
    if variant == "eg":
        alpha, beta = _m_step_gamma(samples, log_i, resp)
        return replace(params, alpha=alpha, beta=beta)
    mu, sigma2 = _m_step_lognormal(log_i, resp)
    return replace(params, mu=mu, sigma2=sigma2)


def _em_map(samples, log_i, resp, params, variant):
    """One EM map F: the M-steps from ``resp``, the responsibilities of ``params``."""
    candidate = params
    try:
        candidate = replace(candidate, lam=_exp_scale(samples, resp))
    except DegenerateComponentError:
        pass  # lobe frozen; omega decides its weight
    candidate = replace(candidate, omega=min(max(update_omega(resp), 0.0), 1.0))
    try:
        # per-component Q acceptance keeps this an ascent step
        return _second_lobe_update(samples, log_i, resp, candidate, variant)
    except DegenerateComponentError:
        return candidate


def _em_once(samples, log_i, variant, cfg: EmConfig, params):
    """One SQUAREM-accelerated EM run from ``params``; ``log_i`` is ln of the samples.

    A cycle maps twice from the accepted point theta0, theta1 = F(theta0) and
    theta2 = F(theta1), extrapolates from the three (_squarem_point) and maps
    once from the extrapolated point; that theta3 replaces theta2 when its
    log-likelihood is finite and no lower.  An extrapolated point with a
    non-finite log-likelihood is rejected unmapped; a lobe degenerate there is
    frozen by the map, as anywhere else.  The run converges when one map
    from an accepted point moves the parameter vector by at most epsilon, and
    stops unconverged at the last accepted point when such a map lowers the
    likelihood.  Returns the parameters, their responsibilities, the
    log-likelihood of each accepted point and the run's counts, in which
    ``iterations`` counts EM maps.
    """
    resp, ll = _resp_and_loglik(samples, log_i, params)
    trace = [ll]
    run = {"iterations": 0, "extrapolations_accepted": 0, "extrapolations_rejected": 0,
           "converged": False}

    def step(params, resp):
        """One map from an accepted point: (params, resp, stop)."""
        new = _em_map(samples, log_i, resp, params, variant)
        new_resp, ll = _resp_and_loglik(samples, log_i, new)
        if ll < trace[-1] - ASCENT_SLACK:
            # should not happen with per-component acceptance; stop cleanly,
            # keeping the last accepted parameters, and report no convergence
            return params, resp, True
        run["iterations"] += 1
        trace.append(ll)
        moved = float(np.max(np.abs(_param_vector(new) - _param_vector(params))))
        run["converged"] = moved <= cfg.epsilon
        return new, new_resp, run["converged"]

    while run["iterations"] < cfg.max_iters:
        thetas = [params]
        for _ in range(2):
            params, resp, stop = step(params, resp)
            if stop or run["iterations"] == cfg.max_iters:
                return params, resp, trace, run
            thetas.append(params)
        kept = False
        prime = _squarem_point(*thetas)
        if prime is not None:
            prime_resp, prime_ll = _resp_and_loglik(samples, log_i, prime)
            if math.isfinite(prime_ll):
                new = _em_map(samples, log_i, prime_resp, prime, variant)
                run["iterations"] += 1
                new_resp, ll = _resp_and_loglik(samples, log_i, new)
                kept = math.isfinite(ll) and ll >= trace[-1]
        if kept:
            params, resp = new, new_resp
            trace.append(ll)
            run["extrapolations_accepted"] += 1
        else:
            run["extrapolations_rejected"] += 1
    return params, resp, trace, run


def fit(samples, variant="egg", cfg: EmConfig = EmConfig()):
    """Fit one mixture variant by EM with random restarts.

    Runs ``cfg.restarts`` independent EM chains (the first from the plain
    initialization, later ones from jittered copies), and returns the
    :class:`FitReport` of the best restart, with every restart's diagnostics.
    A later restart replaces the one kept only when its final log-likelihood
    is higher by more than ``ASCENT_SLACK``, so restarts that end within
    rounding of each other keep the earlier one.  The chains
    run concurrently, one thread per core, and are read in restart order, so
    the report has the same floats as chains run one after another.
    """
    if variant not in ("egg", "eg", "explognormal"):
        raise ValueError(f"unknown variant {variant!r}")
    arr = validate_samples(samples)
    log_i = np.log(arr)  # shared by every E- and M-step of every restart
    if arr.size < 100:
        warnings.warn(
            f"only {arr.size} samples; mixture estimates will be unstable",
            UserWarning,
            stacklevel=2,
        )

    from concurrent.futures import ThreadPoolExecutor  # here, not at start-up: only a fit needs it
    base_init = _initial_params(arr, variant, cfg)
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(k,)) for k in range(1, cfg.restarts)]
    inits = [base_init] + [_perturb(base_init, np.random.default_rng(seed)) for seed in seeds]
    best = None
    diagnostics = []
    with ThreadPoolExecutor(min(cfg.restarts, os.cpu_count() or 1)) as pool:
        # each chain runs in a copy of the caller's context, which carries np.errstate
        chains = [pool.submit(contextvars.copy_context().run, _em_once, arr, log_i, variant, cfg, init)
                  for init in inits]
    for k, chain in enumerate(chains):
        try:
            params, resp, trace, run = chain.result()
        except DegenerateComponentError as exc:
            diagnostics.append({"restart": k, "error": str(exc)})
            continue
        final_ll = trace[-1]
        if not math.isfinite(final_ll):
            diagnostics.append({"restart": k, "error": "non-finite log-likelihood"})
            continue
        diagnostics.append({"restart": k, **run, "loglik": final_ll})
        report = FitReport(
            model=params,
            loglik_trace=trace,
            iterations=run["iterations"],
            converged=run["converged"],
            responsibilities_summary={
                "mean": float(resp.mean()),
                "min": float(resp.min()),
                "max": float(resp.max()),
            },
            scintillation_index=float(params.scintillation_index()),
            restart_index=k,
        )
        if best is None or report.loglik > best.loglik + ASCENT_SLACK:
            best = report
    if best is None:
        raise FitFailureError("every EM restart ended degenerate", diagnostics=diagnostics)
    best.diagnostics = diagnostics
    return best
