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
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .distributions import (
    EggParams,
    EgParams,
    ExpLognormalParams,
    MixtureModel,
    _VARIANTS,
    _log_mix,
)
from .errors import DataError, DegenerateComponentError, FitFailureError, check_integer, check_positive, checked_array
from .special import sp

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
# Gamma shape equation: the spreads it is solved for (a from about 1e-100 to
# 5e299), and the shape from which ln a - psi(a) is taken from its series
_SPREAD_LIMITS = (1e-300, 1e100)
_SERIES_SHAPE = 20.0


@dataclass(frozen=True)
class EmConfig:
    """Knobs of the EM driver.

    ``epsilon`` bounds the largest absolute parameter change at convergence;
    ``max_iters`` caps the EM maps (M-steps) of one restart.  The first
    restart starts at ``init_params``, a model of the fitted variant, or
    where it is None at the quantile split: the exponential lobe seeds from
    the lowest-intensity quintile, matching its physical role as the
    blockage component.
    """

    epsilon: float = 1e-6
    max_iters: int = 500
    restarts: int = 3
    seed: int = 0
    init_params: Optional[MixtureModel] = None

    def __post_init__(self):
        check_positive(epsilon=self.epsilon)
        check_integer(1, max_iters=self.max_iters, restarts=self.restarts)
        check_integer(0, seed=self.seed)


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


def _validate_samples(samples):
    """Samples as a flat float array, each finite and positive; else DataError."""
    arr = checked_array(samples, "sample").ravel()
    if arr.size == 0:
        raise DataError("no samples given")
    return arr


def _responsibilities(responsibilities, n):
    """Responsibilities as a float array, n of them, each in [0, 1]; else DataError."""
    resp = np.asarray(responsibilities, dtype=float)
    if resp.shape != (n,):
        raise DataError(f"responsibilities of shape {resp.shape}; need {n}")
    checked_array(resp, "responsibility", allow_zero=True)
    checked_array(1.0 - resp, "1 - responsibility", allow_zero=True)  # each <= 1
    return resp


def log_likelihood(samples, model: MixtureModel):
    """Observed-data log-likelihood sum_i ln f(I_i)."""
    arr = _validate_samples(samples)
    return float(np.sum(model.log_pdf(arr)))


def _resp_and_loglik(arr, log_i, params):
    """The E-step: responsibilities gamma_i, the posterior probability that each
    sample came from the exponential lobe, and the observed-data log-likelihood,
    in one density pass over samples the caller has already checked."""
    log_mix, resp = _log_mix(params.omega, *params.component_log_pdfs(arr, log_i=log_i))
    return resp, float(log_mix.sum())


def m_step_exp(samples, responsibilities):
    """Weighted ML update of the exponential scale.

    The maximizer of the expected complete-data log-likelihood divides the
    responsibility-weighted intensity sum by the responsibility mass.
    """
    arr = _validate_samples(samples)
    return _exp_scale(arr, _responsibilities(responsibilities, arr.size))


def _exp_scale(samples, resp):
    """m_step_exp on samples the caller has already validated."""
    return _dot(resp, samples) / _mass(resp, "exponential")


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
    Newton ascent in ln c starts at ``c_hint`` (clamped to the admissible
    range), or without a usable hint at the best point of a coarse ln c scan
    over that range, and never ends below its start but by the rounding of Q.
    With a hint the result is thus no lower than the hint's profile point,
    the best (a, b) at c = c_hint, and so than any lobe with that c: the
    ascent an EM map needs when the hint is the previous c.  Where the
    maximum lies at a c whose scale b would over- or underflow, the best
    point evaluated with a finite b is returned.  Bad samples or
    responsibilities raise DataError, a bad hint ValueError; passing
    ``log_i``, ln I of samples the caller has already checked, skips every
    check and the logarithm.
    """
    if log_i is None:
        arr = _validate_samples(samples)
        responsibilities = _responsibilities(responsibilities, arr.size)
        if c_hint is not None:
            check_positive(c_hint=c_hint)
        log_i = np.log(arr)
    weights, w_total = _second_weights(responsibilities)
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
        a, slope = _solve_gamma_shape(spread)
        q = u - lbar - a * spread + a * math.log(a) - a - sp.gammaln(a)
        da_dc = a * mean / slope  # the slope is in ln a
        dq = 1.0 - a * c * mean
        d2q = -a * c * mean - c * c * (mean * da_dc + a * var)
        visited.append(_ProfilePoint(u, q, dq, d2q, a, lbar + (spread - math.log(a)) / c))
        return visited[-1]

    start = None
    if c_hint is not None:
        start = point(min(max(math.log(c_hint), _LOG_C_LIMITS[0]), _LOG_C_LIMITS[1]))
    best = _newton_ascent(point, _scan(point) if start is None else start)
    if abs(best.log_b) > _LOG_B_MAX:
        # b = theta^(1/c) would over- or underflow: best point seen where it does not
        best = max((p for p in visited if abs(p.log_b) <= _LOG_B_MAX), key=lambda p: p.q, default=None)
        if best is None:
            raise DegenerateComponentError("no power shape gives the GG component a finite scale")
    return float(best.a), math.exp(best.log_b), math.exp(best.u)


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
    """Newton ascent of the profile in u = ln c from ``current``; the last point accepted.

    A step is the Newton step where the profile is concave and a full-length
    gradient step elsewhere, clamped to _MAX_LOG_STEP and to the admissible
    range, and halved until it ascends.  Short Newton steps in a concave
    region are taken as they are: their gain lies below the rounding of Q.
    The ascent stops where the step or the slope counts as zero, where a step
    halves to nothing without ascending, or after _NEWTON_ITERS steps.
    """
    for _ in range(_NEWTON_ITERS):
        if current.d2q < 0.0:
            step = -current.dq / current.d2q
        else:
            step = math.copysign(_MAX_LOG_STEP, current.dq)
        step = min(max(step, -_MAX_LOG_STEP), _MAX_LOG_STEP)
        step = min(max(current.u + step, _LOG_C_LIMITS[0]), _LOG_C_LIMITS[1]) - current.u
        if abs(step) <= _LOG_C_TOL or abs(current.dq) <= _DQ_TOL * (1.0 + current.a):
            return current
        while True:
            trial = point(current.u + step)
            if trial is not None and (
                trial.q >= current.q or (current.d2q < 0.0 and abs(step) <= _TRUSTED_STEP)
            ):
                current = trial
                break
            step *= 0.5
            if abs(step) <= _LOG_C_TOL:
                return current
    return current


# Bernoulli numbers B_2k / (2k) and B_2k, k = 6 down to 1
_BERNOULLI = ((-691 / 32760, -691 / 2730), (1 / 132, 5 / 66), (-1 / 240, -1 / 30),
              (1 / 252, 1 / 42), (-1 / 120, -1 / 30), (1 / 12, 1 / 6))


def _log_minus_digamma(a):
    """ln a - psi(a) and its slope in ln a, 1 - a psi'(a).

    At a >= _SERIES_SHAPE both come from the asymptotic series
    ln a - psi(a) = 1/(2a) + sum_k B_2k / (2k a^2k), k = 1..6, whose terms do
    not cancel as ln a and psi(a) do; below it from the digamma and Hurwitz
    zeta ufuncs.  The slope is taken in ln a because 1/a - psi'(a) itself
    underflows beyond a ~ 1e154.
    """
    if a < _SERIES_SHAPE:
        return math.log(a) - sp.psi(a), 1.0 - a * sp._zeta(2.0, a)
    r = 1.0 / a
    t = r * r
    value = slope = 0.0
    for term, bernoulli in _BERNOULLI:
        value = (value + term) * t
        slope = (slope + bernoulli) * t
    return 0.5 * r + value, -0.5 * r - slope


def _solve_gamma_shape(spread):
    """Shape a with ln a - psi(a) = spread, the weighted Gamma ML equation, as (a, slope).

    Newton's method on h(a) = 1 / (ln a - psi(a)) = 1 / spread from Minka's
    closed-form start ("Estimating a Gamma distribution", 2002).  h is
    increasing and convex, so every iterate after the first lies right of the
    root and falls to it; the solve stops at the first step that does not
    lower a, and the slope in ln a of ln a - psi(a) at a comes from that step.
    A spread outside _SPREAD_LIMITS raises DegenerateComponentError.
    """
    if not _SPREAD_LIMITS[0] <= spread <= _SPREAD_LIMITS[1]:
        raise DegenerateComponentError(f"Gamma shape equation: spread {float(spread):.3g} out of range")
    root = math.sqrt((spread - 3.0) ** 2 + 24.0 * spread)
    # Minka's start, in the form free of cancellation on each side of spread = 3
    a = (3.0 - spread + root) / (12.0 * spread) if spread < 3.0 else 2.0 / (root + spread - 3.0)

    def newton(a):  # a - (h(a) - 1/spread) / h'(a), h' = -slope / (a value^2); the slope at a
        value, slope = _log_minus_digamma(a)
        return a + a * value * (value / spread - 1.0) / -slope, slope

    a = newton(a)[0]
    while (new := newton(a))[0] < a:
        a = new[0]
    return a, new[1]


def _mass(weights, lobe):
    """Sum of a lobe's weights, its responsibility mass; DegenerateComponentError if it has none."""
    total = float(weights.sum())
    if total <= _MASS_EPS * weights.size:
        raise DegenerateComponentError(f"{lobe} component has no responsibility mass")
    return total


def _second_weights(resp):
    """Weights 1 - gamma of the second lobe, and their sum."""
    weights = 1.0 - np.asarray(resp, dtype=float)
    return weights, _mass(weights, "second")


def _m_step_gamma(samples, log_i, responsibilities):
    """Weighted Gamma ML update (shape via the digamma equation, scale closed form)."""
    weights, w_total = _second_weights(responsibilities)
    mean = _dot(weights, samples) / w_total
    mean_log = _dot(weights, log_i) / w_total
    alpha = float(_solve_gamma_shape(math.log(mean) - mean_log)[0])
    return alpha, mean / alpha


def _m_step_lognormal(log_i, responsibilities):
    """Weighted ML update of the Lognormal lobe: mean/variance of ln I."""
    weights, w_total = _second_weights(responsibilities)
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
    if cfg.init_params is not None:
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
    """Jitter for restart diversification, drawn field by field in declaration order.

    Multiplicative log-normal jitter for omega (kept inside [1e-3, 1 - 1e-3])
    and each positive parameter, additive normal jitter for the Lognormal mu.
    """
    factor = lambda: float(rng.lognormal(0.0, 0.3))
    values = [min(max(params.omega * factor(), 1e-3), 1.0 - 1e-3)]
    for f in fields(params)[1:]:
        value = getattr(params, f.name)
        if f.name == "mu":
            values.append(value + float(rng.normal(0.0, 0.3 * (abs(value) + 0.1))))
        else:
            values.append(value * factor())
    return type(params)(*values)


def _param_vector(params):
    """The parameters as an array, in declaration order (omega, lam, second lobe)."""
    return np.array([getattr(params, f.name) for f in fields(params)])


def _squarem_point(theta0, theta1, theta2):
    """SQUAREM's extrapolation from two successive EM maps, or None where undefined.

    In unconstrained coordinates x (logit omega and ln of each positive
    parameter; the Lognormal mu as it is), with r = x1 - x0,
    v = x2 - 2 x1 + x0 and the S3 step length alpha = -|r| / |v| clamped to
    at most -1, the point is x0 - 2 alpha r + alpha^2 v; alpha = -1 gives
    theta2 itself.
    """
    # every field but the Lognormal mu is logged; omega, the first, then goes on to its logit
    logged = np.array([f.name != "mu" for f in fields(theta0)])

    def free(params):
        x = _param_vector(params)
        with np.errstate(divide="ignore"):
            x[logged] = np.log(x[logged])
            x[0] -= np.log1p(-params.omega)
        return x

    x0, x1, x2 = free(theta0), free(theta1), free(theta2)
    r = x1 - x0
    v = x2 - x1 - r
    r_norm, v_norm = math.hypot(*r), math.hypot(*v)
    if not (math.isfinite(r_norm) and math.isfinite(v_norm) and v_norm > 0.0):
        return None
    alpha = min(-r_norm / v_norm, -1.0)
    x = x0 - 2.0 * alpha * r + alpha * alpha * v
    x[0] = sp.expit(x[0])
    logged[0] = False  # the rest back from their logs
    with np.errstate(over="ignore"):
        x[logged] = np.exp(x[logged])
    try:
        return type(theta2)(*map(float, x))
    except ValueError:
        return None  # a parameter left the range of a double


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _second_lobe_update(samples, log_i, resp, params):
    """M-step of the non-exponential lobe; returns an updated params object."""
    if params.variant == "egg":
        a, b, c = m_step_gg(samples, resp, c_hint=params.c, log_i=log_i)
        return replace(params, a=a, b=b, c=c)
    if params.variant == "eg":
        alpha, beta = _m_step_gamma(samples, log_i, resp)
        return replace(params, alpha=alpha, beta=beta)
    mu, sigma2 = _m_step_lognormal(log_i, resp)
    return replace(params, mu=mu, sigma2=sigma2)


def _em_map(samples, log_i, resp, params):
    """One EM map F: the M-steps from ``resp``, the responsibilities of ``params``."""
    candidate = params
    try:
        candidate = replace(candidate, lam=_exp_scale(samples, resp))
    except DegenerateComponentError:
        pass  # lobe frozen; omega decides its weight
    candidate = replace(candidate, omega=min(max(float(resp.mean()), 0.0), 1.0))
    try:
        # each M-step is no lower in its own Q term (m_step_gg's from the previous c)
        return _second_lobe_update(samples, log_i, resp, candidate)
    except DegenerateComponentError:
        return candidate


def _em_once(samples, log_i, cfg: EmConfig, params):
    """One SQUAREM-accelerated EM run from ``params``; ``log_i`` is ln of the samples.

    A cycle maps twice from the accepted point theta0, theta1 = F(theta0) and
    theta2 = F(theta1), extrapolates from the three (_squarem_point) and maps
    once from the extrapolated point; that theta3 replaces theta2 when its
    log-likelihood is finite and no lower.  An extrapolated point with a
    non-finite log-likelihood is rejected unmapped; a lobe degenerate there is
    frozen by the map, as anywhere else.  The run converges when one map
    from an accepted point moves the parameter vector by at most epsilon,
    and ends at that map's point unless it is lower.  A map that lowers the
    likelihood by more than ASCENT_SLACK stops the run unconverged at the
    last accepted point.  Returns the parameters, their responsibilities, the
    log-likelihood of each accepted point and the run's counts, in which
    ``iterations`` counts EM maps.
    """
    resp, ll = _resp_and_loglik(samples, log_i, params)
    trace = [ll]
    run = {"iterations": 0, "extrapolations_accepted": 0, "extrapolations_rejected": 0,
           "converged": False}

    def step(params, resp):
        """One map from an accepted point: (params, resp, stop)."""
        new = _em_map(samples, log_i, resp, params)
        new_resp, ll = _resp_and_loglik(samples, log_i, new)
        if ll < trace[-1] - ASCENT_SLACK:
            # no M-step lowers its Q term, so this is more than rounding: stop,
            # keeping the last accepted parameters, and report no convergence
            return params, resp, True
        moved = float(np.max(np.abs(_param_vector(new) - _param_vector(params))))
        run["converged"] = moved <= cfg.epsilon
        if run["converged"] and ll < trace[-1]:
            return params, resp, True  # a drop by rounding: end at the higher point
        run["iterations"] += 1
        trace.append(ll)
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
                new = _em_map(samples, log_i, prime_resp, prime)
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
    rounding of each other keep the earlier one.  A restart that ends
    degenerate, or with a log-likelihood or scintillation index that is not
    finite, is listed in the diagnostics with its error and skipped.  The
    chains run concurrently, one thread a restart up to two a core (so the
    three default restarts run at once on a two-core machine), and are read
    in restart order, so the report has the same floats as chains run one
    after another.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    arr = _validate_samples(samples)
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
    # one thread a restart, up to two a core: a chain that waits for a thread
    # delays the report by a whole chain
    with ThreadPoolExecutor(min(cfg.restarts, 2 * (os.cpu_count() or 1))) as pool:
        # each chain runs in a copy of the caller's context, which carries np.errstate
        chains = [pool.submit(contextvars.copy_context().run, _em_once, arr, log_i, cfg, init)
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
        si = float(params.scintillation_index())  # NaN where the moments overflow
        if not math.isfinite(si):
            diagnostics.append({"restart": k, "error": "non-finite scintillation index"})
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
            scintillation_index=si,
            restart_index=k,
        )
        if best is None or report.loglik > best.loglik + ASCENT_SLACK:
            best = report
    if best is None:
        raise FitFailureError("every EM restart ended degenerate", diagnostics=diagnostics)
    best.diagnostics = diagnostics
    return best
