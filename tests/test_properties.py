"""Properties of the fading model and the link metrics across the fitted ranges.

The ranges hold every preset row with margin: exponential weight 0, 1e-23 to
0.95, or 1; exponential scale 0.1 to 1.1; Generalized Gamma shape a from
7.5e-3 to 5e3 and power shape c from 0.5 to 217, with the scale b that gives
the GG lobe mean 1, as the normalised fits have; average SNR -10 to 80 dB;
both detection modes; OOK, BPSK, M-PSK for M = 4 to 64 and square M-QAM
for M = 4 to 256.  The CDF property also draws EG models (Gamma lobe of
mean 1) and Exp-Lognormal models (log-mean -3 to 3, log-variance 1e-4 to 4).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from uwoc import performance
from uwoc.distributions import EggParams, EgParams, ExpLognormalParams
from uwoc.errors import ConvergenceError
from uwoc.performance import (
    CAPACITY_TAU,
    CERTIFY_RTOL,
    HETERODYNE,
    IMDD,
    LinkBudget,
    Modulation,
    avg_ber,
    avg_ber_asymptotic,
    avg_ber_foxh,
    capacity_asymptotic,
    capacity_foxh,
    ergodic_capacity,
    modulation_params,
    outage,
    snr_cdf_asymptotic,
)

# derandomized, so that a failure reproduces
PROFILE = settings(max_examples=100, deadline=None, derandomize=True)

# a point every decade across the double range, and a fine grid over the bulk
IRRADIANCE = np.unique(np.concatenate([[0.0], np.logspace(-300, 300, 601),
                                       np.logspace(-3, 2, 501)]))


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _egg(omega, lam, a, c):
    return EggParams(omega, lam, a, math.exp(gammaln(a) - gammaln(a + 1.0 / c)), c)


WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0]), _log_uniform(1e-23, 0.95))
SCALES = _log_uniform(0.1, 1.1)
SHAPES = _log_uniform(7.5e-3, 5e3)


@st.composite
def models(draw):
    omega, lam = draw(WEIGHTS), draw(SCALES)
    return _egg(omega, lam, draw(SHAPES), draw(_log_uniform(0.5, 217.0)))


@st.composite
def eg_models(draw):
    # EG fits, promoted to EGG with c = 1 by LinkBudget; the Gamma lobe has mean 1
    omega, lam, alpha = draw(WEIGHTS), draw(SCALES), draw(SHAPES)
    return EgParams(omega, lam, alpha, 1.0 / alpha)


@st.composite
def explognormal_models(draw):
    omega, lam = draw(WEIGHTS), draw(SCALES)
    return ExpLognormalParams(omega, lam, draw(st.floats(-3.0, 3.0)), draw(_log_uniform(1e-4, 4.0)))


RECEIVERS = st.sampled_from(
    [(IMDD, Modulation.ook()), (HETERODYNE, Modulation.bpsk())]
    + [(HETERODYNE, Modulation.mpsk(m)) for m in (4, 8, 16, 32, 64)]
    + [(HETERODYNE, Modulation.mqam(m)) for m in (4, 16, 64, 256)]
)


@PROFILE
@given(st.one_of(models(), eg_models(), explognormal_models()))
# the series for the deep lower tail gave a subnormal where scipy's P(a, x) gives 0
@example(_egg(0.0, 1.0, 1.03, 2.7))
def test_cdf_is_a_distribution_function(model):
    cdf = model.cdf(IRRADIANCE)
    assert np.all(np.isfinite(cdf))
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[0] == 0.0 and cdf[-1] == 1.0


@PROFILE
@given(st.one_of(models(), eg_models()), st.floats(-10.0, 80.0), RECEIVERS)
def test_metrics_are_certified_or_refused(model, snr_db, receiver):
    # a finite value >= 0 that the Fox H closed form confirms, or
    # ConvergenceError; never nan or another exception
    mode, modulation = receiver
    link = LinkBudget(model, mode, 10.0 ** (snr_db / 10.0))
    for metric, oracle in [(outage, None),
                           (lambda l: avg_ber(l, modulation), lambda l: avg_ber_foxh(l, modulation)),
                           (ergodic_capacity, capacity_foxh)]:
        try:
            value = metric(link)
        except ConvergenceError:
            continue
        assert isinstance(value, float) and math.isfinite(value) and value >= 0.0
        if oracle is not None:
            want = oracle(link)
            assert value == want == 0.0 or abs(value - want) <= CERTIFY_RTOL * want, (value, want)
    # the asymptotes are finite or inf
    for value in (snr_cdf_asymptotic(link, link.gamma_th), avg_ber_asymptotic(link, modulation)):
        assert value >= 0.0 and not math.isnan(value)
    assert math.isfinite(capacity_asymptotic(link))


@PROFILE
@given(models(), st.floats(-10.0, 80.0), RECEIVERS)
def test_lobe_searches_are_short(model, snr_db, receiver):
    # every lobe expectation of the BER and capacity routes finds its peak and
    # both ends in at most 40 scalar kernel calls
    mode, modulation = receiver
    link = LinkBudget(model, mode, 10.0 ** (snr_db / 10.0))
    log_mu = math.log(link.mu_r)
    shifts = [(math.log(q) + log_mu, performance._BER_KERNEL)
              for q in modulation_params(modulation)[2]]
    shifts.append((math.log(CAPACITY_TAU) + log_mu, performance._CAPACITY_KERNEL))
    for _, a, log_b, c in performance._lobes(link.params):
        for shift, (log_h, log_h_array) in shifts:
            calls = []

            def counted(s, log_h=log_h):
                calls.append(s)
                return log_h(s)

            performance._lobe_expectations([(0.0, a, shift + link.r * log_b, link.r / c)],
                                           (counted, log_h_array))
            assert len(calls) <= 40, (a, c, shift)
