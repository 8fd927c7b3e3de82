"""The one input check at every public entry point: an array entry that is not
finite and positive (>= 0 where zero is a valid value) raises DataError at its
index, a scalar parameter raises ValueError naming it, and no numpy warning
comes out on the way."""

import math
import warnings

import numpy as np
import pytest

from uwoc.distributions import EggParams, ExpLognormalParams
from uwoc.em import EmConfig, e_step, fit, log_likelihood, m_step_exp, m_step_gg, update_omega
from uwoc.errors import DataError, check_positive, checked_array
from uwoc.gof import Histogram, build_histogram, mse_cdf
from uwoc.performance import (
    HETERODYNE,
    IMDD,
    LinkBudget,
    electrical_snr,
    snr_cdf,
    snr_cdf_asymptotic,
    snr_pdf,
)
from uwoc.presets import condition
from uwoc.special import FoxHSpec, QuadratureConfig, fox_h

EGG = condition("2.4lpm-0.05C").egg
LINK = LinkBudget(EGG, IMDD, 10.0)
SPEC = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
BAD = [math.nan, math.inf, -math.inf, -0.5, 0.0]
HALF = np.full(4, 0.5)

# name -> (call on a 4-sample array, whether 0 is a valid entry)
ARRAY_ENTRY_POINTS = {
    "fit": (fit, False),
    "log_likelihood": (lambda x: log_likelihood(x, EGG), False),
    "e_step": (lambda x: e_step(x, EGG), False),
    "m_step_exp": (lambda x: m_step_exp(x, HALF), False),
    "m_step_gg": (lambda x: m_step_gg(x, HALF), False),
    "mse_cdf": (lambda x: mse_cdf(x, EGG), True),
    "build_histogram": (build_histogram, True),
    "log_pdf": (EGG.log_pdf, False),
    "pdf": (EGG.pdf, False),
    "cdf": (EGG.cdf, True),
    "snr_pdf": (lambda x: snr_pdf(LINK, x), False),
    "snr_cdf": (lambda x: snr_cdf(LINK, x), True),
    "snr_cdf_asymptotic": (lambda x: snr_cdf_asymptotic(LINK, x), True),
}

SCALAR_ENTRY_POINTS = {
    "LinkBudget gamma_bar": lambda v: LinkBudget(EGG, IMDD, v),
    "LinkBudget gamma_th": lambda v: LinkBudget(EGG, IMDD, 10.0, v),
    "electrical_snr": lambda v: electrical_snr(EGG, IMDD, v),
    "fox_h": lambda v: fox_h(SPEC, v),
    "EmConfig": lambda v: EmConfig(epsilon=v),
    "QuadratureConfig": lambda v: QuadratureConfig(rel_tol=v),
}


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", ARRAY_ENTRY_POINTS)
def test_bad_array_entry_raises_at_its_index(name, bad):
    call, allow_zero = ARRAY_ENTRY_POINTS[name]
    samples = [0.5, 1.0, bad, 2.0]
    if bad == 0.0 and allow_zero:
        result = call(samples)
        assert np.all(np.isfinite(getattr(result, "densities", result)))  # a Histogram, or values
        return
    with pytest.raises(DataError) as info:
        call(samples)
    assert info.value.index == 2


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", SCALAR_ENTRY_POINTS)
def test_bad_scalar_raises_value_error(name, bad):
    with pytest.raises(ValueError, match="must be positive and finite"):
        SCALAR_ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_scalar_snr_is_checked_as_an_array_of_one(bad):
    for call in (snr_cdf, snr_cdf_asymptotic, snr_pdf):
        with pytest.raises(DataError, match=r"^gamma is") as info:
            call(LINK, bad)
        assert info.value.index == 0


def test_infinite_average_snr_is_not_an_outage_of_zero():
    with pytest.raises(ValueError, match="gamma_bar"):
        LinkBudget(EGG, IMDD, math.inf)


@pytest.mark.parametrize("params, gamma_bar", [
    (EggParams(0.2, 1e-3, 1.0, 1e-3, 1.0), 1e305),  # E[I^2] = 2e-6: mu_r overflows
    (EggParams(1.0, 1e-200, 1.0, 1.0, 1.0), 10.0),  # E[I^2] underflows to 0
], ids=["overflow", "underflow"])
def test_finite_average_snr_whose_electrical_snr_leaves_the_range(params, gamma_bar):
    with pytest.raises(ValueError, match=r"^mu_r must be positive and finite"):
        LinkBudget(params, IMDD, gamma_bar)
    assert LinkBudget(params, HETERODYNE, gamma_bar).mu_r == gamma_bar


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lognormal_location_must_be_finite(bad):
    with pytest.raises(ValueError, match=r"^mu must be finite, got"):
        ExpLognormalParams(0.5, 1.0, bad, 1.0)
    assert 0.0 < ExpLognormalParams(0.5, 1.0, -3.0, 1.0).cdf(1.0) < 1.0  # any finite sign


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fox_h_locations_must_be_finite(bad):
    with pytest.raises(ValueError, match=r"^b_1 must be finite, got"):
        FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((bad, 1.0),))
    # a location of the denominator, which does not bound the contour strip
    with pytest.raises(ValueError, match=r"^a_2 must be finite, got"):
        FoxHSpec(m=1, n=1, p=2, q=1, upper_params=((0.0, 1.0), (bad, 1.0)),
                 lower_params=((1.0, 1.0),))


def test_messages_name_the_entry_and_the_problem():
    for x, allow_zero, message in [
        ([1.0, math.nan], False, "sample 1 is not finite (nan)"),
        ([[1.0, 2.0], [-3.0, 4.0]], False, "sample 2 is negative (-3.0)"),
        ([1.0, 0.0], False, "sample 1 is zero (0.0)"),
        ([-0.0, -1e-300], True, "sample 1 is negative (-1e-300)"),
    ]:
        with pytest.raises(DataError) as info:
            checked_array(x, "sample", allow_zero=allow_zero)
        assert str(info.value) == message
    with pytest.raises(ValueError, match=r"^b must be positive and finite, got nan$"):
        check_positive(a=1.0, b=math.nan, c=-1.0)


def test_valid_input_passes_through():
    x = np.array([[0.5, 2.0], [1e-300, 1e300]])
    out = checked_array(x, "i")
    assert out.shape == (2, 2) and np.array_equal(out, x)
    assert checked_array(0.0, "gamma", allow_zero=True).ndim == 0
    check_positive(a=5e-324, b=1.7e308)


def test_no_samples_is_a_data_error():
    for call in (fit, lambda x: mse_cdf(x, EGG), lambda x: log_likelihood(x, EGG)):
        with pytest.raises(DataError, match="no samples given"):
            call([])


def test_histogram_densities_are_checked():
    with pytest.raises(DataError) as info:
        Histogram(np.array([0.0, 1.0, 2.0]), np.array([1.0, math.nan]), np.array([1, 1]))
    assert info.value.index == 1


class TestResponsibilities:
    SAMPLES = np.array([0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 1.5])
    def test_entry_outside_the_unit_interval(self, bad):
        resp = np.array([0.2, 0.4, bad, 0.6])
        for call in (lambda r: m_step_exp(self.SAMPLES, r), lambda r: m_step_gg(self.SAMPLES, r),
                     update_omega):
            with pytest.raises(DataError) as info:
                call(resp)
            assert info.value.index == 2

    def test_all_negative_is_not_a_gg_fit(self):
        with pytest.raises(DataError):
            m_step_gg(self.SAMPLES, np.full(4, -0.5))

    @pytest.mark.parametrize("resp", [np.full(3, 0.5), np.full((4, 1), 0.5), []])
    def test_wrong_count(self, resp):
        for call in (m_step_exp, m_step_gg):
            with pytest.raises(DataError, match="responsibilities of shape"):
                call(self.SAMPLES, resp)
        if len(resp) == 0:
            with pytest.raises(DataError, match="need one or more"):
                update_omega(resp)

    def test_bad_hint(self):
        with pytest.raises(ValueError, match="c_hint"):
            m_step_gg(self.SAMPLES, HALF, c_hint=math.nan)

    def test_the_bounds_are_valid(self):
        assert update_omega([0.0, 1.0]) == 0.5
        assert m_step_exp(self.SAMPLES, [1.0, 1.0, 0.0, 0.0]) == 0.75
