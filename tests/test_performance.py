import json
import math
import os
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy.optimize import brentq

from uwoc import performance, special
from uwoc.distributions import WEIGHT_EPS, EggParams
from uwoc.errors import ConvergenceError
from uwoc.performance import (
    CAPACITY_TAU,
    CERTIFY_RTOL,
    HETERODYNE,
    IMDD,
    DetectionMode,
    LinkBudget,
    Modulation,
    _ln_erfc_sqrt,
    _ln_softplus,
    avg_ber,
    avg_ber_asymptotic,
    avg_ber_foxh,
    avg_ber_quadrature,
    capacity_asymptotic,
    capacity_foxh,
    capacity_quadrature,
    electrical_snr,
    ergodic_capacity,
    modulation_params,
    outage,
    snr_cdf,
    snr_cdf_asymptotic,
    snr_moment,
    snr_pdf,
)
from uwoc.presets import ALL_CONDITIONS, condition
from uwoc.special import Estimate, QuadratureConfig, _gauss_kronrod, adaptive_quad

ROW1 = condition("2.4lpm-0.05C").egg
STRONG = condition("23.6lpm-0.22C").egg
SALTY165 = condition("salty-16.5lpm").egg

QUAD = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-10, max_subdivisions=400)


def db(x):
    return 10.0 ** (x / 10.0)


def assert_crosscheck(quad_fn, foxh_fn, point):
    """The quadrature certifies its value, and Fox H agrees to CERTIFY_RTOL."""
    q = quad_fn()
    assert q.error_bound <= CERTIFY_RTOL * q, point
    f = foxh_fn()
    assert abs(f - q) <= CERTIFY_RTOL * max(abs(f), abs(q)), (point, f, q)


class TestModulationParams:
    def test_ook(self):
        assert modulation_params(Modulation.ook()) == (1.0, 0.5, (0.25,), 1)

    def test_bpsk(self):
        assert modulation_params(Modulation.bpsk()) == (1.0, 0.5, (1.0,), 1)

    def test_qpsk(self):
        delta, p, q, n = modulation_params(Modulation.mpsk(4))
        assert (delta, p, n) == (1.0, 0.5, 1)
        assert q[0] == pytest.approx(0.5)

    def test_16qam(self):
        delta, p, q, n = modulation_params(Modulation.mqam(16))
        assert delta == pytest.approx(0.75)
        assert n == 2
        assert q == pytest.approx((3.0 / 30.0, 27.0 / 30.0))

    def test_parse(self):
        assert Modulation.parse("mqam:64").m == 64
        assert Modulation.parse("OOK").scheme == "ook"

    @pytest.mark.parametrize("bad", ["mpsk:3", "mqam:2", "mpsk:12", "mqam:8", "mqam:32"])
    def test_invalid_orders(self, bad):
        with pytest.raises(ValueError):
            Modulation.parse(bad)


class TestElectricalSnr:
    def test_unit_exponential(self):
        params = EggParams(1.0, 1.0, 1.0, 1.0, 1.0)
        assert electrical_snr(params, IMDD, 10.0) == pytest.approx(5.0)

    def test_strong_row_second_moment(self):
        mu = electrical_snr(STRONG, IMDD, 1e6)
        assert mu == pytest.approx(1e6 / 4.322, rel=5e-3)

    def test_heterodyne_identity(self):
        assert electrical_snr(STRONG, HETERODYNE, 123.0) == 123.0

    def test_detection_mode_validation(self):
        with pytest.raises(ValueError):
            DetectionMode(3)
        assert DetectionMode.parse("het").r == 1
        assert DetectionMode.parse("imdd").r == 2


class TestSnrPdf:
    @pytest.mark.parametrize("mode", [IMDD, HETERODYNE])
    def test_normalization(self, mode):
        link = LinkBudget(ROW1, mode, db(30.0))
        lam_g = ROW1.lam**mode.r * link.mu_r
        b_g = ROW1.b**mode.r * link.mu_r
        head = adaptive_quad(lambda g: snr_pdf(link, g), 1e-300, 4 * b_g,
                             QUAD, points=[lam_g, b_g])
        tail = adaptive_quad(lambda g: snr_pdf(link, g), 4 * b_g, math.inf, QUAD)
        assert head + tail == pytest.approx(1.0, abs=1e-7)

    def test_heterodyne_closed_form(self):
        # omega/(lam mu) e^{-gamma/(lam mu)} + c(1-omega)/(Gamma(a) gamma) x^a e^{-x}
        link = LinkBudget(ROW1, HETERODYNE, db(25.0))
        om, lam, a, b, c = ROW1.omega, ROW1.lam, ROW1.a, ROW1.b, ROW1.c
        mu = link.mu_r
        for gamma in np.logspace(-2, 4, 25):
            x = (gamma / (b * mu)) ** c
            want = om / (lam * mu) * math.exp(-gamma / (lam * mu))
            if x < 700.0:
                want += c * (1 - om) / (math.gamma(a) * gamma) * x**a * math.exp(-x)
            assert snr_pdf(link, gamma) == pytest.approx(want, rel=1e-10)

    def test_sampling_histogram_oracle(self):
        # bin-averaged model density (CDF increments) against the empirical
        # histogram; the density itself diverges like gamma^(-1/2) at zero
        link = LinkBudget(ROW1, IMDD, db(20.0))
        rng = np.random.default_rng(3)
        draws = link.mu_r * ROW1.sample(rng, 10_000_000) ** 2
        edges = np.linspace(0.0, float(np.quantile(draws, 0.995)), 60)
        counts, _ = np.histogram(draws, bins=edges)
        density = counts / (draws.size * np.diff(edges))
        model = np.diff(snr_cdf(link, edges)) / np.diff(edges)
        keep = model > 0.02 * model.max()
        rel = np.abs(density[keep] - model[keep]) / model[keep]
        assert float(rel.max()) < 0.02

    def test_domain(self):
        link = LinkBudget(ROW1, IMDD, 10.0)
        with pytest.raises(ValueError):
            snr_pdf(link, 0.0)


class TestSnrCdf:
    def test_zero(self):
        link = LinkBudget(ROW1, IMDD, 10.0)
        assert snr_cdf(link, 0.0) == 0.0

    def test_change_of_variables_identity(self):
        for mode in (IMDD, HETERODYNE):
            link = LinkBudget(STRONG, mode, db(40.0))
            for gamma in np.logspace(-2, 5, 30):
                want = STRONG.cdf((gamma / link.mu_r) ** (1.0 / mode.r))
                assert snr_cdf(link, gamma) == pytest.approx(want, abs=1e-12)

    def test_quadrature_oracle_log_grid(self):
        link = LinkBudget(ROW1, IMDD, db(20.0))
        lam_g = ROW1.lam**2 * link.mu_r
        b_g = ROW1.b**2 * link.mu_r
        for gamma in np.logspace(-1, 3, 40):
            want = adaptive_quad(lambda g: snr_pdf(link, g), 1e-300, gamma,
                                 QUAD, points=[lam_g, b_g])
            assert snr_cdf(link, gamma) == pytest.approx(want, abs=1e-7)

    def test_figure_anchor_60db(self):
        link = LinkBudget(STRONG, IMDD, db(60.0))
        assert snr_cdf(link, 1.0) == pytest.approx(1.049320e-2, rel=0.05)


class TestSnrCdfAsymptotic:
    def test_figure_anchor(self):
        link = LinkBudget(STRONG, IMDD, db(60.0))
        assert snr_cdf_asymptotic(link, 1.0) == pytest.approx(1.056420e-2, rel=0.01)

    def test_ratio_approaches_one(self):
        link = LinkBudget(STRONG, IMDD, db(80.0))
        ratio = snr_cdf_asymptotic(link, 1.0) / snr_cdf(link, 1.0)
        assert ratio == pytest.approx(1.0, abs=5e-3)

    def test_pure_exponential_reduction(self):
        params = EggParams(1.0, 0.4, 1.0, 1.0, 1.0)
        link = LinkBudget(params, HETERODYNE, 100.0)
        for gamma in (0.1, 1.0, 10.0):
            want = (gamma / link.mu_r) ** 1.0 / 0.4
            assert snr_cdf_asymptotic(link, gamma) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf, [1.0, -1.0]])
    def test_domain_as_snr_cdf(self, gamma):
        link = LinkBudget(STRONG, IMDD, db(60.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (snr_cdf, snr_cdf_asymptotic):
                with pytest.raises(ValueError):
                    f(link, gamma)


class TestSnrMoment:
    def test_pure_exponential_mean(self):
        params = EggParams(1.0, 0.7, 1.0, 1.0, 1.0)
        link = LinkBudget(params, HETERODYNE, 50.0)
        assert snr_moment(link, 1) == pytest.approx(0.7 * 50.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_quadrature_oracle(self, n):
        link = LinkBudget(ROW1, IMDD, db(15.0))
        lam_g = ROW1.lam**2 * link.mu_r
        b_g = ROW1.b**2 * link.mu_r
        head = adaptive_quad(lambda g: g**n * snr_pdf(link, g), 1e-300, 6 * b_g,
                             QUAD, points=[lam_g, b_g])
        tail = adaptive_quad(lambda g: g**n * snr_pdf(link, g), 6 * b_g, math.inf, QUAD)
        assert snr_moment(link, n) == pytest.approx(head + tail, rel=1e-6)

    def test_sampling_oracle(self):
        link = LinkBudget(ROW1, IMDD, db(10.0))
        rng = np.random.default_rng(8)
        draws = link.mu_r * ROW1.sample(rng, 10_000_000) ** 2
        assert snr_moment(link, 1) == pytest.approx(float(draws.mean()), rel=0.01)

    def test_domain(self):
        link = LinkBudget(ROW1, IMDD, 10.0)
        with pytest.raises(ValueError):
            snr_moment(link, 0)

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, 1.5])
    def test_invalid_order(self, n):
        link = LinkBudget(ROW1, IMDD, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                snr_moment(link, n)


class TestOutage:
    def test_threshold_to_zero(self):
        link = LinkBudget(ROW1, IMDD, 100.0, gamma_th=1e-280)
        assert outage(link) == pytest.approx(0.0, abs=1e-100)

    def test_text_anchor(self):
        link = LinkBudget(condition("2.4lpm-0.15C").egg, IMDD, db(30.0))
        assert outage(link) == pytest.approx(3.422170e-2, rel=0.05)

    def test_heterodyne_beats_imdd(self):
        for snr_db in np.linspace(5.0, 60.0, 20):
            het = outage(LinkBudget(SALTY165, HETERODYNE, db(snr_db)))
            dd = outage(LinkBudget(SALTY165, IMDD, db(snr_db)))
            assert het < dd

    def test_monotone_in_snr(self):
        values = [outage(LinkBudget(ROW1, IMDD, db(s))) for s in np.linspace(5, 60, 20)]
        assert np.all(np.diff(values) < 0.0)


class TestAvgBer:
    def test_fig5_anchors(self):
        ook = Modulation.ook()
        for snr_db, want in [(30.0, 7.209610e-2), (40.0, 2.700660e-2), (50.0, 9.045320e-3)]:
            link = LinkBudget(SALTY165, IMDD, db(snr_db))
            assert avg_ber(link, ook) == pytest.approx(want, rel=0.05)

    def test_foxh_matches_quadrature(self):
        # every preset row, EGG and EG (c = 1)
        for row in ALL_CONDITIONS:
            for params in (row.egg, row.eg.as_egg()):
                for snr_db in (10.0, 30.0, 50.0):
                    for mode, modulation in ((IMDD, Modulation.ook()),
                                             (HETERODYNE, Modulation.bpsk())):
                        link = LinkBudget(params, mode, db(snr_db))
                        assert_crosscheck(
                            lambda: avg_ber_quadrature(link, modulation),
                            lambda: avg_ber_foxh(link, modulation),
                            (row.label, params.c, mode.name, snr_db),
                        )

    @pytest.mark.parametrize("a, c, mode, modulation, snr_db", [
        (1696.6109, 136.51, IMDD, Modulation.ook(), 64.1),
        (20.9051, 193.39, HETERODYNE, Modulation.bpsk(), 72.9),
    ], ids=["ook-64.1dB", "bpsk-72.9dB"])
    def test_foxh_below_double_range(self, a, c, mode, modulation, snr_db):
        # fitted-range shapes whose contour integrand oscillates too fast for
        # the panel cap; the value is below the double range on both routes
        link = LinkBudget(EggParams(0.0, 0.2, a, 1.0, c), mode, db(snr_db))
        assert avg_ber_foxh(link, modulation) == 0.0 == avg_ber_quadrature(link, modulation)

    def test_monotone_decreasing_bpsk(self):
        bpsk = Modulation.bpsk()
        vals = [avg_ber(LinkBudget(STRONG, HETERODYNE, db(s)), bpsk)
                for s in np.linspace(5, 70, 14)]
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-6

    def test_16qam_beats_16psk(self):
        for snr_db in np.linspace(10.0, 60.0, 11):
            link = LinkBudget(STRONG, HETERODYNE, db(snr_db))
            qam = avg_ber(link, Modulation.mqam(16))
            psk = avg_ber(link, Modulation.mpsk(16))
            assert qam < psk

    def test_incompatible_modulation(self):
        link = LinkBudget(ROW1, HETERODYNE, 100.0)
        link2 = LinkBudget(ROW1, IMDD, 100.0)
        for ber in (avg_ber, avg_ber_foxh):
            with pytest.raises(ValueError, match="ook is defined for IM/DD"):
                ber(link, Modulation.ook())
            with pytest.raises(ValueError, match="16-QAM is defined for heterodyne"):
                ber(link2, Modulation.mqam(16))


def _no_foxh(*args, **kwargs):
    raise AssertionError("the Fox H route ran on the default route")


REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference", "curves_reference.json")


class TestDefaultRoute:
    """The default route: the quadrature value when its bound certifies it,
    ConvergenceError otherwise, and Fox H never."""

    def test_every_row_evaluates_without_foxh(self, monkeypatch):
        monkeypatch.setattr(performance, "avg_ber_foxh", _no_foxh)
        monkeypatch.setattr(performance, "capacity_foxh", _no_foxh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in ALL_CONDITIONS:
                for snr_db in (10.0, 30.0, 50.0):
                    for mode, modulation in ((IMDD, Modulation.ook()),
                                             (HETERODYNE, Modulation.bpsk())):
                        link = LinkBudget(row.egg, mode, db(snr_db))
                        quad = avg_ber_quadrature(link, modulation)
                        assert quad.error_bound <= CERTIFY_RTOL * quad
                        assert avg_ber(link, modulation) == float(quad)
                        quad = capacity_quadrature(link)
                        assert quad.error_bound <= CERTIFY_RTOL * quad
                        assert ergodic_capacity(link) == float(quad)

    @pytest.mark.parametrize("label, mode, modulation, snr_db, want", [
        # one GG-lobe part is tiny against the total (8.6e-8 of 1.9e-2); only
        # the total's bound is tested
        pytest.param("2.4lpm-0.20C", HETERODYNE, Modulation.mqam(16), 20.0,
                     1.902808684435928e-2, id="2.4lpm-0.20C-16qam-20dB"),
        # deep tails, where the BER kernel underflows unless taken in log form
        pytest.param("fresh-0lpm", HETERODYNE, Modulation.bpsk(), 30.0,
                     4.863738367981e-273, id="fresh-0lpm-bpsk-30dB"),
        pytest.param("fresh-0lpm", IMDD, Modulation.ook(), 40.0,
                     8.291076030983e-234, id="fresh-0lpm-ook-40dB"),
    ])
    def test_reference_points(self, label, mode, modulation, snr_db, want):
        # values from perfbench/reference/curves_reference.json (mpmath)
        link = LinkBudget(condition(label).egg, mode, db(snr_db))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert avg_ber(link, modulation) == pytest.approx(want, rel=1e-6)

    def test_uncertified_value_raises(self, monkeypatch):
        def loose(f, breaks, cfg, first=None):
            est = _gauss_kronrod(f, breaks, cfg, first)
            return Estimate(est, 1e-3 * abs(est))

        monkeypatch.setattr(performance, "_gauss_kronrod", loose)
        link = LinkBudget(SALTY165, IMDD, db(30.0))
        with pytest.raises(ConvergenceError, match="quadrature did not converge") as err:
            avg_ber(link, Modulation.ook())
        assert err.value.estimate == pytest.approx(7.2e-2, rel=0.05)
        assert err.value.error_bound > CERTIFY_RTOL * err.value.estimate
        with pytest.raises(ConvergenceError):
            ergodic_capacity(link)


class TestReferenceTable:
    """Every certified point of the checked-in mpmath table, by the default
    route and by the Fox H closed forms."""

    RTOL = 1e-6
    ABS_FLOOR = 1e-300  # values below the double range compare as zero

    def _check(self, metrics, ber, capacity):
        """(points checked, failures) over the table's certified ``metrics``,
        BER by ``ber`` and capacity by ``capacity``."""
        with open(REFERENCE) as handle:
            points = json.load(handle)["points"]
        checked, failures = 0, []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in points:
                egg = condition(p["row"]).egg
                if (not p["certified"] or p["metric"] not in metrics
                        or [egg.omega, egg.lam, egg.a, egg.b, egg.c] != p["params"]):
                    continue
                mode = DetectionMode.parse(p["detection"])
                link = LinkBudget(egg, mode, db(p["snr_db"]))
                if p["metric"] == "outage":
                    got = outage(link)
                elif p["metric"] == "ber":
                    got = ber(link, Modulation.parse(p["modulation"]))
                else:
                    got = capacity(link)
                want = float(p["value"])
                checked += 1
                if abs(got - want) > self.RTOL * abs(want) + self.ABS_FLOOR:
                    failures.append((p["row"], p["detection"], p["metric"], p["modulation"],
                                     p["snr_db"], got, want))
        return checked, failures

    def test_every_certified_point(self):
        checked, failures = self._check(("outage", "ber", "capacity"), avg_ber, ergodic_capacity)
        assert checked > 1200
        assert failures == []

    def test_every_certified_point_by_foxh(self):
        # the deep tail of the *-0lpm rows included (5.72e-100 on salty-0lpm
        # OOK 30 dB, 4.86e-273 on fresh-0lpm BPSK 30 dB)
        checked, failures = self._check(("ber", "capacity"), avg_ber_foxh, capacity_foxh)
        assert checked > 1000
        assert failures == []

    @pytest.mark.parametrize("params, mode, modulation, snr_db, want", [
        pytest.param((7.36529701123342e-15, 0.20700664164266994, 2.0700884502784103,
                      0.4510934118962774, 45.16649615151824), IMDD, "ook", 37.63,
                     8.66376744029e-91, id="ook-37.63dB"),
        pytest.param((3.7894753965272354e-07, 0.06236557185672698, 0.304515550071709,
                      2.8934234153464278, 12.93167021268663), HETERODYNE, "mqam:16", 30.31,
                     1.1101003294e-8, id="16qam-30.31dB"),
        pytest.param((4.845153121985432e-22, 0.1505843255767409, 2.4626127981620516,
                      0.9175272692335218, 11.36566968780381), IMDD, "ook", 51.65,
                     1.67975107244e-54, id="ook-51.65dB"),
    ])
    def test_random_fitted_shapes(self, params, mode, modulation, snr_db, want):
        # random points inside the fitted ranges where bounding each part
        # against an absolute floor certified wrong values; references from
        # perfbench/reference/make_reference.point at 32 digits
        link = LinkBudget(EggParams(*params), mode, db(snr_db))
        got = avg_ber_quadrature(link, Modulation.parse(modulation))
        assert got == pytest.approx(want, rel=1e-9)


class TestAvgBerQuadrature:
    def test_erfc_kernel_identity(self):
        # Gamma(1/2, q gamma)/Gamma(1/2) = erfc(sqrt(q gamma)), taken in log form
        for x in (0.01, 0.5, 3.0, 20.0, 600.0):
            assert sp.gammaincc(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-12)
            assert _ln_erfc_sqrt(math.log(x))[0] == pytest.approx(
                math.log(math.erfc(math.sqrt(x))), rel=1e-13)
        # far past the underflow of erfc: ln erfc(y) ~ -y^2 - ln(y sqrt(pi)) - 1/(2 y^2)
        x = math.exp(18.0)
        assert _ln_erfc_sqrt(18.0)[0] == pytest.approx(
            -x - math.log(math.sqrt(x * math.pi)) - 0.5 / x, rel=1e-15)

    @pytest.mark.parametrize("log_h", [_ln_erfc_sqrt, _ln_softplus])
    def test_log_kernel_slopes(self, log_h):
        # the analytic slopes that locate each lobe's peak, against central
        # differences; both must be concave
        for s in np.linspace(-40.0, 40.0, 33):
            value, d1, d2 = log_h(s)
            fd1 = (log_h(s + 1e-5)[0] - log_h(s - 1e-5)[0]) / 2e-5
            fd2 = (log_h(s + 1e-4)[1] - log_h(s - 1e-4)[1]) / 2e-4
            assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-9)
            assert d2 == pytest.approx(fd2, rel=1e-4, abs=1e-9)
            assert d2 <= 0.0

    def test_sampling_oracle(self):
        link = LinkBudget(SALTY165, IMDD, db(30.0))
        rng = np.random.default_rng(12)
        gammas = link.mu_r * SALTY165.sample(rng, 10_000_000) ** 2
        kernel = 0.5 * sp.gammaincc(0.5, 0.25 * gammas)
        assert avg_ber_quadrature(link, Modulation.ook()) == pytest.approx(
            float(kernel.mean()), rel=5e-3
        )

    def test_refinement_oracle_pure_exponential(self):
        # gamma ~ Exp(mean m): the BPSK kernel integrated directly over the
        # SNR density at tight tolerances
        params = EggParams(1.0, 0.8, 1.0, 1.0, 1.0)
        link = LinkBudget(params, HETERODYNE, db(20.0))
        m = 0.8 * link.mu_r
        tight = adaptive_quad(
            lambda g: math.exp(-g / m) / m * 0.5 * math.erfc(math.sqrt(g)), 0.0, math.inf,
            QuadratureConfig(abs_tol=1e-14, rel_tol=1e-11, max_subdivisions=500),
        )
        assert avg_ber_quadrature(link, Modulation.bpsk()) == pytest.approx(tight, rel=1e-8)


# (a, c) of the extreme fitted lobes: fresh-16.5lpm, the strong row 23.6lpm-0.22C
# (its left tail runs thousands of units in t), salty-0lpm, the top of the
# fitted a range, and the exponential lobe (a = c = 1)
EXTREME_LOBES = [(7.5e-3, 216.8356), (0.0121, 65.6983), (1012.6, 2.0541), (4e3, 217.0),
                 (4e3, 0.5), (1.0, 1.0)]
KERNELS = [(performance._BER_KERNEL, "ber"), (performance._CAPACITY_KERNEL, "capacity")]


def _lobe_oracle(a, s0, kappa, log_h):
    """(peak, integral of exp(L - peak) dt) by QUADPACK at tight settings,
    over the whole span where L is within 80 of its peak."""
    def ell(t):
        u = math.exp(t)
        h, h1, _ = log_h(s0 + kappa * t)
        return a * t - u + h, a - u + kappa * h1

    lo, hi = math.log(a) - 1.0, math.log(a) + 1.0
    while ell(lo)[1] <= 0.0:
        lo -= 2.0 * (hi - lo)
    while ell(hi)[1] >= 0.0:
        hi += 2.0 * (hi - lo)
    t_m = brentq(lambda t: ell(t)[1], lo, hi, xtol=1e-14)
    peak = ell(t_m)[0]
    tight = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-11, max_subdivisions=2000)
    total = 0.0
    for direction in (-1.0, 1.0):
        reach = 1e-3
        while ell(t_m + direction * reach)[0] > peak - 80.0:
            reach *= 2.0
        ends = sorted((t_m, t_m + direction * reach))
        total += adaptive_quad(lambda t: math.exp(ell(t)[0] - peak), *ends, tight)
    return peak, total


class TestLobeIntegrator:
    """The Gauss-Kronrod panels of each lobe against the QUADPACK oracle."""

    @pytest.mark.parametrize("a, c", EXTREME_LOBES)
    @pytest.mark.parametrize("kernel, name", KERNELS)
    def test_extreme_shapes_match_quadpack(self, a, c, kernel, name):
        for r in (1, 2):
            for snr_db in (-10.0, 20.0, 50.0, 80.0):
                s0 = math.log(db(snr_db)) + (math.log(0.25) if name == "ber" else 0.0)
                scale, value, bound = performance._lobe_expectations([(0.0, a, s0, r / c)], kernel)[0]
                peak, want = _lobe_oracle(a, s0, r / c, kernel[0])
                got = value * math.exp(scale + sp.gammaln(a) - peak)
                assert got == pytest.approx(want, rel=1e-8), (r, snr_db)
                assert bound <= CERTIFY_RTOL * value, (r, snr_db)

    @pytest.mark.parametrize("scalar, array, edges", [
        (_ln_erfc_sqrt, performance._ln_erfc_sqrt_array, (709.0, math.log(1e5))),
        (_ln_softplus, performance._ln_softplus_array, (-36.0, 36.0)),
    ])
    def test_array_kernel_equals_scalar(self, scalar, array, edges):
        s = np.array([e + d for e in edges
                      for d in (-0.5, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 0.5)])
        s = np.concatenate([s, np.linspace(-40.0, 40.0, 81)])
        got = array(s)
        for si, gi in zip(s, got):
            want = scalar(float(si))[0]
            assert gi == want or abs(gi - want) <= 1e-13 * abs(want), si


def _per_lobe_sum(link, terms, kernel):
    """sum_k w_k E[h(s_k + r ln I)] as the log-space sum of one
    ``_lobe_expectations`` call per term and lobe."""
    parts = []
    for log_w, s in terms:
        for log_weight, a, log_b, c in performance._lobes(link.params):
            lobe = (0.0, a, s + link.r * log_b, link.r / c)
            scale, value, _ = performance._lobe_expectations([lobe], kernel)[0]
            parts.append((log_w + log_weight + scale, value))
    top = max(scale for scale, _ in parts)
    return math.exp(top) * sum(math.exp(scale - top) * value for scale, value in parts)


class TestOneFirstRound:
    """The lobes of a point share one first round of panels, and then each
    goes on alone: the same value as one integral per lobe."""

    @pytest.mark.parametrize("label, mode, modulation, snr_db", [
        # the GG lobe's integrals go on past the shared round, the exponential lobe's stop
        pytest.param("23.6lpm-0.22C", HETERODYNE, Modulation.mpsk(8), -10.0, id="23.6lpm-0.22C-8psk--10dB"),
        pytest.param("23.6lpm-0.22C", IMDD, None, 50.0, id="23.6lpm-0.22C-imdd-capacity-50dB"),
        # every lobe integral stops after the shared round (each went on past
        # it on the 2^k ladder of breaks, except two of the 8-PSK point's four)
        pytest.param("salty-0lpm", HETERODYNE, Modulation.mqam(16), 20.0, id="salty-0lpm-16qam-20dB"),
        pytest.param("2.4lpm-0.05C", IMDD, None, 50.0, id="2.4lpm-0.05C-imdd-capacity-50dB"),
        pytest.param("2.4lpm-0.05C", HETERODYNE, Modulation.mpsk(8), -10.0, id="2.4lpm-0.05C-8psk--10dB"),
    ])
    def test_matches_the_per_lobe_sum(self, label, mode, modulation, snr_db):
        link = LinkBudget(condition(label).egg, mode, db(snr_db))
        log_mu = math.log(link.mu_r)
        if modulation is None:
            got = ergodic_capacity(link)
            want = _per_lobe_sum(link, [(0.0, math.log(CAPACITY_TAU) + log_mu)],
                                 performance._CAPACITY_KERNEL)
        else:
            got = avg_ber(link, modulation)
            delta, _, q, _ = modulation_params(modulation)
            want = _per_lobe_sum(link, [(math.log(0.5 * delta), math.log(qk) + log_mu) for qk in q],
                                 performance._BER_KERNEL)
        assert got == pytest.approx(want, rel=1e-13)

    @staticmethod
    def _panel_rounds(monkeypatch, link, modulation):
        """The :func:`_gk_panels` calls of one point: the shared first round,
        and any further round of a lobe's own _gauss_kronrod."""
        rounds, panels = [], performance._gk_panels

        def counted(fv, half):
            rounds.append(half.size)
            return panels(fv, half)

        monkeypatch.setattr(performance, "_gk_panels", counted)
        monkeypatch.setattr(special, "_gk_panels", counted)
        if modulation is None:
            ergodic_capacity(link)
        else:
            avg_ber(link, modulation)
        return len(rounds)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(t_star=st.floats(-60.0, 60.0),
           log_curvature=st.floats(math.log(1e-12), math.log(1e12)),
           rungs_lo=st.floats(-3.0, 10.0),
           rungs_hi=st.floats(-3.0, 10.0))
    def test_breaks_as_floats_match_the_array_build(self, t_star, log_curvature, rungs_lo, rungs_hi):
        # ends rungs_lo and rungs_hi ladder steps of 2^(1/2) out from the peak
        root = math.sqrt(math.exp(log_curvature))
        t_lo, t_hi = t_star - 2.0 ** (rungs_lo / 2.0) / root, t_star + 2.0 ** (rungs_hi / 2.0) / root
        assume(t_lo < t_star < t_hi)
        inner = t_star + np.array(performance._BREAK_LADDER) / root
        want = np.concatenate(([t_lo], inner[(inner > t_lo) & (inner < t_hi)], [t_hi]))
        got = performance._panel_breaks(t_star, root, t_lo, t_hi)
        assert all(type(t) is float for t in got)
        assert [t.hex() for t in got] == [t.hex() for t in want.tolist()]

    def test_one_panel_round_for_all_lobes(self, monkeypatch):
        # 8-PSK has two kernel terms, each over both lobes: four integrals
        link = LinkBudget(ROW1, HETERODYNE, db(20.0))
        assert self._panel_rounds(monkeypatch, link, Modulation.mpsk(8)) == 1

    @pytest.mark.parametrize("mode, modulation, snr_db", [
        pytest.param(IMDD, Modulation.ook(), 0.0, id="ook-0dB"),
        pytest.param(HETERODYNE, None, 20.0, id="het-capacity-20dB"),
    ])
    def test_mid_row_certifies_in_the_first_round(self, monkeypatch, mode, modulation, snr_db):
        # on the 2^k ladder of breaks one lobe of the OOK point and both of the
        # capacity point's went on to a second round
        link = LinkBudget(condition("salty-2.4lpm").egg, mode, db(snr_db))
        assert self._panel_rounds(monkeypatch, link, modulation) == 1

    def test_second_rounds_in_one_snr_column(self, monkeypatch):
        # the lobe integrals of the 18 rows at 0 dB that go on past the shared
        # first round: 89 on the 2^k ladder; outage has none
        refined, integrate = [], performance._gauss_kronrod

        def counted(f, breaks, cfg, first):
            calls = []

            def integrand(t):
                calls.append(t.shape)
                return f(t)

            try:
                return integrate(integrand, breaks, cfg, first)
            finally:
                refined.append(bool(calls))

        monkeypatch.setattr(performance, "_gauss_kronrod", counted)
        for cond in ALL_CONDITIONS:
            imdd, het = (LinkBudget(cond.egg, mode, db(0.0)) for mode in (IMDD, HETERODYNE))
            avg_ber(imdd, Modulation.ook())
            ergodic_capacity(imdd)
            for modulation in (Modulation.bpsk(), Modulation.mqam(16), Modulation.mpsk(8)):
                avg_ber(het, modulation)
            ergodic_capacity(het)
        # eight kernel terms a row, each over its GG lobe: the exponential
        # lobe has a closed form, and the two *-0lpm rows have no other
        assert len(refined) == 18 * 8
        assert sum(refined) <= 33


def _counted_lobe(params, mode, snr_db, metric, lobe):
    """(a, ell, calls): the log-integrand of one lobe of a link, whose scalar
    kernel appends each argument it is called with to ``calls``."""
    link = LinkBudget(params, mode, db(snr_db))
    _, a, log_b, c = performance._lobes(link.params)[lobe]
    # BPSK has q = 1; capacity scales the SNR by tau
    shift = math.log(CAPACITY_TAU) if metric == "capacity" else 0.0
    log_h = (performance._CAPACITY_KERNEL if metric == "capacity" else performance._BER_KERNEL)[0]
    calls = []

    def counted(s):
        calls.append(s)
        return log_h(s)

    ell = performance._log_integrand(a, shift + math.log(link.mu_r) + link.r * log_b,
                                     link.r / c, counted)
    return a, ell, calls


class TestLobeSearches:
    """Scalar evaluations spent by the peak and level searches on the lobes
    where plain Newton steps crawl."""

    @staticmethod
    def _peak(a, ell, calls):
        """t* and the calls spent finding it, checked to be a zero of L'."""
        t, _, d2 = performance._argmax(ell, a)
        spent = len(calls)
        assert abs(ell(t)[1]) <= 1e-8 * (1.0 + abs(t)) * -d2
        return t, spent

    @staticmethod
    def _level_calls(a, ell, calls):
        """The calls spent by the level search on each side of the peak, each
        checked to keep its contract: a point outside the level set and within
        one unit of it, with ell's value and slope there."""
        t_star, f_star, d2 = performance._argmax(ell, a)
        target = f_star - performance._DROP
        step = math.sqrt(2.0 * performance._DROP / max(-d2, 1e-12))
        spent = []
        for direction in (-1.0, 1.0):
            del calls[:]
            t, f, slope = performance._level_point(ell, t_star, target, step, direction)
            spent.append(len(calls))
            assert target - 1.0 <= f <= target, direction
            assert (t - t_star) * direction > 0.0 and slope * direction < 0.0
            assert (f, slope) == ell(t)[:2]
        return spent

    def test_converged_step_on_the_bracket_end(self):
        # a step of about 1e-17 rounds onto the bracket end; bisection then
        # spent about 20 more calls walking back to the same t
        a, ell, calls = _counted_lobe(ROW1, IMDD, 30.0, "capacity", 1)
        assert self._peak(a, ell, calls)[1] <= 6

    def test_peak_far_down_the_falling_side(self):
        # the exponential lobe at 70 dB heterodyne starts at t = 0 and peaks
        # near t = -14.6: steps in L' gained about one unit of t per call
        a, ell, calls = _counted_lobe(STRONG, HETERODYNE, 70.0, "ber", 0)
        t, spent = self._peak(a, ell, calls)
        assert t < -14.0 and spent <= 10

    @pytest.mark.parametrize("a, c, snr_db", [(0.0075, 0.6, 0.0), (0.0077, 0.58, -0.13),
                                              (0.01, 0.5, 10.0)])
    def test_small_shapes_capacity(self, a, c, snr_db):
        # IM/DD capacity with small a and c: a step in L' from the rising side
        # overshot to t ~ 280, the search ran out of iterations short of the
        # peak, and exp(L - L*) raised a bare OverflowError
        params = EggParams(0.0, 1.0, a, math.exp(sp.gammaln(a) - sp.gammaln(a + 1.0 / c)), c)
        assert self._peak(*_counted_lobe(params, IMDD, snr_db, "capacity", 0))[1] <= 10
        link = LinkBudget(params, IMDD, db(snr_db))
        assert ergodic_capacity(link) == pytest.approx(
            capacity_foxh(link), rel=1e-9)

    def test_level_far_below_the_peak(self):
        # a = 0.0121: the first probe right of the peak lands near L = -2e54,
        # and steps in L walked back about one unit of t per call; left of it
        # the probe lies inside the level set, and doubling it took 5 calls
        # where the tangent point lands within one unit of the level
        left, right = self._level_calls(*_counted_lobe(STRONG, HETERODYNE, 30.0, "ber", 1))
        assert left <= 3 and right <= 7

    def test_overshoot_into_the_level_set(self):
        # right of the capacity peak a ln(fall) step lands just inside the
        # level set, and so did each later one: bisections between it and the
        # outer point took 15 calls, where one false-position step lands within
        # one unit of the level
        assert self._level_calls(*_counted_lobe(STRONG, HETERODYNE, -10.0, "capacity", 1))[1] <= 4

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_a=st.floats(math.log(7.5e-3), math.log(4e3)),
           log_c=st.floats(math.log(0.5), math.log(217.0)),
           snr_db=st.floats(-10.0, 80.0),
           metric=st.sampled_from(["ber", "capacity"]),
           mode=st.sampled_from([HETERODYNE, IMDD]))
    def test_level_contract_over_the_fitted_box(self, log_a, log_c, snr_db, metric, mode):
        # the GG lobe of mean 1 alone; each loop makes one call an iteration,
        # so at most 10 calls a side means neither of its 100-step loops ran out
        a, c = math.exp(log_a), math.exp(log_c)
        params = EggParams(0.0, 1.0, a, math.exp(sp.gammaln(a) - sp.gammaln(a + 1.0 / c)), c)
        assert max(self._level_calls(*_counted_lobe(params, mode, snr_db, metric, 0))) <= 10


class TestAvgBerAsymptotic:
    def test_bpsk_figure_anchor(self):
        link = LinkBudget(STRONG, HETERODYNE, db(60.0))
        assert avg_ber_asymptotic(link, Modulation.bpsk()) == pytest.approx(
            1.492510e-6, rel=0.03
        )

    def test_ook_figure_anchor(self):
        link = LinkBudget(SALTY165, IMDD, db(60.0))
        assert avg_ber_asymptotic(link, Modulation.ook()) == pytest.approx(
            2.939540e-3, rel=0.02
        )

    def test_ratio_approaches_one(self):
        link = LinkBudget(SALTY165, IMDD, db(80.0))
        exact = avg_ber_quadrature(link, Modulation.ook())
        asym = avg_ber_asymptotic(link, Modulation.ook())
        assert asym / exact == pytest.approx(1.0, abs=0.01)

    def test_overflow_gives_inf(self):
        # a = 393.6, c = 1: the GG term far exceeds the double range at -10 dB
        link = LinkBudget(condition("2.4lpm-0.05C").eg.as_egg(), IMDD, db(-10.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert avg_ber_asymptotic(link, Modulation.ook()) == math.inf
            assert snr_cdf_asymptotic(link, 1.0) == math.inf

    @pytest.mark.parametrize("mode,modulation,snr_db,want", [
        (HETERODYNE, Modulation.bpsk(), 30.0, 4.863738367981e-273),
        (IMDD, Modulation.ook(), 40.0, 8.291076030983e-234),
    ])
    def test_deep_tail_of_fresh_0lpm(self, mode, modulation, snr_db, want):
        # ln Gamma(p + ac/r) ~ 1e3 and the SNR factor ~ -2e3 cancel in the
        # exponent; the asymptote must follow the reference BER down there
        link = LinkBudget(condition("fresh-0lpm").egg, mode, db(snr_db))
        assert avg_ber_asymptotic(link, modulation) == pytest.approx(want, rel=1e-3, abs=0.0)


class TestErgodicCapacity:
    def test_figure_anchor_30db(self):
        link = LinkBudget(ROW1, IMDD, db(30.0))
        assert ergodic_capacity(link) == pytest.approx(5.563110, rel=0.01)

    def test_low_snr_limit(self):
        link = LinkBudget(ROW1, IMDD, 1e-9)
        assert ergodic_capacity(link) < 1e-6

    def test_sampling_oracle(self):
        link = LinkBudget(ROW1, IMDD, db(30.0))
        rng = np.random.default_rng(23)
        gammas = link.mu_r * ROW1.sample(rng, 10_000_000) ** 2
        mc = float(np.log1p(CAPACITY_TAU * gammas).mean())
        assert ergodic_capacity(link) == pytest.approx(mc, rel=5e-3)

    def test_foxh_matches_quadrature(self):
        for row in ALL_CONDITIONS:
            for params in (row.egg, row.eg.as_egg()):
                for mode in (IMDD, HETERODYNE):
                    link = LinkBudget(params, mode, db(30.0))
                    assert_crosscheck(
                        lambda: capacity_quadrature(link),
                        lambda: capacity_foxh(link),
                        (row.label, params.c, mode.name),
                    )

    def test_monotone_in_snr(self):
        vals = [ergodic_capacity(LinkBudget(ROW1, IMDD, db(s)))
                for s in np.linspace(5, 60, 20)]
        assert np.all(np.diff(vals) > 0.0)


class TestExponentialLobe:
    """A pure exponential lobe, GG(1, lambda, 1), against elementary closed
    forms: with m = lambda mu the heterodyne SNR is exponential with mean m,
    so the BPSK BER is 1 / (2 sqrt(1 + m) (sqrt(1 + m) + sqrt(m))) and the
    capacity is e^x E1(x) with x = 1 / (tau m)."""

    @pytest.mark.parametrize("lam", [0.12, 0.4, 1.0])
    def test_closed_forms_match_elementary(self, lam):
        bpsk = Modulation.bpsk()
        for snr_db in range(-10, 81, 10):
            link = LinkBudget(EggParams(1.0, lam, 1.0, 1.0, 1.0), HETERODYNE, db(snr_db))
            m = lam * link.mu_r
            ber = 0.5 / (math.sqrt(1.0 + m) * (math.sqrt(1.0 + m) + math.sqrt(m)))
            x = 1.0 / (CAPACITY_TAU * m)
            capacity = math.exp(x) * sp.exp1(x)
            for got in (avg_ber_foxh(link, bpsk), float(avg_ber_quadrature(link, bpsk))):
                assert got == pytest.approx(ber, rel=1e-10, abs=0.0), (lam, snr_db)
            for got in (capacity_foxh(link), float(capacity_quadrature(link))):
                assert got == pytest.approx(capacity, rel=1e-10, abs=0.0), (lam, snr_db)


def _closed_form_oracle(metric, s0, kappa):
    """E[h(s0 + kappa ln U)] for U ~ Exp(1), in 40-digit mpmath."""
    with mp.workdps(40):
        s0 = mp.mpf(s0)
        m = mp.exp(s0)
        if metric == "ber" and kappa == 1.0:
            return 1 / (mp.sqrt(1 + m) * (mp.sqrt(1 + m) + mp.sqrt(m)))
        if metric == "ber":
            z = mp.exp(-s0 / 2) / 2
            return 1 - mp.exp(z * z) * mp.erfc(z)
        if kappa == 1.0:
            return mp.exp(1 / m) * mp.e1(1 / m)
        beta = mp.exp(-s0 / 2)
        return 2 * mp.re(mp.exp(1j * beta) * mp.e1(1j * beta))


def _no_quadrature(*args, **kwargs):
    raise AssertionError("a lobe with a closed form went to the quadrature")


CLOSED_FORMS = [(performance._ber_exponential, performance._BER_KERNEL, "ber"),
                (performance._capacity_exponential, performance._CAPACITY_KERNEL, "capacity")]
# s0 over [-60, 60], denser over [-4, 4], and each switch between the forms' branches
CLOSED_FORM_S0 = sorted({*np.linspace(-60.0, 60.0, 121).tolist(), *np.linspace(-4.0, 4.0, 81).tolist(),
                         -8.0, 2.0 * math.log(1 / 1.4)})


class TestExponentialClosedForms:
    """The closed forms of a lobe with a = 1 and kappa = 1 or 2, which the
    certified route takes instead of its quadrature."""

    @pytest.mark.parametrize("form, kernel, metric", CLOSED_FORMS)
    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_within_the_stated_bound_of_mpmath(self, form, kernel, metric, kappa):
        for s0 in CLOSED_FORM_S0:
            scale, value, bound = form(s0, kappa)
            assert 0.0 < bound <= 8.0 * np.finfo(float).eps * value, s0
            want = _closed_form_oracle(metric, s0, kappa)
            with mp.workdps(40):
                assert abs(mp.exp(scale) * value - want) <= mp.exp(scale) * bound, s0

    @pytest.mark.parametrize("mode, modulation", [
        (IMDD, Modulation.ook()), (IMDD, None), (HETERODYNE, Modulation.bpsk()),
        (HETERODYNE, Modulation.mqam(16)), (HETERODYNE, Modulation.mpsk(8)), (HETERODYNE, None),
    ])
    def test_match_the_quadrature_on_the_fitted_rows(self, mode, modulation):
        form, kernel = ((performance._capacity_exponential, performance._CAPACITY_KERNEL)
                        if modulation is None else (performance._ber_exponential, performance._BER_KERNEL))
        # the 16 rows with an exponential lobe
        for cond in (cond for cond in ALL_CONDITIONS if cond.egg.omega >= WEIGHT_EPS):
            for snr_db in (-10.0, 20.0, 50.0, 80.0):
                log_mu = math.log(LinkBudget(cond.egg, mode, db(snr_db)).mu_r)
                shifts = ([math.log(CAPACITY_TAU)] if modulation is None
                          else [math.log(qk) for qk in modulation_params(modulation)[2]])
                for shift in shifts:
                    s0, kappa = shift + log_mu + mode.r * math.log(cond.egg.lam), float(mode.r)
                    scale, value, _ = form(s0, kappa)
                    q_scale, q_value, _ = performance._lobe_expectations([(0.0, 1.0, s0, kappa)], kernel)[0]
                    got = value * math.exp(scale - q_scale)
                    assert got == pytest.approx(q_value, rel=1e-12), (cond.label, snr_db, shift)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_a_unit_gg_lobe_matches_fox_h(self, monkeypatch, c):
        # with a = 1, kappa = r/c is 1 or 2 for both receivers at c = 1, and
        # for one of them at c = 0.5 and c = 2: both lobes take the closed form
        params = EggParams(0.3, 0.4, 1.0, 1.7, c)
        monkeypatch.setattr(performance, "_lobe_expectations", _no_quadrature)
        for mode, modulations in ((IMDD, [Modulation.ook()]),
                                  (HETERODYNE, [Modulation.bpsk(), Modulation.mqam(16)])):
            if mode.r / c not in (1.0, 2.0):
                continue
            for snr_db in (-10.0, 20.0, 50.0, 80.0):
                link = LinkBudget(params, mode, db(snr_db))
                for modulation in modulations:
                    assert_crosscheck(lambda: avg_ber_quadrature(link, modulation),
                                      lambda: avg_ber_foxh(link, modulation), (c, mode.r, snr_db))
                assert_crosscheck(lambda: capacity_quadrature(link), lambda: capacity_foxh(link),
                                  (c, mode.r, snr_db))

    @pytest.mark.parametrize("s0", [-1500.0, -800.0, 800.0, 1500.0])
    def test_far_arguments_are_finite(self, s0):
        # (form, kappa, scale, value) of each form's limit: BER e^-s0 / 2 and
        # 1/sqrt(pi m) far above m = 1 and 1 far below, capacity s0 - kappa
        # gamma far above and kappa! m far below
        ber, capacity, gamma = performance._ber_exponential, performance._capacity_exponential, np.euler_gamma
        limits = [
            (ber, 1.0, *((-s0, 0.5) if s0 > 0 else (0.0, 1.0))),
            (ber, 2.0, *((-0.5 * s0, 1.0 / math.sqrt(math.pi)) if s0 > 0 else (0.0, 1.0))),
            (capacity, 1.0, *((0.0, s0 - gamma) if s0 > 0 else (s0, 1.0))),
            (capacity, 2.0, *((0.0, s0 - 2.0 * gamma) if s0 > 0 else (s0, 2.0))),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form, kappa, want_scale, want in limits:
                scale, value, bound = form(s0, kappa)
                assert all(map(math.isfinite, (scale, value, bound))), (form, kappa)
                assert scale == want_scale and value == pytest.approx(want, rel=1e-15), (form, kappa)


class TestCapacityAsymptotic:
    def test_figure_anchor_60db(self):
        link = LinkBudget(ROW1, IMDD, db(60.0))
        assert capacity_asymptotic(link) == pytest.approx(12.3799, rel=0.002)

    def test_pure_exponential_closed_form(self):
        params = EggParams(1.0, 0.6, 1.0, 1.0, 1.0)
        link = LinkBudget(params, HETERODYNE, db(40.0))
        euler = 0.5772156649015329
        want = math.log(CAPACITY_TAU) + math.log(0.6 * link.mu_r) - euler
        assert capacity_asymptotic(link) == pytest.approx(want, rel=1e-12)

    def test_gap_closes_at_high_snr(self):
        link = LinkBudget(ROW1, IMDD, db(70.0))
        gap = abs(ergodic_capacity(link) - capacity_asymptotic(link))
        assert gap < 0.02


class TestLinkBudget:
    def test_eg_promotion(self):
        eg = condition("23.6lpm-0.22C").eg
        link = LinkBudget(eg, IMDD, 100.0)
        assert isinstance(link.params, EggParams)
        assert link.params.c == 1.0

    def test_rejects_lognormal(self):
        with pytest.raises(ValueError):
            LinkBudget(condition("2.4lpm-0.05C").expln, IMDD, 100.0)

    def test_positive_snr_required(self):
        with pytest.raises(ValueError):
            LinkBudget(ROW1, IMDD, -5.0)
