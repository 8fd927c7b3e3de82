import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy import special as sp

from uwoc import performance
from uwoc.distributions import EggParams
from uwoc.errors import ConvergenceError
from uwoc.performance import (
    CAPACITY_TAU,
    CERTIFY_RTOL,
    HETERODYNE,
    IMDD,
    DetectionMode,
    LinkBudget,
    Modulation,
    _avg_ber_foxh,
    _ln_erfc_sqrt,
    _ln_softplus,
    avg_ber,
    avg_ber_asymptotic,
    avg_ber_quadrature,
    capacity_asymptotic,
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
from uwoc.special import Estimate, QuadratureConfig, adaptive_quad

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

    @pytest.mark.parametrize("bad", ["mpsk:3", "mqam:2", "mpsk:12"])
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
            assert avg_ber(link, ook, method="quadrature") == pytest.approx(want, rel=0.05)

    def test_foxh_matches_quadrature(self):
        # every preset row; in the deep tail of the *-0lpm rows the contour
        # integral loses digits (1.36e-100 against mpmath's 5.72e-100 on
        # salty-0lpm OOK 30 dB), so there TestReferenceTable checks instead
        for row in ALL_CONDITIONS:
            for snr_db in (10.0, 30.0, 50.0):
                if row.label in ("salty-0lpm", "fresh-0lpm") and snr_db >= 30.0:
                    continue
                for mode, modulation in ((IMDD, Modulation.ook()), (HETERODYNE, Modulation.bpsk())):
                    link = LinkBudget(row.egg, mode, db(snr_db))
                    assert_crosscheck(
                        lambda: avg_ber_quadrature(link, modulation),
                        lambda: _avg_ber_foxh(link, modulation),
                        (row.label, mode.name, snr_db),
                    )

    def test_shape_one_reduced_equals_general(self):
        # at c = 1 the closed form routes through the unit-coefficient Meijer
        # specs; nudging c off 1 exercises the general route instead
        ook = Modulation.ook()
        bpsk = Modulation.bpsk()
        for cond_label in ("23.6lpm-0.22C", "salty-16.5lpm"):
            eg = condition(cond_label).eg
            exact = eg.as_egg()
            nudged = EggParams(exact.omega, exact.lam, exact.a, exact.b,
                               math.nextafter(1.0, 2.0))
            for mode, modulation in ((IMDD, ook), (HETERODYNE, bpsk)):
                reduced = _avg_ber_foxh(LinkBudget(exact, mode, db(35.0)), modulation)
                general = _avg_ber_foxh(LinkBudget(nudged, mode, db(35.0)), modulation)
                assert general == pytest.approx(reduced, rel=1e-9)

    def test_monotone_decreasing_bpsk(self):
        bpsk = Modulation.bpsk()
        vals = [avg_ber(LinkBudget(STRONG, HETERODYNE, db(s)), bpsk, method="quadrature")
                for s in np.linspace(5, 70, 14)]
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-6

    def test_16qam_beats_16psk(self):
        for snr_db in np.linspace(10.0, 60.0, 11):
            link = LinkBudget(STRONG, HETERODYNE, db(snr_db))
            qam = avg_ber(link, Modulation.mqam(16), method="quadrature")
            psk = avg_ber(link, Modulation.mpsk(16), method="quadrature")
            assert qam < psk

    def test_incompatible_modulation(self):
        link = LinkBudget(ROW1, HETERODYNE, 100.0)
        with pytest.raises(ValueError):
            avg_ber(link, Modulation.ook())
        link2 = LinkBudget(ROW1, IMDD, 100.0)
        with pytest.raises(ValueError):
            avg_ber(link2, Modulation.mqam(16))

    def test_unknown_method(self):
        link = LinkBudget(SALTY165, IMDD, db(35.0))
        for method in ("auto", "mc"):
            with pytest.raises(ValueError, match="unknown method"):
                avg_ber(link, Modulation.ook(), method=method)
            with pytest.raises(ValueError, match="unknown method"):
                ergodic_capacity(link, method=method)


def _no_foxh(*args, **kwargs):
    raise AssertionError("the Fox H route ran on the default route")


REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference", "curves_reference.json")


class TestDefaultRoute:
    """The default route: the quadrature value when its bound certifies it,
    ConvergenceError otherwise, and Fox H never."""

    def test_every_row_evaluates_without_foxh(self, monkeypatch):
        monkeypatch.setattr(performance, "_avg_ber_foxh", _no_foxh)
        monkeypatch.setattr(performance, "_capacity_foxh", _no_foxh)
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
        def loose(f, lo, hi, cfg, points=None):
            est = adaptive_quad(f, lo, hi, cfg, points=points)
            return Estimate(est, 1e-3 * abs(est))

        monkeypatch.setattr(performance, "adaptive_quad", loose)
        link = LinkBudget(SALTY165, IMDD, db(30.0))
        with pytest.raises(ConvergenceError, match="quadrature did not converge") as err:
            avg_ber(link, Modulation.ook())
        assert err.value.estimate == pytest.approx(7.2e-2, rel=0.05)
        assert err.value.error_bound > CERTIFY_RTOL * err.value.estimate
        with pytest.raises(ConvergenceError):
            ergodic_capacity(link)


class TestReferenceTable:
    """Every certified point of the checked-in mpmath table, by default route."""

    RTOL = 1e-6
    ABS_FLOOR = 1e-300  # values below the double range compare as zero

    def test_every_certified_point(self):
        with open(REFERENCE) as handle:
            points = json.load(handle)["points"]
        failures = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in points:
                egg = condition(p["row"]).egg
                if not p["certified"] or [egg.omega, egg.lam, egg.a, egg.b, egg.c] != p["params"]:
                    continue
                mode = DetectionMode.parse(p["detection"])
                link = LinkBudget(egg, mode, db(p["snr_db"]))
                if p["metric"] == "outage":
                    got = outage(link)
                elif p["metric"] == "ber":
                    got = avg_ber(link, Modulation.parse(p["modulation"]))
                else:
                    got = ergodic_capacity(link)
                want = float(p["value"])
                if abs(got - want) > self.RTOL * abs(want) + self.ABS_FLOOR:
                    failures.append((p["row"], p["detection"], p["metric"], p["modulation"],
                                     p["snr_db"], got, want))
        assert sum(p["certified"] for p in points) > 1200
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


class TestErgodicCapacity:
    def test_figure_anchor_30db(self):
        link = LinkBudget(ROW1, IMDD, db(30.0))
        assert ergodic_capacity(link) == pytest.approx(5.563110, rel=0.01)

    def test_low_snr_limit(self):
        link = LinkBudget(ROW1, IMDD, 1e-9)
        assert ergodic_capacity(link, method="quadrature") < 1e-6

    def test_sampling_oracle(self):
        link = LinkBudget(ROW1, IMDD, db(30.0))
        rng = np.random.default_rng(23)
        gammas = link.mu_r * ROW1.sample(rng, 10_000_000) ** 2
        mc = float(np.log1p(CAPACITY_TAU * gammas).mean())
        assert ergodic_capacity(link) == pytest.approx(mc, rel=5e-3)

    def test_foxh_matches_quadrature(self):
        for row in ALL_CONDITIONS:
            for mode in (IMDD, HETERODYNE):
                link = LinkBudget(row.egg, mode, db(30.0))
                assert_crosscheck(
                    lambda: capacity_quadrature(link),
                    lambda: ergodic_capacity(link, method="foxh"),
                    (row.label, mode.name),
                )

    def test_monotone_in_snr(self):
        vals = [ergodic_capacity(LinkBudget(ROW1, IMDD, db(s)), method="quadrature")
                for s in np.linspace(5, 60, 20)]
        assert np.all(np.diff(vals) > 0.0)


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
        gap = abs(ergodic_capacity(link, method="quadrature") - capacity_asymptotic(link))
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
