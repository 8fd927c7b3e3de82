import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from uwoc.distributions import EggParams, EgParams, ExpLognormalParams, model_from_dict
from uwoc.presets import ALL_CONDITIONS, condition
from uwoc.special import QuadratureConfig, adaptive_quad

ROW1 = condition("2.4lpm-0.05C").egg
STRONG = condition("23.6lpm-0.22C").egg

QUAD = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=300)


def integrate_pdf(model, lo, hi):
    points = [model.lam]
    if isinstance(model, EggParams):
        points.append(model.b)
    elif isinstance(model, EgParams):
        points.append(model.alpha * model.beta)
    if math.isinf(hi):
        split = 4.0 * max(points)
        head = adaptive_quad(lambda i: model.pdf(i), 1e-300, split, QUAD, points=points)
        return head + adaptive_quad(lambda i: model.pdf(i), split, math.inf, QUAD)
    return adaptive_quad(lambda i: model.pdf(i), 1e-300, hi, QUAD, points=points)


class TestPdf:
    def test_pure_exponential_limit(self):
        model = EggParams(1.0, 1.0, 2.0, 1.0, 3.0)
        assert model.pdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_row1_normalization(self):
        assert integrate_pdf(ROW1, 0.0, math.inf) == pytest.approx(1.0, abs=1e-8)

    def test_shape_one_matches_gamma_mixture(self):
        # oracle from scipy.stats' lobes and lgamma moments, not the package's GG lobe;
        # at alpha = 3614 the log density cancels terms of size alpha |ln beta| ~ 3e4,
        # and any two double-precision evaluations then agree only to ~1e-11
        grid = np.logspace(-3, 1, 60)
        for label, rtol in [("23.6lpm-0.22C", 1e-12), ("salty-16.5lpm", 1e-12), ("fresh-2.4lpm", 3e-11)]:
            eg = condition(label).eg
            w, lam, alpha, beta = eg.omega, eg.lam, eg.alpha, eg.beta
            log_pdf = np.logaddexp(math.log(w) + stats.expon.logpdf(grid, scale=lam),
                                   math.log1p(-w) + stats.gamma.logpdf(grid, alpha, scale=beta))
            cdf = w * stats.expon.cdf(grid, scale=lam) + (1 - w) * stats.gamma.cdf(grid, alpha, scale=beta)
            assert np.allclose(eg.pdf(grid), np.exp(log_pdf), rtol=rtol, atol=0.0)
            assert np.allclose(eg.cdf(grid), cdf, rtol=1e-12, atol=1e-300)
            for n in range(4):
                gamma_moment = beta**n * math.exp(math.lgamma(alpha + n) - math.lgamma(alpha))
                want = w * lam**n * math.factorial(n) + (1 - w) * gamma_moment
                assert eg.moment(n) == pytest.approx(want, rel=rtol)

    def test_nonnegative(self):
        grid = np.logspace(-6, 2, 200)
        for cond in ALL_CONDITIONS:
            assert np.all(cond.egg.pdf(grid) >= 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ROW1.pdf(0.0)
        with pytest.raises(ValueError):
            ROW1.pdf(np.array([0.5, -1.0]))

    def test_degenerate_weight_row(self):
        nearly_gg = condition("salty-0lpm").egg  # omega ~ 1e-23
        assert integrate_pdf(nearly_gg, 0.0, math.inf) == pytest.approx(1.0, abs=1e-8)


class TestCdf:
    def test_zero(self):
        for cond in ALL_CONDITIONS:
            assert cond.egg.cdf(0.0) == 0.0

    def test_limit_one(self):
        assert ROW1.cdf(1e6) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_oracle_at_one(self):
        want = integrate_pdf(ROW1, 0.0, 1.0)
        assert ROW1.cdf(1.0) == pytest.approx(want, abs=1e-7)

    def test_monotone(self):
        grid = np.linspace(0.0, 8.0, 400)
        for cond in [condition("2.4lpm-0.05C"), condition("fresh-16.5lpm")]:
            vals = cond.egg.cdf(grid)
            assert np.all(np.diff(vals) >= 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ROW1.cdf(-0.1)

    def test_deep_lower_tail_small_shape(self):
        # c ln(i/b) far below -745: P(a, e^t) ~ e^{a t} is still large for small a
        mpmath = pytest.importorskip("mpmath")
        for label in ("fresh-16.5lpm", "23.6lpm-0.22C", "salty-16.5lpm"):
            lobe = dataclasses.replace(condition(label).egg, omega=0.0)
            grid = lobe.b * np.exp(np.linspace(-600.0, -2200.0, 33) / lobe.c)
            for i, got in zip(grid, lobe.cdf(grid)):
                with mpmath.workdps(40):
                    t = lobe.c * (mpmath.log(i) - mpmath.log(lobe.b))
                    want = float(mpmath.gammainc(lobe.a, 0, mpmath.exp(t), regularized=True))
                assert got == pytest.approx(want, rel=1e-10, abs=0.0), (label, float(t))
                assert lobe.cdf(float(i)) == got
            # either side of the series switch at t = -700
            edge = lobe.b * np.exp(np.array([-700.0 - 1e-12, -700.0 + 1e-12]) / lobe.c)
            below, above = lobe.cdf(edge)
            assert below == pytest.approx(above, rel=1e-12, abs=0.0)
        assert condition("fresh-16.5lpm").egg.cdf(1e-300) < 1e-250


class TestMoments:
    def test_zeroth(self):
        for cond in ALL_CONDITIONS[:4]:
            assert cond.egg.moment(0) == pytest.approx(1.0, rel=1e-14)

    def test_pure_exponential_mean(self):
        assert EggParams(1.0, 0.7, 1.0, 1.0, 1.0).moment(1) == pytest.approx(0.7)

    def test_second_moment_sampling_oracle(self):
        rng = np.random.default_rng(2024)
        draws = ROW1.sample(rng, 10_000_000)
        mc = float(np.mean(draws**2))
        assert ROW1.moment(2) == pytest.approx(mc, rel=5e-3)

    def test_scintillation_identity(self):
        for cond in ALL_CONDITIONS:
            model = cond.egg
            m1, m2 = model.moment(1), model.moment(2)
            direct = (m2 - m1**2) / m1**2
            assert model.scintillation_index() == pytest.approx(direct, abs=1e-12)

    def test_scintillation_anchors(self):
        assert ROW1.scintillation_index() == pytest.approx(0.1484, abs=1e-3)
        assert STRONG.scintillation_index() == pytest.approx(3.1952, abs=2e-3)

    def test_pure_exponential_scintillation(self):
        assert EggParams(1.0, 0.3291, 1.0, 1.0, 1.0).scintillation_index() == pytest.approx(1.0)


class TestSampling:
    def test_exponential_mean(self):
        rng = np.random.default_rng(7)
        draws = EggParams(1.0, 2.0, 1.0, 1.0, 1.0).sample(rng, 1_000_000)
        assert float(draws.mean()) == pytest.approx(2.0, rel=0.01)

    def test_ks_distance_row1(self):
        rng = np.random.default_rng(90)
        draws = np.sort(ROW1.sample(rng, 1_000_000))
        n = draws.size
        model_cdf = ROW1.cdf(draws)
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        ks = max(np.abs(upper - model_cdf).max(), np.abs(model_cdf - lower).max())
        assert ks < 0.002

    def test_empirical_scintillation(self):
        rng = np.random.default_rng(4)
        draws = ROW1.sample(rng, 1_000_000)
        si = float(np.var(draws) / np.mean(draws) ** 2)
        assert si == pytest.approx(0.1484, rel=0.02)

    def test_moment_convergence(self):
        rng = np.random.default_rng(11)
        model = condition("salty-16.5lpm").egg
        draws = model.sample(rng, 2_000_000)
        assert float(draws.mean()) == pytest.approx(model.moment(1), rel=5e-3)
        assert float(np.mean(draws**2)) == pytest.approx(model.moment(2), rel=2e-2)

    def test_positive_even_for_tiny_shape(self):
        rng = np.random.default_rng(5)
        model = condition("fresh-16.5lpm").egg  # a = 0.0075, c = 216.8
        draws = model.sample(rng, 500_000)
        assert np.all(draws > 0.0)

    def test_scalar_draw(self):
        rng = np.random.default_rng(1)
        value = ROW1.sample(rng)
        assert isinstance(value, float) and value > 0


class TestOtherVariants:
    def test_eg_cdf_quadrature(self):
        eg = condition("16.5lpm-0.22C").eg
        want = integrate_pdf(eg, 0.0, 0.5)
        assert eg.cdf(0.5) == pytest.approx(want, abs=1e-7)

    def test_eg_gives_the_floats_of_its_egg_form(self):
        # the Gamma lobe runs the GG lobe's code at c = 1, small-shape sampler included
        grid = np.concatenate([[0.0], np.logspace(-300, 300, 61), np.logspace(-3, 2, 101)])
        models = [cond.eg for cond in ALL_CONDITIONS] + [EgParams(0.3, 0.5, 0.02, 50.0)]
        for eg in models:
            egg = eg.as_egg()
            assert np.array_equal(eg.log_pdf(grid[1:]), egg.log_pdf(grid[1:]))
            assert np.array_equal(eg.cdf(grid), egg.cdf(grid))
            assert [eg.moment(n) for n in range(5)] == [egg.moment(n) for n in range(5)]
            draws = [m.sample(np.random.default_rng(9), 2000) for m in (eg, egg)]
            assert np.array_equal(*draws)

    def test_expln_moments_vs_sampling(self):
        model = condition("16.5lpm-0.22C").expln
        rng = np.random.default_rng(3)
        draws = model.sample(rng, 2_000_000)
        assert float(draws.mean()) == pytest.approx(model.moment(1), rel=5e-3)
        assert float(np.mean(draws**2)) == pytest.approx(model.moment(2), rel=3e-2)

    def test_expln_normalization(self):
        model = condition("23.6lpm-0.22C").expln
        assert integrate_pdf(model, 0.0, math.inf) == pytest.approx(1.0, abs=1e-8)


class TestValidationAndSerialization:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EggParams(1.2, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            EggParams(0.5, -1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            EgParams(0.5, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ExpLognormalParams(0.5, 1.0, 0.0, -1.0)

    def test_boundary_weights_admitted(self):
        EggParams(0.0, 1.0, 1.0, 1.0, 1.0)
        EggParams(1.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("model", [
        ROW1,
        condition("2.4lpm-0.05C").eg,
        condition("2.4lpm-0.05C").expln,
    ])
    def test_round_trip(self, model):
        assert model_from_dict(model.to_dict()) == model

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            model_from_dict({"model": "egg", "params": {"omega": 0.5}})
        with pytest.raises(ValueError):
            model_from_dict({"model": "nope", "params": {}})
