import math
import pickle

import numpy as np
import pytest
from scipy import special as sp

from uwoc.errors import ConvergenceError
from uwoc.special import (
    FoxHSpec,
    QuadratureConfig,
    adaptive_quad,
    fox_h,
    log_gamma,
    reg_lower_inc_gamma,
    upper_inc_gamma,
)

GRID = np.logspace(-3, 3, 61)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    def test_product_recursion_oracle(self):
        # Gamma(4.5) = 3.5 * 2.5 * 1.5 * 0.5 * Gamma(0.5)
        want = math.log(3.5 * 2.5 * 1.5 * 0.5) + 0.5 * math.log(math.pi)
        assert log_gamma(4.5) == pytest.approx(want, rel=1e-13)

    def test_recurrence_on_grid(self):
        for x in GRID:
            gap = log_gamma(x + 1.0) - log_gamma(x) - math.log(x)
            assert abs(gap) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


class TestIncompleteGamma:
    def test_exponential_identity(self):
        for x in [0.1, 1.0, 3.0, 10.0]:
            assert reg_lower_inc_gamma(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-13)

    def test_zero(self):
        assert reg_lower_inc_gamma(1.4299, 0.0) == 0.0

    def test_quadrature_oracle(self):
        a = 1.4299
        want = adaptive_quad(lambda t: t ** (a - 1) * math.exp(-t), 0.0, 2.0)
        want /= math.gamma(a)
        assert reg_lower_inc_gamma(a, 2.0) == pytest.approx(want, rel=1e-10)

    def test_monotone(self):
        xs = np.linspace(0.0, 20.0, 200)
        vals = [reg_lower_inc_gamma(0.7, x) for x in xs]
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)

    def test_upper_erfc_identity(self):
        for x in [0.2, 1.0, 4.0]:
            want = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
            assert upper_inc_gamma(0.5, x) == pytest.approx(want, rel=1e-12)

    def test_upper_at_zero(self):
        assert upper_inc_gamma(2.5, 0.0) == pytest.approx(math.gamma(2.5), rel=1e-13)

    def test_upper_quadrature_oracle(self):
        want = adaptive_quad(lambda t: t ** (-0.5) * math.exp(-t), 4.0, math.inf)
        assert upper_inc_gamma(0.5, 4.0) == pytest.approx(want, rel=1e-10)

    def test_complementarity(self):
        for a in [0.0121, 0.5, 1.4299, 17.0, 120.0]:
            for x in [0.01, 0.5, 2.0, 40.0]:
                total = reg_lower_inc_gamma(a, x) + upper_inc_gamma(a, x) / math.gamma(a)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            upper_inc_gamma(0.5, -1.0)


class TestAdaptiveQuad:
    def test_exponential(self):
        assert adaptive_quad(math.exp, -math.inf, 0.0) == pytest.approx(1.0, rel=1e-10)
        assert adaptive_quad(lambda t: math.exp(-t), 0.0, math.inf) == pytest.approx(1.0, rel=1e-10)

    def test_linear(self):
        assert adaptive_quad(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_carries_error_bound(self):
        est = adaptive_quad(lambda t: math.exp(-t), 0.0, 30.0)
        assert isinstance(est, float)
        assert abs(est - -math.expm1(-30.0)) <= est.error_bound <= 1e-9
        copy = pickle.loads(pickle.dumps(est))
        assert (copy, copy.error_bound) == (est, est.error_bound)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)


class TestFoxHSpec:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            FoxHSpec(m=2, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
        with pytest.raises(ValueError):
            FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, -1.0),))

    def test_pole_separation_required(self):
        # lower pole family starts at -2, upper at -3: no vertical gap
        with pytest.raises(ValueError, match="separable"):
            FoxHSpec(
                m=1, n=1, p=1, q=1,
                upper_params=((4.0, 1.0),),
                lower_params=((2.0, 1.0),),
            )

    def test_contour_strip(self):
        spec = FoxHSpec(
            m=1, n=1, p=1, q=2,
            upper_params=((1.0, 1.0),),
            lower_params=((1.7, 1.0), (0.0, 1.0)),
        )
        assert spec.contour_lo == pytest.approx(-1.7)
        assert spec.contour_hi == pytest.approx(0.0)


class TestFoxHValues:
    CFG = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=80)

    @pytest.mark.parametrize("a", [0.35, 1.0, 1.7, 4.2])
    def test_exponential_reduction(self, a):
        # H^{1,0}_{0,1}[z | - ; (a,1)] = z^a e^{-z}
        spec = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((a, 1.0),))
        for z in np.logspace(-3, 2, 11):
            want = z**a * math.exp(-z)
            assert fox_h(spec, z, self.CFG) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("a", [0.35, 1.0, 1.7, 4.2])
    def test_lower_incomplete_gamma_reduction(self, a):
        # H^{1,1}_{1,2}[z | (1,1) ; (a,1),(0,1)] = gamma(a, z)
        spec = FoxHSpec(
            m=1, n=1, p=1, q=2,
            upper_params=((1.0, 1.0),),
            lower_params=((a, 1.0), (0.0, 1.0)),
        )
        for z in np.logspace(-3, 2, 11):
            want = sp.gammainc(a, z) * math.gamma(a)
            assert fox_h(spec, z, self.CFG) == pytest.approx(want, rel=1e-9)

    def test_domain(self):
        spec = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
        with pytest.raises(ValueError):
            fox_h(spec, -1.0)

    def test_truncation_failure_carries_estimate(self):
        spec = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-14, max_subdivisions=1)
        with pytest.raises(ConvergenceError) as err:
            fox_h(spec, 1.0, cfg)
        assert err.value.estimate is not None
