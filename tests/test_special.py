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
)


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
