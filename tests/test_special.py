import math
import os
import pickle
import re
import subprocess
import sys
import textwrap
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from uwoc.errors import ConvergenceError
from uwoc.special import (
    Estimate,
    FoxHSpec,
    QuadratureConfig,
    _gauss_kronrod,
    _gk_nodes,
    _gk_panels,
    adaptive_quad,
    fox_h_ln,
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


class TestGaussKronrod:
    def test_exact_on_polynomials(self):
        # K15 integrates degree 22 exactly, so one panel certifies at once
        est = _gauss_kronrod(lambda t: t**22 - 3.0 * t**5, [-1.0, 1.0])
        assert est == pytest.approx(2.0 / 23.0, rel=1e-14)
        assert est.error_bound <= 1e-10

    def test_matches_quadpack_with_bound(self):
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-12, max_subdivisions=400)
        est = _gauss_kronrod(lambda t: np.exp(-t * t) * np.cos(3.0 * t), [-30.0, 0.0, 30.0], cfg)
        want = math.sqrt(math.pi) * math.exp(-2.25)
        assert abs(est - want) <= max(est.error_bound, 1e-15)
        assert est.error_bound <= 1e-12 * want
        assert est == pytest.approx(adaptive_quad(
            lambda t: math.exp(-t * t) * math.cos(3.0 * t), -30.0, 30.0, cfg), rel=1e-12)

    def test_panel_cap_raises_with_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-14, max_subdivisions=8)
        with pytest.raises(ConvergenceError) as err:
            _gauss_kronrod(lambda t: np.sqrt(np.abs(t)), [-1.0, 1.0], cfg)
        assert err.value.estimate == pytest.approx(4.0 / 3.0, rel=1e-3)
        assert abs(err.value.estimate - 4.0 / 3.0) <= err.value.error_bound

    def test_refines_panels_accepted_before_the_total_shrank(self):
        # the first pass overestimates the negative peak on [1, 2], so the
        # tolerance that accepts the panel on [0, 1] is too loose for the total
        rate = math.log(3.0)
        amp = 0.99 * rate / (0.01 * math.sqrt(math.pi))
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-8, max_subdivisions=400)
        est = _gauss_kronrod(
            lambda t: np.where(t < 1.0, 1.0 / (t + 0.5), -amp * np.exp(-((t - 1.5) / 0.01) ** 2)),
            [0.0, 1.0, 2.0], cfg)
        assert est == pytest.approx(0.01 * rate, rel=1e-12)
        assert est.error_bound <= 1e-8 * est

    # a panel's error divides by its resasc, which is 0 on a constant or zero
    # panel and subnormal on a subnormal integrand: none of them may warn
    @pytest.mark.parametrize("f, breaks, want", [
        # K/2 rounds to the constant, so resasc is 0 while K != G
        (lambda t: np.full_like(t, 1.2697867137638703e20), [0.0, 0.5, 2.0], 2.5395734275277406e20),
        (lambda t: np.full_like(t, 3.0), [-1.0, 1.0], 6.0),
        (lambda t: np.where(t < 1.0, 0.0, t), [0.0, 1.0, 2.0], 1.5),
        (lambda t: 1e-310 * np.exp(t), [0.0, 1.0], 1e-310 * math.expm1(1.0)),
    ], ids=["constant-resasc-0", "constant", "zero-panel", "subnormal"])
    def test_degenerate_resasc_does_not_warn(self, f, breaks, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = _gauss_kronrod(f, breaks)
        assert est == pytest.approx(want, rel=1e-12)
        assert 0.0 <= est.error_bound <= 1e-12 * want

    def test_first_round_given_is_the_first_round_taken(self):
        # a caller that evaluated the first round itself gets the same panels
        f = lambda t: np.exp(-t * t) * np.cos(3.0 * t)
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-12, max_subdivisions=400)
        breaks = np.array([-30.0, 0.0, 30.0])
        lo, half = breaks[:-1], 0.5 * np.diff(breaks)
        first = _gk_panels(f(_gk_nodes(lo, half)), half)
        own, given = _gauss_kronrod(f, breaks, cfg), _gauss_kronrod(f, breaks, cfg, first)
        assert float(own).hex() == float(given).hex()
        assert own.error_bound == given.error_bound

    def test_certifying_first_round_calls_nothing(self):
        # a given first round that certifies is summed and returned before f is
        # called or any array of panels is built
        def f(t):
            raise AssertionError("f called")

        value, error = np.array([0.25, 0.5, 0.125, 1e-3]), np.array([1e-15, 2e-15, 1e-16, 3e-17])
        est = _gauss_kronrod(f, [0.0, 1.0, 2.0, 3.0, 4.0], first=(value, error))
        assert isinstance(est, Estimate)
        assert float(est).hex() == float(value.sum()).hex()
        assert est.error_bound.hex() == float(error.sum()).hex()


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
            got = fox_h_ln(spec, math.log(z), self.CFG)
            assert got == pytest.approx(want, rel=1e-9)
            assert isinstance(got, Estimate)
            assert math.isfinite(got.error_bound) and got.error_bound >= 0.0

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
            assert fox_h_ln(spec, math.log(z), self.CFG) == pytest.approx(want, rel=1e-9)

    def test_domain(self):
        # each fails at once, before any panel: nan and +inf would subdivide or
        # overflow, -inf would read as H = 0, and a nan prefactor as H = nan
        spec = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
        for log_z, log_prefactor in [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.nan)]:
            bad = "log_z" if log_prefactor == 0.0 else "log_prefactor"
            with pytest.raises(ValueError, match=f"^{bad} must be finite"):
                fox_h_ln(spec, log_z, log_prefactor=log_prefactor)

    def test_underflow_returns_before_the_panels(self, monkeypatch):
        # H = z e^-z is below the double range at ln z = 1e4: zero after the
        # abscissa search and the height at t = 0, with no panel laid out
        spec = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
        calls, log_kernel = [], FoxHSpec.log_kernel
        monkeypatch.setattr(FoxHSpec, "log_kernel", lambda self, s: calls.append(s) or log_kernel(self, s))
        est = fox_h_ln(spec, 1e4)
        assert (est, est.error_bound) == (0.0, 0.0)
        assert len(calls) <= 3

    def test_huge_log_z_does_not_warn(self):
        # c ln z of the abscissa search would overflow on its grid
        spec = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = fox_h_ln(spec, 1e300)
        assert (est, est.error_bound) == (0.0, 0.0)

    @pytest.mark.parametrize("log_z", [-24.0, -26.0, -30.0, -40.0])
    def test_half_infinite_strip_at_small_z(self, log_z):
        # the abscissa grid starts 1e-10 from the pole wall at s = -1, not
        # 1e-10 of its reach (about 8 at ln z = -24, where H read 2.5e63)
        spec = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
        z = math.exp(log_z)
        want = z * math.exp(-z)
        est = fox_h_ln(spec, log_z)
        assert est == pytest.approx(want, rel=1e-9)
        assert abs(est - want) <= est.error_bound

    def test_bound_holds_where_h_nears_the_double_range_floor(self):
        # z e^-z at ln z in [-5, 6.6] in steps of 0.01, against 40 digits:
        # near ln z = 6 the rounding of exp(top + log_prefactor), about
        # |ln H| eps relative, was not in the bound (38 values missed it),
        # and past ln z = 6.58 the result is subnormal, off by a few ulps
        spec = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
        missed = []
        with mp.workdps(40):
            for log_z in (i / 100.0 for i in range(-500, 661)):
                z = mp.exp(mp.mpf(log_z))
                est = fox_h_ln(spec, log_z)
                if not abs(est - z * mp.exp(-z)) <= est.error_bound:
                    missed.append(log_z)
        assert missed == []

    def test_truncation_failure_carries_estimate(self):
        spec = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((1.0, 1.0),))
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-14, max_subdivisions=1)
        with pytest.raises(ConvergenceError) as err:
            fox_h_ln(spec, 0.0, cfg)
        assert err.value.estimate is not None


def _fresh(code):
    """Run ``code`` in a fresh interpreter that imports this uwoc; its asserts must hold."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["uwoc"].__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True,
                   timeout=120)


def _names_read_from_sp():
    """Every ``sp.<name>`` that a module of this uwoc reads."""
    pkg = os.path.dirname(os.path.abspath(sys.modules["uwoc"].__file__))
    names = set()
    for fname in os.listdir(pkg):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                names.update(re.findall(r"\bsp\.(\w+)", fh.read()))
    return sorted(names)


class TestScipySpecialOnFirstUse:
    def test_first_call_makes_a_plain_module(self):
        _fresh("""
            import sys, types
            import uwoc.special
            from uwoc.distributions import EggParams
            assert type(uwoc.special.sp) is not types.ModuleType
            assert "scipy.special" not in sys.modules
            assert 0.0 < EggParams(0.2, 0.3, 1.4, 1.2, 17.0).cdf(1.0) < 1.0
            assert type(uwoc.special.sp) is types.ModuleType
        """)

    def test_same_functions_as_scipy_special(self):
        _fresh("""
            import sys
            from uwoc.special import sp
            gammaln = sp.gammaln
            import scipy.special
            assert gammaln is scipy.special.gammaln and sp.erfcx is scipy.special.erfcx
            assert sys.modules["scipy.special"] is scipy.special is not sp
        """)

    @pytest.mark.parametrize("first", [
        "fast = True",
        "import scipy.special; fast = False",
        "import importlib.util; importlib.util.find_spec = lambda name: None; fast = False",
    ])
    def test_every_name_read_is_the_package_object(self, first):
        # the first read loads only the ufuncs, unless scipy.special came in before
        # it or the bare-package import fails; the ordinary import then loads it
        names = _names_read_from_sp()
        assert {"gammaln", "psi", "_zeta"} <= set(names)
        _fresh(f"""
            import sys
            import numpy as np
            {first}
            from uwoc.special import sp
            got = {{name: getattr(sp, name) for name in {names!r}}}
            assert ("scipy.special" not in sys.modules) is fast
            import scipy.special
            assert "scipy.special._support_alternative_backends" in sys.modules
            zeta = got.pop("_zeta")
            assert zeta is scipy.special._ufuncs._zeta
            assert all(f is getattr(scipy.special, name) for name, f in got.items())
            assert got["psi"] is scipy.special.digamma
            a = np.logspace(-3.0, 12.0, 2001)
            assert np.array_equal(zeta(2.0, a), scipy.special.zeta(2.0, a))
        """)

    def test_one_object_for_every_module(self):
        _fresh("""
            import uwoc.distributions, uwoc.em, uwoc.montecarlo, uwoc.performance, uwoc.special
            sp = uwoc.special.sp
            assert uwoc.distributions.sp is uwoc.em.sp is sp
            assert uwoc.montecarlo.sp is uwoc.performance.sp is sp
        """)

    def test_concurrent_first_reads(self):
        # more threads than cores, released together onto the first read
        _fresh("""
            import sys, threading
            from uwoc.special import sp
            barrier, got = threading.Barrier(4), []

            def read():
                barrier.wait()
                got.append(sp.gammaln)

            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            import scipy.special
            assert len(got) == 4 and all(f is scipy.special.gammaln for f in got)
        """)

    def test_import_on_another_thread_during_the_first_read_gets_the_package(self):
        # the ufuncs' load is held until a second thread's ``import scipy.special``
        # waits on that module's import lock or has returned; it must not get the stand-in
        _fresh("""
            import importlib.abc, importlib.machinery, sys, threading, time
            from uwoc.special import sp
            held, release, imported, got = (threading.Event(), threading.Event(),
                                            threading.Event(), [])

            class Hold(importlib.abc.Loader):  # finds the ufuncs; loads them on ``release``
                def find_spec(self, name, path=None, target=None):
                    if name != "scipy.special._ufuncs":
                        return None
                    spec = importlib.machinery.PathFinder.find_spec(name, path)
                    self.loader, spec.loader = spec.loader, self
                    return spec

                def create_module(self, spec):  # outside the global import lock
                    held.set()
                    release.wait(60)
                    return self.loader.create_module(spec)

                def exec_module(self, module):
                    self.loader.exec_module(module)

            def second():
                import scipy.special
                got.append(scipy.special)
                imported.set()

            sys.meta_path.insert(0, Hold())
            first = threading.Thread(target=lambda: sp.gammaln)
            first.start()
            assert held.wait(60)
            importer = threading.Thread(target=second)
            importer.start()

            def waiting():  # the importer waits on the scipy.special import lock
                ref = importlib._bootstrap._module_locks.get("scipy.special")
                lock = ref and ref()
                return bool(lock and lock.waiters)

            deadline = time.monotonic() + 60
            while not (imported.is_set() or waiting()) and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()
            for thread in (first, importer):
                thread.join(60)
                assert not thread.is_alive()
            import scipy.special
            assert got == [scipy.special] and hasattr(got[0], "logsumexp")
        """)
