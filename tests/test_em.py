import concurrent.futures
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

import uwoc.em as em_module
from uwoc.distributions import WEIGHT_EPS, EggParams
from uwoc.em import (
    EmConfig,
    e_step,
    fit,
    log_likelihood,
    m_step_exp,
    m_step_gg,
    update_omega,
)
from uwoc.errors import DataError, DegenerateComponentError
from uwoc.presets import ALL_CONDITIONS, condition

ROW1 = condition("2.4lpm-0.05C").egg

FAST = EmConfig(epsilon=1e-3, max_iters=200, restarts=1, seed=0)


class _InTurn:
    """Executor stand-in that runs each task as it is submitted, in the caller's thread."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future


class _PoolAsked(Exception):
    """Raised by a recording executor once it has the pool size."""


def gg_q(samples, weights, a, b, c):
    """Expected GG log-likelihood, via the weight-zero mixture density."""
    lobe = EggParams(0.0, 1.0, a, b, c)
    return float(np.dot(weights, lobe.log_pdf(samples)))


def gg_q_log(samples, weights, a, log_theta, c):
    """Expected GG log-likelihood at theta = b^c, summed term by term in log space."""
    keep = weights > 0.0  # I^c may overflow where the weight is 0
    log_i = np.log(samples[keep])
    terms = (math.log(c) + (a * c - 1.0) * log_i - a * log_theta
             - np.exp(c * log_i - log_theta) - gammaln(a))
    return float(np.dot(weights[keep], terms))


def shape_root(spread):
    """The root a of ln a - psi(a) = spread, as an mpmath number.

    40 digits, plus those that ln a - psi(a) loses where it is small; the
    bounds 1/(2a) < ln a - psi(a) < 1/a bracket the root in ln a.
    """
    with mpmath.workdps(40 + max(0, int(-math.log10(spread)))):
        s = mpmath.mpf(spread)
        log_a = mpmath.findroot(lambda t: (t - mpmath.digamma(mpmath.exp(t))) / s - 1,
                                (-mpmath.log(2 * s), -mpmath.log(s)), solver="anderson")
        return mpmath.exp(log_a)


def gg_profile(samples, weights, c):
    """Profile Q at c: the weighted Gamma ML of I^c in (a, theta), solved apart."""
    log_y = c * np.log(samples)
    w_total = float(weights.sum())
    log_mean_y = float(logsumexp(log_y, b=weights)) - math.log(w_total)
    spread = log_mean_y - float(np.dot(weights, log_y)) / w_total
    a = float(shape_root(spread))
    return gg_q_log(samples, weights, a, log_mean_y - math.log(a), c), a


class TestEStep:
    def test_symmetric_components(self):
        # GG with a = c = 1 and b = lam is the same exponential: gamma = omega
        model = EggParams(0.5, 0.8, 1.0, 0.8, 1.0)
        samples = np.array([0.1, 0.5, 1.0, 3.0])
        assert np.allclose(e_step(samples, model), 0.5, atol=1e-14)

    def test_degenerate_weight(self):
        samples = np.array([0.5, 1.0])
        assert np.all(e_step(samples, EggParams(1.0, 1.0, 2.0, 1.0, 2.0)) == 1.0)
        assert np.all(e_step(samples, EggParams(0.0, 1.0, 2.0, 1.0, 2.0)) == 0.0)

    def test_mean_responsibility_matches_weight(self):
        rng = np.random.default_rng(17)
        samples = ROW1.sample(rng, 100_000)
        gamma = e_step(samples, ROW1)
        assert np.all((gamma >= 0.0) & (gamma <= 1.0))
        assert float(gamma.mean()) == pytest.approx(ROW1.omega, rel=0.02)

    def test_rejects_bad_samples(self):
        with pytest.raises(DataError) as err:
            e_step(np.array([1.0, -2.0, 3.0]), ROW1)
        assert err.value.index == 1


def reference_e_step(samples, model):
    """Mixture log density and responsibilities by np.logaddexp, lobe by lobe.

    A lobe whose weight is below WEIGHT_EPS is absent; the GG lobe is -inf
    where c ln(i/b) > 709, where (i/b)^c would overflow.
    """
    w, lam, a, b, c = model.omega, model.lam, model.a, model.b, model.c
    log_i = np.log(samples)
    log_exp = np.full(samples.shape, -np.inf)
    if w >= WEIGHT_EPS:
        log_exp = math.log(w) - math.log(lam) - samples / lam
    log_gg = np.full(samples.shape, -np.inf)
    if 1.0 - w >= WEIGHT_EPS:
        t = c * (log_i - math.log(b))
        log_gg = (math.log1p(-w) + math.log(c) + (a * c - 1.0) * log_i - a * c * math.log(b)
                  - np.exp(np.minimum(t, 709.0)) - gammaln(a))
        log_gg[t > 709.0] = -np.inf
    log_mix = np.logaddexp(log_exp, log_gg)
    if w < WEIGHT_EPS:
        resp = np.zeros(samples.size)
    elif 1.0 - w < WEIGHT_EPS:
        resp = np.ones(samples.size)
    else:
        resp = np.exp(log_exp - log_mix)
    return log_mix, resp


def oracle_cases():
    """(label, model, samples) over the 18 rows, with omega as given, 0 and 1.

    Each sample set ends in two irradiances where c ln(i/b) is 800 and 1000,
    which send the GG lobe down its overflow branch.
    """
    for k, row in enumerate(ALL_CONDITIONS):
        model = row.egg
        samples = model.sample(np.random.default_rng(k), 2000)
        samples = np.append(samples, model.b * np.exp(np.array([800.0, 1000.0]) / model.c))
        for omega in (model.omega, 0.0, 1.0):
            yield f"{row.label}/omega={omega}", replace(model, omega=omega), samples


class TestEStepOracle:
    def test_responsibilities_and_loglik(self):
        for label, model, samples in oracle_cases():
            log_mix, ref_resp = reference_e_step(samples, model)
            resp, ll = em_module._resp_and_loglik(samples, np.log(samples), model)
            np.testing.assert_allclose(resp, ref_resp, rtol=0.0, atol=1e-12, err_msg=label)
            np.testing.assert_allclose(ll, log_mix.sum(), rtol=1e-12, err_msg=label)
            np.testing.assert_array_equal(e_step(samples, model), resp, err_msg=label)
            assert resp[-1] == (1.0 if model.omega >= WEIGHT_EPS else 0.0), label  # overflow

    def test_log_pdf_and_pdf(self):
        for row in ALL_CONDITIONS:
            model = row.egg
            samples = model.sample(np.random.default_rng(7), 2000)
            ref = reference_e_step(samples, model)[0]
            np.testing.assert_allclose(model.log_pdf(samples), ref, rtol=1e-14, err_msg=row.label)
            np.testing.assert_allclose(model.pdf(samples), np.exp(ref), rtol=1e-14, err_msg=row.label)
            assert model.log_pdf(float(samples[0])) == model.log_pdf(samples)[0]
            assert isinstance(model.pdf(float(samples[0])), float)


class TestMStepGG:
    def test_unweighted_recovery(self):
        rng = np.random.default_rng(3)
        data = EggParams(0.0, 1.0, 2.0, 1.0, 1.0).sample(rng, 100_000)
        a, b, c = m_step_gg(data, np.zeros(data.size))
        assert a == pytest.approx(2.0, rel=0.05)
        assert b == pytest.approx(1.0, rel=0.05)
        assert c == pytest.approx(1.0, rel=0.10)

    def test_weighted_recovery_at_generating_responsibilities(self):
        rng = np.random.default_rng(5)
        data = ROW1.sample(rng, 100_000)
        gamma = e_step(data, ROW1)
        a, b, c = m_step_gg(data, gamma)
        assert a == pytest.approx(ROW1.a, rel=0.10)
        assert b == pytest.approx(ROW1.b, rel=0.10)
        assert c == pytest.approx(ROW1.c, rel=0.10)

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(9)
        data = EggParams(0.0, 1.0, 1.5, 1.2, 3.0).sample(rng, 20_000)
        weights = np.full(data.size, 0.5)
        a, b, c = m_step_gg(data, 1.0 - weights)
        q_star = gg_q(data, weights, a, b, c)
        for _ in range(20):
            jitter = rng.lognormal(0.0, 0.15, size=3)
            q = gg_q(data, weights, a * jitter[0], b * jitter[1], c * jitter[2])
            assert q <= q_star + 1e-9

    def test_degenerate_mass(self):
        data = np.array([0.5, 1.0, 2.0])
        with pytest.raises(DegenerateComponentError):
            m_step_gg(data, np.ones(3))

    @pytest.mark.parametrize("label", ["2.4lpm-0.05C", "salty-16.5lpm", "23.6lpm-0.22C"])
    def test_stationary_maximum_at_generating_responsibilities(self, label):
        truth = condition(label).egg
        data = truth.sample(np.random.default_rng(23), 20_000)
        weights = 1.0 - e_step(data, truth)
        a, b, c = m_step_gg(data, 1.0 - weights)
        # envelope theorem: at the inner (a, b) optimum the profile slope is dQ/dc
        log_ratio = np.log(data / b)
        slope = float(np.dot(weights, 1.0 / c + a * log_ratio - np.exp(c * log_ratio) * log_ratio))
        assert abs(slope) * c <= 1e-6 * weights.sum()
        h = 1e-2
        q_minus, q_0, q_plus = (gg_profile(data, weights, c * math.exp(k * h))[0] for k in (-1, 0, 1))
        curvature = (q_plus - 2.0 * q_0 + q_minus) / h**2
        assert curvature < 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        log_a=st.floats(math.log(7.5e-3), math.log(4e3)),
        log_b=st.floats(math.log(0.03), math.log(7.5)),
        log_c=st.floats(math.log(2.0), math.log(217.0)),
        log_hint=st.floats(math.log(0.1), math.log(1e3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_below_the_hint(self, log_a, log_b, log_c, log_hint, seed):
        rng = np.random.default_rng(seed)
        lobe = EggParams(0.0, 1.0, math.exp(log_a), math.exp(log_b), math.exp(log_c))
        data = lobe.sample(rng, 2000)
        resp = rng.uniform(0.0, 0.9, data.size)
        weights = 1.0 - resp
        hint = math.exp(log_hint)
        a, b, c = m_step_gg(data, resp, c_hint=hint)
        q_hint, a_hint = gg_profile(data, weights, hint)
        # Q sums terms of size W a ln a that cancel where a is large; rounding scales with them
        big = max(a, a_hint)
        tol = 1e-14 * weights.sum() * (1.0 + big * (1.0 + abs(math.log(big))))
        assert gg_q_log(data, weights, a, c * math.log(b), c) >= q_hint - tol

    @pytest.mark.parametrize("label", ["2.4lpm-0.05C", "salty-16.5lpm", "23.6lpm-0.22C"])
    def test_cold_start_reaches_the_grid_maximum(self, label):
        truth = condition(label).egg
        data = truth.sample(np.random.default_rng(29), 20_000)
        weights = 1.0 - e_step(data, truth)
        a, b, c = m_step_gg(data, 1.0 - weights)
        q = gg_q_log(data, weights, a, c * math.log(b), c)
        grid = max(gg_profile(data, weights, x)[0] for x in np.geomspace(1e-3, 2e4, 200))
        assert q >= grid - 1e-9 * abs(q)


class TestNewtonAscent:
    """_newton_ascent's exits that do not converge, on stand-in profiles."""

    def test_step_that_halves_to_nothing_keeps_the_last_point(self):
        # gradient steps of +1 ascend up to u = 2 and descend beyond it
        made = []

        def point(u):
            made.append(em_module._ProfilePoint(u, u if u <= 2.0 else 2.0 - u, 1.0, 0.0, 1.0, 0.0))
            return made[-1]

        last = em_module._newton_ascent(point, point(0.0))
        assert last is made[2] and (last.u, last.q) == (2.0, 2.0)
        assert 0.0 < made[-1].u - 2.0 <= 2.0 * em_module._LOG_C_TOL  # halved to nothing

    def test_slope_that_never_settles_stops_at_the_iteration_cap(self):
        # every step ascends, and the slope points back across u = 0.5
        made = []

        def point(u):
            made.append(em_module._ProfilePoint(u, float(len(made)), 1.0 if u < 0.5 else -1.0,
                                                0.0, 1.0, 0.0))
            return made[-1]

        last = em_module._newton_ascent(point, point(0.0))
        assert len(made) == 1 + em_module._NEWTON_ITERS
        assert last is made[-1]


class TestMStepExp:
    def test_full_responsibility_recovery(self):
        rng = np.random.default_rng(21)
        data = rng.exponential(0.3, 100_000)
        lam = m_step_exp(data, np.ones(data.size))
        assert lam == pytest.approx(0.3, rel=0.01)

    def test_constant_weights_cancel(self):
        data = np.array([0.2, 1.0, 2.4, 0.7])
        lam = m_step_exp(data, np.full(4, 0.5))
        assert lam == pytest.approx(float(data.mean()), rel=1e-14)

    def test_subset_concentration(self):
        data = np.array([1.0, 2.0, 3.0, 10.0])
        resp = np.array([1.0, 1.0, 0.0, 0.0])
        assert m_step_exp(data, resp) == pytest.approx(1.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateComponentError):
            m_step_exp(np.array([1.0, 2.0]), np.zeros(2))

    def test_validates_samples(self):
        with pytest.raises(DataError):
            m_step_exp(np.array([1.0, -2.0]), np.ones(2))


def _shape_error(spread, got):
    """Relative error of ``got`` against the root a of ln a - psi(a) = spread."""
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(got) / shape_root(spread) - 1))


class TestGammaShape:
    def test_matches_mpmath(self):
        # a from about 1e-100 to 5e299
        for spread in np.geomspace(1e-300, 1e100, 401):
            got, _ = em_module._solve_gamma_shape(float(spread))
            assert _shape_error(float(spread), got) <= 1e-13, spread

    @pytest.mark.parametrize("a", [5e3, 5e7, 5e11])
    def test_large_shapes(self, a):
        # where ln a and psi(a) cancel to all but a few digits
        with mpmath.workdps(60):
            spread = float(mpmath.log(a) - mpmath.digamma(a))
        got, slope = em_module._solve_gamma_shape(spread)
        assert _shape_error(spread, got) <= 1e-15
        with mpmath.workdps(40):  # the slope of ln a - psi(a) in ln a, 1 - a psi'(a)
            assert slope == pytest.approx(float(1 - got * mpmath.psi(1, got)), rel=1e-14)

    @pytest.mark.parametrize("spread", [5e-324, 9e-301, 2e100, 1e300, 0.0, -1.0, math.inf,
                                        math.nan])
    def test_spread_outside_the_range_is_degenerate(self, spread):
        with pytest.raises(DegenerateComponentError):
            em_module._solve_gamma_shape(spread)


class TestUpdateOmega:
    @pytest.mark.parametrize("resp,want", [
        (np.ones(5), 1.0),
        (np.zeros(5), 0.0),
        (np.array([0.2, 0.4, 0.6]), 0.4),
    ])
    def test_mean(self, resp, want):
        assert update_omega(resp) == pytest.approx(want)


class TestLogLikelihood:
    def test_single_exponential_point(self):
        model = EggParams(1.0, 1.0, 1.0, 1.0, 1.0)
        assert log_likelihood([1.0], model) == pytest.approx(-1.0, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        data = ROW1.sample(rng, 1000)
        assert log_likelihood(data, ROW1) == log_likelihood(data[::-1], ROW1)

    def test_high_precision_summation_oracle(self):
        import mpmath as mp

        mp.mp.dps = 30
        rng = np.random.default_rng(8)
        data = ROW1.sample(rng, 1000)
        om, lam, a, b, c = ROW1.omega, ROW1.lam, ROW1.a, ROW1.b, ROW1.c
        omm, lamm, am, bm, cm = map(mp.mpf, map(repr, (om, lam, a, b, c)))

        def density(x):
            x = mp.mpf(repr(float(x)))
            f = mp.e ** (-x / lamm) / lamm
            g = cm * x ** (am * cm - 1) / bm ** (am * cm) * mp.e ** (-(x / bm) ** cm) / mp.gamma(am)
            return omm * f + (1 - omm) * g

        want = float(mp.fsum(mp.log(density(x)) for x in data))
        assert log_likelihood(data, ROW1) == pytest.approx(want, abs=1e-9 * abs(want))

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            log_likelihood([1.0, 0.0], ROW1)


class TestFit:
    def test_round_trip_row1(self):
        rng = np.random.default_rng(100)
        data = ROW1.sample(rng, 100_000)
        report = fit(data, "egg", FAST)
        assert abs(report.model.omega - ROW1.omega) <= 0.03
        assert report.model.lam == pytest.approx(ROW1.lam, rel=0.10)
        assert report.scintillation_index == pytest.approx(0.1484, rel=0.05)
        assert report.converged

    def test_trace_nondecreasing_over_seeds(self):
        cfg = EmConfig(epsilon=1e-3, max_iters=60, restarts=1, seed=0)
        truth = condition("salty-4.7lpm").egg
        for seed in range(50):
            data = truth.sample(np.random.default_rng(seed), 5000)
            report = fit(data, "egg", cfg)
            diffs = np.diff(report.loglik_trace)
            assert np.all(diffs >= -1e-9), f"seed {seed}"

    def test_pure_exponential_collapses_to_single_lobe(self):
        # With a GG lobe that contains the exponential (a = c = 1), the split
        # of weight between identical lobes is not likelihood-identifiable;
        # the defensible contract is distributional: the fitted mixture must
        # reproduce the exponential law itself.
        rng = np.random.default_rng(55)
        lam_true = 0.5
        data = rng.exponential(lam_true, 100_000)
        report = fit(data, "egg", FAST)
        model = report.model
        grid = np.linspace(0.0, 5.0, 500)
        sup_gap = float(np.max(np.abs(model.cdf(grid) + np.expm1(-grid / lam_true))))
        assert sup_gap < 0.01
        assert model.scintillation_index() == pytest.approx(1.0, abs=0.05)
        assert model.moment(1) == pytest.approx(lam_true, rel=0.02)

    def test_sample_order_and_duplication_invariance(self):
        rng = np.random.default_rng(31)
        data = ROW1.sample(rng, 20_000)
        base = fit(data, "egg", FAST).model
        shuffled = fit(data[::-1], "egg", FAST).model
        for x, y in zip(base.params_dict().values(), shuffled.params_dict().values()):
            assert x == pytest.approx(y, rel=1e-8)
        doubled = fit(np.concatenate([data, data]), "egg", FAST).model
        assert doubled.omega == pytest.approx(base.omega, rel=1e-6)
        assert doubled.c == pytest.approx(base.c, rel=1e-6)

    def test_eg_variant_schema_and_recovery(self):
        truth = condition("16.5lpm-0.22C").eg
        data = truth.sample(np.random.default_rng(12), 100_000)
        report = fit(data, "eg", EmConfig(epsilon=1e-4, max_iters=300, restarts=1, seed=1))
        assert report.model.variant == "eg"
        assert set(report.model.params_dict()) == {"omega", "lambda", "alpha", "beta"}
        assert report.scintillation_index == pytest.approx(truth.scintillation_index(), rel=0.05)

    def test_explognormal_variant(self):
        truth = condition("16.5lpm-0.22C").expln
        data = truth.sample(np.random.default_rng(12), 100_000)
        report = fit(data, "explognormal", EmConfig(epsilon=1e-4, max_iters=300, restarts=1, seed=1))
        assert report.model.variant == "explognormal"
        assert report.scintillation_index == pytest.approx(truth.scintillation_index(), rel=0.08)

    def test_small_sample_warning(self):
        rng = np.random.default_rng(0)
        data = ROW1.sample(rng, 50)
        with pytest.warns(UserWarning, match="unstable"):
            fit(data, "egg", EmConfig(epsilon=1e-2, max_iters=30, restarts=1))

    def test_user_supplied_init(self):
        rng = np.random.default_rng(77)
        data = ROW1.sample(rng, 20_000)
        cfg = EmConfig(epsilon=1e-3, max_iters=100, restarts=1, init_params=ROW1)
        report = fit(data, "egg", cfg)
        assert report.converged

    def test_init_params_is_the_first_point(self):
        data = ROW1.sample(np.random.default_rng(78), 5000)
        report = fit(data, "egg", EmConfig(init_params=ROW1, restarts=1, max_iters=1))
        assert report.loglik_trace[0] == log_likelihood(data, ROW1)

    def test_responsibility_summary_bounds(self):
        rng = np.random.default_rng(19)
        data = ROW1.sample(rng, 20_000)
        report = fit(data, "egg", FAST)
        summary = report.responsibilities_summary
        assert 0.0 <= summary["min"] <= summary["mean"] <= summary["max"] <= 1.0

    def test_likelihood_drop_stops_without_convergence(self, monkeypatch):
        data = ROW1.sample(np.random.default_rng(41), 5000)
        accepted = []
        update = em_module._second_lobe_update

        def dropping_update(samples, log_i, resp, params):
            new = update(samples, log_i, resp, params)
            # maps 1-2 are plain, 3 maps the extrapolated point (kept or not), 4 is
            # plain from the point kept; map 5, plain from map 4, lowers the likelihood
            if len(accepted) == 4:
                return replace(new, c=3.0 * new.c)
            accepted.append(new)
            return new

        monkeypatch.setattr(em_module, "_second_lobe_update", dropping_update)
        report = fit(data, "egg", EmConfig(epsilon=1e-12, max_iters=50, restarts=1))
        assert report.converged is False
        assert report.iterations == 4
        assert report.model == accepted[-1]
        assert report.loglik == pytest.approx(log_likelihood(data, accepted[-1]), rel=1e-12)

    def test_rejected_extrapolation_keeps_the_plain_point(self, monkeypatch):
        data = ROW1.sample(np.random.default_rng(43), 5000)
        cycles = []

        def backwards(theta0, theta1, theta2):
            cycles.append((theta0, theta2))
            return theta0  # below theta2, and its map is theta1, also below theta2

        monkeypatch.setattr(em_module, "_squarem_point", backwards)
        report = fit(data, "egg", EmConfig(epsilon=1e-6, max_iters=60, restarts=1))
        (diag,) = report.diagnostics
        assert diag["extrapolations_accepted"] == 0
        assert diag["extrapolations_rejected"] == len(cycles) >= 5
        for (_, kept), (start, _) in zip(cycles, cycles[1:]):
            assert start == kept  # each cycle starts from the plain theta2
        assert np.all(np.diff(report.loglik_trace) >= 0.0)
        assert len(report.loglik_trace) == 1 + 2 * len(cycles) + (report.iterations - 3 * len(cycles))

    def test_default_fit_of_the_strong_row(self):
        # CLI defaults (epsilon 1e-6, 3 restarts); per-restart log-likelihoods
        # that plain, unaccelerated EM reaches on the same samples
        plain = [-33023.81691557181, -33023.81691557176, -33023.81691557172]
        data = condition("23.6lpm-0.22C").egg.sample(np.random.default_rng(1), 100_000)
        report = fit(data, "egg", EmConfig())
        assert report.iterations < 60
        assert report.converged
        assert np.all(np.diff(report.loglik_trace) >= -1e-9)
        assert [d["restart"] for d in report.diagnostics] == [0, 1, 2]
        for diag, ll in zip(report.diagnostics, plain):
            assert diag["converged"], diag
            assert diag["loglik"] >= ll - 1e-9 * abs(ll), diag
        chosen = report.diagnostics[report.restart_index]
        assert (chosen["loglik"], chosen["iterations"]) == (report.loglik, report.iterations)

    def test_diagnostics_name_a_degenerate_restart(self, monkeypatch):
        data = ROW1.sample(np.random.default_rng(47), 5000)
        cfg = EmConfig(epsilon=1e-3, restarts=3)
        em_once = em_module._em_once
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
        second_init = em_module._perturb(em_module._initial_params(data, "egg", cfg), rng)

        def failing_second(*args):
            # restart 1 is the chain that starts from its jittered initialization
            if args[-1] == second_init:
                raise DegenerateComponentError("no mass")
            return em_once(*args)

        monkeypatch.setattr(em_module, "_em_once", failing_second)
        report = fit(data, "egg", cfg)
        assert report.diagnostics[1] == {"restart": 1, "error": "no mass"}
        for k in (0, 2):
            diag = report.diagnostics[k]
            assert set(diag) == {"restart", "iterations", "extrapolations_accepted",
                                 "extrapolations_rejected", "converged", "loglik"}
            assert diag["restart"] == k and diag["iterations"] >= 1

    def test_restart_with_overflowing_moments_is_listed_and_skipped(self, monkeypatch):
        data = ROW1.sample(np.random.default_rng(47), 5000)
        cfg = EmConfig(epsilon=1e-3, restarts=3)
        em_once = em_module._em_once
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
        second_init = em_module._perturb(em_module._initial_params(data, "egg", cfg), rng)
        runaway = EggParams(0.5, 0.99, 7.4e10, 3.1e-4, 8.3e-6)  # E[I^n] overflows

        def runaway_second(*args):
            # restart 1 ends at the runaway model, with the highest log-likelihood
            params, resp, trace, run = em_once(*args)
            if args[-1] == second_init:
                return runaway, resp, trace + [trace[-1] + 1e3], run
            return params, resp, trace, run

        assert runaway.moment(1) == math.inf
        monkeypatch.setattr(em_module, "_em_once", runaway_second)
        report = fit(data, "egg", cfg)
        assert report.diagnostics[1] == {"restart": 1, "error": "non-finite scintillation index"}
        assert report.restart_index != 1 and report.model != runaway
        assert math.isfinite(report.scintillation_index)

    def test_restart_collapsed_to_the_exponential_lobe(self):
        # restarts 1 and 2 end at omega = 1 with a runaway GG lobe (a ~ 7e10,
        # c ~ 8e-6) whose moments overflow; they score as pure exponentials
        data = ROW1.sample(np.random.default_rng(0), 5000)
        report = fit(data, "egg", EmConfig(restarts=3))
        assert report.restart_index == 0
        assert report.loglik == pytest.approx(2966.535, abs=1e-3)

    def test_collapsed_restart_is_a_pure_exponential(self):
        # a lobe of weight 0 is left out of the moments, even where its own overflow
        assert EggParams(1.0, 0.99, 7.4e10, 3.1e-4, 8.3e-6).scintillation_index() == 1.0

    def test_concurrent_restarts_equal_a_sequential_loop(self):
        data = condition("23.6lpm-0.22C").egg.sample(np.random.default_rng(5), 20_000)
        cfg = EmConfig(epsilon=1e-4, restarts=3, seed=2)
        report = fit(data, "egg", cfg)
        base = em_module._initial_params(data, "egg", cfg)
        runs = []
        for k in range(cfg.restarts):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(k,)))
            init = base if k == 0 else em_module._perturb(base, rng)
            runs.append(em_module._em_once(data, np.log(data), cfg, init))
        best = 0  # a later restart is kept only when higher by more than the slack
        for k in range(1, cfg.restarts):
            if runs[k][2][-1] > runs[best][2][-1] + em_module.ASCENT_SLACK:
                best = k
        params, _, trace, run = runs[best]
        assert report.restart_index == best
        assert report.model == params
        assert report.loglik_trace == trace
        assert (report.iterations, report.converged) == (run["iterations"], run["converged"])
        assert report.diagnostics == [
            {"restart": k, **runs[k][3], "loglik": runs[k][2][-1]} for k in range(cfg.restarts)
        ]

    @pytest.mark.parametrize("restarts", [1, 3, 5])
    def test_pool_gives_the_floats_of_chains_run_in_turn(self, restarts, monkeypatch):
        data = condition("23.6lpm-0.22C").egg.sample(np.random.default_rng(6), 10_000)
        cfg = EmConfig(epsilon=1e-4, restarts=restarts, seed=4)
        pooled = fit(data, "egg", cfg)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InTurn)
        in_turn = fit(data, "egg", cfg)
        assert len(pooled.diagnostics) == restarts
        assert pooled.model == in_turn.model
        assert pooled.loglik_trace == in_turn.loglik_trace
        assert pooled.diagnostics == in_turn.diagnostics
        assert pooled == in_turn

    def test_pool_has_a_thread_a_restart_up_to_two_a_core(self, monkeypatch):
        asked = []

        def recording(max_workers=None):
            asked.append(max_workers)
            raise _PoolAsked  # before any thread starts

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        data = ROW1.sample(np.random.default_rng(8), 500)
        for restarts in (1, 3, 4, 5, 1000):
            with pytest.raises(_PoolAsked):
                fit(data, "egg", EmConfig(restarts=restarts))
        assert asked == [1, 3, 4, 4, 4]

    @pytest.mark.parametrize("variant", ["egg", "eg", "explognormal"])
    def test_fitted_parameters_are_python_floats(self, variant):
        data = ROW1.sample(np.random.default_rng(7), 5000)
        model = fit(data, variant, FAST).model
        assert {f.name: type(getattr(model, f.name)) for f in fields(model)} == {
            f.name: float for f in fields(model)}

    def test_restarts_within_rounding_keep_the_earliest(self, monkeypatch):
        # restart 2 ends higher than restart 0 by less, then by more, than the slack
        data = condition("23.6lpm-0.22C").egg.sample(np.random.default_rng(2), 5000)
        run = {"iterations": 1, "extrapolations_accepted": 0, "extrapolations_rejected": 0,
               "converged": True}
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InTurn)
        for gain, kept in ((0.5, 0), (2.0, 2)):
            lls = [-1689.5, -1700.0, -1689.5 + gain * em_module.ASCENT_SLACK]
            ends = iter(lls)
            monkeypatch.setattr(em_module, "_em_once", lambda samples, log_i, cfg, params: (
                params, np.full(samples.size, 0.2), [next(ends)], dict(run)))
            report = fit(data, "egg", EmConfig(restarts=3))
            assert [d["loglik"] for d in report.diagnostics] == lls
            assert report.restart_index == kept

    def test_restarts_run_under_the_callers_errstate(self, monkeypatch):
        data = ROW1.sample(np.random.default_rng(48), 5000)
        em_once = em_module._em_once
        seen = []

        def recording(*args):
            seen.append(np.geterr()["divide"])
            return em_once(*args)

        monkeypatch.setattr(em_module, "_em_once", recording)
        with np.errstate(divide="ignore"):  # the default is "warn"
            fit(data, "egg", EmConfig(epsilon=1e-3, restarts=3))
        assert seen == ["ignore"] * 3

    def test_same_floats_for_any_blas_thread_count(self):
        code = ("import numpy as np; from uwoc.em import EmConfig, fit; "
                "from uwoc.presets import condition; "
                "data = condition('23.6lpm-0.22C').egg.sample(np.random.default_rng(3), 20_000); "
                "rep = fit(data, 'egg', EmConfig(epsilon=1e-3, max_iters=20, restarts=1)); "
                "print(rep.loglik_trace, rep.model.params_dict())")
        src = os.path.dirname(os.path.dirname(os.path.abspath(em_module.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True, timeout=300)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            fit(np.ones(200), "weibull", FAST)
