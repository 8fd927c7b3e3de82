import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from uwoc.distributions import EggParams
from uwoc.errors import DataError, HistogramError, UndefinedScoreError
from uwoc.gof import Histogram, build_histogram, mse_cdf, r_square
from uwoc.presets import condition

ROW1 = condition("2.4lpm-0.05C").egg


class TestMseCdf:
    def test_zero_when_model_interpolates(self):
        samples = np.linspace(0.1, 1.0, 10)
        n = samples.size
        positions = {float(x): (i + 0.5) / n for i, x in enumerate(np.sort(samples))}
        stub = SimpleNamespace(cdf=lambda x: np.array([positions[float(v)] for v in np.atleast_1d(x)]))
        assert mse_cdf(samples, stub) == 0.0

    def test_self_fit_calibration(self):
        hits = 0
        for seed in range(10):
            data = ROW1.sample(np.random.default_rng(seed), 100_000)
            if mse_cdf(data, ROW1) < 5e-5:
                hits += 1
        assert hits >= 9

    def test_discrimination_against_wrong_model(self):
        eg = condition("2.4lpm-0.05C").eg
        for seed in (0, 1, 2):
            own = ROW1.sample(np.random.default_rng(seed), 50_000)
            other = eg.sample(np.random.default_rng(seed), 50_000)
            assert mse_cdf(other, ROW1) > mse_cdf(own, ROW1)

    def test_nonnegative(self):
        data = ROW1.sample(np.random.default_rng(5), 1000)
        assert mse_cdf(data, ROW1) >= 0.0


class TestBuildHistogram:
    def test_two_bins(self):
        hist = build_histogram([0.0, 1.0], bins=2)
        assert np.allclose(hist.bin_edges, [0.0, 0.5, 1.0])
        assert hist.counts.sum() == 2

    def test_normalization(self):
        data = np.random.default_rng(0).uniform(0.0, 3.0, 10_000)
        hist = build_histogram(data, bins=37)
        total = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_auto_rule_bounds(self):
        data = np.random.default_rng(1).exponential(1.0, 100_000)
        hist = build_histogram(data, bins="auto")
        assert 20 <= hist.n_bins <= 200

    def test_degenerate(self):
        with pytest.raises(HistogramError):
            build_histogram(np.ones(100))

    def test_invalid_construction(self):
        with pytest.raises(HistogramError):
            Histogram(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0]), np.array([1, 1]))


class TestNonFiniteSamples:
    # the index is the first bad sample in the order given, before any sort
    CASES = [([0.5, np.nan, 1.0], 1), ([0.5, np.inf], 1), ([0.9, 0.0, -np.inf, np.nan], 2)]

    @pytest.mark.parametrize("samples, index", CASES)
    def test_build_histogram(self, samples, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as info:
                build_histogram(samples)
        assert info.value.index == index

    @pytest.mark.parametrize("samples, index", CASES)
    def test_mse_cdf(self, samples, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as info:
                mse_cdf(samples, ROW1)
        assert info.value.index == index

    def test_zero_is_a_sample(self):
        assert build_histogram([0.0, 0.5, 1.0], bins=2).counts.tolist() == [1, 2]
        assert 0.0 <= mse_cdf([0.0, 0.5, 1.0], ROW1) < 1.0


class TestNegativeAndExtremeSamples:
    @pytest.mark.parametrize("samples, index", [
        ([-1.0, 0.5, 2.0], 0), ([0.5, 2.0, -1e-300, np.nan], 2), ([-1.7e308, 1.7e308], 0)])
    def test_negative_sample_is_a_data_error(self, samples, index):
        for score in (build_histogram, lambda s: mse_cdf(s, ROW1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="negative") as info:
                    score(samples)
            assert info.value.index == index

    @pytest.mark.parametrize("samples", [[0.0] * 1000 + [1.7e308], [0.0, 5e-324] * 3],
                             ids=["densities-overflow", "subnormal-span"])
    def test_span_that_cannot_be_binned(self, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HistogramError):
                build_histogram(samples)

    def test_widest_spans_still_bin(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_histogram([0.0, 1.7e308]).n_bins == 20
            # the Freedman-Diaconis ratio overflows to inf, and the count clamps to the top
            tiny_iqr = [1e-300, 2e-300, 3e-300, 4e-300, 5e-300, 1.7e308]
            assert build_histogram(tiny_iqr).n_bins == 200
            # the Freedman-Diaconis width underflows to 0 from a subnormal IQR
            subnormal_iqr = [0.0] * 50 + [5e-324] * 50 + [1.0]
            assert build_histogram(subnormal_iqr).n_bins == 200


class TestRSquare:
    def test_perfect_prediction(self):
        data = ROW1.sample(np.random.default_rng(2), 50_000)
        hist = build_histogram(data, bins=40)
        stub = SimpleNamespace(pdf=lambda x: hist.densities.copy())
        assert r_square(hist, stub) == pytest.approx(1.0)

    def test_mean_prediction_scores_zero(self):
        data = ROW1.sample(np.random.default_rng(2), 50_000)
        hist = build_histogram(data, bins=40)
        stub = SimpleNamespace(pdf=lambda x: np.full(hist.n_bins, hist.densities.mean()))
        assert r_square(hist, stub) == pytest.approx(0.0, abs=1e-12)

    def test_self_fit_row1(self):
        data = ROW1.sample(np.random.default_rng(3), 100_000)
        hist = build_histogram(data, bins=50)
        assert r_square(hist, ROW1) > 0.97

    def test_mismatch_decreases_score(self):
        data = ROW1.sample(np.random.default_rng(4), 100_000)
        hist = build_histogram(data, bins=50)
        worse = EggParams(ROW1.omega, ROW1.lam, ROW1.a, 2.0 * ROW1.b, ROW1.c)
        assert r_square(hist, worse) < r_square(hist, ROW1)

    def test_undefined_score(self):
        hist = Histogram(
            np.array([0.0, 0.5, 1.0]),
            np.array([1.0, 1.0]),
            np.array([5, 5]),
        )
        stub = SimpleNamespace(pdf=lambda x: np.ones(2))
        with pytest.raises(UndefinedScoreError):
            r_square(hist, stub)
