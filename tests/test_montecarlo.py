import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special as sp

from uwoc import montecarlo
from uwoc.distributions import EggParams
from uwoc.montecarlo import SimConfig, simulate_ber, simulate_capacity, simulate_outage
from uwoc.performance import (
    CAPACITY_TAU,
    HETERODYNE,
    IMDD,
    LinkBudget,
    Modulation,
    avg_ber_quadrature,
    capacity_quadrature,
    ergodic_capacity,
    snr_cdf,
)
from uwoc.presets import condition

ROW1 = condition("2.4lpm-0.05C").egg
STRONG = condition("23.6lpm-0.22C").egg
SALTY165 = condition("salty-16.5lpm").egg


def db(x):
    return 10.0 ** (x / 10.0)


def binomial_se(p, n):
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


class TestDeterminism:
    def test_bit_identical_runs(self):
        link = LinkBudget(ROW1, IMDD, db(25.0))
        cfg = SimConfig(n_samples=400_000, seed=11, chunk_size=100_000)
        assert simulate_outage(link, cfg) == simulate_outage(link, cfg)
        assert simulate_capacity(link, cfg) == simulate_capacity(link, cfg)
        assert simulate_ber(
            LinkBudget(ROW1, IMDD, db(25.0)), Modulation.ook(), cfg
        ) == simulate_ber(LinkBudget(ROW1, IMDD, db(25.0)), Modulation.ook(), cfg)

    def test_same_floats_for_any_blas_thread_count(self):
        code = ("from uwoc.montecarlo import SimConfig, simulate_ber, simulate_capacity; "
                "from uwoc.performance import IMDD, LinkBudget, Modulation; "
                "from uwoc.presets import condition; "
                "link = LinkBudget(condition('23.6lpm-0.22C').egg, IMDD, 1e3); "
                "cfg = SimConfig(n_samples=1_000_000, seed=7); "
                "print(simulate_ber(link, Modulation.ook(), cfg), simulate_capacity(link, cfg))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(montecarlo.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True, timeout=300)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_se_scaling(self):
        link = LinkBudget(STRONG, IMDD, db(20.0))
        _, se1 = simulate_capacity(link, SimConfig(n_samples=250_000, seed=3))
        _, se4 = simulate_capacity(link, SimConfig(n_samples=1_000_000, seed=3))
        assert se4 == pytest.approx(0.5 * se1, rel=0.10)


class TestChunkMerge:
    def test_small_variance_matches_two_pass(self):
        # values 1 + 1e-9 jitter: a sum-of-squares variance cancels to 0 here
        draws = []

        def sample(rng, size):
            draws.append(1.0 + 1e-9 * rng.standard_normal(size))
            return draws[-1]

        link = LinkBudget(ROW1, IMDD, db(20.0))
        object.__setattr__(link, "params", SimpleNamespace(sample=sample))
        est, se = simulate_capacity(link, SimConfig(n_samples=3000, seed=4, chunk_size=1000))
        assert len(draws) == 3
        gamma = link.mu_r * np.concatenate(draws) ** link.r
        values = np.log1p(CAPACITY_TAU * gamma)
        assert est == pytest.approx(values.mean(), rel=1e-14)
        assert se == pytest.approx(values.std() / math.sqrt(values.size), rel=1e-6)


class TestOutage:
    def test_zero_threshold(self):
        link = LinkBudget(ROW1, IMDD, db(20.0), gamma_th=1e-290)
        est, se = simulate_outage(link, SimConfig(n_samples=100_000, seed=0))
        assert est == 0.0 and se == 0.0

    def test_fig3_marker_and_analytic(self):
        # the published simulation marker is consistent with the analytic
        # value at the campaign's 1e5-draw budget; our estimator must agree
        # with the analytic value at its own 1e7-draw standard error
        link = LinkBudget(STRONG, IMDD, db(60.0))
        analytic = snr_cdf(link, 1.0)
        est, se = simulate_outage(link, SimConfig(n_samples=10_000_000, seed=42))
        assert abs(est - analytic) <= 3.0 * max(se, binomial_se(analytic, 10_000_000))
        marker = 1.059700e-2
        assert abs(marker - analytic) <= 3.0 * binomial_se(analytic, 100_000)

    def test_oracle_agreement_random_links(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            params = EggParams(
                float(rng.uniform(0.05, 0.9)),
                float(rng.uniform(0.1, 1.0)),
                float(rng.uniform(0.3, 5.0)),
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.5, 60.0)),
            )
            mode = IMDD if rng.random() < 0.5 else HETERODYNE
            link = LinkBudget(params, mode, db(float(rng.uniform(5.0, 35.0))))
            est, se = simulate_outage(link, SimConfig(n_samples=200_000, seed=7))
            p = snr_cdf(link, 1.0)
            assert abs(est - p) <= 3.0 * max(se, binomial_se(p, 200_000)) + 1e-12


class TestBer:
    def test_single_atom_distribution_gives_kernel(self):
        atom = SimpleNamespace(sample=lambda rng, size: np.full(size, 0.8))
        link = LinkBudget(ROW1, IMDD, db(20.0))
        object.__setattr__(link, "params", atom)
        est, se = simulate_ber(link, Modulation.ook(), SimConfig(n_samples=1000, seed=0))
        gamma = link.mu_r * 0.8**2
        want = 0.5 * sp.gammaincc(0.5, 0.25 * gamma)
        assert est == pytest.approx(want, rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_fig5_marker_and_analytic(self):
        link = LinkBudget(SALTY165, IMDD, db(40.0))
        analytic = avg_ber_quadrature(link, Modulation.ook())
        est, se = simulate_ber(link, Modulation.ook(), SimConfig(n_samples=10_000_000, seed=5))
        assert abs(est - analytic) <= 3.0 * se
        marker = 2.682906e-2
        se_campaign = se * math.sqrt(10_000_000 / 100_000)
        assert abs(marker - analytic) <= 3.0 * se_campaign

    def test_agreement_across_snr_grid(self):
        cfg = SimConfig(n_samples=300_000, seed=21)
        for snr_db in np.linspace(5.0, 50.0, 10):
            link = LinkBudget(SALTY165, IMDD, db(snr_db))
            est, se = simulate_ber(link, Modulation.ook(), cfg)
            want = avg_ber_quadrature(link, Modulation.ook())
            assert abs(est - want) <= 3.0 * se + 1e-12

    def test_compatibility_enforced(self):
        link = LinkBudget(ROW1, HETERODYNE, 100.0)
        with pytest.raises(ValueError):
            simulate_ber(link, Modulation.ook(), SimConfig(n_samples=10))


class TestCapacity:
    def test_low_snr_limit(self):
        link = LinkBudget(ROW1, IMDD, 1e-10)
        est, _ = simulate_capacity(link, SimConfig(n_samples=50_000, seed=1))
        assert est < 1e-6

    def test_fig7_marker_and_analytic(self):
        link = LinkBudget(ROW1, IMDD, db(30.0))
        analytic = ergodic_capacity(link)
        est, se = simulate_capacity(link, SimConfig(n_samples=10_000_000, seed=9))
        assert abs(est - analytic) <= 3.0 * se
        marker = 5.564598
        se_campaign = se * math.sqrt(10_000_000 / 100_000)
        assert abs(marker - analytic) <= 3.0 * se_campaign

    def test_oracle_agreement_random_links(self):
        rng = np.random.default_rng(1414)
        for _ in range(20):
            params = EggParams(
                float(rng.uniform(0.05, 0.9)),
                float(rng.uniform(0.1, 1.0)),
                float(rng.uniform(0.3, 5.0)),
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.5, 60.0)),
            )
            mode = IMDD if rng.random() < 0.5 else HETERODYNE
            link = LinkBudget(params, mode, db(float(rng.uniform(5.0, 35.0))))
            est, se = simulate_capacity(link, SimConfig(n_samples=200_000, seed=8))
            want = capacity_quadrature(link)
            assert abs(est - want) <= 3.0 * se


class TestUnbiasedness:
    def test_three_sigma_coverage(self):
        link = LinkBudget(SALTY165, IMDD, db(25.0))
        p = snr_cdf(link, 1.0)
        hits = 0
        for seed in range(100):
            est, se = simulate_outage(link, SimConfig(n_samples=20_000, seed=seed))
            if abs(est - p) <= 3.0 * max(se, binomial_se(p, 20_000)):
                hits += 1
        assert hits >= 95


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_samples=0)
        with pytest.raises(ValueError):
            SimConfig(chunk_size=0)
