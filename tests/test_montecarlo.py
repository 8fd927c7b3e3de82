import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special as sp

from uwoc import montecarlo
from uwoc.distributions import EggParams
from uwoc.montecarlo import SimConfig, simulate, simulate_ber
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
        for metric in ("outage", "capacity"):
            assert simulate([link], [metric], cfg) == simulate([link], [metric], cfg)
        assert simulate_ber(
            LinkBudget(ROW1, IMDD, db(25.0)), Modulation.ook(), cfg
        ) == simulate_ber(LinkBudget(ROW1, IMDD, db(25.0)), Modulation.ook(), cfg)

    def test_same_floats_for_any_blas_thread_count(self):
        code = ("from uwoc.montecarlo import SimConfig, simulate, simulate_ber; "
                "from uwoc.performance import IMDD, LinkBudget, Modulation; "
                "from uwoc.presets import condition; "
                "link = LinkBudget(condition('23.6lpm-0.22C').egg, IMDD, 1e3); "
                "cfg = SimConfig(n_samples=1_000_000, seed=7); "
                "print(simulate_ber(link, Modulation.ook(), cfg), "
                "simulate([link], ['capacity'], cfg)['capacity'][0])")
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
        cfgs = [SimConfig(n_samples=n, seed=3) for n in (250_000, 1_000_000)]
        (_, se1), (_, se4) = (simulate([link], ["capacity"], cfg)["capacity"][0] for cfg in cfgs)
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
        cfg = SimConfig(n_samples=3000, seed=4, chunk_size=1000)
        est, se = simulate([link], ["capacity"], cfg)["capacity"][0]
        assert len(draws) == 3
        gamma = link.mu_r * np.concatenate(draws) ** link.r
        values = np.log1p(CAPACITY_TAU * gamma)
        assert est == pytest.approx(values.mean(), rel=1e-14)
        assert se == pytest.approx(values.std() / math.sqrt(values.size), rel=1e-6)


def _grid_links():
    """Three IM/DD links of one model: 0, 20 and 40 dB, the 20 dB one at threshold 3."""
    return [LinkBudget(STRONG, IMDD, db(snr_db), gamma_th)
            for snr_db, gamma_th in ((0.0, 1.0), (20.0, 3.0), (40.0, 1.0))]


class TestOnePass:
    # float.hex of (estimate, SE) of each link and metric (BER by OOK) run alone,
    # pinned from the per-link implementation
    SINGLE_POINT = {
        (400_000, 11, 100_000): [
            [("0x1.a5d495182a993p-1", "0x1.3bc4c4517d245p-11"),
             ("0x1.9950f19b49b16p-2", "0x1.01f3f007b8520p-12"),
             ("0x1.b0d5a1a2cd25dp-3", "0x1.7e4662e821cf4p-11")],
            [("0x1.5e8f08461f9f1p-1", "0x1.812cb2d301beap-11"),
             ("0x1.fba76e71e2e35p-3", "0x1.2e958771c6054p-12"),
             ("0x1.50bbdb8cbb73ap+0", "0x1.9a1c1c63060ccp-9")],
            [("0x1.9141205bc01a4p-4", "0x1.ecd8d6f6c422bp-12"),
             ("0x1.ada7cb48f1005p-5", "0x1.7f05227fdaa46p-13"),
             ("0x1.08a0bfaa729d0p+2", "0x1.51b803d424c49p-8")],
        ],
        (3000, 4, 1000): [
            [("0x1.a76c8b4395810p-1", "0x1.c49469e8b141fp-8"),
             ("0x1.9a0e048d51416p-2", "0x1.72b9dafc7adecp-9"),
             ("0x1.ab6ba865adef7p-3", "0x1.11b68bb40d8f0p-7")],
            [("0x1.5dddddddddddep-1", "0x1.164bbf2cdff7ap-7"),
             ("0x1.facee9e3d536dp-3", "0x1.b39ed9b54ee1ap-9"),
             ("0x1.4e5ebc2540e6ap+0", "0x1.266ffa4b0ea0ap-5")],
            [("0x1.810624dd2f1aap-4", "0x1.5d2da96c82b92p-8"),
             ("0x1.9f15eee5c877fp-5", "0x1.0c4e93a944f5fp-9"),
             ("0x1.087293c3bd417p+2", "0x1.e4b626fe5a5a7p-5")],
        ],
    }
    METRICS = ("outage", "ber", "capacity")

    @pytest.mark.parametrize("budget", sorted(SINGLE_POINT))
    def test_equals_the_single_point_estimates(self, budget):
        n_samples, seed, chunk_size = budget
        cfg = SimConfig(n_samples=n_samples, seed=seed, chunk_size=chunk_size)
        links = _grid_links()
        out = simulate(links, self.METRICS, cfg, Modulation.ook())
        got = [[tuple(v.hex() for v in out[m][j]) for m in self.METRICS] for j in range(3)]
        assert got == self.SINGLE_POINT[budget]
        # each link and metric run alone reads the same pass
        assert [[tuple(v.hex() for v in simulate([link], [m], cfg, Modulation.ook())[m][0])
                 for m in self.METRICS] for link in links] == got

    @pytest.mark.parametrize("n_links", [1, 3, 7])
    def test_one_draw_per_chunk(self, n_links):
        sizes = []

        def sample(rng, size):
            sizes.append(size)
            return STRONG.sample(rng, size)

        shared = SimpleNamespace(sample=sample)
        links = [LinkBudget(STRONG, IMDD, db(5.0 * k)) for k in range(n_links)]
        for link in links:
            object.__setattr__(link, "params", shared)
        out = simulate(links, self.METRICS, SimConfig(n_samples=2500, seed=1, chunk_size=1000),
                       Modulation.ook())
        assert sizes == [1000, 1000, 500]
        assert all(len(out[m]) == n_links for m in self.METRICS)

    def test_rejects_links_of_different_models(self):
        cfg = SimConfig(n_samples=10)
        with pytest.raises(ValueError):
            simulate([LinkBudget(STRONG, IMDD, 10.0), LinkBudget(ROW1, IMDD, 10.0)], ["outage"], cfg)
        with pytest.raises(ValueError):
            simulate([LinkBudget(STRONG, IMDD, 10.0), LinkBudget(STRONG, HETERODYNE, 10.0)],
                     ["capacity"], cfg)
        with pytest.raises(ValueError):
            simulate([], ["outage"], cfg)

    def test_rejects_bad_metrics(self):
        cfg = SimConfig(n_samples=10)
        with pytest.raises(ValueError):
            simulate(_grid_links(), ["ber"], cfg)  # no modulation
        with pytest.raises(ValueError):
            simulate(_grid_links(), ["snr"], cfg)
        with pytest.raises(ValueError):
            simulate([LinkBudget(STRONG, HETERODYNE, 10.0)], ["ber"], cfg, Modulation.ook())

    def test_rejects_a_repeated_metric(self):
        # a repeat would merge each chunk into the metric's accumulator twice
        link = LinkBudget(STRONG, IMDD, db(20.0))
        cfg = SimConfig(n_samples=20_000, seed=1, chunk_size=5000)
        with pytest.raises(ValueError, match="metric 'outage' is repeated"):
            simulate([link], ["outage", "outage"], cfg)
        with pytest.raises(ValueError, match="metric 'ber' is repeated"):
            simulate([link], ("ber", "capacity", "ber"), cfg, Modulation.ook())


class _PoolAsked(Exception):
    pass


class TestLinksOnThreads:
    CASES = [("outage", IMDD, None), ("ber", IMDD, Modulation.ook()),
             ("ber", HETERODYNE, Modulation.parse("mqam:16")), ("capacity", HETERODYNE, None)]

    @pytest.mark.parametrize("metric, mode, modulation", CASES,
                             ids=["outage", "ber-ook", "ber-16qam", "capacity"])
    def test_k_links_equal_k_single_link_calls(self, metric, mode, modulation, monkeypatch):
        pools = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool on any machine
        cfg = SimConfig(n_samples=25_000, seed=9, chunk_size=10_000)
        links = [LinkBudget(STRONG, mode, db(snr_db), 3.0) for snr_db in range(0, 50, 10)]
        together = simulate(links, [metric], cfg, modulation)[metric]
        alone = [simulate([link], [metric], cfg, modulation)[metric][0] for link in links]
        assert [tuple(map(float.hex, est)) for est in together] == [
            tuple(map(float.hex, est)) for est in alone]
        assert pools == [2] + [1] * len(links)

    def test_pool_has_a_thread_a_link_up_to_a_core_and_the_cap(self, monkeypatch):
        asked = []

        def recording(max_workers):
            asked.append(max_workers)
            raise _PoolAsked  # before any thread starts

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", recording)
        cfg = SimConfig(n_samples=2000)
        for cores in (1, 2, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            for n_links in (1, 3, 7):
                links = [LinkBudget(STRONG, IMDD, db(10.0 * k)) for k in range(n_links)]
                with pytest.raises(_PoolAsked):
                    simulate(links, ["outage"], cfg)
        assert asked == [1, 1, 1, 1, 2, 2, 1, 3, 4]

    def test_tasks_run_under_the_callers_errstate(self, monkeypatch):
        kernel = montecarlo._ber_kernel
        seen = []

        def recording(gamma, modulation):
            seen.append(np.geterr()["divide"])
            return kernel(gamma, modulation)

        monkeypatch.setattr(montecarlo, "_ber_kernel", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with np.errstate(divide="ignore"):  # the default is "warn"
            simulate(_grid_links(), ["ber"], SimConfig(n_samples=2000), Modulation.ook())
        assert seen == ["ignore"] * 3


class TestOutage:
    def test_zero_threshold(self):
        link = LinkBudget(ROW1, IMDD, db(20.0), gamma_th=1e-290)
        est, se = simulate([link], ["outage"], SimConfig(n_samples=100_000, seed=0))["outage"][0]
        assert est == 0.0 and se == 0.0

    def test_fig3_marker_and_analytic(self):
        # the published simulation marker is consistent with the analytic
        # value at the campaign's 1e5-draw budget; our estimator must agree
        # with the analytic value at its own 1e7-draw standard error
        link = LinkBudget(STRONG, IMDD, db(60.0))
        analytic = snr_cdf(link, 1.0)
        cfg = SimConfig(n_samples=10_000_000, seed=42)
        est, se = simulate([link], ["outage"], cfg)["outage"][0]
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
            cfg = SimConfig(n_samples=200_000, seed=7)
            est, se = simulate([link], ["outage"], cfg)["outage"][0]
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
        est, _ = simulate([link], ["capacity"], SimConfig(n_samples=50_000, seed=1))["capacity"][0]
        assert est < 1e-6

    def test_fig7_marker_and_analytic(self):
        link = LinkBudget(ROW1, IMDD, db(30.0))
        analytic = ergodic_capacity(link)
        cfg = SimConfig(n_samples=10_000_000, seed=9)
        est, se = simulate([link], ["capacity"], cfg)["capacity"][0]
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
            cfg = SimConfig(n_samples=200_000, seed=8)
            est, se = simulate([link], ["capacity"], cfg)["capacity"][0]
            want = capacity_quadrature(link)
            assert abs(est - want) <= 3.0 * se


class TestUnbiasedness:
    def test_three_sigma_coverage(self):
        link = LinkBudget(SALTY165, IMDD, db(25.0))
        p = snr_cdf(link, 1.0)
        hits = 0
        for seed in range(100):
            cfg = SimConfig(n_samples=20_000, seed=seed)
            est, se = simulate([link], ["outage"], cfg)["outage"][0]
            if abs(est - p) <= 3.0 * max(se, binomial_se(p, 20_000)):
                hits += 1
        assert hits >= 95


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_samples=0)
        with pytest.raises(ValueError):
            SimConfig(chunk_size=0)
