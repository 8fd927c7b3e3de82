"""Acceptance gate: reproduction targets, round trips, and oracle agreement.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces both the numeric tolerances and the runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy import special as sp

from uwoc.distributions import EggParams
from uwoc.em import EmConfig, fit
from uwoc.gof import build_histogram, mse_cdf, r_square
from uwoc.montecarlo import SimConfig, simulate_ber, simulate_capacity, simulate_outage
from uwoc.performance import (
    HETERODYNE,
    IMDD,
    LinkBudget,
    Modulation,
    _avg_ber_foxh,
    _capacity_foxh,
    avg_ber_asymptotic,
    avg_ber_quadrature,
    capacity_asymptotic,
    capacity_quadrature,
    ergodic_capacity,
    outage,
    snr_cdf,
    snr_cdf_asymptotic,
    snr_pdf,
)
from uwoc.presets import ALL_CONDITIONS, condition
from uwoc.special import FoxHSpec, QuadratureConfig, adaptive_quad, fox_h

pytestmark = pytest.mark.acceptance

ROW1 = condition("2.4lpm-0.05C").egg
STRONG = condition("23.6lpm-0.22C").egg
SALTY165 = condition("salty-16.5lpm").egg


def db(x):
    return 10.0 ** (x / 10.0)


def report(name, budget_s, started, failures):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name} ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    for item in failures:
        print(f"       - {item}")
    assert not failures, failures
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeds {budget_s}s budget"


def rel_gap(x, y):
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0 else 0.0


def test_criterion_1_scintillation_tables():
    """All 18 fitted parameter rows reproduce the tabulated scintillation index."""
    t0 = time.perf_counter()
    failures = []
    for cond in ALL_CONDITIONS:
        si = cond.egg.scintillation_index()
        if rel_gap(si, cond.sigma2_egg) > 0.005:
            failures.append(f"{cond.label}: {si:.6g} vs {cond.sigma2_egg:.6g}")
    report("criterion 1: scintillation-index reproduction (18 rows, 0.5%)", 1.0, t0, failures)


def test_criterion_2_outage_reproduction():
    """Strong-turbulence outage curve values and high-SNR asymptote."""
    t0 = time.perf_counter()
    failures = []
    anchors = [(40.0, 9.7245e-2), (50.0, 3.2424e-2), (60.0, 1.0493e-2)]
    for snr_db, want in anchors:
        got = outage(LinkBudget(STRONG, IMDD, db(snr_db)))
        if rel_gap(got, want) > 0.05:
            failures.append(f"exact @{snr_db:.0f} dB: {got:.6e} vs {want:.6e}")
    asym = snr_cdf_asymptotic(LinkBudget(STRONG, IMDD, db(60.0)), 1.0)
    if rel_gap(asym, 1.0564e-2) > 0.01:
        failures.append(f"asymptotic @60 dB: {asym:.6e} vs 1.0564e-2")
    report("criterion 2: outage reproduction (IM/DD strong turbulence)", 1.0, t0, failures)


def test_criterion_3_ook_ber_reproduction():
    """OOK / IM/DD BER curve values for the salty 16.5 L/min channel."""
    t0 = time.perf_counter()
    failures = []
    ook = Modulation.ook()
    for snr_db, want in [(30.0, 7.2096e-2), (40.0, 2.7007e-2), (50.0, 9.0453e-3)]:
        got = avg_ber_quadrature(LinkBudget(SALTY165, IMDD, db(snr_db)), ook)
        if rel_gap(got, want) > 0.05:
            failures.append(f"exact @{snr_db:.0f} dB: {got:.6e} vs {want:.6e}")
    asym = avg_ber_asymptotic(LinkBudget(SALTY165, IMDD, db(60.0)), ook)
    if rel_gap(asym, 2.9395e-3) > 0.02:
        failures.append(f"asymptotic @60 dB: {asym:.6e} vs 2.9395e-3")
    report("criterion 3: BER reproduction (OOK, IM/DD)", 10.0, t0, failures)


def test_criterion_4_heterodyne_ber_reproduction():
    """Heterodyne BER under strong turbulence: BPSK asymptote and QAM/PSK order."""
    t0 = time.perf_counter()
    failures = []
    asym = avg_ber_asymptotic(LinkBudget(STRONG, HETERODYNE, db(60.0)), Modulation.bpsk())
    if rel_gap(asym, 1.4925e-6) > 0.03:
        failures.append(f"BPSK asymptotic @60 dB: {asym:.6e} vs 1.4925e-6")
    for snr_db in np.arange(10.0, 61.0, 5.0):
        link = LinkBudget(STRONG, HETERODYNE, db(snr_db))
        qam = avg_ber_quadrature(link, Modulation.mqam(16))
        psk = avg_ber_quadrature(link, Modulation.mpsk(16))
        if not qam < psk:
            failures.append(f"16-QAM !< 16-PSK @{snr_db:.0f} dB ({qam:.3e} vs {psk:.3e})")
    report("criterion 4: BER reproduction (heterodyne, strong turbulence)", 10.0, t0, failures)


def test_criterion_5_capacity_reproduction():
    """IM/DD ergodic capacity value and moments-based asymptote."""
    t0 = time.perf_counter()
    failures = []
    got = ergodic_capacity(LinkBudget(ROW1, IMDD, db(30.0)))
    if rel_gap(got, 5.5631) > 0.01:
        failures.append(f"exact @30 dB: {got:.6f} vs 5.5631")
    asym = capacity_asymptotic(LinkBudget(ROW1, IMDD, db(60.0)))
    if rel_gap(asym, 12.3799) > 0.002:
        failures.append(f"asymptotic @60 dB: {asym:.6f} vs 12.3799")
    report("criterion 5: capacity reproduction (IM/DD)", 5.0, t0, failures)


def test_criterion_6_em_round_trip():
    """Synthesize-and-refit recovery across the turbulence range, 10 seeds each."""
    t0 = time.perf_counter()
    failures = []
    rows = ["2.4lpm-0.05C", "2.4lpm-0.20C", "salty-16.5lpm", "16.5lpm-0.22C", "23.6lpm-0.22C"]
    for label in rows:
        truth = condition(label).egg
        si_true = truth.scintillation_index()
        for seed in range(10):
            data = truth.sample(np.random.default_rng(seed), 100_000)
            rep = fit(data, "egg", EmConfig(epsilon=1e-3, max_iters=300, restarts=1, seed=seed))
            if abs(rep.model.omega - truth.omega) > 0.03:
                failures.append(f"{label} seed {seed}: omega {rep.model.omega:.4f}")
            if rel_gap(rep.scintillation_index, si_true) > 0.05:
                failures.append(f"{label} seed {seed}: si {rep.scintillation_index:.4f}")
            if np.any(np.diff(rep.loglik_trace) < -1e-9):
                failures.append(f"{label} seed {seed}: log-likelihood decreased")
    report("criterion 6: EM round trip (5 rows x 10 seeds)", 120.0, t0, failures)


def test_criterion_7_gof_calibration():
    """Self-fit score levels over 100 trials, and strict degradation under mismatch."""
    t0 = time.perf_counter()
    failures = []
    worse = EggParams(ROW1.omega, ROW1.lam, ROW1.a, 2.0 * ROW1.b, ROW1.c)
    hits = 0
    for seed in range(100):
        data = ROW1.sample(np.random.default_rng(seed), 100_000)
        hist = build_histogram(data, bins=50)
        r2 = r_square(hist, ROW1)
        mse = mse_cdf(data, ROW1)
        if r2 > 0.97 and mse < 5e-5:
            hits += 1
        if not (r_square(hist, worse) < r2 and mse_cdf(data, worse) > mse):
            failures.append(f"seed {seed}: doubling b did not degrade both scores")
    if hits < 95:
        failures.append(f"self-fit calibration met in only {hits}/100 trials")
    report("criterion 7: goodness-of-fit calibration (100 trials)", 120.0, t0, failures)


def test_criterion_8_oracle_triangle():
    """Closed forms, quadrature, and Monte Carlo agree for every table row."""
    t0 = time.perf_counter()
    failures = []
    ook = Modulation.ook()
    n_mc = 10_000_000
    for cond in ALL_CONDITIONS:
        egg = cond.egg
        for snr_db in (10.0, 30.0, 50.0):
            link = LinkBudget(egg, IMDD, db(snr_db))
            tag = f"{cond.label}@{snr_db:.0f}dB"

            p_formula = snr_cdf(link, 1.0)
            p_quad = _outage_quadrature(link)
            if abs(p_formula - p_quad) > 1e-6 * max(p_formula, p_quad) + 1e-250:
                failures.append(f"{tag} outage formula/quad: {p_formula:.6e} vs {p_quad:.6e}")

            b_formula = _avg_ber_foxh(link, ook)
            b_quad = avg_ber_quadrature(link, ook)
            if abs(b_formula - b_quad) > 1e-6 * max(b_formula, b_quad) + 1e-20:
                failures.append(f"{tag} BER formula/quad: {b_formula:.6e} vs {b_quad:.6e}")

            c_formula = _capacity_foxh(link)
            c_quad = capacity_quadrature(link)
            if abs(c_formula - c_quad) > 1e-6 * max(abs(c_formula), abs(c_quad)):
                failures.append(f"{tag} capacity formula/quad: {c_formula:.6e} vs {c_quad:.6e}")

            cfg = SimConfig(n_samples=n_mc, seed=1234)
            est, se = simulate_outage(link, cfg)
            se_floor = math.sqrt(max(p_formula * (1 - p_formula), 0.0) / n_mc)
            if abs(est - p_formula) > 3.0 * max(se, se_floor) + 1e-250:
                failures.append(f"{tag} outage MC: {est:.6e} vs {p_formula:.6e} (se {se:.2e})")
            est, se = simulate_ber(link, ook, cfg)
            if abs(est - b_quad) > 3.0 * se + 1e-12:
                failures.append(f"{tag} BER MC: {est:.6e} vs {b_quad:.6e} (se {se:.2e})")
            est, se = simulate_capacity(link, cfg)
            if abs(est - c_quad) > 3.0 * se + 1e-12:
                failures.append(f"{tag} capacity MC: {est:.6e} vs {c_quad:.6e} (se {se:.2e})")
    report("criterion 8: oracle triangle (18 rows x 3 SNRs, 1e7 draws)", 600.0, t0, failures)


def _outage_quadrature(link):
    """CDF at the threshold by integrating the SNR density (independent route)."""
    cfg = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-9, max_subdivisions=600)
    th = link.gamma_th
    p = link.params
    points = []
    for scale in (p.lam, p.b):
        g = (scale ** link.r) * link.mu_r
        if 0.0 < g < th:
            points.append(g)
    return adaptive_quad(lambda g: snr_pdf(link, g), 1e-300, th, cfg, points=points or None)


def test_criterion_9_identity_suite():
    """Normalization, CDF consistency, shape-one equivalence, Fox H reductions,
    and asymptote convergence probes."""
    t0 = time.perf_counter()
    failures = []
    quad_cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=400)

    for cond in ALL_CONDITIONS:
        egg = cond.egg
        points = [egg.lam, egg.b]
        split = 4.0 * max(points)
        total = adaptive_quad(lambda i: egg.pdf(i), 1e-300, split, quad_cfg, points=points)
        total += adaptive_quad(lambda i: egg.pdf(i), split, math.inf, quad_cfg)
        if abs(total - 1.0) > 1e-8:
            failures.append(f"{cond.label}: pdf integrates to {total!r}")

        upper = egg.moment(1) + 6.0 * math.sqrt(max(egg.moment(2) - egg.moment(1) ** 2, 1e-12))
        for x in np.linspace(upper / 50.0, upper, 50):
            want = adaptive_quad(lambda i: egg.pdf(i), 1e-300, x, quad_cfg,
                                 points=[q for q in points if q < x] or None)
            if abs(egg.cdf(x) - want) > 1e-7:
                failures.append(f"{cond.label}: cdf({x:.3g}) off by {abs(egg.cdf(x) - want):.2e}")
                break

        eg = cond.eg
        as_egg = eg.as_egg()
        grid = np.logspace(-3, 1, 40)
        if not np.allclose(as_egg.pdf(grid), eg.pdf(grid), rtol=1e-12, atol=0.0):
            failures.append(f"{cond.label}: shape-one pdf equivalence")
        if not np.allclose(as_egg.cdf(grid), eg.cdf(grid), rtol=1e-12, atol=1e-300):
            failures.append(f"{cond.label}: shape-one cdf equivalence")

    foxh_cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=80)
    for a in (0.35, 1.7):
        spec1 = FoxHSpec(m=1, n=0, p=0, q=1, lower_params=((a, 1.0),))
        spec2 = FoxHSpec(m=1, n=1, p=1, q=2, upper_params=((1.0, 1.0),),
                         lower_params=((a, 1.0), (0.0, 1.0)))
        for z in np.logspace(-3, 2, 9):
            want1 = z**a * math.exp(-z)
            if rel_gap(fox_h(spec1, z, foxh_cfg), want1) > 1e-9:
                failures.append(f"fox_h exp reduction a={a} z={z:.3g}")
            want2 = sp.gammainc(a, z) * math.gamma(a)
            if rel_gap(fox_h(spec2, z, foxh_cfg), want2) > 1e-9:
                failures.append(f"fox_h inc-gamma reduction a={a} z={z:.3g}")

    # high-SNR convergence probes at 80 dB
    link = LinkBudget(STRONG, IMDD, db(80.0))
    if abs(snr_cdf_asymptotic(link, 1.0) / snr_cdf(link, 1.0) - 1.0) > 0.005:
        failures.append("outage asymptote ratio at 80 dB")
    if abs(avg_ber_asymptotic(link, Modulation.ook())
           / avg_ber_quadrature(link, Modulation.ook()) - 1.0) > 0.01:
        failures.append("BER asymptote ratio at 80 dB")
    link70 = LinkBudget(ROW1, IMDD, db(70.0))
    if abs(capacity_quadrature(link70) - capacity_asymptotic(link70)) > 0.02:
        failures.append("capacity asymptote gap at 70 dB")
    report("criterion 9: identity suite", 60.0, t0, failures)
