"""Monte-Carlo estimators for the link metrics, the simulation oracle.

Draws fading realizations in fixed-size chunks, each from an independent
substream keyed by (seed, chunk index), and merges the chunks' means and
squared deviations in chunk order, so estimates are bit-identical for a
given configuration regardless of how the chunks are executed.

The BER estimator averages the conditional error probability of each draw
(the kernel the analytic expression integrates) instead of simulating bit
decisions, which removes the noise-realization variance entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .performance import (
    CAPACITY_TAU,
    LinkBudget,
    Modulation,
    _check_compat,
    modulation_params,
)

__all__ = ["SimConfig", "simulate_outage", "simulate_ber", "simulate_capacity"]


@dataclass(frozen=True)
class SimConfig:
    """Sample budget, seed, and chunking of a simulation run."""

    n_samples: int = 1_000_000
    seed: int = 0
    chunk_size: int = 1_000_000

    def __post_init__(self):
        if self.n_samples < 1 or self.chunk_size < 1:
            raise ValueError("n_samples and chunk_size must be >= 1")


def _chunk_sizes(cfg: SimConfig):
    full, rest = divmod(cfg.n_samples, cfg.chunk_size)
    return [cfg.chunk_size] * full + ([rest] if rest else [])


def _chunk_rng(cfg: SimConfig, index):
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))


def _accumulate(link: LinkBudget, cfg: SimConfig, stat):
    """Mean of stat(gamma_draws) over all chunks, with its standard error.

    Chunks merge by Chan's parallel update of (n, mean, M2), which keeps the
    variance exact when it is small against the squared mean.
    """
    r, mu = link.r, link.mu_r
    n = 0
    mean = 0.0
    m2 = 0.0
    for index, size in enumerate(_chunk_sizes(cfg)):
        rng = _chunk_rng(cfg, index)
        gamma = mu * link.params.sample(rng, size) ** r
        values = stat(gamma)
        chunk_mean = float(values.mean())
        centred = values - chunk_mean
        delta = chunk_mean - mean
        total = n + size
        mean += delta * (size / total)
        # a fixed-order sum: np.dot's order depends on the BLAS thread count
        m2 += float(np.einsum("i,i->", centred, centred)) + delta * delta * n * size / total
        n = total
    se = math.sqrt(m2 / n / n)
    return mean, se


def simulate_outage(link: LinkBudget, cfg: SimConfig = SimConfig()):
    """Fraction of draws with gamma below the link threshold, with its SE."""
    th = link.gamma_th
    return _accumulate(link, cfg, lambda g: (g < th).astype(float))


def simulate_ber(link: LinkBudget, modulation: Modulation, cfg: SimConfig = SimConfig()):
    """Average of the conditional BER kernel over fading draws, with its SE."""
    _check_compat(link, modulation)
    delta, _, q, _ = modulation_params(modulation)

    def stat(gamma):
        acc = np.zeros_like(gamma)
        for qk in q:
            # p = 1/2 for every scheme, and Gamma(1/2, x) / Gamma(1/2) = erfc(sqrt(x))
            acc += sp.erfc(np.sqrt(qk * gamma))
        return 0.5 * delta * acc

    return _accumulate(link, cfg, stat)


def simulate_capacity(link: LinkBudget, cfg: SimConfig = SimConfig()):
    """Mean of ln(1 + tau gamma) over fading draws, with its SE."""
    return _accumulate(link, cfg, lambda g: np.log1p(CAPACITY_TAU * g))
