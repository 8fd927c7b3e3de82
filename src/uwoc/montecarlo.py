"""Monte-Carlo estimators for the link metrics, the simulation oracle.

Draws fading realizations in fixed-size chunks, each from an independent
substream keyed by (seed, chunk index).  One draw of a chunk serves every SNR
point and metric of a call; the points' statistics of a chunk are computed on
a thread pool of one thread per core, up to ``_MAX_THREADS``, and the
chunks' means and squared deviations merge in chunk order, so each estimate
is bit-identical to a run of its point alone, however the chunks and points
are executed.

The BER estimator averages the conditional error probability of each draw
(the kernel the analytic expression integrates) instead of simulating bit
decisions, which removes the noise-realization variance entirely.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import check_integer
from .performance import (
    CAPACITY_TAU,
    LinkBudget,
    Modulation,
    _check_compat,
    modulation_params,
)
from .special import sp

# A running task holds up to three chunk-sized arrays (gamma and two
# temporaries of the BER kernel, 8 MB each at the default chunk), so the cap
# bounds the pool's memory on any core count.
_MAX_THREADS = 4


@dataclass(frozen=True)
class SimConfig:
    """Sample budget, seed, and chunking of a simulation run."""

    n_samples: int = 1_000_000
    seed: int = 0
    chunk_size: int = 1_000_000

    def __post_init__(self):
        check_integer(1, n_samples=self.n_samples, chunk_size=self.chunk_size)
        check_integer(0, seed=self.seed)


def _chunk_sizes(cfg: SimConfig):
    full, rest = divmod(cfg.n_samples, cfg.chunk_size)
    return [cfg.chunk_size] * full + ([rest] if rest else [])


def _chunk_rng(cfg: SimConfig, index):
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))


def simulate(links, metrics, cfg: SimConfig = SimConfig(), modulation: Modulation | None = None):
    """Mean and SE of each metric at each link, from one pass over the draws.

    The links share ``params`` and ``r``; ``metrics`` are among "outage",
    "ber" (with ``modulation``) and "capacity", each at most once (else
    ValueError).  Each chunk is drawn and raised to I^r once.  Each link's
    chunk statistics are computed on a pool of
    ``min(len(links), cpu_count, _MAX_THREADS)`` threads, each task in a copy
    of the caller's context (so it keeps ``np.errstate``), and merge in link
    order, each (metric, link) into its own accumulator by Chan's parallel
    update of (n, mean, M2), which keeps the variance exact when it is small
    against the squared mean.
    Returns {metric: [(mean, se) of each link]}.
    """
    stats = {
        "outage": lambda link, g: (g < link.gamma_th).astype(float),
        "ber": lambda link, g: _ber_kernel(g, modulation),
        "capacity": lambda link, g: np.log1p(CAPACITY_TAU * g),
    }
    if not links or any(link.params != links[0].params or link.r != links[0].r for link in links):
        raise ValueError("simulate needs one or more links with the same params and r")
    if not set(metrics) <= set(stats) or ("ber" in metrics and modulation is None):
        raise ValueError(f"metrics must be among {sorted(stats)}, ber with a modulation: {metrics!r}")
    repeated = [metric for k, metric in enumerate(metrics) if metric in metrics[:k]]
    if repeated:
        raise ValueError(f"metric {repeated[0]!r} is repeated in {metrics!r}")
    for link in links if "ber" in metrics else ():
        _check_compat(link, modulation)

    def chunk_stats(link, x):
        """(mean, sum of squared deviations) of each metric over one chunk at ``link``."""
        gamma = link.mu_r * x
        out = []
        for metric in metrics:
            values = stats[metric](link, gamma)
            chunk_mean = float(values.mean())
            values -= chunk_mean  # each stat returns a new array
            # a fixed-order sum: np.dot's order depends on the BLAS thread count
            out.append((chunk_mean, float(np.einsum("i,i->", values, values))))
        return out

    n = 0
    acc = {(metric, j): (0.0, 0.0) for metric in metrics for j in range(len(links))}
    with ThreadPoolExecutor(min(len(links), os.cpu_count() or 1, _MAX_THREADS)) as pool:
        for index, size in enumerate(_chunk_sizes(cfg)):
            x = links[0].params.sample(_chunk_rng(cfg, index), size) ** links[0].r
            # each task runs in a copy of the caller's context, which carries np.errstate
            tasks = [pool.submit(contextvars.copy_context().run, chunk_stats, link, x)
                     for link in links]
            per_link = [task.result() for task in tasks]
            total = n + size
            for j, link_stats in enumerate(per_link):
                for metric, (chunk_mean, squares) in zip(metrics, link_stats):
                    mean, m2 = acc[metric, j]
                    delta = chunk_mean - mean
                    mean += delta * (size / total)
                    m2 += squares + delta * delta * n * size / total
                    acc[metric, j] = mean, m2
            n = total
    return {metric: [(acc[metric, j][0], math.sqrt(acc[metric, j][1] / n / n))
                     for j in range(len(links))] for metric in metrics}


def _ber_kernel(gamma, modulation):
    """Conditional BER of each draw; p = 1/2 for every scheme, so Gamma(p, x)/Gamma(p) = erfc(sqrt(x))."""
    delta, _, q, _ = modulation_params(modulation)
    return 0.5 * delta * sum(sp.erfc(np.sqrt(qk * gamma)) for qk in q)


def simulate_ber(link: LinkBudget, modulation: Modulation, cfg: SimConfig = SimConfig()):
    """Average of the conditional BER kernel over fading draws, with its SE."""
    return simulate([link], ["ber"], cfg, modulation)["ber"][0]

