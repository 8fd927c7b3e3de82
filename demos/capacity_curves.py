"""Ergodic capacity across turbulence strengths, with the moments asymptote.

Shows how the capacity curves separate as the scintillation index grows, and
how quickly the elementary-function high-SNR approximation becomes exact.
"""

import numpy as np

from uwoc import IMDD, LinkBudget, SimConfig, condition, simulate
from uwoc.performance import capacity_asymptotic, ergodic_capacity

CONDITIONS = ["2.4lpm-0.05C", "4.7lpm-0.05C", "16.5lpm-0.22C", "23.6lpm-0.22C"]
SNR_DB = np.arange(0.0, 61.0, 10.0)


def main():
    for label in CONDITIONS:
        cond = condition(label)
        print(f"\n{label} (sigma_I^2 = {cond.sigma2_egg})")
        print(f"{'snr_db':>7s} {'exact':>10s} {'asymptote':>10s} {'simulated':>10s}")
        links = [LinkBudget(cond.egg, IMDD, 10.0 ** (snr_db / 10.0)) for snr_db in SNR_DB]
        sims = simulate(links, ["capacity"], SimConfig(n_samples=200_000, seed=5))["capacity"]
        for snr_db, link, (sim, _) in zip(SNR_DB, links, sims):
            exact = ergodic_capacity(link)
            asym = capacity_asymptotic(link)
            print(f"{snr_db:7.0f} {exact:10.4f} {asym:10.4f} {sim:10.4f}")

    print("\nnats per channel use; the asymptote is useless at low SNR (it goes")
    print("negative) but is within ~0.01 nats beyond roughly 40 dB")


if __name__ == "__main__":
    main()
