"""Outage probability versus normalized average SNR for several channels.

Sweeps gamma_bar / gamma_th for a weak, a moderate, and a strong turbulence
condition under IM/DD, comparing the closed form against its high-SNR
asymptote and a Monte-Carlo estimate.  Writes a plot when matplotlib is
importable, always prints the table.
"""

import numpy as np

from uwoc import IMDD, LinkBudget, SimConfig, condition, simulate
from uwoc.performance import outage, snr_cdf_asymptotic

CONDITIONS = ["2.4lpm-0.05C", "4.7lpm-0.10C", "23.6lpm-0.22C"]
SNR_DB = np.arange(0.0, 61.0, 5.0)


def main():
    curves = {}
    for label in CONDITIONS:
        egg = condition(label).egg
        links = [LinkBudget(egg, IMDD, 10.0 ** (snr_db / 10.0)) for snr_db in SNR_DB]
        exact = [outage(link) for link in links]
        asym = [snr_cdf_asymptotic(link, 1.0) for link in links]
        # one pass over the fading draws serves every SNR point
        sim = simulate(links, ["outage"], SimConfig(n_samples=200_000, seed=3))["outage"]
        curves[label] = (exact, asym, sim)

        print(f"\n{label} (sigma_I^2 = {condition(label).sigma2_egg})")
        print(f"{'snr_db':>7s} {'exact':>12s} {'asymptotic':>12s} {'simulated':>12s}")
        for snr_db, e, a, (s, _) in zip(SNR_DB, exact, asym, sim):
            print(f"{snr_db:7.0f} {e:12.4e} {a:12.4e} {s:12.4e}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not available; skipped the plot")
        return

    fig, ax = plt.subplots(figsize=(7, 5))
    for label, (exact, asym, sim) in curves.items():
        line, = ax.semilogy(SNR_DB, exact, label=label)
        ax.semilogy(SNR_DB, asym, ":", color=line.get_color())
        ax.semilogy(SNR_DB, [s for s, _ in sim], "*", color=line.get_color())
    ax.set_xlabel("normalized average SNR (dB)")
    ax.set_ylabel("outage probability")
    ax.set_ylim(1e-4, 1.0)
    ax.grid(True, which="both", alpha=0.3)
    ax.legend(title="solid: exact, dotted: high-SNR, stars: simulated")
    fig.tight_layout()
    fig.savefig("outage_curves.png", dpi=150)
    print("\nwrote outage_curves.png")


if __name__ == "__main__":
    main()
