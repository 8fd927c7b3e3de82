"""Regenerate the high-precision reference table for the ``curves`` grid.

Every point of the grid (18 preset rows x SNR -10..80 dB x seven metric
kinds) is computed with mpmath at ``DPS`` significant digits straight from
the model definitions, without calling any route of ``uwoc.performance``:

* outage: the mixture CDF at the threshold, once from mpmath's regularized
  incomplete gamma and once by integrating the Gamma density in log space;
* average BER and ergodic capacity: the expectation of the conditional
  kernel over each lobe, written as an integral over t = ln U with
  U ~ Gamma(a, 1) and I = b U^(1/c) (the exponential lobe is a = c = 1,
  b = lambda).  The log-integrand is concave in t, so the integral is split
  at the points where it has fallen by fixed amounts below its maximum,
  and the tails beyond the last split are bounded by concavity.

Each value is computed twice, with two different splittings and two
different quadrature rules (tanh-sinh and Gauss-Legendre).  A value is
certified when both agree to ``AGREE_RTOL`` and both tail bounds are
negligible; otherwise the point is stored uncertified and the benchmark
only checks that the program's value is finite and in range.

Lobes whose weight is below 1e-12 are left out, as the package's model
documents (``WEIGHT_EPS``); the SNR and parameters are the float values the
package receives, converted exactly.

Run from the repository root (takes tens of minutes on one core):

    PYTHONPATH=src python3 perfbench/reference/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath as mp

from uwoc.presets import ALL_CONDITIONS

DPS = 32
AGREE_RTOL_TEXT = "1e-20"
AGREE_RTOL = mp.mpf(AGREE_RTOL_TEXT)
TAIL_RTOL = mp.mpf("1e-40")
WEIGHT_EPS = 1e-12
SNR_DB = tuple(range(-10, 81, 10))
LEVELS_A = (0.5, 2, 5, 10, 20, 40, 70, 110, 160, 200)
LEVELS_B = (0.25, 1, 3.5, 8, 16, 30, 55, 90, 135, 180, 210)

# (detection r, metric, modulation label) in grid order
KINDS = (
    (2, "outage", None),
    (2, "ber", "ook"),
    (2, "capacity", None),
    (1, "ber", "bpsk"),
    (1, "ber", "mqam:16"),
    (1, "ber", "mpsk:8"),
    (1, "capacity", None),
)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "curves_reference.json")


def ber_terms(label):
    """(delta, q list) of the p = 1/2 BER kernel, from the modulation's definition."""
    if label == "ook":
        return mp.mpf(1), [mp.mpf("0.25")]
    if label == "bpsk":
        return mp.mpf(1), [mp.mpf(1)]
    scheme, m = label.split(":")
    m = int(m)
    if scheme == "mpsk":
        n = max(m // 4, 1)
        delta = 2 / max(mp.log(m, 2), 2)
        return delta, [mp.sin((2 * k - 1) * mp.pi / m) ** 2 for k in range(1, n + 1)]
    n = int(mp.nint(mp.sqrt(m))) // 2
    delta = (4 / mp.log(m, 2)) * (1 - 1 / mp.sqrt(m))
    return delta, [3 * mp.mpf(2 * k - 1) ** 2 / (2 * (m - 1)) for k in range(1, n + 1)]


def lobes(p):
    """(weight, a, b, c) of each lobe that the model keeps."""
    out = []
    if p.omega >= WEIGHT_EPS:
        out.append((mp.mpf(p.omega), mp.mpf(1), mp.mpf(p.lam), mp.mpf(1)))
    if 1.0 - p.omega >= WEIGHT_EPS:
        out.append((1 - mp.mpf(p.omega), mp.mpf(p.a), mp.mpf(p.b), mp.mpf(p.c)))
    return out


def second_moment(p):
    om, lam, a, b, c = (mp.mpf(x) for x in (p.omega, p.lam, p.a, p.b, p.c))
    return om * lam**2 * 2 + (1 - om) * b**2 * mp.exp(mp.loggamma(a + 2 / c) - mp.loggamma(a))


def _argmax(L, t_start, t_max):
    """Maximum of a concave L on (-inf, t_max]; returns (t*, L(t*))."""
    h = mp.mpf("1e-6")
    t0 = min(t_start, t_max)
    if t0 == t_max and L(t0) >= L(t0 - h):
        return t0, L(t0)  # still rising at the right end
    # walk left in doubling steps until L starts to fall
    prev2, prev, step = t0, t0, mp.mpf(1)
    f_prev = L(prev)
    while True:
        t = prev - step
        f = L(t)
        if f < f_prev:
            lo, hi = t, prev2 if prev2 != prev else min(prev + step, t_max)
            break
        prev2, prev, f_prev = prev, t, f
        step *= 2
        if step > mp.mpf("1e7"):
            raise RuntimeError("no maximum found")
    # golden-section search on [lo, hi]
    g = (mp.sqrt(5) - 1) / 2
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = L(x1), L(x2)
    for _ in range(90):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = L(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = L(x1)
    t = (lo + hi) / 2
    return t, L(t)


def _level_point(L, t_star, target, direction, t_max):
    """The t on one side of the maximum where the concave L falls to ``target``."""
    step = mp.mpf("0.01")
    inner = t_star
    while True:
        t = t_star + direction * step
        if direction > 0 and t >= t_max:
            return None
        if L(t) <= target:
            outer = t
            break
        inner = t
        step *= 2
    for _ in range(60):
        mid = (inner + outer) / 2
        if L(mid) > target:
            inner = mid
        else:
            outer = mid
    return (inner + outer) / 2


def integrate_exp(L, t_start, t_max, levels, method):
    """int exp(L(t)) dt over (-inf, t_max] for concave L.

    Returns (value, quadrature error estimate, tail bound).
    """
    t_star, l_star = _argmax(L, t_start, t_max)
    points = [t_star]
    for direction in (-1, 1):
        for level in levels:
            t = _level_point(L, t_star, l_star - level, direction, t_max)
            if t is None:
                break
            points.append(t)
    if t_max != mp.inf and t_max > t_star:
        points.append(t_max)
    points = sorted(set(points))
    if levels is LEVELS_B and points[0] < t_star < points[-1]:
        points.remove(t_star)
    # mp.quad stops on an absolute error estimate, so the integrand is scaled
    # to peak at 1; unscaled values such as 1e-273 would pass at any degree
    f = lambda t: mp.exp(L(t) - l_star)
    value, err = mp.quad(f, points, method=method, error=True)
    # concavity: beyond a point with slope s the tail is at most exp(L)/|s|
    h = mp.mpf("1e-8")
    lo = points[0]
    slope = (L(lo + h) - L(lo)) / h
    tail = mp.exp(L(lo) - l_star) / slope if slope > 0 else mp.inf
    if t_max == mp.inf:
        hi = points[-1]
        slope = (L(hi) - L(hi - h)) / h
        tail += mp.exp(L(hi) - l_star) / -slope if slope < 0 else mp.inf
    scale = mp.exp(l_star)
    return value * scale, err * scale, tail * scale


def lobe_expectation(a, b, c, log_h, levels, method, t_max=mp.inf):
    """E[h(b U^(1/c))] for U ~ Gamma(a, 1), with log h given in ln I."""
    lga = mp.loggamma(a)
    lnb = mp.log(b)

    def L(t):
        return a * t - mp.exp(t) - lga + log_h(lnb + t / c)

    return integrate_exp(L, mp.log(a + 2 / c + 1), t_max, levels, method)


def expectation(p, log_h_of, levels, method):
    """Mixture expectation of h; log_h_of(ln I) may be -inf nowhere."""
    total, err, tail = mp.mpf(0), mp.mpf(0), mp.mpf(0)
    for weight, a, b, c in lobes(p):
        v, e, t = lobe_expectation(a, b, c, log_h_of, levels, method)
        total += weight * v
        err += weight * abs(e)
        tail += weight * t
    return total, err, tail


def outage_closed(p, x_i):
    total = mp.mpf(0)
    for weight, a, b, c in lobes(p):
        total += weight * mp.gammainc(a, 0, (x_i / b) ** c, regularized=True)
    return total


def outage_quad(p, x_i):
    total, err, tail = mp.mpf(0), mp.mpf(0), mp.mpf(0)
    for weight, a, b, c in lobes(p):
        # P(a, y) = int_{-inf}^{ln y} exp(a t - e^t) dt / Gamma(a)
        lga = mp.loggamma(a)
        v, e, t = integrate_exp(
            lambda t: a * t - mp.exp(t) - lga, mp.log(a + 1), c * (mp.log(x_i) - mp.log(b)),
            LEVELS_B, "gauss-legendre",
        )
        total += weight * v
        err += weight * abs(e)
        tail += weight * t
    return total, err, tail


def point(p, r, metric, modulation, snr_db):
    """(value, certified, relative agreement, note) for one grid point."""
    gamma_bar = mp.mpf(10.0 ** (snr_db / 10.0))
    mu = gamma_bar if r == 1 else gamma_bar / second_moment(p)
    ln_mu = mp.log(mu)
    if metric == "outage":
        x_i = (1 / mu) ** (mp.mpf(1) / r)
        va = outage_closed(p, x_i)
        vb, err, tail = outage_quad(p, x_i)
        errs = [(err + tail) / vb if vb else mp.mpf(0)]
    else:
        if metric == "capacity":
            ln_tau = 1 - mp.log(2 * mp.pi)
            kernels = [(mp.mpf(1), lambda ln_i: mp.log(mp.log1p(mp.exp(ln_tau + ln_mu + r * ln_i))))]
        else:
            delta, qs = ber_terms(modulation)
            kernels = []
            for q in qs:
                ln_q_mu = mp.log(q) + ln_mu
                kernels.append(
                    (delta / 2, lambda ln_i, s=ln_q_mu: mp.log(mp.erfc(mp.exp((s + r * ln_i) / 2))))
                )
        va, vb = mp.mpf(0), mp.mpf(0)
        errs = []
        for scale, log_h in kernels:
            a_val, a_err, a_tail = expectation(p, log_h, LEVELS_A, "tanh-sinh")
            b_val, b_err, b_tail = expectation(p, log_h, LEVELS_B, "gauss-legendre")
            va += scale * a_val
            vb += scale * b_val
            errs.append((a_err + a_tail) / a_val)
            errs.append((b_err + b_tail) / b_val)
    agree = abs(va - vb) / abs(va) if va else mp.mpf(0)
    worst = max(errs) if errs else mp.mpf(0)
    certified = bool(va > 0 and agree <= AGREE_RTOL and worst <= AGREE_RTOL)
    note = "" if certified else f"agreement {mp.nstr(agree, 3)}, error/tail bound {mp.nstr(worst, 3)}"
    return va, certified, agree, note


def main():
    mp.mp.dps = DPS
    rows = []
    started = time.time()
    for cond in ALL_CONDITIONS:
        p = cond.egg
        for snr_db in SNR_DB:
            for r, metric, modulation in KINDS:
                value, certified, agree, note = point(p, r, metric, modulation, snr_db)
                rows.append({
                    "row": cond.label,
                    "params": [p.omega, p.lam, p.a, p.b, p.c],
                    "snr_db": snr_db,
                    "detection": "imdd" if r == 2 else "het",
                    "metric": metric,
                    "modulation": modulation,
                    "value": mp.nstr(value, 30, min_fixed=1, max_fixed=0),
                    "certified": certified,
                    "agreement": mp.nstr(agree, 3),
                    "note": note,
                })
            print(f"{cond.label} {snr_db:+d} dB done ({time.time() - started:.0f} s)",
                  file=sys.stderr, flush=True)
    write_table({
        "generator": "perfbench/reference/make_reference.py",
        "mpmath": mp.__version__,
        "dps": DPS,
        "agree_rtol": AGREE_RTOL_TEXT,
        "weight_eps": WEIGHT_EPS,
        "points": rows,
    })


def write_table(payload, path=OUT):
    """JSON with one point per line, so a diff shows which points changed."""
    head = {k: v for k, v in payload.items() if k != "points"}
    with open(path, "w") as handle:
        handle.write("{\n")
        for key, value in head.items():
            handle.write(f" {json.dumps(key)}: {json.dumps(value)},\n")
        handle.write(' "points": [\n')
        handle.write(",\n".join("  " + json.dumps(p, separators=(",", ":")) for p in payload["points"]))
        handle.write("\n ]\n}\n")


if __name__ == "__main__":
    main()
