"""Command-line front end.

Subcommands: ``fit`` (EM estimation from a sample file), ``gof`` (re-score a
fit against samples), ``perf`` (outage/BER/capacity curves: outage from its
closed form, BER and capacity from the certified quadrature), ``simulate``
(the same curves by Monte Carlo), and ``synth`` (synthetic sample
generation).  Reports are JSON, curves and samples are
CSV-like text, and every command is deterministic given its flags.  Each
``cmd_*`` imports the modules it runs, so a process loads only its own
command's code.

Exit codes: 0 success, 2 invalid input or flags, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .distributions import _VARIANTS, EggParams, model_from_dict
from .errors import DataError, UwocError, check_integer, checked_array

EXIT_OK = 0
EXIT_USER = 2
EXIT_NUMERIC = 3


class _UserError(Exception):
    """Invalid input or flag combination; maps to exit code 2."""


# the count and seed flags, by argparse dest, and the least value each takes;
# ``main`` checks them before any command runs, so an error names the flag
_COUNT_FLAGS = {"max_iter": 1, "restarts": 1, "samples": 1, "n": 1, "seed": 0}


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".uwoc-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def read_samples(path):
    """Parse a sample file: one positive value per line, '#' comments, and
    an optional single 'irradiance' header line.  An error names its line."""
    try:
        with open(path) as handle:
            lines = handle.read().rstrip("\n").split("\n")
    except OSError as exc:
        raise _UserError(f"cannot read {path}: {exc}") from exc
    # one vectorized parse of a plain file; any other file is read line by line
    start = 1 if lines[0].strip().lower() == "irradiance" else 0
    linenos = range(start + 1, len(lines) + 1)  # the file line of each value
    try:
        values = np.array(lines[start:], dtype=float)
    except ValueError:
        values, linenos = [], []
        for lineno, raw in enumerate(lines, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if text.lower() == "irradiance" and not values:
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise _UserError(f"{path}:{lineno}: not a number: {text!r}") from exc
            linenos.append(lineno)
        values = np.asarray(values, dtype=float)
    if not values.size:
        raise _UserError(f"{path}: no samples found")
    try:
        return checked_array(values, "sample")
    except DataError as exc:
        lineno = linenos[exc.index]
        text = lines[lineno - 1].strip()
        raise _UserError(f"{path}:{lineno}: irradiance must be positive, got {text}") from exc


def write_samples(path, values):
    values = np.asarray(values, dtype=float).tolist()
    _emit(path, "irradiance\n" + ("%.12g\n" * len(values)) % tuple(values))


def _input_digest(path):
    import hashlib  # only fit and gof take a digest
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _parse_inline_params(text):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 5:
        raise _UserError(
            "--params expects 'omega,lambda,a,b,c' (five comma-separated values)"
        )
    try:
        omega, lam, a, b, c = map(float, parts)
        return EggParams(omega, lam, a, b, c)
    except ValueError as exc:
        raise _UserError(f"invalid --params: {exc}") from exc


def _load_report_model(path):
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UserError(f"cannot read report {path}: {exc}") from exc
    try:
        return model_from_dict(payload)
    except ValueError as exc:
        raise _UserError(f"{path}: {exc}") from exc


def _resolve_params(args):
    """The model of ``--params`` or ``--report``, as given: ``LinkBudget``
    decides which variants have link metrics."""
    if getattr(args, "params", None):
        return _parse_inline_params(args.params)
    if getattr(args, "report", None):
        return _load_report_model(args.report)
    raise _UserError("give either --params or --report")


# the most points one --snr-db grid may have
_MAX_GRID_POINTS = 10_000


def _parse_grid(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise _UserError("--snr-db expects FROM:TO:STEP")
    try:
        start, stop, step = map(float, parts)
    except ValueError as exc:
        raise _UserError(f"invalid --snr-db: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise _UserError("--snr-db requires finite FROM, TO and STEP")
    if step <= 0 or stop < start:
        raise _UserError("--snr-db requires STEP > 0 and TO >= FROM")
    # no point past TO; the tolerance keeps a TO that the division puts a hair short
    span = (stop - start) / step + 1e-9
    if not span < _MAX_GRID_POINTS:  # inf where TO - FROM overflows
        raise _UserError(f"--snr-db gives more than {_MAX_GRID_POINTS} points")
    count = math.floor(span) + 1
    return [start + k * step for k in range(count)]


def _curve_text(rows, with_se=False):
    header = "snr_db,value,kind,se" if with_se else "snr_db,value,kind"
    lines = [header]
    for row in rows:
        snr_db, value, kind = row[:3]
        cells = [format(snr_db, ".6f"), format(value, ".9e"), kind]
        if with_se:
            cells.append(format(row[3], ".9e"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _build_modulation(args):
    """The ``--modulation`` of a ber curve, else None; ``avg_ber`` and
    ``simulate`` check it against the detection mode."""
    if args.metric != "ber":
        return None
    if not args.modulation:
        raise _UserError("ber curves need --modulation")
    from .performance import Modulation
    return Modulation.parse(args.modulation)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _scorer(samples, bins):
    """The ``gof`` block of a model against ``samples``, as a function of the
    model, with ``--bins`` a count or 'auto'.  The histogram is built here, so
    a bad ``--bins`` fails before a fit."""
    from .gof import build_histogram, mse_cdf, r_square

    if bins != "auto":
        try:
            bins = int(bins)
        except ValueError:
            raise _UserError(f"--bins must be a bin count or 'auto', got {bins!r}") from None
        check_integer(1, **{"--bins": bins})
    hist = build_histogram(samples, bins)
    return lambda model: {"mse": mse_cdf(samples, model), "r2": r_square(hist, model), "bins": hist.n_bins}


def cmd_fit(args):
    from .em import EmConfig, fit

    samples = read_samples(args.input)
    cfg = EmConfig(
        epsilon=args.eps,
        max_iters=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
    )
    score = _scorer(samples, args.bins)
    report = fit(samples, args.model, cfg)
    payload = report.model.to_dict()
    payload.update(
        scintillation_index=report.scintillation_index,
        loglik=report.loglik,
        iterations=report.iterations,
        converged=report.converged,
        diagnostics=report.diagnostics,
        gof=score(report.model),
        em_config={
            "epsilon": cfg.epsilon,
            "max_iters": cfg.max_iters,
            "restarts": cfg.restarts,
            "seed": cfg.seed,
        },
        tool_version=__version__,
        input_digest=_input_digest(args.input),
    )
    _emit(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_gof(args):
    samples = read_samples(args.input)
    model = _load_report_model(args.report)
    payload = {
        **_scorer(samples, args.bins)(model),
        "model": model.variant,
        "tool_version": __version__,
        "input_digest": _input_digest(args.input),
    }
    _emit(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _metric_values(link, metric, modulation, asymptotic):
    from .performance import (
        avg_ber,
        avg_ber_asymptotic,
        capacity_asymptotic,
        ergodic_capacity,
        outage,
        snr_cdf_asymptotic,
    )

    if metric == "outage":
        exact = outage(link)
        asym = snr_cdf_asymptotic(link, link.gamma_th) if asymptotic else None
    elif metric == "ber":
        exact = avg_ber(link, modulation)
        asym = avg_ber_asymptotic(link, modulation) if asymptotic else None
    else:
        exact = ergodic_capacity(link)
        asym = capacity_asymptotic(link) if asymptotic else None
    return exact, asym


def cmd_perf(args):
    from .performance import DetectionMode, LinkBudget

    params = _resolve_params(args)
    mode = DetectionMode.parse(args.detection)
    modulation = _build_modulation(args)
    grid = _parse_grid(args.snr_db)
    rows = []
    asym_rows = []
    for snr_db in grid:
        link = LinkBudget(params, mode, 10.0 ** (snr_db / 10.0), args.gamma_th)
        exact, asym = _metric_values(link, args.metric, modulation, args.asymptotic)
        rows.append((snr_db, exact, "exact"))
        if asym is not None:
            asym_rows.append((snr_db, asym, "asymptotic"))
    _emit(args.output, _curve_text(rows + asym_rows))
    return EXIT_OK


def cmd_simulate(args):
    from .montecarlo import SimConfig, simulate
    from .performance import DetectionMode, LinkBudget

    params = _resolve_params(args)
    mode = DetectionMode.parse(args.detection)
    modulation = _build_modulation(args)
    cfg = SimConfig(n_samples=args.samples, seed=args.seed)
    grid = _parse_grid(args.snr_db)
    links = [LinkBudget(params, mode, 10.0 ** (snr_db / 10.0), args.gamma_th) for snr_db in grid]
    estimates = simulate(links, [args.metric], cfg, modulation)[args.metric]
    rows = [(snr_db, est, "simulated", se) for snr_db, (est, se) in zip(grid, estimates)]
    _emit(args.output, _curve_text(rows, with_se=True))
    return EXIT_OK


def cmd_synth(args):
    model = _resolve_params(args)
    rng = np.random.default_rng(args.seed)
    write_samples(args.output, model.sample(rng, args.n))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="uwoc",
        description="Two-lobe turbulence fading toolkit: fitting, scoring, and link metrics.",
    )
    parser.add_argument("--version", action="version", version=f"uwoc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="EM-fit a mixture model to a sample file")
    p_fit.add_argument("--input", required=True, help="sample file, one value per line")
    p_fit.add_argument("--model", default="egg", choices=list(_VARIANTS))
    p_fit.add_argument("--eps", type=float, default=1e-6, help="convergence threshold")
    p_fit.add_argument("--max-iter", type=int, default=500)
    p_fit.add_argument("--restarts", type=int, default=3)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--bins", default="auto", help="histogram bins for the R2 score: a count or 'auto'")
    p_fit.add_argument("--output", default="-", help="report JSON path (default stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_gof = sub.add_parser("gof", help="re-score a fit report against samples")
    p_gof.add_argument("--input", required=True)
    p_gof.add_argument("--report", required=True)
    p_gof.add_argument("--bins", default="auto", help="histogram bins for the R2 score: a count or 'auto'")
    p_gof.add_argument("--output", default="-")
    p_gof.set_defaults(func=cmd_gof)

    def add_curve_args(p, simulated):
        p.add_argument("metric", choices=["outage", "ber", "capacity"])
        p.add_argument("--report", help="fit report JSON with egg/eg parameters")
        p.add_argument("--params", help="inline EGG parameters 'omega,lambda,a,b,c'")
        p.add_argument("--detection", required=True, help="imdd or het")
        p.add_argument("--modulation", help="ook | bpsk | mpsk:M | mqam:M, square M (ber only)")
        p.add_argument("--snr-db", required=True, help="grid FROM:TO:STEP in dB")
        p.add_argument("--gamma-th", type=float, default=1.0,
                       help="outage threshold SNR, linear (default 1)")
        p.add_argument("--output", default="-")
        if simulated:
            p.add_argument("--samples", type=int, default=1_000_000)
            p.add_argument("--seed", type=int, default=0)
        else:
            p.add_argument("--asymptotic", action="store_true",
                           help="append high-SNR asymptote rows")

    p_perf = sub.add_parser("perf", help="metric curves over an SNR grid: outage by closed "
                                         "form, BER and capacity by certified quadrature")
    add_curve_args(p_perf, simulated=False)
    p_perf.set_defaults(func=cmd_perf)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo metric curves over an SNR grid")
    add_curve_args(p_sim, simulated=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_synth = sub.add_parser("synth", help="draw synthetic samples from a model")
    p_synth.add_argument("--params", help="inline EGG parameters 'omega,lambda,a,b,c'")
    p_synth.add_argument("--report", help="fit report JSON (any variant)")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", default="-")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, least in _COUNT_FLAGS.items():
            if dest in vars(args):
                check_integer(least, **{"--" + dest.replace("_", "-"): getattr(args, dest)})
        return args.func(args)
    except (_UserError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except UwocError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
