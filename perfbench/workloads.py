"""The workloads: their inputs, operations and correctness checks.

Inputs come only from the seed.  Each workload hashes the inputs it
generates (``digest``) so that a run can be matched to the data it used.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
from scipy import integrate, special

import uwoc
from uwoc import cli, gof, performance
from uwoc.presets import ALL_CONDITIONS, condition

from harness import Op, SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference", "curves_reference.json")
KNOWN_FAILURES_PATH = os.path.join(HERE, "known_failures.json")

# curves: a certified reference must match to this relative tolerance; the
# absolute floor only lets values below the double range compare as zero
RTOL = 1e-6
ABS_FLOOR = 1e-300
# the CLI's Monte Carlo BER must fall within K standard errors of the library's
MC_K = 5.0
# criterion 6 of the acceptance suite
OMEGA_TOL = 0.03
SI_RTOL = 0.05

SNR_DB = tuple(range(-10, 81, 10))
# (detection, metric, modulation) of the curves grid, as in the reference
KINDS = (
    ("imdd", "outage", None),
    ("imdd", "ber", "ook"),
    ("imdd", "capacity", None),
    ("het", "ber", "bpsk"),
    ("het", "ber", "mqam:16"),
    ("het", "ber", "mpsk:8"),
    ("het", "capacity", None),
)
RANGES = {"outage": (0.0, 1.0), "ber": (0.0, 1.0), "capacity": (0.0, math.inf)}

CLI_ROW = "23.6lpm-0.22C"
CLI_SAMPLES = 100_000

# a model that is in no table, used only to warm code paths before timing
WARM_PARAMS = uwoc.EggParams(0.3, 0.4, 1.1, 1.3, 20.0)


def python_kernel():
    """Scalar quadrature of a special-function integrand, the code type of
    the metric routes (fast state here: 0.40 ms)."""
    integrand = lambda t: math.exp(-t) * special.gammaincc(0.5, t * t + 0.1)  # noqa: E731
    return integrate.quad(integrand, 0.0, 50.0, limit=200)[0]


_PROBE_X = np.linspace(0.1, 5.0, 100_000)


def numpy_kernel():
    """Arithmetic on 100k-element arrays, the code type of EM and Monte
    Carlo (fast state here: 0.30-0.35 ms)."""
    return float(np.dot(np.log(_PROBE_X), np.exp(-_PROBE_X)))


def mixed_kernel():
    """Both kernels in turn: a CLI session mixes interpreter start-up, scalar
    quadrature and array code (fast state here: 0.70 ms)."""
    return python_kernel() + numpy_kernel()


# log(op time) against log(kernel time) over 90 s of curves and 300 s of cli
# on the shared host, with the kernel ranging 0.5x-1.5x of its median: the slope
CURVES_ALPHA = 0.74
CLI_ALPHA = 0.65
# the same slope for setup_s against the scalar kernel, over 20 runs taken
# in two host periods whose import medians differed by 43 %
SETUP_ALPHA = 0.6


def setup_probe():
    return SpeedProbe(python_kernel, 0.40e-3, alpha=SETUP_ALPHA)


def _db(snr_db):
    return 10.0 ** (snr_db / 10.0)


def _mode(name):
    return performance.IMDD if name == "imdd" else performance.HETERODYNE


def point_key(row, detection, metric, modulation, snr_db):
    parts = [row, detection, metric] + ([modulation] if modulation else []) + [f"{snr_db:+d}dB"]
    return "/".join(parts)


def load_reference():
    """{point key: (value, certified)} from the mpmath table, checked against
    the preset parameters it was computed for."""
    with open(REFERENCE_PATH) as handle:
        payload = json.load(handle)
    table = {}
    for p in payload["points"]:
        key = point_key(p["row"], p["detection"], p["metric"], p["modulation"], p["snr_db"])
        egg = condition(p["row"]).egg
        current = [egg.omega, egg.lam, egg.a, egg.b, egg.c]
        # a stale reference (parameters changed since) certifies nothing
        table[key] = (float(p["value"]), p["certified"] and current == p["params"])
    return table


def load_known_failures():
    with open(KNOWN_FAILURES_PATH) as handle:
        return {item["point"]: item for item in json.load(handle)["points"]}


def metric_value(link, metric, modulation):
    """The library's default route for one metric point."""
    if metric == "outage":
        return performance.outage(link)
    if metric == "ber":
        return performance.avg_ber(link, modulation)
    return performance.ergodic_capacity(link)


def check_point(value, reference, certified, metric):
    """None if ``value`` passes, else the reason it fails."""
    if isinstance(value, bool) or not isinstance(value, (float, int)) or not math.isfinite(value):
        return f"not a finite number: {value!r}"
    lo, hi = RANGES[metric]
    if not lo <= value <= hi:
        return f"{value!r} outside [{lo}, {hi}]"
    if certified and abs(value - reference) > RTOL * abs(reference) + ABS_FLOOR:
        rel = abs(value - reference) / abs(reference) if reference else math.inf
        return f"{value!r} vs reference {reference!r} (relative error {rel:.3g} > {RTOL})"
    return None


def check_estimate(estimate, se, reference):
    """None if a Monte Carlo (estimate, se) is within MC_K standard errors."""
    if not (math.isfinite(estimate) and math.isfinite(se) and se >= 0):
        return f"not finite: {estimate!r} +- {se!r}"
    band = MC_K * se
    if abs(estimate - reference) > band:
        return f"{estimate!r} +- {se:.3g} vs reference {reference!r} (band {band:.3g})"
    return None


def check_fit(model, si, converged, truth):
    """Criterion 6: weight and scintillation index recovered, and converged.
    The CLI report carries no log-likelihood trace, so ascent is not checked."""
    problems = []
    if abs(model.omega - truth.omega) > OMEGA_TOL:
        problems.append(f"omega {model.omega:.4f} vs {truth.omega:.4f}")
    si_true = truth.scintillation_index()
    if abs(si - si_true) > SI_RTOL * si_true:
        problems.append(f"scintillation index {si:.4f} vs {si_true:.4f}")
    if not converged:
        problems.append("not converged")
    return "; ".join(problems) or None


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(item if isinstance(item, bytes) else repr(item).encode())
    return h.hexdigest()


class Workload:
    """Inputs, operations and checks of one workload."""

    name = ""
    why = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def ops(self):
        raise NotImplementedError

    def trace_ops(self):
        """Operations for the traced pass when they differ from ``ops()``."""
        return None

    def probe(self):
        """A SpeedProbe whose kernel slows down like this workload's code in
        the host's slow state, or None where measured timings do not."""
        return None

    def latencies_ms(self, results):
        """Latency of each operation, for the op_ms percentiles."""
        return [r.median_s * 1e3 for r in results.values()]

    def warmup(self):
        """Untimed calls on a model outside every table, so lazy imports and
        first-call costs do not land on the first timed operation."""

    def check(self, results):
        """{op key: reason} for every operation whose output is wrong."""
        return {}

    def extras(self, results):
        """Workload-specific figures printed beside the metrics."""
        return {}

    def layer_figures(self, results):
        """Per-layer figures measured outside the traced pass."""
        return {}


def curve_points():
    """The 1260 (row, detection, metric, modulation, snr) points, grid order."""
    return [
        (cond.label, detection, metric, modulation, snr_db)
        for cond in ALL_CONDITIONS
        for snr_db in SNR_DB
        for detection, metric, modulation in KINDS
    ]


class Curves(Workload):
    name = "curves"
    why = "1260 scalar metric points: 18 rows x SNR -10..80 dB, IM/DD and heterodyne"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        points = curve_points()
        order = np.random.default_rng(seed).permutation(len(points))
        self.points = [points[i] for i in order]

    def digest(self):
        return _digest(self.points)

    def probe(self):
        return SpeedProbe(python_kernel, 0.40e-3, alpha=CURVES_ALPHA)

    @staticmethod
    def _call(row, detection, metric, modulation, snr_db):
        link = performance.LinkBudget(condition(row).egg, _mode(detection), _db(snr_db))
        mod = performance.Modulation.parse(modulation) if modulation else None
        return metric_value(link, metric, mod)

    def ops(self):
        return [Op(point_key(*p), lambda p=p: self._call(*p)) for p in self.points]

    def warmup(self):
        for detection, metric, modulation in KINDS:
            link = performance.LinkBudget(WARM_PARAMS, _mode(detection), _db(20))
            mod = performance.Modulation.parse(modulation) if modulation else None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                metric_value(link, metric, mod)

    def check(self, results):
        reference = load_reference()
        failures = {}
        for (row, detection, metric, modulation, snr_db) in self.points:
            key = point_key(row, detection, metric, modulation, snr_db)
            r = results.get(key)
            if r is None or r.output is None:
                continue
            value, certified = reference[key]
            problem = check_point(r.output, value, certified, metric)
            if problem:
                failures[key] = problem
        return failures

    def extras(self, results):
        reference = load_reference()
        return {"uncertified_points": sum(1 for key in results if not reference[key][1])}


class Cli(Workload):
    """The end-to-end CLI workflow, one ``python -m uwoc.cli`` process per step.

    Each step is timed as one operation, but the latency percentiles are
    taken over whole sessions: a percentile over seven steps of different
    kinds would jump between steps of similar length from run to run.
    """

    name = "cli"
    why = "synth -> fit (CLI defaults) -> gof -> perf x3 (61 points) -> simulate, one process each"

    STEPS = ("synth", "fit", "gof", "perf-outage", "perf-ber", "perf-capacity", "simulate")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        truth = condition(CLI_ROW).egg
        params = ",".join(repr(v) for v in (truth.omega, truth.lam, truth.a, truth.b, truth.c))
        curve = ["--report", "fit.json", "--detection", "imdd", "--snr-db", "0:60:1"]
        self.argv = {
            "synth": ["synth", "--params", params, "--n", str(CLI_SAMPLES), "--seed", str(seed),
                      "--output", "samples.txt"],
            "fit": ["fit", "--input", "samples.txt", "--output", "fit.json"],
            "gof": ["gof", "--input", "samples.txt", "--report", "fit.json", "--output", "gof.json"],
            "perf-outage": ["perf", "outage", *curve, "--output", "outage.csv"],
            "perf-ber": ["perf", "ber", *curve, "--modulation", "ook", "--output", "ber.csv"],
            "perf-capacity": ["perf", "capacity", *curve, "--output", "capacity.csv"],
            "simulate": ["simulate", "ber", "--report", "fit.json", "--detection", "imdd",
                         "--modulation", "ook", "--snr-db", "0:60:10", "--seed", str(seed),
                         "--output", "simulate.csv"],
        }

    def digest(self):
        return _digest([(step, self.argv[step]) for step in self.STEPS])

    def _process(self, step):
        done = subprocess.run(
            [sys.executable, "-m", "uwoc.cli", *self.argv[step]],
            cwd=self.workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        if done.returncode != 0:
            raise RuntimeError(f"uwoc {step} exited {done.returncode}: {done.stderr.decode()[-300:]}")
        return done.returncode

    def ops(self):
        return [Op(step, lambda s=step: self._process(s)) for step in self.STEPS]

    def probe(self):
        # sampled in this process between steps, while no child runs
        return SpeedProbe(mixed_kernel, 0.70e-3, alpha=CLI_ALPHA)

    def latencies_ms(self, results):
        return [sum(r.median_s for r in results.values()) * 1e3]

    def _in_process(self, argv):
        """``uwoc.cli.main(argv)`` inside the in-process directory."""
        cwd = os.getcwd()
        os.chdir(self.inprocess_dir)
        try:
            code = cli.main(argv)
        finally:
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"uwoc {argv[0]} returned {code}")
        return code

    @property
    def inprocess_dir(self):
        # apart from the processes' files, which the check reads
        path = os.path.join(self.workdir, "inprocess")
        os.makedirs(path, exist_ok=True)
        return path

    def warmup(self):
        # first-call costs of the in-process steps of the traced run, on a
        # small session of a model that is in no table
        params = ",".join(repr(v) for v in (WARM_PARAMS.omega, WARM_PARAMS.lam, WARM_PARAMS.a,
                                            WARM_PARAMS.b, WARM_PARAMS.c))
        curve = ["--report", "warm.json", "--detection", "imdd", "--snr-db", "20:20:1"]
        for argv in (
            ["synth", "--params", params, "--n", "2000", "--output", "warm.txt"],
            ["fit", "--input", "warm.txt", "--max-iter", "5", "--restarts", "1",
             "--output", "warm.json"],
            ["gof", "--input", "warm.txt", "--report", "warm.json", "--output", "warm-gof.json"],
            ["perf", "outage", *curve, "--output", "warm.csv"],
            ["perf", "ber", *curve, "--modulation", "ook", "--output", "warm.csv"],
            ["perf", "capacity", *curve, "--output", "warm.csv"],
            ["simulate", "ber", *curve, "--modulation", "ook", "--samples", "2000",
             "--output", "warm.csv"],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self._in_process(argv)

    def trace_ops(self):
        # the processes cannot be traced from here, so the traced run runs
        # the same session in-process, one cli.main call per step
        return [Op(f"inprocess-{s}", lambda s=s: self._in_process(self.argv[s])) for s in self.STEPS]

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def check(self, results):
        if any(r.output is None for r in results.values()):
            return {}  # the failed step already counts
        failures = {}
        truth = condition(CLI_ROW).egg
        samples = np.loadtxt(self._path("samples.txt"), skiprows=1)
        if samples.shape != (CLI_SAMPLES,) or not np.all(samples > 0):
            failures["synth"] = f"expected {CLI_SAMPLES} positive samples, got shape {samples.shape}"
        with open(self._path("fit.json")) as handle:
            report = json.load(handle)
        model = uwoc.model_from_dict(report)
        problem = check_fit(model, report["scintillation_index"], report["converged"], truth)
        if problem:
            failures["fit"] = problem
        with open(self._path("gof.json")) as handle:
            scores = json.load(handle)
        hist = gof.build_histogram(samples, "auto")
        expected = {"mse": gof.mse_cdf(samples, model), "r2": gof.r_square(hist, model),
                    "bins": hist.n_bins}
        if any(scores[k] != v for k, v in expected.items()):
            failures["gof"] = f"gof report {scores} differs from the library {expected}"
        ber_rows = None
        for metric, step in (("outage", "perf-outage"), ("ber", "perf-ber"), ("capacity", "perf-capacity")):
            rows = _read_curve(self._path(f"{metric}.csv"))
            mod = performance.Modulation.ook() if metric == "ber" else None
            problems = []
            for snr_db, value in rows:
                link = performance.LinkBudget(model, performance.IMDD, _db(snr_db))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    want = metric_value(link, metric, mod)
                if not abs(value - want) <= 1e-8 * abs(want) + ABS_FLOOR:
                    problems.append(f"{snr_db} dB: {value!r} vs library {want!r}")
            if len(rows) != 61:
                problems.append(f"{len(rows)} rows, expected 61")
            if problems:
                failures[step] = "; ".join(problems[:3])
            if metric == "ber":
                ber_rows = dict(rows)
        problems = []
        sim_rows = _read_curve(self._path("simulate.csv"), with_se=True)
        for snr_db, value, se in sim_rows:
            problem = check_estimate(value, se, ber_rows[snr_db])
            if problem:
                problems.append(f"{snr_db} dB: {problem}")
        if len(sim_rows) != 7:
            problems.append(f"{len(sim_rows)} rows, expected 7")
        if problems:
            failures["simulate"] = "; ".join(problems[:3])
        failures.update(self._check_inprocess())
        return failures

    def _check_inprocess(self):
        """The in-process session of the traced run must write the same
        files, byte for byte, as the processes."""
        failures = {}
        for step in self.STEPS:
            argv = self.argv[step]
            name = argv[argv.index("--output") + 1]
            mine = os.path.join(self.inprocess_dir, name)
            if not os.path.exists(mine):
                continue  # the in-process session did not run
            with open(mine, "rb") as a, open(self._path(name), "rb") as b:
                if a.read() != b.read():
                    failures[f"inprocess-{step}"] = f"{name} differs from the process's output"
        return failures

    def extras(self, results):
        out = {"fit_cmd_s": results["fit"].median_s}
        out.update({f"step_s.{step}": r.median_s for step, r in results.items()})
        return out

    def layer_figures(self, results):
        med = {step: r.median_s for step, r in results.items()}
        return {
            "cli.synth_s": med["synth"],
            "cli.fit_s": med["fit"],
            "cli.gof_s": med["gof"],
            "cli.perf_s": med["perf-outage"] + med["perf-ber"] + med["perf-capacity"],
            "cli.simulate_s": med["simulate"],
        }


def _read_curve(path, with_se=False):
    rows = []
    with open(path) as handle:
        next(handle)
        for line in handle:
            cells = line.strip().split(",")
            row = (float(cells[0]), float(cells[1]))
            rows.append(row + ((float(cells[3]),) if with_se else ()))
    return rows


WORKLOADS = {w.name: w for w in (Curves, Cli)}
