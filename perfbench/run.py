"""uwoc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``;
nothing is installed.  The run measures the fixed operations of the workload
for ``--seconds`` (at least one full pass), checks every output against an
independent reference, prints one line per figure and, last, one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics from a separately
traced pass with ``--trace 1``.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 7

# Fixed for every measured process.  One BLAS thread keeps the single
# closed-loop client on one of the two cores.  glibc's adaptive mmap
# threshold makes the page-fault count of the same fit vary from 0 to 3e5
# between repeats (0.5 s of system time on a 0.6 s fit); fixed thresholds
# keep large temporaries on the heap, so the timings measure the
# computation rather than the allocator's history.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(1024 * 1024 * 1024),
    "PYTHONPATH": SRC,
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p99", "ms"),
)

PER_LAYER = (
    ("distributions.component_log_pdfs.calls", "count"),
    ("distributions.component_log_pdfs.self_s", "s"),
    ("distributions.component_log_pdfs.ns_per_point", "ns"),
    ("distributions.sample.calls", "count"),
    ("distributions.sample.self_s", "s"),
    ("distributions.sample.ns_per_draw", "ns"),
    ("distributions.cdf.calls", "count"),
    ("distributions.cdf.self_s", "s"),
    ("em.fit.calls", "count"),
    ("em.fit.self_s", "s"),
    ("em.iterations", "count"),
    ("em.restarts", "count"),
    ("em.m_step_gg.calls", "count"),
    ("em.m_step_gg.self_s", "s"),
    ("em.m_step_exp.calls", "count"),
    ("em.m_step_exp.self_s", "s"),
    ("gof.mse_cdf.self_s", "s"),
    ("gof.build_histogram.self_s", "s"),
    ("gof.r_square.self_s", "s"),
    ("performance.outage.calls", "count"),
    ("performance.outage.self_s", "s"),
    ("performance.avg_ber.calls", "count"),
    ("performance.avg_ber.self_s", "s"),
    ("performance.ergodic_capacity.calls", "count"),
    ("performance.ergodic_capacity.self_s", "s"),
    ("performance.avg_ber_quadrature.calls", "count"),
    ("performance.avg_ber_quadrature.self_s", "s"),
    ("performance.capacity_quadrature.calls", "count"),
    ("performance.capacity_quadrature.self_s", "s"),
    ("performance.crosscheck_warnings", "count"),
    ("performance.convergence_errors", "count"),
    ("performance.returned_route_share", "ratio"),
    ("special.fox_h_ln.calls", "count"),
    ("special.fox_h_ln.self_s", "s"),
    ("special.adaptive_quad.calls", "count"),
    ("special.adaptive_quad.self_s", "s"),
    ("montecarlo.simulate_ber.calls", "count"),
    ("montecarlo.simulate_ber.self_s", "s"),
    ("montecarlo.draws", "count"),
    ("montecarlo.redundant_draw_ratio", "ratio"),
    ("cli.synth_s", "s"),
    ("cli.fit_s", "s"),
    ("cli.gof_s", "s"),
    ("cli.perf_s", "s"),
    ("cli.simulate_s", "s"),
    ("cli.read_samples.self_s", "s"),
    ("cli.write_samples.self_s", "s"),
    ("trace_overhead", "ratio"),
    ("fail_ratio", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment():
    """Re-execute this script once with the pinned environment."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def git_sha():
    """The checked-out commit, read from .git when the checkout has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment_lines(args, digest):
    import numpy
    import scipy

    blas = ",".join(f"{k}={os.environ.get(k)}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return [
        f"git_sha {git_sha()}",
        f"nproc {os.cpu_count()}",
        f"python {platform.python_version()} numpy {numpy.__version__} scipy {scipy.__version__}",
        f"blas_threads {blas}",
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        f"input_digest {digest}",
    ]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uwoc", "__init__.py")):
        print(f"error: no uwoc package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, SRC)

    import uwoc
    import workloads

    if not os.path.abspath(uwoc.__file__).startswith(SRC + os.sep):
        print(f"error: imported uwoc from {uwoc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    try:
        return run(args, workloads.WORKLOADS[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload):
    import numpy as np

    import harness
    import tracing
    import workloads

    origin = time.perf_counter()
    lines = environment_lines(args, workload.digest())
    setup_s, raw_setup_s = harness.measure_setup(dict(os.environ), ROOT, SETUP_REPS,
                                                 workloads.setup_probe())
    workload.warmup()
    ops = workload.ops()
    probe = workload.probe()

    if not args.trace:
        results = harness.run_ops(ops, args.seconds, probe=probe)
        passes = [results]
    else:
        # fixed work so that every count repeats: one untraced pass, one traced
        results = harness.run_ops(ops, 0, max_passes=1, probe=probe)
        trace_ops = workload.trace_ops()
        untraced = results
        if trace_ops is not None:
            untraced = harness.run_ops(trace_ops, 0, max_passes=1, probe=workload.probe())
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = harness.run_ops(trace_ops or ops, 0, max_passes=1, tracer=tracer,
                                     probe=workload.probe())
        passes = [results, traced]

    failures = workload.check(results)
    if args.trace and trace_ops is None:
        failures.update(workload.check(traced))
    attempted = failed = 0
    failing = dict(failures)
    for pass_results in passes:
        a, f = harness.count_failures(pass_results, failures)
        attempted += a
        failed += f
        for key, r in pass_results.items():
            if r.error is not None:
                failing[key] = f"raised {type(r.error).__name__}: {r.error}"
            elif r.mismatches:
                failing[key] = "repeated execution returned a different output"

    known = workloads.load_known_failures()
    unexpected = sorted(k for k in failing if k not in known)
    for key in sorted(failing):
        cause = known[key]["defect"] if key in known else "UNEXPECTED"
        lines.append(f"FAIL [{cause}] {key}: {failing[key]}")
    lines.append(f"failures {len(failing)} ops, {len(unexpected)} not in known_failures.json")

    latencies = workload.latencies_ms(results)
    figures = {
        "setup_s": setup_s,
        "wall_s": harness.wall_s(results),
        "op_ms.p50": float(np.percentile(latencies, 50)),
        "op_ms.p99": float(np.percentile(latencies, 99)),
    }
    extras = {
        "fail_ratio": failed / attempted,
        "ops": len(results),
        "executions": sum(r.executions for r in results.values()),
        "raw_wall_s": harness.wall_s(results, raw=True),
        "raw_setup_s": raw_setup_s,
    }
    if probe is not None:
        extras.update(probe.summary())
    extras.update(workload.extras(results))
    for name, value in figures.items():
        lines.append(f"e2e {name} {value!r} {dict(END_TO_END)[name]}")
    for name, value in extras.items():
        lines.append(f"extra {name} {value!r}")

    if args.trace:
        layer = {name: 0.0 for name, _ in PER_LAYER}
        layer.update(tracing.layer_metrics(tracer.spans))
        layer["performance.crosscheck_warnings"] = sum(r.crosscheck_warnings for r in traced.values())
        layer["trace_overhead"] = harness.wall_s(traced) / harness.wall_s(untraced) - 1.0
        layer["fail_ratio"] = failed / attempted
        layer.update(workload.layer_figures(results))
        units = dict(PER_LAYER)
        metrics = {name: layer[name] for name, _ in PER_LAYER}
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(trace_path, origin)
        lines.append(f"trace {os.path.relpath(trace_path, ROOT)} ({len(tracer.spans)} spans)")
        lines.extend(f"layer {name} {value!r} {units[name]}" for name, value in metrics.items())
    else:
        units = dict(END_TO_END)
        metrics = figures
    for line in lines:
        print(line)

    for name, value in metrics.items():
        if not math.isfinite(value):
            print(f"error: metric {name} is {value!r}", file=sys.stderr)
            return 3
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
