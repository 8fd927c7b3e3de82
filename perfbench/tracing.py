"""Spans around the public functions of each ``uwoc`` module, from outside.

``installed(tracer)`` replaces each traced function, at every module name
that refers to it (so calls from inside the package are caught where the
package looks the name up), and each traced method on the class that defines
it, with a wrapper that records a span: name, start, end, parent span and
the benchmark operation it belongs to.  Spans stay in memory and are written
out at the end of the run.  A span's self time is its duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

_SAMPLERS = ("EggParams", "EgParams", "ExpLognormalParams")

# span name -> (module, attribute); every module-level name bound to the same
# function object inside the package is patched
FUNCTIONS = {
    "em.fit": ("uwoc.em", "fit"),
    "em.m_step_gg": ("uwoc.em", "m_step_gg"),
    "em.m_step_exp": ("uwoc.em", "m_step_exp"),
    "gof.mse_cdf": ("uwoc.gof", "mse_cdf"),
    "gof.build_histogram": ("uwoc.gof", "build_histogram"),
    "gof.r_square": ("uwoc.gof", "r_square"),
    "performance.outage": ("uwoc.performance", "outage"),
    "performance.avg_ber": ("uwoc.performance", "avg_ber"),
    "performance.ergodic_capacity": ("uwoc.performance", "ergodic_capacity"),
    "performance.avg_ber_quadrature": ("uwoc.performance", "avg_ber_quadrature"),
    "performance.capacity_quadrature": ("uwoc.performance", "capacity_quadrature"),
    "special.fox_h_ln": ("uwoc.special", "fox_h_ln"),
    "special.adaptive_quad": ("uwoc.special", "adaptive_quad"),
    "montecarlo.simulate_ber": ("uwoc.montecarlo", "simulate_ber"),
    "cli.read_samples": ("uwoc.cli", "read_samples"),
    "cli.write_samples": ("uwoc.cli", "write_samples"),
}

# span name -> [(module, class, method)]
METHODS = {
    "distributions.component_log_pdfs": [("uwoc.distributions", "_Mixture", "component_log_pdfs")],
    "distributions.sample": [("uwoc.distributions", c, "sample") for c in _SAMPLERS],
    "distributions.cdf": [("uwoc.distributions", c, "cdf") for c in _SAMPLERS],
}

PACKAGE_MODULES = (
    "uwoc", "uwoc.distributions", "uwoc.em", "uwoc.gof", "uwoc.performance",
    "uwoc.special", "uwoc.montecarlo", "uwoc.cli",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    meta: dict = field(default_factory=dict)


def _points(args):
    return {"points": int(np.size(args["i"]))}


def _draws(args):
    size = args["size"]
    return {"draws": 1 if size is None else int(size)}


def _fit(args, report):
    return {"iterations": report.iterations, "restarts": args["cfg"].restarts}


def _value(args, value):
    return {"value": value}


def _sim_key(args):
    link, cfg = args["link"], args["cfg"]
    return {"key": repr((link.params, cfg.seed)), "n": cfg.n_samples}


# span name -> (meta from bound arguments, meta from arguments and result)
_META = {
    "distributions.component_log_pdfs": (_points, None),
    "distributions.sample": (_draws, None),
    "em.fit": (None, _fit),
    "performance.avg_ber": (None, _value),
    "performance.ergodic_capacity": (None, _value),
    "performance.avg_ber_quadrature": (None, _value),
    "performance.capacity_quadrature": (None, _value),
    "montecarlo.simulate_ber": (_sim_key, None),
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: str | None = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return self.spans[index]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, key):
        """Root span of one benchmark operation; its key tags every child."""
        self._op = key
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def wrap(self, name, fn):
        before, after = _META.get(name, (None, None))
        signature = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.meta["raised"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if before:
                span.meta.update(before(bound))
            if after:
                span.meta.update(after(bound, result))
            return result

        return traced

    def write_jsonl(self, path, origin):
        with open(path, "w") as handle:
            for span in self.spans:
                row = {
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "op": span.op,
                }
                row.update({k: v for k, v in span.meta.items() if k != "value"})
                handle.write(json.dumps(row) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced function and method for the duration of the block."""
    modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
    undo = []
    try:
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = tracer.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, targets in METHODS.items():
            for module, cls_name, attr in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def self_times(spans):
    """Self time of each span: duration minus the union of its children."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[index]
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out


def _has_ancestor(spans, index, prefix):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


_ROUTED = {
    "performance.avg_ber": "performance.avg_ber_quadrature",
    "performance.ergodic_capacity": "performance.capacity_quadrature",
}


def layer_metrics(spans):
    """Per-layer counts and self times from one traced pass."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)

    out = {}
    for name in list(FUNCTIONS) + list(METHODS):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.self_s"] = float(sum(selfs[i] for i in by_name[name]))

    def per_unit(name, unit):
        total = sum(spans[i].meta.get(unit, 0) for i in by_name[name])
        return out[f"{name}.self_s"] * 1e9 / total if total else 0.0

    out["distributions.component_log_pdfs.ns_per_point"] = per_unit(
        "distributions.component_log_pdfs", "points")
    out["distributions.sample.ns_per_draw"] = per_unit("distributions.sample", "draws")

    fits = [spans[i].meta for i in by_name["em.fit"]]
    out["em.iterations"] = sum(m.get("iterations", 0) for m in fits)
    out["em.restarts"] = sum(m.get("restarts", 0) for m in fits)

    # a metric call that raised ConvergenceError out of the performance layer
    out["performance.convergence_errors"] = sum(
        1
        for name in ("performance.outage", "performance.avg_ber", "performance.ergodic_capacity")
        for i in by_name[name]
        if spans[i].meta.get("raised") == "ConvergenceError"
        and not _has_ancestor(spans, i, "performance.")
    )

    # share of metric-call time spent in the route whose value was returned
    returned = total = 0.0
    for name, route in _ROUTED.items():
        for i in by_name[name]:
            span = spans[i]
            duration = span.end - span.start
            total += duration
            if "raised" in span.meta:
                continue
            quad = [c for c in children[i] if spans[c].name == route]
            if not quad:
                returned += duration
                continue
            quad_time = sum(spans[c].end - spans[c].start for c in quad)
            if any(spans[c].meta.get("value") == span.meta.get("value") for c in quad):
                returned += quad_time
            else:
                returned += duration - quad_time
    out["performance.returned_route_share"] = returned / total if total else 0.0

    sims = [i for name in by_name if name.startswith("montecarlo.") for i in by_name[name]]
    draws = sum(
        spans[i].meta.get("draws", 0)
        for i in by_name["distributions.sample"]
        if _has_ancestor(spans, i, "montecarlo.")
    )
    needed = {}
    for i in sims:
        meta = spans[i].meta
        if "key" in meta:
            needed[meta["key"]] = max(needed.get(meta["key"], 0), meta["n"])
    out["montecarlo.draws"] = draws
    out["montecarlo.redundant_draw_ratio"] = draws / sum(needed.values()) if needed else 0.0
    return out
