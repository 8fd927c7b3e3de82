"""Self-tests of the benchmark: checks, failure counting, self time, inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from uwoc.errors import ConvergenceError  # noqa: E402


def test_value_off_by_1e_3_fails_and_exact_value_passes():
    table = workloads.load_reference()
    certified = [(k, v) for k, (v, ok) in table.items() if ok and v > 1e-200]
    assert len(certified) > 1000
    for key, ref in certified[:: len(certified) // 25]:
        metric = key.split("/")[2]
        assert workloads.check_point(ref, ref, True, metric) is None
        assert workloads.check_point(ref * (1 + 1e-3), ref, True, metric) is not None
        assert workloads.check_point(ref * (1 - 1e-3), ref, True, metric) is not None


def test_uncertified_point_is_checked_for_range_only():
    assert workloads.check_point(0.3, 0.1, False, "outage") is None
    assert workloads.check_point(1.5, 0.1, False, "outage") is not None
    assert workloads.check_point(float("nan"), 0.1, False, "ber") is not None
    assert workloads.check_point(-1.0, 0.1, False, "capacity") is not None


def test_monte_carlo_band():
    assert workloads.check_estimate(0.1 + 4e-4, 1e-4, 0.1) is None
    assert workloads.check_estimate(0.1 + 6e-4, 1e-4, 0.1) is not None


def test_raised_convergence_error_counts_as_failure():
    def diverge():
        raise ConvergenceError("quadrature did not converge", estimate=1.0, error_bound=1.0)

    ops = [harness.Op("good", lambda: 1.0), harness.Op("bad", diverge)]
    results = harness.run_ops(ops, 60, max_passes=2)
    assert isinstance(results["bad"].error, ConvergenceError)
    assert harness.count_failures(results, {}) == (2, 1)


def test_check_failure_and_changed_output_count_as_failures():
    outputs = iter([1.0, 2.0])
    ops = [harness.Op("wrong", lambda: 0.5), harness.Op("flaky", lambda: next(outputs))]
    results = harness.run_ops(ops, 60, max_passes=2)
    assert results["flaky"].mismatches == 1
    assert harness.count_failures(results, {"wrong": "off"}) == (2, 2)


def test_counts_do_not_depend_on_the_number_of_passes():
    def diverge():
        raise ConvergenceError("quadrature did not converge", estimate=1.0, error_bound=1.0)

    ops = [harness.Op("good", lambda: 1.0), harness.Op("bad", diverge), harness.Op("wrong", lambda: 2.0)]
    counts = {
        passes: harness.count_failures(harness.run_ops(ops, 60, max_passes=passes), {"wrong": "off"})
        for passes in (1, 3)
    }
    assert counts[1] == counts[3] == (3, 2)


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, "op-1")


def test_self_time_of_hand_built_tree_is_exact():
    spans = [
        _span("op", 0.0, 10.0, None),          # 0
        _span("em.fit", 0.5, 9.5, 0),          # 1
        _span("em.m_step_gg", 1.0, 4.0, 1),    # 2
        _span("distributions.cdf", 2.0, 2.75, 2),  # 3
        _span("em.m_step_exp", 5.0, 5.25, 1),  # 4
        _span("em.m_step_gg", 6.0, 8.5, 1),    # 5
    ]
    assert tracing.self_times(spans) == [1.0, 3.25, 2.25, 0.75, 0.25, 2.5]
    metrics = tracing.layer_metrics(spans)
    assert metrics["em.m_step_gg.calls"] == 2
    assert metrics["em.m_step_gg.self_s"] == 4.75
    assert metrics["em.fit.self_s"] == 3.25


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("op", 0.0, 8.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),
        _span("c", 7.0, 9.0, 0),  # runs past its parent: only 1.0 is inside
    ]
    assert tracing.self_times(spans)[0] == 8.0 - 5.0 - 1.0


def test_wrapped_calls_record_spans_and_restore_the_package():
    import uwoc.performance as perf
    from uwoc.presets import condition

    original = perf.avg_ber_quadrature
    tracer = tracing.Tracer()
    link = perf.LinkBudget(condition("2.4lpm-0.05C").egg, perf.IMDD, 100.0)
    with tracing.installed(tracer):
        with tracer.operation("p"):
            value = perf.avg_ber(link, perf.Modulation.ook())
    assert perf.avg_ber_quadrature is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["op", "performance.avg_ber", "performance.avg_ber_quadrature"]
    assert "special.fox_h_ln" in names and "special.adaptive_quad" in names
    assert all(s.op == "p" for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans)
    assert 0.0 < metrics["performance.returned_route_share"] < 1.0
    assert tracer.spans[1].meta["value"] == value


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, str(tmp_path)).digest()
    assert cls(7, str(tmp_path)).digest() == first
    assert cls(8, str(tmp_path)).digest() != first


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_known_failures_name_real_points_and_defects():
    table = workloads.load_reference()
    for key, item in workloads.load_known_failures().items():
        assert key in table
        assert item["defect"] in ("A", "B", "C")
        assert item["cause"]


def test_curves_check_flags_an_injected_error(tmp_path):
    curves = workloads.Curves(3, str(tmp_path))
    table = workloads.load_reference()
    key = "23.6lpm-0.22C/imdd/capacity/+50dB"
    good, bad = harness.OpResult(), harness.OpResult()
    good.output = table[key][0]
    bad.output = table[key][0] * (1 + 1e-3)
    assert curves.check({key: good}) == {}
    assert list(curves.check({key: bad})) == [key]


def test_speed_probe_scales_by_the_kernel_time_around_each_execution():
    probe = harness.SpeedProbe(lambda: None, reference_s=1.0, alpha=0.5)
    probe.samples = [(0.0, 1.0), (1.0, 4.0), (2.0, 16.0)]
    assert probe.kernel_s(0.2, 0.8) == 2.5  # samples at 0.0 and 1.0
    assert probe.kernel_s(0.5, 1.5) == 7.0  # 0.0, 1.0 and 2.0
    assert probe.scale(1.0, 1.0) == 0.5  # (1 / 4) ** 0.5
