"""Self-tests of the benchmark's own arithmetic; no workload runs.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import statistics

import pytest

import checks
import run
import spans
from child import Tracer

# (sid, parent, name, start, end, work)
NESTED = [
    (0, -1, "cli.main", 0.0, 10.0, None),
    (1, 0, "federation.run_experiment", 1.0, 4.0, None),
    (2, 1, "models.loss_and_grad", 2.0, 3.0, 100.0),
    (3, 0, "federation.run_experiment", 5.0, 9.0, None),
    (4, 3, "geometry.aggregate", 5.5, 6.5, 2e9),
    (5, 3, "geometry.aggregate", 7.0, 7.5, 1e9),
]


def test_self_time_of_nested_spans():
    selfs = spans.self_times(NESTED)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.0, 5: 0.5}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_count_once():
    assert spans.covered([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0
    threaded = [(0, -1, "a.f", 0.0, 10.0, None), (1, 0, "b.g", 1.0, 4.0, None), (2, 0, "b.g", 3.0, 6.0, None)]
    assert spans.self_times(threaded)[0] == 5.0


def test_per_function_layer_and_coverage():
    fns = spans.per_function(NESTED)
    assert fns["federation.run_experiment"] == {"calls": 2, "incl_s": 7.0, "self_s": 4.5, "work": 0.0}
    assert fns["geometry.aggregate"]["work"] == 3e9
    layers = spans.per_layer(fns)
    assert layers == {"cli": 3.0, "federation": 4.5, "models": 1.0, "geometry": 1.5}
    assert spans.coverage(NESTED) == pytest.approx(0.7)


def test_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 8.0, 7.0, 10.0, 9.0]
    q1, q2, q3 = spans.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert spans.relative_spread(values) == pytest.approx(5.5 / 5.5)
    assert spans.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_useful_ratio():
    assert spans.useful_ratio(60, 4620) == pytest.approx(0.012987012987)
    assert spans.useful_ratio(573, 573) == 1.0
    assert spans.useful_ratio(0, 0) == 0.0


def test_computed_work():
    # 20 posteriors of P=79,510: 21 (mean, var) pairs of float64
    assert spans.aggregate_bytes(20, 79_510) == 21 * 79_510 * 16
    # 2-32-3 MLP on 450 rows: forward and weight grads on both layers,
    # input grads through the second only
    assert spans.mlp_grad_flops((2, 32, 3), 450) == 2 * 450 * (2 * (64 + 96) + 96)


def test_traced_metrics_cover_every_reported_name():
    metrics = run.traced_metrics(NESTED, useful=1, membw=5.0)
    assert list(metrics) == run.traced_names()
    assert metrics["geometry.aggregate.computed_gbps"] == pytest.approx(3e9 / 1.5 / 1e9)
    assert metrics["models.loss_and_grad.computed_gflops"] == pytest.approx(100.0 / 1e9)
    assert metrics["models.loss_and_grad.us_per_call"] == pytest.approx(1e6)
    assert metrics["evaluation.evaluate.calls"] == 0
    assert metrics["evaluation.evaluate.useful_ratio"] == 0.0
    assert metrics["cli.self_s"] == 3.0


def test_coverage_guard_names_unhit_wrappers():
    metrics = run.traced_metrics(NESTED, useful=0, membw=5.0)
    errors = run.coverage_errors(run.WORKLOADS["fedsim_small"], metrics, {"restored": True, "missing": []})
    assert "coverage guard: models.loss_and_grad recorded no calls" not in errors
    assert "coverage guard: evaluation.evaluate recorded no calls" in errors
    assert not any("wilcoxon" in e for e in errors)
    errors = run.coverage_errors(run.WORKLOADS["compare_agg"], metrics, {"restored": False, "missing": ["x.y"]})
    assert any("wilcoxon" in e for e in errors)
    assert "wrapper target missing: x.y" in errors
    assert "a wrapper was not removed after the run" in errors


def test_tracer_records_parents_and_failed_calls():
    tracer = Tracer("t")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_w = tracer.wrap("m.inner", inner, work=lambda a, k, r: float(r))
    outer = tracer.wrap("m.outer", lambda x: inner_w(x) + inner_w(x))
    assert outer(2) == 4
    with pytest.raises(ValueError):
        inner_w(-1)
    by_name = [(s[spans.NAME], s[spans.PARENT], s[spans.WORK]) for s in tracer.spans]
    outer_id = next(s[spans.SID] for s in tracer.spans if s[spans.NAME] == "m.outer")
    assert by_name == [
        ("m.inner", outer_id, 2.0),
        ("m.inner", outer_id, 2.0),
        ("m.outer", -1, None),
        ("m.inner", -1, None),
    ]
    assert all(s[spans.END] >= s[spans.START] for s in tracer.spans)


def test_seed_offsets_and_config_hash():
    wl = run.WORKLOADS["fedsim_small"]
    assert run.seeds_for(wl, 0) == [0, 1, 2]
    assert run.seeds_for(wl, 2) == [6, 7, 8]
    assert run.seeds_for(wl, 1, base=[5, 9]) == [7, 11]
    resolved = {"a": {"b": 1.0, "c": "synth", "extra": 3}, "l": [0.0, "inf"]}
    assert checks.contains(resolved, {"a": {"b": 1, "c": "synth"}, "l": [0, "inf"]}) is None
    assert checks.contains(resolved, {"a": {"c": "idx"}}) == "a.c"
    assert checks.contains(resolved, {"a": {"b": 2}}) == "a.b"
    assert checks.contains(resolved, {"l": [0]}) == "l"
    assert checks.canonical_sha256({"b": 1, "a": [1.5]}) == checks.canonical_sha256({"a": [1.5], "b": 1})


def test_reference_p_value():
    assert checks.reference_p([1.0, 2, 3, 4, 5, 6], [0.0] * 6) == 0.03125
    # Tied ranks. |d| = 1, 1, 2: midranks 1.5, 1.5, 3; W- = 1.5. Of the 8 sign patterns,
    # W+ <= 1.5 for {}, {first 1}, {second 1}: p = 2 * 3/8.
    assert checks.reference_p([1.0, -1.0, 2.0], [0.0] * 3) == 0.75
    # Five tied |d| (midrank 3 each), W- = 3: p = 2 * P(at most one +) = 12/32.
    # SciPy's exact method scores untied ranks 1..5 and gives 10/32.
    assert checks.reference_p([1.0, 1, 1, 1, -1], [0.0] * 5) == 0.375


def test_benchmark_json_matches_what_run_reports():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
