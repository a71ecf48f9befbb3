"""The functions perfbench/child.py wraps in a traced run exist, are called
and yield positive work, as it expects.

A traced benchmark run patches every ``baryfed.<module>.<fn>`` named in
child.py's WRAPPED and computes work per call from some calls' arguments or
results: ``_aggregate_bytes`` reads ``posteriors[0].dim``, ``_grad_flops``
reads ``spec.layer_sizes`` and ``batch.size``, and ``partition_indices``'s
work is its draw's ``attempts``. Its coverage guard then fails a workload on
which a wrapped function recorded no call. These tests run commands in
process under child.py's own ``Tracer``, so a renamed function or argument,
a command that stops calling one, or a work function that no longer reads
its call fails here, not only in a traced benchmark run. The harness is
imported, never changed.
"""

import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from baryfed import federation, models
from baryfed.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))  # child.py imports its sibling spans.py
import child  # noqa: E402

WRAPPED = [f"{module}.{fn}" for module, fn, _ in child.WRAPPED]
WITH_WORK = {f"{module}.{fn}" for module, fn, work in child.WRAPPED if work is not None}


def wrapped(name: str):
    module, _, fn = name.partition(".")
    return getattr(importlib.import_module(f"baryfed.{module}"), fn)


def test_wrapped_list_is_read():
    assert "evaluation.evaluate" in WRAPPED
    assert WITH_WORK == {"data.partition_indices", "models.loss_and_grad", "geometry.aggregate"}


@pytest.mark.parametrize("name", WRAPPED)
def test_wrapped_function_exists(name):
    assert callable(wrapped(name))


@pytest.mark.parametrize(
    "name,index,arg", [("models.loss_and_grad", 2, "batch"), ("geometry.aggregate", 1, "posteriors")]
)
def test_work_argument_names(name, index, arg):
    # child.py's _grad_flops and _aggregate_bytes read these arguments
    assert list(inspect.signature(wrapped(name)).parameters)[index] == arg


# perfbench's compare_agg workload (the criterion-08 config) on 5 seeds, and a
# tiny run; the run holds no signed-rank test.
COMPARE_CONFIG = {
    "dataset": {"kind": "synth", "classes": 3, "dim": 2, "n_per_class": 40, "spread": 0.3},
    "model": {"hidden": [8]},
    "partition": {"n_clients": 4, "beta": 1.0, "min_shard": 5},
    "optimizer": {"lr_initial": 0.3, "lr_final": 0.1},
    "federation": {"rounds": 3, "local_epochs": 3, "batch_size": 200},
    "eval": {"mc_samples": 4},
    "compare": {"methods": ["eaa", "w2b", "rklb"]},
    "seeds": [0, 1, 2, 3, 4],
}
RUN_CONFIG = {
    **COMPARE_CONFIG,
    "federation": {"rounds": 1, "local_epochs": 1, "batch_size": 200},
    "personalization": {"lambdas": [0, 1, "inf"]},
    "seeds": [0],
}


def run_command(tmp_path, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "out_dir": str(tmp_path / "out")}))
    assert main([command, str(path)]) == 0


def traced(tmp_path, command, config) -> Counter:
    """Calls per wrapped function of one command run in process under
    child.py's Tracer, which wraps every binding of each; the tracer finds
    every function, restores every binding, and every work value it
    records is positive."""
    tracer = child.Tracer("test")
    tracer.install()
    try:
        run_command(tmp_path, command, config)
    finally:
        restored = tracer.uninstall()
    assert tracer.missing == []
    assert restored
    spans = [(name, work) for _, _, name, _, _, work in tracer.spans]
    assert [(name, work) for name, work in spans if name in WITH_WORK and not work > 0] == []
    return Counter(name for _, _, name, *_ in tracer.spans)


@pytest.mark.parametrize(
    "command, config, optional",
    [
        ("compare-agg", COMPARE_CONFIG, set()),
        ("run", RUN_CONFIG, {"evaluation.wilcoxon_signed_rank"}),
    ],
    ids=["compare-agg", "run"],
)
def test_command_calls_every_wrapped_function(tmp_path, command, config, optional):
    calls = traced(tmp_path, command, config)
    assert [name for name in WRAPPED if calls[name] == 0 and name not in optional] == []


def test_compare_agg_geometry_call_counts(tmp_path):
    # one project call personalizes a block of (method, client) jobs for the
    # whole lambda grid, and at P = 51 a seed's jobs are one block; aggregate
    # runs on the server only, once per (round, method) for the lanes of all
    # seeds, and projection_divergence once per client of each such call: a
    # fallback to one project call per client or per lambda, or to one
    # aggregate or divergence call per lane, multiplies these counts
    calls = traced(tmp_path, "compare-agg", COMPARE_CONFIG)
    seeds, methods = len(COMPARE_CONFIG["seeds"]), len(COMPARE_CONFIG["compare"]["methods"])
    rounds = COMPARE_CONFIG["federation"]["rounds"]
    clients = COMPARE_CONFIG["partition"]["n_clients"]
    assert calls["geometry.project"] == seeds == 5
    assert calls["geometry.aggregate"] == methods * rounds == 9
    assert calls["geometry.projection_divergence"] == methods * rounds * clients == 36


def test_compare_agg_trains_every_seed_in_one_lockstep(tmp_path):
    # the seeds build their data once and train each round in one group: a
    # fallback to one pass per seed multiplies these counts by the seeds
    calls = traced(tmp_path, "compare-agg", COMPARE_CONFIG)
    rounds = COMPARE_CONFIG["federation"]["rounds"]
    assert calls["federation.client_update"] == rounds == 3
    assert calls["federation.build_data"] == 1
    assert calls["federation.run_experiment"] == 1


def test_run_call_counts_at_one_job_blocks(tmp_path, monkeypatch):
    # with one (method, client) job per block, scoring projects and scores
    # one client at a time: one project call and one evaluate call per
    # client, after one evaluate call for the global and local posteriors
    data, hidden = RUN_CONFIG["dataset"], RUN_CONFIG["model"]["hidden"]
    layers = (data["dim"], *hidden, data["classes"])
    monkeypatch.setattr(federation, "GROUP_PARAMS", models.param_count(models.MlpSpec(layers)))
    calls = traced(tmp_path, "run", RUN_CONFIG)
    clients = RUN_CONFIG["partition"]["n_clients"]
    assert calls["geometry.project"] == clients == 4
    assert calls["evaluation.evaluate"] == 1 + clients == 5
