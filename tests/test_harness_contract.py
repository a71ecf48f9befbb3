"""The functions perfbench/child.py wraps in a traced run exist as it expects.

A traced benchmark run patches every ``baryfed.<module>.<fn>`` named in
child.py's WRAPPED and reads two arguments by position or name to compute
work per call. Its coverage guard then fails a workload on which a wrapped
function recorded no call. Renaming one of those functions or arguments, or
a command that stops calling one, would only show up as a missing wrapper
or a failed traced run; these tests catch it here. The harness file is
parsed, not imported or changed.
"""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from baryfed import federation, models
from baryfed.cli import main

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def wrapped_names() -> list[str]:
    tree = ast.parse(CHILD.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in node.value.elts]
    raise AssertionError(f"no WRAPPED tuple in {CHILD}")


def wrapped(name: str):
    module, _, fn = name.partition(".")
    return getattr(importlib.import_module(f"baryfed.{module}"), fn)


def test_wrapped_list_is_read():
    assert "evaluation.evaluate" in wrapped_names()


@pytest.mark.parametrize("name", wrapped_names())
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


def count_wrapped_calls(monkeypatch) -> dict[str, int]:
    """Calls per wrapped function from here on, counted on every binding of
    it, as child.py's Tracer does."""
    calls = dict.fromkeys(wrapped_names(), 0)
    modules = [m for n, m in sys.modules.items() if n == "baryfed" or n.startswith("baryfed.")]

    def counter(name, fn):
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    for name in calls:
        original = wrapped(name)
        counting = counter(name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, counting)
    return calls


def run_command(tmp_path, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "out_dir": str(tmp_path / "out")}))
    assert main([command, str(path)]) == 0


@pytest.mark.parametrize(
    "command, config, optional",
    [
        ("compare-agg", COMPARE_CONFIG, set()),
        ("run", RUN_CONFIG, {"evaluation.wilcoxon_signed_rank"}),
    ],
    ids=["compare-agg", "run"],
)
def test_command_calls_every_wrapped_function(tmp_path, monkeypatch, command, config, optional):
    calls = count_wrapped_calls(monkeypatch)
    run_command(tmp_path, command, config)
    assert [name for name, n in calls.items() if n == 0 and name not in optional] == []


def test_compare_agg_geometry_call_counts(tmp_path, monkeypatch):
    # one project call personalizes a client for the whole lambda grid, and
    # aggregate runs on the server only: a fallback to one project call per
    # lambda, or to one aggregate per projection, multiplies these counts
    calls = count_wrapped_calls(monkeypatch)
    run_command(tmp_path, "compare-agg", COMPARE_CONFIG)
    seeds, methods = len(COMPARE_CONFIG["seeds"]), len(COMPARE_CONFIG["compare"]["methods"])
    clients = COMPARE_CONFIG["partition"]["n_clients"]
    rounds = COMPARE_CONFIG["federation"]["rounds"]
    assert calls["geometry.project"] == seeds * methods * clients == 60
    assert calls["geometry.aggregate"] == seeds * methods * rounds == 45


def test_run_call_counts_at_one_job_blocks(tmp_path, monkeypatch):
    # with one (method, client) job per block, scoring projects and scores
    # one client at a time: one project call, and one evaluate call on its
    # shard and one on the pooled test set
    data, hidden = RUN_CONFIG["dataset"], RUN_CONFIG["model"]["hidden"]
    layers = (data["dim"], *hidden, data["classes"])
    monkeypatch.setattr(federation, "GROUP_PARAMS", models.param_count(models.MlpSpec(layers)))
    calls = count_wrapped_calls(monkeypatch)
    run_command(tmp_path, "run", RUN_CONFIG)
    clients = RUN_CONFIG["partition"]["n_clients"]
    assert calls["geometry.project"] == clients == 4
    assert calls["evaluation.evaluate"] == 2 * clients == 8
