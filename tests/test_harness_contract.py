"""The functions perfbench/child.py wraps in a traced run exist as it expects.

A traced benchmark run patches every ``baryfed.<module>.<fn>`` named in
child.py's WRAPPED and reads two arguments by position or name to compute
work per call. Renaming one of those functions or arguments would only show
up as a missing wrapper or a failed traced run; these tests catch it here.
The harness file is parsed, not imported or changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

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
