"""The names the benchmark harness under `perfbench/` looks up in the package.

The harness wraps functions at the attributes their callers look up and calls
the command-line layer directly, so a rename in `src/` would break it only when
the benchmark runs.  These tests read `perfbench/` and import none of it."""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

import pytest

from sslcrop import cli
from sslcrop.train import TrainTrace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def wrap_points():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAP_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no WRAP_POINTS")


@pytest.mark.parametrize("layer, module, attr, count", wrap_points())
def test_every_wrap_point_resolves_to_a_function(layer, module, attr, count):
    assert callable(getattr(importlib.import_module(module), attr)), layer


@pytest.mark.parametrize("name", ["DEFAULTS", "settings_to_runconfig", "settings_to_synthconfig", "run",
                                  "run_matrix", "write_artifacts", "pretrain"])
def test_workload_and_child_names_resolve_in_cli(name):
    assert hasattr(cli, name)
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8") + \
        (PERFBENCH / "child.py").read_text(encoding="utf-8")
    assert f"cli.{name}" in text  # still a name the harness calls


def test_step_times_read_the_trace_seconds():
    assert "trace.seconds" in (PERFBENCH / "child.py").read_text(encoding="utf-8")
    assert "seconds" in {f.name for f in fields(TrainTrace)}
