"""The names the benchmark harness under `perfbench/` looks up in the package.

The harness wraps functions at the attributes their callers look up and calls
the command-line layer directly, so a rename in `src/` would break it only when
the benchmark runs.  These tests read `perfbench/` and import none of it."""

import ast
import functools
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


# The wrap points (as `module.attribute`, without `sslcrop.`) that one `cli.run` on
# synthetic data reaches, by method.  A caller that binds a wrapped function
# where perfbench cannot see it (say `simsiam_forward` to a local name) empties
# that point's spans while `classify` still fills the shared `model.forward` layer.
RUN = {"cli.run", "cli.generate", "cli.make_split"}
TRAINED = RUN | {"model.classify", "model.predict_classes", "model.checkpoint_text", "tensor.gradients",
                 "tensor.sgd_step"}
SSL = TRAINED | {"cli.pretrain", "cli.finetune", "model.simsiam_forward", "model.collapse_metric",
                 "evaluation.embed_reference", "evaluation.contrastive_classify_batch"}
FIRED_BY_RUN = {
    ("rf", None): RUN | {"cli.rf_fit", "cli.rf_predict"},
    ("tf", None): TRAINED,
    ("ssl", "aug1"): SSL | {"train.aug1_pair"},
    ("ssl", "aug2"): SSL | {"train.aug2"},
    ("ssl", "aug3"): SSL | {"train.aug3_pair"},
}


@pytest.mark.parametrize("method, aug", FIRED_BY_RUN)
def test_a_run_fires_its_wrap_points(method, aug, monkeypatch):
    fired = set()

    def counting(fn, point):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fired.add(point)
            return fn(*args, **kwargs)
        return wrapper

    for _, module, attr, _ in wrap_points():
        target, point = importlib.import_module(module), f"{module.removeprefix('sslcrop.')}.{attr}"
        monkeypatch.setattr(target, attr, counting(getattr(target, attr), point))
    settings = {**cli.DEFAULTS, "synth_n": 2, "scenario": "e2", "d_model": 8, "n_heads": 2, "n_layers": 1,
                "ff_dim": 16, "batch_size": 16, "epochs_supervised": 1, "epochs_pretrain": 1,
                "epochs_finetune": 1, "n_trees": 2}
    cli.run(cli.settings_to_runconfig(settings, method=method, aug=aug))
    assert fired == FIRED_BY_RUN[method, aug]


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
