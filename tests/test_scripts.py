"""The scripts stay in step with the package: every name a `scripts/*.py` file
imports from `sslcrop` exists, including the imports inside functions, which
run only in a script's child processes, and the package calls those functions
make take the arguments they pass."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def sslcrop_imports(tree: ast.AST):
    """(module, name) of each `import sslcrop...` (name None) and `from sslcrop... import name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "sslcrop")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "sslcrop":
            yield from ((node.module, alias.name) for alias in node.names)


def missing(module: str, name: str | None) -> bool:
    try:
        found = importlib.import_module(module)
        if name is not None and not hasattr(found, name):
            importlib.import_module(f"{module}.{name}")  # a submodule not imported yet
    except ImportError:
        return True
    return False


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_every_name_a_script_imports_from_the_package_exists(script):
    imports = set(sslcrop_imports(ast.parse(script.read_text(encoding="utf-8"))))
    assert imports  # the walk sees the imports at all
    absent = sorted(((module, name) for module, name in imports if missing(module, name)), key=str)
    assert not absent, absent


def test_criteria_sweep_oa_predicts_with_the_package_signature():
    """`criteria_sweep._oa` runs only in the sweep's child processes, so a change to
    `model.predict_classes`'s arguments would pass the import check and break the
    sweep: call it on a tiny trained model and check it against the package's own OA."""
    spec = importlib.util.spec_from_file_location("criteria_sweep", SCRIPTS_DIR / "criteria_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    from sslcrop import evaluation as E
    from sslcrop import model as M
    from sslcrop.model import EncoderConfig
    from sslcrop.train import TrainConfig, train_supervised
    from conftest import make_dataset

    data = make_dataset(n_per_class=3, n_bands=4, n_steps=6, seed=3)
    state, _ = train_supervised(data, TrainConfig(batch_size=8, epochs_supervised=1, seed=1),
                                EncoderConfig(n_bands=4, n_steps=6, d_model=8, n_heads=2, n_layers=1, ff_dim=16))
    oa = sweep._oa(state, data)
    want = E.overall_accuracy(M.predict_classes(state, M.encoder_batch(s.reflectance for s in data.samples)),
                              data.labels_array())
    assert 0.0 <= oa <= 1.0 and oa == want
