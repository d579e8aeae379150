"""The scripts stay in step with the package: every name a `scripts/*.py` file
imports from `sslcrop` exists, including the imports inside functions, which
run only in a script's child processes."""

import ast
import importlib
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


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
