"""The package stays numpy-only: every import in `src/sslcrop` is of the
standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

import sslcrop

SRC = Path(sslcrop.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sslcrop"}


def imported_roots(tree: ast.AST):
    """The top-level package of each absolute import in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: the package itself
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    imports = {(path.name, root) for path in sorted(SRC.glob("*.py"))
               for root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))}
    assert ("tensor.py", "numpy") in imports  # the walk sees the imports at all
    foreign = sorted((name, root) for name, root in imports if root not in ALLOWED)
    assert not foreign, foreign
