"""The runtime footprint is pure Python plus `click`: every import in the
package, at module level or inside a function, names the standard
library, `click`, or `torelli` itself."""

import ast
import sys
from pathlib import Path

import torelli

ALLOWED = set(sys.stdlib_module_names) | {"click", "torelli"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            root = "torelli" if node.level else node.module.split(".")[0]
            yield node.lineno, root


def test_package_imports_only_stdlib_and_click():
    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, root in _imported_roots(tree):
            if root not in ALLOWED:
                foreign.append(f"{path.name}:{lineno} imports {root}")
    assert not foreign, foreign
