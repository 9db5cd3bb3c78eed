"""The runtime footprint is the standard library alone: every import in
the package, at module level or inside a function, names the standard
library or `torelli` itself; and `import torelli.cli` loads only what
its table-building commands run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import torelli

ALLOWED = set(sys.stdlib_module_names) | {"torelli"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            root = "torelli" if node.level else node.module.split(".")[0]
            yield node.lineno, root


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, root in _imported_roots(tree):
            if root not in ALLOWED:
                foreign.append(f"{path.name}:{lineno} imports {root}")
    assert not foreign, foreign


def test_cli_import_loads_only_what_its_main_commands_run():
    # Every command starts a fresh interpreter, so the import is paid per
    # run: `json`, `dataclasses`, `graphs` and `invariants` wait until a
    # command needs them, no third-party parser is loaded, and the package
    # still exports every name.
    src = str(Path(torelli.__file__).parent.parent)
    script = (
        "import sys, torelli.cli\n"
        "print(sorted(m for m in ('click', 'dataclasses', 'json', 'torelli.graphs', "
        "'torelli.invariants') if m in sys.modules))\n"
        "import torelli\n"
        "missing = [name for name in torelli.__all__ if getattr(torelli, name, None) is None]\n"
        "from torelli import branching, characters, invariants, labels, pipeline, setparts, symfunc\n"
        "print(missing, invariants.__name__, torelli.matching_span_rank.__module__)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == ["[]", "[] torelli.invariants torelli.invariants"]


def test_the_graph_oracle_stays_out_of_the_package():
    # The cubic rewriting, the canonical forms and the presentation audit
    # check the contraction from tests/graph_oracle.py; the package keeps
    # one contraction route, and every lazy export is a public name.
    from torelli import _LAZY, graphs

    moved = ["reduce_trivalent", "presentation_audit", "SignedGraphVector", "compare_sign", "canonical"]
    assert [name for name in moved if hasattr(graphs, name)] == []
    assert not hasattr(graphs.MarkedGraph, "canonical")
    assert sorted(set(_LAZY) - set(torelli.__all__)) == []
