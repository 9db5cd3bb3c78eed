"""The command-line contract: help, usage errors and the module entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from cli_run import invoke

import torelli

# every command, with the options its help must name
OPTIONS = {
    (): ["--help"],
    ("cohomology",): ["--dim", "--max-degree", "--variant", "--genus", "--format"],
    ("series",): ["--dim", "--max-degree", "--stage", "--variant"],
    ("oracle",): ["--dim", "--qmax", "--dmax"],
    ("lclass",): ["--max", "--dim"],
    ("graph",): ["reduce"],
    ("graph", "reduce"): ["file", "--variant"],
    ("invariants",): ["rank"],
    ("invariants", "rank"): ["--g", "--set-size", "--epsilon"],
    ("range",): ["--dim", "--genus"],
}
COMMANDS = ["cohomology", "series", "oracle", "lclass", "graph", "invariants", "range"]


@pytest.mark.parametrize("command", list(OPTIONS), ids=lambda c: " ".join(c) or "torelli")
def test_help_names_every_option(command):
    result = invoke([*command, "--help"])
    assert result.exit_code == 0, result.output
    expected = OPTIONS[command] + (COMMANDS if not command else [])
    assert [name for name in expected if name not in result.stdout] == []


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["bogus"],
        ["graph"],
        ["invariants", "bogus"],
        ["cohomology", "--dim", "6"],
        ["oracle", "--dim", "6", "--qmax", "2"],
        ["cohomology", "--dim", "six", "--max-degree", "2"],
        ["cohomology", "--dim", "6", "--max", "2"],
        ["range", "--dim", "6", "--genus", "11", "extra"],
    ],
    ids=[
        "no-command", "unknown-command", "no-graph-command", "unknown-invariants-command",
        "missing-option", "missing-dmax", "non-integer-dim", "abbreviated-option", "extra-argument",
    ],
)
def test_a_usage_error_exits_2_with_empty_stdout(args):
    result = invoke(args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "usage: torelli" in result.output


def test_graph_reduce_needs_an_existing_file(tmp_path):
    missing = invoke(["graph", "reduce", str(tmp_path / "missing.json")])
    assert missing.exit_code == 2 and missing.stdout == ""
    assert "does not exist" in missing.output
    folder = invoke(["graph", "reduce", str(tmp_path)])
    assert folder.exit_code == 2 and folder.stdout == ""
    assert "is a directory" in folder.output


def test_the_module_runs_as_a_script():
    args = ["range", "--dim", "6", "--genus", "11"]
    env = dict(os.environ, PYTHONPATH=str(Path(torelli.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-m", "torelli.cli", *args], env=env, capture_output=True, text=True
    )
    result = invoke(args)
    assert (child.returncode, child.stdout) == (0, result.stdout) == (0, "4\n")
