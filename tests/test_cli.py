"""The command-line contract: help, usage errors, refusals and the module entry point."""

import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from cli_run import invoke

import torelli
from torelli import pipeline
from torelli.characters import ClassFunction

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


@pytest.mark.parametrize(
    "args",
    [["range", "--dim", "6", "--genus", "11"], ["cohomology", "--dim", "2", "--max-degree", "9"]],
    ids=["small-output", "output-over-the-pipe-buffer"],
)
def test_a_closed_stdout_exits_1_without_a_traceback(args):
    # The read end of the child's stdout is closed before it writes; the
    # cohomology table (103,909 bytes) is larger than a 64 KiB pipe buffer.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(torelli.__file__).parent.parent))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "torelli.cli", *args],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert "Traceback" not in child.stderr and "BrokenPipeError" not in child.stderr, child.stderr



@pytest.mark.parametrize(
    "args, code",
    [("range --dim 6 --genus 11", 1), ("cohomology --dim 3 --max-degree 2", 3), ("range --dim 6", 2)],
    ids=["output-lost", "refused", "usage-error"],
)
def test_a_stdout_closed_at_start_keeps_the_exit_contract(args, code, monkeypatch):
    # With `>&-` the child starts with no stdout, and sys.stdout is None:
    # a success whose output is lost exits 1 with no message, and a
    # refusal or a usage error keeps its code and its stderr.
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(torelli.__file__).parent.parent))
    command = shlex.join([sys.executable, "-m", "torelli.cli", *args.split()]) + " >&-"
    child = subprocess.run(command, shell=True, env=env, stderr=subprocess.PIPE, text=True)
    assert (child.returncode, child.stderr) == (code, invoke(args.split()).stderr)

# `main()` without arguments ends its process once stdout and stderr are
# flushed; run through the entry perfbench/run.py times, each command must print what
# `main(args)` prints in process and exit with the code it returns.
ENTRY = "import sys; from torelli.cli import main; sys.exit(main())"
PROCESS_ENDS = {
    "range --dim 6 --genus 11": 0,
    # 103,909 bytes, more than a 64 KiB pipe buffer
    "cohomology --dim 2 --max-degree 9": 0,
    "cohomology --dim 6": 2,
    "cohomology --dim 3 --max-degree 2": 3,
    # an ExtrapolationWarning on stderr
    "cohomology --dim 6 --max-degree 4 --variant closed": 0,
}


@pytest.mark.parametrize("command", list(PROCESS_ENDS))
def test_the_process_ends_with_what_main_prints_and_returns(command):
    env = dict(os.environ, PYTHONPATH=str(Path(torelli.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-c", ENTRY, *command.split()],
        env=env, capture_output=True, text=True, timeout=120,
    )
    # pytest records warnings; show them as the interpreter would
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        result = invoke(command.split())
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    assert result.exit_code == PROCESS_ENDS[command], result.output
    assert (child.returncode, child.stdout, child.stderr) == (
        result.exit_code, result.stdout, shown + result.stderr
    )
    if "--variant closed" in command:
        assert "ExtrapolationWarning" in child.stderr
    if "--max-degree 9" in command:
        assert len(child.stdout.encode()) == 103909


def test_a_failing_oracle_exits_2_after_its_report(monkeypatch):
    # One enumerated character doubled at q = 2, d = 2 fails one cell.
    characters = pipeline.sigma_characters

    def doubled(q, n, d_max):
        chis = characters(q, n, d_max)
        if q == 2:
            chis[2] = ClassFunction(2, {mu: 2 * v for mu, v in chis[2].values.items()})
        return chis

    monkeypatch.setattr(pipeline, "sigma_characters", doubled)
    result = invoke(["oracle", "--dim", "6", "--qmax", "3", "--dmax", "3"])
    assert result.exit_code == 2, result.output
    lines = result.stdout.splitlines()
    assert [line for line in lines if "FAIL" in line] == ["q=2 d=2 FAIL", "1 of 16 cells FAIL"]
    assert lines[-1] == "1 of 16 cells FAIL"


# Every refused request: its stderr line after "configuration error: ".
# One case at least for each check of a command's input; the shape cap
# at three dimensions and at a huge degree; the oracle's walk cap.
HUGE = str(10**9)
REFUSALS = {
    "cohomology --dim 3 --max-degree 2": "dimension must be a positive even integer, got 3",
    "cohomology --dim 0 --max-degree 2": "dimension must be a positive even integer, got 0",
    "cohomology --dim 6 --max-degree -1": "max degree must be a nonnegative integer, got -1",
    "cohomology --dim 6 --max-degree 2 --variant torus":
        "variant must be one of ('disc', 'point', 'closed'), got 'torus'",
    "cohomology --dim 6 --max-degree 2 --genus 0": "genus must be a positive integer, got 0",
    "cohomology --dim 6 --max-degree 2 --format yaml":
        "output must be one of ('text', 'json', 'latex'), got 'yaml'",
    "cohomology --dim 5 --max-degree 2 --format yaml":
        "dimension must be a positive even integer, got 5",
    "cohomology --dim 2 --max-degree 14 --variant closed":
        "max degree 14 allows at least 215308 Schur shapes of weight up to 42 "
        "in the plethystic exponential, over the cap of 200000",
    f"cohomology --dim 2 --max-degree {HUGE}":
        f"max degree {HUGE} allows at least 215308 Schur shapes of weight up to 3000000000 "
        "in the plethystic exponential, over the cap of 200000",
    f"cohomology --dim 18 --max-degree {HUGE}":
        f"max degree {HUGE} allows at least 215308 Schur shapes of weight up to 333333333 "
        "in the plethystic exponential, over the cap of 200000",
    f"cohomology --dim 40 --max-degree {HUGE}":
        f"max degree {HUGE} allows at least 215308 Schur shapes of weight up to 250000000 "
        "in the plethystic exponential, over the cap of 200000",
    "series --dim 5 --max-degree 2 --stage bogus":
        "stage must be one of ('chB', 'plethysm', 'pre-D', 'post-D', 'final'), got 'bogus'",
    "series --dim 5 --max-degree 2 --stage final": "dimension must be a positive even integer, got 5",
    "series --dim 6 --max-degree 2 --stage final --variant torus":
        "variant must be one of ('disc', 'point', 'closed'), got 'torus'",
    f"series --dim 2 --max-degree {HUGE} --stage chB":
        f"max degree {HUGE} allows at least 215308 Schur shapes of weight up to 3000000000 "
        "in the plethystic exponential, over the cap of 200000",
    "oracle --dim 5 --qmax 2 --dmax 2": "dimension must be a positive even integer, got 5",
    "oracle --dim 6 --qmax -1 --dmax 2": "bounds must be nonnegative",
    "oracle --dim 6 --qmax 2 --dmax -1": "bounds must be nonnegative",
    "oracle --dim 6 --qmax 13 --dmax 13":
        "qmax 13 at dmax 13 has a walk bound, p(q)(1 + kept(q)) summed over q, "
        "of at least 57288862, over the oracle cap of 50000000",
    f"oracle --dim 6 --qmax {HUGE} --dmax 2":
        f"qmax {HUGE} at dmax 2 has a walk bound, p(q)(1 + kept(q)) summed over q, "
        "of at least 53419135, over the oracle cap of 50000000",
    f"oracle --dim 2 --qmax 2 --dmax {HUGE}":
        f"max degree {HUGE} allows at least 215308 Schur shapes of weight up to 3000000000 "
        "in the plethystic exponential, over the cap of 200000",
    "lclass --max 0": "--max must be positive, got 0",
    "lclass --max 1000000": "--max 1000000 exceeds the L-class cap of 26",
    "lclass --max 2 --dim 3": "dimension must be a positive even integer, got 3",
    "graph reduce badlabel.json": "cannot reduce badlabel.json: unrecognized label factor 'q7'",
    "graph reduce outside.json": "cannot reduce outside.json: p_9 is not a generator for n=3",
    "graph reduce badjson.json":
        "cannot reduce badjson.json: Expecting value: line 2 column 1 (char 19)",
    "invariants rank --g 0 --set-size 2 --epsilon 1": "genus must be positive, got 0",
    "invariants rank --g 1 --set-size 2 --epsilon 2": "epsilon must be 1 or -1, got 2",
    "invariants rank --g 1 --set-size 3 --epsilon 1":
        "set size must be even and nonnegative, got 3",
    "invariants rank --g 3 --set-size 10 --epsilon 1":
        "10-point matching tensors in dimension 6 exceed the oracle cap of 1000000 nonzero entries",
    "range --dim 4 --genus 3": "dimension 4 has no known stable range at finite genus",
    "range --dim 3 --genus 3": "dimension must be a positive even integer, got 3",
    "range --dim 6 --genus 0": "genus must be a positive integer, got 0",
}


@pytest.mark.parametrize("command", list(REFUSALS))
def test_a_refused_request_exits_3_with_one_line_on_stderr(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "badlabel.json").write_text(
        '{"n": 3, "legs": [1, 2], "vertices": [{"label": "q7"}], "half_edges": [],'
        ' "matching": [["L1", "L2"]]}\n'
    )
    (tmp_path / "outside.json").write_text(
        '{"n": 3, "legs": [1, 2], "vertices": [{"label": "p9^0"}], "half_edges": [],'
        ' "matching": [["L1", "L2"]]}\n'
    )
    (tmp_path / "badjson.json").write_text('{"n": 3, "legs": [\n')
    result = invoke(command.split())
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.output == f"configuration error: {REFUSALS[command]}\n"


@pytest.mark.parametrize("command", ["cohomology", "series"])
def test_an_internal_inconsistency_exits_2_with_one_line_on_stderr(command, monkeypatch):
    def negative(series, max_degree):
        raise pipeline.NegativeMultiplicity("multiplicity of V_1 in degree 1 is -2")

    monkeypatch.setattr(pipeline, "_validate_entries", negative)
    args = [command, "--dim", "6", "--max-degree", "2"]
    result = invoke(args + (["--stage", "final"] if command == "series" else []))
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.output == "internal inconsistency: multiplicity of V_1 in degree 1 is -2\n"
