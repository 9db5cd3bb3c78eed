"""Tests of the benchmark harness, on the smoke inputs.

    python3 -m pytest -q perfbench

Each workload runs once untraced and once traced with --smoke, which
takes a few seconds in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_spec_matches_harness():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(run.SMOKE) == sorted(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units == run.END_TO_END_UNITS


def test_every_command_has_a_reference():
    refs = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for table in (run.WORKLOADS, run.SMOKE):
        for jobs in table.values():
            for job in jobs:
                assert run.command_key(job) in refs


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_a_changed_table_fails_the_reference_check():
    job = run.SMOKE["disc-oracle-rank"][0]
    refs = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    ref = refs[run.command_key(job)]
    child = run.run_cli(job)
    assert run.output_problem(child, ref) is None
    lines = child.stdout.splitlines(keepends=True)
    child.stdout = "".join(lines[:1] + ["H^1 = 2*V[1]\n"] + lines[2:])
    assert "sha256" in run.output_problem(child, ref)
    child.stdout = "".join(lines[:-1])
    assert "last line" in run.output_problem(child, ref)
    child.code = 2
    assert "exit code 2" in run.output_problem(child, ref)


def test_a_missing_cache_is_absent_not_zero(monkeypatch):
    import stages
    from torelli import symfunc

    before = stages.cache_counters()
    monkeypatch.delattr(symfunc, "_p_monomial_schur")
    metrics, absent = stages.cache_metrics(before, stages.cache_counters())
    assert absent == ["symfunc.p_monomial_schur.misses"]
    assert "symfunc.p_monomial_schur.misses" not in metrics
    assert metrics["symfunc.lr_coefficient.misses"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "disc-oracle-rank", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
