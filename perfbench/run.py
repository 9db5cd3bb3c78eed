#!/usr/bin/env python3
"""Benchmark of the `torelli` command line, run cold as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it needs `src/torelli` there
and nothing installed. Each timed command is a fresh interpreter that
runs the console-script entry point, so every repetition pays the cold
`lru_cache` fills a user pays. Every stdout is checked against the
frozen reference in `reference.json`; a run whose output differs counts
as failed and its time is left out of the medians.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates
untraced repetitions with traced ones, in which `stages.py` calls the
program's stages one by one and reads its cache counters, and prints the
per-layer metrics. `--smoke` swaps in tiny inputs, to test the harness.
The last line of stdout is one JSON object; METRICS.md describes it.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# The mathematical inputs are fixed; --seed only sets the order in which
# things run: the commands of a repetition, the set-up probes around it,
# and traced and untraced repetitions.
WORKLOADS = {
    # Cold LR cache fills, plus the only Newell-Littlewood variant path.
    "dim2-closed": [
        {"kind": "cohomology", "dim": 2, "max_degree": 6, "variant": "closed"},
    ],
    # exp_h (the disc variant skips pipeline.variant_adjust), basis
    # enumeration in setparts and decomposition in characters, and dense
    # exact rank in invariants, which never calls symfunc.
    "disc-oracle-rank": [
        {"kind": "cohomology", "dim": 6, "max_degree": 11, "variant": "disc"},
        {"kind": "oracle", "dim": 6, "qmax": 8, "dmax": 8},
        {"kind": "rank", "g": 2, "set_size": 6, "epsilon": -1},
        {"kind": "rank", "g": 2, "set_size": 6, "epsilon": 1},
    ],
}

SMOKE = {
    "dim2-closed": [
        {"kind": "cohomology", "dim": 2, "max_degree": 2, "variant": "closed"},
    ],
    "disc-oracle-rank": [
        {"kind": "cohomology", "dim": 6, "max_degree": 4, "variant": "disc"},
        {"kind": "oracle", "dim": 6, "qmax": 2, "dmax": 2},
        {"kind": "rank", "g": 1, "set_size": 4, "epsilon": -1},
        {"kind": "rank", "g": 1, "set_size": 4, "epsilon": 1},
    ],
}

ENTRY = "import sys; from torelli.cli import main; sys.exit(main())"
IMPORT_ONLY = "import torelli.cli"
# Set-up is interpreter start plus `import torelli.cli`, probed between
# repetitions; the untimed import in main() writes the bytecode cache.
PROBES_PER_REP = 3
MIN_PROBES = 9
# Every child is killed once the whole run reaches this age, so that a
# hanging program still ends the benchmark within its time limit.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
STARTED = time.perf_counter()


def cli_args(job: dict) -> list:
    kind = job["kind"]
    if kind == "cohomology":
        return ["cohomology", "--dim", str(job["dim"]), "--max-degree",
                str(job["max_degree"]), "--variant", job["variant"]]
    if kind == "oracle":
        return ["oracle", "--dim", str(job["dim"]), "--qmax", str(job["qmax"]),
                "--dmax", str(job["dmax"])]
    if kind == "rank":
        return ["invariants", "rank", "--g", str(job["g"]), "--set-size",
                str(job["set_size"]), "--epsilon", str(job["epsilon"])]
    raise ValueError(f"unknown job kind {kind!r}")


def command_key(job: dict) -> str:
    return " ".join(cli_args(job))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Child:
    """One finished child process with its own resource usage."""

    def __init__(self, argv: list):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        killer = threading.Timer(max(0.0, RUN_LIMIT_S - (start - STARTED)), proc.kill)
        killer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            # wait4 rather than RUSAGE_CHILDREN, whose ru_maxrss is a
            # running maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.perf_counter() - start
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.code = proc.returncode
        self.stdout = out.decode("utf-8", "replace")
        self.stderr = err[0].decode("utf-8", "replace") if err else ""


def run_cli(job: dict) -> Child:
    return Child([sys.executable, "-c", ENTRY, *cli_args(job)])


def output_problem(child: Child, ref: dict):
    """Why a command's result differs from its reference, or None."""
    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"exit code {child.code}: {tail[0]}"
    lines = child.stdout.rstrip("\n").splitlines()
    last = lines[-1] if lines else ""
    if last != ref["last_line"]:
        return f"last line {last!r}, expected {ref['last_line']!r}"
    digest = hashlib.sha256(child.stdout.encode("utf-8")).hexdigest()
    if digest != ref["sha256"]:
        return f"stdout sha256 {digest[:16]}..., expected {ref['sha256'][:16]}..."
    return None


class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label: str, problem) -> bool:
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")
        return problem is None


def run_rep(jobs: list, refs: dict, rng: random.Random, tally: Tally):
    """Run every command of a workload once, in a seeded order."""
    order = list(jobs)
    rng.shuffle(order)
    children, ok = [], True
    for job in order:
        child = run_cli(job)
        key = command_key(job)
        ok = tally.record(key, output_problem(child, refs[key])) and ok
        children.append(child)
    return children, ok


def keep_going(walls: list, started: float, seconds: float) -> bool:
    """Start another repetition only if one more is expected to fit."""
    if not walls:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def import_cli() -> Child:
    child = Child([sys.executable, "-c", IMPORT_ONLY])
    if child.code != 0:
        sys.exit(f"perfbench: cannot import torelli.cli:\n{child.stderr}")
    return child


def warm_up(workload: str, refs: dict, tally: Tally):
    """One untimed, checked run of the workload's smoke commands, which
    import what its timed commands import."""
    for job in SMOKE[workload]:
        key = command_key(job)
        tally.record("warm-up " + key, output_problem(run_cli(job), refs[key]))


def end_to_end(jobs, refs, rng, seconds, tally):
    """Repetitions of the workload, with set-up probes spread between them
    so that they sample the same stretch of time as the repetitions."""
    setup, walls, reps = [], [], []
    started = time.perf_counter()
    while keep_going(walls, started, seconds):
        for step in rng.sample(("probes", "rep"), 2):
            if step == "probes":
                setup.extend(import_cli().wall for _ in range(PROBES_PER_REP))
                continue
            children, ok = run_rep(jobs, refs, rng, tally)
            rep = {
                "wall": sum(c.wall for c in children),
                "cpu": sum(c.cpu for c in children),
                "rss": max(c.rss_mib for c in children),
            }
            walls.append(rep["wall"])
            if ok:
                reps.append(rep)
        if time.perf_counter() - STARTED > RUN_LIMIT_S:
            break
    while len(setup) < MIN_PROBES:
        setup.append(import_cli().wall)
    samples = {"setup_s": setup}
    if reps:
        samples["wall_s"] = [r["wall"] for r in reps]
        samples["cpu_s"] = [r["cpu"] for r in reps]
        samples["peak_rss_mib"] = [r["rss"] for r in reps]
    return samples


def traced_job(job: dict) -> tuple:
    """Run one job under stages.py; return its result, any problem, and
    its traced wall time: the child's wall time less what it spent after
    the cold composition (the warm call and the checks)."""
    child = Child([sys.executable, str(HERE / "stages.py"), json.dumps(job)])
    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"stages.py exit code {child.code}: {tail[0]}", 0.0
    result = json.loads(child.stdout.strip().splitlines()[-1])
    problem = "; ".join(result["problems"]) or None
    return result, problem, child.wall - result["after_cold_s"]


def combine(results: list) -> dict:
    """Per-layer metrics of one traced repetition, summed over its jobs."""
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            if name.endswith(".max_weight"):
                metrics[name] = max(metrics.get(name, 0), value)
            else:
                metrics[name] = metrics.get(name, 0) + value
    raw = {k: sum(r["raw"][k] for r in results) for k in results[0]["raw"]}
    hits = metrics.get("symfunc.schur_product_table.hits")
    misses = metrics.get("symfunc.schur_product_table.misses")
    if hits is not None and misses is not None:
        looked_up = hits + misses
        metrics["symfunc.schur_product_table.hit_ratio"] = hits / looked_up if looked_up else 0.0
    entries = raw["tensor_entries"]
    metrics["invariants.density"] = metrics["invariants.nonzeros"] / entries if entries else 0.0
    metrics["pipeline.warm_repeat_s"] = raw["warm_s"]
    metrics["pipeline.cache_fill_share"] = (raw["cold_s"] - raw["warm_s"]) / raw["cold_s"]
    return metrics


def per_layer(jobs, refs, rng, seconds, tally):
    untraced, traced, layers = [], [], []
    spans, absent = [], []
    # Elapsed time of each untraced-and-traced pair, warm calls and checks
    # included, to decide whether another pair fits.
    pairs = []
    started = time.perf_counter()
    while keep_going(pairs, started, seconds):
        pair_started = time.perf_counter()
        for side in rng.sample(("untraced", "traced"), 2):
            if side == "untraced":
                children, ok = run_rep(jobs, refs, rng, tally)
                if ok:
                    untraced.append(sum(c.wall for c in children))
                continue
            results, wall = [], 0.0
            for job in jobs:
                result, problem, job_wall = traced_job(job)
                tally.record("traced " + command_key(job), problem)
                if result:
                    results.append(result)
                    wall += job_wall
            if len(results) == len(jobs):
                traced.append(wall)
                layers.append(combine(results))
                spans = [s for r in results for s in r["spans"]]
                absent = sorted({a for r in results for a in r["absent"]})
        pairs.append(time.perf_counter() - pair_started)
        if not untraced or not traced or time.perf_counter() - STARTED > RUN_LIMIT_S:
            break
    if not layers:
        return {}, [], []
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    if untraced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, spans, absent


def print_spans(spans: list):
    """Calls, total and self time per span name, from one traced repetition."""
    total, calls, child_time = {}, {}, {}
    for name, parent, start, end in spans:
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    print(f"{'span':<36} {'calls':>6} {'total_s':>10} {'self_s':>10}")
    for name in total:
        own = total[name] - child_time.get(name, 0.0)
        print(f"{name:<36} {calls[name]:>6} {total[name]:>10.4f} {own:>10.4f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    args = ap.parse_args()

    if not (ROOT / "src" / "torelli" / "cli.py").is_file():
        print(f"perfbench: no src/torelli/cli.py under {ROOT}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
    jobs = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    rng = random.Random(args.seed)
    tally = Tally()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_cli()
    warm_up(args.workload, refs, tally)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}{', smoke' if args.smoke else ''}")
    for job in jobs:
        print("  torelli " + command_key(job))

    absent = []
    if args.trace:
        metrics, spans, absent = per_layer(jobs, refs, rng, args.seconds, tally)
        if spans:
            print_spans(spans)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in absent:
            print(f"{name}: absent (no such cache in this version)")
        report = {name: {"value": metrics[name], "unit": units[name]}
                  for name in units if name in metrics}
    else:
        samples = end_to_end(jobs, refs, rng, args.seconds, tally)
        print(f"{'metric':<14} {'unit':<5} {'median':>10} {'min':>10} {'max':>10} {'n':>3}")
        for name, values in samples.items():
            print(f"{name:<14} {END_TO_END_UNITS[name]:<5} {statistics.median(values):>10.4f} "
                  f"{min(values):>10.4f} {max(values):>10.4f} {len(values):>3}")
        for name, values in samples.items():
            print(f"{name} samples: " + " ".join(f"{v:.4f}" for v in values))
        report = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
                  for name, values in samples.items()}
    for line in tally.failures:
        print("FAILED " + line)
    failed = len(tally.failures)
    print(f"fail_ratio {failed}/{tally.attempted}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    complete = all(name in report or name in absent for name in wanted)
    print(json.dumps({
        "correct": failed == 0 and complete and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
