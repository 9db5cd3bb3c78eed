"""Write reference.json from the program in this checkout.

    python3 perfbench/freeze.py

Runs every command of run.py's workloads and smoke inputs once and
stores the sha256 of its stdout and its last line. The reference was
frozen from the commit that added the benchmark; re-freeze only from a
commit whose tables are trusted, never to make a failing run pass.
"""

import hashlib
import json
import sys

import run


def main():
    refs = {}
    for table in (run.WORKLOADS, run.SMOKE):
        for jobs in table.values():
            for job in jobs:
                child = run.run_cli(job)
                if child.code != 0:
                    sys.exit(f"{run.command_key(job)} exited {child.code}:\n{child.stderr}")
                refs[run.command_key(job)] = {
                    "sha256": hashlib.sha256(child.stdout.encode("utf-8")).hexdigest(),
                    "last_line": child.stdout.rstrip("\n").splitlines()[-1],
                }
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
