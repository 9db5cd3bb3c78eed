"""Command-line front end for the cohomology tables and their checks.

Each command runs in a fresh interpreter, so a run pays only for what
its command needs: `import torelli.cli` loads `argparse` and the errors
in `torelli.errors`, `main` builds the parser of the command named first
on the command line (every parser when none is named, for the help and
usage texts), and each command imports the modules it runs (`pipeline`,
`labels`, `graphs`, `invariants`, `json`) in its body.  The parser is
the standard library's `argparse`.  Commands raise and `main` alone
picks the exit code: 2 for a usage error or an internal inconsistency
(`NegativeMultiplicity`), 3 for a refused configuration (`ConfigError`,
`Unsupported`), each with one line on stderr, and 1, with no message,
for a closed stdout (as in `torelli ... | head`).  The oracle returns 2
after a report with a failing cell.

`main()` without arguments reads the process's own (the console script,
`python -m torelli.cli`): it flushes stdout and stderr and ends the
process with `os._exit`, skipping the interpreter's teardown, so atexit
handlers do not run.  `main(argv)` with a list returns the exit code.
"""

import argparse
import os
import sys

from .errors import ConfigError, NegativeMultiplicity, Unsupported

FORMATS = ("text", "json", "latex")


def _coeff_json(c):
    return int(c) if c.denominator == 1 else str(c)


def _class_rows(cls) -> list:
    rows = []
    for lam, c in sorted(cls.coeffs.items(), key=lambda kv: kv[0].sort_key()):
        rows.append({"lambda": list(lam), "mult": _coeff_json(c)})
    return rows


def _latex_class(cls) -> str:
    if cls.is_zero():
        return "0"
    bits = []
    for lam, c in sorted(cls.coeffs.items(), key=lambda kv: kv[0].sort_key()):
        name = f"V_{{{lam}}}" if len(lam) else "V_0"
        bits.append(name if c == 1 else f"{c} {name}")
    return " + ".join(bits)


def cohomology(two_n, max_degree, variant, genus, fmt):
    """Decompose each degree into irreducible classes."""
    from .pipeline import PipelineConfig, compute_cohomology

    cfg = PipelineConfig(two_n=two_n, max_degree=max_degree, variant=variant, g=genus)
    if fmt not in FORMATS:
        raise ConfigError(f"output must be one of {FORMATS}, got {fmt!r}")
    table = compute_cohomology(cfg)
    if fmt == "json":
        import json

        payload = {
            "dim": table.two_n,
            "variant": table.variant,
            "table": [
                {"degree": d, "classes": _class_rows(cls)}
                for d, cls in enumerate(table.entries)
            ],
            "trusted_up_to": table.trusted_up_to,
            "footnotes": list(table.footnotes),
        }
        print(json.dumps(payload, indent=2))
        return
    for d, cls in enumerate(table.entries):
        if fmt == "latex":
            line = f"H^{{{d}}} &= {_latex_class(cls)} \\\\"
        else:
            line = f"H^{d} = {cls}"
        if table.trusted_up_to is not None and d > table.trusted_up_to:
            line += "  % beyond trusted range" if fmt == "latex" else "  [beyond trusted range]"
        print(line)
    if table.trusted_up_to is not None and fmt == "text":
        print(f"trusted through degree {table.trusted_up_to}")
    for note in table.footnotes:
        print(f"note: {note}")


def series(two_n, max_degree, stage, variant):
    """Print one intermediate series of the computation."""
    from .pipeline import STAGES, PipelineConfig, compute_cohomology

    if stage not in STAGES:
        raise ConfigError(f"stage must be one of {STAGES}, got {stage!r}")
    table = compute_cohomology(PipelineConfig(two_n=two_n, max_degree=max_degree, variant=variant))
    print(table.snapshots[stage])


def oracle(two_n, qmax, dmax):
    """Cross-check the series against direct enumeration, cell by cell."""
    from .pipeline import oracle_check

    report = oracle_check(two_n, dmax, qmax)
    for cell in report.cells:
        status = "pass" if cell.ok else "FAIL"
        print(f"q={cell.q} d={cell.d} {status}")
        if not cell.ok:
            print(f"  enumerated: {cell.lhs}")
            print(f"  series:     {cell.rhs}")
    bad = len(report.failures())
    if bad:
        print(f"{bad} of {len(report.cells)} cells FAIL")
        return 2
    print(f"all {len(report.cells)} cells pass")


def lclass(max_index, two_n):
    """Print the Hirzebruch polynomials, optionally with their images."""
    from .labels import L_CLASS_INDEX_CAP, l_class, l_class_image, render_label_combination

    if max_index < 1:
        raise ConfigError(f"--max must be positive, got {max_index}")
    if max_index > L_CLASS_INDEX_CAP:
        raise ConfigError(f"--max {max_index} exceeds the L-class cap of {L_CLASS_INDEX_CAP}")
    n = None
    if two_n is not None:
        from .pipeline import _check_dimension

        _check_dimension(two_n)
        n = two_n // 2
    for i in range(1, max_index + 1):
        print(f"L_{i} = {l_class(i)}")
        if n is not None:
            if 4 * i - 2 * n > 0:
                image = l_class_image(i, n)
                print(
                    f"  kappa image in dimension {two_n}: {render_label_combination(image)}"
                )
            else:
                print(f"  kappa image in dimension {two_n}: degree {4 * i - 2 * n}, none")


def graph_reduce(file, variant):
    """Contract a graph file down to labelled partitions."""
    import json

    from .graphs import parse_graph, reduce as reduce_graph

    try:
        with open(file, "r", encoding="utf-8") as fh:
            g = parse_graph(fh.read())
        vec = reduce_graph(g, variant=variant)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot reduce {file}: {exc}") from exc
    terms = []
    for part, c in vec.items():
        terms.append(
            {
                "coefficient": _coeff_json(c),
                "parts": [
                    {"members": list(members), "label": str(label)}
                    for members, label in part.parts
                ],
            }
        )
    print(json.dumps({"n": vec.n, "legs": list(vec.ground), "terms": terms}, indent=2))


def invariants_rank(genus, set_size, epsilon):
    """Rank of the span of matching tensors inside the full tensor power."""
    from .invariants import matching_span_rank

    try:
        rank, count = matching_span_rank(set_size, genus, epsilon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(
        f"set size {set_size}, genus {genus}, epsilon {epsilon:+d}: "
        f"rank {rank} of {count} matchings"
    )


def range_cmd(two_n, genus):
    """Largest degree trusted at the given genus."""
    from .pipeline import stable_range

    print(stable_range(two_n, genus))


def _existing_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"path {path!r} is a directory")
    return path


def _command(commands, name: str, run):
    """A subcommand whose options reach run as keywords."""
    sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
    sub.set_defaults(run=run)
    return sub


def _group(commands, name: str, doc: str):
    sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
    return sub.add_subparsers(metavar="COMMAND", required=True)


# The top-level commands, in the order the help lists them.
COMMANDS = ("cohomology", "series", "oracle", "lclass", "graph", "invariants", "range")


def _parser(argv) -> argparse.ArgumentParser:
    """The parser with the subparser of the command argv names first, or
    with every subparser when argv names none (help, an unknown command,
    no arguments); a command's own parser is the same either way."""
    parser = argparse.ArgumentParser(prog="torelli", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    named = (argv[0],) if argv and argv[0] in COMMANDS else COMMANDS

    if "cohomology" in named:
        sub = _command(commands, "cohomology", cohomology)
        sub.add_argument("--dim", dest="two_n", type=int, required=True, help="Manifold dimension 2n.")
        sub.add_argument("--max-degree", type=int, required=True, help="Highest cohomological degree.")
        sub.add_argument("--variant", default="disc", help="disc, point or closed.")
        sub.add_argument("--genus", type=int, default=None, help="Finite genus for the trust window.")
        sub.add_argument("--format", dest="fmt", default="text", help="text, json or latex.")

    if "series" in named:
        from .pipeline import STAGES

        sub = _command(commands, "series", series)
        sub.add_argument("--dim", dest="two_n", type=int, required=True)
        sub.add_argument("--max-degree", type=int, required=True)
        sub.add_argument("--stage", required=True, help="|".join(STAGES))
        sub.add_argument("--variant", default="disc", help="Variant applied at the final stage.")

    if "oracle" in named:
        sub = _command(commands, "oracle", oracle)
        sub.add_argument("--dim", dest="two_n", type=int, required=True)
        sub.add_argument("--qmax", type=int, required=True)
        sub.add_argument("--dmax", type=int, required=True)

    if "lclass" in named:
        sub = _command(commands, "lclass", lclass)
        sub.add_argument("--max", dest="max_index", type=int, required=True, help="Highest index.")
        sub.add_argument(
            "--dim", dest="two_n", type=int, default=None, help="Also print the label-ring image."
        )

    if "graph" in named:
        graph = _group(commands, "graph", "Operations on marked graphs.")
        sub = _command(graph, "reduce", graph_reduce)
        sub.add_argument("file", type=_existing_file)
        sub.add_argument("--variant", default="P0", help="P0, P or Pprime.")

    if "invariants" in named:
        invariants = _group(commands, "invariants", "Invariant-theory oracles.")
        sub = _command(invariants, "rank", invariants_rank)
        sub.add_argument("--g", dest="genus", type=int, required=True)
        sub.add_argument("--set-size", type=int, required=True)
        sub.add_argument("--epsilon", type=int, required=True)

    if "range" in named:
        sub = _command(commands, "range", range_cmd)
        sub.add_argument("--dim", dest="two_n", type=int, required=True)
        sub.add_argument("--genus", type=int, required=True)
    return parser


def _run(argv: list) -> int:
    """Parse argv, run its command and flush stdout: the exit code."""
    try:
        try:
            options = vars(_parser(argv).parse_args(argv))
        except SystemExit as exc:  # argparse printed the help or a usage error
            code = exc.code
        else:
            code = options.pop("run")(**options) or 0
        sys.stdout.flush()
    except (ConfigError, Unsupported) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except NegativeMultiplicity as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: send the last flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def main(argv=None) -> int:
    """Stable cohomology of Torelli groups of even-dimensional handlebody doubles."""
    if argv is not None:
        return _run(argv)
    code = _run(sys.argv[1:])
    # The process's own arguments: its output is all that is left to do,
    # so skip the interpreter's teardown, as mypy.util.hard_exit does.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
