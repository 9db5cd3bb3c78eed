"""Command-line front end for the cohomology tables and their checks.

Each command runs in a fresh interpreter, so this module imports only
what `cohomology`, `series` and `oracle` need; `json`, `graphs` and
`invariants` are imported by the commands that use them.  The parser is
the standard library's `argparse`.  A usage error or an internal
inconsistency exits 2, a refused configuration 3.
"""

import argparse
import os
import sys
from fractions import Fraction

from .branching import ClassSeries, render_class, render_class_series
from .labels import L_CLASS_INDEX_CAP, l_class, l_class_image, render_label_combination
from .pipeline import (
    STAGES,
    ConfigError,
    NegativeMultiplicity,
    PipelineConfig,
    Unsupported,
    compute_cohomology,
    oracle_check,
    stable_range,
)
from .symfunc import LambdaSeries, render_series

FORMATS = ("text", "json", "latex")


def _fail_config(message: str):
    print(f"configuration error: {message}", file=sys.stderr)
    sys.exit(3)


def _fail_internal(message: str):
    print(f"internal inconsistency: {message}", file=sys.stderr)
    sys.exit(2)


def _coeff_json(c: Fraction):
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
    try:
        cfg = PipelineConfig(two_n=two_n, max_degree=max_degree, variant=variant, g=genus)
        if fmt not in FORMATS:
            raise ConfigError(f"output must be one of {FORMATS}, got {fmt!r}")
        table = compute_cohomology(cfg)
    except ConfigError as exc:
        _fail_config(str(exc))
    except NegativeMultiplicity as exc:
        _fail_internal(str(exc))
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
            line = f"H^{d} = {render_class(cls)}"
        if table.trusted_up_to is not None and d > table.trusted_up_to:
            line += "  % beyond trusted range" if fmt == "latex" else "  [beyond trusted range]"
        print(line)
    if table.trusted_up_to is not None and fmt == "text":
        print(f"trusted through degree {table.trusted_up_to}")
    for note in table.footnotes:
        print(f"note: {note}")


def series(two_n, max_degree, stage, variant):
    """Print one intermediate series of the computation."""
    if stage not in STAGES:
        _fail_config(f"stage must be one of {STAGES}, got {stage!r}")
    try:
        cfg = PipelineConfig(two_n=two_n, max_degree=max_degree, variant=variant)
        table = compute_cohomology(cfg)
    except ConfigError as exc:
        _fail_config(str(exc))
    except NegativeMultiplicity as exc:
        _fail_internal(str(exc))
    snap = table.snapshots[stage]
    if isinstance(snap, LambdaSeries):
        print(render_series(snap))
    elif isinstance(snap, ClassSeries):
        print(render_class_series(snap))
    else:
        print(str(snap))


def oracle(two_n, qmax, dmax):
    """Cross-check the series against direct enumeration, cell by cell."""
    try:
        report = oracle_check(two_n, dmax, qmax)
    except ConfigError as exc:
        _fail_config(str(exc))
    for cell in report.cells:
        status = "pass" if cell.ok else "FAIL"
        print(f"q={cell.q} d={cell.d} {status}")
        if not cell.ok:
            print(f"  enumerated: {cell.lhs}")
            print(f"  series:     {cell.rhs}")
    bad = len(report.failures())
    if bad:
        print(f"{bad} of {len(report.cells)} cells FAIL")
    else:
        print(f"all {len(report.cells)} cells pass")


def lclass(max_index, two_n):
    """Print the Hirzebruch polynomials, optionally with their images."""
    if max_index < 1:
        _fail_config(f"--max must be positive, got {max_index}")
    if max_index > L_CLASS_INDEX_CAP:
        _fail_config(f"--max {max_index} exceeds the L-class cap of {L_CLASS_INDEX_CAP}")
    n = None
    if two_n is not None:
        if two_n < 2 or two_n % 2:
            _fail_config(f"dimension must be a positive even integer, got {two_n}")
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
        _fail_config(f"cannot reduce {file}: {exc}")
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

    if genus < 1:
        _fail_config(f"genus must be positive, got {genus}")
    if epsilon not in (1, -1):
        _fail_config(f"epsilon must be 1 or -1, got {epsilon}")
    if set_size < 0 or set_size % 2:
        _fail_config(f"set size must be even and nonnegative, got {set_size}")
    try:
        rank, count = matching_span_rank(set_size, genus, epsilon)
    except ValueError as exc:
        _fail_config(str(exc))
    print(
        f"set size {set_size}, genus {genus}, epsilon {epsilon:+d}: "
        f"rank {rank} of {count} matchings"
    )


def range_cmd(two_n, genus):
    """Largest degree trusted at the given genus."""
    try:
        print(stable_range(two_n, genus))
    except (ConfigError, Unsupported) as exc:
        _fail_config(str(exc))


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


def main(argv=None) -> int:
    """Stable cohomology of Torelli groups of even-dimensional handlebody doubles."""
    parser = argparse.ArgumentParser(prog="torelli", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    sub = _command(commands, "cohomology", cohomology)
    sub.add_argument("--dim", dest="two_n", type=int, required=True, help="Manifold dimension 2n.")
    sub.add_argument("--max-degree", type=int, required=True, help="Highest cohomological degree.")
    sub.add_argument("--variant", default="disc", help="disc, point or closed.")
    sub.add_argument("--genus", type=int, default=None, help="Finite genus for the trust window.")
    sub.add_argument("--format", dest="fmt", default="text", help="text, json or latex.")

    sub = _command(commands, "series", series)
    sub.add_argument("--dim", dest="two_n", type=int, required=True)
    sub.add_argument("--max-degree", type=int, required=True)
    sub.add_argument("--stage", required=True, help="|".join(STAGES))
    sub.add_argument("--variant", default="disc", help="Variant applied at the final stage.")

    sub = _command(commands, "oracle", oracle)
    sub.add_argument("--dim", dest="two_n", type=int, required=True)
    sub.add_argument("--qmax", type=int, required=True)
    sub.add_argument("--dmax", type=int, required=True)

    sub = _command(commands, "lclass", lclass)
    sub.add_argument("--max", dest="max_index", type=int, required=True, help="Highest index.")
    sub.add_argument(
        "--dim", dest="two_n", type=int, default=None, help="Also print the label-ring image."
    )

    graph = _group(commands, "graph", "Operations on marked graphs.")
    sub = _command(graph, "reduce", graph_reduce)
    sub.add_argument("file", type=_existing_file)
    sub.add_argument("--variant", default="P0", help="P0, P or Pprime.")

    invariants = _group(commands, "invariants", "Invariant-theory oracles.")
    sub = _command(invariants, "rank", invariants_rank)
    sub.add_argument("--g", dest="genus", type=int, required=True)
    sub.add_argument("--set-size", type=int, required=True)
    sub.add_argument("--epsilon", type=int, required=True)

    sub = _command(commands, "range", range_cmd)
    sub.add_argument("--dim", dest="two_n", type=int, required=True)
    sub.add_argument("--genus", type=int, required=True)

    options = vars(parser.parse_args(argv))
    options.pop("run")(**options)
    return 0


if __name__ == "__main__":
    sys.exit(main())
