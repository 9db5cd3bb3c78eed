"""Command-line front end for the cohomology tables and their checks.

Each command runs in a fresh interpreter, so this module imports only
what `cohomology`, `series` and `oracle` need; `json`, `graphs` and
`invariants` are imported by the commands that use them.
"""

import sys
from fractions import Fraction

import click

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
    click.echo(f"configuration error: {message}", err=True)
    sys.exit(3)


def _fail_internal(message: str):
    click.echo(f"internal inconsistency: {message}", err=True)
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


@click.group()
def main():
    """Stable cohomology of Torelli groups of even-dimensional handlebody doubles."""


@main.command()
@click.option("--dim", "two_n", type=int, required=True, help="Manifold dimension 2n.")
@click.option("--max-degree", type=int, required=True, help="Highest cohomological degree.")
@click.option("--variant", default="disc", help="disc, point or closed.")
@click.option("--genus", type=int, default=None, help="Finite genus for the trust window.")
@click.option("--format", "fmt", default="text", help="text, json or latex.")
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
        click.echo(json.dumps(payload, indent=2))
        return
    for d, cls in enumerate(table.entries):
        if fmt == "latex":
            line = f"H^{{{d}}} &= {_latex_class(cls)} \\\\"
        else:
            line = f"H^{d} = {render_class(cls)}"
        if table.trusted_up_to is not None and d > table.trusted_up_to:
            line += "  % beyond trusted range" if fmt == "latex" else "  [beyond trusted range]"
        click.echo(line)
    if table.trusted_up_to is not None and fmt == "text":
        click.echo(f"trusted through degree {table.trusted_up_to}")
    for note in table.footnotes:
        click.echo(f"note: {note}")


@main.command()
@click.option("--dim", "two_n", type=int, required=True)
@click.option("--max-degree", type=int, required=True)
@click.option("--stage", required=True, help="|".join(STAGES))
@click.option("--variant", default="disc", help="Variant applied at the final stage.")
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
        click.echo(render_series(snap))
    elif isinstance(snap, ClassSeries):
        click.echo(render_class_series(snap))
    else:
        click.echo(str(snap))


@main.command()
@click.option("--dim", "two_n", type=int, required=True)
@click.option("--qmax", type=int, required=True)
@click.option("--dmax", type=int, required=True)
def oracle(two_n, qmax, dmax):
    """Cross-check the series against direct enumeration, cell by cell."""
    try:
        report = oracle_check(two_n, dmax, qmax)
    except ConfigError as exc:
        _fail_config(str(exc))
    for cell in report.cells:
        status = "pass" if cell.ok else "FAIL"
        click.echo(f"q={cell.q} d={cell.d} {status}")
        if not cell.ok:
            click.echo(f"  enumerated: {cell.lhs}")
            click.echo(f"  series:     {cell.rhs}")
    bad = len(report.failures())
    if bad:
        click.echo(f"{bad} of {len(report.cells)} cells FAIL")
    else:
        click.echo(f"all {len(report.cells)} cells pass")


@main.command()
@click.option("--max", "max_index", type=int, required=True, help="Highest index.")
@click.option("--dim", "two_n", type=int, default=None, help="Also print the label-ring image.")
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
        click.echo(f"L_{i} = {l_class(i)}")
        if n is not None:
            if 4 * i - 2 * n > 0:
                image = l_class_image(i, n)
                click.echo(
                    f"  kappa image in dimension {two_n}: {render_label_combination(image)}"
                )
            else:
                click.echo(f"  kappa image in dimension {two_n}: degree {4 * i - 2 * n}, none")


@main.group()
def graph():
    """Operations on marked graphs."""


@graph.command("reduce")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--variant", default="P0", help="P0, P or Pprime.")
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
    click.echo(json.dumps({"n": vec.n, "legs": list(vec.ground), "terms": terms}, indent=2))


@main.group()
def invariants():
    """Invariant-theory oracles."""


@invariants.command("rank")
@click.option("--g", "genus", type=int, required=True)
@click.option("--set-size", type=int, required=True)
@click.option("--epsilon", type=int, required=True)
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
    click.echo(
        f"set size {set_size}, genus {genus}, epsilon {epsilon:+d}: "
        f"rank {rank} of {count} matchings"
    )


@main.command("range")
@click.option("--dim", "two_n", type=int, required=True)
@click.option("--genus", type=int, required=True)
def range_cmd(two_n, genus):
    """Largest degree trusted at the given genus."""
    try:
        click.echo(stable_range(two_n, genus))
    except (ConfigError, Unsupported) as exc:
        _fail_config(str(exc))


if __name__ == "__main__":
    main()
