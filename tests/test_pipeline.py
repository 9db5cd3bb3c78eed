import json
import warnings
from fractions import Fraction

import pytest
from click.testing import CliRunner

from torelli import pipeline, setparts
from torelli.branching import ClassSeries, OrthSympClass, nl_product
from torelli.cli import main
from torelli.partitions import Partition, parse_partition
from torelli.pipeline import (
    ConfigError,
    ExtrapolationWarning,
    LimitOnlyCaveat,
    NegativeMultiplicity,
    PipelineConfig,
    Unsupported,
    _validate_entries,
    bundle_scalar_series,
    compute_cohomology,
    divide_by_fiber,
    oracle_check,
    stable_range,
    variant_adjust,
)
from torelli.symfunc import change_basis


def cls(epsilon, text):
    coeffs = {}
    if text.strip() != "0":
        for piece in text.split("+"):
            piece = piece.strip()
            if "*" in piece:
                mult, lam = piece.split("*")
                coeffs[parse_partition(lam)] = int(mult)
            else:
                coeffs[parse_partition(piece)] = 1
    return OrthSympClass(epsilon, coeffs)


def test_stable_range():
    assert stable_range(6, 11) == 4
    assert stable_range(2, 10) == 6
    assert stable_range(6, 3) == 0
    with pytest.raises(Unsupported):
        stable_range(4, 5)


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(two_n=5, max_degree=2)
    with pytest.raises(ConfigError):
        PipelineConfig(two_n=6, max_degree=2, variant="torus")
    with pytest.raises(ConfigError):
        PipelineConfig(two_n=6, max_degree=-1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        PipelineConfig(two_n=4, max_degree=1)
    assert any(issubclass(w.category, LimitOnlyCaveat) for w in caught)


def test_dimension_six_table():
    table = compute_cohomology(PipelineConfig(two_n=6, max_degree=4, g=11))
    assert table.epsilon == -1
    assert table.trusted_up_to == 4
    assert table.entries[0] == OrthSympClass.unit(-1)
    assert table.entries[1] == cls(-1, "1")
    assert table.entries[2] == cls(-1, "1^2 + 0")
    assert table.entries[3] == cls(-1, "2*1^3 + 2*1")
    assert table.entries[4] == cls(-1, "2*1^4 + 2,1^2 + 3*1^2 + 2 + 2*0")


def test_dimension_six_snapshots():
    table = compute_cohomology(PipelineConfig(two_n=6, max_degree=4))
    chb = table.snapshots["chB"]
    assert chb.coefficient(1) == change_basis("h1")
    assert chb.coefficient(2) == change_basis("2")
    assert chb.coefficient(3) == change_basis("h3+h1")
    assert chb.coefficient(4) == change_basis("h2+1")
    pleth = table.snapshots["plethysm"]
    assert pleth.coefficient(0) == change_basis("1")
    assert pleth.coefficient(1) == change_basis("s[1]")
    assert pleth.coefficient(2) == change_basis("2+s[2]")
    assert pleth.coefficient(3) == change_basis("3*s[1]+2*s[3]")
    assert pleth.coefficient(4) == change_basis("4+s[1^2]+4*s[2]+s[3,1]+2*s[4]")
    post = table.snapshots["post-D"]
    assert post.coefficient(2) == cls(-1, "2*0 + 1^2")
    assert post.coefficient(3) == cls(-1, "3*1 + 2*1^3")
    assert post.coefficient(4) == cls(-1, "4*0 + 2 + 4*1^2 + 2,1^2 + 2*1^4")


def test_dimension_two_table():
    table = compute_cohomology(PipelineConfig(two_n=2, max_degree=3, g=10))
    assert table.trusted_up_to == 3
    assert table.entries[1] == cls(-1, "1^3 + 1")
    assert table.entries[2] == cls(-1, "2*1^4 + 2^2,1^2 + 2,1^2 + 2*1^2 + 1^6")
    h3 = (
        "1^9 + 3*2,1^3 + 3,2,1^2 + 2^2,1^5 + 2*2^2,1 + 3*1^3 + 2*1^7 + 1"
        " + 2*2^2,1^3 + 2^3,1^3 + 4*1^5 + 3^2,1^3 + 2*2,1^5 + 2,1"
        " + 2*2^3,1 + 3,2^3"
    )
    assert table.entries[3] == cls(-1, h3)
    assert any("finite dimensional" in note for note in table.footnotes)


def test_point_variant():
    point = compute_cohomology(
        PipelineConfig(two_n=2, max_degree=3, variant="point")
    )
    assert point.entries[1] == cls(-1, "1^3 + 1")
    assert point.entries[2] == cls(
        -1, "0 + 1^6 + 2^2,1^2 + 2*1^4 + 2,1^2 + 2*1^2"
    )
    # one copy of V_{2^3,1^3}, pinned by the enumerative route
    p3 = (
        "1^9 + 2^2,1^5 + 2*1^7 + 2^3,1^3 + 2*2,1^5 + 3^2,1^3 + 2*2^2,1^3"
        " + 4*1^5 + 3,2^3 + 2*2^3,1 + 3,2,1^2 + 3*2,1^3 + 2*2^2,1 + 4*1^3"
        " + 2,1 + 2*1"
    )
    assert point.entries[3] == cls(-1, p3)


# Test oracle for divide_by_fiber: the generic route it replaced. It builds
# the fibre series, inverts it term by term and multiplies class series
# coefficient by coefficient through Newell-Littlewood products.


def _oracle_fiber_series(n, epsilon, trunc):
    """Class-valued Poincare series of the fibre, 1 + V_1 t^n + t^{2n}."""
    terms = {0: OrthSympClass.unit(epsilon)}
    if n <= trunc:
        terms[n] = OrthSympClass(epsilon, {Partition((1,)): 1})
    if 2 * n <= trunc:
        terms[2 * n] = OrthSympClass.unit(epsilon)
    return ClassSeries(epsilon, terms, trunc)


def _oracle_invert(series):
    """Inverse of a class series whose constant term is the unit class."""
    assert series.coefficient(0) == OrthSympClass.unit(series.epsilon)
    inv = {0: OrthSympClass.unit(series.epsilon)}
    for k in range(1, series.trunc + 1):
        acc = OrthSympClass.zero(series.epsilon)
        for j in range(1, k + 1):
            if j in series.terms:
                acc = acc + nl_product(series.terms[j], inv[k - j])
        inv[k] = -acc
    return ClassSeries(series.epsilon, inv, series.trunc)


def _oracle_product(a, b):
    trunc = min(a.trunc, b.trunc)
    out = {}
    for i, x in a.terms.items():
        for j, y in b.terms.items():
            if i + j <= trunc:
                out[i + j] = out.get(i + j, OrthSympClass.zero(a.epsilon)) + nl_product(x, y)
    return ClassSeries(a.epsilon, out, trunc)


def _oracle_divide_by_fiber(series, n):
    fiber = _oracle_fiber_series(n, series.epsilon, series.trunc)
    return _oracle_product(series, _oracle_invert(fiber))


def test_closed_fiber_inverse_series():
    unit = ClassSeries(-1, {0: OrthSympClass.unit(-1)}, 3)
    for inv in (divide_by_fiber(unit, 1), _oracle_invert(_oracle_fiber_series(1, -1, 3))):
        assert inv.coefficient(0) == OrthSympClass.unit(-1)
        assert inv.coefficient(1) == -cls(-1, "1")
        assert inv.coefficient(2) == cls(-1, "1^2 + 2")
        assert inv.coefficient(3) == -cls(-1, "1 + 1^3 + 2*2,1 + 3")


def test_divide_by_fiber_matches_nl_oracle():
    cases = []
    for two_n, max_degree in ((2, 6), (4, 8), (6, 9), (10, 12)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LimitOnlyCaveat)
            cfg = PipelineConfig(two_n=two_n, max_degree=max_degree)
        # the disc variant leaves the post-quotient series as it is
        cases.append((compute_cohomology(cfg).snapshots["final"], cfg.n))
    ragged = ClassSeries(
        1,
        {
            0: cls(1, "0 + 2,1") * Fraction(1, 2),
            1: -cls(1, "1^2"),
            3: cls(1, "3") * Fraction(2, 3) - cls(1, "1"),
            5: cls(1, "2^2") * Fraction(-7, 4),
        },
        trunc=7,
    )
    cases += [(ragged, 2), (ragged, 3), (ragged, 8)]
    for series, n in cases:
        got = divide_by_fiber(series, n)
        assert got == _oracle_divide_by_fiber(series, n), (series, n)
    # below n nothing is divided
    assert divide_by_fiber(ragged, 8) == ragged


def test_closed_variant():
    closed = compute_cohomology(
        PipelineConfig(two_n=2, max_degree=3, variant="closed")
    )
    assert closed.entries[1] == cls(-1, "1^3")
    assert closed.entries[2] == cls(-1, "1^2 + 1^4 + 1^6 + 2^2,1^2")
    c3 = (
        "1^3 + 1 + 2*1^5 + 1^7 + 1^9 + 2,1^3 + 2,1^5 + 2^2,1"
        " + 2^2,1^3 + 2^2,1^5 + 2^3,1 + 2^3,1^3 + 3,2^3 + 3^2,1^3"
    )
    assert closed.entries[3] == cls(-1, c3)


def test_closed_extrapolation_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compute_cohomology(PipelineConfig(two_n=6, max_degree=2, variant="closed"))
    assert any(issubclass(w.category, ExtrapolationWarning) for w in caught)


def test_warnings_point_at_the_caller():
    closed = PipelineConfig(two_n=6, max_degree=2, variant="closed")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        PipelineConfig(two_n=4, max_degree=1)
        compute_cohomology(closed)
        variant_adjust(ClassSeries.zero(-1, 2), closed)
    assert [w.category for w in caught] == [
        LimitOnlyCaveat, ExtrapolationWarning, ExtrapolationWarning
    ]
    assert [w.filename for w in caught] == [__file__] * 3


def test_truncation_consistency():
    big = compute_cohomology(PipelineConfig(two_n=6, max_degree=4))
    small = compute_cohomology(PipelineConfig(two_n=6, max_degree=2))
    assert big.entries[: len(small.entries)] == small.entries


def test_negative_multiplicity_guard():
    bad = ClassSeries(
        -1,
        {1: OrthSympClass(-1, {Partition((1,)): Fraction(-2)})},
        trunc=1,
    )
    with pytest.raises(NegativeMultiplicity):
        _validate_entries(bad, 1)
    ragged = ClassSeries(
        -1,
        {1: OrthSympClass(-1, {Partition((1,)): Fraction(1, 2)})},
        trunc=1,
    )
    with pytest.raises(NegativeMultiplicity):
        _validate_entries(ragged, 1)


def test_bundle_scalar_series():
    series = bundle_scalar_series(1, 6)
    # 1/(1 - t^2) when the window is empty
    assert [int(series.coefficient(k).coeff(Partition(()))) for k in range(7)] == [
        1, 0, 1, 0, 1, 0, 1,
    ]


def test_oracle_small_windows():
    report = oracle_check(6, 3, 3)
    assert report.ok, report.failures()
    assert len(report.cells) == 16
    for cell in report.cells:
        if cell.q == 1 and cell.d == 1:
            assert cell.lhs == change_basis("s[1]")
        if cell.q == 3 and cell.d == 3:
            assert cell.lhs == change_basis("2*s[1^3]")
    assert oracle_check(2, 2, 4).ok


@pytest.mark.parametrize("two_n, d_max, q_max", [(6, 8, 8), (2, 6, 6), (10, 9, 9)])
def test_oracle_wider_windows(two_n, d_max, q_max):
    report = oracle_check(two_n, d_max, q_max)
    assert report.ok, report.failures()
    assert len(report.cells) == (d_max + 1) * (q_max + 1)


def test_oracle_fails_fast(monkeypatch):
    # Bell(12) = 4,213,597 set partitions is over the cap; nothing may be
    # enumerated before the request is rejected, and a huge qmax is
    # rejected as fast
    def refuse(*args, **kwargs):
        raise AssertionError("basis enumerated before the budget check")

    monkeypatch.setattr(setparts, "enumerate_basis", refuse)
    for q_max in (12, 10**9):
        with pytest.raises(ConfigError, match="oracle cap"):
            oracle_check(6, 2, q_max)
    result = CliRunner().invoke(
        main, ["oracle", "--dim", "6", "--qmax", "12", "--dmax", "2"]
    )
    assert result.exit_code == 3
    assert "4213597 set partitions" in result.output


def test_oracle_refuses_a_basis_over_the_cap(monkeypatch):
    # The largest basis of a weight is counted from the pre-D series, as
    # the dimensions of its weight-q slices, before anything is enumerated
    sizes = {q: len(setparts.enumerate_basis(q, 1, "Pprime", 5)) for q in range(7)}
    q, size = max(sizes.items(), key=lambda qs: qs[1])

    def refuse(*args, **kwargs):
        raise AssertionError("basis enumerated before the budget check")

    monkeypatch.setattr(setparts, "enumerate_basis", refuse)
    monkeypatch.setattr(pipeline, "ORACLE_BASIS_CAP", size - 1)
    result = CliRunner().invoke(
        main, ["oracle", "--dim", "2", "--qmax", "6", "--dmax", "5"]
    )
    assert result.exit_code == 3
    assert f"weight {q} has {size} basis elements" in result.output
    # at the cap the budget admits the run, and enumeration starts
    monkeypatch.setattr(pipeline, "ORACLE_BASIS_CAP", size)
    with pytest.raises(AssertionError, match="basis enumerated"):
        oracle_check(2, 5, 6)


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_cli_cohomology_json():
    result = _run(
        ["cohomology", "--dim", "6", "--max-degree", "3", "--genus", "11",
         "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["dim"] == 6
    assert payload["variant"] == "disc"
    assert payload["trusted_up_to"] == 3
    degree3 = payload["table"][3]["classes"]
    assert {"lambda": [1], "mult": 2} in degree3
    assert {"lambda": [1, 1, 1], "mult": 2} in degree3


def test_cli_deterministic_output():
    args = ["cohomology", "--dim", "6", "--max-degree", "3", "--format", "json"]
    assert _run(args).output == _run(args).output


def test_cli_text_output():
    result = _run(["cohomology", "--dim", "6", "--max-degree", "2", "--genus", "11"])
    assert result.exit_code == 0
    assert "H^0" in result.output
    assert "V[1^2]" in result.output
    assert "trusted through degree 2" in result.output


def test_cli_rejects_bad_dimension():
    runner = CliRunner()
    result = runner.invoke(main, ["cohomology", "--dim", "5", "--max-degree", "2"])
    assert result.exit_code == 3
    result = runner.invoke(
        main, ["series", "--dim", "6", "--max-degree", "2", "--stage", "bogus"]
    )
    assert result.exit_code == 3


def test_cli_rejects_unknown_format():
    result = CliRunner().invoke(
        main, ["cohomology", "--dim", "6", "--max-degree", "2", "--format", "bogus"]
    )
    assert result.exit_code == 3
    assert "output must be one of ('text', 'json', 'latex'), got 'bogus'" in result.output


def test_cli_series_stage():
    result = _run(["series", "--dim", "6", "--max-degree", "3", "--stage", "chB"])
    assert result.exit_code == 0
    assert result.output == "s[1]*t + 2*t^2 + (s[1] + s[3])*t^3\n"


def test_cli_oracle():
    result = _run(["oracle", "--dim", "6", "--qmax", "2", "--dmax", "2"])
    assert result.exit_code == 0
    assert "q=1 d=1 pass" in result.output
    assert "all" in result.output and "pass" in result.output


def test_cli_lclass():
    result = _run(["lclass", "--max", "2", "--dim", "6"])
    assert result.exit_code == 0
    assert "7/45" in result.output


def test_cli_range():
    result = _run(["range", "--dim", "6", "--genus", "11"])
    assert result.exit_code == 0
    assert "4" in result.output
    bad = CliRunner().invoke(main, ["range", "--dim", "4", "--genus", "11"])
    assert bad.exit_code == 3


def test_cli_graph_reduce(tmp_path):
    blob = {
        "n": 1,
        "legs": [1],
        "vertices": [{"label": "1"}, {"label": "1"}, {"label": "1"}],
        "half_edges": [
            {"vertex": 0}, {"vertex": 0}, {"vertex": 0},
            {"vertex": 1}, {"vertex": 1}, {"vertex": 1},
            {"vertex": 2}, {"vertex": 2}, {"vertex": 2},
        ],
        "matching": [
            ["L1", "h0"], ["h1", "h3"], ["h2", "h6"], ["h4", "h7"], ["h5", "h8"],
        ],
    }
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(blob))
    result = _run(["graph", "reduce", str(path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["n"] == 1
    (term,) = payload["terms"]
    assert abs(term["coefficient"]) == 1
    (part,) = term["parts"]
    assert part["label"] == "e^2"


def test_cli_invariants_rank():
    result = _run(
        ["invariants", "rank", "--g", "1", "--set-size", "4", "--epsilon", "-1"]
    )
    assert result.exit_code == 0
    assert "rank 2 of 3" in result.output
