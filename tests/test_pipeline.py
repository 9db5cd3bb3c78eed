import json
import warnings
from fractions import Fraction

import pytest
from cli_run import invoke

from torelli import branching, pipeline, setparts, symfunc
from torelli.branching import ClassSeries, D_series, OrthSympClass, nl_product
from torelli.labels import ch_B
from torelli.partitions import Partition, parse_partition, rim_hooks, symmetric_group_irrep_dim
from torelli.pipeline import (
    ConfigError,
    ExtrapolationWarning,
    LimitOnlyCaveat,
    NegativeMultiplicity,
    PipelineConfig,
    Unsupported,
    _basis_sizes,
    _shape_count,
    _validate_entries,
    bundle_scalar_series,
    compute_cohomology,
    divide_by_fiber,
    oracle_check,
    stable_range,
    variant_adjust,
)
from torelli.setparts import quotient_factor, quotient_series_by_L
from torelli.symfunc import LambdaSeries, SymFunc, change_basis, exp_h, exp_h_weight_bound, omega


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


def test_mul_scalar_series_matches_the_nl_oracle():
    # The scalar series, as classes c * V_0, multiplied by Newell-Littlewood.
    series = ClassSeries(
        -1,
        {
            0: cls(-1, "0 + 2,1") * Fraction(-1, 2),
            1: cls(-1, "1^2 + 3*2") - cls(-1, "1"),
            2: cls(-1, "1 + 2,1") * Fraction(2, 3),
            4: -cls(-1, "3,1 + 1^2"),
        },
        6,
    )
    scalar = LambdaSeries(
        {0: SymFunc.scalar(1), 1: SymFunc.scalar(0), 2: SymFunc.scalar(Fraction(-3, 2)),
         3: SymFunc.scalar(2), 5: SymFunc.scalar(Fraction(1, 7))},
        5,
    )
    as_classes = ClassSeries(
        -1, {k: OrthSympClass.unit(-1) * f.coeff(()) for k, f in scalar.terms.items()}, 5
    )
    got = series.mul_scalar_series(scalar)
    assert got.trunc == 5
    assert got == _oracle_product(series, as_classes)
    # t^5 V[2,1]: -1/2 * 1/7 from t^0 * t^5, plus 2/3 * 2 from t^2 * t^3
    assert got.coefficient(5).coeff((2, 1)) == Fraction(-1, 14) + Fraction(4, 3)


# Test oracle for the stage pass after exp_h (`pipeline._StagePass`): the
# Partition-keyed chain it replaced. omega acts on SymFuncs, D relabels
# them into classes, the L-quotient and the bundle factor are two
# products of class series by scalar series, coefficient by coefficient,
# and the fibre division reads the size-1 rim hooks of one shape at a
# time.


def _oracle_pre_d(chb, n):
    pleth = exp_h(chb)
    return pleth.map_coefficients(omega) if n % 2 else pleth


def _oracle_scalar_product(series, scalar):
    trunc = min(series.trunc, scalar.trunc)
    out = {}
    for i, a in series.terms.items():
        for j, f in scalar.terms.items():
            c = f.coeff(())
            if c and i + j <= trunc:
                acc = out.setdefault(i + j, {})
                for lam, x in a.coeffs.items():
                    acc[lam] = acc.get(lam, 0) + x * c
    return ClassSeries(
        series.epsilon, {k: OrthSympClass(series.epsilon, acc) for k, acc in out.items()}, trunc
    )


def _oracle_rim_hook_division(series, n):
    zero = OrthSympClass.zero(series.epsilon)
    out = {}
    for k in range(series.trunc + 1):
        coeffs = dict(series.coefficient(k).coeffs)
        for lam, c in out.get(k - n, zero).coeffs.items():
            for mu, _ in rim_hooks(lam, 1) + rim_hooks(lam, -1):
                coeffs[mu] = coeffs.get(mu, 0) - c
        for lam, c in out.get(k - 2 * n, zero).coeffs.items():
            coeffs[lam] = coeffs.get(lam, 0) - c
        out[k] = OrthSympClass(series.epsilon, coeffs)
    return ClassSeries(series.epsilon, out, series.trunc)


def _oracle_post_exp_h(cfg):
    """The pre-D, post-D and final series of a table, by the old chain."""
    pre_d = _oracle_pre_d(ch_B(cfg.n, cfg.max_degree), cfg.n)
    post_d = D_series(pre_d, cfg.epsilon)
    final = _oracle_scalar_product(post_d, quotient_factor(cfg.n, cfg.max_degree))
    if cfg.variant != "disc":
        final = _oracle_scalar_product(final, bundle_scalar_series(cfg.n, cfg.max_degree))
    if cfg.variant == "closed":
        final = _oracle_rim_hook_division(final, cfg.n)
    return pre_d, post_d, final


def _quiet_config(two_n, max_degree, variant):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LimitOnlyCaveat)
        return PipelineConfig(two_n=two_n, max_degree=max_degree, variant=variant)


# dims 4 and 8 have even n, where omega must not act
@pytest.mark.parametrize(
    "two_n, max_degree", [(2, 5), (2, 8), (4, 10), (6, 14), (8, 14), (10, 14)]
)
def test_stage_pass_matches_the_partition_oracle(two_n, max_degree):
    for variant in ("disc", "point", "closed"):
        cfg = _quiet_config(two_n, max_degree, variant)
        pre_d, post_d, final = _oracle_post_exp_h(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            table = compute_cohomology(cfg)
        assert table.snapshots["final"] == final, (two_n, max_degree, variant)
        assert table.entries == tuple(final.coefficient(d) for d in range(max_degree + 1))
        assert table.snapshots["post-D"] == post_d
        assert table.snapshots["pre-D"] == pre_d
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            assert variant_adjust(quotient_series_by_L(post_d, cfg.n), cfg) == final


def _column_at_the_bead_bound():
    # V[1^5] at t^0 is the longest column: dividing by the fibre up to
    # t^6 with n = 2 adds three rows, so it needs 5 + 6 // 2 = 8 beads,
    # which V[1^8] at t^6 reaches.
    return ClassSeries(
        1,
        {
            0: cls(1, "1^5 + 2,1") * Fraction(-3, 4) + cls(1, "0"),
            1: cls(1, "3,1^2") * Fraction(5, 6),
            2: -cls(1, "2^2,1 + 1"),
            4: cls(1, "4") * Fraction(1, 3) - cls(1, "1^3"),
            5: cls(1, "1^4") * Fraction(-2, 7),
        },
        trunc=6,
    )


def test_mask_kernels_on_a_column_at_the_bead_bound():
    series = _column_at_the_bead_bound()
    assert series.longest_column() == 5
    got = divide_by_fiber(series, 2)
    assert got == _oracle_rim_hook_division(series, 2) == _oracle_divide_by_fiber(series, 2)
    assert got.coefficient(6).coeff((1,) * 8) == Fraction(3, 4)
    for n in (1, 3):
        assert divide_by_fiber(series, n) == _oracle_rim_hook_division(series, n)
    scalar = LambdaSeries(
        {0: SymFunc.scalar(Fraction(1, 2)), 1: SymFunc.scalar(-3), 4: SymFunc.scalar(Fraction(2, 5))},
        6,
    )
    assert series.mul_scalar_series(scalar) == _oracle_scalar_product(series, scalar)
    cfg = _quiet_config(4, 6, "closed")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        adjusted = variant_adjust(series, cfg)
    expected = _oracle_rim_hook_division(
        _oracle_scalar_product(series, bundle_scalar_series(2, 6)), 2
    )
    assert adjusted == expected


def test_quotient_of_a_laurent_series_matches_the_series_product():
    # LambdaSeries products shrink the claimed order by a t^-1 term.
    series = LambdaSeries(
        {
            -1: change_basis("1/2*s[1^4] - s[2]"),
            0: change_basis("3"),
            2: change_basis("-2/3*s[3,1] + s[1^2]"),
            5: change_basis("s[2^2,1]"),
        },
        9,
    )
    for n in (1, 2, 3):
        got = quotient_series_by_L(series, n)
        assert got == series * quotient_factor(n, series.trunc)
        assert got.trunc == 8


def test_the_table_builds_no_symmetric_function_after_exp_h(monkeypatch):
    cfg = PipelineConfig(two_n=2, max_degree=6, variant="closed")
    _, post_d, final = _oracle_post_exp_h(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("the table went through D_series or omega")

    monkeypatch.setattr(branching, "D_series", refuse)
    monkeypatch.setattr(symfunc, "omega", refuse)
    table = compute_cohomology(cfg)
    assert table.snapshots["final"] == final
    assert all(type(c) is int for cls in table.entries for c in cls.coeffs.values())
    assert table.snapshots["post-D"] == post_d
    assert table.snapshots["post-D"] is table.snapshots["post-D"]
    assert list(table.snapshots) == list(pipeline.STAGES)


def test_a_final_division_with_a_remainder_is_refused(monkeypatch):
    # Halving the bundle factor leaves an odd multiplicity over 2.
    original = pipeline.bundle_scalar_series
    monkeypatch.setattr(
        pipeline, "bundle_scalar_series", lambda n, trunc: original(n, trunc) * Fraction(1, 2)
    )
    with pytest.raises(NegativeMultiplicity, match="not an integer"):
        compute_cohomology(PipelineConfig(two_n=2, max_degree=3, variant="point"))
    result = invoke(["cohomology", "--dim", "2", "--max-degree", "3", "--variant", "closed"])
    assert result.exit_code == 2
    assert "not an integer" in result.output


def test_huge_requests_are_refused_from_a_small_ch_B(monkeypatch):
    # The budgets read ch_B at truncations 8, 16, 32, ... first, so a
    # huge degree is refused without the whole ch_B.
    original = pipeline.ch_B

    def small_only(n, trunc):
        assert trunc <= 64, f"ch_B built to truncation {trunc}"
        return original(n, trunc)

    monkeypatch.setattr(pipeline, "ch_B", small_only)
    for args in (
        ["cohomology", "--dim", "2", "--max-degree", "1000"],
        ["series", "--dim", "2", "--max-degree", "1000", "--stage", "final"],
        ["cohomology", "--dim", "6", "--max-degree", "10000", "--variant", "closed"],
    ):
        result = invoke(args)
        assert result.exit_code == 3, (args, result.output)
        assert "max degree" in result.output and "allows at least" in result.output
    result = invoke(["oracle", "--dim", "6", "--qmax", "3", "--dmax", "10000"])
    assert result.exit_code == 3, result.output
    assert "has at least" in result.output and "over the oracle cap of 300000" in result.output


def test_shape_bound_counts_partitions_up_to_the_weight_bound():
    # dim 2: ch_B puts h_3 at t^1, so no shape of exp_h weighs over 3 d
    for d, count in ((12, 99133), (13, 177970), (14, 313065)):
        chb = ch_B(1, d)
        assert exp_h_weight_bound(chb) == 3 * d
        assert _shape_count(3 * d, 10**6) == count
    assert _shape_count(exp_h_weight_bound(ch_B(3, 18)), 10**6) == 1597
    # p(0) + ... + p(17) = 1212 is the first running total past 1000
    assert _shape_count(40, 1000) == 1212


def test_cohomology_refuses_a_large_exp_h_before_it_runs(monkeypatch):
    # At dim 2 degree 14, exp_h could hold 313,065 shapes; the bound
    # needs only ch_B, so exp_h must not start.
    def refuse(*args, **kwargs):
        raise AssertionError("exp_h ran before the shape budget check")

    monkeypatch.setattr(pipeline, "_exp_h_masks", refuse)
    for args in (
        ["cohomology", "--dim", "2", "--max-degree", "14", "--variant", "closed"],
        ["series", "--dim", "2", "--max-degree", "14", "--stage", "chB"],
    ):
        result = invoke(args)
        assert result.exit_code == 3, args
        assert "Schur shapes of weight up to 42" in result.output
        assert "over the cap of 200000" in result.output
    shapes = _shape_count(3 * 14, pipeline.EXP_H_SHAPE_CAP)
    assert pipeline.EXP_H_SHAPE_CAP < shapes <= 313065
    assert f"max degree 14 allows at least {shapes} Schur shapes" in result.output


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
    result = invoke(["oracle", "--dim", "6", "--qmax", "12", "--dmax", "2"])
    assert result.exit_code == 3
    assert "4213597 set partitions" in result.output


# Test oracle for _basis_sizes: the count it replaced, the dimensions
# sum_lam c_lam f^lam of the weight-q slices of the whole pre-D series.
# It needs exp_h of ch_B, which is what the count avoids; kept only to
# check the exponential specialisation against.

def _pre_d_basis_sizes(n, d_max, q_max):
    pre_d = _oracle_pre_d(ch_B(n, d_max), n)
    sizes = {q: 0 for q in range(q_max + 1)}
    for f in pre_d.terms.values():
        for lam, c in f.coeffs.items():
            if lam.size <= q_max:
                sizes[lam.size] += int(c) * symmetric_group_irrep_dim(lam)
    return sizes


@pytest.mark.parametrize("two_n, d_max, q_max", [(2, 6, 8), (6, 8, 8), (10, 9, 9), (2, 8, 8)])
def test_basis_sizes_match_the_pre_d_count(two_n, d_max, q_max):
    n = two_n // 2
    assert _basis_sizes(ch_B(n, d_max), q_max) == _pre_d_basis_sizes(n, d_max, q_max)


def test_oracle_refuses_a_large_basis_before_exp_h(monkeypatch):
    # dim 2 at weight 10 has 1,829,426 basis elements; the count needs
    # only ch_B, so neither exp_h nor the enumeration may run
    def refuse(*args, **kwargs):
        raise AssertionError("exp_h or the basis ran before the budget check")

    monkeypatch.setattr(pipeline, "_exp_h_masks", refuse)
    monkeypatch.setattr(setparts, "enumerate_basis", refuse)
    result = invoke(["oracle", "--dim", "2", "--qmax", "10", "--dmax", "10"])
    assert result.exit_code == 3
    assert "weight 10 has 1829426 basis elements, over the oracle cap of 300000" in result.output


def test_oracle_refuses_a_basis_over_the_cap(monkeypatch):
    # The largest basis of a weight is counted from ch_B, as the
    # dimensions of the weight-q slices of its plethystic exponential,
    # before anything is enumerated
    sizes = {q: len(setparts.enumerate_basis(q, 1, "Pprime", 5)) for q in range(7)}
    q, size = max(sizes.items(), key=lambda qs: qs[1])

    def refuse(*args, **kwargs):
        raise AssertionError("basis enumerated before the budget check")

    monkeypatch.setattr(setparts, "enumerate_basis", refuse)
    monkeypatch.setattr(pipeline, "ORACLE_BASIS_CAP", size - 1)
    result = invoke(["oracle", "--dim", "2", "--qmax", "6", "--dmax", "5"])
    assert result.exit_code == 3
    assert f"weight {q} has {size} basis elements" in result.output
    # at the cap the budget admits the run, and enumeration starts
    monkeypatch.setattr(pipeline, "ORACLE_BASIS_CAP", size)
    with pytest.raises(AssertionError, match="basis enumerated"):
        oracle_check(2, 5, 6)


def test_cli_cohomology_json():
    result = invoke(
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
    assert invoke(args).output == invoke(args).output


def test_cli_text_output():
    result = invoke(["cohomology", "--dim", "6", "--max-degree", "2", "--genus", "11"])
    assert result.exit_code == 0
    assert "H^0" in result.output
    assert "V[1^2]" in result.output
    assert "trusted through degree 2" in result.output


def test_cli_rejects_bad_dimension():
    result = invoke(["cohomology", "--dim", "5", "--max-degree", "2"])
    assert result.exit_code == 3
    result = invoke(["series", "--dim", "6", "--max-degree", "2", "--stage", "bogus"])
    assert result.exit_code == 3


def test_cli_rejects_unknown_format():
    result = invoke(["cohomology", "--dim", "6", "--max-degree", "2", "--format", "bogus"])
    assert result.exit_code == 3
    assert "output must be one of ('text', 'json', 'latex'), got 'bogus'" in result.output


def test_cli_series_stage():
    result = invoke(["series", "--dim", "6", "--max-degree", "3", "--stage", "chB"])
    assert result.exit_code == 0
    assert result.output == "s[1]*t + 2*t^2 + (s[1] + s[3])*t^3\n"


def test_cli_oracle():
    result = invoke(["oracle", "--dim", "6", "--qmax", "2", "--dmax", "2"])
    assert result.exit_code == 0
    assert "q=1 d=1 pass" in result.output
    assert "all" in result.output and "pass" in result.output


def test_cli_lclass():
    result = invoke(["lclass", "--max", "2", "--dim", "6"])
    assert result.exit_code == 0
    assert "7/45" in result.output


def test_cli_range():
    result = invoke(["range", "--dim", "6", "--genus", "11"])
    assert result.exit_code == 0
    assert "4" in result.output
    bad = invoke(["range", "--dim", "4", "--genus", "11"])
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
    result = invoke(["graph", "reduce", str(path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["n"] == 1
    (term,) = payload["terms"]
    assert abs(term["coefficient"]) == 1
    (part,) = term["parts"]
    assert part["label"] == "e^2"


def test_cli_invariants_rank():
    result = invoke(
        ["invariants", "rank", "--g", "1", "--set-size", "4", "--epsilon", "-1"]
    )
    assert result.exit_code == 0
    assert "rank 2 of 3" in result.output
