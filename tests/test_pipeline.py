import json
import time
import warnings
from fractions import Fraction

import pytest
from basis_oracle import _blocks_within
from bead_oracle import rim_hooks, symmetric_group_irrep_dim
from cli_run import invoke

from torelli import branching, pipeline, setparts, symfunc
from torelli.branching import ClassSeries, D_series, OrthSympClass, nl_product
from torelli.labels import ch_B
from torelli.partitions import Partition, parse_partition, partition_count
from torelli.pipeline import (
    ConfigError,
    ExtrapolationWarning,
    LimitOnlyCaveat,
    NegativeMultiplicity,
    PipelineConfig,
    Unsupported,
    _shape_count,
    _validate_entries,
    _walk_size,
    bundle_scalar_series,
    compute_cohomology,
    divide_by_fiber,
    oracle_check,
    stable_range,
    variant_adjust,
)
from torelli.setparts import quotient_factor, quotient_series_by_L, sigma_characters
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
    # isinstance(True, int) holds, but a max degree True would give a
    # table trusted through degree True, and a genus True a stable range
    # of -1
    for build, message in (
        (lambda: PipelineConfig(6, True), "max degree must be a nonnegative integer, got True"),
        (lambda: PipelineConfig(6, 2, g=True), "genus must be a positive integer, got True"),
        (lambda: PipelineConfig(True, 2), "dimension must be a positive even integer, got True"),
        (lambda: stable_range(6, True), "genus must be a positive integer, got True"),
    ):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build()
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
        acc = OrthSympClass(series.epsilon, {})
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
                out[i + j] = out.get(i + j, OrthSympClass(a.epsilon, {})) + nl_product(x, y)
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
    # an integer series known to t^5, one order below the series
    scalar = [1, 0, -3, 2, 0, 7]
    as_classes = ClassSeries(-1, {k: OrthSympClass.unit(-1) * c for k, c in enumerate(scalar)}, 5)
    got = series.mul_scalar_series(scalar)
    assert got.trunc == 5
    assert got == _oracle_product(series, as_classes)
    # t^5 V[2,1]: -1/2 * 7 from t^0 * t^5, plus 2/3 * 2 from t^2 * t^3
    assert got.coefficient(5).coeff((2, 1)) == Fraction(-7, 2) + Fraction(4, 3)


# Test oracle for the stage pass after exp_h (`pipeline._StagePass`): the
# Partition-keyed chain it replaced. omega acts on SymFuncs, D relabels
# them into classes, the L-quotient and the bundle factor are two
# products of class series by integer series, coefficient by coefficient,
# and the fibre division reads the size-1 rim hooks of one shape at a
# time.


def _oracle_pre_d(chb, n):
    pleth = exp_h(chb)
    return pleth.map_coefficients(omega) if n % 2 else pleth


def _oracle_scalar_product(series, scalar):
    """A series in nonnegative powers of t times the integer list scalar,
    known to t^(len(scalar) - 1)."""
    trunc = min(series.trunc, len(scalar) - 1)
    out = {}
    for i, a in series.terms.items():
        for j, c in enumerate(scalar):
            if c and i + j <= trunc:
                acc = out.setdefault(i + j, {})
                for lam, x in a.coeffs.items():
                    acc[lam] = acc.get(lam, 0) + x * c
    return ClassSeries(
        series.epsilon, {k: OrthSympClass(series.epsilon, acc) for k, acc in out.items()}, trunc
    )


def _oracle_rim_hook_division(series, n):
    zero = OrthSympClass(series.epsilon, {})
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
    scalar = [5, -3, 0, 0, 2, 0, 0]
    assert series.mul_scalar_series(scalar) == _oracle_scalar_product(series, scalar)
    cfg = _quiet_config(4, 6, "closed")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        adjusted = variant_adjust(series, cfg)
    expected = _oracle_rim_hook_division(
        _oracle_scalar_product(series, bundle_scalar_series(2, 6)), 2
    )
    assert adjusted == expected


# Test oracle for the integer t-series (`setparts.quotient_factor`,
# `pipeline.bundle_scalar_series`, `pipeline._pass_scalar`): the products
# of LambdaSeries of Fraction scalars they replaced, one factor at a time.


def _oracle_quotient_factor(n, trunc):
    """prod_{i > n/2} (1 - t^{4i - 2n}), known to t^trunc."""
    out = LambdaSeries.one(trunc)
    for i in range(1, n + trunc + 1):
        if 2 * i > n:
            out = out * LambdaSeries({0: 1, 4 * i - 2 * n: -1}, trunc)
    return out


def _oracle_bundle_series(n, trunc):
    """The product of the geometric series 1/(1 - t^d) over the degrees
    d = 2n of e and 4i of p_i, 0 < i < n, known to t^trunc."""
    out = LambdaSeries.one(trunc)
    for d in [2 * n] + [4 * i for i in range(1, n)]:
        out = out * LambdaSeries({k: 1 for k in range(0, trunc + 1, d)}, trunc)
    return out


def _scalar_list(series):
    assert all(f.is_scalar() for f in series.terms.values())
    return [series.coefficient(d).coeff(()) for d in range(series.trunc + 1)]


def test_integer_scalar_series_match_the_lambda_series_products():
    for n in range(1, 11):
        for trunc in range(31):
            quotient = _oracle_quotient_factor(n, trunc)
            bundle = _oracle_bundle_series(n, trunc)
            expected = {"disc": quotient, "point": quotient * bundle, "closed": quotient * bundle}
            got = {variant: pipeline._pass_scalar(n, trunc, variant) for variant in pipeline.VARIANTS}
            got["quotient"], got["bundle"] = quotient_factor(n, trunc), bundle_scalar_series(n, trunc)
            expected["quotient"], expected["bundle"] = quotient, bundle
            for name, series in expected.items():
                assert all(type(c) is int for c in got[name]), (n, trunc, name)
                assert list(got[name]) == _scalar_list(series), (n, trunc, name)
    assert type(quotient_factor(3, 8)) is tuple
    assert quotient_factor(3, 8) is quotient_factor(3, 8)


def test_the_quotient_keeps_the_order_of_a_series_product():
    # The integer list of quotient_factor claims no more than the
    # LambdaSeries it replaced, at every valuation: the series' own order,
    # down to the empty series known to t^T < 0.
    pieces = {0: "s[1^2] - 1", 1: "2*s[3]", 2: "-s[1]", 3: "s[2,1]"}
    for trunc in range(-3, 4):
        for low in range(max(trunc, -1) + 2):
            terms = {k: change_basis(text) for k, text in pieces.items() if low <= k <= trunc}
            series = LambdaSeries(terms, trunc)
            for n in range(1, 5):
                expected = series * _oracle_quotient_factor(n, trunc)
                got = quotient_series_by_L(series, n)
                assert (got.trunc, got) == (trunc, expected), (trunc, low, n)
                for epsilon in (-1, 1):
                    got = quotient_series_by_L(D_series(series, epsilon), n)
                    assert (got.trunc, got) == (trunc, D_series(expected, epsilon)), (trunc, low, n, epsilon)


def test_quotient_of_a_series_matches_the_series_product():
    # for symmetric functions and for classes alike, at every order up to
    # a series of four terms, the first at t^0
    pieces = {
        0: change_basis("1/2*s[1^4] - s[2]"),
        1: change_basis("3"),
        3: change_basis("-2/3*s[3,1] + s[1^2]"),
        6: change_basis("s[2^2,1]"),
    }
    for trunc in range(10):
        series = LambdaSeries(pieces, trunc)
        for n in (1, 2, 3):
            expected = series * _oracle_quotient_factor(n, trunc)
            got = quotient_series_by_L(series, n)
            assert (got.trunc, got) == (trunc, expected), (trunc, n)
            for epsilon in (-1, 1):
                got = quotient_series_by_L(D_series(series, epsilon), n)
                assert (got.trunc, got) == (trunc, D_series(expected, epsilon)), (trunc, n, epsilon)


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
    # Doubling exp_h's denominator halves E_1 = V[1^3] t, an odd
    # multiplicity over 2 that no integer scalar series can clear.
    original = pipeline._exp_h_masks

    def doubled(*args):
        s_terms, den = original(*args)
        return s_terms, 2 * den

    monkeypatch.setattr(pipeline, "_exp_h_masks", doubled)
    with pytest.raises(NegativeMultiplicity, match="not an integer"):
        compute_cohomology(PipelineConfig(two_n=2, max_degree=3, variant="point"))
    result = invoke(["cohomology", "--dim", "2", "--max-degree", "3", "--variant", "closed"])
    assert result.exit_code == 2
    assert "not an integer" in result.output


def test_huge_requests_are_refused_from_a_small_ch_B(monkeypatch):
    # The budgets read ch_B at truncation 2n first, so a huge degree is
    # refused without the whole ch_B.
    original = pipeline.ch_B

    def small_only(n, trunc):
        assert trunc <= 64, f"ch_B built to truncation {trunc}"
        return original(n, trunc)

    monkeypatch.setattr(pipeline, "ch_B", small_only)
    for args in (
        ["cohomology", "--dim", "2", "--max-degree", "1000"],
        ["series", "--dim", "2", "--max-degree", "1000", "--stage", "final"],
        ["cohomology", "--dim", "6", "--max-degree", "10000", "--variant", "closed"],
        ["oracle", "--dim", "6", "--qmax", "3", "--dmax", "10000"],
    ):
        result = invoke(args)
        assert result.exit_code == 3, (args, result.output)
        assert "max degree" in result.output and "allows at least" in result.output


def test_the_shape_pre_check_reads_the_weight_bound_of_the_whole_ch_B(monkeypatch):
    # With a cap of 0 every request is refused, and the refusal names the
    # weight it read from ch_B at truncation min(T, 2n) alone; it must be
    # exp_h_weight_bound of the whole ch_B(n, T).
    original = pipeline.ch_B
    built = []

    def recorded(n, trunc):
        built.append((n, trunc))
        return original(n, trunc)

    monkeypatch.setattr(pipeline, "ch_B", recorded)
    monkeypatch.setattr(pipeline, "EXP_H_SHAPE_CAP", 0)
    start = time.perf_counter()
    for n in range(1, 11):
        for trunc in range(31):
            built.clear()
            weight = exp_h_weight_bound(ch_B(n, trunc))
            with pytest.raises(ConfigError, match=f"of weight up to {weight} in"):
                pipeline._ch_B_within_budget(n, trunc)
            assert built == [(n, min(trunc, 2 * n))]
    assert time.perf_counter() - start < 2.0


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


def test_oracle_refuses_the_shapes_cohomology_refuses(monkeypatch):
    # The oracle's series side is the disc pass up to dmax, so it takes
    # the same shape refusal, however small the weight it compares.
    def refuse(*args, **kwargs):
        raise AssertionError("exp_h ran before the shape budget check")

    monkeypatch.setattr(pipeline, "_exp_h_masks", refuse)
    for args in (
        ["oracle", "--dim", "2", "--qmax", "1", "--dmax", "20"],
        ["oracle", "--dim", "2", "--qmax", "1", "--dmax", "14"],
        ["oracle", "--dim", "6", "--qmax", "3", "--dmax", "10000"],
    ):
        result = invoke(args)
        assert result.exit_code == 3, (args, result.output)
        assert "Schur shapes" in result.output and "over the cap of 200000" in result.output


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
        variant_adjust(ClassSeries(-1, {}, 2), closed)
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
    # 1/(1 - t^2) when the window is empty
    assert bundle_scalar_series(1, 6) == [1, 0, 1, 0, 1, 0, 1]


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


@pytest.mark.parametrize(
    "two_n, q_max, d_max",
    [(2, 0, 6), (2, 2, 10), (2, 8, 8), (4, 5, 9), (6, 2, 20), (6, 8, 8), (8, 4, 12)],
)
def test_the_oracle_series_side_drops_only_shapes_heavier_than_qmax(two_n, q_max, d_max):
    n = two_n // 2
    chb = pipeline._ch_B_within_budget(n, d_max)
    full = pipeline._StagePass(chb, n, "disc")
    cut = pipeline._StagePass(chb, n, "disc", q_max)
    whole = LambdaSeries._from_masks(full.final, full.den, d_max)
    light = LambdaSeries._from_masks(cut.final, cut.den, d_max)
    for d in range(d_max + 1):
        assert max((sum(lam) for lam in light.coefficient(d).coeffs), default=0) <= q_max
        for q in range(q_max + 1):
            assert light.coefficient(d).homogeneous_part(q) == whole.coefficient(d).homogeneous_part(q)


def test_the_oracle_builds_no_shape_heavier_than_qmax():
    # the untruncated series side builds shapes of weight up to 39 here
    start = time.perf_counter()
    report = oracle_check(2, 13, 1)
    assert time.perf_counter() - start < 1.0
    assert report.ok, report.failures()
    assert len(report.cells) == 28


def _refuse(*args, **kwargs):
    raise AssertionError("the walk, ch_B or exp_h ran before the budget check")


def _refuse_the_walk(monkeypatch):
    for module, name in ((pipeline, "ch_B"), (pipeline, "_exp_h_masks"), (setparts, "_orbit_types")):
        monkeypatch.setattr(module, name, _refuse)


def test_oracle_fails_fast(monkeypatch):
    # dim 6 at qmax = dmax = 13 has a walk bound of 57,288,862, over the
    # cap; nothing may be walked before the request is rejected, and a
    # huge qmax is rejected at once
    _refuse_the_walk(monkeypatch)
    for d_max, q_max in ((13, 13), (2, 10**9), (10**9, 10**9)):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="oracle cap"):
            oracle_check(6, d_max, q_max)
        assert time.perf_counter() - start < 1.0
    result = invoke(["oracle", "--dim", "6", "--qmax", "13", "--dmax", "13"])
    assert result.exit_code == 3
    assert "summed over q, of at least 57288862, over the oracle cap" in result.output


# Test oracle for the walk cap: the set partitions `_blocks_within`
# keeps, walked and counted.

def _walked_checks(n, d_max, q_max):
    checks = 0
    for q in range(q_max + 1):
        kept = list(_blocks_within(tuple(range(1, q + 1)), n, "Pprime", d_max))
        checks += partition_count(q) * (1 + len(kept))
    return checks


def test_walk_size_counts_the_kept_set_partitions():
    for n, d_max, q_max in ((1, 6, 8), (1, 8, 8), (3, 8, 9), (3, 3, 12), (5, 9, 10), (2, 5, 7)):
        checks = _walked_checks(n, d_max, q_max)
        assert _walk_size(n, d_max, q_max, 10**9) == checks, (n, d_max, q_max)
        # past the cap, the count stops at the first running total over it
        assert _walk_size(n, d_max, q_max, checks - 1) == checks
        assert _walk_size(n, d_max, q_max + 5, checks - 1) == checks


# Test oracle for the basis sizes: the dimensions sum_lam c_lam f^lam of
# the weight-q slices of the whole pre-D series, which the identity
# values of the characters must give.

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
    sizes = {
        q: sum(chi.values.get(Partition((1,) * q), 0) for chi in sigma_characters(q, n, d_max).values())
        for q in range(q_max + 1)
    }
    assert sizes == _pre_d_basis_sizes(n, d_max, q_max)


def test_oracle_refuses_a_large_basis_before_exp_h(monkeypatch):
    # dim 2 at weight 12 walks all 4,213,597 set partitions against 77
    # classes; the count needs neither ch_B nor the walk
    _refuse_the_walk(monkeypatch)
    result = invoke(["oracle", "--dim", "2", "--qmax", "12", "--dmax", "12"])
    assert result.exit_code == 3
    assert "of at least 368059449, over the oracle cap of 50000000" in result.output


def test_oracle_refuses_a_basis_over_the_cap(monkeypatch):
    # The walk is counted before it runs: one check over the cap refuses,
    # and at the cap the walk starts
    checks = _walked_checks(1, 5, 6)
    monkeypatch.setattr(setparts, "_orbit_types", _refuse)
    monkeypatch.setattr(pipeline, "ORACLE_WALK_CAP", checks - 1)
    result = invoke(["oracle", "--dim", "2", "--qmax", "6", "--dmax", "5"])
    assert result.exit_code == 3
    assert f"summed over q, of at least {checks}, over the oracle cap" in result.output
    monkeypatch.setattr(pipeline, "ORACLE_WALK_CAP", checks)
    with pytest.raises(AssertionError, match="the walk"):
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
