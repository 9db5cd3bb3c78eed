import itertools
from fractions import Fraction
from math import factorial

import pytest
from cli_run import invoke

from torelli import labels
from torelli.labels import (
    L_CLASS_INDEX_CAP,
    IndexOutOfRange,
    LabelMonomial,
    _l_genus_p_coefficients,
    _label_counts,
    ch_B,
    generator_window,
    l_class,
    l_class_image,
    parse_label,
    render_label_combination,
)
from torelli.partitions import Partition, partitions_of
from torelli.pipeline import bundle_scalar_series
from torelli.symfunc import LambdaSeries, SymFunc, ValuationViolation, change_basis, e_sym, h_sym

from basis_oracle import labels_up_to
from bead_oracle import from_p_monomials


def test_generator_window():
    assert generator_window(1) == (1, 0)
    assert generator_window(3) == (1, 2)
    assert generator_window(5) == (2, 4)
    assert generator_window(7) == (2, 6)


def test_monomial_degrees():
    e = LabelMonomial.e(3)
    p1 = LabelMonomial.p(3, 1)
    p2 = LabelMonomial.p(3, 2)
    assert e.degree == 6
    assert p1.degree == 4
    assert p2.degree == 8
    assert (e * e * p1).degree == 16
    assert LabelMonomial.unit(3).degree == 0


def test_monomial_window_enforced():
    with pytest.raises(ValueError):
        LabelMonomial.p(3, 3)
    with pytest.raises(ValueError):
        LabelMonomial.p(1, 1)


def test_a_repeated_generator_is_one_power():
    split = LabelMonomial(5, 0, ((2, 1), (2, 2)))
    assert str(split) == "p2^3"
    assert split == LabelMonomial.p(5, 2, 3)
    assert len({split, LabelMonomial.p(5, 2, 3)}) == 1
    assert split.degree == 24


def test_a_generator_outside_the_window_is_refused_at_any_exponent():
    for text in ("p9", "p9^0", "e*p9^0", "p3^0"):
        with pytest.raises(ValueError, match="is not a generator for n=3"):
            parse_label(text, 3)
    with pytest.raises(ValueError, match="is not a generator for n=3"):
        LabelMonomial(3, 1, ((9, 0),))
    assert parse_label("p1^0*e", 3) == LabelMonomial.e(3)


def test_parse_round_trip():
    for text in ("1", "e", "e^2", "p1", "e^2*p1", "p1^3*p2"):
        mono = parse_label(text, 3)
        assert parse_label(str(mono), 3) == mono
    assert parse_label("e*e*p2", 3) == parse_label("e^2*p2", 3)


def labels_of_degree(n, d):
    """All monomials in B of degree exactly d, sorted."""
    return [m for m in labels_up_to(n, d) if m.degree == d]


def test_labels_of_degree():
    degree8 = labels_of_degree(3, 8)
    assert sorted(str(m) for m in degree8) == ["p1^2", "p2"]
    degree12 = labels_of_degree(3, 12)
    assert sorted(str(m) for m in degree12) == ["e^2", "p1*p2", "p1^3"]
    assert labels_of_degree(3, 5) == []


def _oracle_geometric(step, trunc):
    return LambdaSeries({k: SymFunc.scalar(1) for k in range(0, trunc + 1, step)}, trunc)


def _oracle_poincare_series(n, selector, trunc):
    """Test oracle: the Poincare series of V as a product of geometric
    series, one per generator, with the selector's cut encoded a second
    time as a subtraction.  Only 1, e, and single p_i can have degree at
    most 2n, so "deg>2n" drops 1, e and the p_i with i <= n/2.
    `labels.ch_B` cuts the one label count instead."""
    lo, hi = generator_window(n)
    series = _oracle_geometric(2 * n, trunc)
    for i in range(lo, hi + 1):
        series = series * _oracle_geometric(4 * i, trunc)
    if selector == "all":
        return series
    if selector in ("deg>=n", "deg>0"):
        return series + LambdaSeries.one(trunc) * -1
    assert selector == "deg>2n"
    low = LambdaSeries.one(trunc) + LambdaSeries.monomial(SymFunc.scalar(1), 2 * n, trunc)
    for i in range(lo, n // 2 + 1):
        low = low + LambdaSeries.monomial(SymFunc.scalar(1), 4 * i, trunc)
    return series + low * -1


def _shifted(series, k, trunc):
    """series times t^k, known to t^trunc; every exponent it keeps is at
    least 1, since the selectors of the pieces shifted down start above
    the shift."""
    return LambdaSeries({a + k: f for a, f in series.terms.items()}, trunc)


def _oracle_ch_B(n, trunc):
    """Test oracle: ch(B) summed from the selector series of
    `_oracle_poincare_series`, shifted and multiplied by h_q term by
    term.  `labels.ch_B` reads one table of label counts by part size."""
    total = _shifted(_oracle_poincare_series(n, "deg>2n", trunc + 2 * n), -2 * n, trunc)
    piece1 = _shifted(_oracle_poincare_series(n, "deg>=n", trunc + n), -n, trunc)
    total = total + piece1.map_coefficients(lambda c: h_sym(1) * c)
    piece2 = _oracle_poincare_series(n, "deg>0", trunc)
    total = total + piece2.map_coefficients(lambda c: h_sym(2) * c)
    full = _oracle_poincare_series(n, "all", trunc)
    q = 3
    while n * (q - 2) <= trunc:
        shifted = _shifted(full, n * (q - 2), trunc)
        hq = h_sym(q)
        total = total + shifted.map_coefficients(lambda c, hq=hq: hq * c)
        q += 1
    if any(k <= 0 for k in total.exponents()):
        raise ValuationViolation("ch(B) has a term of nonpositive t-exponent")
    return total


def _same_series(a, b):
    return (a.trunc, a.terms) == (b.trunc, b.terms)


def test_label_counts_match_the_enumerated_labels():
    for n in range(1, 9):
        by_degree = [0] * 31
        for label in labels_up_to(n, 30):
            by_degree[label.degree] += 1
        for cap in range(31):
            assert list(_label_counts(n, cap)) == by_degree[: cap + 1], (n, cap)


def test_ch_b_matches_the_selector_oracle():
    for n in range(1, 9):
        for trunc in range(1, 31):
            assert _same_series(ch_B(n, trunc), _oracle_ch_B(n, trunc)), (n, trunc)


def test_bundle_scalar_series_matches_the_geometric_product():
    for n in range(1, 9):
        for trunc in range(31):
            product = _oracle_geometric(2 * n, trunc)
            for i in range(1, n):
                product = product * _oracle_geometric(4 * i, trunc)
            counts = bundle_scalar_series(n, trunc)
            assert all(type(c) is int for c in counts), (n, trunc)
            assert counts == [product.coefficient(d).coeff(()) for d in range(trunc + 1)], (n, trunc)


def test_ch_b_dimension_six():
    series = ch_B(3, 4)
    assert series.coefficient(1) == change_basis("h1")
    assert series.coefficient(2) == SymFunc.scalar(2)
    assert series.coefficient(3) == change_basis("h3 + h1")
    assert series.coefficient(4) == change_basis("h2") + SymFunc.scalar(1)


def test_ch_b_dimension_two():
    series = ch_B(1, 3)
    assert series.coefficient(1) == change_basis("h3 + h1")
    assert series.coefficient(2) == change_basis("h2 + h4") + SymFunc.scalar(1)
    assert series.coefficient(3) == change_basis("h5 + h3 + h1")


def test_l_class_frozen():
    assert l_class(1).terms == {Partition((1,)): Fraction(1, 3)}
    assert l_class(2).terms == {
        Partition((2,)): Fraction(7, 45),
        Partition((1, 1)): Fraction(-1, 45),
    }
    assert l_class(3).terms == {
        Partition((3,)): Fraction(62, 945),
        Partition((2, 1)): Fraction(-13, 945),
        Partition((1, 1, 1)): Fraction(2, 945),
    }


def _schur_route_l_class(i):
    """Test oracle: the terms of L_i by a route through Schur functions.
    exp(sum a_k p_k) is taken in the p-basis (the coefficient of p_mu is
    prod_k a_k^{m_k} / m_k!), converted to Schur, and solved for its
    e-monomial coordinates by Gauss-Jordan elimination against the Schur
    expansions of the e_mu.  `labels.l_class` expands each p_k in the
    e-basis directly instead."""
    a = _l_genus_p_coefficients(i)
    terms = {}
    for mu in partitions_of(i):
        c = Fraction(1)
        for k in set(mu):
            m = mu.count(k)
            c *= a[k] ** m / factorial(m)
        terms[mu] = c
    f = from_p_monomials(terms)
    parts = list(partitions_of(i))
    cols = []
    for mu in parts:
        prod = SymFunc.scalar(1)
        for part in mu:
            prod = prod * e_sym(part)
        cols.append(prod)
    rows = [[col.coeff(lam) for col in cols] + [f.coeff(lam)] for lam in parts]
    m = len(parts)
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = Fraction(1) / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return {parts[r]: rows[r][m] for r in range(m) if rows[r][m]}


def test_l_class_matches_the_schur_route():
    for i in range(1, 13):
        assert l_class(i).terms == _schur_route_l_class(i), i


def _poly_mul(a, b, cap):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if sum(m) > cap:
                continue
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def test_l_class_against_genus_product():
    # sqrt(z)/tanh(sqrt(z)) = sum_k 2^{2k} B_{2k} z^k / (2k)!
    cap = 6
    q_coeffs = [
        Fraction(1), Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945),
        Fraction(-1, 4725), Fraction(2, 93555), Fraction(-1382, 638512875),
    ]
    nvars = 6
    product = {(0,) * nvars: Fraction(1)}
    for var in range(nvars):
        factor = {}
        for k, c in enumerate(q_coeffs):
            mono = [0] * nvars
            mono[var] = k
            factor[tuple(mono)] = c
        product = _poly_mul(product, factor, cap)

    elementary = []
    for r in range(1, nvars + 1):
        poly = {}
        for combo in itertools.combinations(range(nvars), r):
            mono = [0] * nvars
            for v in combo:
                mono[v] = 1
            poly[tuple(mono)] = Fraction(1)
        elementary.append(poly)

    for i in range(1, cap + 1):
        reconstructed = {}
        for mu, c in l_class(i).terms.items():
            term = {(0,) * nvars: c}
            for part in mu:
                term = _poly_mul(term, elementary[part - 1], cap)
            for m, v in term.items():
                reconstructed[m] = reconstructed.get(m, Fraction(0)) + v
        degree_part = {
            m: c for m, c in product.items() if sum(m) == i
        }
        reconstructed = {m: c for m, c in reconstructed.items() if c}
        assert reconstructed == degree_part


def test_l_class_image():
    assert l_class_image(1, 1) == {LabelMonomial.e(1, 2): Fraction(1, 3)}
    assert l_class_image(2, 3) == {
        LabelMonomial.p(3, 2): Fraction(7, 45),
        LabelMonomial.p(3, 1, 2): Fraction(-1, 45),
    }
    assert l_class_image(3, 3) == {
        LabelMonomial.e(3, 2): Fraction(62, 945),
        parse_label("p1*p2", 3): Fraction(-13, 945),
        LabelMonomial.p(3, 1, 3): Fraction(2, 945),
    }


def test_l_class_image_window_kills_terms():
    # for n = 5 the window starts at p_2, so any mu containing 1 dies
    image = l_class_image(3, 5)
    assert image == {LabelMonomial.p(5, 3): Fraction(62, 945)}


def test_l_class_image_rejects_low_index():
    with pytest.raises(IndexOutOfRange):
        l_class_image(1, 3)
    with pytest.raises(IndexOutOfRange):
        l_class_image(2, 4)


def test_render_label_combination():
    text = render_label_combination(l_class_image(2, 3))
    assert "7/45" in text
    assert "p2" in text


def test_lclass_refuses_a_large_index_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("L-class computed before the cap check")

    monkeypatch.setattr(labels, "l_class", refuse)
    monkeypatch.setattr(labels, "l_class_image", refuse)
    for args in (["--max", str(L_CLASS_INDEX_CAP + 1)], ["--max", "30", "--dim", "6"]):
        result = invoke(["lclass", *args])
        assert result.exit_code == 3
        assert f"exceeds the L-class cap of {L_CLASS_INDEX_CAP}" in result.output
