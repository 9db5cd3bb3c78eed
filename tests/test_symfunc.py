import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, perm

import pytest

from torelli import branching, characters, partitions, symfunc
from torelli.branching import ClassSeries, OrthSympClass, _skew_schur, dim_irrep, restrict_schur
from torelli.labels import ch_B
from torelli.partitions import (
    EMPTY,
    Partition,
    even_columns,
    even_rows,
    partitions_of,
    beta_mask,
    ribbon_strips,
    z_lambda,
)
from torelli.pipeline import divide_by_fiber
from torelli.symfunc import (
    LambdaSeries,
    PlethysmDivergence,
    SymFunc,
    ValuationViolation,
    change_basis,
    e_sym,
    exp_h,
    h_sym,
    lr_coefficient,
    omega,
    p_sym,
    plethysm,
)
from torelli.symfunc import _exp_h_masks, _jacobi_trudi

import bead_oracle
from bead_oracle import (
    _horner,
    _p_action,
    _stretch,
    from_p_monomials,
    murnaghan_nakayama,
    p_route_plethysm,
    p_route_product,
    p_route_restrict,
    p_route_skew,
    partitions_upto,
    rim_hooks,
    slide_beads,
    to_p,
)


def sf(text):
    return change_basis(text)


# Test oracle: Littlewood-Richardson coefficients counted as tableaux.
# The program multiplies Schur functions, and skews them, by adding and
# removing horizontal strips; this counter shares no code with that
# route. It is slow and kept only to check the program against.

@lru_cache(maxsize=None)
def _lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The coefficient of s_lam in s_mu * s_nu.

    Counted as the number of semistandard skew tableaux of shape lam/mu
    and content nu whose reverse reading word is a lattice word.
    """
    if mu.size + nu.size != lam.size:
        return 0
    if not (lam.contains(mu) and lam.contains(nu)):
        return 0
    if not nu:
        return 1

    # Cells in reverse reading order: top row first, right to left.
    cells = []
    mu_padded = list(mu) + [0] * (len(lam) - len(mu))
    for r, row_end in enumerate(lam):
        for c in range(row_end - 1, mu_padded[r] - 1, -1):
            cells.append((r, c))

    fill: dict[tuple[int, int], int] = {}
    counts = [0] * (len(nu) + 1)
    total = 0

    def place(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        right = fill.get((r, c + 1))
        above = fill.get((r - 1, c)) if r > 0 and c >= mu_padded[r - 1] else None
        for v in range(1, len(nu) + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            counts[v] += 1
            fill[(r, c)] = v
            place(idx + 1)
            del fill[(r, c)]
            counts[v] -= 1

    place(0)
    return total


@lru_cache(maxsize=None)
def _lr_table(mu: Partition, nu: Partition) -> tuple:
    pairs = ((lam, _lr_coefficient(lam, mu, nu)) for lam in partitions_of(mu.size + nu.size))
    return tuple((lam, c) for lam, c in pairs if c)


def _lr_product(f: SymFunc, g: SymFunc) -> SymFunc:
    out = {}
    for mu, a in f.coeffs.items():
        for nu, b in g.coeffs.items():
            for lam, c in _lr_table(mu, nu):
                out[lam] = out.get(lam, 0) + a * b * c
    return SymFunc(out)


def _lr_series_mul(x: LambdaSeries, y: LambdaSeries) -> LambdaSeries:
    """x * y, known to the smaller of the two orders, through _lr_product."""
    trunc = min(x.trunc, y.trunc)
    out = {}
    for a, f in x.terms.items():
        for b, g in y.terms.items():
            if a + b <= trunc:
                out[a + b] = out.get(a + b, SymFunc.zero()) + _lr_product(f, g)
    return LambdaSeries(out, trunc)


# Test oracle: the Schur-basis route that exp_h and plethysm took before
# the power-sum core. p_k[g] is converted back to Schur through the
# columns of the character table, and every product of series goes
# through the tableau counter above. It is slow and kept only to check
# the power-sum core against.

def _column_sum(terms) -> SymFunc:
    """sum_mu c_mu p_mu, one character-table column per mu."""
    out = SymFunc.zero()
    for mu, c in terms.items():
        column = symfunc._p_monomial_schur(Partition(mu))
        out = out + SymFunc({lam: Fraction(c) * v for lam, v in column.items()})
    return out


def _lr_pk_compose(k: int, g: LambdaSeries) -> LambdaSeries:
    """p_k composed with g: p_m -> p_{km} in coefficients, t -> t^k."""
    if k == 1:
        return g
    out = {}
    for a, f in g.terms.items():
        if k * a > g.trunc:
            continue
        stretched = {Partition(tuple(k * part for part in mu)): c for mu, c in to_p(f).items()}
        out[k * a] = out.get(k * a, SymFunc.zero()) + _column_sum(stretched)
    return LambdaSeries(out, g.trunc)


def _lr_plethysm(f: SymFunc, g: LambdaSeries) -> LambdaSeries:
    total = LambdaSeries.zero(g.trunc)
    for mu, c in to_p(f).items():
        term = LambdaSeries.one(g.trunc)
        for part in mu:
            term = _lr_series_mul(term, _lr_pk_compose(part, g))
        total = total + term * c
    return total


def _lr_exp_h(g: LambdaSeries) -> LambdaSeries:
    """sum over q and |mu| = q of prod_i p_{mu_i}[g] / z_mu."""
    pk = {k: _lr_pk_compose(k, g) for k in range(1, g.trunc + 1)}
    total = LambdaSeries.one(g.trunc)
    for q in range(1, g.trunc + 1):
        for mu in partitions_of(q):
            term = LambdaSeries.one(g.trunc)
            for part in mu:
                term = _lr_series_mul(term, pk[part])
            total = total + term * Fraction(1, z_lambda(mu))
    return total


# Test oracle: the rim-hook rule on Partitions, an abacus kept as a list
# of bead positions. The program moves beads on beta-set bitmasks
# (`partitions.ribbon_strips`); this shares no code with that and is kept
# only to check it against.

@lru_cache(maxsize=None)
def _abacus_rim_hooks(lam: Partition, k: int) -> tuple:
    padded = tuple(lam) + (0,) * max(k, 0)
    top = len(padded) - 1
    beads = [part + top - i for i, part in enumerate(padded)]
    occupied = set(beads)
    out = []
    for i, b in enumerate(beads):
        c = b + k
        if c < 0 or c in occupied:
            continue
        low, high = min(b, c), max(b, c)
        leg = sum(1 for x in beads if low < x < high)
        moved = sorted(beads[:i] + beads[i + 1:] + [c], reverse=True)
        shape = Partition([x - top + j for j, x in enumerate(moved)])
        out.append((shape, -1 if leg % 2 else 1))
    return tuple(out)


# Test oracle: the Horner p -> s pass keyed on Partitions, every step
# through the abacus above, as it ran before shapes became bitmasks.

def _partition_horner(terms, start: Partition, direction: int) -> dict:
    out = {}
    groups = {}
    for mu, c in terms.items():
        if mu:
            groups.setdefault(mu[-1], {})[mu[:-1]] = c
        else:
            out[start] = out.get(start, 0) + c
    for k, rest in groups.items():
        for lam, c in _partition_horner(rest, start, direction).items():
            for nu, sign in _abacus_rim_hooks(lam, direction * k):
                out[nu] = out.get(nu, 0) + sign * c
    return out


# Test oracle: exp_h's log-derivative recurrence m E_m = sum_j j L_j E_{m-j}
# on Fraction coefficients, as it ran before the integer recurrence.

def _fraction_exp_h(g: LambdaSeries) -> LambdaSeries:
    dlog = {}
    for a, c in g.terms.items():
        for k in range(1, g.trunc // a + 1):
            dj = dlog.setdefault(k * a, {})
            for mu, x in to_p(c).items():
                key = Partition(tuple(k * part for part in mu))
                dj[key] = dj.get(key, 0) + a * x
    exp_terms = [{EMPTY: Fraction(1)}]
    for m in range(1, g.trunc + 1):
        acc = {}
        for j, dj in dlog.items():
            for mu, x in dj.items() if j <= m else ():
                for nu, y in exp_terms[m - j].items():
                    key = Partition(mu + nu)
                    acc[key] = acc.get(key, 0) + x * y
        exp_terms.append({mu: c / m for mu, c in acc.items() if c})
    return LambdaSeries({m: from_p_monomials(e) for m, e in enumerate(exp_terms)}, g.trunc)


# Test oracle: exp_h's integer core as it ran before the h-basis, on
# p-monomials. Each coefficient of g enters through `to_p`, and A_j adds
# the rim hooks of its p-monomials one at a time (`_horner`), so most
# intermediate shapes cancel again; kept only to check the ribbon-strip
# route against. Its D is the common denominator of the p-coefficients.

def _p_monomial_exp_h_masks(g: LambdaSeries, beads: int):
    trunc = g.trunc
    dlog = {}
    for a, c in g.terms.items():
        pa = to_p(c)
        for k in range(1, trunc // a + 1):
            dj = dlog.setdefault(k * a, {})
            for mu, x in _stretch(pa, k).items():
                dj[mu] = dj.get(mu, 0) + a * x
    den = lcm(*(c.denominator for dj in dlog.values() for c in dj.values()))
    scaled = {
        j: {mu: c.numerator * (den // c.denominator) for mu, c in dj.items() if c}
        for j, dj in dlog.items()
    }
    s_terms = [{beta_mask(EMPTY, beads): 1}]
    for m in range(1, trunc + 1):
        acc = {}
        for j, aj in scaled.items():
            if j <= m and s_terms[m - j]:
                s = perm(m - 1, j - 1) * den ** (j - 1)
                _horner({mu: a * s for mu, a in aj.items()}, s_terms[m - j], 1, acc)
        s_terms.append({mask: c for mask, c in acc.items() if c})
    return s_terms, den


def _normalised_masks(s_terms, den):
    """[E_0, E_1, ...] with E_m = S_m / (m! D^m) as {mask: Fraction}."""
    return [
        {mask: Fraction(c, factorial(m) * den**m) for mask, c in s.items() if c}
        for m, s in enumerate(s_terms)
    ]


def _hand_made_series() -> LambdaSeries:
    # negative and fractional coefficients, several weights per degree
    return LambdaSeries(
        {
            1: sf("s[1] - 1/2*s[2] + 3"),
            2: sf("-2*s[1^2] + 2/3*s[2,1] - 1/5"),
            3: sf("s[3] - 3/4*s[1]"),
        },
        5,
    )


def test_lr_small_products():
    assert sf("s[1]") * sf("s[1]") == sf("s[2] + s[1^2]")
    assert sf("s[2]") * sf("s[2]") == sf("s[4] + s[3,1] + s[2^2]")
    assert sf("s[1]") * sf("s[1^2]") == sf("s[2,1] + s[1^3]")
    assert sf("s[2,1]") * sf("s[1]") == sf("s[3,1] + s[2^2] + s[2,1^2]")


def test_schur_products_match_the_tableau_oracle():
    for n in range(11):
        for a in range(n + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(n - a):
                    f, g = SymFunc.schur(mu), SymFunc.schur(nu)
                    assert f * g == _lr_product(f, g), (mu, nu)


def test_skews_match_the_tableau_oracle():
    for n in range(11):
        for lam in partitions_of(n):
            for a in range(n + 1):
                for alpha in partitions_of(a):
                    if lam.contains(alpha):
                        oracle = SymFunc({
                            beta: _lr_coefficient(lam, alpha, beta)
                            for beta in partitions_of(n - a)
                        })
                        assert _skew_schur(lam, alpha) == oracle, (lam, alpha)


def _restriction_past_top(lam, epsilon):
    """The restriction of s_lam minus its leading class V_lam."""
    return restrict_schur(SymFunc.schur(lam), epsilon) - OrthSympClass(epsilon, {lam: 1})


def test_restrictions_match_the_tableau_oracle():
    # Littlewood: the sum over delta with even rows or columns of c^lam_{mu delta}
    for epsilon, even in ((1, even_rows), (-1, even_columns)):
        for n in range(11):
            for lam in partitions_of(n):
                oracle = []
                for m in range(n - 2, -1, -2):
                    for mu in partitions_of(m):
                        a = sum(
                            _lr_coefficient(lam, mu, delta)
                            for delta in partitions_of(n - m)
                            if even(delta)
                        )
                        if a:
                            oracle.append((mu, a))
                got = _restriction_past_top(lam, epsilon)
                assert got == OrthSympClass(epsilon, dict(oracle)), (lam, epsilon)


def test_strip_routes_match_the_p_route_oracle():
    # Products add Pieri strips, skews and branching remove them; the
    # oracle runs each on p-expansions and the character table instead.
    shapes = partitions_upto(6)
    for mu in shapes:
        for nu in shapes:
            assert SymFunc.schur(mu) * SymFunc.schur(nu) == p_route_product(mu, nu), (mu, nu)
            assert _skew_schur(mu, nu) == p_route_skew(mu, nu), (mu, nu)
        for epsilon in (1, -1):
            oracle = OrthSympClass(epsilon, dict(p_route_restrict(mu, epsilon)))
            assert _restriction_past_top(mu, epsilon) == oracle, (mu, epsilon)


_GUARD_PAIRS = [
    (Partition((3, 2, 1)), Partition((2, 1))),
    (Partition((4, 2)), Partition((1, 1))),
    (Partition((2, 2, 2)), Partition((3,))),
    (Partition((5, 1)), EMPTY),
]


def _strip_route_results():
    return (
        [symfunc._schur_product_table(mu, nu) for mu, nu in _GUARD_PAIRS],
        [_skew_schur(lam, alpha) for lam, alpha in _GUARD_PAIRS],
        [_restriction_past_top(lam, epsilon) for lam, _ in _GUARD_PAIRS for epsilon in (1, -1)],
        [dim_irrep(lam, epsilon, 8) for lam, _ in _GUARD_PAIRS for epsilon in (1, -1)],
    )


def _refuse_character_reads(monkeypatch, message):
    """Clear the character table's caches, and make the table
    (`symfunc._p_monomial_schur`) and its lookup
    (`characters.murnaghan_nakayama`) raise in every module that holds
    a reference to either."""
    tables = (symfunc._p_monomial_schur, characters.murnaghan_nakayama)
    for table in tables:
        table.cache_clear()

    def refuse(*args):
        raise AssertionError(message)

    holders = [
        (module, name)
        for module in list(sys.modules.values())
        for name, value in list(getattr(module, "__dict__", {}).items())
        if any(value is table for table in tables)
    ]
    for module, name in holders:
        monkeypatch.setattr(module, name, refuse)
    assert {(module.__name__, name) for module, name in holders} >= {
        ("torelli.symfunc", "_p_monomial_schur"),
        ("torelli.characters", "_p_monomial_schur"),
        ("torelli.characters", "murnaghan_nakayama"),
    }


def test_products_skews_and_branching_read_no_character(monkeypatch):
    # With every cache cleared, none of them expands into power sums or
    # reads a character value.
    expected = _strip_route_results()
    for cached in (symfunc._schur_product_table, symfunc.lr_coefficient, _skew_schur,
                   branching._family):
        cached.cache_clear()
    _refuse_character_reads(monkeypatch, "left the strip route")
    assert _strip_route_results() == expected


def test_lr_coefficient_values():
    assert lr_coefficient(Partition((2, 1)), Partition((1,)), Partition((1, 1))) == 1
    assert lr_coefficient(Partition((3, 1)), Partition((2,)), Partition((2,))) == 1
    assert lr_coefficient(Partition((2, 2)), Partition((2,)), Partition((1, 1))) == 0
    # the famous multiplicity-2 case
    assert lr_coefficient(
        Partition((4, 3, 2)), Partition((2, 1)), Partition((3, 2, 1))
    ) == 2


def test_lr_symmetry():
    rng = random.Random(23)
    for _ in range(120):
        a = rng.choice(partitions_of(rng.randrange(1, 5)))
        b = rng.choice(partitions_of(rng.randrange(1, 5)))
        lhs = SymFunc.schur(a) * SymFunc.schur(b)
        rhs = SymFunc.schur(b) * SymFunc.schur(a)
        assert lhs == rhs


def test_generator_expansions():
    assert h_sym(3) == sf("s[3]")
    assert e_sym(3) == sf("s[1^3]")
    assert p_sym(2) == sf("s[2] - s[1^2]")
    assert p_sym(3) == sf("s[3] - s[2,1] + s[1^3]")
    assert h_sym(0) == SymFunc.scalar(1)


def test_omega_involution():
    for k in range(1, 6):
        assert omega(h_sym(k)) == e_sym(k)
        assert omega(p_sym(k)) == p_sym(k) * SymFunc.scalar((-1) ** (k - 1))
    rng = random.Random(7)
    for _ in range(40):
        lam = rng.choice(partitions_of(rng.randrange(1, 8)))
        f = SymFunc.schur(lam)
        assert omega(f) == SymFunc.schur(lam.conjugate())
        assert omega(omega(f)) == f


def test_power_sum_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        coeffs = {}
        for _ in range(rng.randrange(1, 4)):
            lam = rng.choice(partitions_of(rng.randrange(1, 6)))
            coeffs[lam] = coeffs.get(lam, Fraction(0)) + Fraction(
                rng.randrange(-4, 5), rng.randrange(1, 4)
            )
        f = from_p_monomials(coeffs)
        assert from_p_monomials(to_p(f)) == f


def test_horner_matches_character_columns():
    for mu in partitions_upto(10):
        assert from_p_monomials({mu: 1}) == _column_sum({mu: 1}), mu
    rng = random.Random(41)
    mixed = {}
    for _ in range(40):
        mu = rng.choice(partitions_of(rng.randrange(0, 11)))
        mixed[mu] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
    assert from_p_monomials(mixed) == _column_sum(mixed)


def test_rim_hooks_match_the_abacus_oracle():
    for lam in partitions_upto(10):
        for k in [*range(-10, 0), *range(1, 11)]:
            assert rim_hooks(lam, k) == _abacus_rim_hooks(lam, k), (lam, k)


def _h_r_of_p_k(k: int, r: int) -> tuple[dict, int]:
    """h_r[p_k] = sum over mu of r of p_{k mu} / z_mu, as integer
    p-coefficients over their common denominator."""
    terms = {tuple(k * part for part in mu): Fraction(1, z_lambda(mu)) for mu in partitions_of(r)}
    den = lcm(*(c.denominator for c in terms.values()))
    return {mu: int(c * den) for mu, c in terms.items()}, den


def test_ribbon_strips_match_the_p_expansion_of_h_r_of_p_k():
    for lam in partitions_upto(8):
        for k in range(1, 5):
            start = {beta_mask(lam, lam.size + 4 * k): 1}
            strips = ribbon_strips(start, k, 4)
            assert len(strips) == 5
            for r in range(5):
                terms, den = _h_r_of_p_k(k, r)
                oracle = {}
                for mask, c in _horner(terms, start, 1, {}).items():
                    if c:
                        assert c % den == 0, (lam, k, r)
                        oracle[mask] = c // den
                assert strips[r] == oracle, (lam, k, r)
    # an integer combination of masks, one shared bead count
    rng = random.Random(5)
    start = {beta_mask(lam, 16): rng.randrange(-5, 6) for lam in partitions_upto(6)}
    for k in (1, 2, 3):
        strips = ribbon_strips(start, k, 3)
        for r in range(4):
            terms, den = _h_r_of_p_k(k, r)
            oracle = _horner(terms, start, 1, {})
            assert {m: c for m, c in strips[r].items() if c} == {
                m: c // den for m, c in oracle.items() if c
            }, (k, r)


def test_ribbon_strips_of_one_ribbon_slide_one_bead():
    rng = random.Random(17)
    start = {beta_mask(lam, 14): rng.randrange(-4, 5) for lam in partitions_upto(7)}
    for k in [*range(1, 7), *range(-1, -7, -1)]:
        assert ribbon_strips(start, k, 1)[1] == slide_beads(start, k, {}), k


def test_removing_strips_is_adjoint_to_adding_them():
    # <h_r[p_k] s_mu, s_lam> = <s_mu, h_r[p_k]^perp s_lam>, both ways round:
    # every strip added to mu is removed again from lam with the same
    # sign, and every strip removed from lam adds back to it.
    beads, pairs = 12, 0
    for k in (1, 2, 3):
        for r in (1, 2, 3):
            for mu in partitions_upto(6):
                start = beta_mask(mu, beads)
                for lam, c in ribbon_strips({start: 1}, k, r)[r].items():
                    assert ribbon_strips({lam: 1}, -k, r)[r].get(start, 0) == c, (mu, k, r)
                    pairs += 1
            for lam in partitions_upto(9):
                start = beta_mask(lam, beads)
                for mu, c in ribbon_strips({start: 1}, -k, r)[r].items():
                    assert ribbon_strips({mu: 1}, k, r)[r].get(start, 0) == c, (lam, k, r)
                    pairs += 1
    assert pairs > 2500


def test_removing_one_ribbon_matches_the_abacus_oracle():
    # Extra beads below the shape change no removal.
    for lam in partitions_upto(10):
        for k in range(1, 11):
            for extra in (0, 2):
                hooks = ribbon_strips({beta_mask(lam, len(lam) + extra): 1}, -k, 1)[1]
                decoded = {partitions.mask_partition(m): c for m, c in hooks.items()}
                assert decoded == dict(_abacus_rim_hooks(lam, -k)), (lam, k, extra)


def test_jacobi_trudi_multiplies_back_to_schur():
    for lam in partitions_upto(7):
        total = SymFunc.zero()
        for mu, c in _jacobi_trudi(lam).items():
            term = SymFunc.scalar(c)
            for part in mu:
                term = term * h_sym(part)
            total = total + term
        assert total == SymFunc.schur(lam), lam
    # e_7 = sum over the 2^6 compositions alpha of 7 of -+h_alpha, which
    # merge into one term per partition of 7
    column = _jacobi_trudi(Partition((1,) * 7))
    assert len(column) == len(partitions_of(7))
    assert sum(abs(c) for c in column.values()) == 2**6



def test_jacobi_trudi_matches_the_leibniz_determinant():
    # Every permutation of the columns, none pruned, merged by h-parts.
    from itertools import permutations

    for lam in partitions_upto(8):
        oracle = {}
        for cols in permutations(range(len(lam))):
            indices = [lam[i] - i + j for i, j in enumerate(cols)]
            if min(indices, default=0) >= 0:
                inversions = sum(a > b for x, a in enumerate(cols) for b in cols[x + 1:])
                key = tuple(sorted((i for i in indices if i), reverse=True))
                oracle[key] = oracle.get(key, 0) + (-1) ** inversions
        assert dict(_jacobi_trudi(lam)) == {k: c for k, c in oracle.items() if c}, lam
    # e_14: one term per partition of 14, from 2^13 compositions
    column = _jacobi_trudi(Partition((1,) * 14))
    assert len(column) == len(partitions_of(14))
    assert sum(abs(c) for c in column.values()) == 2**13


def test_p_action_matches_the_partition_horner():
    starts = (EMPTY, Partition((2, 1)), Partition((3, 3, 1)))
    for start in starts:
        for direction in (1, -1):
            for mu in partitions_upto(10):
                oracle = SymFunc(_partition_horner({mu: 1}, start, direction))
                assert _p_action({mu: 1}, start, direction) == oracle, (mu, start, direction)
    rng = random.Random(29)
    mixed = {rng.choice(partitions_upto(8)): Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
             for _ in range(30)}
    for start in starts:
        for direction in (1, -1):
            oracle = SymFunc.zero()
            for mu, c in mixed.items():
                oracle = oracle + SymFunc(_partition_horner({mu: 1}, start, direction)) * c
            assert _p_action(mixed, start, direction) == oracle, (start, direction)


def _steep_series() -> LambdaSeries:
    # The largest weight per degree comes from degree 2 (s[1^4] weighs
    # 2 per degree), and the t^4 coefficient of exp_h holds s[1^8], which
    # needs every one of the floor(2 * 4) = 8 beads of the recurrence.
    return LambdaSeries({1: sf("s[1] - 2/3"), 2: sf("s[1^4] - 1/2*s[2]")}, 4)


def test_exp_h_matches_the_fraction_recurrence():
    # _fraction_exp_h is the p-basis recurrence that exp_h replaced.
    cases = [(n, d) for n in (1, 3, 5) for d in range(1, 8)] + [(1, 8)]
    for n, d in cases:
        g = ch_B(n, d)
        fast, slow = exp_h(g), _fraction_exp_h(g)
        assert (fast.terms, fast.trunc) == (slow.terms, slow.trunc), (n, d)
    for g in (_hand_made_series(), _steep_series()):
        fast, slow = exp_h(g), _fraction_exp_h(g)
        assert (fast.terms, fast.trunc) == (slow.terms, slow.trunc)
    assert exp_h(_steep_series()).coefficient(4).coeff((1,) * 8) != 0


def _multi_row_series() -> LambdaSeries:
    # Jacobi-Trudi gives h-monomials of several parts, so p_k[g_a] is a
    # product of ribbon strips of different sizes, and D is 7, not 1.
    return LambdaSeries({1: sf("s[2,2,1] - s[3,1]"), 2: sf("s[1^3] + 1/7")}, 4)


def test_exp_h_masks_match_the_p_monomial_oracle():
    # The two routes scale S_m by different D, so E_m = S_m / (m! D^m) is
    # compared; a larger bead count than the bound must change nothing.
    cases = [ch_B(n, d) for n in (1, 3, 5) for d in range(1, 9)]
    cases += [_hand_made_series(), _steep_series(), _multi_row_series()]
    for g in cases:
        beads = symfunc.exp_h_weight_bound(g)
        for extra in (0, 3):
            fast = _exp_h_masks(g, beads + extra)
            slow = _p_monomial_exp_h_masks(g, beads + extra)
            assert _normalised_masks(*fast) == _normalised_masks(*slow), (g, extra)
    for n in (1, 3, 5):
        assert _exp_h_masks(ch_B(n, 8))[1] == 1
    assert _exp_h_masks(_multi_row_series())[1] == 7


def test_exp_h_runs_on_the_schur_side(monkeypatch):
    # The recurrence acts on Schur shapes in the h-basis and reads no
    # character value.
    inputs = (ch_B(1, 6), _steep_series(), _multi_row_series())
    expected = [_fraction_exp_h(g) for g in inputs]
    _refuse_character_reads(monkeypatch, "exp_h left the h-basis route")
    assert [exp_h(g) for g in inputs] == expected


def test_to_p_reads_only_its_characters():
    # h_12 = s[12] = sum_mu p_mu / z_mu, read from the row of (12) alone,
    # without filling any character-table column.
    symfunc._p_monomial_schur.cache_clear()
    murnaghan_nakayama.cache_clear()
    expansion = to_p(SymFunc.schur((12,)))
    assert symfunc._p_monomial_schur.cache_info().misses == 0
    assert expansion == {mu: Fraction(1, z_lambda(mu)) for mu in partitions_of(12)}


def test_p_to_s_builds_only_the_final_shapes(monkeypatch):
    # The oracle's Horner pass keeps its intermediate shapes as bitmasks:
    # no rim_hooks lookup, and no more Partitions than result keys.
    rng = random.Random(12)
    weight12 = partitions_of(12)
    cases = (
        {mu: Fraction(1, z_lambda(mu)) for mu in weight12},  # h_12
        {mu: Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for mu in weight12},
    )
    calls = {"rim_hooks": 0, "Partition": 0}
    original_rim_hooks, original_new = bead_oracle.rim_hooks, Partition.__new__

    def counted_rim_hooks(*args):
        calls["rim_hooks"] += 1
        return original_rim_hooks(*args)

    def counted_new(cls, parts=()):
        calls["Partition"] += 1
        return original_new(cls, parts)

    results = []
    with monkeypatch.context() as patch:
        patch.setattr(bead_oracle, "rim_hooks", counted_rim_hooks)
        patch.setattr(Partition, "__new__", staticmethod(counted_new))
        for terms in cases:
            calls.update(rim_hooks=0, Partition=0)
            out = from_p_monomials(terms)
            results.append(out)
            assert calls["rim_hooks"] == 0
            assert calls["Partition"] <= len(out.coeffs)
    assert results[0] == h_sym(12)
    assert len(results[1].coeffs) > 1


def test_power_sum_core_matches_lr_oracle():
    for g in (ch_B(1, 5), ch_B(3, 9), _hand_made_series()):
        fast, slow = exp_h(g), _lr_exp_h(g)
        assert (fast.terms, fast.trunc) == (slow.terms, slow.trunc)
        for f in (sf("h2"), sf("e3 - 2/3*p2*h1 + 1/2")):
            fast, slow = plethysm(f, g), _lr_plethysm(f, g)
            assert (fast.terms, fast.trunc) == (slow.terms, slow.trunc)


def test_a_negative_exponent_is_refused():
    # A series holds nonnegative exponents only; the refusal names the
    # exponent, for both kinds, known to t^-1 or beyond it, and before a
    # product, a plethysm or the fibre division could drop the term.
    cases = [
        (LambdaSeries, ({-1: 1}, 2), "t\\^-1"),
        (LambdaSeries, ({-1: sf("s[1]"), 0: sf("-1/2*s[2]"), 2: sf("s[1^2] + 2")}, 4), "t\\^-1"),
        (LambdaSeries, ({-3: sf("s[1]"), -2: sf("2 - s[2]")}, -1), "t\\^-3"),
        (LambdaSeries, ({-2: 0}, 3), "t\\^-2"),
        (ClassSeries, (1, {-4: 1}, -5), "t\\^-4"),
    ]
    for kind, args, exponent in cases:
        with pytest.raises(ValuationViolation, match=f"negative exponent, got {exponent}$"):
            kind(*args)
    # the fibre division reads degrees 0 and up, so it could only drop a t^-1
    with pytest.raises(ValuationViolation, match="negative exponent, got t\\^-1$"):
        divide_by_fiber(ClassSeries(-1, {-1: OrthSympClass(-1, {Partition((1,)): 1}), 0: 1}, 3), 1)
    assert LambdaSeries({0: 1, 4: sf("s[1]"), 5: 2}, 4).exponents() == [0, 4]


def _random_symfunc(rng, max_size: int) -> SymFunc:
    f = SymFunc.zero()
    for _ in range(rng.randrange(1, 4)):
        lam = rng.choice(partitions_of(rng.randrange(max_size + 1)))
        f = f + SymFunc.schur(lam) * Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 4))
    return f


def _plethysm_pairs(count: int = 64) -> list:
    """Seeded pairs (f, g): f of degree <= 4, also zero or constant; g
    truncated at 0 to 4, with shapes of size <= 3 at exponents from 0 up,
    so valuation-0 and positive-valuation series both occur."""
    rng = random.Random(31)
    pairs = []
    for i in range(count):
        if i % 8 == 0:
            f = SymFunc.zero()
        elif i % 8 == 1:
            f = SymFunc.scalar(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
        else:
            f = _random_symfunc(rng, 4)
        trunc = rng.randrange(5)
        exponents = range(rng.choice((0, 0, 1, 1, 2)), trunc + 1)
        picked = rng.sample(exponents, min(len(exponents), rng.randrange(1, 3)))
        pairs.append((f, LambdaSeries({a: _random_symfunc(rng, 3) for a in picked}, trunc)))
    return pairs


def test_plethysm_matches_the_p_route_oracle():
    pairs = _plethysm_pairs()
    valuations = [g.valuation() for _, g in pairs]
    assert 0 in valuations and any(v is not None and v > 0 for v in valuations)
    assert sum(f.is_zero() for f, _ in pairs) and sum(f.is_scalar() and not f.is_zero() for f, _ in pairs)
    for f, g in pairs:
        fast, slow = plethysm(f, g), p_route_plethysm(f, g)
        assert (fast.terms, fast.trunc) == (slow.terms, slow.trunc), (f, g)


def test_plethysm_reads_no_character(monkeypatch):
    # f goes to the h-basis by Jacobi-Trudi and each h_m[g] comes from
    # exp_h, so with every cache cleared no character value is read.
    inputs = _plethysm_pairs(16) + [
        (p_sym(3), LambdaSeries.monomial(p_sym(2), 1, 8)),
        (e_sym(3), LambdaSeries.monomial(e_sym(3), 0, 0)),
    ]
    expected = [plethysm(f, g) for f, g in inputs]
    for cached in (symfunc._schur_product_table, symfunc.lr_coefficient, symfunc._jacobi_trudi):
        cached.cache_clear()
    _refuse_character_reads(monkeypatch, "plethysm read a character value")
    assert [plethysm(f, g) for f, g in inputs] == expected


def test_plethysm_refuses_a_series_known_below_t0_only():
    # The zero series truncated at t^-2 says nothing about t^0, where h_0 = 1 sits.
    with pytest.raises(ValueError, match="order t\\^0"):
        plethysm(h_sym(2), LambdaSeries.zero(-2))
    assert plethysm(h_sym(2), LambdaSeries.zero(0)) == LambdaSeries.zero(0)


def test_exp_h_stays_off_the_lr_route():
    # ch_B multiplies h_q by scalar SymFuncs, which scale coefficients
    symfunc.lr_coefficient.cache_clear()
    symfunc._schur_product_table.cache_clear()
    chb = ch_B(3, 8)
    assert symfunc._schur_product_table.cache_info().misses == 0
    exp_h(chb)
    assert symfunc.lr_coefficient.cache_info().misses == 0
    assert symfunc._schur_product_table.cache_info().misses == 0


def test_character_value_against_strips():
    # contents of the character table for q = 3 and q = 4
    assert murnaghan_nakayama(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert murnaghan_nakayama(Partition((2, 1)), Partition((3,))) == -1
    assert murnaghan_nakayama(Partition((2, 2)), Partition((2, 1, 1))) == 0
    assert murnaghan_nakayama(Partition((2, 2)), Partition((4,))) == 0
    assert murnaghan_nakayama(Partition((2, 2)), Partition((2, 2))) == 2
    assert murnaghan_nakayama(Partition((3, 1)), Partition((4,))) == -1


def test_change_basis_refuses_malformed_text():
    for text, message in (("h2^", "exponent"), ("1/0", "zero denominator"), ("h2 +", "end"),
                          ("(h1", "parentheses"), ("h1 x", "cannot parse"), ("h1^1/2", "integer"),
                          ("s[2^-1]", "bad partition piece '2\\^-1'"),
                          ("h2*s[3,2^-1]", "bad partition piece '2\\^-1'")):
        with pytest.raises(ValueError, match=message):
            change_basis(text)
    assert change_basis("3/4*h2^2") == change_basis("3/4*h2*h2")


def test_homogeneous_split():
    f = sf("s[2] + 3*s[1] - s[3,1]")
    parts = bead_oracle.homogeneous_components(f)
    assert set(parts) == {1, 2, 4}
    assert parts[2] == sf("s[2]")
    assert f.homogeneous_part(4) == sf("-s[3,1]")
    assert f.homogeneous_part(3).is_zero()


def test_series_arithmetic_and_truncation():
    one = LambdaSeries.one(5)
    t = LambdaSeries.monomial(SymFunc.scalar(1), 1, 5)
    geo = LambdaSeries({k: SymFunc.scalar(1) for k in range(6)}, 5)
    assert (geo * (one + t * -1)) == one
    # truncation is the min of the operand truncations plus valuations
    a = LambdaSeries.monomial(SymFunc.scalar(1), 2, 6)
    b = LambdaSeries.monomial(SymFunc.scalar(1), 3, 4)
    assert (a * b).trunc == 4
    assert (a + b).trunc == 4


def test_series_product_with_a_geometric_inverse():
    # 1 + s[1] t times the geometric series in -s[1] t
    f = LambdaSeries.one(3) + LambdaSeries.monomial(sf("s[1]"), 1, 3)
    inv = LambdaSeries(
        {0: sf("1"), 1: sf("-s[1]"), 2: sf("s[2] + s[1^2]"), 3: sf("-s[3] - 2*s[2,1] - s[1^3]")},
        3,
    )
    assert (inv * f) == LambdaSeries.one(3)


def test_plethysm_power_sum_rules():
    # p_k composed with p_m gives p_{km}, and t goes to t^k
    g = LambdaSeries.monomial(p_sym(2), 1, 8)
    out = plethysm(p_sym(3), g)
    assert out.coefficient(3) == p_sym(6)
    assert out.exponents() == [3]


def test_plethysm_classical_values():
    g0 = LambdaSeries.monomial(h_sym(2), 0, 0)
    assert plethysm(h_sym(2), g0).coefficient(0) == sf("s[4] + s[2^2]")
    assert plethysm(e_sym(2), g0).coefficient(0) == sf("s[3,1]")
    g1 = LambdaSeries.monomial(e_sym(2), 0, 0)
    assert plethysm(h_sym(2), g1).coefficient(0) == sf("s[2^2] + s[1^4]")
    # the two degree-6 squares and their conjugates
    g3 = LambdaSeries.monomial(h_sym(3), 0, 0)
    assert plethysm(h_sym(2), g3).coefficient(0) == sf("s[6] + s[4,2]")
    assert plethysm(h_sym(3), g1).coefficient(0) == omega(sf("s[6] + s[4,2] + s[2^3]"))
    ge3 = LambdaSeries.monomial(e_sym(3), 0, 0)
    assert plethysm(e_sym(2), ge3).coefficient(0) == omega(sf("s[6] + s[4,2]"))


def test_plethysm_is_a_ring_map_in_the_outer_slot():
    rng = random.Random(19)
    g = LambdaSeries.monomial(sf("s[1]"), 1, 4) + LambdaSeries.monomial(
        sf("s[2]"), 2, 4
    )
    for _ in range(10):
        a = SymFunc.schur(rng.choice(partitions_of(rng.randrange(1, 4))))
        b = SymFunc.schur(rng.choice(partitions_of(rng.randrange(1, 4))))
        assert plethysm(a + b, g) == plethysm(a, g) + plethysm(b, g)
        assert plethysm(a * b, g) == plethysm(a, g) * plethysm(b, g)


def test_exp_h_exponential_law():
    f = LambdaSeries.monomial(sf("s[1]"), 1, 4)
    g = LambdaSeries.monomial(sf("s[2]"), 2, 4)
    assert exp_h(f + g) == exp_h(f) * exp_h(g)
    # exp of h_1 t enumerates the trivial representations
    series = exp_h(f)
    for q in range(5):
        assert series.coefficient(q) == h_sym(q), q


def test_exp_h_divergence():
    with pytest.raises(PlethysmDivergence):
        exp_h(LambdaSeries.one(3))
    with pytest.raises(PlethysmDivergence):
        exp_h(LambdaSeries({0: sf("s[1]"), 2: sf("s[2]")}, 3))


def test_render():
    assert str(sf("2*s[2,1] - s[1]")) == "-s[1] + 2*s[2,1]"
    s = LambdaSeries.monomial(sf("s[1]"), 1, 2) + LambdaSeries.one(2)
    assert str(s) == "1 + s[1]*t"
