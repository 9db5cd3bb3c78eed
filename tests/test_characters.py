import random
from fractions import Fraction
from math import factorial

import pytest

from torelli.characters import (
    ClassFunction,
    NonIntegralMultiplicity,
    decompose,
    murnaghan_nakayama,
)
from torelli.partitions import EMPTY, Partition, partitions_of, z_lambda
from torelli.setparts import sigma_characters
from torelli.symfunc import SymFunc, _p_monomial_schur, change_basis

import bead_oracle
from bead_oracle import from_p_monomials, symmetric_group_irrep_dim


# Named characters and the Frobenius characteristic, built here from the
# character table: the package decomposes only fixed-point characters.


def irreducible_character(lam) -> ClassFunction:
    """The character of the irreducible representation indexed by lam."""
    lam = Partition(lam)
    q = lam.size
    return ClassFunction(
        q, {mu: Fraction(murnaghan_nakayama(lam, mu)) for mu in partitions_of(q)}
    )


def trivial_character(q: int) -> ClassFunction:
    return ClassFunction(q, {mu: Fraction(1) for mu in partitions_of(q)})


def sign_character(q: int) -> ClassFunction:
    # sign of a permutation of cycle type mu is (-1)^(q - number of cycles)
    return ClassFunction(
        q, {mu: Fraction((-1) ** (q - len(mu))) for mu in partitions_of(q)}
    )


def regular_character(q: int) -> ClassFunction:
    return ClassFunction(q, {Partition((1,) * q): Fraction(factorial(q))})


def ch_q(chi: ClassFunction) -> SymFunc:
    """Frobenius characteristic: sum over classes of chi(mu) p_mu / z_mu."""
    return from_p_monomials({mu: v / z_lambda(mu) for mu, v in chi.values.items()})


# Test oracle: the border-strip scan that computed character values before
# the rim-hook table. It tries every partition of the remaining size as
# the inner shape, so it is slow, but it shares no code with the table.

def _is_border_strip(outer: Partition, inner: Partition) -> bool:
    inner_padded = list(inner) + [0] * (len(outer) - len(inner))
    cells = set()
    for r, row_end in enumerate(outer):
        for c in range(inner_padded[r], row_end):
            cells.add((r, c))
    if not cells:
        return False
    # No 2x2 block.
    for (r, c) in cells:
        if (r + 1, c) in cells and (r, c + 1) in cells and (r + 1, c + 1) in cells:
            return False
    # Edge-connected.
    seen = {next(iter(cells))}
    frontier = list(seen)
    while frontier:
        r, c = frontier.pop()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen == cells


def _strip_scan(lam: Partition, mu: Partition, memo: dict) -> int:
    """chi^lam(mu): strip a border strip of size mu[0] with sign
    (-1)^height, found by scanning all partitions, and recurse."""
    if not lam:
        return 1
    key = (lam, mu)
    if key not in memo:
        k = mu[0]
        rest = Partition(mu[1:])
        total = 0
        for inner in partitions_of(lam.size - k):
            if not lam.contains(inner) or not _is_border_strip(lam, inner):
                continue
            inner_padded = list(inner) + [0] * (len(lam) - len(inner))
            height = sum(1 for r in range(len(lam)) if lam[r] > inner_padded[r]) - 1
            total += (-1) ** height * _strip_scan(inner, rest, memo)
        memo[key] = total
    return memo[key]


def test_murnaghan_nakayama_table():
    assert murnaghan_nakayama(EMPTY, EMPTY) == 1
    assert murnaghan_nakayama(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert murnaghan_nakayama(Partition((2, 1)), Partition((2, 1))) == 0
    assert murnaghan_nakayama(Partition((2, 1)), Partition((3,))) == -1
    # only hooks are nonzero on a full cycle
    assert murnaghan_nakayama(Partition((3, 2)), Partition((5,))) == 0
    assert murnaghan_nakayama(Partition((3, 1, 1)), Partition((5,))) == 1
    assert murnaghan_nakayama(Partition((4, 1)), Partition((5,))) == -1


def test_two_routes_agree():
    # the rim-hook table against the border-strip scan oracle
    memo = {}
    for q in range(9):
        for lam in partitions_of(q):
            for mu in partitions_of(q):
                assert murnaghan_nakayama(lam, mu) == _strip_scan(lam, mu, memo), (lam, mu)


def test_power_sum_columns_are_the_character_table():
    # The one table against the rim-hook recursion it replaced, and for
    # q <= 7 against the border-strip scan, which shares no code with it.
    memo = {}
    pairs = 0
    for q in range(11):
        shapes = partitions_of(q)
        for mu in shapes:
            column = _p_monomial_schur(mu)
            assert list(column) == [lam for lam in shapes if lam in column]
            assert 0 not in column.values()
            for lam in shapes:
                value = column.get(lam, 0)
                assert value == bead_oracle.murnaghan_nakayama(lam, mu), (lam, mu)
                if q <= 7:
                    assert value == _strip_scan(lam, mu, memo), (lam, mu)
                pairs += 1
    assert pairs == 3583


def test_orthogonality():
    for q in range(1, 7):
        parts = partitions_of(q)
        for lam in parts:
            for nu in parts:
                total = Fraction(0)
                for mu in parts:
                    total += Fraction(
                        murnaghan_nakayama(lam, mu) * murnaghan_nakayama(nu, mu),
                        z_lambda(mu),
                    )
                assert total == (1 if lam == nu else 0)


def test_named_characters():
    chi = trivial_character(4)
    assert all(chi.values.get(mu, 0) == 1 for mu in partitions_of(4))
    sgn = sign_character(4)
    assert sgn.values.get(Partition((2, 1, 1)), 0) == -1
    assert sgn.values.get(Partition((2, 2)), 0) == 1
    reg = regular_character(3)
    assert reg.values.get(Partition((1, 1, 1)), 0) == 6
    assert reg.values.get(Partition((3,)), 0) == 0


def test_ch_q_images():
    assert ch_q(trivial_character(3)) == change_basis("h3")
    assert ch_q(sign_character(3)) == change_basis("e3")
    assert ch_q(irreducible_character(Partition((2, 1)))) == change_basis("s[2,1]")


def test_decompose_regular():
    for q in (2, 3, 4, 5):
        mults = decompose(regular_character(q))
        for lam in partitions_of(q):
            assert mults[lam] == symmetric_group_irrep_dim(lam)


def test_decompose_product():
    # the pointwise product of two characters is the character of their
    # tensor product
    std = irreducible_character(Partition((2, 1))).values
    chi = ClassFunction(3, {mu: v * v for mu, v in std.items()})
    assert decompose(chi) == {
        Partition((3,)): 1,
        Partition((2, 1)): 1,
        Partition((1, 1, 1)): 1,
    }


def test_decompose_rejects_non_characters():
    fake = ClassFunction(2, {Partition((2,)): Fraction(1, 2), Partition((1, 1)): Fraction(1)})
    with pytest.raises(NonIntegralMultiplicity):
        decompose(fake)


# Test oracle for decompose: the Fraction inner product it replaced,
# sum over classes of chi(mu) chi^lam(mu) / z_mu, on the rim-hook
# recursion rather than the power-sum columns decompose sums.
def _fraction_decompose(chi):
    out = {}
    for lam in partitions_of(chi.q):
        total = sum(
            (
                v * bead_oracle.murnaghan_nakayama(lam, mu) / z_lambda(mu)
                for mu, v in chi.values.items()
            ),
            Fraction(0),
        )
        if total.denominator != 1:
            raise NonIntegralMultiplicity(f"multiplicity of {lam} came out as {total}")
        if total:
            out[lam] = int(total)
    return out


def test_decompose_matches_the_fraction_inner_product():
    cases = 0
    for n in (1, 2, 3, 5):
        for q in range(7):
            for chi in sigma_characters(q, n, 7).values():
                assert decompose(chi) == _fraction_decompose(chi), (n, q)
                cases += 1
    assert cases == 224
    # Virtual characters and non-characters: the same result or message.
    rng = random.Random(5)
    outcomes = set()
    for q in range(1, 7):
        for _ in range(5):
            chi = ClassFunction(
                q,
                {mu: Fraction(rng.randrange(-9, 10), rng.randrange(1, 3)) for mu in partitions_of(q)},
            )
            got, expected = _outcome(decompose, chi), _outcome(_fraction_decompose, chi)
            assert got == expected
            outcomes.add(type(got))
    assert outcomes == {dict, str}


def _outcome(decomposer, chi):
    try:
        return decomposer(chi)
    except NonIntegralMultiplicity as exc:
        return str(exc)


def test_random_character_round_trip():
    rng = random.Random(31)
    for _ in range(20):
        q = rng.randrange(1, 6)
        mults = {}
        for lam in partitions_of(q):
            if rng.random() < 0.5:
                mults[lam] = rng.randrange(1, 4)
        if not mults:
            continue
        irreducibles = {lam: irreducible_character(lam).values for lam in mults}
        chi = ClassFunction(q, {
            mu: sum(m * irreducibles[lam].get(mu, 0) for lam, m in mults.items())
            for mu in partitions_of(q)
        })
        assert decompose(chi) == mults
        # Frobenius image matches the Schur expansion
        expected = SymFunc.zero()
        for lam, m in mults.items():
            expected = expected + SymFunc.schur(lam) * SymFunc.scalar(m)
        assert ch_q(chi) == expected
