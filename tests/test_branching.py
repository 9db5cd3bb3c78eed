import operator
import random
import warnings
from fractions import Fraction

import pytest
from bead_oracle import rim_hooks

from torelli import branching
from torelli.branching import (
    ClassSeries,
    EpsilonMismatch,
    OrthSympClass,
    StabilityWarning,
    _nl_pair,
    class_to_schur,
    dim_irrep,
    nl_product,
    restrict_coeffs,
    restrict_schur,
)
from torelli.partitions import EMPTY, Partition, partitions_of
from torelli.symfunc import LambdaSeries, SymFunc, change_basis, omega


def sf(text):
    return change_basis(text)


def cls(epsilon, pairs):
    return OrthSympClass(epsilon, {Partition(lam): m for lam, m in pairs.items()})


def test_restrict_degree_two():
    # symplectic: alternating square picks up the invariant form
    assert restrict_coeffs(Partition((1, 1)), -1) == ((EMPTY, 1),)
    assert restrict_coeffs(Partition((2,)), -1) == ()
    # orthogonal: symmetric square does
    assert restrict_coeffs(Partition((2,)), 1) == ((EMPTY, 1),)
    assert restrict_coeffs(Partition((1, 1)), 1) == ()
    assert restrict_coeffs(Partition((2, 2)), -1) == (
        (Partition((1, 1)), 1),
        (EMPTY, 1),
    )


def test_restrict_schur_linearity():
    got = restrict_schur(sf("s[2] + s[1,1]"), -1)
    assert got == cls(-1, {(2,): 1, (1, 1): 1, (): 1})


def test_nl_product_squares():
    v1 = cls(-1, {(1,): 1})
    sq = nl_product(v1, v1)
    assert sq == cls(-1, {(2,): 1, (1, 1): 1, (): 1})
    # Pieri: V_1 times V_lam adds a box plus removes a box, the rim hooks
    # of size 1 that the closed variant's fibre division uses
    for eps in (-1, 1):
        for q in range(9):
            for lam in partitions_of(q):
                pieri = {mu: 1 for mu, _ in rim_hooks(lam, 1) + rim_hooks(lam, -1)}
                assert nl_product(cls(eps, {(1,): 1}), cls(eps, {lam: 1})) == cls(eps, pieri)


def nl_coefficient(lam, mu, nu) -> int:
    """Structure constant of the stable tensor product on classes."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    for pair, c in _nl_pair(lam, mu):
        if pair == nu:
            return int(c)
    return 0


def test_nl_coefficient_frozen():
    assert nl_coefficient(Partition((1,)), Partition((1,)), EMPTY) == 1
    assert nl_coefficient(Partition((1,)), Partition((1,)), Partition((2,))) == 1
    assert nl_coefficient(Partition((1,)), Partition((1,)), Partition((1, 1))) == 1
    assert nl_coefficient(Partition((2,)), Partition((2,)), Partition((2,))) == 1
    assert nl_coefficient(Partition((2,)), Partition((2,)), Partition((4,))) == 1
    assert nl_coefficient(Partition((2,)), Partition((2,)), Partition((3,))) == 0


def test_nl_unit_comm_assoc():
    for eps in (-1, 1):
        unit = cls(eps, {(): 1})
        pool = [Partition(p) for q in range(4) for p in partitions_of(q)]
        rng = random.Random(7)
        for _ in range(12):
            a = cls(eps, {rng.choice(pool): rng.randrange(1, 3)})
            b = cls(eps, {rng.choice(pool): rng.randrange(1, 3)})
            c = cls(eps, {rng.choice(pool): 1})
            assert nl_product(unit, a) == a
            assert nl_product(a, b) == nl_product(b, a)
            lhs = nl_product(nl_product(a, b), c)
            rhs = nl_product(a, nl_product(b, c))
            assert lhs == rhs


def test_dim_irrep_symplectic_rank_two():
    # Sp(4): fundamental 4, adjoint-adjacent values
    assert dim_irrep(Partition((1,)), -1, 2) == 4
    assert dim_irrep(Partition((1, 1)), -1, 2) == 5
    assert dim_irrep(Partition((2,)), -1, 2) == 10
    assert dim_irrep(EMPTY, -1, 2) == 1


def _el_samra_king(lam, epsilon, g):
    """Test oracle: dim V_lam of Sp(2g) (epsilon = -1) or O(2g)
    (epsilon = +1) by the hook formula prod over boxes (i, j) of
    (2g + r_ij) / h_ij (El Samra and King, J. Phys. A 12, 1979). It shares
    no code with `_class_in_schur`, which `dim_irrep` evaluates."""
    conj = lam.conjugate()

    def part(p, k):
        return p[k - 1] if k <= len(p) else 0

    total = Fraction(1)
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            if epsilon == -1 and i > j:
                r = part(lam, i) + part(lam, j) - i - j + 2
            elif epsilon == -1:
                r = i + j - part(conj, i) - part(conj, j)
            elif i >= j:
                r = part(lam, i) + part(lam, j) - i - j
            else:
                r = i + j - part(conj, i) - part(conj, j) - 2
            hook = lam[i - 1] - j + conj[j - 1] - i + 1
            total *= Fraction(2 * g + r, hook)
    return total


def test_dim_irrep_is_the_el_samra_king_hook_formula():
    # every |lam| <= 8, l(lam) <= g <= 11 and both epsilon: 1,172 cases
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        for size in range(9):
            for lam in partitions_of(size):
                for g in range(max(len(lam), 1), 12):
                    for eps in (1, -1):
                        cases += 1
                        assert dim_irrep(lam, eps, g) == _el_samra_king(lam, eps, g), (lam, eps, g)
    assert cases == 1172


def test_dim_irrep_warns_outside_stable_range():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        dim_irrep(Partition((2, 2, 1)), -1, 2)
    assert any(issubclass(w.category, StabilityWarning) for w in rec)


def test_class_to_schur_round_trip():
    rng = random.Random(19)
    pool = [Partition(p) for q in range(5) for p in partitions_of(q)]
    for eps in (-1, 1):
        for _ in range(15):
            mults = {rng.choice(pool): rng.randrange(1, 4) for _ in range(3)}
            x = cls(eps, mults)
            assert restrict_schur(class_to_schur(x), eps) == x


# Test oracle for restrict_schur: triangular elimination, which peels the
# largest shape off with the Schur expansion of its class until nothing
# is left.

def _restrict_by_elimination(f, epsilon):
    out = {}
    rem = f
    while not rem.is_zero():
        top = max(rem.support(), key=Partition.sort_key)
        c = rem.coeff(top)
        out[top] = out.get(top, Fraction(0)) + c
        rem = rem - branching._class_in_schur(top, epsilon) * c
    return OrthSympClass(epsilon, out)


def test_restrict_schur_matches_the_elimination_oracle():
    rng = random.Random(28)
    pool = [Partition(p) for q in range(9) for p in partitions_of(q)]
    for eps in (-1, 1):
        for _ in range(150):
            f = SymFunc(
                {rng.choice(pool): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)}
            )
            assert restrict_schur(f, eps) == _restrict_by_elimination(f, eps), (f, eps)


def test_plethysm_restrictions_degree_six():
    # odd side
    odd = restrict_schur(omega(sf("s[6] + s[4,2]")), -1)
    assert odd == cls(
        -1,
        {
            (1, 1, 1, 1, 1, 1): 1,
            (1, 1, 1, 1): 2,
            (1, 1): 3,
            (): 2,
            (2, 2, 1, 1): 1,
            (2, 2): 1,
            (2, 1, 1): 1,
        },
    )
    # even side
    even = restrict_schur(sf("s[6] + s[4,2]"), 1)
    assert even == cls(
        1,
        {
            (): 2,
            (2,): 3,
            (2, 2): 1,
            (3, 1): 1,
            (4,): 2,
            (4, 2): 1,
            (6,): 1,
        },
    )


def test_render_class():
    x = cls(-1, {(1, 1): 2, (): 1, (2, 1): 1})
    assert str(x) == "1 + 2*V[1^2] + V[2,1]"


def test_negative_multiplicities_render():
    x = cls(-1, {(1,): -1})
    assert "-" in str(x)


def test_integral_class_coefficients_are_ints():
    x = cls(1, {(1,): Fraction(4, 2), (2,): 2.0, (3,): Fraction(1, 2), (1, 1): 0.0})
    assert x.coeffs == {(1,): 2, (2,): 2, (3,): Fraction(1, 2)}
    assert [type(x.coeff(lam)) for lam in ((1,), (2,), (3,))] == [int, int, Fraction]
    assert [type(c) for c in (x * 2).coeffs.values()] == [int, int, int]


def test_opposite_epsilons_do_not_mix():
    sp, o = cls(-1, {(1,): 1}), cls(1, {(1,): 1})
    for combine in (operator.add, operator.sub, operator.mul, nl_product):
        with pytest.raises(EpsilonMismatch):
            combine(sp, o)
    with pytest.raises(EpsilonMismatch):
        ClassSeries(-1, {0: sp, 1: o}, 2)
    with pytest.raises(EpsilonMismatch):
        ClassSeries(-1, {0: sp}, 2) + ClassSeries(1, {0: o}, 2)
    assert sp != o


def test_schur_functions_and_classes_do_not_mix():
    s1, v1 = SymFunc.schur((1,)), OrthSympClass(-1, {(1,): 1})
    for combine in (operator.add, operator.mul):
        with pytest.raises(TypeError):
            combine(s1, v1)
        with pytest.raises(TypeError):
            combine(LambdaSeries.one(2), ClassSeries(-1, {}, 2))
    with pytest.raises(TypeError):
        ClassSeries(-1, {}, 2) + LambdaSeries.one(2)
    assert (s1 == v1) is False


def test_equal_scalars_hash_alike():
    pairs = ((SymFunc.scalar(3), 3), (SymFunc.zero(), 0), (OrthSympClass.unit(-1), 1),
             (SymFunc.scalar(Fraction(1, 2)), Fraction(1, 2)), (OrthSympClass(1, {}), 0))
    for combination, number in pairs:
        assert combination == number
        assert len({combination, number}) == 1
