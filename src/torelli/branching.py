"""Branching from general linear groups to symplectic and orthogonal groups.

Elements here live in the free abelian group on irreducibles V_lambda of
Sp(2g) (epsilon = -1) or O(2g) (epsilon = +1), in the stable range where
the labelling by partitions is uniform in g. Both directions between
symmetric functions and classes are Littlewood's skews by a family of
partitions (Littlewood 1950; Koike-Terada, J. Algebra 107, 1987), one
walk per combination (`_skew_by_family`): the family is written in the
h-basis by Jacobi-Trudi (`_family`), and each h_r^perp removes a
horizontal strip of r boxes (`symfunc._strip_horner`,
`partitions.ribbon_strips` with k = -1). The skews of the
Newell-Littlewood product walk the same strips, one pair of shapes at a
time (`_skew_schur`).

`OrthSympClass` and `ClassSeries` are the kinds of `symfunc._Combination`
and `symfunc._Series` whose product is Newell-Littlewood (`_nl_pair`),
whose letter is V and whose epsilon must match; their arithmetic,
encoding, decoding and rendering are the ones of `SymFunc` and
`LambdaSeries`. `EpsilonMismatch` is defined and raised in `symfunc`,
for both kinds, and can be imported from here too.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType
from typing import Mapping

from .partitions import EMPTY, Partition, beta_mask, even_columns, even_rows, partitions_of
from .symfunc import (
    EpsilonMismatch,
    LambdaSeries,
    SymFunc,
    _Combination,
    _jacobi_trudi,
    _pieri,
    _Series,
    _strip_horner,
)


class StabilityWarning(UserWarning):
    """A dimension was requested outside the stable range 2|lambda| <= 2g."""


def _check_epsilon(epsilon: int) -> int:
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    return epsilon


def _exact(c, den: int = 1):
    """c / den, an int when it is integral and a Fraction otherwise."""
    if type(c) is int:
        whole, rest = divmod(c, den)
        return Fraction(c, den) if rest else whole
    c = Fraction(c) / den
    return c.numerator if c.denominator == 1 else c


class OrthSympClass(_Combination):
    """An integer combination of stable irreducibles V_lambda; the product
    is Newell-Littlewood (`_nl_pair`).

    Coefficients are exact: an integral one is kept as an int, any other
    as a Fraction, so that a table's multiplicities are plain ints.
    """

    __slots__ = ()
    letter = "V"
    _coefficient = staticmethod(_exact)

    def __init__(self, epsilon: int, coeffs: Mapping[Partition, int | Fraction]):
        super().__init__(coeffs, _check_epsilon(epsilon))

    @staticmethod
    def _basis_product(lam: Partition, mu: Partition):
        return _nl_pair(lam, mu)

    @staticmethod
    def unit(epsilon: int) -> "OrthSympClass":
        return OrthSympClass(epsilon, {EMPTY: 1})

    def __repr__(self) -> str:
        return f"OrthSympClass(eps={self.epsilon:+d}, {str(self)!r})"


class ClassSeries(_Series):
    """A truncated series in t with OrthSympClass coefficients."""

    __slots__ = ()
    kind = OrthSympClass

    def __init__(self, epsilon: int, terms: Mapping[int, OrthSympClass], trunc: int):
        super().__init__(terms, trunc, _check_epsilon(epsilon))

    def __repr__(self) -> str:
        return f"ClassSeries(eps={self.epsilon:+d}, {str(self)!r})"


def D_series(series: LambdaSeries, epsilon: int) -> ClassSeries:
    """Apply the relabelling D to every coefficient of a series: s_lambda
    goes to the class V_lambda.  This is the coefficient-preserving
    isomorphism of abelian groups, not a restriction of representations;
    restrict_schur is the latter."""
    terms = {k: OrthSympClass(epsilon, c.coeffs) for k, c in series.terms.items()}
    return ClassSeries(epsilon, terms, series.trunc)


@lru_cache(maxsize=None)
def _family(size: int, epsilon: int, inverse: bool) -> Mapping[tuple, int]:
    """Littlewood's family up to `size` boxes in the h-basis, {h-parts: int};
    read-only. Restricting, s_lam goes to sum s_<lam/delta>, the sum of
    s_delta over delta with even rows (epsilon = +1) or even columns
    (epsilon = -1). Inverting, s_<lam> = sum (-1)^{|gamma|/2} s_{lam/gamma}
    over gamma of Frobenius form (a_1 + 1, ... | a_1, ...) for epsilon = +1
    or (a_1, ... | a_1 + 1, ...) for epsilon = -1: each row of the Durfee
    square is epsilon longer than its column."""
    even = even_rows if epsilon == 1 else even_columns
    terms: dict[tuple, int] = {}
    for m in range(0, size + 1, 2):
        for lam in partitions_of(m):
            if inverse:
                conj, durfee = lam.conjugate(), sum(1 for i, part in enumerate(lam) if part > i)
                sign = (-1) ** (m // 2) * all(lam[i] - conj[i] == epsilon for i in range(durfee))
            else:
                sign = even(lam)
            if sign:
                for mu, c in _jacobi_trudi(lam).items():
                    terms[mu] = terms.get(mu, 0) + sign * c
    return MappingProxyType({mu: c for mu, c in terms.items() if c})


def _skew_by_family(x: _Combination, epsilon: int, inverse: bool) -> _Combination:
    """x skewed by Littlewood's family (`_family`): the SymFunc x as an
    OrthSympClass, or (inverse) the classes x as a SymFunc. One
    `_strip_horner` pass over x as beta-set masks over one denominator,
    as many beads as its longest column, removes every h-monomial."""
    coeffs = x.coeffs
    beads = max(map(len, coeffs), default=0)
    den = lcm(*(c.denominator for c in coeffs.values()))
    comb = {beta_mask(lam, beads): c.numerator * (den // c.denominator) for lam, c in coeffs.items()}
    family = _family(max((lam.size for lam in coeffs), default=0), epsilon, inverse)
    acc: dict[int, int] = {}
    _strip_horner(comb, -1, {mu: [(acc, c)] for mu, c in family.items()})
    return SymFunc._from_masks(acc, den) if inverse else OrthSympClass._from_masks(acc, den, epsilon)


def class_to_schur(x: OrthSympClass) -> SymFunc:
    """Expand a combination of classes V_lambda in the Schur basis."""
    return _skew_by_family(x, x.epsilon, inverse=True)


def restrict_schur(f: SymFunc, epsilon: int) -> OrthSympClass:
    """Express a symmetric function in the basis of classes s_<lambda>: on
    the character of a polynomial GL-representation, the decomposition of
    its restriction to the symplectic or orthogonal group (`_family`)."""
    return _skew_by_family(f, _check_epsilon(epsilon), inverse=False)


@lru_cache(maxsize=None)
def _skew_schur(lam: Partition, alpha: Partition) -> SymFunc:
    """s_{lam/alpha} = s_alpha^perp s_lam: the Jacobi-Trudi expansion of
    s_alpha removes horizontal strips from lam; one pair per call, cached
    for `_nl_pair`, and `perfbench/stages.py` reads the cache by name."""
    lam, alpha = Partition(lam), Partition(alpha)
    if not lam.contains(alpha):
        return SymFunc.zero()
    return _pieri(lam, len(lam), -1, _jacobi_trudi(alpha))


@lru_cache(maxsize=None)
def _nl_pair(lam: Partition, mu: Partition) -> tuple[tuple[Partition, Fraction], ...]:
    """Newell-Littlewood product of two irreducibles, as (nu, mult) pairs."""
    total = SymFunc.zero()
    for a in range(min(lam.size, mu.size) + 1):
        for alpha in partitions_of(a):
            left = _skew_schur(lam, alpha)
            if left.is_zero():
                continue
            right = _skew_schur(mu, alpha)
            if right.is_zero():
                continue
            total = total + left * right
    return tuple(sorted(total.coeffs.items()))


def nl_product(x: OrthSympClass, y: OrthSympClass) -> OrthSympClass:
    """Stable tensor product of classes, bilinear in both arguments; the
    product refuses classes of opposite epsilon."""
    return x * y


def schur_dim(mu, n_vars: int) -> Fraction:
    """Hook content formula: the Schur polynomial s_mu at n_vars ones."""
    mu = Partition(mu)
    total = Fraction(1)
    for i, row in enumerate(mu):
        for j in range(row):
            arm = row - 1 - j
            leg = sum(1 for r in mu[i + 1 :] if r > j)
            total *= Fraction(n_vars + j - i, arm + leg + 1)
    return total


def dim_irrep(lam, epsilon: int, g: int) -> int:
    """Dimension of V_lambda for the group of genus g.

    Outside the stable range 2|lambda| <= 2g the same formal expression
    is still evaluated but a StabilityWarning is issued, since the class
    may no longer be an honest irreducible there.
    """
    lam = Partition(lam)
    _check_epsilon(epsilon)
    if 2 * lam.size > 2 * g:
        warnings.warn(
            f"dimension of V_{lam} evaluated outside the stable range for g={g}",
            StabilityWarning,
            stacklevel=2,
        )
    total = Fraction(0)
    for mu, c in class_to_schur(OrthSympClass(epsilon, {lam: 1})).coeffs.items():
        total += c * schur_dim(mu, 2 * g)
    if total.denominator != 1:
        raise ValueError("dimension evaluation must be an integer")
    return int(total)
