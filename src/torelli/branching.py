"""Branching from general linear groups to symplectic and orthogonal groups.

Elements here live in the free abelian group on irreducibles V_lambda of
Sp(2g) (epsilon = -1) or O(2g) (epsilon = +1), in the stable range where
the labelling by partitions is uniform in g. The bridge to symmetric
functions is the unitriangular change of basis between the Schur basis
and the classes s_<lambda>. Its transition coefficients are Littlewood's
skew Schur functions s_{lambda/delta}, summed over partitions delta with
even rows or even columns depending on epsilon. Those, and the skews of
the Newell-Littlewood product, are one walk each: delta is written in
the h-basis by Jacobi-Trudi, and each h_r^perp removes a horizontal strip
of r boxes from lambda (`symfunc._pieri`, `partitions.ribbon_strips`
with k = -1).

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
from typing import Mapping

from .partitions import EMPTY, Partition, even_columns, even_rows, partitions_of
from .symfunc import (
    EpsilonMismatch,
    LambdaSeries,
    SymFunc,
    _Combination,
    _jacobi_trudi,
    _pieri,
    _Series,
)


class StabilityWarning(UserWarning):
    """A dimension was requested outside the stable range 2|lambda| <= 2g."""


def _check_epsilon(epsilon: int) -> int:
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    return epsilon


@lru_cache(maxsize=None)
def restrict_coeffs(lam: Partition, epsilon: int) -> tuple[tuple[Partition, int], ...]:
    """Branching multiplicities of the Schur functor S_lam restricted down.

    Returns pairs (mu, a) with |mu| < |lam|, size descending and then in
    partitions_of order, such that the restriction is V_lam plus the sum
    of a * V_mu. By Littlewood, the sum is the skew of s_lam by the sum
    of s_delta over nonempty partitions delta with even rows
    (epsilon = +1) or even columns (epsilon = -1): one strip removal over
    the summed Jacobi-Trudi expansions of those delta.
    """
    lam = Partition(lam)
    _check_epsilon(epsilon)
    even = even_rows if epsilon == 1 else even_columns
    h_terms: dict[tuple, int] = {}
    for m in range(2, lam.size + 1, 2):
        for delta in partitions_of(m):
            if even(delta):
                for mu, c in _jacobi_trudi(delta).items():
                    h_terms[mu] = h_terms.get(mu, 0) + c
    skew = _pieri(lam, len(lam), -1, h_terms)
    out = sorted(skew.coeffs.items(), key=lambda kv: (-kv[0].size, kv[0].sort_key()))
    return tuple((mu, int(a)) for mu, a in out)


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
def _class_in_schur(lam: Partition, epsilon: int) -> SymFunc:
    """The symmetric function representing s_<lam>: unitriangular recursion."""
    lam = Partition(lam)
    f = SymFunc.schur(lam)
    for mu, a in restrict_coeffs(lam, epsilon):
        f = f - _class_in_schur(mu, epsilon) * a
    return f


def class_to_schur(x: OrthSympClass) -> SymFunc:
    """Expand a combination of classes V_lambda in the Schur basis."""
    total = SymFunc.zero()
    for lam, c in x.coeffs.items():
        total = total + _class_in_schur(lam, x.epsilon) * c
    return total


def restrict_schur(f: SymFunc, epsilon: int) -> OrthSympClass:
    """Express a symmetric function in the basis of classes s_<lambda>.

    On the character of a polynomial GL-representation this computes the
    decomposition of its restriction to the symplectic or orthogonal
    group. By Littlewood, s_lam restricts to V_lam plus the a V_mu of
    restrict_coeffs, so f restricts to the sum of those times the
    coefficients c_lam of f.
    """
    out: dict[Partition, Fraction] = {}
    for lam, c in f.coeffs.items():
        out[lam] = out.get(lam, 0) + c
        for mu, a in restrict_coeffs(lam, epsilon):
            out[mu] = out.get(mu, 0) + a * c
    return OrthSympClass(epsilon, out)


@lru_cache(maxsize=None)
def _skew_schur(lam: Partition, alpha: Partition) -> SymFunc:
    """s_{lam/alpha} = s_alpha^perp s_lam: the Jacobi-Trudi expansion of
    s_alpha removes horizontal strips from lam."""
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
    for mu, c in _class_in_schur(lam, epsilon).coeffs.items():
        total += c * schur_dim(mu, 2 * g)
    if total.denominator != 1:
        raise ValueError("dimension evaluation must be an integer")
    return int(total)
