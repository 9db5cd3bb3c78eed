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
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .partitions import EMPTY, Partition, even_columns, even_rows, mask_partition, partitions_of
from .symfunc import (
    LambdaSeries,
    SymFunc,
    _encode_series,
    _jacobi_trudi,
    _pieri,
    _render_parts,
    _scalar_factors,
    _times_scalar,
)


class EpsilonMismatch(ValueError):
    """Symplectic and orthogonal classes were mixed in one expression."""


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


class OrthSympClass:
    """An integer combination of stable irreducibles V_lambda.

    Coefficients are exact: an integral one is kept as an int, any other
    as a Fraction, so that a table's multiplicities are plain ints.
    """

    __slots__ = ("epsilon", "coeffs")

    def __init__(self, epsilon: int, coeffs: Mapping[Partition, int | Fraction]):
        self.epsilon = _check_epsilon(epsilon)
        cleaned: dict[Partition, int | Fraction] = {}
        for lam, c in coeffs.items():
            if c:
                if type(c) is not int:
                    c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                cleaned[Partition(lam)] = c
        self.coeffs = cleaned

    @staticmethod
    def zero(epsilon: int) -> "OrthSympClass":
        return OrthSympClass(epsilon, {})

    @staticmethod
    def unit(epsilon: int) -> "OrthSympClass":
        return OrthSympClass(epsilon, {EMPTY: Fraction(1)})

    def coeff(self, lam) -> Fraction:
        return self.coeffs.get(Partition(lam), Fraction(0))

    def support(self) -> list[Partition]:
        return sorted(self.coeffs, key=Partition.sort_key)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _match(self, other: "OrthSympClass") -> None:
        if self.epsilon != other.epsilon:
            raise EpsilonMismatch("cannot combine classes of opposite epsilon")

    def __add__(self, other):
        other = _as_class(other, self.epsilon)
        if other is NotImplemented:
            return NotImplemented
        self._match(other)
        merged = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            merged[lam] = merged.get(lam, Fraction(0)) + c
        return OrthSympClass(self.epsilon, merged)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_class(other, self.epsilon)
        if other is NotImplemented:
            return NotImplemented
        return self + other * -1

    def __rsub__(self, other):
        other = _as_class(other, self.epsilon)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "OrthSympClass":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return OrthSympClass(
                self.epsilon, {lam: c * other for lam, c in self.coeffs.items()}
            )
        if isinstance(other, OrthSympClass):
            return nl_product(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _as_class(other, self.epsilon)
        if other is NotImplemented:
            return NotImplemented
        return self.epsilon == other.epsilon and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.epsilon, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"OrthSympClass(eps={self.epsilon:+d}, {render_class(self)!r})"


def _as_class(x, epsilon: int):
    if isinstance(x, OrthSympClass):
        return x
    if isinstance(x, (int, Fraction)):
        return OrthSympClass(epsilon, {EMPTY: Fraction(x)})
    return NotImplemented


class ClassSeries:
    """A truncated series in t with OrthSympClass coefficients."""

    __slots__ = ("epsilon", "terms", "trunc")

    def __init__(self, epsilon: int, terms: Mapping[int, OrthSympClass], trunc: int):
        self.epsilon = _check_epsilon(epsilon)
        self.trunc = int(trunc)
        cleaned: dict[int, OrthSympClass] = {}
        for k, c in terms.items():
            if k > self.trunc:
                continue
            if isinstance(c, (int, Fraction)):
                c = OrthSympClass(epsilon, {EMPTY: Fraction(c)})
            if c.epsilon != epsilon:
                raise EpsilonMismatch("series coefficient has wrong epsilon")
            if not c.is_zero():
                cleaned[int(k)] = c
        self.terms = cleaned

    @staticmethod
    def zero(epsilon: int, trunc: int) -> "ClassSeries":
        return ClassSeries(epsilon, {}, trunc)

    def coefficient(self, k: int) -> OrthSympClass:
        if k > self.trunc:
            raise ValueError(f"coefficient of t^{k} beyond truncation {self.trunc}")
        return self.terms.get(k, OrthSympClass.zero(self.epsilon))

    def longest_column(self) -> int:
        """The largest number of rows of a shape in the series."""
        return max((len(lam) for c in self.terms.values() for lam in c.coeffs), default=0)

    def encode(self, beads: int) -> tuple[dict[int, dict[int, int]], int]:
        """The coefficients as integer combinations of beta-set masks with
        `beads` beads (at least `longest_column()`), and their denominator."""
        return _encode_series({k: c.coeffs for k, c in self.terms.items()}, beads)

    def mul_scalar_series(self, scalar: LambdaSeries) -> "ClassSeries":
        """Multiply by a series whose coefficients are scalar symmetric
        functions, on the integer combinations of masks."""
        trunc = min(self.trunc, scalar.trunc)
        terms, den = self.encode(self.longest_column())
        factors, scalar_den = _scalar_factors(scalar)
        return _mask_class_series(
            self.epsilon, _times_scalar(terms, factors, trunc), den * scalar_den, trunc
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassSeries):
            return NotImplemented
        return (
            self.epsilon == other.epsilon
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"ClassSeries(eps={self.epsilon:+d}, {render_class_series(self)!r})"


def _mask_class(epsilon: int, combination: Mapping[int, int], den: int) -> OrthSympClass:
    """sum c V_mask / den over an integer combination of beta-set masks."""
    out = OrthSympClass.__new__(OrthSympClass)
    out.epsilon = epsilon
    if den == 1:
        out.coeffs = {mask_partition(mask): c for mask, c in combination.items() if c}
        return out
    out.coeffs = {}
    for mask, c in combination.items():
        if c:
            whole, rest = divmod(c, den)
            out.coeffs[mask_partition(mask)] = Fraction(c, den) if rest else whole
    return out


def _mask_class_series(
    epsilon: int, terms: Mapping[int, Mapping[int, int]], den: int, trunc: int
) -> ClassSeries:
    """The ClassSeries of {t-exponent: {beta-set mask: int}} over den."""
    return ClassSeries(epsilon, {k: _mask_class(epsilon, c, den) for k, c in terms.items()}, trunc)


def D_series(series: LambdaSeries, epsilon: int) -> ClassSeries:
    """Apply the relabelling D to every coefficient of a series: s_lambda
    goes to the class V_lambda.  This is the coefficient-preserving
    isomorphism of abelian groups, not a restriction of representations;
    restrict_schur is the latter."""
    return ClassSeries(
        epsilon,
        {k: OrthSympClass(epsilon, dict(c.coeffs)) for k, c in series.terms.items()},
        series.trunc,
    )


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
    group, one V_mu per basis element: s_lam restricts to V_lam plus the
    lower terms prescribed by restrict_coeffs.
    """
    out: dict[Partition, Fraction] = {}
    rem = f
    while not rem.is_zero():
        top = max(rem.support(), key=Partition.sort_key)
        c = rem.coeff(top)
        out[top] = out.get(top, Fraction(0)) + c
        rem = rem - _class_in_schur(top, epsilon) * c
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
    """Stable tensor product of classes, bilinear in both arguments."""
    if x.epsilon != y.epsilon:
        raise EpsilonMismatch("cannot multiply classes of opposite epsilon")
    out: dict[Partition, Fraction] = {}
    for lam, a in x.coeffs.items():
        for mu, b in y.coeffs.items():
            for nu, c in _nl_pair(lam, mu):
                out[nu] = out.get(nu, Fraction(0)) + a * b * c
    return OrthSympClass(x.epsilon, out)


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


def render_class(x: OrthSympClass, letter: str = "V") -> str:
    """Human-readable form like 2 + V[2,1^2] + 3*V[1^2]."""
    if x.is_zero():
        return "0"
    return _render_parts(
        sorted(x.coeffs.items(), key=lambda kv: kv[0].sort_key()), letter
    )


def render_class_series(s: ClassSeries, letter: str = "V") -> str:
    from .symfunc import _render_series_parts

    return _render_series_parts(
        {k: render_class(c, letter) for k, c in s.terms.items()},
        {k: len(c.coeffs) for k, c in s.terms.items()},
    )
