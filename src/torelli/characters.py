"""Character theory of symmetric groups.

Class functions and their decomposition into irreducibles. Every
character value is an entry of one table, the power-sum columns
`symfunc._p_monomial_schur` (p_mu = sum_lam chi^lam(mu) s_lam), which
the tests check against a border-strip scan and a rim-hook recursion.
The enumeration oracle built on this module stays
independent of the plethysm route through what it decomposes:
fixed-point characters of the labelled-partition basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Mapping

from .partitions import Partition, partitions_of, z_lambda
from .symfunc import _p_monomial_schur


class NonIntegralMultiplicity(ValueError):
    """Decomposition produced a fractional multiplicity: not a character."""


class ClassFunction:
    """A rational-valued function on conjugacy classes of a symmetric group."""

    __slots__ = ("q", "values")

    def __init__(self, q: int, values: Mapping[Partition, Fraction]):
        self.q = int(q)
        cleaned: dict[Partition, Fraction] = {}
        for mu, v in values.items():
            mu = Partition(mu)
            if mu.size != self.q:
                raise ValueError(f"class {mu} does not belong to degree {self.q}")
            v = Fraction(v)
            if v:
                cleaned[mu] = v
        self.values = cleaned

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.q == other.q and self.values == other.values

    def __repr__(self) -> str:
        return f"ClassFunction(q={self.q}, {self.values!r})"


@lru_cache(maxsize=None)
def murnaghan_nakayama(lam: Partition, mu: Partition) -> int:
    """Value of the irreducible character chi^lam on the class mu: the
    entry lam of the power-sum column `_p_monomial_schur(mu)`."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError("character argument must have matching size")
    return _p_monomial_schur(mu).get(lam, 0)


def decompose(chi: ClassFunction) -> dict[Partition, int]:
    """Multiplicities of irreducibles in a virtual character.

    They are the Schur coefficients of the Frobenius characteristic
    sum_mu chi(mu) p_mu / z_mu (Macdonald I.7), formed on integers: the
    values over their common denominator, each times the class size
    q!/z_mu, weight the columns `_p_monomial_schur(mu)`, and the sum is
    divided by q! exactly. A remainder means the input was not a virtual
    character.
    """
    den = lcm(*(v.denominator for v in chi.values.values()))
    order = factorial(chi.q) * den
    totals: dict[Partition, int] = {}
    for mu, v in chi.values.items():
        w = v.numerator * (den // v.denominator) * (factorial(chi.q) // z_lambda(mu))
        for lam, c in _p_monomial_schur(mu).items():
            totals[lam] = totals.get(lam, 0) + w * c
    out: dict[Partition, int] = {}
    for lam in partitions_of(chi.q):
        total = totals.get(lam, 0)
        mult, rest = divmod(total, order)
        if rest:
            raise NonIntegralMultiplicity(
                f"multiplicity of {lam} came out as {Fraction(total, order)}"
            )
        if mult:
            out[lam] = mult
    return out
