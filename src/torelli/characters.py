"""Character theory of symmetric groups.

Class functions and their decomposition into irreducibles.
Character values come from the rim-hook table
`partitions.murnaghan_nakayama`, which is re-exported here under the same
name. It removes rim hooks with the one bead kernel,
`partitions.ribbon_strips` at r = 1, which every Schur product and
plethysm also walks, so the table is checked against an independent
border-strip scan in the tests. The enumeration
oracle built on this module stays independent of the plethysm route
through what it decomposes: fixed-point characters of the
labelled-partition basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Mapping

from .partitions import Partition, murnaghan_nakayama, partitions_of, z_lambda


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

    def value(self, mu) -> Fraction:
        return self.values.get(Partition(mu), Fraction(0))

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if self.q != other.q:
            raise ValueError("cannot add class functions of different degrees")
        merged = dict(self.values)
        for mu, v in other.values.items():
            merged[mu] = merged.get(mu, Fraction(0)) + v
        return ClassFunction(self.q, merged)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ClassFunction(self.q, {m: v * other for m, v in self.values.items()})
        if isinstance(other, ClassFunction):
            # Pointwise product: the character of a tensor product.
            if self.q != other.q:
                raise ValueError("cannot multiply class functions of different degrees")
            return ClassFunction(
                self.q,
                {m: v * other.values[m] for m, v in self.values.items() if m in other.values},
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.q == other.q and self.values == other.values

    def __repr__(self) -> str:
        return f"ClassFunction(q={self.q}, {self.values!r})"


def decompose(chi: ClassFunction) -> dict[Partition, int]:
    """Multiplicities of irreducibles in a virtual character.

    Inner product with each irreducible, weighted by class sizes, on
    integers: the values over their common denominator, each times the
    class size q!/z_mu, summed and divided by q! exactly. A remainder
    means the input was not a virtual character.
    """
    den = lcm(*(v.denominator for v in chi.values.values()))
    order = factorial(chi.q) * den
    weighted = [
        (mu, v.numerator * (den // v.denominator) * (factorial(chi.q) // z_lambda(mu)))
        for mu, v in chi.values.items()
    ]
    out: dict[Partition, int] = {}
    for lam in partitions_of(chi.q):
        total = sum(w * murnaghan_nakayama(lam, mu) for mu, w in weighted)
        mult, rest = divmod(total, order)
        if rest:
            raise NonIntegralMultiplicity(
                f"multiplicity of {lam} came out as {Fraction(total, order)}"
            )
        if mult:
            out[lam] = mult
    return out
