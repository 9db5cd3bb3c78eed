"""Character theory of symmetric groups.

Class functions, the Frobenius characteristic map into symmetric
functions, and decomposition of class functions into irreducibles.
Character values come from the rim-hook table
`partitions.murnaghan_nakayama`, which is re-exported here under the same
name; the plethysm layer's power-sum to Schur conversion runs the same
rim-hook rule (`partitions.slide_beads`) forwards, so the table is checked
against an independent border-strip scan in the tests. The enumeration
oracle built on this module stays independent of the plethysm route
through what it decomposes: fixed-point characters of the
labelled-partition basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

from .partitions import Partition, murnaghan_nakayama, partitions_of, z_lambda
from .symfunc import SymFunc, from_p_monomials


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
    terms = {
        mu: v / z_lambda(mu) for mu, v in chi.values.items()
    }
    return from_p_monomials(terms)


def decompose(chi: ClassFunction) -> dict[Partition, int]:
    """Multiplicities of irreducibles in a virtual character.

    Inner product with each irreducible, weighted by class sizes. A
    fractional answer means the input was not a virtual character.
    """
    out: dict[Partition, int] = {}
    for lam in partitions_of(chi.q):
        total = Fraction(0)
        for mu, v in chi.values.items():
            total += v * murnaghan_nakayama(lam, mu) / z_lambda(mu)
        if total.denominator != 1:
            raise NonIntegralMultiplicity(
                f"multiplicity of {lam} came out as {total}"
            )
        if total:
            out[lam] = int(total)
    return out
