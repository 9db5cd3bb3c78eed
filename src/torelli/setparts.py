"""Labelled set partitions, their symmetric-group characters, and the
relation quotient.

Partitions of a finite ground set into parts carrying monomial labels
from the tautological ring, graded so that a part with label c and r
elements sits in degree |c| + n(r - 2).  In the signed flavours an
orientation of the ground set is part of the data, and a reordering
contributes its parity sign raised to n.  `graph reduce` returns a
`SignedPartitionVector`, a combination of such partitions on the legs.
The degree pieces are symmetric-group representations, and their
characters feed the brute-force check of the main computation:
`sigma_characters` builds, for each permutation, the set partitions it
fixes from its cycles (`_orbit_types`), and counts the labels fixed on
them by degree, without building a labelled partition, from the label
rule and counts of `labels`, the table `ch_B` reads.  The basis, and
the walk over all set partitions with a test per class, are test
oracles in `tests/basis_oracle.py`.  `quotient_series_by_L` strikes the
polynomial generators above half weight from a series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .characters import ClassFunction
from .labels import LabelMonomial, _allowed, _label_counts, _part_label_counts, monomial_counts
from .partitions import partitions_of

VARIANTS = ("P", "P0", "Pprime")


def _perm_parity(word: Sequence[int]) -> int:
    """Parity of the permutation sorting word, of distinct entries, into
    increasing order: its length minus its number of cycles, mod 2."""
    order = sorted(range(len(word)), key=word.__getitem__)
    parity = len(order)
    for i in range(len(order)):
        if order[i] >= 0:
            parity += 1
            j = i
            while order[j] >= 0:
                nxt = order[j]
                order[j] = -1
                j = nxt
    return parity & 1


class LabelledPartition:
    """A partition of a finite set of integers into labelled parts.

    Size-zero parts are allowed and may repeat.  Parts are stored in a
    canonical order: nonempty parts by least element, then empty parts
    by label.
    """

    __slots__ = ("n", "ground", "parts")

    def __init__(self, n: int, parts: Iterable[tuple]) -> None:
        self.n = int(n)
        nonempty = []
        empty = []
        seen: set[int] = set()
        for elements, label in parts:
            if not isinstance(label, LabelMonomial):
                raise ValueError("part labels must be monomials")
            if label.n != self.n:
                raise ValueError("label weight does not match the partition")
            elems = tuple(sorted(int(x) for x in elements))
            for x in elems:
                if x in seen:
                    raise ValueError(f"element {x} appears in two parts")
                seen.add(x)
            if elems:
                nonempty.append((elems, label))
            else:
                empty.append((elems, label))
        nonempty.sort(key=lambda p: p[0][0])
        empty.sort(key=lambda p: p[1].sort_key())
        self.parts = tuple(nonempty + empty)
        self.ground = tuple(sorted(seen))

    @property
    def degree(self) -> int:
        n = self.n
        return sum(c.degree + n * (len(p) - 2) for p, c in self.parts)

    def in_variant(self, variant: str) -> bool:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        return variant == "P" or all(
            _allowed(self.n, label.degree, len(elems), variant) for elems, label in self.parts
        )

    def sort_key(self):
        return (
            self.degree,
            len(self.parts),
            tuple((p, c.sort_key()) for p, c in self.parts),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelledPartition):
            return NotImplemented
        return (self.n, self.parts) == (other.n, other.parts)

    def __hash__(self) -> int:
        return hash((self.n, self.parts))

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        bits = []
        for elems, label in self.parts:
            inside = " ".join(str(x) for x in elems) if elems else "-"
            bits.append(f"({inside}|{label})")
        return "".join(bits)

    def __repr__(self) -> str:
        return f"LabelledPartition(n={self.n}, {self!s})"


class SignedPartitionVector:
    """Rational combination of labelled partitions on one ground set."""

    __slots__ = ("n", "ground", "coeffs")

    def __init__(self, n: int, ground: Iterable[int], coeffs: Mapping) -> None:
        self.n = int(n)
        self.ground = tuple(sorted(int(x) for x in ground))
        cleaned: dict[LabelledPartition, Fraction] = {}
        for part, c in coeffs.items():
            if part.n != self.n or part.ground != self.ground:
                raise ValueError("terms must share the ground set")
            c = Fraction(c)
            if c:
                cleaned[part] = c
        self.coeffs = cleaned

    def items(self) -> list[tuple[LabelledPartition, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, part: LabelledPartition) -> Fraction:
        return self.coeffs.get(part, Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPartitionVector):
            return NotImplemented
        return (self.n, self.ground, self.coeffs) == (
            other.n,
            other.ground,
            other.coeffs,
        )

    def __repr__(self) -> str:
        return f"SignedPartitionVector(n={self.n}, {self.items()!r})"


@lru_cache(maxsize=None)
def _block_floor(n: int, size: int) -> int:
    """Least possible degree of a part of the given size in P': its least
    allowed label degree plus n(size - 2)."""
    counts = _label_counts(n, 4 * n)
    least = min(d for d, c in enumerate(counts) if c and _allowed(n, d, size, "Pprime"))
    return least + n * (size - 2)


def _orbit_types(q: int, n: int, degree_cap: int) -> list[dict[tuple, int]]:
    """For each class of weight q, in partitions_of order, the set
    partitions its permutation fixes whose block floors sum to at most
    degree_cap, counted by the sorted (block size, orbit length) pairs
    of their block orbits.

    One walk per class places whole cycles.  An orbit of p blocks takes
    every p-th element of each of its cycles into each block, so p
    divides the cycle's length l.  Each cycle joins an open orbit whose
    p divides l, in any of p placements, or opens one for each such p,
    as if joining an empty orbit (0, p) in one placement; a leaf counts
    the product of its placements.  The identity's walk is the walk over
    all set partitions.  A branch is dropped once either of two lower
    bounds on the floors of its completions passes the cap.  The floors
    are not monotone in the size (at n = 3 they are 1, 4, 3, 6, 9 for
    sizes 1 to 5), so the first charges a block the least floor of any
    size at or above its own.  The second charges every element, placed
    or not, the least floor share m = min_s floor(s) / s, and a block the
    least excess floor(s) - s m of any size at or above its own, times
    den = argmin_s floor(s) / s to keep it an integer; so no cycle of a
    ground set too large for the cap is placed.
    """
    size_range = range(1, q + 1)
    floor = [0] + [_block_floor(n, size) for size in size_range]
    den = min(size_range, key=lambda size: Fraction(floor[size], size), default=1)
    num = floor[den] if q else 0
    reach = floor[:]
    excess = [f * den - size * num for size, f in enumerate(floor)]
    for size in range(q - 1, 0, -1):
        reach[size] = min(reach[size], reach[size + 1])
        excess[size] = min(excess[size], excess[size + 1])
    excess_cap = degree_cap * den - q * num
    opening = [tuple((0, p) for p in range(1, size + 1) if size % p == 0) for size in range(q + 1)]

    def grow(cycles, i: int, orbits: tuple, bound: int, extra: int, ways: int, types: dict):
        if i == len(cycles):
            if sum(p * floor[s] for s, p in orbits) <= degree_cap:
                key = tuple(sorted(orbits))
                types[key] = types.get(key, 0) + ways
            return
        length = cycles[i]
        for j, (s, p) in enumerate(orbits + opening[length]):
            if length % p == 0:
                t = s + length // p
                grown = bound + p * (reach[t] - reach[s])
                grown_extra = extra + p * (excess[t] - excess[s])
                if grown <= degree_cap and grown_extra <= excess_cap:
                    grown_orbits = orbits[:j] + ((t, p),) + orbits[j + 1 :]
                    placements = p if s else 1
                    grow(cycles, i + 1, grown_orbits, grown, grown_extra, ways * placements, types)

    classes = partitions_of(q)
    out: list[dict[tuple, int]] = [{} for _ in classes]
    for mu, types in zip(classes, out):
        grow(mu, 0, (), 0, 0, 1, types)
    return out


def _label_series(n: int, d_max: int) -> tuple[list[list[int]], list[int]]:
    """The label counts of P' by degree up to d_max: rows 1 and up of
    `labels._part_label_counts` (row 0 zeroed), and the multisets of
    empty parts, the monomials in its row 0, a label of degree e a
    generator of degree e - 2n."""
    empty_row, *by_size = _part_label_counts(n, d_max)
    steps = [step for step, count in enumerate(empty_row) for _ in range(count)]
    return [[0] * (d_max + 1)] + by_size, monomial_counts(steps, d_max)


def sigma_characters(q: int, n: int, d_max: int) -> dict[int, ClassFunction]:
    """Characters of the symmetric group on every degree piece of P' up to
    d_max, the basis the brute-force check counts.

    Permutations act on the ground set and, through the orientation
    line, by their sign raised to n.  The character at sigma counts the
    labelled partitions sigma fixes (Frobenius / Burnside): sigma must
    permute the blocks, and the labels must be constant on each block
    orbit.  So each set partition that sigma fixes and whose block
    floors fit d_max adds the product over its block orbits of G_s(t^p),
    for an orbit of p blocks of size s, where G_s counts the labels of a
    part of size s by degree; the empty parts, which every sigma fixes,
    multiply the sum.  `_orbit_types` counts those set partitions by
    orbit type, and each type's product is formed once per class.
    """
    classes = partitions_of(q)
    by_size, empty = _label_series(n, d_max)
    fixed = [[0] * len(classes) for _ in range(d_max + 1)]
    for k, types in enumerate(_orbit_types(q, n, d_max)):
        for key, count in types.items():
            series = empty
            for size, p in key:
                # times G_size(t^p)
                g = by_size[size]
                new = [0] * (d_max + 1)
                for a, c in enumerate(series):
                    if c:
                        for b in range(0, d_max - a + 1, p):
                            new[a + b] += c * g[b // p]
                series = new
            for d, c in enumerate(series):
                fixed[d][k] += count * c
    signs = [(-1) ** ((q - len(mu)) * n) for mu in classes]
    return {
        d: ClassFunction(
            q, {mu: Fraction(c * s) for mu, c, s in zip(classes, counts, signs)}
        )
        for d, counts in enumerate(fixed)
    }


def sigma_character(
    q: int, n: int, degree: int, variant: str = "Pprime"
) -> ClassFunction:
    """Character of the symmetric group on one degree piece, read from
    sigma_characters; the variant can only be P'."""
    if variant != "Pprime":
        raise ValueError(f"characters are counted on the Pprime basis only, got {variant!r}")
    return sigma_characters(q, n, degree)[degree]


@lru_cache(maxsize=None)
def quotient_factor(n: int, trunc: int) -> tuple[int, ...]:
    """The series prod_{i > n/2} (1 - t^{4i - 2n}) as its integer
    coefficients in degrees 0..trunc (none when trunc < 0): each factor
    strikes its step from the list in place, highest degree first."""
    coeffs = [int(d == 0) for d in range(trunc + 1)]
    for step in range(4 * (n // 2 + 1) - 2 * n, trunc + 1, 4):
        for d in range(trunc, step - 1, -1):
            coeffs[d] -= coeffs[d - step]
    return tuple(coeffs)


def quotient_series_by_L(series, n: int):
    """Strike the polynomial generators above half weight from a series
    of symmetric functions or of orthogonal or symplectic classes: its
    `mul_scalar_series` by the integer list `quotient_factor` to the
    series' own order, which the product keeps."""
    return series.mul_scalar_series(quotient_factor(n, series.trunc))
