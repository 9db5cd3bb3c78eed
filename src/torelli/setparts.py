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
`sigma_characters` enumerates the basis of one ground set once, for
every degree up to a cap, and counts the fixed points of each cycle
type in place, from the part of each element, without building a moved
partition.  `quotient_series_by_L` strikes the polynomial generators
above half weight from a series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .branching import ClassSeries
from .characters import ClassFunction
from .labels import LabelMonomial, labels_up_to
from .partitions import Partition, partitions_of
from .symfunc import LambdaSeries, SymFunc, _scalar_product

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
        if variant == "P":
            return True
        for elems, label in self.parts:
            if not elems and label.degree <= 2 * self.n:
                return False
            if len(elems) == 1 and label.degree < self.n:
                return False
            if variant == "Pprime" and len(elems) == 2 and label.is_unit():
                return False
        return True

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

    def to_json(self) -> dict:
        return {
            "parts": [
                {"elements": list(elems), "label": str(label)}
                for elems, label in self.parts
            ],
            "degree": self.degree,
        }


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
def _block_floor(n: int, size: int, variant: str) -> int:
    """Least possible degree of a part of the given size."""
    if size == 1:
        pool = [m.degree for m in labels_up_to(n, 4 * n) if m.degree >= n]
        return min(pool) - n
    if size == 2:
        if variant == "Pprime":
            pool = [m.degree for m in labels_up_to(n, 4 * n) if not m.is_unit()]
            return min(pool)
        return 0
    return n * (size - 2)


def _blocks_within(
    elems: tuple[int, ...], n: int, variant: str, degree_cap: int
) -> list[tuple[tuple[int, ...], ...]]:
    """The set partitions of elems whose block floors sum to at most
    degree_cap, in the order of the full walk over all of them.

    Blocks grow one element at a time, the last element first: each
    element opens a new first block or joins a block, in that order.  A
    branch is dropped once its blocks cannot stay within the cap.  The
    floors are not monotone in the size (at n = 3 they are 1, 4, 3, 6, 9
    for sizes 1 to 5), so a block that may still grow is bounded by the
    least floor of any size at or above its own.  No floor is negative,
    so neither a new block nor a grown one lowers the bound.
    """
    floor = [0] + [_block_floor(n, size, variant) for size in range(1, len(elems) + 1)]
    reach = floor[:]
    for size in range(len(elems) - 1, 0, -1):
        reach[size] = min(reach[size], reach[size + 1])
    out: list[tuple[tuple[int, ...], ...]] = []

    def grow(i: int, blocks: tuple, bound: int) -> None:
        if i < 0:
            if sum(floor[len(b)] for b in blocks) <= degree_cap:
                out.append(blocks)
            return
        head = elems[i]
        if bound + reach[1] <= degree_cap:
            grow(i - 1, ((head,),) + blocks, bound + reach[1])
        for j, b in enumerate(blocks):
            grown = bound + reach[len(b) + 1] - reach[len(b)]
            if grown <= degree_cap:
                grow(i - 1, blocks[:j] + ((head,) + b,) + blocks[j + 1 :], grown)

    grow(len(elems) - 1, (), 0)
    return out


def enumerate_basis(
    ground, n: int, variant: str = "Pprime", degree_cap: int = 0
) -> list[LabelledPartition]:
    """All basis partitions of total degree at most degree_cap.

    The ground set may be given as an integer q, meaning {1, ..., q}.
    Only the nonnegative-degree variants have finite bases.  Labels are
    assigned to the blocks of each set partition that `_blocks_within`
    keeps, so no partition whose block floors exceed the cap is walked.
    """
    if variant == "P":
        raise ValueError("the unquotiented variant has no finite basis")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if isinstance(ground, int):
        elems = tuple(range(1, ground + 1))
    else:
        elems = tuple(sorted(int(x) for x in ground))

    out: list[LabelledPartition] = []
    for blocks in _blocks_within(elems, n, variant, degree_cap):
        floors = [_block_floor(n, len(b), variant) for b in blocks]

        def assign(i: int, budget: int, acc: list) -> None:
            if i == len(blocks):
                for extra in _empty_families(n, budget):
                    out.append(LabelledPartition(n, acc + list(extra)))
                return
            size = len(blocks[i])
            tail = sum(floors[i + 1 :])
            room = budget - tail - n * (size - 2)
            if room < 0:
                return
            for label in labels_up_to(n, room):
                if size == 1 and label.degree < n:
                    continue
                if size == 2 and variant == "Pprime" and label.is_unit():
                    continue
                d = label.degree + n * (size - 2)
                acc.append((blocks[i], label))
                assign(i + 1, budget - d, acc)
                acc.pop()

        assign(0, degree_cap, [])
    out.sort(key=lambda p: p.sort_key())
    return out


def _empty_families(n: int, budget: int) -> list[tuple]:
    """Multisets of empty parts of positive degree fitting the budget."""
    if budget < 0:
        return []
    pool = [m for m in labels_up_to(n, budget + 2 * n) if m.degree > 2 * n]
    results: list[tuple] = []

    def rec(i: int, left: int, acc: list) -> None:
        results.append(tuple(acc))
        for j in range(i, len(pool)):
            d = pool[j].degree - 2 * n
            if d <= left:
                acc.append(((), pool[j]))
                rec(j, left - d, acc)
                acc.pop()

    rec(0, budget, [])
    return results


def _perm_from_cycle_type(q: int, mu: Partition) -> dict[int, int]:
    sigma: dict[int, int] = {}
    start = 1
    for length in mu:
        for i in range(start, start + length - 1):
            sigma[i] = i + 1
        sigma[start + length - 1] = start
        start += length
    return sigma


def sigma_characters(
    q: int, n: int, d_max: int, variant: str = "Pprime"
) -> dict[int, ClassFunction]:
    """Characters of the symmetric group on every degree piece up to d_max.

    Permutations act on the ground set and, through the orientation
    line, by their sign raised to n.  The basis is enumerated once and
    bucketed by degree, and fixed points are counted in place, with no
    partition built.  Once per P, each element gets the index of its part
    and a colour naming the size and label of that part.  A permutation
    sigma fixes P when it keeps every colour and sends each part into one
    part, that is when the pairs (part of x, part of sigma x) are no more
    than the parts; being a bijection, it then maps each part onto a part
    of the same size and label.  Empty parts are always fixed.
    """
    classes = partitions_of(q)
    sigmas = []
    for mu in classes:
        sigma = _perm_from_cycle_type(q, mu)
        sigmas.append([sigma[x] - 1 for x in range(1, q + 1)])
    fixed = {d: [0] * len(classes) for d in range(d_max + 1)}
    for P in enumerate_basis(q, n, variant, d_max):
        counts = fixed[P.degree]
        part = [0] * q
        colour = [0] * q
        colours: dict[tuple, int] = {}
        nonempty = 0
        for elems, label in P.parts:
            if not elems:
                break  # empty parts come last
            c = colours.setdefault((len(elems), label), len(colours))
            for x in elems:
                part[x - 1] = nonempty
                colour[x - 1] = c
            nonempty += 1
        part_of, colour_of = part.__getitem__, colour.__getitem__
        for k, sigma in enumerate(sigmas):
            if (
                list(map(colour_of, sigma)) == colour
                and len(set(zip(part, map(part_of, sigma)))) == nonempty
            ):
                counts[k] += 1
    signs = [(-1) ** ((q - len(mu)) * n) for mu in classes]
    return {
        d: ClassFunction(
            q, {mu: Fraction(c * s) for mu, c, s in zip(classes, counts, signs)}
        )
        for d, counts in fixed.items()
    }


def sigma_character(
    q: int, n: int, degree: int, variant: str = "Pprime"
) -> ClassFunction:
    """Character of the symmetric group on one degree piece, read from
    sigma_characters."""
    return sigma_characters(q, n, degree, variant)[degree]


@lru_cache(maxsize=None)
def quotient_factor(n: int, trunc: int) -> LambdaSeries:
    """The series prod_{i > n/2} (1 - t^{4i - 2n}) up to the truncation."""
    coeffs: dict[int, Fraction] = {0: Fraction(1)}
    i = n // 2 + 1
    while 4 * i - 2 * n <= trunc:
        step = 4 * i - 2 * n
        new = dict(coeffs)
        for k, c in coeffs.items():
            if k + step <= trunc:
                new[k + step] = new.get(k + step, Fraction(0)) - c
        coeffs = new
        i += 1
    return LambdaSeries({k: SymFunc.scalar(c) for k, c in coeffs.items()}, trunc)


def quotient_series_by_L(series, n: int):
    """Strike the polynomial generators above half weight from a series.

    Works for plain symmetric-function series and for series of
    orthogonal or symplectic classes. Either way the coefficients become
    integer combinations of beta-set masks, are multiplied by the scalar
    series `quotient_factor` and are decoded once.
    """
    if isinstance(series, LambdaSeries):
        return _scalar_product(series, quotient_factor(n, series.trunc))
    if isinstance(series, ClassSeries):
        return series.mul_scalar_series(quotient_factor(n, series.trunc))
    raise TypeError("expected a truncated series")
