"""Labelled set partitions and their matching calculus.

Partitions of a finite ground set into parts carrying monomial labels
from the tautological ring, graded so that a part with label c and r
elements sits in degree |c| + n(r - 2).  Matchings act by contracting
pairs of ground elements (merging or shrinking parts) and by inserting
freshly matched pairs; in the signed flavours an orientation of the
ground set is part of the data and reorderings contribute the parity
sign raised to n.  The degree pieces are symmetric-group
representations, and their characters feed the brute-force check of
the main computation: `sigma_characters` enumerates the basis of one
ground set once, for every degree up to a cap, and counts the fixed
points of each cycle type in place, from the part of each element,
without building a moved partition.
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
MODES = ("dBr", "dsBr", "Br2g", "sBr2g")


class GroundSetOverlap(ValueError):
    """Day products need disjoint ground sets."""


class IllegalContraction(ValueError):
    """Closing a unit pair requires a mode that knows the genus."""


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

    @staticmethod
    def zero(n: int, ground: Iterable[int]) -> "SignedPartitionVector":
        return SignedPartitionVector(n, ground, {})

    @staticmethod
    def basis(part: LabelledPartition) -> "SignedPartitionVector":
        return SignedPartitionVector(part.n, part.ground, {part: Fraction(1)})

    def items(self) -> list[tuple[LabelledPartition, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, part: LabelledPartition) -> Fraction:
        return self.coeffs.get(part, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "SignedPartitionVector") -> "SignedPartitionVector":
        if self.n != other.n or self.ground != other.ground:
            raise ValueError("cannot add vectors on different ground sets")
        out = dict(self.coeffs)
        for part, c in other.coeffs.items():
            out[part] = out.get(part, Fraction(0)) + c
        return SignedPartitionVector(self.n, self.ground, out)

    def __sub__(self, other: "SignedPartitionVector") -> "SignedPartitionVector":
        return self + other.scale(-1)

    def scale(self, c) -> "SignedPartitionVector":
        c = Fraction(c)
        return SignedPartitionVector(
            self.n, self.ground, {p: c * v for p, v in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPartitionVector):
            return NotImplemented
        return (self.n, self.ground, self.coeffs) == (
            other.n,
            other.ground,
            other.coeffs,
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for part, c in self.items():
            if c == 1:
                bits.append(str(part))
            elif c == -1:
                bits.append(f"-{part}")
            else:
                bits.append(f"{c}*{part}")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    def __repr__(self) -> str:
        return f"SignedPartitionVector({self!s})"


class BrauerMorphism:
    """A partial matching with a bijection on the leftover elements.

    source_pairs are contracted, target_pairs are inserted as fresh
    unit-labelled parts, and bij carries the remaining source elements
    to the remaining target elements.  The written order inside each
    pair is orientation data; reversing one pair flips the induced map
    by the parity sign in the signed modes.
    """

    __slots__ = ("source", "target", "bij", "source_pairs", "target_pairs")

    def __init__(
        self,
        source: Iterable[int],
        target: Iterable[int],
        bij: Mapping[int, int],
        source_pairs: Sequence[tuple[int, int]] = (),
        target_pairs: Sequence[tuple[int, int]] = (),
    ) -> None:
        self.source = tuple(sorted(int(x) for x in source))
        self.target = tuple(sorted(int(x) for x in target))
        self.source_pairs = tuple((int(a), int(b)) for a, b in source_pairs)
        self.target_pairs = tuple((int(a), int(b)) for a, b in target_pairs)
        self.bij = {int(k): int(v) for k, v in bij.items()}

        matched_s = [x for pair in self.source_pairs for x in pair]
        matched_t = [x for pair in self.target_pairs for x in pair]
        if len(set(matched_s)) != len(matched_s):
            raise ValueError("source pairs overlap")
        if len(set(matched_t)) != len(matched_t):
            raise ValueError("target pairs overlap")
        if not set(matched_s) <= set(self.source):
            raise ValueError("source pairs must use source elements")
        if not set(matched_t) <= set(self.target):
            raise ValueError("target pairs must use target elements")
        free_s = set(self.source) - set(matched_s)
        free_t = set(self.target) - set(matched_t)
        if set(self.bij) != free_s or set(self.bij.values()) != free_t:
            raise ValueError("bijection must match the unpaired elements")
        if len(self.bij) != len(set(self.bij.values())):
            raise ValueError("bijection is not injective")

    def is_downward(self) -> bool:
        return not self.target_pairs

    def __repr__(self) -> str:
        return (
            f"BrauerMorphism({self.source}->{self.target}, "
            f"pairs={self.source_pairs}/{self.target_pairs})"
        )


def compose(outer: BrauerMorphism, inner: BrauerMorphism) -> BrauerMorphism:
    """Composite of two downward morphisms (outer after inner)."""
    if inner.target != outer.source:
        raise ValueError("morphisms are not composable")
    if not (inner.is_downward() and outer.is_downward()):
        raise ValueError("only downward morphisms compose here")
    back = {v: k for k, v in inner.bij.items()}
    pulled = tuple((back[a], back[b]) for a, b in outer.source_pairs)
    bij = {
        s: outer.bij[t]
        for s, t in inner.bij.items()
        if t in outer.bij
    }
    return BrauerMorphism(
        inner.source,
        outer.target,
        bij,
        inner.source_pairs + pulled,
        (),
    )


def _phi(label: LabelMonomial, n: int, g: int | None) -> Fraction:
    """Value of a degree-zero empty part; only e survives, and only
    when the genus is known."""
    if g is None:
        return Fraction(0)
    if label.e_exp == 1 and not label.p_exps:
        return Fraction(2 + (-1) ** n * 2 * g)
    return Fraction(0)


def _normalize(
    n: int, parts: list[tuple[tuple[int, ...], LabelMonomial]], g: int | None
) -> tuple[Fraction, list]:
    """Project onto the nonnegative-degree quotient."""
    mult = Fraction(1)
    kept = []
    for elems, label in parts:
        if not elems:
            d = label.degree - 2 * n
            if d < 0:
                return Fraction(0), []
            if d == 0:
                mult *= _phi(label, n, g)
                if not mult:
                    return Fraction(0), []
                continue
            kept.append((elems, label))
        elif len(elems) == 1 and label.degree < n:
            return Fraction(0), []
        else:
            kept.append((elems, label))
    return mult, kept


def apply_morphism(
    morphism: BrauerMorphism,
    x,
    mode: str,
    g: int | None = None,
    variant: str = "P0",
) -> SignedPartitionVector:
    """Push a vector of labelled partitions along a matching.

    Contracting a pair inside one part shrinks it and multiplies the
    label by e; contracting across two parts merges them; contracting
    a unit-labelled pair closes it off to the scalar (-1)^n 2g, which
    needs one of the genus-aware modes.  Inserted pairs become fresh
    unit-labelled parts.  In the signed modes the orientation signs
    are the parity of the reordering that brings the matched pairs to
    the front, raised to n.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    closing = mode in ("Br2g", "sBr2g")
    signed = mode in ("dsBr", "sBr2g")
    if closing and g is None:
        raise ValueError(f"mode {mode} needs a genus")
    if not closing and g is not None:
        raise ValueError(f"mode {mode} does not take a genus")
    if not closing and morphism.target_pairs:
        raise ValueError("pair insertion needs one of the genus-aware modes")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")

    if isinstance(x, LabelledPartition):
        x = SignedPartitionVector.basis(x)
    if set(morphism.source) != set(x.ground):
        raise ValueError("vector does not live on the morphism source")
    n = x.n
    out = SignedPartitionVector.zero(n, morphism.target)

    for part, coeff in x.coeffs.items():
        scalar = Fraction(coeff)
        if signed:
            word = [e for pair in morphism.source_pairs for e in pair]
            rest0 = [e for e in x.ground if e not in set(word)]
            if _perm_parity(word + rest0) and n % 2:
                scalar = -scalar

        work = [(set(elems), label) for elems, label in part.parts]
        dead = False
        for a, b in morphism.source_pairs:
            ia = ib = None
            for i, (elems, _) in enumerate(work):
                if a in elems:
                    ia = i
                if b in elems:
                    ib = i
            if ia is None or ib is None:
                raise ValueError("pair element missing from the partition")
            if ia == ib:
                elems, label = work[ia]
                if len(elems) == 2 and label.is_unit():
                    if not closing:
                        raise IllegalContraction(
                            "closing a unit pair needs the genus"
                        )
                    scalar *= Fraction((-1) ** n * 2 * g)
                    del work[ia]
                    if not scalar:
                        dead = True
                        break
                else:
                    elems.discard(a)
                    elems.discard(b)
                    work[ia] = (elems, label * LabelMonomial.e(n))
            else:
                ea, la = work[ia]
                eb, lb = work[ib]
                ea.discard(a)
                eb.discard(b)
                merged = (ea | eb, la * lb)
                work = [w for i, w in enumerate(work) if i not in (ia, ib)]
                work.append(merged)
        if dead:
            continue

        rest = sorted(e for elems, _ in work for e in elems)
        mapped = [
            (tuple(morphism.bij[e] for e in elems), label)
            for elems, label in work
        ]
        for a, b in morphism.target_pairs:
            mapped.append(((a, b), LabelMonomial.unit(n)))
        if signed:
            word_t = [e for pair in morphism.target_pairs for e in pair]
            word_t += [morphism.bij[e] for e in rest]
            if _perm_parity(word_t) and n % 2:
                scalar = -scalar

        mult, kept = _normalize(n, mapped, g if closing else None)
        scalar *= mult
        if not scalar:
            continue
        result = LabelledPartition(n, kept)
        if variant == "Pprime" and not result.in_variant("Pprime"):
            continue
        out = out + SignedPartitionVector(
            n, morphism.target, {result: scalar}
        )
    return out


def day_product(x, y) -> SignedPartitionVector:
    """Monoidal product: disjoint union of partitions.

    The orientation of the product is the concatenation of the two
    ground sets, so sorting it into increasing order contributes the
    parity sign raised to n.
    """
    if isinstance(x, LabelledPartition):
        x = SignedPartitionVector.basis(x)
    if isinstance(y, LabelledPartition):
        y = SignedPartitionVector.basis(y)
    if x.n != y.n:
        raise ValueError("factors must share the weight")
    n = x.n
    if set(x.ground) & set(y.ground):
        raise GroundSetOverlap(
            f"ground sets share {sorted(set(x.ground) & set(y.ground))}"
        )
    ground = x.ground + y.ground
    sign = -1 if (_perm_parity(ground) and n % 2) else 1
    out: dict[LabelledPartition, Fraction] = {}
    for px, cx in x.coeffs.items():
        for py, cy in y.coeffs.items():
            merged = LabelledPartition(n, px.parts + py.parts)
            c = sign * cx * cy
            out[merged] = out.get(merged, Fraction(0)) + c
    return SignedPartitionVector(n, sorted(ground), out)


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
