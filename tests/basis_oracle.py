"""Test oracles: the labelled-partition basis, built element by element,
and the set-partition walk that tests each set partition against each
class.

`labels_up_to` lists the monomials of the label algebra up to a degree,
one by one; the package only counts them (`labels._label_counts`).
`block_floor` is the least degree of a block in P0 or P', read from the
label rule and counts of `labels`; the package's floors are P' only.
`_blocks_within` walks the set partitions of a ground set whose block
floors fit a degree cap, one element at a time.  `enumerate_basis`
labels their blocks, and `sigma_characters` counts, for each cycle type,
the basis elements its permutation fixes.  `set_partition_characters`
tests every walked set partition against every class and counts the
labels on the fixed ones by orbit type.  The package's
`setparts.sigma_characters` counts the same fixed points by one walk
over the cycles of each class, and builds no `LabelledPartition`; this
module holds the slow routes it is checked against, and
`graph_oracle.presentation_audit` reads its basis in P0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from torelli.characters import ClassFunction
from torelli.labels import LabelMonomial, _allowed, _label_counts, generator_window
from torelli.partitions import Partition, partitions_of
from torelli.setparts import VARIANTS, LabelledPartition, _label_series


@lru_cache(maxsize=None)
def labels_up_to(n: int, cap: int) -> tuple[LabelMonomial, ...]:
    """Test oracle: every monomial of degree at most cap in e and the p_i
    of the window, built one exponent at a time, sorted by degree."""
    lo, hi = generator_window(n)
    gens = [(2 * n, "e")] + [(4 * i, i) for i in range(lo, hi + 1)]

    def rec(idx: int, remaining: int) -> Iterator[tuple]:
        if idx == len(gens):
            yield ()
            return
        deg, name = gens[idx]
        k = 0
        while k * deg <= remaining:
            for tail in rec(idx + 1, remaining - k * deg):
                yield ((name, k),) + tail if k else tail
            k += 1

    out = []
    for exps in rec(0, cap):
        e_exp = dict(exps).pop("e", 0)
        p_exps = tuple((name, k) for name, k in exps if name != "e")
        out.append(LabelMonomial(n, e_exp, p_exps))
    out.sort(key=LabelMonomial.sort_key)
    return tuple(out)


@lru_cache(maxsize=None)
def block_floor(n: int, size: int, variant: str) -> int:
    """Least possible degree of a part of the given size in P0 or P':
    its least allowed label degree plus n(size - 2).  The package's
    `setparts._block_floor` knows P' alone."""
    counts = _label_counts(n, 4 * n)
    least = min(d for d, c in enumerate(counts) if c and _allowed(n, d, size, variant))
    return least + n * (size - 2)


def _blocks_within(
    elems: tuple[int, ...], n: int, variant: str, degree_cap: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The set partitions of elems whose block floors sum to at most
    degree_cap, in the order of the full walk over all of them.

    Blocks grow one element at a time, the last element first: each
    element opens a new first block or joins a block, in that order.  A
    branch is dropped once either of two lower bounds on the floors of
    its completions passes the cap.  The floors are not monotone in the
    size (at n = 3 they are 1, 4, 3, 6, 9 for sizes 1 to 5), so the first
    bound charges a block that may still grow the least floor of any
    size at or above its own.  The second charges every element, placed
    or not, the least floor share m = min_s floor(s) / s, and a block the
    least excess floor(s) - s m of any size at or above its own; it is
    kept times den = argmin_s floor(s) / s, as an integer.  Only the second
    sees the elements still to place: a large ground set with a small cap
    keeps nothing and is dropped at the root.  No floor or excess is
    negative, so neither a new block nor a grown one lowers a bound.
    """
    size_range = range(1, len(elems) + 1)
    floor = [0] + [block_floor(n, size, variant) for size in size_range]
    den = min(size_range, key=lambda size: Fraction(floor[size], size), default=1)
    num = floor[den] if elems else 0
    reach = floor[:]
    excess = [f * den - size * num for size, f in enumerate(floor)]
    for size in range(len(elems) - 1, 0, -1):
        reach[size] = min(reach[size], reach[size + 1])
        excess[size] = min(excess[size], excess[size + 1])
    excess_cap = degree_cap * den - len(elems) * num

    def grow(i: int, blocks: tuple, bound: int, extra: int):
        if i < 0:
            if sum(floor[len(b)] for b in blocks) <= degree_cap:
                yield blocks
            return
        head = elems[i]
        if bound + reach[1] <= degree_cap and extra + excess[1] <= excess_cap:
            yield from grow(i - 1, ((head,),) + blocks, bound + reach[1], extra + excess[1])
        for j, b in enumerate(blocks):
            size = len(b)
            grown = bound + reach[size + 1] - reach[size]
            grown_extra = extra + excess[size + 1] - excess[size]
            if grown <= degree_cap and grown_extra <= excess_cap:
                yield from grow(
                    i - 1, blocks[:j] + ((head,) + b,) + blocks[j + 1 :], grown, grown_extra
                )

    if excess_cap >= 0:
        yield from grow(len(elems) - 1, (), 0, 0)


def _perm_from_cycle_type(q: int, mu: Partition) -> dict[int, int]:
    """The permutation of {1, ..., q} whose cycles are runs of consecutive
    integers of the lengths in mu, as a dict."""
    sigma: dict[int, int] = {}
    start = 1
    for length in mu:
        for i in range(start, start + length - 1):
            sigma[i] = i + 1
        sigma[start + length - 1] = start
        start += length
    return sigma


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
        floors = [block_floor(n, len(b), variant) for b in blocks]

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


def sigma_characters(
    q: int, n: int, d_max: int, variant: str = "Pprime"
) -> dict[int, ClassFunction]:
    """Characters of the symmetric group on every degree piece up to d_max,
    counted on the enumerated basis.

    Permutations act on the ground set and, through the orientation
    line, by their sign raised to n.  Once per basis element P, each
    element of the ground set gets the index of its part and a colour
    naming the size and label of that part.  A permutation sigma fixes P
    when it keeps every colour and sends each part into one part, that
    is when the pairs (part of x, part of sigma x) are no more than the
    parts; being a bijection, it then maps each part onto a part of the
    same size and label.  Empty parts are always fixed.
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


def set_partition_characters(q: int, n: int, d_max: int) -> dict[int, ClassFunction]:
    """Test oracle: the characters of `setparts.sigma_characters` on P', by
    one walk over all set partitions and a fixed-point test per class.

    Permutations act on the ground set and, through the orientation
    line, by their sign raised to n.  The character at sigma counts the
    labelled partitions sigma fixes (Frobenius / Burnside): sigma must
    permute the blocks, and the labels must be constant on each block
    orbit.  So each set partition that `_blocks_within` keeps, and that
    sigma maps onto itself, adds the product over its block orbits of
    G_s(t^p), for an orbit of p blocks of size s, where G_s counts the
    labels of a part of size s by degree; the empty parts, which every
    sigma fixes, multiply the sum.  sigma maps the blocks onto blocks
    when it keeps the size of the block of each element and the pairs
    (block of x, block of sigma x) are no more than the blocks.  The set
    partitions are counted by their orbit types, and each type's product
    is formed once per class.  No labelled partition is built.
    """
    classes = partitions_of(q)
    # moves[k](word) is the word read through the k-th permutation, as a
    # tuple; itemgetter of a single index would return the item itself.
    moves = []
    for mu in classes:
        sigma = _perm_from_cycle_type(q, mu)
        moves.append(itemgetter(*[sigma[x] - 1 for x in range(1, q + 1)]) if q > 1 else tuple)
    orbit_types: list[dict[tuple, int]] = [{} for _ in classes]
    for blocks in _blocks_within(tuple(range(1, q + 1)), n, "Pprime", d_max):
        block = [0] * q
        for k, b in enumerate(blocks):
            for x in b:
                block[x - 1] = k
        sizes = tuple(len(blocks[k]) for k in block)
        for types, move in zip(orbit_types, moves):
            if move(sizes) != sizes:
                continue
            pairs = set(zip(block, move(block)))
            if len(pairs) > len(blocks):
                continue
            image = dict(pairs)
            orbits = []
            for start in range(len(blocks)):
                p, k = 0, start
                while k in image:
                    k = image.pop(k)
                    p += 1
                if p:
                    orbits.append((len(blocks[start]), p))
            key = tuple(sorted(orbits))
            types[key] = types.get(key, 0) + 1

    by_size, empty = _label_series(n, d_max)
    fixed = [[0] * len(classes) for _ in range(d_max + 1)]
    for k, types in enumerate(orbit_types):
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
