"""Test oracle: the labelled-partition basis, built element by element.

`enumerate_basis` lists every basis partition of a ground set up to a
degree cap, and `sigma_characters` counts, for each cycle type, the
basis elements its permutation fixes.  The package's
`setparts.sigma_characters` counts the same fixed points from the set
partitions alone, by the Frobenius / Burnside product over block orbits,
and builds no `LabelledPartition`; this module is the slow route it is
checked against, and `graph_oracle.presentation_audit` reads its basis.
"""

from __future__ import annotations

from fractions import Fraction

from torelli.characters import ClassFunction
from torelli.labels import labels_up_to
from torelli.partitions import partitions_of
from torelli.setparts import (
    VARIANTS,
    LabelledPartition,
    _block_floor,
    _blocks_within,
    _perm_from_cycle_type,
)


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
