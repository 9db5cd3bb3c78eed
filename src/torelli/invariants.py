"""Matching tensors over a 2g-dimensional bilinear space, and their rank.

`invariants rank` asks how many of the (S-1)!! perfect matchings of S
points give independent invariant tensors of an epsilon-symmetric form
on 2g basis vectors (`EpsForm`).  A matching evaluates to the product
of the form's copairing over its pairs.  The copairing has one nonzero
per row, so a matching tensor has exactly (2g)^(S/2) nonzero entries
out of (2g)^S, and `_omega_nonzeros` builds it on those alone, as
{flat index: value} over its positions in increasing order.
`omega_m` returns them as a `MatchingTensor` with `Fraction` entries.

`matching_span_rank` takes the same nonzeros as integer rows and gets
the rank from fraction-free elimination on them.  Its budget is on
those nonzeros, MATCHING_NONZERO_CAP in all.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    # `omega_m` alone builds Fractions; the rank runs on ints.
    from fractions import Fraction

# Sparse ranks within this many nonzeros in all take up to about 20 s:
# (10, g=2) has 967,680 and (12, g=1) 665,280; (10, g=3) has 7,348,320.
MATCHING_NONZERO_CAP = 10**6


class NotPerfect(ValueError):
    """The matching misses or repeats elements of the index set."""


class EpsForm:
    """A nondegenerate epsilon-symmetric form on 2g basis vectors.

    The symplectic representative pairs a_i with a_{g+i} with value +1
    one way and -1 the other; the orthogonal one is hyperbolic.  Its
    matrix is a signed permutation, and so is the inverse form omega,
    the copairing: `copairing` lists omega's 2g nonzeros (x, y, value)
    alone, and the package builds no 2g x 2g table.  The constructor
    checks the genus and the sign, both ints, and builds nothing, so a
    rank can check its set size and budget before any of the 2g
    nonzeros exist.
    """

    def __init__(self, g: int, epsilon: int) -> None:
        if type(g) is not int:
            raise ValueError(f"genus must be an integer, got {g!r}")
        if g < 1:
            raise ValueError(f"genus must be positive, got {g}")
        if type(epsilon) is not int or epsilon not in (1, -1):
            raise ValueError(f"epsilon must be 1 or -1, got {epsilon}")
        self.g = g
        self.epsilon = epsilon
        self.dim = 2 * self.g

    @cached_property
    def copairing(self) -> tuple[tuple[int, int, int], ...]:
        # The form holds 1 at (i, g + i) and epsilon at (g + i, i); times
        # its transpose it gives the identity, so omega is that transpose.
        g = self.g
        return tuple((i, g + i, self.epsilon) for i in range(g)) + tuple(
            (g + i, i, 1) for i in range(g)
        )

    def __repr__(self) -> str:
        return f"EpsForm(g={self.g}, epsilon={self.epsilon:+d})"


class MatchingTensor:
    """The nonzero entries of a tensor over positions carrying one index
    each in range(dim), as {flat index: Fraction}: the indices at the
    positions, in increasing order, are the base-dim digits of the flat
    index."""

    __slots__ = ("dim", "positions", "entries")

    def __init__(self, dim: int, positions: tuple[int, ...], entries: dict[int, Fraction]) -> None:
        self.dim = dim
        self.positions = positions
        self.entries = entries

    def __repr__(self) -> str:
        return (
            f"MatchingTensor(dim={self.dim}, positions={self.positions}, "
            f"nonzero={len(self.entries)})"
        )


def _omega_nonzeros(
    matching: Iterable[tuple[int, int]], form: EpsForm
) -> dict[int, int]:
    """The nonzero entries of the matching tensor, as {flat index:
    value}: each pair (a, b) contributes the copairing's value at the
    one y where it is nonzero, for every x."""
    pairs = [(int(a), int(b)) for a, b in matching]
    positions = sorted(x for pair in pairs for x in pair)
    if len(set(positions)) != len(positions):
        raise NotPerfect("matching repeats an element")
    stride = {
        p: form.dim ** (len(positions) - 1 - k) for k, p in enumerate(positions)
    }
    entries = {0: 1}
    for a, b in pairs:
        sa, sb = stride[a], stride[b]
        entries = {
            idx + x * sa + y * sb: value * v
            for idx, value in entries.items()
            for x, y, v in form.copairing
        }
    return entries


def omega_m(matching: Iterable[tuple[int, int]], form: EpsForm) -> MatchingTensor:
    """Invariant tensor of an ordered perfect matching, on its nonzero
    entries, as exact `Fraction`s."""
    from fractions import Fraction

    pairs = [(int(a), int(b)) for a, b in matching]
    entries = _omega_nonzeros(pairs, form)
    return MatchingTensor(
        form.dim,
        tuple(sorted(x for pair in pairs for x in pair)),
        {k: Fraction(v) for k, v in entries.items()},
    )


def _eliminate(row: dict[int, int], col: int, pivot: dict[int, int]) -> dict[int, int]:
    """Clear column col of an integer row against a pivot row led there,
    fraction-free: row := lead * row - row[col] * pivot."""
    lead, scale = pivot[col], row[col]
    if lead != 1:
        row = {k: lead * v for k, v in row.items()}
    for k, v in pivot.items():
        value = row.get(k, 0) - scale * v
        if value:
            row[k] = value
        else:
            row.pop(k, None)
    return row


def _primitive(row: dict[int, int], col: int) -> dict[int, int]:
    """The row divided by its content, signed so that its entry at col is positive."""
    content = gcd(*row.values())
    if row[col] < 0:
        content = -content
    return {k: v // content for k, v in row.items()}


def _pivot_rows(rows: Iterable[dict[int, Fraction]]) -> dict[int, dict[int, int]]:
    """Echelon form of sparse rational rows {column: value}, by
    fraction-free elimination on integers: {lead column: pivot row}, so
    the rank is its length.  Each row is cleared of denominators, then
    reduced at its smallest column against the pivot row stored there;
    what survives becomes a new pivot row, divided by its content.
    Every pivot row holds only columns at or after its lead."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        row = {k: int(v * den) for k, v in row.items() if v}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = _primitive(row, col)
                break
            row = _eliminate(row, col, pivot)
    return pivots


def perfect_matchings(elems: Iterable[int]):
    """Canonically oriented perfect matchings: each pair starts at the
    least remaining element."""
    elems = sorted(elems)
    if len(elems) % 2:
        raise NotPerfect("odd set has no perfect matching")

    def rec(rest: tuple[int, ...]):
        if not rest:
            yield ()
            return
        a = rest[0]
        for k in range(1, len(rest)):
            b = rest[k]
            remaining = rest[1:k] + rest[k + 1:]
            for tail in rec(remaining):
                yield ((a, b),) + tail

    return list(rec(tuple(elems)))


def _check_nonzero_budget(size: int, dim: int) -> None:
    """Reject before any matching is built when the (size-1)!! matching
    tensors, dim**(size/2) nonzero entries each, exceed
    MATCHING_NONZERO_CAP in total; the product stops at the first factor
    past the cap."""
    total = 1
    for factor in chain(range(size - 1, 0, -2), repeat(dim, size // 2)):
        total *= factor
        if total > MATCHING_NONZERO_CAP:
            raise ValueError(
                f"{size}-point matching tensors in dimension {dim} exceed "
                f"the oracle cap of {MATCHING_NONZERO_CAP} nonzero entries"
            )


def matching_span_rank(S: int, g: int, epsilon: int) -> tuple[int, int]:
    """Exact rank of the matching invariants on the points 1..S, with the
    dimension of the formal matching space they come from.  The genus,
    the sign and the set size S are checked in that order, then the
    budget, before any matching or copairing is built."""
    form = EpsForm(g, epsilon)
    if type(S) is not int:
        raise ValueError(f"set size must be an integer, got {S!r}")
    if S < 0 or S % 2:
        raise ValueError(f"set size must be even and nonnegative, got {S}")
    _check_nonzero_budget(S, form.dim)
    matchings = perfect_matchings(range(1, S + 1))
    rank = len(_pivot_rows(_omega_nonzeros(m, form) for m in matchings))
    return rank, len(matchings)
