"""Matching tensors over a 2g-dimensional bilinear space, and their rank.

`invariants rank` asks how many of the (S-1)!! perfect matchings of S
points give independent invariant tensors of an epsilon-symmetric form
on 2g basis vectors (`EpsForm`).  A matching evaluates to the product
of the form's copairing over its pairs; `omega_m` builds that tensor
densely, with exact `Fraction` entries, as the reference the sparse
route is checked against.

`matching_span_rank` builds no dense tensor.  A matching tensor is a
product of copairings, and the copairing has one nonzero per row, so
it has exactly (2g)^(S/2) nonzero entries out of (2g)^S.  It is built
on those alone, under the flat indices of `DenseTensor.index`, and the
rank comes from fraction-free elimination on sparse integer rows.  Its
budget is on those nonzeros, MATCHING_NONZERO_CAP in all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, product, repeat
from math import gcd, lcm
from typing import Iterable, Sequence

TENSOR_ENTRY_CAP = 10**7
# Sparse ranks within this many nonzeros in all take up to about 20 s:
# (10, g=2) has 967,680 and (12, g=1) 665,280; (10, g=3) has 7,348,320.
MATCHING_NONZERO_CAP = 10**6


class NotPerfect(ValueError):
    """The matching misses or repeats elements of the index set."""


class EpsForm:
    """A nondegenerate epsilon-symmetric form on 2g basis vectors.

    The symplectic representative pairs a_i with a_{g+i} with value +1
    one way and -1 the other; the orthogonal one is hyperbolic.  The
    dual basis satisfies lam(a_i_sharp, a_j) = delta_ij, and omega is
    the copairing with entries dual[x][y].  The gram matrix is a signed
    permutation, so `copairing` lists the 2g nonzeros (x, y, dual[x][y])
    alone; the dense 2g x 2g tables `gram` and `dual` are built on first
    use.
    """

    def __init__(self, g: int, epsilon: int) -> None:
        if g < 1:
            raise ValueError("genus must be positive")
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        self.g = int(g)
        self.epsilon = int(epsilon)
        self.dim = 2 * g
        # gram * gram^T = I, so dual is the transpose of gram, which holds
        # 1 at (i, g + i) and epsilon at (g + i, i)
        self.copairing = tuple((i, g + i, self.epsilon) for i in range(g)) + tuple(
            (g + i, i, 1) for i in range(g)
        )

    @cached_property
    def gram(self) -> tuple:
        gram = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for x, y, v in self.copairing:
            gram[y][x] = Fraction(v)
        return tuple(tuple(row) for row in gram)

    @cached_property
    def dual(self) -> tuple:
        return tuple(zip(*self.gram))

    def __repr__(self) -> str:
        return f"EpsForm(g={self.g}, epsilon={self.epsilon:+d})"


class DenseTensor:
    """Exact tensor over positions carrying one index each."""

    __slots__ = ("dim", "positions", "entries")

    def __init__(
        self,
        dim: int,
        positions: Iterable[int],
        entries: Sequence[Fraction] | None = None,
    ) -> None:
        self.dim = int(dim)
        self.positions = tuple(sorted(int(p) for p in positions))
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("positions must be distinct")
        size = self.dim ** len(self.positions)
        if size > TENSOR_ENTRY_CAP:
            raise ValueError(
                f"tensor with {size} entries exceeds the oracle cap"
            )
        if entries is None:
            self.entries = [Fraction(0)] * size
        else:
            self.entries = [Fraction(v) for v in entries]
            if len(self.entries) != size:
                raise ValueError("entry count does not match the shape")

    def index(self, assignment: Sequence[int]) -> int:
        idx = 0
        for v in assignment:
            idx = idx * self.dim + v
        return idx

    def get(self, assignment: Sequence[int]) -> Fraction:
        return self.entries[self.index(assignment)]

    def assignments(self):
        return product(range(self.dim), repeat=len(self.positions))

    def __repr__(self) -> str:
        nz = sum(1 for v in self.entries if v)
        return f"DenseTensor(dim={self.dim}, positions={self.positions}, nonzero={nz})"


def omega_m(matching: Iterable[tuple[int, int]], form: EpsForm) -> DenseTensor:
    """Invariant tensor of an ordered perfect matching."""
    pairs = [(int(a), int(b)) for a, b in matching]
    elems = [x for pair in pairs for x in pair]
    if len(set(elems)) != len(elems):
        raise NotPerfect("matching repeats an element")
    out = DenseTensor(form.dim, elems)
    slot = {p: k for k, p in enumerate(out.positions)}
    for assignment in out.assignments():
        value = Fraction(1)
        for a, b in pairs:
            value *= form.dual[assignment[slot[a]]][assignment[slot[b]]]
            if not value:
                break
        if value:
            out.entries[out.index(assignment)] = value
    return out


def _omega_nonzeros(
    matching: Iterable[tuple[int, int]], form: EpsForm
) -> dict[int, int]:
    """The nonzero entries of omega_m(matching, form), as {flat index:
    value}, built without the dense tensor: each pair (a, b) contributes
    dual[x][y] at the one y where it is nonzero, for every x."""
    pairs = [(int(a), int(b)) for a, b in matching]
    positions = sorted(x for pair in pairs for x in pair)
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


def matching_span_rank(S, g: int, epsilon: int) -> tuple[int, int]:
    """Exact rank of the matching invariants, with the dimension of the
    formal matching space they come from."""
    if isinstance(S, int):
        elems = range(1, S + 1)
    else:
        elems = sorted(int(x) for x in S)
    if len(elems) % 2:
        raise ValueError("the set size must be even")
    _check_nonzero_budget(len(elems), 2 * g)
    form = EpsForm(g, epsilon)
    matchings = perfect_matchings(elems)
    rank = len(_pivot_rows(_omega_nonzeros(m, form) for m in matchings))
    return rank, len(matchings)
