"""Integer partitions and their elementary combinatorics.

Partitions index everything downstream: Schur functions, symmetric group
characters, orthogonal/symplectic weights, and the rows of the output
tables. They are immutable value types with a deterministic total order
(by size, then reverse-lexicographic) so that every printed table and
JSON document comes out in the same order on every run.

`ribbon_strips` is the one routine that moves beads. It works on
beta-sets kept as integer bitmasks, one bit per bead, and on integer
combinations of them, so that a pass over many shapes builds no
Partition until its end. It adds a horizontal strip of r ribbons of size
k, h_r[p_k], or removes one, the adjoint; every product, skew,
branching rule, plethysm and fibre division of the package is a walk of
it. With r = 1 it adds or removes one rim hook, multiplication by the
power sum p_k or its adjoint: the symmetric-group character table,
`symfunc._p_monomial_schur`, is built from those products.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Mapping, Sequence


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The constructor accepts any iterable of nonnegative integers, drops
    zeros and sorts, so callers may pass part multisets in any order.
    """

    __slots__ = ()

    def __new__(cls, parts: Sequence[int] = ()) -> "Partition":
        if type(parts) is cls:  # already clean, and immutable
            return parts
        cleaned = sorted((int(p) for p in parts if p != 0), reverse=True)
        if cleaned and cleaned[-1] < 0:
            raise ValueError("partition parts must be nonnegative")
        return super().__new__(cls, cleaned)

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram; an involution."""
        if not self:
            return self
        cols = [0] * self[0]
        for part in self:
            for j in range(part):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams, part by part."""
        if len(other) > len(self):
            return False
        return all(self[i] >= other[i] for i in range(len(other)))

    def sort_key(self) -> tuple:
        # Size first, then reverse-lex: (3) < (2,1) < (1,1,1).
        return (self.size, tuple(-p for p in self))

    def __lt__(self, other) -> bool:
        return self.sort_key() < Partition(other).sort_key()

    def __le__(self, other) -> bool:
        return self.sort_key() <= Partition(other).sort_key()

    def __gt__(self, other) -> bool:
        return self.sort_key() > Partition(other).sort_key()

    def __ge__(self, other) -> bool:
        return self.sort_key() >= Partition(other).sort_key()

    def __str__(self) -> str:
        return format_partition(self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


EMPTY = Partition()


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, built once:
    the order starts at (n) and ends at (1,...,1)."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out: list[Partition] = []

    def extend(prefix: list[int], remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for k in range(min(remaining, max_part), 0, -1):
            prefix.append(k)
            extend(prefix, remaining - k, k)
            prefix.pop()

    extend([], n, n)
    return tuple(out)


@lru_cache(maxsize=None)
def _partition_count(n: int, max_part: int) -> int:
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return _partition_count(n - max_part, max_part) + _partition_count(n, max_part - 1)


def partition_count(n: int) -> int:
    return _partition_count(n, n)


def z_lambda(lam: Partition) -> int:
    """Order of the centralizer of a permutation with cycle type lam."""
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    z = 1
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return z


def even_rows(lam: Partition) -> bool:
    """True when every part is even."""
    return all(part % 2 == 0 for part in lam)


def even_columns(lam: Partition) -> bool:
    """True when every column height is even, i.e. the conjugate has even rows."""
    return even_rows(lam.conjugate())


def format_partition(lam: Partition) -> str:
    """Compact text form: (2,1,1) -> "2,1^2", empty -> "0"."""
    if not lam:
        return "0"
    pieces = []
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        count = j - i
        pieces.append(str(lam[i]) if count == 1 else f"{lam[i]}^{count}")
        i = j
    return ",".join(pieces)


def _is_number(text: str) -> bool:
    """Whether text is ASCII digits alone; int() would also read signs,
    spaces, underscores ("1_0" is 10) and the digits of other scripts."""
    return text.isascii() and text.isdigit()


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition; also accepts plain comma lists.
    Each part and multiplicity is ASCII digits; anything else raises
    a ValueError naming the piece."""
    text = text.strip()
    if text in ("", "0", "()", "[]"):
        return EMPTY
    parts: list[int] = []
    for piece in text.split(","):
        base, caret, exp = (s.strip() for s in piece.partition("^"))
        if not (_is_number(base) and (_is_number(exp) or not caret)):
            raise ValueError(f"bad partition piece {piece.strip()!r} in {text!r}")
        parts.extend([int(base)] * (int(exp) if caret else 1))
    return Partition(parts)


def beta_mask(lam: Sequence[int], beads: int) -> int:
    """The beta-set of lam with `beads` beads (at least len(lam)) as a
    bitmask: bit lam_i + (beads - 1 - i) is set for each i < beads."""
    mask = 0
    for i in range(beads):
        mask |= 1 << ((lam[i] if i < len(lam) else 0) + beads - 1 - i)
    return mask


def mask_partition(mask: int) -> Partition:
    """Inverse of beta_mask: the j-th lowest bead, at position b, is the
    part b - j; the bead count is the number of set bits."""
    # The run of beads at 0, 1, 2, ... holds the zero parts: drop it.
    mask >>= (mask ^ (mask + 1)).bit_length() - 1
    parts = []
    j = 0
    while mask:
        low = mask & -mask
        mask ^= low
        part = low.bit_length() - 1 - j
        if part:
            parts.append(part)
        j += 1
    parts.reverse()
    return tuple.__new__(Partition, parts)


def ribbon_strips(terms: Mapping[int, int], k: int, r_max: int) -> list[dict[int, int]]:
    """For r = 0, ..., r_max, the integer combination of beta-set masks
    sum c s_mask * h_r[p_k] over the masks of terms with coefficients c,
    or for k < 0 sum c h_r[p_|k|]^perp s_mask, its adjoint.

    For k > 0 each bead moves m >= 0 steps of k up its runner (the
    positions congruent to it mod k), strictly below the original next
    bead on that runner; for k < 0 it moves m steps of |k| down, strictly
    above the original next-lower bead and not below 0. The steps add up
    to r: a horizontal strip of r ribbons of size |k| added or removed
    (Macdonald I.8; Lascoux, Leclerc and Thibon, J. Math. Phys. 38, 1997).
    Beads move top-down, and each move carries the sign (-1)^(beads
    strictly between its ends in the current mask); the product of the
    signs is that of the permutation re-sorting the beads, whatever the
    order. For |k| = 1 no move passes a bead, so no sign is counted.
    Every strip is a distinct shape, so nothing cancels within one mask.

    With r = 1 this adds (k > 0) or removes (k < 0) every rim hook of
    size |k|: multiplication by the power sum p_k, or its adjoint
    (Macdonald I.3, I.5). The bead count never changes, so adding needs
    one bead per row of every result, and removing moves only beads at
    positions >= |k|.
    """
    out: list[dict[int, int]] = [{} for _ in range(r_max + 1)]
    step = abs(k)
    signed = step > 1
    for mask, c in terms.items():
        if not c:
            continue
        acc = out[0]
        acc[mask] = acc.get(mask, 0) + c
        # Top-down, each movable bead's moves by m = 1, 2, ... steps: the
        # bits it flips and the positions it passes.
        moves = []
        movable = mask & ~(mask >> step) if k > 0 else mask & ~(mask << step) & -(1 << step)
        while movable:
            bit = 1 << (movable.bit_length() - 1)
            movable ^= bit
            row = []
            if k > 0:
                dest = bit << step
                while len(row) < r_max and not mask & dest:
                    row.append((len(row) + 1, bit ^ dest, dest - (bit << 1) if signed else 0))
                    dest <<= step
            else:
                dest = bit >> step
                while len(row) < r_max and dest and not mask & dest:
                    row.append((len(row) + 1, bit ^ dest, bit - (dest << 1) if signed else 0))
                    dest >>= step
            moves.append(row)
        last = len(moves)
        # Depth first over (next bead, mask, steps used, signed coefficient).
        stack = [(0, mask, 0, c)]
        while stack:
            i, cur, used, v = stack.pop()
            room = r_max - used
            for nxt in range(i + 1, last + 1):
                for m, flip, passed in moves[nxt - 1]:
                    if m > room:
                        break
                    w = -v if passed and (cur & passed).bit_count() & 1 else v
                    moved = cur ^ flip
                    acc = out[used + m]
                    acc[moved] = acc.get(moved, 0) + w
                    if m < room and nxt < last:
                        stack.append((nxt, moved, used + m, w))
    return out
