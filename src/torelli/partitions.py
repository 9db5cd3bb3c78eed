"""Integer partitions and their elementary combinatorics.

Partitions index everything downstream: Schur functions, symmetric group
characters, orthogonal/symplectic weights, and the rows of the output
tables. They are immutable value types with a deterministic total order
(by size, then reverse-lexicographic) so that every printed table and
JSON document comes out in the same order on every run.

The one rim-hook rule, `slide_beads`, works on beta-sets kept as integer
bitmasks, one bit per bead, and on integer combinations of them, so that
a pass over many shapes builds no Partition until its end. `rim_hooks`
is its cached form on a single Partition, which the character table
`murnaghan_nakayama` reads.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterator, Mapping, Optional, Sequence


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

    @property
    def length(self) -> int:
        return len(self)

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


def partitions_of(n: int, max_length: Optional[int] = None) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order.

    The order starts at (n) and ends at (1,...,1); an optional bound on
    the number of parts filters the list without changing the order.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out: list[Partition] = []
    limit = n if max_length is None else max_length

    def extend(prefix: list[int], remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if len(prefix) >= limit:
            return
        for k in range(min(remaining, max_part), 0, -1):
            prefix.append(k)
            extend(prefix, remaining - k, k)
            prefix.pop()

    extend([], n, n)
    return out


def partitions_upto(n: int) -> list[Partition]:
    """Partitions of 0,1,...,n concatenated, smallest size first."""
    out: list[Partition] = []
    for m in range(n + 1):
        out.extend(partitions_of(m))
    return out


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


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition; also accepts plain comma lists."""
    text = text.strip()
    if text in ("", "0", "()", "[]"):
        return EMPTY
    parts: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if "^" in piece:
            base, _, exp = piece.partition("^")
            parts.extend([int(base)] * int(exp))
        else:
            parts.append(int(piece))
    return Partition(parts)


def hook_lengths(lam: Partition) -> Iterator[int]:
    """Hook lengths of all cells of the diagram, row by row."""
    conj = lam.conjugate()
    for i, part in enumerate(lam):
        for j in range(part):
            yield (part - j) + (conj[j] - i) - 1


def symmetric_group_irrep_dim(lam: Partition) -> int:
    """Dimension of the irreducible S_n-representation indexed by lam."""
    n = lam.size
    denom = 1
    for h in hook_lengths(lam):
        denom *= h
    return factorial(n) // denom


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


def slide_beads(terms: Mapping[int, int], k: int, out: dict[int, int]) -> dict[int, int]:
    """Add to out, for each beta-set mask in terms with its coefficient c,
    sign * c at every beta-set one rim hook of size |k| away; return out.

    A rim hook of size |k| is one bead slid from b to the empty position
    b + k: k > 0 adds the hook, k < 0 removes it. The sign is (-1)^leg,
    the leg length being the number of beads strictly between b and b + k.
    The bead count never changes, so adding a hook needs at least |k|
    beads below the last part; removing one moves only beads at b >= |k|.
    This is the one rim-hook rule of the package. On Schur functions it is
    multiplication by the power sum p_k, or for k < 0 its adjoint
    (Macdonald I.3, I.5).
    """
    get = out.get
    if k > 0:
        for mask, c in terms.items():
            if not c:
                continue
            movable = mask & ~(mask >> k)
            while movable:
                bit = movable & -movable
                movable ^= bit
                moved = mask ^ bit ^ (bit << k)
                if (mask & ((bit << k) - (bit << 1))).bit_count() & 1:
                    out[moved] = get(moved, 0) - c
                else:
                    out[moved] = get(moved, 0) + c
    elif k < 0:
        k = -k
        for mask, c in terms.items():
            if not c:
                continue
            movable = mask & ~(mask << k) & -(1 << k)
            while movable:
                bit = movable & -movable
                movable ^= bit
                moved = mask ^ bit ^ (bit >> k)
                if (mask & (bit - (bit >> (k - 1)))).bit_count() & 1:
                    out[moved] = get(moved, 0) - c
                else:
                    out[moved] = get(moved, 0) + c
    return out


@lru_cache(maxsize=None)
def rim_hooks(lam: Partition, k: int) -> tuple[tuple[Partition, int], ...]:
    """The partitions one rim hook of size |k| away from lam, with signs.

    `slide_beads` on the beta-set of lam with len(lam) + max(k, 0) beads;
    k > 0 adds the hook, k < 0 removes it. The pairs come with the moved
    bead in descending position. The character table below runs the rule
    backwards, and `divide_by_fiber` reads its size-1 hooks.
    """
    slides = slide_beads({beta_mask(lam, len(lam) + max(k, 0)): 1}, k, {})
    return tuple((mask_partition(m), sign) for m, sign in reversed(slides.items()))


@lru_cache(maxsize=None)
def murnaghan_nakayama(lam: Partition, mu: Partition) -> int:
    """Value of the irreducible character chi^lam on the class mu.

    The Murnaghan-Nakayama rule: remove every rim hook of size mu_1 from
    lam (`rim_hooks` with k = -mu_1), with its sign, and recurse on the
    rest of mu. This is the one character table of the package:
    class-function decompositions and the Schur expansion of a power sum
    read it.
    """
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError("character argument must have matching size")
    if not mu:
        return 1
    rest = Partition(mu[1:])
    return sum(sign * murnaghan_nakayama(inner, rest) for inner, sign in rim_hooks(lam, -mu[0]))
