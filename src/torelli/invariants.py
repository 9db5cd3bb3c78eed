"""Exact tensor computations over a 2g-dimensional bilinear space.

Small dense tensors with rational entries serve as an independent
check on the combinatorial calculus: matchings evaluate to invariant
tensors built from the form's copairing, matchings span the invariant
subspace (injectively once 2g reaches the set size), and the same
contract-relabel-insert recipe that acts on labelled partitions acts
here through honest linear maps.

`matching_span_rank` builds no dense tensor.  A matching tensor is a
product of copairings, and the copairing has one nonzero per row, so
it has exactly (2g)^(S/2) nonzero entries out of (2g)^S.  It is built
on those alone, under the flat indices of `DenseTensor.index`, and the
rank comes from fraction-free elimination on sparse integer rows.  Its
budget is on those nonzeros, MATCHING_NONZERO_CAP in all.

The harmonic subspace is the kernel of the pairwise contractions, and
it comes from the same elimination: each contraction row holds the 2g
nonzeros of the form, and back-substituting the pivot rows gives the
reduced row echelon basis, one sparse vector per free column.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product, repeat
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .characters import NonIntegralMultiplicity, murnaghan_nakayama
from .partitions import Partition, partitions_of, z_lambda
from .setparts import BrauerMorphism, _perm_from_cycle_type, _perm_parity

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

    def lam(self, x: int, y: int) -> Fraction:
        return self.gram[x][y]

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

    def set(self, assignment: Sequence[int], value) -> None:
        self.entries[self.index(assignment)] = Fraction(value)

    def assignments(self):
        return product(range(self.dim), repeat=len(self.positions))

    @staticmethod
    def scalar(dim: int, value) -> "DenseTensor":
        return DenseTensor(dim, (), [Fraction(value)])

    def scale(self, c) -> "DenseTensor":
        return DenseTensor(
            self.dim, self.positions, [Fraction(c) * v for v in self.entries]
        )

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        if (self.dim, self.positions) != (other.dim, other.positions):
            raise ValueError("tensors live on different shapes")
        return DenseTensor(
            self.dim,
            self.positions,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.positions == other.positions
            and self.entries == other.entries
        )

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


def _sparse_kernel(
    rows: Iterable[dict[int, Fraction]], ncols: int
) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Basis of the joint kernel of sparse rational rows, one sparse
    vector {column: value} per free column, plus the free columns
    themselves (where each vector has its 1 and the others their 0):
    the reduced row echelon basis.  The pivot rows are back-substituted
    in descending lead order, so each keeps only its lead and free
    columns; then the vector of free column f holds -row[f] / row[lead]
    at each lead."""
    pivots = _pivot_rows(rows)
    free = [c for c in range(ncols) if c not in pivots]
    vectors: dict[int, dict[int, Fraction]] = {f: {f: Fraction(1)} for f in free}
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [k for k in row if k != lead and k in pivots]:
            row = _eliminate(row, col, pivots[col])
        row = pivots[lead] = _primitive(row, lead)
        for f, v in row.items():
            if f != lead:
                vectors[f][lead] = Fraction(-v, row[lead])
    return [vectors[f] for f in free], free


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


def K_on_morphism(
    morphism: BrauerMorphism, form: EpsForm, signed: bool = False
) -> Callable[[DenseTensor], DenseTensor]:
    """Linear map realizing a matching morphism on tensors.

    Source pairs contract through the form, the bijection relabels the
    surviving positions, and target pairs insert the copairing.  The
    signed flavor multiplies by the parities of the words that bring
    the matched pairs to the front on each side.
    """
    src = morphism.source
    matched_s = {x for pair in morphism.source_pairs for x in pair}
    rest = [x for x in src if x not in matched_s]
    mid_positions = sorted(morphism.bij[x] for x in rest)

    sign = 1
    if signed:
        word = [x for pair in morphism.source_pairs for x in pair] + rest
        if _perm_parity(word):
            sign = -sign
        word_t = [x for pair in morphism.target_pairs for x in pair]
        word_t += [morphism.bij[x] for x in rest]
        if _perm_parity(word_t):
            sign = -sign

    def apply(tensor: DenseTensor) -> DenseTensor:
        if tensor.positions != src:
            raise ValueError("tensor does not live on the morphism source")
        if tensor.dim != form.dim:
            raise ValueError("tensor dimension does not match the form")
        slot = {p: k for k, p in enumerate(src)}
        mid = DenseTensor(form.dim, mid_positions)
        mid_slot = {p: k for k, p in enumerate(mid.positions)}
        for assignment in tensor.assignments():
            value = tensor.entries[tensor.index(assignment)]
            if not value:
                continue
            for a, b in morphism.source_pairs:
                value *= form.gram[assignment[slot[a]]][assignment[slot[b]]]
                if not value:
                    break
            if not value:
                continue
            key = [0] * len(mid.positions)
            for x in rest:
                key[mid_slot[morphism.bij[x]]] = assignment[slot[x]]
            mid.entries[mid.index(key)] += value
        if not morphism.target_pairs:
            return mid.scale(sign) if sign != 1 else mid
        out = DenseTensor(form.dim, morphism.target)
        out_slot = {p: k for k, p in enumerate(out.positions)}
        for assignment in out.assignments():
            key = [assignment[out_slot[p]] for p in mid.positions]
            value = mid.entries[mid.index(key)]
            if not value:
                continue
            for c, d in morphism.target_pairs:
                value *= form.dual[assignment[out_slot[c]]][assignment[out_slot[d]]]
                if not value:
                    break
            if value:
                out.entries[out.index(assignment)] = sign * value
        return out

    return apply


def contraction_rows(q: int, form: EpsForm) -> list[dict[int, Fraction]]:
    """Constraint rows {flat index: value}, whose joint kernel is the
    harmonic subspace: one row per pair of positions i < j and per
    assignment of the other positions, holding the 2g nonzero entries
    of the form in slots i and j."""
    d = form.dim
    if d**q > TENSOR_ENTRY_CAP:
        raise ValueError("tensor power exceeds the oracle cap")
    strides = [d ** (q - 1 - k) for k in range(q)]
    pairing = [(x, y, v) for x, row in enumerate(form.gram) for y, v in enumerate(row) if v]
    rows: list[dict[int, Fraction]] = []
    for i in range(q):
        for j in range(i + 1, q):
            others = [k for k in range(q) if k not in (i, j)]
            for rest in product(range(d), repeat=len(others)):
                base = sum(strides[k] * v for k, v in zip(others, rest))
                rows.append(
                    {base + x * strides[i] + y * strides[j]: v for x, y, v in pairing}
                )
    return rows


def harmonic_projection(q: int, form: EpsForm) -> list[DenseTensor]:
    """Exact basis of the joint kernel of all pairwise contractions."""
    if q < 0:
        raise ValueError("tensor power must be nonnegative")
    if q == 0:
        return [DenseTensor.scalar(form.dim, 1)]
    basis, _ = _sparse_kernel(contraction_rows(q, form), form.dim**q)
    tensors = []
    for vec in basis:
        tensor = DenseTensor(form.dim, range(1, q + 1))
        for k, v in vec.items():
            tensor.entries[k] = v
        tensors.append(tensor)
    return tensors


@lru_cache(maxsize=None)
def _harmonic_traces(q: int, g: int, epsilon: int) -> tuple[tuple[Partition, Fraction], ...]:
    """The trace of a permutation of each cycle type mu of S_q on the
    harmonic q-tensors of EpsForm(g, epsilon), as (mu, trace) pairs.
    In the reduced row echelon basis the vector of free column f has its
    1 at f and 0 at every other free column, so the trace of sigma is the
    sum over f of the entry of vec_f at sigma(f)."""
    d = 2 * g
    basis, free = _sparse_kernel(contraction_rows(q, EpsForm(g, epsilon)), d**q)
    strides = [d ** (q - 1 - k) for k in range(q)]
    traces = []
    for mu in partitions_of(q):
        sigma = _perm_from_cycle_type(q, mu)
        perm = [sigma[k + 1] - 1 for k in range(q)]
        trace = Fraction(0)
        for vec, f in zip(basis, free):
            digits = []
            x = f
            for s in strides:
                digits.append(x // s)
                x %= s
            moved = sum(digits[perm[k]] * strides[k] for k in range(q))
            trace += vec.get(moved, 0)
        traces.append((mu, trace))
    return tuple(traces)


def harmonic_multiplicity(lam, form: EpsForm) -> int:
    """Multiplicity of one symmetric-group irreducible inside the
    harmonic subspace: the traces of `_harmonic_traces`, computed once
    per (q, g, epsilon), weighted by the characters of lam."""
    lam = Partition(lam)
    q = sum(lam)
    if q == 0:
        return 1
    total = Fraction(0)
    for mu, trace in _harmonic_traces(q, form.g, form.epsilon):
        total += Fraction(murnaghan_nakayama(lam, mu), z_lambda(mu)) * trace
    if total.denominator != 1:
        raise NonIntegralMultiplicity(
            f"trace average for {lam} is {total}"
        )
    return int(total)
