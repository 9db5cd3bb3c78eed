"""Test oracle for the categorical model and the dense matching tensors:
independent routes, not used by the package.

The package computes the cohomology as Sp/O characters and checks it
against fixed-point characters of the labelled-partition basis; it
needs neither the Brauer category nor the harmonic tensors, and it
builds matching tensors only on their nonzero entries.  This module
keeps the paper's categorical model and the dense tensors, to check the
calculus and the sparse route against:

- `BrauerMorphism`, `compose` and `apply_morphism`, the downward
  (signed) Brauer category acting on labelled partitions by contracting
  and inserting pairs, and `day_product`, its monoidal product; they
  act on `SignedPartitionVector`, the package's vector with the
  vector-space helpers only they use;
- `DenseTensor`, `gram`, `dual` and `dense_omega_m`, the dense
  reference for the package's sparse matching tensors: every one of the
  (2g)^S entries, the 2g x 2g tables of the form and its copairing, and
  the matching tensor built entry by entry from them, which
  `invariants.omega_m` and the rank's rows are checked against;
- `K_on_morphism`, the same morphisms acting on dense tensors through
  the form, the copairing and honest linear maps;
- `harmonic_projection` and `harmonic_multiplicity`, the harmonic
  subspace as the joint kernel of the pairwise contractions and the
  multiplicity of each symmetric-group irreducible in it: a second,
  independent route to `branching.dim_irrep`.  The kernel reuses the
  fraction-free pivots of `invariants.matching_span_rank`.

Its name keeps pytest from collecting it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from basis_oracle import _perm_from_cycle_type
from torelli import setparts
from torelli.characters import NonIntegralMultiplicity, murnaghan_nakayama
from torelli.invariants import EpsForm, NotPerfect, _eliminate, _pivot_rows, _primitive
from torelli.labels import LabelMonomial
from torelli.partitions import Partition, partitions_of, z_lambda
from torelli.setparts import VARIANTS, LabelledPartition, _perm_parity

MODES = ("dBr", "dsBr", "Br2g", "sBr2g")
TENSOR_ENTRY_CAP = 10**7


class GroundSetOverlap(ValueError):
    """Day products need disjoint ground sets."""


class IllegalContraction(ValueError):
    """Closing a unit pair requires a mode that knows the genus."""


class DenseTensor:
    """Exact tensor over positions carrying one index each, with all
    dim^len(positions) entries stored: the dense reference for
    `invariants.MatchingTensor`, which stores only the nonzeros under
    the same flat indices."""

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

    @staticmethod
    def scalar(dim: int, value) -> "DenseTensor":
        return DenseTensor(dim, (), [Fraction(value)])

    def index(self, assignment: Sequence[int]) -> int:
        idx = 0
        for v in assignment:
            idx = idx * self.dim + v
        return idx

    def get(self, assignment: Sequence[int]) -> Fraction:
        return self.entries[self.index(assignment)]

    def assignments(self):
        return product(range(self.dim), repeat=len(self.positions))

    def scale(self, c) -> "DenseTensor":
        return DenseTensor(
            self.dim, self.positions, [Fraction(c) * v for v in self.entries]
        )

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


def gram(form: EpsForm) -> tuple[tuple[Fraction, ...], ...]:
    """The 2g x 2g table of the form: the transpose of its copairing."""
    table = [[Fraction(0)] * form.dim for _ in range(form.dim)]
    for x, y, v in form.copairing:
        table[y][x] = Fraction(v)
    return tuple(tuple(row) for row in table)


def dual(form: EpsForm) -> tuple[tuple[Fraction, ...], ...]:
    """The 2g x 2g table of the copairing omega, the inverse form."""
    return tuple(zip(*gram(form)))


def dense_omega_m(matching: Iterable[tuple[int, int]], form: EpsForm) -> DenseTensor:
    """Invariant tensor of an ordered perfect matching, entry by entry:
    the product of the copairing table over the pairs at every one of
    the (2g)^S assignments."""
    pairs = [(int(a), int(b)) for a, b in matching]
    elems = [x for pair in pairs for x in pair]
    if len(set(elems)) != len(elems):
        raise NotPerfect("matching repeats an element")
    table = dual(form)
    out = DenseTensor(form.dim, elems)
    slot = {p: k for k, p in enumerate(out.positions)}
    for assignment in out.assignments():
        value = Fraction(1)
        for a, b in pairs:
            value *= table[assignment[slot[a]]][assignment[slot[b]]]
            if not value:
                break
        if value:
            out.entries[out.index(assignment)] = value
    return out


class SignedPartitionVector(setparts.SignedPartitionVector):
    """`setparts.SignedPartitionVector` with the zero, basis and sum that
    `apply_morphism` and `day_product` build their results from."""

    __slots__ = ()

    @staticmethod
    def zero(n: int, ground: Iterable[int]) -> "SignedPartitionVector":
        return SignedPartitionVector(n, ground, {})

    @staticmethod
    def basis(part: LabelledPartition) -> "SignedPartitionVector":
        return SignedPartitionVector(part.n, part.ground, {part: Fraction(1)})

    def __add__(self, other: setparts.SignedPartitionVector) -> "SignedPartitionVector":
        if self.n != other.n or self.ground != other.ground:
            raise ValueError("cannot add vectors on different ground sets")
        out = dict(self.coeffs)
        for part, c in other.coeffs.items():
            out[part] = out.get(part, Fraction(0)) + c
        return SignedPartitionVector(self.n, self.ground, out)


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

    form_table, copairing_table = gram(form), dual(form)

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
                value *= form_table[assignment[slot[a]]][assignment[slot[b]]]
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
                value *= copairing_table[assignment[out_slot[c]]][assignment[out_slot[d]]]
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
    pairing = [(x, y, v) for x, row in enumerate(gram(form)) for y, v in enumerate(row) if v]
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
