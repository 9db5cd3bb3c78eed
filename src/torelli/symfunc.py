"""The ring of symmetric functions with exact rational coefficients.

Elements are stored in the Schur basis; the complete (h), elementary (e)
and power-sum (p) generators enter through `h_sym`, `e_sym` and `p_sym`.
Truncated t-series over the ring hold nonnegative exponents only and
carry a hard truncation order: no operation ever claims a coefficient
beyond what its inputs determine.

The stable Sp/O classes of `branching` are the same free abelian group
on partitions with another product, Newell-Littlewood (Koike-Terada
1987). So one exact combination type, `_Combination`, holds the
arithmetic, equality, hashing, rendering and mask decoding of both
`SymFunc` and `branching.OrthSympClass`; each supplies only its product
of two basis elements, its letter, how it stores a coefficient and its
epsilon. One series type, `_Series`, does the same for `LambdaSeries`
and `branching.ClassSeries`, including `mul_scalar_series`, the product
by an integer t-series on integer combinations of masks. A t-series of
scalars, such as the L-quotient and the bundle factor, is no
`LambdaSeries` but a sequence of ints indexed by degree.

Every move of a Schur shape is one kernel, `partitions.ribbon_strips`:
multiplying by h_r[p_k] adds a horizontal strip of r ribbons of size k
to every shape of an integer combination of beta-set bitmasks, and for
negative k its adjoint removes one. Shapes stay bitmasks and
coefficients plain integers until the end of a pass, so only the final
Schur keys become Partitions and Fractions.

- A Schur product writes one factor in the h-basis by Jacobi-Trudi
  (`_jacobi_trudi`) and adds its strips of boxes (k = 1, Pieri) to the
  other; the skew Schur functions and the branching rules of `branching`
  remove them (k = -1).
- `exp_h` runs its recurrence in the h-basis without the character
  table: each coefficient of its input is written in h-monomials (for
  ch_B, whose coefficients are h_q times scalars, that is the identity)
  and p_k[h_mu] adds strips of ribbons of size k, a sum with no
  cancellation. Its integer core, `_exp_h_masks`, hands those
  combinations to the table pass in `pipeline`, which multiplies them by
  integer t-series and conjugates them (omega) with the helpers kept here.
- `plethysm` writes its outer argument in the h-basis and takes every
  h_m[g] it needs from one `exp_h` call, with an auxiliary grading that
  counts m; it reads no character value either. The power-sum route it
  replaced is a test oracle in `tests/bead_oracle.py`.
- The character table is `_p_monomial_schur`, the Schur expansion of a
  power-sum monomial; `p_sym` and `characters` read its columns.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, perm
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .partitions import (
    EMPTY,
    Partition,
    beta_mask,
    mask_partition,
    partitions_of,
    ribbon_strips,
)


class PlethysmDivergence(ValueError):
    """Composition with an infinite sum requires positive valuation."""


class ValuationViolation(ValueError):
    """A series failed a required lower bound on its t-valuation."""


class EpsilonMismatch(ValueError):
    """Symplectic and orthogonal classes were mixed in one expression."""


# ---------------------------------------------------------------------------
# Power sums: Schur expansions are columns of the character table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _p_monomial_schur(mu: Partition) -> Mapping[Partition, int]:
    """Schur expansion of the power-sum monomial p_mu.

    This is the column {lam: chi^lam(mu)} of the character table, nonzero
    entries only, in the order of partitions_of; read-only, since every
    caller shares the cached mapping. p_mu = p_(mu_1) p_(mu_2, ...):
    `ribbon_strips` with r = 1 adds every signed rim hook of size mu_1 to
    the cached column of the rest, on |mu| beads (Macdonald I.7).
    """
    if not mu:
        return MappingProxyType({EMPTY: 1})
    rest = _p_monomial_schur(Partition(mu[1:]))
    hooks = ribbon_strips({beta_mask(lam, mu.size): c for lam, c in rest.items()}, mu[0], 1)[1]
    column = {mask_partition(mask): c for mask, c in hooks.items() if c}
    return MappingProxyType({lam: column[lam] for lam in partitions_of(mu.size) if lam in column})


# ---------------------------------------------------------------------------
# Exact combinations keyed by partitions: Schur functions and Sp/O classes
# ---------------------------------------------------------------------------

class _Combination:
    """A finite exact linear combination of basis elements indexed by
    partitions: {Partition: coefficient}, with no zero coefficient.

    A kind supplies the product of two basis elements (`_basis_product`),
    the `letter` it renders with, how it stores c / den (`_coefficient`)
    and its epsilon: None, or the sign of a classical group, which two
    combinations must share to meet. A number c is c times the basis
    element of the empty partition, the unit of every kind's product, and
    equals and hashes as that combination.
    """

    __slots__ = ("coeffs", "epsilon")
    letter: str

    def __init__(self, coeffs: Optional[Mapping] = None, epsilon: Optional[int] = None):
        self.epsilon = epsilon
        cleaned = {}
        for lam, c in (coeffs or {}).items():
            c = self._coefficient(c)
            if c:
                cleaned[Partition(lam)] = c
        self.coeffs = cleaned

    @classmethod
    def _of(cls, coeffs: dict, epsilon: Optional[int]):
        """The combination of cls with these coefficients, taken as they are."""
        out = object.__new__(cls)
        out.coeffs, out.epsilon = coeffs, epsilon
        return out

    def _new(self, coeffs: Mapping[Partition, object]):
        """A combination of this kind and epsilon; zero coefficients drop."""
        store = self._coefficient
        return self._of({lam: store(c) for lam, c in coeffs.items() if c}, self.epsilon)

    @classmethod
    def _from_masks(cls, comb: Mapping[int, int], den: int, epsilon: Optional[int] = None):
        """sum c b_mask / den over an integer combination of beta-set masks."""
        quotient = cls._coefficient
        coeffs = {mask_partition(mask): quotient(c, den) for mask, c in comb.items() if c}
        return cls._of(coeffs, epsilon)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_scalar(self) -> bool:
        return all(lam == EMPTY for lam in self.coeffs)

    def coeff(self, lam) -> Fraction:
        return self.coeffs.get(Partition(lam), Fraction(0))

    def support(self) -> list[Partition]:
        return sorted(self.coeffs, key=Partition.sort_key)

    def degree(self) -> int:
        """Largest homogeneous degree present; -1 for the zero element."""
        return max((lam.size for lam in self.coeffs), default=-1)

    def homogeneous_part(self, d: int):
        return self._of({lam: c for lam, c in self.coeffs.items() if lam.size == d}, self.epsilon)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        """other as a combination of this kind and epsilon, a number as a
        multiple of the unit; None for anything else."""
        if isinstance(other, (int, Fraction)):
            return self._new({EMPTY: other})
        if type(other) is not type(self):
            return None
        if other.epsilon != self.epsilon:
            raise EpsilonMismatch("cannot combine classes of opposite epsilon")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            merged[lam] = merged.get(lam, 0) + c
        return self._new(merged)

    __radd__ = __add__

    def __neg__(self):
        return self._of({lam: -c for lam, c in self.coeffs.items()}, self.epsilon)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._new({lam: c * other for lam, c in self.coeffs.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_scalar():
            return self * other.coeff(EMPTY)
        if self.is_scalar():
            return other * self.coeff(EMPTY)
        out: dict[Partition, object] = {}
        for mu, a in self.coeffs.items():
            for nu, b in other.coeffs.items():
                for lam, c in self._basis_product(mu, nu):
                    out[lam] = out.get(lam, 0) + a * b * c
        return self._new(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._new({EMPTY: other})
        elif type(other) is not type(self):
            return NotImplemented
        return self.epsilon == other.epsilon and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.is_scalar():
            return hash(self.coeffs.get(EMPTY, 0))
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return _render_parts([(lam, self.coeffs[lam]) for lam in self.support()], self.letter)


class SymFunc(_Combination):
    """A finite rational linear combination of Schur functions, each
    coefficient a Fraction; the product is Littlewood-Richardson."""

    __slots__ = ()
    letter = "s"
    _coefficient = Fraction

    @staticmethod
    def _basis_product(mu: Partition, nu: Partition):
        return _schur_product_table(mu, nu)

    @staticmethod
    def zero() -> "SymFunc":
        return SymFunc()

    @staticmethod
    def scalar(c) -> "SymFunc":
        return SymFunc({EMPTY: c})

    @staticmethod
    def schur(lam) -> "SymFunc":
        return SymFunc({lam: 1})

    def __repr__(self) -> str:
        return f"SymFunc({self.coeffs!r})"


def h_sym(k: int) -> SymFunc:
    """Complete homogeneous symmetric function h_k = s_(k)."""
    if k < 0:
        return SymFunc.zero()
    return SymFunc.schur(Partition((k,)) if k else EMPTY)


def e_sym(k: int) -> SymFunc:
    """Elementary symmetric function e_k = s_(1^k)."""
    if k < 0:
        return SymFunc.zero()
    return SymFunc.schur(Partition((1,) * k))


def p_sym(k: int) -> SymFunc:
    """Power sum p_k, expanded into hook Schur functions."""
    if k == 0:
        return SymFunc.scalar(1)
    return SymFunc(_p_monomial_schur(Partition((k,))))


# ---------------------------------------------------------------------------
# Schur products and skews: Pieri strips over a Jacobi-Trudi expansion
# ---------------------------------------------------------------------------

def _pieri(start: Partition, beads: int, k: int, h_terms: Mapping[tuple, int]) -> SymFunc:
    """sum c h_mu s_start (k = 1) or sum c h_mu^perp s_start (k = -1)
    over h_terms {h-parts mu: c}: each h_r adds or removes a horizontal
    strip of r boxes (`_strip_horner`), on shapes with `beads` beads."""
    acc: dict[int, int] = {}
    _strip_horner({beta_mask(start, beads): 1}, k, {mu: [(acc, c)] for mu, c in h_terms.items()})
    return SymFunc._from_masks(acc, 1)


@lru_cache(maxsize=None)
def _schur_product_table(mu: Partition, nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """s_mu * s_nu as (lam, c) pairs in partitions_of order: the factor
    with fewer `_jacobi_trudi` terms adds its strips to the other, with
    len(mu) + len(nu) beads, as many as a product has rows."""
    if len(_jacobi_trudi(mu)) < len(_jacobi_trudi(nu)):
        mu, nu = nu, mu
    prod = _pieri(mu, len(mu) + len(nu), 1, _jacobi_trudi(nu))
    return tuple((lam, int(prod.coeffs[lam])) for lam in prod.support())


@lru_cache(maxsize=None)
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient of s_lam in s_mu * s_nu."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    return dict(_schur_product_table(mu, nu)).get(lam, 0)


def omega(f: SymFunc) -> SymFunc:
    """The involution sending s_lam to s_{lam'} (equivalently e_k to h_k)."""
    return SymFunc({lam.conjugate(): c for lam, c in f.coeffs.items()})


# ---------------------------------------------------------------------------
# change_basis: parse small h/e/p/s expressions into the Schur basis
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<gen>[hep])(?P<idx>\d+)|(?P<schur>s\[(?P<parts>[^\]]*)\])"
    r"|(?P<num>\d+(?:/\d+)?)|(?P<op>[+\-*^()]))"
)


def change_basis(text: str) -> SymFunc:
    """Evaluate an expression in h/e/p generators and s[..] terms.

    Supports sums, differences, products, integer powers and rational
    scalars, e.g. "h3*e2 - 2*p2^2". Returns the Schur-basis result.
    """
    from .partitions import parse_partition

    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("gen"):
            k = int(m.group("idx"))
            base = {"h": h_sym, "e": e_sym, "p": p_sym}[m.group("gen")]
            tokens.append(base(k))
        elif m.group("schur"):
            tokens.append(SymFunc.schur(parse_partition(m.group("parts"))))
        elif m.group("num"):
            try:
                tokens.append(SymFunc.scalar(Fraction(m.group("num"))))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {m.group('num')!r}") from None
        else:
            tokens.append(m.group("op"))

    def parse_sum(i: int) -> tuple[SymFunc, int]:
        sign = 1
        while i < len(tokens) and tokens[i] in ("+", "-"):
            if tokens[i] == "-":
                sign = -sign
            i += 1
        value, i = parse_product(i)
        total = value * sign
        while i < len(tokens) and tokens[i] in ("+", "-"):
            sign = 1
            while i < len(tokens) and tokens[i] in ("+", "-"):
                if tokens[i] == "-":
                    sign = -sign
                i += 1
            value, i = parse_product(i)
            total = total + value * sign
        return total, i

    def parse_product(i: int) -> tuple[SymFunc, int]:
        value, i = parse_power(i)
        while i < len(tokens) and tokens[i] == "*":
            nxt, i = parse_power(i + 1)
            value = value * nxt
        return value, i

    def parse_power(i: int) -> tuple[SymFunc, int]:
        value, i = parse_atom(i)
        if i < len(tokens) and tokens[i] == "^":
            exp_tok = tokens[i + 1] if i + 1 < len(tokens) else None
            if not (isinstance(exp_tok, SymFunc) and exp_tok.is_scalar()):
                raise ValueError("exponent must be a number")
            exp = exp_tok.coeff(EMPTY)
            if exp.denominator != 1 or exp < 0:
                raise ValueError("exponent must be a nonnegative integer")
            out = SymFunc.scalar(1)
            for _ in range(int(exp)):
                out = out * value
            return out, i + 2
        return value, i

    def parse_atom(i: int) -> tuple[SymFunc, int]:
        if i >= len(tokens):
            raise ValueError("unexpected end of expression")
        tok = tokens[i]
        if tok == "(":
            value, i = parse_sum(i + 1)
            if i >= len(tokens) or tokens[i] != ")":
                raise ValueError("unbalanced parentheses")
            return value, i + 1
        if isinstance(tok, SymFunc):
            return tok, i + 1
        raise ValueError(f"unexpected token {tok!r}")

    result, i = parse_sum(0)
    if i != len(tokens):
        raise ValueError("trailing tokens in expression")
    return result


# ---------------------------------------------------------------------------
# Truncated series over one kind of combination
# ---------------------------------------------------------------------------

class _Series:
    """A truncated series in t whose coefficients are combinations of one
    kind (`kind`) and one epsilon.

    Exponents are nonnegative, and a negative one is refused; the
    truncation order is the largest exponent whose coefficient the series
    claims to know, so a product knows the smaller of its factors' orders.
    """

    __slots__ = ("terms", "trunc", "epsilon")
    kind: type

    def __init__(self, terms: Mapping[int, object], trunc: int, epsilon: Optional[int] = None):
        self.epsilon = epsilon
        self.trunc = int(trunc)
        cleaned = {}
        for k, f in terms.items():
            if k < 0:
                raise ValuationViolation(f"a series has no term of negative exponent, got t^{k}")
            if k <= self.trunc:
                f = self._as_coefficient(f)
                if f.coeffs:
                    cleaned[int(k)] = f
        self.terms = cleaned

    @classmethod
    def _of(cls, terms: Mapping[int, _Combination], trunc: int, epsilon: Optional[int]):
        """The series of cls with these coefficients up to trunc; zero
        coefficients drop."""
        out = object.__new__(cls)
        out.epsilon, out.trunc = epsilon, trunc
        out.terms = {k: f for k, f in terms.items() if k <= trunc and f.coeffs}
        return out

    @classmethod
    def _from_masks(
        cls, terms: Mapping[int, Mapping[int, int]], den: int, trunc: int, epsilon: Optional[int] = None
    ):
        """The series of {t-exponent: {beta-set mask: int}} over den."""
        decode = cls.kind._from_masks
        return cls._of({k: decode(comb, den, epsilon) for k, comb in terms.items()}, trunc, epsilon)

    def _as_coefficient(self, f) -> _Combination:
        """f as a coefficient of this series, a number as a multiple of the unit."""
        c = self.kind._of({}, self.epsilon)._coerce(f)
        if c is None:
            raise TypeError(f"cannot interpret {f!r} as a coefficient of {type(self).__name__}")
        return c

    # -- queries -------------------------------------------------------------

    def coefficient(self, k: int) -> _Combination:
        if k > self.trunc:
            raise ValuationViolation(
                f"coefficient of t^{k} requested beyond truncation order {self.trunc}"
            )
        f = self.terms.get(k)
        return self.kind._of({}, self.epsilon) if f is None else f

    def valuation(self) -> Optional[int]:
        """Smallest exponent present, or None for the (truncated) zero series."""
        return min(self.terms) if self.terms else None

    def exponents(self) -> list[int]:
        return sorted(self.terms)

    def longest_column(self) -> int:
        """The largest number of rows of a shape in the series."""
        return max((len(lam) for f in self.terms.values() for lam in f.coeffs), default=0)

    def encode(self, beads: int) -> tuple[dict[int, dict[int, int]], int]:
        """The coefficients as integer combinations of beta-set masks with
        `beads` beads (at least `longest_column()`), over one denominator."""
        den = lcm(*(c.denominator for f in self.terms.values() for c in f.coeffs.values()))
        out = {
            k: {beta_mask(lam, beads): c.numerator * (den // c.denominator)
                for lam, c in f.coeffs.items()}
            for k, f in self.terms.items()
        }
        return out, den

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if type(other) is type(self):
            if other.epsilon != self.epsilon:
                raise EpsilonMismatch("cannot combine classes of opposite epsilon")
            return other
        return self._of({0: self._as_coefficient(other)}, self.trunc, self.epsilon)

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.terms)
        for k, f in other.terms.items():
            merged[k] = merged[k] + f if k in merged else f
        return self._of(merged, min(self.trunc, other.trunc), self.epsilon)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not type(self):
            f = self._as_coefficient(other)
            return self._of({k: g * f for k, g in self.terms.items()}, self.trunc, self.epsilon)
        other = self._coerce(other)
        trunc = min(self.trunc, other.trunc)
        out: dict[int, _Combination] = {}
        for a, f in self.terms.items():
            for b, g in other.terms.items():
                k = a + b
                if k <= trunc:
                    out[k] = out[k] + f * g if k in out else f * g
        return self._of(out, trunc, self.epsilon)

    __rmul__ = __mul__

    def mul_scalar_series(self, scalar: Sequence[int]):
        """Multiply by an integer t-series, scalar[j] the coefficient of
        t^j, on integer combinations of masks. The product is known to the
        smaller of the two orders, len(scalar) - 1 for the scalar series."""
        trunc = min(self.trunc, len(scalar) - 1)
        terms, den = self.encode(self.longest_column())
        return self._from_masks(_times_scalar(terms, scalar, trunc), den, trunc, self.epsilon)

    def map_coefficients(self, fn: Callable[[_Combination], _Combination]):
        return self._of({k: fn(f) for k, f in self.terms.items()}, self.trunc, self.epsilon)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.epsilon, self.trunc, self.terms) == (other.epsilon, other.trunc, other.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for k in self.exponents():
            f = self.terms[k]
            body = str(f)
            t_part = "t" if k == 1 else f"t^{k}"
            if k == 0:
                pieces.append(body)
            elif len(f.coeffs) > 1:
                pieces.append(f"({body})*{t_part}")
            elif body in ("1", "-1"):
                pieces.append(body[:-1] + t_part)
            else:
                pieces.append(f"{body}*{t_part}")
        return _join_signed(pieces)


class LambdaSeries(_Series):
    """Truncated series in t with SymFunc coefficients."""

    __slots__ = ()
    kind = SymFunc

    @staticmethod
    def zero(trunc: int) -> "LambdaSeries":
        return LambdaSeries({}, trunc)

    @staticmethod
    def one(trunc: int) -> "LambdaSeries":
        return LambdaSeries({0: 1}, trunc)

    @staticmethod
    def monomial(f, exp: int, trunc: int) -> "LambdaSeries":
        return LambdaSeries({exp: f}, trunc)

    def __repr__(self) -> str:
        return f"LambdaSeries({self.terms!r}, trunc={self.trunc})"


def exp_h_weight_bound(g: LambdaSeries, trunc: Optional[int] = None) -> int:
    """The largest weight a shape of exp_h(g) can have up to degree trunc
    (by default g.trunc): the floor of r trunc, where r is the largest
    ratio of the weight of g_a to a.  A term of j L_j comes from some
    p_k[g_a] with k a = j, so it weighs at most r j, and a product of
    them of total degree m at most r m."""
    trunc = g.trunc if trunc is None else trunc
    return max((f.degree() * trunc // a for a, f in g.terms.items()), default=0)


def exp_h(g: LambdaSeries) -> LambdaSeries:
    """Sum over q of h_q composed with g: the plethystic exponential.

    Only finitely many q contribute below the truncation order because g
    must have positive t-valuation; otherwise the sum diverges. With
    L = sum_k p_k[g]/k and E = exp(L) = sum_m E_m t^m, the log-derivative
    recurrence m E_m = sum_j (j L_j) E_{m-j} (Macdonald I.2) gives E,
    where j L_j = sum over k a = j of a p_k[g_a]. Written in the h-basis,
    each p_k[g_a] is a combination of products of h_r[p_k], which add
    horizontal ribbon strips. The recurrence is `_exp_h_masks`, on integer
    combinations of beta-set masks; only here do the shapes of E_m become
    Partitions, with the denominator m! D^m.
    """
    s_terms, den = _exp_h_masks(g)
    return LambdaSeries._of(
        {m: SymFunc._from_masks(s, factorial(m) * den**m) for m, s in enumerate(s_terms)}, g.trunc, None
    )


def plethysm(f: SymFunc, g: LambdaSeries) -> LambdaSeries:
    """Composition f of g for a finite symmetric function f.

    f is written in the h-basis (`_jacobi_trudi`), and h_mu[g] is the
    product of the h_{mu_i}[g] (Macdonald I.8). One `exp_h` call gives
    every h_m[g] with m up to M = deg f: it runs on u g, where the
    auxiliary u counts m and u^m t^a is the exponent m B + a. With T the
    truncation of g, B = M T + 1 exceeds every t-degree of h_m[g] for
    m <= M, so no two terms share an exponent. The result is known to
    the order of g.
    """
    top, trunc = max(f.degree(), 0), g.trunc
    if trunc < 0:
        raise ValueError(f"plethysm needs g to order t^0 at least, not t^{trunc}")
    base = top * trunc + 1
    encoded = LambdaSeries({base + a: c for a, c in g.terms.items()}, top * base + trunc)
    h_of_g: list[dict[int, SymFunc]] = [{} for _ in range(top + 1)]
    for e, c in exp_h(encoded).terms.items():
        m, a = divmod(e, base)
        if m <= top:  # at M = 0, B = 1 and only e = 0 is h_0[g] = 1
            h_of_g[m][a] = c
    h_series = [LambdaSeries(terms, trunc) for terms in h_of_g]

    h_terms: dict[tuple, Fraction] = {}
    for lam, c in f.coeffs.items():
        for mu, x in _jacobi_trudi(lam).items():
            h_terms[mu] = h_terms.get(mu, 0) + c * x
    total = LambdaSeries.zero(trunc)
    for mu, c in h_terms.items():
        if c:
            term = LambdaSeries.one(trunc)
            for part in mu:
                term = term * h_series[part]
            total = total + term * c
    return total


@lru_cache(maxsize=None)
def _jacobi_trudi(lam: Partition) -> Mapping[tuple, int]:
    """s_lam in the h-basis, det(h_{lam_i - i + j}) (Macdonald I.3.4), as
    {h-parts in decreasing order, h_0 = 1 left out: int}; read-only.

    Expanded along the first row, each minor (the rows below on the
    columns left) once. Row r takes column j only if j >= r - lam_r, a
    bound that grows with r, so a column choice is dropped, with every
    larger one, once the columns left cannot meet the bounds of the rows
    below in increasing order.
    """
    need = [r - part for r, part in enumerate(lam)]
    minors: dict[tuple, dict[tuple, int]] = {(): {(): 1}}

    def expand(columns: tuple) -> dict[tuple, int]:
        if columns in minors:
            return minors[columns]
        i = len(lam) - len(columns)
        out: dict[tuple, int] = {}
        for pos, j in enumerate(columns):
            rest = columns[:pos] + columns[pos + 1:]
            if any(c < need[r] for r, c in enumerate(rest, i + 1)):
                break
            index = lam[i] - i + j
            for parts, c in expand(rest).items():
                key = tuple(sorted(parts + (index,), reverse=True)) if index else parts
                out[key] = out.get(key, 0) + (-c if pos & 1 else c)
        minors[columns] = out = {parts: c for parts, c in out.items() if c}
        return out

    return MappingProxyType(expand(tuple(range(len(lam)))))


def _exp_h_masks(
    g: LambdaSeries, beads: Optional[int] = None, max_weight: Optional[int] = None
) -> tuple[list[dict[int, int]], int]:
    """The integer core of exp_h: [S_0, ..., S_trunc] and D, such that
    E_m = S_m / (m! D^m), each S_m a {beta-set mask: int} with `beads`
    beads, at least (and by default) `exp_h_weight_bound(g)`.

    With max_weight, each S_m drops its shapes heavier than that once it
    is complete, and `beads` need only reach max_weight: a strip only
    adds boxes, so no lighter shape comes from a dropped one.

    Each g_a is written in the h-basis (`_jacobi_trudi`), and
    p_k[h_mu] = prod_i h_{mu_i}[p_k]. D is the common denominator of the
    coefficients of the j L_j in that basis, 1 for every ch_B, and A_j is
    D j L_j. The recurrence S_m = sum_j (m-1)!/(m-j)! D^{j-1} (A_j acting
    on S_{m-j}) runs in the Schur basis, with the sources in increasing
    m: S_m is complete once every smaller source has acted. For each
    source and each k, one walk over its ribbon strips of every size
    (`partitions.ribbon_strips`) feeds every target S_{m+j} whose A_j
    holds h_r[p_k]. One bead count holds every shape: a partition of
    weight w has at most w rows, and no shape weighs more than
    `exp_h_weight_bound(g)`.
    """
    v = g.valuation()
    if v is not None and v < 1:
        raise PlethysmDivergence(
            "composing the full homogeneous family needs t-valuation >= 1"
        )
    if beads is None:
        beads = exp_h_weight_bound(g)
    trunc = g.trunc
    # dlog[j][(k, mu)]: the coefficient of p_k[h_mu] in j L_j
    dlog: dict[int, dict[tuple, Fraction]] = {}
    for a, f in g.terms.items():
        for lam, c in f.coeffs.items():
            for mu, x in _jacobi_trudi(lam).items():
                for k in range(1, trunc // a + 1):
                    dj = dlog.setdefault(k * a, {})
                    dj[k, mu] = dj.get((k, mu), 0) + a * c * x
    den = lcm(*(c.denominator for dj in dlog.values() for c in dj.values()))
    accs: list[dict[int, int]] = [{beta_mask(EMPTY, beads): 1}] + [{} for _ in range(trunc)]
    s_terms: list[dict[int, int]] = []
    for source, acc in enumerate(accs):
        s = {mask: c for mask, c in acc.items() if c}
        if max_weight is not None:
            s = {mask: c for mask, c in s.items() if sum(mask_partition(mask)) <= max_weight}
        s_terms.append(s)
        if not s:
            continue
        # by_k[k][mu]: the (target, integer factor) pairs that p_k[h_mu] feeds
        by_k: dict[int, dict[tuple, list]] = {}
        for j, dj in dlog.items():
            m = source + j
            if m <= trunc:
                scale = perm(m - 1, j - 1) * den ** (j - 1)
                for (k, mu), x in dj.items():
                    if x:
                        factor = x.numerator * (den // x.denominator) * scale
                        by_k.setdefault(k, {}).setdefault(mu, []).append((accs[m], factor))
        for k, targets in by_k.items():
            _strip_horner(s, k, targets)
    return s_terms, den


def _strip_horner(comb: Mapping[int, int], k: int, targets: Mapping[tuple, list]) -> None:
    """Add factor * h_mu[p_k] comb to every (target, factor) of targets[mu].

    Horner's rule over the h-parts, largest first: one `ribbon_strips`
    walk of every size up to the largest first part, then the terms that
    share a first part r go on from its strips of size r.
    """
    groups: dict[int, dict[tuple, list]] = {}
    for mu, pairs in targets.items():
        if mu:
            groups.setdefault(mu[0], {})[mu[1:]] = pairs
            continue
        for acc, factor in pairs:
            get = acc.get
            for mask, c in comb.items():
                acc[mask] = get(mask, 0) + c * factor
    if groups:
        strips = ribbon_strips(comb, k, max(groups))
        for r, rest in groups.items():
            _strip_horner(strips[r], k, rest)


# ---------------------------------------------------------------------------
# Series of integer combinations of beta-set masks
# ---------------------------------------------------------------------------
#
# The stages after exp_h act on {t-exponent: {beta-set mask: int}} with
# one denominator for the whole series: integer t-series, lists of ints
# by degree, multiply every coefficient and leave the denominator alone,
# and the fibre division adds and removes boxes. A series of
# Partition-keyed coefficients enters through `_Series.encode` and leaves
# through `_Series._from_masks`.

def _over_one_denominator(
    terms: Mapping[int, Mapping[int, int]], dens: Mapping[int, int]
) -> tuple[dict[int, dict[int, int]], int]:
    """The series terms[k] / dens[k] over the least common denominator; a
    combination that needs no scaling is returned itself, not copied."""
    reduced = {}
    for k, comb in terms.items():
        common = gcd(dens[k], *comb.values())
        reduced[k] = (comb, common, dens[k] // common)
    den = lcm(*(r for _, _, r in reduced.values()))
    out = {}
    for k, (comb, common, r) in reduced.items():
        scale = den // r
        out[k] = comb if common == scale == 1 else {m: c // common * scale for m, c in comb.items()}
    return out, den


def _times_scalar(
    terms: Mapping[int, Mapping[int, int]], scalar: Sequence[int], trunc: int
) -> dict[int, dict[int, int]]:
    """sum_j scalar[j] t^j times a series of mask combinations, up to trunc."""
    out: dict[int, dict[int, int]] = {}
    for i, comb in terms.items():
        for j, c in enumerate(scalar):
            if c and i + j <= trunc:
                acc = out.setdefault(i + j, {})
                get = acc.get
                for mask, x in comb.items():
                    acc[mask] = get(mask, 0) + x * c
    return {k: {mask: c for mask, c in acc.items() if c} for k, acc in out.items()}


def _conjugate_masks(comb: Mapping[int, int], beads: int) -> dict[int, int]:
    """omega on a combination of beta-set masks: s_lam to s_lam'.

    In the window of the 2 * beads lowest positions, the beta-set of lam'
    is the complement of the reversed beta-set of lam, again with `beads`
    beads (Macdonald I.1.7), when no part and no length exceeds `beads`.
    """
    width = 2 * beads
    full = (1 << width) - 1
    return {full ^ int(f"{mask:0{width}b}"[::-1], 2): c for mask, c in comb.items()}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_coeff(c: Fraction, symbol: Optional[str]) -> str:
    if symbol is None:
        return str(c)
    if c == 1:
        return symbol
    if c == -1:
        return f"-{symbol}"
    return f"{c}*{symbol}"


def _join_signed(pieces: list[str]) -> str:
    out = pieces[0]
    for piece in pieces[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _render_parts(items, letter: str) -> str:
    pieces = []
    for lam, c in items:
        symbol = None if lam == EMPTY else f"{letter}[{lam}]"
        pieces.append(_render_coeff(c, symbol))
    return _join_signed(pieces)
