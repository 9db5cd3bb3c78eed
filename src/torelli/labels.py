"""The graded label algebra and its characteristic-class structure.

V = Q[e, p_lo, ..., p_{n-1}] with e of degree 2n and p_i of degree 4i,
where lo = ceil((n+1)/4). Provides the monomial basis B, the one label
rule (`_allowed`) and label count by degree (`_label_counts`), the table
by part size that ch(B) and the characters in `setparts` read, and
Hirzebruch L-polynomials with their images in B.

An L-polynomial is the degree-i part of exp(sum_k a_k p_k(z)), the
p_k(z) being power sums of the squared Chern roots z, written in the
e-basis, since the j-th Pontrjagin class is e_j(z).  No linear system
is solved: Newton-Girard gives each p_k in the e-basis, and the
exponential is built by its log-derivative recurrence, multiplying
e-monomials by merging partitions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Mapping

from .partitions import EMPTY, Partition, _is_number, partitions_of
from .symfunc import (
    LambdaSeries,
    SymFunc,
    ValuationViolation,
    _join_signed,
    _render_coeff,
    h_sym,
)


# `lclass --max` above this is refused before any work: --max 20 / 24 / 26
# / 28 / 30 take about 1.0 / 3.5 / 6.7 / 12.7 / 23 s cold on a shared
# 2-vCPU host, growing about 1.35x per index.
L_CLASS_INDEX_CAP = 26


class IndexOutOfRange(ValueError):
    """An L-class index outside the window where kappa-degrees are positive."""


def generator_window(n: int) -> tuple[int, int]:
    """Inclusive range of legal Pontrjagin indices for half-dimension n."""
    return ((n + 4) // 4, n - 1)


class LabelMonomial:
    """A monomial in e and the p_i, immutable and hashable."""

    __slots__ = ("n", "e_exp", "p_exps", "degree")

    def __init__(self, n: int, e_exp: int = 0, p_exps=()):
        if n < 1:
            raise ValueError("half-dimension must be positive")
        self.n = int(n)
        self.e_exp = int(e_exp)
        if self.e_exp < 0:
            raise ValueError("negative exponent")
        lo, hi = generator_window(n)
        merged: dict[int, int] = {}
        for i, k in p_exps:
            if k < 0:
                raise ValueError("negative exponent")
            if not lo <= i <= hi:
                raise ValueError(f"p_{i} is not a generator for n={n}")
            merged[int(i)] = merged.get(int(i), 0) + int(k)
        self.p_exps = tuple(sorted((i, k) for i, k in merged.items() if k))
        self.degree = 2 * self.n * self.e_exp + sum(4 * i * k for i, k in self.p_exps)

    @staticmethod
    def unit(n: int) -> "LabelMonomial":
        return LabelMonomial(n)

    @staticmethod
    def e(n: int, k: int = 1) -> "LabelMonomial":
        return LabelMonomial(n, e_exp=k)

    @staticmethod
    def p(n: int, i: int, k: int = 1) -> "LabelMonomial":
        return LabelMonomial(n, p_exps=((i, k),))

    def is_unit(self) -> bool:
        return self.e_exp == 0 and not self.p_exps

    def __mul__(self, other: "LabelMonomial") -> "LabelMonomial":
        if not isinstance(other, LabelMonomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot multiply labels of different half-dimension")
        return LabelMonomial(self.n, self.e_exp + other.e_exp, self.p_exps + other.p_exps)

    def sort_key(self):
        return (self.degree, self.e_exp, self.p_exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelMonomial):
            return NotImplemented
        return (self.n, self.e_exp, self.p_exps) == (other.n, other.e_exp, other.p_exps)

    def __hash__(self) -> int:
        return hash((self.n, self.e_exp, self.p_exps))

    def __str__(self) -> str:
        if self.is_unit():
            return "1"
        pieces = []
        if self.e_exp:
            pieces.append("e" if self.e_exp == 1 else f"e^{self.e_exp}")
        for i, k in self.p_exps:
            pieces.append(f"p{i}" if k == 1 else f"p{i}^{k}")
        return "*".join(pieces)

    def __repr__(self) -> str:
        return f"LabelMonomial(n={self.n}, {self!s})"


def parse_label(text: str, n: int) -> LabelMonomial:
    """Parse monomial syntax like "e^2*p1" or "1"."""
    text = text.strip()
    if text in ("1", ""):
        return LabelMonomial.unit(n)
    e_exp = 0
    p_exps = []
    for factor in text.split("*"):
        factor = factor.strip()
        base, caret, exp_text = factor.partition("^")
        exp_text = exp_text.strip() if caret else "1"
        if not _is_number(exp_text):
            raise ValueError(f"unrecognized label factor {factor!r}")
        exp = int(exp_text)
        base = base.strip()
        if base == "e":
            e_exp += exp
        elif base[:1] == "p" and _is_number(base[1:]):
            p_exps.append((int(base[1:]), exp))
        elif base == "1":
            continue
        else:
            raise ValueError(f"unrecognized label factor {factor!r}")
    return LabelMonomial(n, e_exp, p_exps)


def monomial_counts(degrees, cap: int) -> list[int]:
    """The number of monomials in free generators of the given positive
    degrees, in each degree 0..cap: one coin-change pass per generator."""
    counts = [1] + [0] * cap
    for step in degrees:
        for d in range(step, cap + 1):
            counts[d] += counts[d - step]
    return counts


@lru_cache(maxsize=None)
def _label_counts(n: int, cap: int) -> tuple[int, ...]:
    """The number of monomials of V in each degree 0..cap, over the
    generator degrees 2n and 4i for i in the window."""
    lo, hi = generator_window(n)
    return tuple(monomial_counts([2 * n] + [4 * i for i in range(lo, hi + 1)], cap))


def _allowed(n: int, degree: int, size: int, variant: str) -> bool:
    """Whether a part of `size` elements may carry a label of `degree` in
    P0 or P': an empty part needs degree above 2n, a singleton at least n,
    and in P' a pair above 0, a label other than 1."""
    if size == 0:
        return degree > 2 * n
    if size == 1:
        return degree >= n
    return not (size == 2 and variant == "Pprime" and degree == 0)


def _part_label_counts(n: int, d_max: int) -> list[list[int]]:
    """For each part size s in 0..d_max // n + 2, the labels a part of s
    elements may carry in P', counted by the degree e + n(s - 2) they give
    the part, up to d_max.  No part of more elements fits under d_max."""
    counts = _label_counts(n, d_max + 2 * n)
    return [
        [counts[e] if e >= 0 and _allowed(n, e, size, "Pprime") else 0
         for e in range(n * (2 - size), d_max + 1 + n * (2 - size))]
        for size in range(d_max // n + 3)
    ]


def ch_B(n: int, trunc: int) -> LambdaSeries:
    """Generating series of the basis B weighted by h_q and kappa-degree.

    ch(B) = h_0 P(V_{>2n}) t^{-2n} + h_1 P(V_{>=n}) t^{-n}
          + h_2 P(V_{>0}) + sum_{q>=3} h_q P(V) t^{n(q-2)},
    truncated at trunc: h_q times row q of `_part_label_counts` in P',
    with h_0 = 1.  The result must have t-valuation >= 1.  The selector
    route is a test oracle in `tests/test_labels.py`.
    """
    table = _part_label_counts(n, trunc)
    h = [h_sym(q) for q in range(len(table))]
    total = LambdaSeries(
        {d: sum((h[q] * row[d] for q, row in enumerate(table) if row[d]), SymFunc.zero())
         for d in range(trunc + 1)},
        trunc,
    )
    if any(k <= 0 for k in total.exponents()):
        raise ValuationViolation("ch(B) has a term of nonpositive t-exponent")
    return total


def _series_div(num: list[Fraction], den: list[Fraction], length: int) -> list[Fraction]:
    if not den or den[0] == 0:
        raise ZeroDivisionError("denominator has zero constant term")
    out = []
    for k in range(length):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, k + 1):
            if j < len(den):
                acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def _series_log(q: list[Fraction]) -> list[Fraction]:
    # q[0] must be 1; returns log(q) with zero constant term
    out = [Fraction(0)] * len(q)
    for k in range(1, len(q)):
        acc = k * q[k]
        for j in range(1, k):
            acc -= j * out[j] * q[k - j]
        out[k] = acc / k
    return out


@lru_cache(maxsize=None)
def _l_genus_p_coefficients(max_index: int) -> tuple[Fraction, ...]:
    """Coefficients a_k with log prod Q(z_j) = sum a_k p_k(z)."""
    length = max_index + 1
    sinh_over_x = [Fraction(1, factorial(2 * k + 1)) for k in range(length)]
    cosh = [Fraction(1, factorial(2 * k)) for k in range(length)]
    q = _series_div(cosh, sinh_over_x, length)
    return tuple(_series_log(q))


@lru_cache(maxsize=None)
def _newton_girard(k: int) -> tuple[tuple[Partition, int], ...]:
    """p_k in the e-basis (Newton-Girard; Macdonald I.2):
    p_k = sum over nu |- k of (-1)^(k - l(nu)) k (l(nu) - 1)! / prod_j m_j(nu)!
    times e_nu, where m_j(nu) is the multiplicity of j in nu, as
    (nu, coefficient) pairs."""
    out = []
    for nu in partitions_of(k):
        c = k * factorial(len(nu) - 1)
        for j in set(nu):
            c //= factorial(nu.count(j))
        out.append((nu, -c if (k - len(nu)) % 2 else c))
    return tuple(out)


class LPolynomial:
    """The degree-4i Hirzebruch polynomial in Pontrjagin classes.

    Terms map partitions mu of i to rationals, a key mu standing for the
    monomial prod_j p_{mu_j}.
    """

    __slots__ = ("i", "terms")

    def __init__(self, i: int, terms: dict[Partition, Fraction]):
        self.i = int(i)
        self.terms = {
            Partition(mu): Fraction(c) for mu, c in terms.items() if c
        }
        for mu in self.terms:
            if mu.size != self.i:
                raise ValueError("L-polynomial terms must be homogeneous")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mu in sorted(self.terms, key=Partition.sort_key, reverse=True):
            c = self.terms[mu]
            mult: dict[int, int] = {}
            for part in mu:
                mult[part] = mult.get(part, 0) + 1
            mono = "*".join(
                f"p{j}" if k == 1 else f"p{j}^{k}"
                for j, k in sorted(mult.items(), reverse=True)
            )
            pieces.append(_render_coeff(c, mono))
        return _join_signed(pieces)

    def __repr__(self) -> str:
        return f"LPolynomial(i={self.i}, {self!s})"


def _p_mul_into(
    out: dict, x: Mapping[Partition, Fraction], y: Mapping[Partition, Fraction]
) -> None:
    """out += x * y for polynomials in the Pontrjagin classes, keyed by
    the partition of their indices: a product merges the partitions."""
    for mu, a in x.items():
        for nu, b in y.items():
            # Both keys are partitions already, so Partition's cleaning is skipped.
            key = tuple.__new__(Partition, sorted(mu + nu, reverse=True))
            out[key] = out.get(key, 0) + a * b


@lru_cache(maxsize=None)
def l_class(i: int) -> LPolynomial:
    """The i-th L-polynomial, from the multiplicative sequence of sqrt(z)/tanh(sqrt(z)).

    L = exp(G) with G = sum_k a_k p_k, so i L_i = sum_k k a_k p_k L_{i-k};
    each p_k is expanded in the e-basis by Newton-Girard and multiplied
    into L_{i-k} by merging partitions.
    """
    if i < 1:
        raise ValueError("index must be positive")
    a = _l_genus_p_coefficients(i)
    acc: dict[Partition, Fraction] = {}
    for k in range(1, i + 1):
        lower = l_class(i - k).terms if k < i else {EMPTY: Fraction(1)}
        p_k = {nu: k * a[k] * c for nu, c in _newton_girard(k)}
        _p_mul_into(acc, p_k, lower)
    return LPolynomial(i, {nu: c / i for nu, c in acc.items()})


def l_class_image(i: int, n: int) -> dict[LabelMonomial, Fraction]:
    """Image of L_i in the label algebra: p_j -> 0 outside the window, p_n -> e^2."""
    if 2 * i <= n:
        raise IndexOutOfRange(
            f"L_{i} has nonpositive kappa-degree for n={n}; need i > n/2"
        )
    lo, hi = generator_window(n)
    out: dict[LabelMonomial, Fraction] = {}
    for mu, c in l_class(i).terms.items():
        e_exp = 0
        p_exps: dict[int, int] = {}
        dead = False
        for j in mu:
            if j == n:
                e_exp += 2
            elif j < lo or j > n:
                dead = True
                break
            else:
                p_exps[j] = p_exps.get(j, 0) + 1
        if dead:
            continue
        mono = LabelMonomial(n, e_exp, tuple(p_exps.items()))
        out[mono] = out.get(mono, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def render_label_combination(terms: dict[LabelMonomial, Fraction]) -> str:
    if not terms:
        return "0"
    return _join_signed([
        _render_coeff(terms[mono], None if mono.is_unit() else str(mono))
        for mono in sorted(terms, key=LabelMonomial.sort_key)
    ])
