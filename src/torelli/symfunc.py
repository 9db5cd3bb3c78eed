"""The ring of symmetric functions with exact rational coefficients.

Elements are stored in the Schur basis; the complete (h), elementary (e)
and power-sum (p) families enter and leave through explicit conversion
helpers. Truncated t-series over the ring carry a hard truncation order:
no operation ever claims a coefficient beyond what its inputs determine.
Negative t-exponents are tolerated inside a series because some inputs
are assembled from shifted pieces that only cancel at the end.

The power-sum basis is the working basis of `plethysm`: there plethysm
only relabels partitions and a product merges them. `SymFunc.to_p`
brings each input coefficient in, reading the character table only in
the rows it holds, and `from_p_monomials` takes each result coefficient
back to Schur once, by adding rim hooks. That Horner pass runs on plain
integers: shapes are beta-set bitmasks (`partitions.slide_beads`) and
coefficients share one denominator, so only the final Schur keys become
Partitions and Fractions. `exp_h` runs its recurrence on the Schur side
with the same pass: multiplying by a p-polynomial adds rim hooks to
every shape of an integer combination of bitmasks. The pass is also the
one Schur product: s_mu * s_nu applies the p-expansion of s_nu to s_mu,
and run backwards, removing rim hooks, it gives the skew Schur functions
that `branching` reads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, perm
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .partitions import (
    EMPTY,
    Partition,
    beta_mask,
    mask_partition,
    murnaghan_nakayama,
    partitions_of,
    slide_beads,
    z_lambda,
)


class PlethysmDivergence(ValueError):
    """Composition with an infinite sum requires positive valuation."""


class ValuationViolation(ValueError):
    """A series failed a required lower bound on its t-valuation."""


# ---------------------------------------------------------------------------
# Power sums: Schur expansions are columns of the character table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _p_monomial_schur(mu: Partition) -> Mapping[Partition, int]:
    """Schur expansion of the power-sum monomial p_mu.

    This is the column {lam: chi^lam(mu)} of the character table, nonzero
    entries only, in the order of partitions_of; read-only, since every
    caller shares the cached mapping.
    """
    column = {}
    for lam in partitions_of(mu.size):
        value = murnaghan_nakayama(lam, mu)
        if value:
            column[lam] = value
    return MappingProxyType(column)


# ---------------------------------------------------------------------------
# SymFunc
# ---------------------------------------------------------------------------

class SymFunc:
    """A finite rational linear combination of Schur functions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[Partition, Fraction]] = None):
        cleaned: dict[Partition, Fraction] = {}
        if coeffs:
            for lam, c in coeffs.items():
                c = Fraction(c)
                if c:
                    cleaned[Partition(lam)] = c
        self.coeffs = cleaned

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SymFunc":
        return SymFunc()

    @staticmethod
    def scalar(c) -> "SymFunc":
        return SymFunc({EMPTY: Fraction(c)})

    @staticmethod
    def schur(lam) -> "SymFunc":
        return SymFunc({Partition(lam): Fraction(1)})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_scalar(self) -> bool:
        return all(lam == EMPTY for lam in self.coeffs)

    def coeff(self, lam) -> Fraction:
        return self.coeffs.get(Partition(lam), Fraction(0))

    def support(self) -> list[Partition]:
        return sorted(self.coeffs, key=lambda p: p.sort_key())

    def degree(self) -> int:
        """Largest homogeneous degree present; -1 for the zero element."""
        return max((lam.size for lam in self.coeffs), default=-1)

    def homogeneous_part(self, d: int) -> "SymFunc":
        return SymFunc({lam: c for lam, c in self.coeffs.items() if lam.size == d})

    def homogeneous_components(self) -> dict[int, "SymFunc"]:
        out: dict[int, dict[Partition, Fraction]] = {}
        for lam, c in self.coeffs.items():
            out.setdefault(lam.size, {})[lam] = c
        return {d: SymFunc(m) for d, m in sorted(out.items())}

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (SymFunc, int, Fraction)):
            return NotImplemented
        other = _as_symfunc(other)
        merged = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            merged[lam] = merged.get(lam, Fraction(0)) + c
        return SymFunc(merged)

    __radd__ = __add__

    def __neg__(self) -> "SymFunc":
        return SymFunc({lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, (SymFunc, int, Fraction)):
            return NotImplemented
        return self + (-_as_symfunc(other))

    def __rsub__(self, other):
        if not isinstance(other, (SymFunc, int, Fraction)):
            return NotImplemented
        return _as_symfunc(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, SymFunc) and other.is_scalar():
            other = other.coeff(EMPTY)
        if isinstance(other, (int, Fraction)):
            return SymFunc({lam: c * other for lam, c in self.coeffs.items()})
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.is_scalar():
            return other * self.coeff(EMPTY)
        out: dict[Partition, Fraction] = {}
        for mu, a in self.coeffs.items():
            for nu, b in other.coeffs.items():
                for lam, c in _schur_product_table(mu, nu):
                    out[lam] = out.get(lam, Fraction(0)) + a * b * c
        return SymFunc(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SymFunc, int, Fraction)):
            return NotImplemented
        return self.coeffs == _as_symfunc(other).coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- basis conversions -----------------------------------------------------

    def to_p(self) -> dict[Partition, Fraction]:
        """Expansion in power-sum monomials, via character orthogonality:
        p_mu has the coefficient sum_lam c_lam chi^lam(mu) / z_mu, which
        reads the character table only in the rows lam held here."""
        out: dict[Partition, Fraction] = {}
        for d, piece in self.homogeneous_components().items():
            for mu in partitions_of(d):
                total = sum(c * murnaghan_nakayama(lam, mu) for lam, c in piece.coeffs.items())
                if total:
                    out[mu] = total / z_lambda(mu)
        return out

    def __str__(self) -> str:
        return render_symfunc(self)

    def __repr__(self) -> str:
        return f"SymFunc({self.coeffs!r})"


def _as_symfunc(x) -> SymFunc:
    if isinstance(x, SymFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return SymFunc.scalar(x)
    raise TypeError(f"cannot interpret {x!r} as a symmetric function")


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
    return SymFunc({lam: Fraction(c) for lam, c in _p_monomial_schur(Partition((k,))).items()})


def from_p_monomials(terms: Mapping[Partition, Fraction]) -> SymFunc:
    """Schur expansion of sum_mu c_mu p_mu, of any mix of weights.

    Horner's rule over the parts of mu: group the terms by their smallest
    part k, convert what remains of each group in one recursive pass, then
    multiply by p_k, which adds every rim hook of size k with its sign
    (`partitions.slide_beads` run forwards). Terms that share their smaller
    parts share all the work on them. The pass runs on plain integers:
    shapes are beta-set bitmasks with one bead count for the whole pass,
    and coefficients are scaled by their common denominator, which is
    divided out at the end. Only the final shapes become Partitions.
    """
    return _p_action(terms, EMPTY, 1)


def _p_action(terms: Mapping[Partition, Fraction], start: Partition, direction: int) -> SymFunc:
    """sum_mu c_mu p_mu s_start (direction 1) or sum_mu c_mu p_mu^perp s_start
    (direction -1), where p_k^perp, the adjoint of multiplication by p_k,
    removes every rim hook of size k with its sign (Macdonald I.3, I.5)."""
    terms = {
        mu if isinstance(mu, Partition) else Partition(mu): Fraction(c) for mu, c in terms.items()
    }
    den = lcm(*(c.denominator for c in terms.values()))
    scaled = {mu: c.numerator * (den // c.denominator) for mu, c in terms.items()}
    return _scaled_p_action(scaled, den, start, direction)


def _scaled_p_action(
    terms: Mapping[tuple, int], den: int, start: Partition, direction: int
) -> SymFunc:
    """_p_action of sum_mu (c_mu / den) p_mu, with integer c_mu."""
    # Adding hooks of total size w lengthens start by at most w rows.
    beads = len(start) + (max(map(sum, terms), default=0) if direction > 0 else 0)
    return _mask_symfunc(_horner(terms, {beta_mask(start, beads): 1}, direction, {}), den)


def _mask_symfunc(combination: Mapping[int, int], den: int) -> SymFunc:
    """sum c s_mask / den over an integer combination of beta-set masks."""
    out = SymFunc()
    out.coeffs = {mask_partition(mask): Fraction(c, den) for mask, c in combination.items() if c}
    return out


def _horner(
    terms: Mapping[tuple, int], start: Mapping[int, int], direction: int, out: dict[int, int]
) -> dict[int, int]:
    """Add to out sum_mu c_mu p_mu (or p_mu^perp) applied to start, an
    integer combination of beta-set masks; return out. The largest parts
    act first, and terms that share their smaller parts share that work."""
    groups: dict[int, dict[tuple, int]] = {}
    for mu, c in terms.items():
        if mu:
            groups.setdefault(mu[-1], {})[mu[:-1]] = c
        else:
            for mask, a in start.items():
                out[mask] = out.get(mask, 0) + c * a
    for k, rest in groups.items():
        slide_beads(_horner(rest, start, direction, {}), direction * k, out)
    return out


# ---------------------------------------------------------------------------
# Schur products: the same rim-hook pass, started at a partition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _schur_product_table(mu: Partition, nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """s_mu * s_nu as (lam, c) pairs in partitions_of order: the p-expansion
    of s_nu applied to s_mu, adding rim hooks."""
    prod = _p_action(SymFunc.schur(nu).to_p(), mu, 1)
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
            tokens.append(SymFunc.scalar(Fraction(m.group("num"))))
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
            exp_tok = tokens[i + 1]
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
# LambdaSeries
# ---------------------------------------------------------------------------

class LambdaSeries:
    """Truncated series in t with SymFunc coefficients.

    Exponents may be negative; the truncation order is the largest
    exponent whose coefficient the series claims to know.
    """

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: Mapping[int, SymFunc], trunc: int):
        self.trunc = int(trunc)
        cleaned: dict[int, SymFunc] = {}
        for k, f in terms.items():
            if k > self.trunc:
                continue
            f = _as_symfunc(f)
            if not f.is_zero():
                cleaned[int(k)] = f
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc: int) -> "LambdaSeries":
        return LambdaSeries({}, trunc)

    @staticmethod
    def one(trunc: int) -> "LambdaSeries":
        return LambdaSeries({0: SymFunc.scalar(1)}, trunc)

    @staticmethod
    def monomial(f, exp: int, trunc: int) -> "LambdaSeries":
        return LambdaSeries({exp: _as_symfunc(f)}, trunc)

    # -- queries -------------------------------------------------------------

    def coefficient(self, k: int) -> SymFunc:
        if k > self.trunc:
            raise ValuationViolation(
                f"coefficient of t^{k} requested beyond truncation order {self.trunc}"
            )
        return self.terms.get(k, SymFunc.zero())

    def valuation(self) -> Optional[int]:
        """Smallest exponent present, or None for the (truncated) zero series."""
        return min(self.terms) if self.terms else None

    def exponents(self) -> list[int]:
        return sorted(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "LambdaSeries":
        if isinstance(other, LambdaSeries):
            return other
        if isinstance(other, (int, Fraction, SymFunc)):
            return LambdaSeries({0: _as_symfunc(other)}, self.trunc)
        raise TypeError(f"cannot interpret {other!r} as a series")

    def __add__(self, other) -> "LambdaSeries":
        other = self._coerce(other)
        trunc = min(self.trunc, other.trunc)
        merged = dict(self.terms)
        for k, f in other.terms.items():
            merged[k] = merged.get(k, SymFunc.zero()) + f
        return LambdaSeries(merged, trunc)

    __radd__ = __add__

    def __neg__(self) -> "LambdaSeries":
        return LambdaSeries({k: -f for k, f in self.terms.items()}, self.trunc)

    def __sub__(self, other) -> "LambdaSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LambdaSeries":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "LambdaSeries":
        if isinstance(other, (int, Fraction, SymFunc)):
            f = _as_symfunc(other)
            return LambdaSeries({k: g * f for k, g in self.terms.items()}, self.trunc)
        other = self._coerce(other)
        trunc = _product_trunc(self.terms, self.trunc, other.terms, other.trunc)
        out: dict[int, SymFunc] = {}
        for a, f in self.terms.items():
            for b, g in other.terms.items():
                k = a + b
                if k > trunc:
                    continue
                prod = f * g
                if k in out:
                    out[k] = out[k] + prod
                else:
                    out[k] = prod
        return LambdaSeries(out, trunc)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LambdaSeries":
        """Multiply by the exact monomial t^k."""
        return LambdaSeries({a + k: f for a, f in self.terms.items()}, self.trunc + k)

    def truncate(self, d: int) -> "LambdaSeries":
        if d > self.trunc:
            raise ValuationViolation(
                f"cannot extend knowledge from order {self.trunc} to {d}"
            )
        return LambdaSeries({k: f for k, f in self.terms.items() if k <= d}, d)

    def map_coefficients(self, fn: Callable[[SymFunc], SymFunc]) -> "LambdaSeries":
        return LambdaSeries({k: fn(f) for k, f in self.terms.items()}, self.trunc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __str__(self) -> str:
        return render_series(self)

    def __repr__(self) -> str:
        return f"LambdaSeries({self.terms!r}, trunc={self.trunc})"


def _product_trunc(
    x: Mapping[int, object], x_trunc: int, y: Mapping[int, object], y_trunc: int
) -> int:
    """Truncation order of a product of two series, given their nonzero terms.

    With Laurent terms present, a product coefficient near the cut may
    need factors beyond the other input's truncation, so the claimed order
    shrinks accordingly.
    """
    val_x = min(x) if x else x_trunc + 1
    val_y = min(y) if y else y_trunc + 1
    return min(x_trunc, y_trunc, val_x + y_trunc, val_y + x_trunc)


# ---------------------------------------------------------------------------
# Plethysm on the power-sum core
# ---------------------------------------------------------------------------
#
# In the p basis plethysm is a relabelling, p_k[p_mu] = p_{k mu} and
# p_k[t] = t^k, and a product merges partitions, so no Littlewood-Richardson
# coefficient is needed. A p-series maps t-exponents to dicts
# {mu: coefficient}; every coefficient of g is expanded once with `to_p`,
# and each coefficient of the result is converted to Schur once, at the end.

def _stretch(x: Mapping[Partition, Fraction], k: int) -> dict[Partition, Fraction]:
    """p_k[x]: every part of every mu multiplied by k."""
    return {tuple.__new__(Partition, [k * part for part in mu]): c for mu, c in x.items()}


def _p_mul_into(
    out: dict, x: Mapping[Partition, Fraction], y: Mapping[Partition, Fraction]
) -> None:
    """out += x * y, where p_mu * p_nu = p_{mu merged with nu}."""
    for mu, a in x.items():
        for nu, b in y.items():
            # Both keys are partitions already, so Partition's cleaning is skipped.
            key = tuple.__new__(Partition, sorted(mu + nu, reverse=True))
            out[key] = out.get(key, 0) + a * b


def _p_series_mul(
    x: dict[int, dict], x_trunc: int, y: dict[int, dict], y_trunc: int
) -> tuple[dict[int, dict], int]:
    """Product of two p-series, with the truncation rule of LambdaSeries."""
    trunc = _product_trunc(x, x_trunc, y, y_trunc)
    out: dict[int, dict] = {}
    for a, f in x.items():
        for b, g in y.items():
            if a + b <= trunc:
                _p_mul_into(out.setdefault(a + b, {}), f, g)
    nonzero = {k: {mu: c for mu, c in f.items() if c} for k, f in out.items()}
    return {k: f for k, f in nonzero.items() if f}, trunc


def _to_schur_series(x: dict[int, dict], trunc: int) -> LambdaSeries:
    return LambdaSeries({k: from_p_monomials(c) for k, c in x.items()}, trunc)


def plethysm(f: SymFunc, g: LambdaSeries) -> LambdaSeries:
    """Composition f of g for a finite symmetric function f."""
    pg = {a: c.to_p() for a, c in g.terms.items()}
    pk_cache: dict[int, dict[int, dict]] = {}

    def pk(k: int) -> dict[int, dict]:
        # p_k[g]; its truncation order stays that of g.
        if k not in pk_cache:
            pk_cache[k] = {k * a: _stretch(x, k) for a, x in pg.items() if k * a <= g.trunc}
        return pk_cache[k]

    one = {0: {EMPTY: Fraction(1)}} if g.trunc >= 0 else {}
    total: dict[int, dict] = {}
    trunc = g.trunc
    for mu, c in f.to_p().items():
        term, term_trunc = one, g.trunc
        for part in mu:
            term, term_trunc = _p_series_mul(term, term_trunc, pk(part), g.trunc)
        trunc = min(trunc, term_trunc)
        for k, x in term.items():
            acc = total.setdefault(k, {})
            for nu, a in x.items():
                acc[nu] = acc.get(nu, 0) + a * c
    return _to_schur_series(total, trunc)


def exp_h_weight_bound(g: LambdaSeries) -> int:
    """The largest weight a shape of exp_h(g) can have: the floor of
    r g.trunc, where r is the largest ratio of the weight of g_a to a.
    A p-monomial of j L_j comes from some p_k[g_a] with k a = j, so it
    weighs at most r j, and a product of them of total degree m at most
    r m."""
    return max((f.degree() * g.trunc // a for a, f in g.terms.items()), default=0)


def exp_h(g: LambdaSeries) -> LambdaSeries:
    """Sum over q of h_q composed with g: the plethystic exponential.

    Only finitely many q contribute below the truncation order because g
    must have positive t-valuation; otherwise the sum diverges. With
    L = sum_k p_k[g]/k and E = exp(L) = sum_m E_m t^m, the log-derivative
    recurrence m E_m = sum_j (j L_j) E_{m-j} (Macdonald I.2) gives E,
    where j L_j = sum over k a = j of a p_k[g_a], a few p-monomials each.
    It runs on integers: with D the common denominator of the j L_j and
    A_j = D j L_j, S_m = m! D^m E_m satisfies
    S_m = sum_j (m-1)!/(m-j)! D^{j-1} (A_j acting on S_{m-j}),
    and it runs in the Schur basis: multiplying by A_j adds rim hooks to
    every shape of S_{m-j} (`_horner`, started at that combination of
    beta-set masks). One bead count holds every shape: a partition of
    weight w has at most w rows, and no shape weighs more than
    `exp_h_weight_bound(g)`. Only the shapes of the final S_m become
    Partitions, with the denominator m! D^m.
    """
    v = g.valuation()
    if v is not None and v < 1:
        raise PlethysmDivergence(
            "composing the full homogeneous family needs t-valuation >= 1"
        )
    trunc = g.trunc
    dlog: dict[int, dict[Partition, Fraction]] = {}
    for a, c in g.terms.items():
        pa = c.to_p()
        for k in range(1, trunc // a + 1):
            dj = dlog.setdefault(k * a, {})
            for mu, x in _stretch(pa, k).items():
                dj[mu] = dj.get(mu, 0) + a * x
    den = lcm(*(c.denominator for dj in dlog.values() for c in dj.values()))
    scaled = {
        j: {mu: c.numerator * (den // c.denominator) for mu, c in dj.items() if c}
        for j, dj in dlog.items()
    }
    beads = exp_h_weight_bound(g)
    s_terms: list[dict[int, int]] = [{beta_mask(EMPTY, beads): 1}]
    for m in range(1, trunc + 1):
        acc: dict[int, int] = {}
        for j, aj in scaled.items():
            if j <= m and s_terms[m - j]:
                s = perm(m - 1, j - 1) * den ** (j - 1)
                _horner({mu: a * s for mu, a in aj.items()}, s_terms[m - j], 1, acc)
        s_terms.append({mask: c for mask, c in acc.items() if c})
    return LambdaSeries(
        {m: _mask_symfunc(s, factorial(m) * den**m) for m, s in enumerate(s_terms)}, trunc
    )


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


def _render_series_parts(bodies: dict[int, str], nterms: dict[int, int]) -> str:
    if not bodies:
        return "0"
    pieces = []
    for k in sorted(bodies):
        body = bodies[k]
        if k == 0:
            pieces.append(body)
            continue
        t_part = "t" if k == 1 else f"t^{k}"
        if nterms.get(k, 1) > 1:
            pieces.append(f"({body})*{t_part}")
        elif body == "1":
            pieces.append(t_part)
        elif body == "-1":
            pieces.append(f"-{t_part}")
        else:
            pieces.append(f"{body}*{t_part}")
    return _join_signed(pieces)


def render_symfunc(f: SymFunc, letter: str = "s") -> str:
    if f.is_zero():
        return "0"
    return _render_parts([(lam, f.coeffs[lam]) for lam in f.support()], letter)


def render_series(s: LambdaSeries, letter: str = "s") -> str:
    return _render_series_parts(
        {k: render_symfunc(s.terms[k], letter) for k in s.exponents()},
        {k: len(s.terms[k].coeffs) for k in s.exponents()},
    )
