"""Test oracle for the bead kernel: an independent route, not used by the package.

`torelli.partitions.ribbon_strips` is the package's one routine that
moves beads: it adds or removes horizontal strips of ribbons, and every
Schur product, skew, branching rule, rim hook, fibre division and
plethysm walks it. This module keeps the routes it replaced, to be
checked against:

- `slide_beads`, which slides one bead by a rim hook of size |k| in
  either direction;
- `_horner` and `_p_action`, the power-sum Horner pass built on it,
  which multiply (or, run backwards, skew) a Schur function by the
  p-expansion of another; `from_p_monomials` is its p -> s conversion;
- `rim_hooks` and `murnaghan_nakayama`, the character table as the
  recursive Murnaghan-Nakayama rule on cached rim hooks of one
  Partition, which the power-sum columns of `symfunc._p_monomial_schur`
  replaced;
- `to_p`, the power-sum expansion read from that character table, degree
  by degree (`homogeneous_components`);
- `p_route_product`, `p_route_skew` and `p_route_restrict`, the Schur
  products, skews and Littlewood branching coefficients as they ran on
  the p-expansions of `to_p` and the character table;
- `p_route_plethysm`, plethysm in the power-sum basis, where it only
  relabels partitions.

It also holds `partitions_upto`, the shapes of every size up to a bound,
which the differential tests walk, and `symmetric_group_irrep_dim`, the
hook-length formula for chi^lam(1^q), an independent check of
`characters.decompose` and of the dimensions of the invariants.  Its
name keeps pytest from collecting it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterator, Mapping

from torelli.partitions import (
    EMPTY,
    Partition,
    beta_mask,
    even_columns,
    even_rows,
    mask_partition,
    partitions_of,
    ribbon_strips,
    z_lambda,
)
from torelli.symfunc import LambdaSeries, SymFunc


def partitions_upto(n: int) -> list[Partition]:
    """Partitions of 0,1,...,n concatenated, smallest size first."""
    out: list[Partition] = []
    for m in range(n + 1):
        out.extend(partitions_of(m))
    return out


def slide_beads(terms: Mapping[int, int], k: int, out: dict[int, int]) -> dict[int, int]:
    """Add to out, for each beta-set mask in terms with its coefficient c,
    sign * c at every beta-set one rim hook of size |k| away; return out.

    A rim hook of size |k| is one bead slid from b to the empty position
    b + k: k > 0 adds the hook, k < 0 removes it. The sign is (-1)^leg,
    the leg length being the number of beads strictly between b and b + k.
    The bead count never changes, so adding a hook needs at least |k|
    beads below the last part; removing one moves only beads at b >= |k|.
    On Schur functions it is multiplication by the power sum p_k, or for
    k < 0 its adjoint (Macdonald I.3, I.5); `ribbon_strips` is its
    generalisation to h_r[p_k].
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


def _p_action(terms: Mapping[Partition, Fraction], start: Partition, direction: int) -> SymFunc:
    """sum_mu c_mu p_mu s_start (direction 1) or sum_mu c_mu p_mu^perp s_start
    (direction -1), where p_k^perp, the adjoint of multiplication by p_k,
    removes every rim hook of size k with its sign (Macdonald I.3, I.5)."""
    terms = {
        mu if isinstance(mu, Partition) else Partition(mu): Fraction(c) for mu, c in terms.items()
    }
    den = lcm(*(c.denominator for c in terms.values()))
    scaled = {mu: c.numerator * (den // c.denominator) for mu, c in terms.items()}
    # Adding hooks of total size w lengthens start by at most w rows.
    beads = len(start) + (max(map(sum, scaled), default=0) if direction > 0 else 0)
    return SymFunc._from_masks(_horner(scaled, {beta_mask(start, beads): 1}, direction, {}), den)


def from_p_monomials(terms: Mapping[Partition, Fraction]) -> SymFunc:
    """Schur expansion of sum_mu c_mu p_mu, of any mix of weights."""
    return _p_action(terms, EMPTY, 1)


@lru_cache(maxsize=None)
def rim_hooks(lam: Partition, k: int) -> tuple[tuple[Partition, int], ...]:
    """The partitions one rim hook of size |k| away from lam, with signs.

    `ribbon_strips` with r = 1 on the beta-set of lam with
    len(lam) + max(k, 0) beads; k > 0 adds the hook, k < 0 removes it.
    The pairs come with the moved bead in descending position.
    """
    hooks = ribbon_strips({beta_mask(lam, len(lam) + max(k, 0)): 1}, k, 1)[1]
    return tuple((mask_partition(m), sign) for m, sign in hooks.items())


@lru_cache(maxsize=None)
def murnaghan_nakayama(lam: Partition, mu: Partition) -> int:
    """Value of the irreducible character chi^lam on the class mu.

    The Murnaghan-Nakayama rule: remove every rim hook of size mu_1 from
    lam (`rim_hooks` with k = -mu_1), with its sign, and recurse on the
    rest of mu.
    """
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError("character argument must have matching size")
    if not mu:
        return 1
    rest = Partition(mu[1:])
    return sum(sign * murnaghan_nakayama(inner, rest) for inner, sign in rim_hooks(lam, -mu[0]))


def hook_lengths(lam: Partition) -> Iterator[int]:
    """Hook lengths of all cells of the diagram, row by row."""
    conj = lam.conjugate()
    for i, part in enumerate(lam):
        for j in range(part):
            yield (part - j) + (conj[j] - i) - 1


def symmetric_group_irrep_dim(lam: Partition) -> int:
    """Test oracle: the dimension of the irreducible S_n-representation
    indexed by lam, n! over the product of the hook lengths."""
    denom = 1
    for h in hook_lengths(lam):
        denom *= h
    return factorial(lam.size) // denom


def homogeneous_components(f: SymFunc) -> dict[int, SymFunc]:
    """The homogeneous parts of f by degree, in increasing degree."""
    out: dict[int, dict] = {}
    for lam, c in f.coeffs.items():
        out.setdefault(lam.size, {})[lam] = c
    return {d: SymFunc._of(m, None) for d, m in sorted(out.items())}


def to_p(f: SymFunc) -> dict[Partition, Fraction]:
    """Expansion of f in power-sum monomials, via character orthogonality:
    p_mu has the coefficient sum_lam c_lam chi^lam(mu) / z_mu, which reads
    the character table only in the rows lam held in f."""
    out: dict[Partition, Fraction] = {}
    for d, piece in homogeneous_components(f).items():
        for mu in partitions_of(d):
            total = sum(c * murnaghan_nakayama(lam, mu) for lam, c in piece.coeffs.items())
            if total:
                out[mu] = total / z_lambda(mu)
    return out


def p_route_product(mu: Partition, nu: Partition) -> SymFunc:
    """s_mu * s_nu: the p-expansion of s_nu applied to s_mu."""
    return _p_action(to_p(SymFunc.schur(nu)), Partition(mu), 1)


def p_route_skew(lam: Partition, alpha: Partition) -> SymFunc:
    """s_{lam/alpha}: the p-expansion of s_alpha removes rim hooks from s_lam."""
    lam, alpha = Partition(lam), Partition(alpha)
    if not lam.contains(alpha):
        return SymFunc.zero()
    return _p_action(to_p(SymFunc.schur(alpha)), lam, -1)


def p_route_restrict(lam: Partition, epsilon: int) -> tuple[tuple[Partition, int], ...]:
    """Littlewood's branching coefficients of s_lam, as restrict_coeffs
    returns them: the skew of s_lam by the p-expansion of the sum of s_delta
    over nonempty delta with even rows (epsilon = +1) or even columns."""
    lam = Partition(lam)
    even = even_rows if epsilon == 1 else even_columns
    deltas: dict[Partition, Fraction] = {}
    for m in range(2, lam.size + 1, 2):
        deltas.update(to_p(SymFunc({d: 1 for d in partitions_of(m) if even(d)})))
    skew = _p_action(deltas, lam, -1)
    out = sorted(skew.coeffs.items(), key=lambda kv: (-kv[0].size, kv[0].sort_key()))
    return tuple((mu, int(a)) for mu, a in out)


def _stretch(x: Mapping[Partition, Fraction], k: int) -> dict[Partition, Fraction]:
    """p_k[x]: every part of every mu multiplied by k."""
    return {Partition([k * part for part in mu]): c for mu, c in x.items()}


def _p_series_mul(x: dict, x_trunc: int, y: dict, y_trunc: int) -> tuple[dict, int]:
    """Product of two p-series {t-exponent: {mu: c}}, known to the smaller
    of the two orders, where p_mu * p_nu = p_{mu merged with nu}."""
    trunc = min(x_trunc, y_trunc)
    out: dict[int, dict] = {}
    for a, f in x.items():
        for b, g in y.items():
            if a + b <= trunc:
                acc = out.setdefault(a + b, {})
                for mu, c in f.items():
                    for nu, d in g.items():
                        key = Partition(mu + nu)
                        acc[key] = acc.get(key, 0) + c * d
    nonzero = {k: {mu: c for mu, c in f.items() if c} for k, f in out.items()}
    return {k: f for k, f in nonzero.items() if f}, trunc


def p_route_plethysm(f: SymFunc, g: LambdaSeries) -> LambdaSeries:
    """f composed with g in the power-sum basis: p_k[p_mu] = p_{k mu},
    p_k[t] = t^k, and each p_mu[g] is a product of p-series; every
    coefficient goes back to Schur once, at the end."""
    pg = {a: to_p(c) for a, c in g.terms.items()}
    one = {0: {EMPTY: Fraction(1)}} if g.trunc >= 0 else {}
    total: dict[int, dict] = {}
    trunc = g.trunc
    for mu, c in to_p(f).items():
        term, term_trunc = one, g.trunc
        for k in mu:
            pk = {k * a: _stretch(x, k) for a, x in pg.items() if k * a <= g.trunc}
            term, term_trunc = _p_series_mul(term, term_trunc, pk, g.trunc)
        trunc = min(trunc, term_trunc)
        for e, x in term.items():
            acc = total.setdefault(e, {})
            for nu, a in x.items():
                acc[nu] = acc.get(nu, 0) + a * c
    return LambdaSeries({e: from_p_monomials(x) for e, x in total.items()}, trunc)
