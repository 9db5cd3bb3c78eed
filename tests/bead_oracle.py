"""Test oracle for the bead kernel: an independent route, not used by the package.

`torelli.partitions.ribbon_strips` is the package's one routine that
moves beads: it adds or removes horizontal strips of ribbons, and every
Schur product, skew, branching rule, rim hook and fibre division walks
it. This module keeps the routes it replaced, to be checked against:

- `slide_beads`, which slides one bead by a rim hook of size |k| in
  either direction;
- `_horner` and `_p_action`, the power-sum Horner pass built on it,
  which multiply (or, run backwards, skew) a Schur function by the
  p-expansion of another;
- `p_route_product`, `p_route_skew` and `p_route_restrict`, the Schur
  products, skews and Littlewood branching coefficients as they ran on
  the p-expansions of `SymFunc.to_p` and the character table.

It also holds `partitions_upto`, the shapes of every size up to a bound,
which the differential tests walk.  Its name keeps pytest from collecting it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

from torelli.partitions import Partition, beta_mask, even_columns, even_rows, partitions_of
from torelli.symfunc import SymFunc, _mask_symfunc


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
    return _mask_symfunc(_horner(scaled, {beta_mask(start, beads): 1}, direction, {}), den)


def p_route_product(mu: Partition, nu: Partition) -> SymFunc:
    """s_mu * s_nu: the p-expansion of s_nu applied to s_mu."""
    return _p_action(SymFunc.schur(nu).to_p(), Partition(mu), 1)


def p_route_skew(lam: Partition, alpha: Partition) -> SymFunc:
    """s_{lam/alpha}: the p-expansion of s_alpha removes rim hooks from s_lam."""
    lam, alpha = Partition(lam), Partition(alpha)
    if not lam.contains(alpha):
        return SymFunc.zero()
    return _p_action(SymFunc.schur(alpha).to_p(), lam, -1)


def p_route_restrict(lam: Partition, epsilon: int) -> tuple[tuple[Partition, int], ...]:
    """Littlewood's branching coefficients of s_lam, as restrict_coeffs
    returns them: the skew of s_lam by the p-expansion of the sum of s_delta
    over nonempty delta with even rows (epsilon = +1) or even columns."""
    lam = Partition(lam)
    even = even_rows if epsilon == 1 else even_columns
    deltas: dict[Partition, Fraction] = {}
    for m in range(2, lam.size + 1, 2):
        deltas.update(SymFunc({d: 1 for d in partitions_of(m) if even(d)}).to_p())
    skew = _p_action(deltas, lam, -1)
    out = sorted(skew.coeffs.items(), key=lambda kv: (-kv[0].size, kv[0].sort_key()))
    return tuple((mu, int(a)) for mu, a in out)
