"""End-to-end computation of the stable cohomology tables.

Chains the label-ring character through plethysm, the involution, the
change of basis into symplectic or orthogonal classes, and the scalar
quotient, then applies the requested bundle variant. The point and
closed variants multiply by the Poincare series of the bundle classes;
the closed one then divides by the fibre series
1 + V_1 t^n + t^{2n} (divide_by_fiber), a three-term recurrence whose
only class product is V_1 (x) V_lam, the size-1 rim hooks of lam.

After exp_h every stage runs as one integer pass (`_StagePass`) on
{beta-set mask: int} per degree, with one denominator: omega conjugates
the masks, D only relabels, the quotient and the bundle factor are
integer t-series (ints indexed by degree) whose product multiplies every
degree, and the fibre division adds and removes one box
(`partitions.ribbon_strips` with r = 1 and k = +1, -1). Only the final
shapes become Partitions and their multiplicities ints; the other
snapshots are decoded when first read. `divide_by_fiber`,
`variant_adjust` and the oracle's series side run the same kernels.
"""

import warnings
from collections.abc import Mapping, Sequence
from math import comb, factorial
from typing import Optional

from .branching import ClassSeries, OrthSympClass
from .characters import decompose
from .errors import ConfigError, NegativeMultiplicity, Unsupported
from .labels import ch_B, monomial_counts
from .partitions import partition_count, ribbon_strips
from .setparts import _block_floor, quotient_factor, quotient_series_by_L, sigma_characters
from .symfunc import (
    LambdaSeries,
    SymFunc,
    _conjugate_masks,
    _exp_h_masks,
    _over_one_denominator,
    _times_scalar,
    exp_h_weight_bound,
)


class ExtrapolationWarning(UserWarning):
    """The closed variant was requested outside its proven window."""


class LimitOnlyCaveat(UserWarning):
    """Dimension four results hold only after taking the genus limit."""


VARIANTS = ("disc", "point", "closed")
# Snapshot names of CohomologyTable.snapshots, in pipeline order.
STAGES = ("chB", "plethysm", "pre-D", "post-D", "final")


def _check_dimension(two_n) -> None:
    if type(two_n) is not int or two_n < 2 or two_n % 2:
        raise ConfigError(f"dimension must be a positive even integer, got {two_n}")


def _check_genus(g) -> None:
    if type(g) is not int or g < 1:
        raise ConfigError(f"genus must be a positive integer, got {g}")


class PipelineConfig:
    """One validated request: dimension, degree, variant and optional genus."""

    __slots__ = ("two_n", "max_degree", "variant", "g")

    def __init__(self, two_n: int, max_degree: int, variant: str = "disc", g: Optional[int] = None):
        _check_dimension(two_n)
        if type(max_degree) is not int or max_degree < 0:
            raise ConfigError(f"max degree must be a nonnegative integer, got {max_degree}")
        if variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if g is not None:
            _check_genus(g)
        if two_n == 4:
            warnings.warn(
                "dimension 4 tables are limit-only; no finite stable range is known",
                LimitOnlyCaveat,
                stacklevel=2,
            )
        self.two_n, self.max_degree, self.variant, self.g = two_n, max_degree, variant, g

    @property
    def n(self) -> int:
        return self.two_n // 2

    @property
    def epsilon(self) -> int:
        return -1 if self.n % 2 else 1


class CohomologyTable:
    """The decomposed degrees 0..max_degree, with the stage snapshots."""

    __slots__ = ("two_n", "variant", "epsilon", "entries", "trusted_up_to", "snapshots", "footnotes")

    def __init__(
        self,
        two_n: int,
        variant: str,
        epsilon: int,
        entries: tuple[OrthSympClass, ...],
        trusted_up_to: Optional[int],
        snapshots: dict,
        footnotes: tuple[str, ...] = (),
    ):
        self.two_n = two_n
        self.variant = variant
        self.epsilon = epsilon
        self.entries = entries
        self.trusted_up_to = trusted_up_to
        self.snapshots = snapshots
        self.footnotes = footnotes


def stable_range(two_n: int, g: int) -> int:
    """Largest degree in which the stable answer is proven at this genus."""
    _check_dimension(two_n)
    _check_genus(g)
    if two_n == 4:
        raise Unsupported("dimension 4 has no known stable range at finite genus")
    if two_n == 2:
        return (2 * g - 2) // 3
    return (g - 3) // 2


def bundle_scalar_series(n: int, trunc: int) -> list[int]:
    """Poincare series of the full polynomial ring on the Euler class and
    all Pontrjagin classes below the top, as its integer coefficients in
    degrees 0..trunc."""
    return monomial_counts([2 * n] + [4 * i for i in range(1, n)], trunc)


def _warn_extrapolation(n: int) -> None:
    """Warn at the caller of compute_cohomology or variant_adjust."""
    if n > 1:
        warnings.warn(
            "closed tables above dimension 2 extrapolate the fibre division",
            ExtrapolationWarning,
            stacklevel=3,
        )


def _fiber_beads(rows: int, trunc: int, n: int) -> int:
    """Beads enough for the fibre division of shapes of at most `rows`
    rows up to degree trunc: each V_1 product adds at most one row, and
    it acts once per n degrees."""
    return rows + trunc // n


def _fiber_quotient(terms: dict[int, dict[int, int]], n: int, trunc: int) -> dict[int, dict[int, int]]:
    """The fibre division on integer combinations of beta-set masks.

    The quotient R satisfies R_k = A_k - V_1 (x) R_{k-n} - R_{k-2n} in
    degrees 0..trunc. The stable product V_1 (x) V_lam adds one box to lam
    plus removes one box (Koike-Terada 1987): the rim hooks of size 1,
    whose signs are all +1, so it is `ribbon_strips` with r = 1 and
    k = +1 and -1 on the whole combination R_{k-n}. Every mask needs
    `_fiber_beads` beads.
    """
    out: dict[int, dict[int, int]] = {}
    for k in range(trunc + 1):
        acc = dict(terms.get(k, {}))
        previous = out.get(k - n)
        if previous:
            for step in (1, -1):
                for mask, c in ribbon_strips(previous, step, 1)[1].items():
                    acc[mask] = acc.get(mask, 0) - c
        for mask, c in out.get(k - 2 * n, {}).items():
            acc[mask] = acc.get(mask, 0) - c
        out[k] = {mask: c for mask, c in acc.items() if c}
    return out


def variant_adjust(series: ClassSeries, cfg: PipelineConfig) -> ClassSeries:
    """Apply the bundle variant: the point and closed variants multiply by
    bundle_scalar_series, and the closed one then divides by the fibre."""
    if cfg.variant == "disc":
        return series
    series = series.mul_scalar_series(bundle_scalar_series(cfg.n, series.trunc))
    if cfg.variant == "point":
        return series
    _warn_extrapolation(cfg.n)
    return divide_by_fiber(series, cfg.n)


def divide_by_fiber(series: ClassSeries, n: int) -> ClassSeries:
    """Divide a series by the fibre's class-valued Poincare series
    1 + V_1 t^n + t^{2n}, by `_fiber_quotient` on the coefficients as
    integer combinations of beta-set masks."""
    terms, den = series.encode(_fiber_beads(series.longest_column(), series.trunc, n))
    terms = _fiber_quotient(terms, n, series.trunc)
    return series._from_masks(terms, den, series.trunc, series.epsilon)


def _pass_scalar(n: int, trunc: int, variant: str) -> Sequence[int]:
    """The integer t-series that multiplies every degree of a `_StagePass`:
    quotient_factor, times bundle_scalar_series outside the disc variant."""
    scalar = quotient_factor(n, trunc)
    if variant == "disc":
        return scalar
    bundle = bundle_scalar_series(n, trunc)
    return [sum(q * b for q, b in zip(scalar, bundle[d::-1])) for d in range(trunc + 1)]


def _validate_entries(series: ClassSeries, max_degree: int) -> tuple[OrthSympClass, ...]:
    entries = []
    for d in range(max_degree + 1):
        cls = series.coefficient(d)
        for lam, c in cls.coeffs.items():
            if c.denominator != 1:
                raise NegativeMultiplicity(f"multiplicity of V_{lam} in degree {d} is {c}, not an integer")
            if c < 0:
                raise NegativeMultiplicity(f"multiplicity of V_{lam} in degree {d} is {c}")
        entries.append(cls)
    return tuple(entries)


class _StagePass:
    """The stages after ch_B as one integer pass on beta-set masks.

    `exp_h`'s integer core gives the S_m, brought to one denominator. For
    odd n, omega conjugates the masks; D only relabels. Every degree is
    then multiplied by one integer t-series (`_pass_scalar`), which leaves
    `den` as it is, and the closed variant divides by the fibre
    (`_fiber_quotient`). One bead count holds every shape. The plethysm,
    pre-D and final series are kept as {degree: {mask: int}} over `den`;
    nothing becomes a Partition until it is decoded. With max_weight (the
    disc variant only), exp_h keeps only the shapes of weight up to it:
    the later disc stages keep the weight of each shape.
    """

    __slots__ = ("plethysm", "pre_d", "den", "final")

    def __init__(self, chb: LambdaSeries, n: int, variant: str, max_weight: Optional[int] = None):
        trunc = chb.trunc
        beads = exp_h_weight_bound(chb)
        if variant == "closed":
            beads = _fiber_beads(beads, trunc, n)
        if max_weight is not None:
            beads = min(beads, max_weight)
        s_terms, d = _exp_h_masks(chb, beads, max_weight)
        self.plethysm, self.den = _over_one_denominator(
            dict(enumerate(s_terms)), {m: factorial(m) * d**m for m in range(len(s_terms))}
        )
        if n % 2:
            self.pre_d = {m: _conjugate_masks(c, beads) for m, c in self.plethysm.items()}
        else:
            self.pre_d = self.plethysm
        self.final = _times_scalar(self.pre_d, _pass_scalar(n, trunc, variant), trunc)
        if variant == "closed":
            self.final = _fiber_quotient(self.final, n, trunc)


class _Snapshots(Mapping):
    """The stage series of one table by name; each is decoded from the
    pass the first time it is read."""

    def __init__(self, ready: dict, decoders: dict):
        self._ready = ready
        self._decoders = decoders

    def __getitem__(self, stage: str):
        if stage not in self._ready:
            self._ready[stage] = self._decoders.pop(stage)()
        return self._ready[stage]

    def __iter__(self):
        return (stage for stage in STAGES if stage in self._ready or stage in self._decoders)

    def __len__(self) -> int:
        return len(self._ready) + len(self._decoders)


# exp_h holds at most one coefficient per partition of weight up to
# exp_h_weight_bound(ch_B). At dim 2 closed, cold CLI runs on a shared
# 2-vCPU host: degree 12 (99,133 shapes) takes 4.6-6.3 s and 54 MiB,
# degree 13 (177,970) 9.3-12.2 s and 87 MiB, and degree 14 has 313,065.
EXP_H_SHAPE_CAP = 2 * 10**5


def _shape_count(weight: int, cap: int) -> int:
    """Number of partitions of weight at most `weight`, or the first
    running total past cap when that comes first."""
    total = 0
    for w in range(weight + 1):
        total += partition_count(w)
        if total > cap:
            break
    return total


def _refuse_shapes(chb: LambdaSeries, trunc: int) -> None:
    """Refuse a request up to degree trunc whose plethystic exponential
    could hold more than EXP_H_SHAPE_CAP shapes, from a ch_B of at most
    that truncation: the largest weight exp_h_weight_bound can give at
    trunc, from the coefficients chb has."""
    weight = exp_h_weight_bound(chb, trunc)
    shapes = _shape_count(weight, EXP_H_SHAPE_CAP)
    if shapes > EXP_H_SHAPE_CAP:
        raise ConfigError(
            f"max degree {trunc} allows at least {shapes} Schur shapes of weight "
            f"up to {weight} in the plethystic exponential, over the cap of {EXP_H_SHAPE_CAP}"
        )


def _ch_B_within_budget(n: int, trunc: int) -> LambdaSeries:
    """ch_B(n, trunc), once `_refuse_shapes` has let it pass.

    The check reads ch_B of truncation min(trunc, 2n) only, which has the
    low coefficients of the whole ch_B, and the weight it finds is the
    whole one: the largest deg * trunc // a falls at the lowest exponent
    a of h_1, h_2 or h_3; each of those is at most 2n (a label e on a
    part of 1 or 2 elements, an unlabelled part of 3 at t^n); and h_q
    first comes at t^{n(q - 2)}, where q / (n(q - 2)) falls for q >= 3.
    So a request far over the cap is refused before ch_B is built.
    """
    head = ch_B(n, min(trunc, 2 * n))
    _refuse_shapes(head, trunc)
    return head if trunc <= 2 * n else ch_B(n, trunc)


def compute_cohomology(cfg: PipelineConfig) -> CohomologyTable:
    """Decompose each cohomology degree into irreducible classes.

    A request whose plethystic exponential could hold more than
    EXP_H_SHAPE_CAP shapes, counted from ch_B alone, is rejected before
    exp_h runs. The stages after ch_B run as one `_StagePass`; only the
    final series is decoded into classes here, and the others when a
    snapshot is read.
    """
    n = cfg.n
    epsilon = cfg.epsilon
    trunc = cfg.max_degree
    chb = _ch_B_within_budget(n, trunc)
    if cfg.variant == "closed":
        _warn_extrapolation(n)
    stages = _StagePass(chb, n, cfg.variant)
    final = ClassSeries._from_masks(stages.final, stages.den, trunc, epsilon)
    snapshots = _Snapshots(
        {"chB": chb, "final": final},
        {
            "plethysm": lambda: LambdaSeries._from_masks(stages.plethysm, stages.den, trunc),
            "pre-D": lambda: LambdaSeries._from_masks(stages.pre_d, stages.den, trunc),
            "post-D": lambda: ClassSeries._from_masks(stages.pre_d, stages.den, trunc, epsilon),
        },
    )
    entries = _validate_entries(final, cfg.max_degree)
    footnotes = []
    if cfg.g is None:
        trusted: Optional[int] = cfg.max_degree
    else:
        try:
            trusted = min(cfg.max_degree, stable_range(cfg.two_n, cfg.g))
        except Unsupported:
            trusted = None
            footnotes.append("no finite-genus trust window is known in dimension 4")
    if cfg.two_n == 2:
        footnotes.append(
            "degrees 2 and above are lower bounds unless the groups are finite dimensional"
        )
    if cfg.variant == "closed" and n > 1:
        footnotes.append("closed variant extrapolated beyond its proven window")
    return CohomologyTable(
        two_n=cfg.two_n,
        variant=cfg.variant,
        epsilon=epsilon,
        entries=entries,
        trusted_up_to=trusted,
        snapshots=snapshots,
        footnotes=tuple(footnotes),
    )


class OracleCell:
    """One (weight, degree) cell: the enumerated and the series side."""

    __slots__ = ("q", "d", "lhs", "rhs")

    def __init__(self, q: int, d: int, lhs: SymFunc, rhs: SymFunc):
        self.q = q
        self.d = d
        self.lhs = lhs
        self.rhs = rhs

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class OracleReport:
    """Every cell of one oracle run."""

    __slots__ = ("two_n", "q_max", "d_max", "cells")

    def __init__(self, two_n: int, q_max: int, d_max: int, cells: tuple[OracleCell, ...]):
        self.two_n = two_n
        self.q_max = q_max
        self.d_max = d_max
        self.cells = cells

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def failures(self) -> list[OracleCell]:
        return [cell for cell in self.cells if not cell.ok]


# Each class of weight q walks to the kept set partitions it fixes, some
# of the kept(q), so p(q) (1 + kept(q)) bounds the walks of sigma_characters.
# Cold CLI runs on a shared 2-vCPU host, five each, all under 20 MiB:
# dim 2 at qmax = dmax = 9 (bound 741,435) takes 0.2-0.3 s, 10 (5.6
# million) 0.8-1.2 s and 11 (43.6 million) 3.0-3.8 s; dim 6 at 12 (9.2
# million) 1.3-1.9 s. This cap refuses dim 6 at 13 (57.3 million), and
# is not recounted for the tighter walks.
ORACLE_WALK_CAP = 5 * 10**7


def _walk_size(n: int, d_max: int, q_max: int, cap: int) -> int:
    """The sum over q <= q_max of p(q) (1 + kept(q)), kept(q) being the
    set partitions of q elements whose block floors fit d_max; or the
    first running total past cap when that comes first, so that a huge
    q_max costs nothing.  It bounds the cycle walks of sigma_characters:
    the p(q) classes each walk to a subset of the kept(q) set partitions.

    kept(q) comes from the counts by floor sum: the block of the last
    element takes s - 1 of the other q - 1 elements and its floor.
    """
    floor = [0]
    by_floor: list[dict[int, int]] = [{0: 1}]
    total = 0
    for q in range(q_max + 1):
        if q:
            floor.append(_block_floor(n, q))
            counts: dict[int, int] = {}
            for size in range(1, q + 1):
                ways = comb(q - 1, size - 1)
                for f, c in by_floor[q - size].items():
                    f += floor[size]
                    if f <= d_max:
                        counts[f] = counts.get(f, 0) + ways * c
            by_floor.append(counts)
        total += partition_count(q) * (1 + sum(by_floor[q].values()))
        if total > cap:
            break
    return total


def oracle_check(two_n: int, d_max: int, q_max: int) -> OracleReport:
    """Recompute the series one symmetric-group weight at a time.

    The enumerative route takes, for each weight, the fixed-point
    character of the permutation action on the labelled-partition basis,
    twisted by the orientation sign, in every degree at once
    (`sigma_characters`, which counts labels on the set partitions each
    class fixes and builds no labelled partition), and decomposes it by
    orthogonality. It must agree with the weight-graded slice of the
    plethysm route, the disc `_StagePass`. A request whose walk bound
    (`_walk_size`) passes ORACLE_WALK_CAP is rejected before any walk,
    ch_B or exp_h runs, and one whose plethystic exponential could hold
    more than EXP_H_SHAPE_CAP shapes before exp_h, as in
    `compute_cohomology`.
    """
    _check_dimension(two_n)
    for name, bound in (("d_max", d_max), ("q_max", q_max)):
        if type(bound) is not int:
            raise ConfigError(f"{name} must be an integer, got {bound!r}")
    if d_max < 0 or q_max < 0:
        raise ConfigError("bounds must be nonnegative")
    n = two_n // 2
    walks = _walk_size(n, d_max, q_max, ORACLE_WALK_CAP)
    if walks > ORACLE_WALK_CAP:
        raise ConfigError(
            f"qmax {q_max} at dmax {d_max} has a walk bound, p(q)(1 + kept(q)) summed over q, "
            f"of at least {walks}, over the oracle cap of {ORACLE_WALK_CAP}"
        )
    stages = _StagePass(_ch_B_within_budget(n, d_max), n, "disc", q_max)
    rhs_series = LambdaSeries._from_masks(stages.final, stages.den, d_max)
    cells = []
    for q in range(q_max + 1):
        terms = {}
        for d, chi in sigma_characters(q, n, d_max).items():
            f = SymFunc(decompose(chi))
            if not f.is_zero():
                terms[d] = f
        lhs_series = quotient_series_by_L(LambdaSeries(terms, d_max), n)
        for d in range(d_max + 1):
            cells.append(
                OracleCell(
                    q=q,
                    d=d,
                    lhs=lhs_series.coefficient(d),
                    rhs=rhs_series.coefficient(d).homogeneous_part(q),
                )
            )
    return OracleReport(two_n=two_n, q_max=q_max, d_max=d_max, cells=tuple(cells))
