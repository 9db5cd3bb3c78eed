"""End-to-end computation of the stable cohomology tables.

Chains the label-ring character through plethysm, the involution, the
change of basis into symplectic or orthogonal classes, and the scalar
quotient, then applies the requested bundle variant. The point and
closed variants multiply by the scalar Poincare series of the bundle
classes; the closed one then divides by the fibre series
1 + V_1 t^n + t^{2n} (divide_by_fiber), a three-term recurrence whose
only class product is V_1 (x) V_lam, the size-1 rim hooks of lam.

After exp_h every stage runs as one integer pass (`_StagePass`) on
{beta-set mask: int} per degree, with one denominator: omega conjugates
the masks, D only relabels, the quotient and the bundle factor are one
scalar series, and the fibre division slides beads by +1 and -1. Only
the final shapes become Partitions and their multiplicities ints; the
other snapshots are decoded when first read. `divide_by_fiber`,
`variant_adjust` and the oracle's series side run the same kernels.
"""

import sys
import warnings
from collections.abc import Mapping
from fractions import Fraction
from math import factorial
from typing import Callable, Optional

from .branching import ClassSeries, OrthSympClass, _mask_class_series
from .characters import decompose
from .labels import _geometric, ch_B
from .partitions import EMPTY, partition_count, slide_beads, symmetric_group_irrep_dim
from .setparts import quotient_factor, quotient_series_by_L, sigma_characters
from .symfunc import (
    LambdaSeries,
    SymFunc,
    _conjugate_masks,
    _exp_h_masks,
    _mask_series,
    _over_one_denominator,
    _scalar_factors,
    _times_scalar,
    exp_h_weight_bound,
)


class ConfigError(ValueError):
    """Rejected configuration."""


class NegativeMultiplicity(ArithmeticError):
    """A computed class had a coefficient outside the nonnegative integers."""


class Unsupported(ValueError):
    """No trusted-degree formula exists for this dimension."""


class ExtrapolationWarning(UserWarning):
    """The closed variant was requested outside its proven window."""


class LimitOnlyCaveat(UserWarning):
    """Dimension four results hold only after taking the genus limit."""


VARIANTS = ("disc", "point", "closed")
# Snapshot names of CohomologyTable.snapshots, in pipeline order.
STAGES = ("chB", "plethysm", "pre-D", "post-D", "final")


class PipelineConfig:
    """One validated request: immutable, equal by value and hashable."""

    __slots__ = ("two_n", "max_degree", "variant", "g")

    def __init__(self, two_n: int, max_degree: int, variant: str = "disc", g: Optional[int] = None):
        if not isinstance(two_n, int) or two_n < 2 or two_n % 2:
            raise ConfigError(f"dimension must be a positive even integer, got {two_n}")
        if not isinstance(max_degree, int) or max_degree < 0:
            raise ConfigError(f"max degree must be a nonnegative integer, got {max_degree}")
        if variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if g is not None and (not isinstance(g, int) or g < 1):
            raise ConfigError(f"genus must be a positive integer, got {g}")
        if two_n == 4:
            warnings.warn(
                "dimension 4 tables are limit-only; no finite stable range is known",
                LimitOnlyCaveat,
                stacklevel=2,
            )
        for name, value in zip(self.__slots__, (two_n, max_degree, variant, g)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PipelineConfig is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"PipelineConfig is immutable; cannot delete {name}")

    def _fields(self) -> tuple:
        return (self.two_n, self.max_degree, self.variant, self.g)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PipelineConfig):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"PipelineConfig({fields})"

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

    @property
    def max_degree(self) -> int:
        return len(self.entries) - 1


def stable_range(two_n: int, g: int) -> int:
    """Largest degree in which the stable answer is proven at this genus."""
    if not isinstance(two_n, int) or two_n < 2 or two_n % 2:
        raise ConfigError(f"dimension must be a positive even integer, got {two_n}")
    if not isinstance(g, int) or g < 1:
        raise ConfigError(f"genus must be a positive integer, got {g}")
    if two_n == 4:
        raise Unsupported("dimension 4 has no known stable range at finite genus")
    if two_n == 2:
        return (2 * g - 2) // 3
    return (g - 3) // 2


def bundle_scalar_series(n: int, trunc: int) -> LambdaSeries:
    """Poincare series of the full polynomial ring on the Euler class and
    all Pontrjagin classes below the top, as a scalar t-series."""
    out = _geometric(2 * n, trunc)
    for i in range(1, n):
        out = out * _geometric(4 * i, trunc)
    return out


def _outside_this_module() -> int:
    """The warnings stacklevel of the nearest caller outside this module,
    for a warning issued by the function that calls this one."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    return level


def _warn_extrapolation(n: int) -> None:
    if n > 1:
        warnings.warn(
            "closed tables above dimension 2 extrapolate the fibre division",
            ExtrapolationWarning,
            stacklevel=_outside_this_module(),
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
    whose signs are all +1, so it slides beads by +1 and by -1 on the
    whole combination -R_{k-n}. Every mask needs `_fiber_beads` beads.
    """
    out: dict[int, dict[int, int]] = {}
    for k in range(trunc + 1):
        acc = dict(terms.get(k, {}))
        previous = out.get(k - n)
        if previous:
            minus = {mask: -c for mask, c in previous.items()}
            slide_beads(minus, 1, acc)
            slide_beads(minus, -1, acc)
        for mask, c in out.get(k - 2 * n, {}).items():
            acc[mask] = acc.get(mask, 0) - c
        out[k] = {mask: c for mask, c in acc.items() if c}
    return out


def _scale_and_divide(
    terms: dict[int, dict[int, int]], scalar: LambdaSeries, n: int, closed: bool, trunc: int
) -> tuple[dict[int, dict[int, int]], int]:
    """terms times a series of scalars, then divided by the fibre when
    closed; and the denominator of the scalars, which the result gains."""
    factors, scalar_den = _scalar_factors(scalar)
    terms = _times_scalar(terms, factors, trunc)
    if closed:
        terms = _fiber_quotient(terms, n, trunc)
    return terms, scalar_den


def variant_adjust(series: ClassSeries, cfg: PipelineConfig) -> ClassSeries:
    """Apply the bundle variant: the point and closed variants multiply by
    bundle_scalar_series, and the closed one then divides by the fibre."""
    if cfg.variant == "disc":
        return series
    closed = cfg.variant == "closed"
    if closed:
        _warn_extrapolation(cfg.n)
    rows = series.longest_column()
    terms, den = series.encode(_fiber_beads(rows, series.trunc, cfg.n) if closed else rows)
    terms, scalar_den = _scale_and_divide(
        terms, bundle_scalar_series(cfg.n, series.trunc), cfg.n, closed, series.trunc
    )
    return _mask_class_series(series.epsilon, terms, den * scalar_den, series.trunc)


def divide_by_fiber(series: ClassSeries, n: int) -> ClassSeries:
    """Divide a series in nonnegative powers of t by the fibre's
    class-valued Poincare series 1 + V_1 t^n + t^{2n}, by `_fiber_quotient`
    on the coefficients as integer combinations of beta-set masks."""
    terms, den = series.encode(_fiber_beads(series.longest_column(), series.trunc, n))
    return _mask_class_series(series.epsilon, _fiber_quotient(terms, n, series.trunc), den, series.trunc)


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
    then multiplied by one scalar series, quotient_factor times (outside
    the disc variant) bundle_scalar_series, and the closed variant divides
    by the fibre (`_fiber_quotient`). One bead count holds every shape.
    The plethysm, pre-D and final series are kept as {degree: {mask: int}}
    over `den`; nothing becomes a Partition until it is decoded.
    """

    __slots__ = ("plethysm", "pre_d", "den", "final", "final_den")

    def __init__(self, chb: LambdaSeries, n: int, variant: str):
        trunc = chb.trunc
        beads = exp_h_weight_bound(chb)
        if variant == "closed":
            beads = _fiber_beads(beads, trunc, n)
        s_terms, d = _exp_h_masks(chb, beads)
        self.plethysm, self.den = _over_one_denominator(
            dict(enumerate(s_terms)), {m: factorial(m) * d**m for m in range(len(s_terms))}
        )
        if n % 2:
            self.pre_d = {m: _conjugate_masks(c, beads) for m, c in self.plethysm.items()}
        else:
            self.pre_d = self.plethysm
        scalar = quotient_factor(n, trunc)
        if variant != "disc":
            scalar = scalar * bundle_scalar_series(n, trunc)
        self.final, scalar_den = _scale_and_divide(self.pre_d, scalar, n, variant == "closed", trunc)
        self.final_den = self.den * scalar_den


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
# exp_h_weight_bound(ch_B). At dim 2 closed, degree 12 (99,133 shapes) takes
# about 14 s and 110 MiB, degree 13 (177,970) about 32 s and 200 MiB, and
# degree 14 has 313,065.
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


def _ch_B_within_budget(n: int, trunc: int, refuse: Callable[[LambdaSeries], None]) -> LambdaSeries:
    """ch_B(n, trunc), once `refuse` has let it pass.

    A ch_B of a smaller truncation has the same low coefficients, so it
    gives a lower bound on each budget that ch_B sets. `refuse` sees those
    of truncation 8, 16, 32, ... up to trunc / 2 first, so that a request
    far over a budget is refused before the whole ch_B is built.
    """
    t = 8
    while 2 * t <= trunc:
        refuse(ch_B(n, t))
        t *= 2
    chb = ch_B(n, trunc)
    refuse(chb)
    return chb


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

    def refuse(chb: LambdaSeries) -> None:
        # The largest weight exp_h_weight_bound can give at this degree.
        weight = max((f.degree() * trunc // a for a, f in chb.terms.items()), default=0)
        shapes = _shape_count(weight, EXP_H_SHAPE_CAP)
        if shapes > EXP_H_SHAPE_CAP:
            raise ConfigError(
                f"max degree {trunc} allows at least {shapes} Schur shapes of weight "
                f"up to {weight} in the plethystic exponential, over the cap of {EXP_H_SHAPE_CAP}"
            )

    chb = _ch_B_within_budget(n, trunc, refuse)
    if cfg.variant == "closed":
        _warn_extrapolation(n)
    stages = _StagePass(chb, n, cfg.variant)
    final = _mask_class_series(epsilon, stages.final, stages.final_den, trunc)
    snapshots = _Snapshots(
        {"chB": chb, "final": final},
        {
            "plethysm": lambda: _mask_series(stages.plethysm, stages.den, trunc),
            "pre-D": lambda: _mask_series(stages.pre_d, stages.den, trunc),
            "post-D": lambda: _mask_class_series(epsilon, stages.pre_d, stages.den, trunc),
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


# The oracle walks only the set partitions of {1..q} whose block floors
# fit d_max, but the labelled basis and its fixed points still grow about
# fourfold per weight.  Cold CLI runs at dim 6 (shared 2-vCPU host):
# q_max 11 with d_max 3 takes 0.1 s, q_max = d_max = 10 (Bell 115,975)
# 1.2 s and 11 (Bell 678,570) 4.7-5.2 s; this cap refuses 12
# (Bell 4,213,597).
ORACLE_SET_PARTITION_CAP = 10**6

# At dim 2 the basis, not the walk, sets time and memory: its largest
# weight holds 31,816 elements at qmax 8 (4.5 s), 232,653 at qmax 9
# (30 s, 400 MiB) and 1,829,426 at qmax 10.
ORACLE_BASIS_CAP = 3 * 10**5


def _bell(q: int, cap: int) -> int:
    """Number of set partitions of a q-element set, by the Bell triangle,
    or the first Bell number past cap when that comes first, so that a
    huge q costs nothing."""
    row = [1]
    for _ in range(q):
        if row[0] > cap:
            break
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _basis_sizes(chb: LambdaSeries, q_max: int) -> dict[int, int]:
    """Dimension of the weight-q part of exp_h(chb), summed over all its
    t-degrees, for each q <= q_max: the size of the oracle's basis.

    The exponential specialisation ex (p_1 -> x, p_k -> 0 for k >= 2) is a
    ring map that sends s_lam to f^lam x^|lam| / |lam|!, so the dimension
    of the weight-q part of f is q! [x^q] ex(f). It kills p_k[s_lam] for
    k >= 2 unless lam is empty, so ex(exp_h(g)) = exp(ex(L)) with
    ex(L) = sum_a ex(g_a) t^a + sum_{k>=2} sum_a c_0(a) t^{ka} / k, c_0(a)
    being the constant term of g_a. The log-derivative recurrence of
    exp_h gives it degree by degree, on polynomials in x of degree q_max,
    without building exp_h(chb) itself. Omega keeps every dimension.
    """
    trunc = chb.trunc
    # dlog[j][i]: the coefficient of x^i in j ex(L)_j.
    dlog = [[Fraction(0)] * (q_max + 1) for _ in range(trunc + 1)]
    for a, f in chb.terms.items():
        for lam, c in f.coeffs.items():
            if lam.size <= q_max:
                dlog[a][lam.size] += a * c * symmetric_group_irrep_dim(lam) / factorial(lam.size)
        for k in range(2, trunc // a + 1):
            dlog[k * a][0] += a * f.coeff(EMPTY)
    exp = [[Fraction(1)] + [Fraction(0)] * q_max]
    for m in range(1, trunc + 1):
        acc = [Fraction(0)] * (q_max + 1)
        for j in range(1, m + 1):
            for i, u in enumerate(dlog[j]):
                if u:
                    for i2, v in enumerate(exp[m - j][: q_max + 1 - i]):
                        acc[i + i2] += u * v
        exp.append([c / m for c in acc])
    return {q: int(factorial(q) * sum(e[q] for e in exp)) for q in range(q_max + 1)}


def oracle_check(two_n: int, d_max: int, q_max: int) -> OracleReport:
    """Recompute the series one symmetric-group weight at a time.

    The enumerative route lists the labelled-partition basis of each
    weight once, takes the fixed-point character of the permutation
    action twisted by the orientation sign in every degree, and
    decomposes it by orthogonality. It must agree with the
    weight-graded slice of the plethysm route, the disc `_StagePass`. A
    q_max whose Bell number exceeds ORACLE_SET_PARTITION_CAP is rejected
    before any work, and a weight whose basis exceeds ORACLE_BASIS_CAP
    before exp_h and any enumeration; `_basis_sizes` counts each weight
    from ch_B alone, first from the small ch_B of `_ch_B_within_budget`.
    """
    if two_n < 2 or two_n % 2:
        raise ConfigError(f"dimension must be a positive even integer, got {two_n}")
    if d_max < 0 or q_max < 0:
        raise ConfigError("bounds must be nonnegative")
    bell = _bell(q_max, ORACLE_SET_PARTITION_CAP)
    if bell > ORACLE_SET_PARTITION_CAP:
        raise ConfigError(
            f"qmax {q_max} has at least {bell} set partitions, over the "
            f"oracle cap of {ORACLE_SET_PARTITION_CAP}"
        )
    n = two_n // 2

    def refuse(chb: LambdaSeries) -> None:
        q, size = max(_basis_sizes(chb, q_max).items(), key=lambda qs: qs[1])
        if size > ORACLE_BASIS_CAP:
            at_least = "at least " if chb.trunc < d_max else ""
            raise ConfigError(
                f"weight {q} has {at_least}{size} basis elements, over the oracle cap of "
                f"{ORACLE_BASIS_CAP}"
            )

    stages = _StagePass(_ch_B_within_budget(n, d_max, refuse), n, "disc")
    rhs_series = _mask_series(stages.final, stages.final_den, d_max)
    cells = []
    for q in range(q_max + 1):
        terms = {}
        for d, chi in sigma_characters(q, n, d_max, "Pprime").items():
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
