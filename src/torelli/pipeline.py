"""End-to-end computation of the stable cohomology tables.

Chains the label-ring character through plethysm, the involution, the
change of basis into symplectic or orthogonal classes, and the scalar
quotient, then applies the requested bundle variant. The point and
closed variants multiply by the scalar Poincare series of the bundle
classes; the closed one then divides by the fibre series
1 + V_1 t^n + t^{2n} (divide_by_fiber), a three-term recurrence whose
only class product is V_1 (x) V_lam, the size-1 rim hooks of lam.
"""

import sys
import warnings
from dataclasses import dataclass, field
from typing import Optional

from .branching import ClassSeries, D_series, OrthSympClass
from .characters import decompose
from .labels import _geometric, ch_B
from .partitions import rim_hooks, symmetric_group_irrep_dim
from .setparts import quotient_series_by_L, sigma_characters
from .symfunc import LambdaSeries, SymFunc, exp_h, omega


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


@dataclass(frozen=True)
class PipelineConfig:
    two_n: int
    max_degree: int
    variant: str = "disc"
    g: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.two_n, int) or self.two_n < 2 or self.two_n % 2:
            raise ConfigError(f"dimension must be a positive even integer, got {self.two_n}")
        if not isinstance(self.max_degree, int) or self.max_degree < 0:
            raise ConfigError(f"max degree must be a nonnegative integer, got {self.max_degree}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.g is not None and (not isinstance(self.g, int) or self.g < 1):
            raise ConfigError(f"genus must be a positive integer, got {self.g}")
        if self.two_n == 4:
            warnings.warn(
                "dimension 4 tables are limit-only; no finite stable range is known",
                LimitOnlyCaveat,
                stacklevel=3,  # past the dataclass-generated __init__
            )

    @property
    def n(self) -> int:
        return self.two_n // 2

    @property
    def epsilon(self) -> int:
        return -1 if self.n % 2 else 1


@dataclass
class CohomologyTable:
    two_n: int
    variant: str
    epsilon: int
    entries: tuple[OrthSympClass, ...]
    trusted_up_to: Optional[int]
    snapshots: dict = field(repr=False)
    footnotes: tuple[str, ...] = ()

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


def variant_adjust(series: ClassSeries, cfg: PipelineConfig) -> ClassSeries:
    if cfg.variant == "disc":
        return series
    adjusted = series.mul_scalar_series(bundle_scalar_series(cfg.n, series.trunc))
    if cfg.variant == "point":
        return adjusted
    if cfg.n > 1:
        warnings.warn(
            "closed tables above dimension 2 extrapolate the fibre division",
            ExtrapolationWarning,
            stacklevel=_outside_this_module(),
        )
    return divide_by_fiber(adjusted, cfg.n)


def divide_by_fiber(series: ClassSeries, n: int) -> ClassSeries:
    """Divide a series in nonnegative powers of t by the fibre's
    class-valued Poincare series 1 + V_1 t^n + t^{2n}.

    The quotient R satisfies R_k = A_k - V_1 (x) R_{k-n} - R_{k-2n}. The
    stable product V_1 (x) V_lam adds one box to lam plus removes one box
    (Koike-Terada 1987): the rim hooks of size 1, whose signs are all +1.
    """
    zero = OrthSympClass.zero(series.epsilon)
    out: dict[int, OrthSympClass] = {}
    for k in range(series.trunc + 1):
        coeffs = dict(series.coefficient(k).coeffs)
        for lam, c in out.get(k - n, zero).coeffs.items():
            for mu, _ in rim_hooks(lam, 1) + rim_hooks(lam, -1):
                coeffs[mu] = coeffs.get(mu, 0) - c
        for lam, c in out.get(k - 2 * n, zero).coeffs.items():
            coeffs[lam] = coeffs.get(lam, 0) - c
        out[k] = OrthSympClass(series.epsilon, coeffs)
    return ClassSeries(series.epsilon, out, series.trunc)


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


def _pre_d_snapshots(n: int, max_degree: int) -> dict[str, LambdaSeries]:
    """The chain shared by the table and the oracle: ch_B, its plethystic
    exponential, and that series after omega when n is odd."""
    chb = ch_B(n, max_degree)
    pleth = exp_h(chb)
    pre_d = pleth.map_coefficients(omega) if n % 2 else pleth
    return {"chB": chb, "plethysm": pleth, "pre-D": pre_d}


def compute_cohomology(cfg: PipelineConfig) -> CohomologyTable:
    """Decompose each cohomology degree into irreducible classes."""
    n = cfg.n
    epsilon = cfg.epsilon
    snapshots = _pre_d_snapshots(n, cfg.max_degree)
    snapshots["post-D"] = D_series(snapshots["pre-D"], epsilon)
    quotiented = quotient_series_by_L(snapshots["post-D"], n)
    snapshots["final"] = final = variant_adjust(quotiented, cfg)
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


@dataclass(frozen=True)
class OracleCell:
    q: int
    d: int
    lhs: SymFunc
    rhs: SymFunc

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class OracleReport:
    two_n: int
    q_max: int
    d_max: int
    cells: tuple[OracleCell, ...]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def failures(self) -> list[OracleCell]:
        return [cell for cell in self.cells if not cell.ok]


# The oracle walks all Bell(q) set partitions of {1..q} for each weight q.
# At dim 6 with d_max = q_max, q_max = 10 (Bell 115,975) takes about 2 s,
# 11 (Bell 678,570) about 9 s and 12 (Bell 4,213,597) about 50 s.
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


def oracle_check(two_n: int, d_max: int, q_max: int) -> OracleReport:
    """Recompute the series one symmetric-group weight at a time.

    The enumerative route lists the labelled-partition basis of each
    weight once, takes the fixed-point character of the permutation
    action twisted by the orientation sign in every degree, and
    decomposes it by orthogonality. It must agree with the
    weight-graded slice of the plethysm route. A q_max whose Bell number
    exceeds ORACLE_SET_PARTITION_CAP is rejected before any work, and a
    weight whose basis exceeds ORACLE_BASIS_CAP before any enumeration.
    The basis size of weight q is the dimension sum_lam c_lam f^lam of
    the weight-q slice of the pre-D series, summed over the degrees.
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
    pre_d = _pre_d_snapshots(n, d_max)["pre-D"]
    basis = {q: 0 for q in range(q_max + 1)}
    for f in pre_d.terms.values():
        for lam, c in f.coeffs.items():
            if lam.size <= q_max:
                basis[lam.size] += int(c) * symmetric_group_irrep_dim(lam)
    q, size = max(basis.items(), key=lambda qs: qs[1])
    if size > ORACLE_BASIS_CAP:
        raise ConfigError(
            f"weight {q} has {size} basis elements, over the oracle cap of {ORACLE_BASIS_CAP}"
        )
    rhs_series = quotient_series_by_L(pre_d, n)
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
