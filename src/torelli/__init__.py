"""Exact stable cohomology of Torelli groups as symplectic or orthogonal classes.

The exports of `graphs` and `invariants` are resolved on first use
(PEP 562), so that `import torelli.cli` loads neither.
"""

from importlib import import_module

from .branching import (
    ClassSeries,
    D,
    D_series,
    OrthSympClass,
    class_to_schur,
    dim_irrep,
    nl_coefficient,
    nl_product,
    render_class,
    render_class_series,
    restrict_coeffs,
    restrict_schur,
)
from .characters import (
    ClassFunction,
    ch_q,
    decompose,
    irreducible_character,
    murnaghan_nakayama,
)
from .labels import (
    LabelMonomial,
    ch_B,
    l_class,
    l_class_image,
    parse_label,
    poincare_series,
)
from .partitions import (
    Partition,
    parse_partition,
    partitions_of,
    symmetric_group_irrep_dim,
    z_lambda,
)
from .pipeline import (
    CohomologyTable,
    ConfigError,
    ExtrapolationWarning,
    NegativeMultiplicity,
    OracleReport,
    PipelineConfig,
    Unsupported,
    compute_cohomology,
    oracle_check,
    stable_range,
    variant_adjust,
)
from .setparts import (
    BrauerMorphism,
    LabelledPartition,
    SignedPartitionVector,
    apply_morphism,
    day_product,
    enumerate_basis,
    quotient_series_by_L,
    sigma_character,
    sigma_characters,
)
from .symfunc import (
    LambdaSeries,
    SymFunc,
    change_basis,
    exp_h,
    lr_coefficient,
    omega,
    plethysm,
    render_series,
)

__all__ = [
    "BrauerMorphism",
    "ClassFunction",
    "ClassSeries",
    "CohomologyTable",
    "ConfigError",
    "D",
    "D_series",
    "DenseTensor",
    "EpsForm",
    "ExtrapolationWarning",
    "LabelMonomial",
    "LabelledPartition",
    "LambdaSeries",
    "MarkedGraph",
    "NegativeMultiplicity",
    "OracleReport",
    "OrthSympClass",
    "Partition",
    "PipelineConfig",
    "SignedPartitionVector",
    "SymFunc",
    "Unsupported",
    "apply_morphism",
    "ch_B",
    "ch_q",
    "change_basis",
    "class_to_schur",
    "compute_cohomology",
    "corolla",
    "day_product",
    "decompose",
    "dim_irrep",
    "enumerate_basis",
    "exp_h",
    "harmonic_multiplicity",
    "harmonic_projection",
    "irreducible_character",
    "l_class",
    "l_class_image",
    "lr_coefficient",
    "matching_span_rank",
    "murnaghan_nakayama",
    "nl_coefficient",
    "nl_product",
    "omega",
    "omega_m",
    "oracle_check",
    "parse_graph",
    "parse_label",
    "parse_partition",
    "partitions_of",
    "perfect_matchings",
    "plethysm",
    "poincare_series",
    "quotient_series_by_L",
    "reduce",
    "render_class",
    "render_class_series",
    "render_series",
    "restrict_coeffs",
    "restrict_schur",
    "sigma_character",
    "sigma_characters",
    "stable_range",
    "symmetric_group_irrep_dim",
    "variant_adjust",
    "z_lambda",
]

_LAZY = {
    "MarkedGraph": "graphs",
    "corolla": "graphs",
    "parse_graph": "graphs",
    "reduce": "graphs",
    "DenseTensor": "invariants",
    "EpsForm": "invariants",
    "harmonic_multiplicity": "invariants",
    "harmonic_projection": "invariants",
    "matching_span_rank": "invariants",
    "omega_m": "invariants",
    "perfect_matchings": "invariants",
}


def __getattr__(name):
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
