"""Exact stable cohomology of Torelli groups as symplectic or orthogonal classes.

Every export is resolved on first use (PEP 562) from the one table
below, so `import torelli` loads no module and `import torelli.cli`
loads only the modules its commands run.
"""

from importlib import import_module

_LAZY = {
    name: module
    for module, names in {
        "branching": "ClassSeries D_series OrthSympClass class_to_schur dim_irrep "
        "nl_product restrict_coeffs restrict_schur",
        "characters": "ClassFunction decompose murnaghan_nakayama",
        "errors": "ConfigError NegativeMultiplicity Unsupported",
        "graphs": "MarkedGraph parse_graph reduce",
        "invariants": "EpsForm matching_span_rank omega_m perfect_matchings",
        "labels": "LabelMonomial ch_B l_class l_class_image parse_label",
        "partitions": "Partition parse_partition partitions_of z_lambda",
        "pipeline": "CohomologyTable ExtrapolationWarning OracleReport PipelineConfig "
        "compute_cohomology oracle_check stable_range variant_adjust",
        "setparts": "LabelledPartition SignedPartitionVector quotient_series_by_L "
        "sigma_character sigma_characters",
        "symfunc": "LambdaSeries SymFunc change_basis exp_h lr_coefficient omega plethysm",
    }.items()
    for name in names.split()
}
__all__ = sorted(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
