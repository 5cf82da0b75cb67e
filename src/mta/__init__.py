"""Exact-arithmetic tools for mode-transition algebras.

The package is organized in layers: partition combinatorics, a free-boson
normal-ordering engine, structure-constant corner (Peirce) algebras with
zig-zag and Morita machinery, block descriptors for higher degree-d
algebras, and even-lattice graded module dimensions.  Everything runs over
the rationals with exact scalars: a Python int when integral, else a
fractions.Fraction (see exact.scalar); there is no floating point anywhere.

The names below are exported lazily (PEP 562): ``import mta`` loads no
layer, and the first use of a name, as ``mta.X`` or ``from mta import X``,
imports the layer that defines it.  Each ``mta`` command runs in a fresh
interpreter, so it pays only for the layers it uses.
"""

__version__ = "0.1.0"

# layer module -> the names the package exports from it
_EXPORTS = {
    "exact": ("frac_str", "parse_frac"),
    "heisenberg": (
        "IdentityReport",
        "Mode",
        "ModeElement",
        "NormalWord",
        "RankCertificate",
        "ZhuPolynomial",
        "commutator",
        "corner_product",
        "pairing",
        "pairing_matrix",
        "rank_certificate",
        "star_to_zhu",
        "strong_identity",
        "strong_identity_from_json",
        "strong_identity_to_json",
        "u_element",
        "ubar_element",
        "verify_strong_identity",
    ),
    "lattice": (
        "CosetRep",
        "EvenLattice",
        "conformal_weight",
        "coset_norms",
        "count_norm_layer",
        "dual_cosets",
        "graded_dims",
        "load_gram",
        "parse_gram_text",
    ),
    "partitions": (
        "LabeledPartition",
        "Partition",
        "enumerate_labeled_partitions",
        "enumerate_partitions",
        "labeled_partition_count",
        "labeled_partition_counts",
        "partition_count",
        "symmetry_factor",
    ),
    "peirce": (
        "Algebra",
        "IdealSplit",
        "ModuleRep",
        "PeirceAlgebra",
        "PeirceReport",
        "RoundtripReport",
        "Subspace",
        "TensorQuotient",
        "ZigZag",
        "action_through_A_check",
        "balanced_tensor",
        "find_strong_identity",
        "heisenberg_truncation",
        "ideal_unit_and_split",
        "matrix_model",
        "matrix_model_column_module",
        "morita_backward",
        "morita_forward",
        "regular_module",
        "validate_peirce",
        "verify_roundtrip",
        "zd_ideal",
        "zigzag",
    ),
    "zhu": (
        "SimpleModuleData",
        "ZhuDescriptor",
        "commutative_zhu_descriptor",
        "exceptional_degrees",
        "heisenberg_zhu_descriptor",
        "rational_zhu_descriptor",
        "zd_support",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
