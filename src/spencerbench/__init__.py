"""Exact-arithmetic workbench for constraint-coupled Spencer operators,
mirror transformations, and rank-based cohomology over finite-dimensional
Lie algebras.

Importing the package loads none of its modules: each public name is
imported from its submodule on first use (PEP 562) and then kept here.
"""

import importlib

_MODULE_NAMES = {
    "errors": (
        "DegenerateInputError", "FormatError", "MismatchError", "SpencerbenchError",
        "ValidationError",
    ),
    "liealg": (
        "AlgebraVector", "DualVector", "LieAlgebra", "LieAutomorphism",
        "antisymmetry_residual", "bracket", "builtin_algebra", "builtin_automorphism",
        "coadjoint", "jacobi_residual", "killing_gram", "make_automorphism", "pairing",
        "weyl_mirrors",
    ),
    "linalg": ("OperatorMatrix",),
    "symtensor": ("sym_basis",),
    "spencer": (
        "Identification", "LeibnizConvention", "NilpotencyReport", "delta_matrix",
        "nilpotency_report", "signed_leibniz_welldefinedness",
    ),
    "mirror": (
        "IntertwiningReport", "MirrorTransform", "automorphism_mirror", "induced_tensor_map",
        "intertwining_check", "mirror_lambda", "sign_mirror",
    ),
    "cohomology": (
        "CohomologyReport", "DGAModel", "SpencerComplexInstance", "build_complex", "ce_model",
        "cohomology_report", "commutation_residuals", "cup_product", "d_squared_residual",
        "kunneth_diagnostic", "mirror_invariance_check",
    ),
    "bundle": (
        "GridBundle", "TransversalityReport", "cartan_residual",
        "compatibility_functional_terms", "constraint_distribution", "equivariance_residual",
        "grid_bundle", "transversality_report",
    ),
}

# public name -> the submodule that defines it; a submodule's own name maps
# to itself and stands for the module
_SUBMODULE = {name: module for module, names in _MODULE_NAMES.items()
              for name in (module, *names)}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
