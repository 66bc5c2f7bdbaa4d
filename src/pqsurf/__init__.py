"""Exact intersection theory and numerical invariants of product-quotient surfaces.

Submodules load on first use (PEP 562): ``import pqsurf`` imports none of
them, and ``pqsurf.X`` or ``from pqsurf import X`` imports the one that
defines ``X``.
"""

from importlib import import_module

_EXPORTS = {
    "covers": ("SphericalSystem", "branch_fiber", "rh_genus", "validate_system"),
    "differentials": ("SourceSection", "bigness_certificate", "gamma_pullback", "invariance_check",
                      "is_holomorphic", "vanishing_conditions"),
    "errors": ("EngineInconsistencyError", "ParseError", "PQError", "ValidationError"),
    "groups": ("FiniteGroup", "Permutation", "Subgroup", "conjugate_subgroup", "cyclic_subgroup", "element_order",
               "group_from_generators", "left_cosets"),
    "hj": ("SingularityType", "dual_type", "hj_evaluate", "hj_expand", "normalized_key",
           "string_intersection_matrix", "string_length"),
    "inputs": ("parse_input", "realize", "run_invariants"),
    "singularities": ("enumerate_singularities",),
    "surface": ("SurfaceModel", "build_surface_model"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
