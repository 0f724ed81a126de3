"""Maximal orthogonal partial Latin squares.

Constructions, verifiers, exhaustive search, and the covering-code view
of k-layer partial Latin squares whose filled cells cannot be extended.

The package imports none of its modules until a public name or a
submodule is first used (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: Each defining module and the public names the package exports from it.
_EXPORTS = {
    "codes": ("Code", "CodeReport", "check_code_equivalence", "covering_radius", "min_distance", "to_code"),
    "construct": (
        "ConstructionError",
        "ConstructionPlan",
        "k_mols_field",
        "k_mopls_diagonal",
        "k_ols",
        "min_mopls",
        "min_mpls",
        "mopls_plan",
        "mpls_plan",
        "product",
    ),
    "core": (
        "CellOccupiedError",
        "FrequencyProfile",
        "KPartialSquare",
        "LatinConflictError",
        "OrthogonalityConflictError",
        "SelfCheckError",
        "SquareError",
        "ValidationReport",
        "Violation",
        "lower_bound",
    ),
    "formats": (
        "ParseError",
        "from_json",
        "from_text_grid",
        "load_square",
        "save_square",
        "to_json",
        "to_text_grid",
    ),
    "graphview": ("ComplementGraph", "complement", "has_clique"),
    "maximality": ("ExtensionWitness", "find_extension", "is_maximal", "maximalize"),
    "search": ("SearchResult", "is_canonical", "min_maximal", "verify_bound_exhaustive"),
    "verify": (
        "BoundReport",
        "Lemma2Report",
        "StructureReport",
        "TransversalReport",
        "check_lemma2",
        "inequality_rhs",
        "max_empty_transversal",
        "verify_bound",
        "verify_hr_structure",
        "verify_min_structure",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"cli", *_EXPORTS})

__all__ = sorted(["__version__", *_ORIGIN])


def __getattr__(name: str) -> object:
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
