"""Maximal orthogonal partial Latin squares.

Constructions, verifiers, exhaustive search, and the covering-code view
of k-layer partial Latin squares whose filled cells cannot be extended.
"""

from .codes import Code, CodeReport, check_code_equivalence, covering_radius, min_distance, to_code
from .construct import (
    ConstructionError,
    ConstructionPlan,
    k_mols_field,
    k_mopls_diagonal,
    k_ols,
    min_mopls,
    min_mpls,
    mopls_plan,
    mpls_plan,
    product,
)
from .core import (
    CellOccupiedError,
    FrequencyProfile,
    KPartialSquare,
    LatinConflictError,
    OrthogonalityConflictError,
    SelfCheckError,
    SquareError,
    ValidationReport,
    Violation,
    lower_bound,
)
from .formats import (
    ParseError,
    from_json,
    from_text_grid,
    load_square,
    save_square,
    to_json,
    to_text_grid,
)
from .graphview import ComplementGraph, complement, has_clique
from .maximality import ExtensionWitness, find_extension, is_maximal, maximalize
from .search import SearchResult, is_canonical, min_maximal, verify_bound_exhaustive
from .verify import (
    BoundReport,
    Lemma2Report,
    StructureReport,
    TransversalReport,
    check_lemma2,
    inequality_rhs,
    max_empty_transversal,
    verify_bound,
    verify_hr_structure,
    verify_min_structure,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CellOccupiedError",
    "Code",
    "CodeReport",
    "ComplementGraph",
    "ConstructionError",
    "ConstructionPlan",
    "ExtensionWitness",
    "FrequencyProfile",
    "KPartialSquare",
    "LatinConflictError",
    "Lemma2Report",
    "OrthogonalityConflictError",
    "ParseError",
    "SearchResult",
    "SelfCheckError",
    "SquareError",
    "StructureReport",
    "TransversalReport",
    "ValidationReport",
    "Violation",
    "__version__",
    "check_code_equivalence",
    "check_lemma2",
    "complement",
    "covering_radius",
    "find_extension",
    "from_json",
    "from_text_grid",
    "has_clique",
    "inequality_rhs",
    "is_canonical",
    "is_maximal",
    "k_mols_field",
    "k_mopls_diagonal",
    "k_ols",
    "load_square",
    "lower_bound",
    "max_empty_transversal",
    "maximalize",
    "min_distance",
    "min_maximal",
    "min_mopls",
    "min_mpls",
    "mopls_plan",
    "mpls_plan",
    "product",
    "save_square",
    "to_code",
    "to_json",
    "to_text_grid",
    "verify_bound",
    "verify_bound_exhaustive",
    "verify_hr_structure",
    "verify_min_structure",
]
