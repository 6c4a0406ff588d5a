"""Finite pseudo-BCI algebras: validation, derivation operators, deductive
systems, quotients, and bounded model search."""

__version__ = "0.1.0"

from .core import (
    AlgebraSpec,
    ClassificationReport,
    GroupView,
    PseudoBciAlgebra,
    Violation,
    atoms,
    bck_part,
    branches,
    classify,
    collect_violations,
    group_view,
    is_pseudo_bck,
    is_subalgebra,
    validate,
)
from .errors import (
    CongruenceError,
    EnumerationCapExceeded,
    IncompleteMapError,
    InternalInconsistencyError,
    NotCompatibleOrClosedError,
    NotPSemisimpleError,
    ParseError,
    PbciError,
    SearchCapExceeded,
    ShapeError,
    StructuralError,
    SymbolError,
    TypeRequiresPseudoBckError,
    ValidationError,
)
from .formats import format_selfmap, parse_algebra, parse_selfmap, serialize_spec
from .derivations import (
    DerivationClass,
    MapPropertyRecord,
    MonoidReport,
    SelfMap,
    brute_force_derivations,
    compose,
    enumerate_derivations,
    identity_map,
    map_properties,
    monoid_report,
    phi_map,
    pointwise,
    satisfies,
)
from .dsystems import (
    DeductiveSystem,
    as_deductive_system,
    bck_part_system,
    brute_force_ds,
    congruence_classes,
    enumerate_ds,
    generate_ds,
    is_invariant,
    quotient,
)
from .theorems import TheoremReport, TheoremResult, theorem_suite
from .search import SearchQuery, brute_force_search, search
from .report import build_report, render_json, render_text, spec_from_report

__all__ = [
    "__version__",
    # core
    "AlgebraSpec",
    "ClassificationReport",
    "GroupView",
    "PseudoBciAlgebra",
    "Violation",
    "atoms",
    "bck_part",
    "branches",
    "classify",
    "collect_violations",
    "group_view",
    "is_pseudo_bck",
    "is_subalgebra",
    "validate",
    # formats
    "format_selfmap",
    "parse_algebra",
    "parse_selfmap",
    "serialize_spec",
    # derivations
    "DerivationClass",
    "MapPropertyRecord",
    "MonoidReport",
    "SelfMap",
    "brute_force_derivations",
    "compose",
    "enumerate_derivations",
    "identity_map",
    "map_properties",
    "monoid_report",
    "phi_map",
    "pointwise",
    "satisfies",
    # deductive systems
    "DeductiveSystem",
    "as_deductive_system",
    "bck_part_system",
    "brute_force_ds",
    "congruence_classes",
    "enumerate_ds",
    "generate_ds",
    "is_invariant",
    "quotient",
    # theorems
    "TheoremReport",
    "TheoremResult",
    "theorem_suite",
    # search
    "SearchQuery",
    "brute_force_search",
    "search",
    # reports
    "build_report",
    "render_json",
    "render_text",
    "spec_from_report",
    # errors
    "PbciError",
    "StructuralError",
    "ValidationError",
    "InternalInconsistencyError",
    "NotPSemisimpleError",
    "TypeRequiresPseudoBckError",
    "EnumerationCapExceeded",
    "SearchCapExceeded",
    "NotCompatibleOrClosedError",
    "CongruenceError",
    "ParseError",
    "SymbolError",
    "ShapeError",
    "IncompleteMapError",
]
