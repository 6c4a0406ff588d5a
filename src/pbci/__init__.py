"""Finite pseudo-BCI algebras: validation, derivation operators, deductive
systems, quotients, and bounded model search.

Importing the package runs the layers every table command reads (``core``,
``errors``, ``formats`` and ``limits``) and only registers the analysis
layers (``derivations``, ``dsystems``, ``theorems``, ``report`` and
``search``): each is a module in ``sys.modules`` and an attribute of the
package from the start, whose body runs at the first attribute read, under
one lock, so a command starts without compiling the layers it never reads.
The package's names from those layers are looked up in their module on
each read.  ``pbci.search`` is the function of that name; its module is
``importlib.import_module("pbci.search")``.
"""

__version__ = "0.1.0"

import importlib.util
import sys
import threading
import types

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

# The layers that run on first use, with the names the package takes from each.
_LAZY_LAYERS = {
    "derivations": (
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
    ),
    "dsystems": (
        "DeductiveSystem",
        "as_deductive_system",
        "bck_part_system",
        "brute_force_ds",
        "congruence_classes",
        "enumerate_ds",
        "generate_ds",
        "is_invariant",
        "quotient",
    ),
    "theorems": ("TheoremReport", "TheoremResult", "theorem_suite"),
    "search": ("SearchQuery", "brute_force_search", "search"),
    "report": ("build_report", "render_json", "render_text", "spec_from_report"),
}
_LAYER_OF = {name: layer for layer, names in _LAZY_LAYERS.items() for name in names}

_load_lock = threading.RLock()
_loading: set[str] = set()


class _Layer(types.ModuleType):
    """A registered layer whose body runs at the first attribute read.

    The loads run under one re-entrant lock, so a thread that reads a layer
    while another loads it waits for the whole body.  The loading thread's
    own reads (the loader's, and those of a layer importing another) see
    the module as it fills, as in any import.  Once loaded, the module is a
    plain module and reads take no lock.

    ``__spec__`` is read without loading: every import statement reads it
    from the module it finds in ``sys.modules`` and clears any exception
    that read raises, so a load it started could be interrupted (by
    KeyboardInterrupt, say) and the interruption lost.  ``from pbci.<layer>
    import name`` loads at its next read, which passes exceptions on.
    """

    def __getattribute__(self, attr):
        read = types.ModuleType.__getattribute__
        if attr == "__spec__":
            return read(self, attr)
        name = read(self, "__name__")
        with _load_lock:
            if type(self) is _Layer and name not in _loading:
                _loading.add(name)
                try:
                    read(self, "__spec__").loader.exec_module(self)
                finally:
                    _loading.discard(name)
                self.__class__ = types.ModuleType
        return read(self, attr)


def _register(layer: str) -> types.ModuleType:
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Layer
    sys.modules[spec.name] = module
    return module


for _name in _LAZY_LAYERS:
    _module = _register(_name)
    if _name != "search":  # pbci.search is the function
        globals()[_name] = _module
del _name, _module


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{layer}"], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})


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
    # derivations, deductive systems, theorems, search and reports
    *_LAYER_OF,
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
