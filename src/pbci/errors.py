"""Exception hierarchy for the pbci package."""

from __future__ import annotations


class PbciError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(PbciError):
    """A raw algebra description is malformed (shape, duplicate or unknown
    symbols, missing unit), so axiom checking cannot even start."""


class ValidationError(PbciError):
    """One or more pseudo-BCI axioms fail on the given tables.

    Carries the full list of violations, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} axiom violation(s): {lines}{more}")


class InternalInconsistencyError(PbciError):
    """A cross-check that is a proved theorem failed on a validated algebra.

    This never indicates bad input; it indicates a bug in this package.
    """


class NotPSemisimpleError(PbciError):
    """A group view was requested for an algebra whose BCK part is not {1}."""


class TypeRequiresPseudoBckError(PbciError):
    """Implicative types III/IV were requested on an algebra whose unit is
    not the greatest element, without the force flag."""


class EnumerationCapExceeded(PbciError):
    """The universe is too large for an exhaustive enumeration.

    Set PBCI_MAX_SIZE to a larger cap to opt in.
    """


class SearchCapExceeded(PbciError):
    """The requested model-search size exceeds the configured cap."""


class NotCompatibleOrClosedError(PbciError):
    """Quotients are defined only for compatible closed deductive systems."""


class CongruenceError(PbciError):
    """The relation induced by a deductive system failed to be a congruence."""


class ParseError(PbciError):
    """Syntax error in an input file; carries 1-based line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(f"{message}{where}")


class SymbolError(ParseError):
    """A table entry or map value names an undeclared element."""


class ShapeError(ParseError):
    """A table has the wrong number of rows or columns."""


class IncompleteMapError(ParseError):
    """A self-map description leaves some element without an image."""
