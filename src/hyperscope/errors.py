"""Typed errors shared across the package.

Every error carries a stable ``code`` string. The CLI maps codes to exit
statuses: defects found while reading input files exit 2, defects raised by
an operation on already-loaded values exit 3.
"""

from __future__ import annotations


class HypernetworkError(Exception):
    """Base class for all errors raised by this package.

    ``report`` is the full ValidationReport when ``parse`` rejects a text
    for axiom violations; the error itself describes the first of them.
    """

    code = "E_ERROR"
    report = None

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span

    def __str__(self) -> str:
        base = super().__str__()
        if self.span is not None:
            return f"line {self.span.line}, column {self.span.column}: {base}"
        return base


class HtSyntaxError(HypernetworkError):
    """Malformed source text; always carries a SourceSpan."""

    code = "E_SYNTAX"


class UnresolvedIdentifierError(HypernetworkError):
    code = "E_UNRESOLVED"


class DuplicateIdentifierError(HypernetworkError):
    code = "E_DUPLICATE_ID"


class ArityError(HypernetworkError):
    code = "E_ARITY"


class CycleError(HypernetworkError):
    code = "E_CYCLE"


class IdentityConflictError(HypernetworkError):
    code = "E_IDENTITY_CONFLICT"


class BaseMismatchError(HypernetworkError):
    code = "E_BASE_MISMATCH"


class FixtureMissingError(HypernetworkError):
    code = "E_FIXTURE_MISSING"
