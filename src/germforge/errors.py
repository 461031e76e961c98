"""Exception types shared across the package."""


class GermforgeError(Exception):
    """Base class for all package errors."""


class UsageError(GermforgeError):
    """Caller violated a documented precondition (CLI exit code 1)."""


class ModeMismatchError(UsageError):
    """Operands mix exact and float scalar modes, or truncation orders differ."""


class ParseError(UsageError):
    """Polynomial syntax error, with 1-based line/column position."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(UsageError):
    """Malformed input file; names the offending field path."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class OutOfScopeHkError(GermforgeError):
    """Two-jet of type (u, uv, 0): detected but deliberately not reduced."""


class UnsupportedGermError(GermforgeError):
    """Germ outside the reducible branch (degenerate or stable two-jet)."""


class PrincipalNormalDirectionError(GermforgeError):
    """Requested quantity diverges at the principal normal direction (cos(theta) ~ 0)."""


class HypothesisError(GermforgeError):
    """A prediction hypothesis fails (e.g. vanishing bounded principal curvature)."""


class InternalConsistencyError(GermforgeError):
    """Two independent computation routes disagree (CLI exit code 2)."""
