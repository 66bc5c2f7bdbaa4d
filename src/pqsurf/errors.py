"""Exception hierarchy shared by all modules.

Each class carries the exit code the CLI returns for it: ParseError 2,
ValidationError (and any other PQError) 3, EngineInconsistencyError 4.
"""


class PQError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class ParseError(PQError):
    """Malformed input text (cycle notation, .pq files, row files, polynomials)."""

    exit_code = 2


class ValidationError(PQError):
    """Input is well-formed but violates a mathematical precondition."""


class EngineInconsistencyError(PQError):
    """An internal consistency gate failed; signals a bug, not bad input."""

    exit_code = 4
