"""Exception hierarchy shared by all modules, and ``checked``, the one rule of
the records that check their fields.

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


def checked(cls):
    """Make a ``typing.NamedTuple`` record run its ``_check()`` on every
    instance built, so that no invalid record exists.

    Records are named tuples: ``dataclasses`` imports ``inspect``, which
    costs a short command more than its arithmetic.  A NamedTuple body may
    not define ``__new__`` or ``_make``, so both are set here, after the
    class is made: ``__new__`` checks what the tuple's own builds, and
    ``_make`` (which ``_replace`` calls) goes through it, as ``copy`` and
    unpickling do already (pickle protocol 2 or later, the default)."""
    build = cls.__new__

    def __new__(klass, *args, **kwargs):
        self = build(klass, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda klass, fields: klass(*fields))
    return cls
