"""Exception taxonomy shared across the package.

Errors in input data, forms and hooks derive from LoftError, so callers
(the CLI, the pipeline) map them to exit codes without enumerating
modules.  An out-of-range argument from a Python caller raises ValueError;
the CLI raises its own UsageError for bad usage and lets OSError (such as
IsADirectoryError for an output directory) through.  A form error
(ParseError, TypeCheckError, ExecutionError) names its ``kind``.
"""

from __future__ import annotations


class LoftError(Exception):
    """Base class for all package errors."""


class ParseError(LoftError):
    """Logic-form text could not be parsed.

    ``offset`` is the character offset of the problem, or None when the
    error is not tied to a single location (e.g. programmatic construction).
    """

    kind = "parse"

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnknownFunctionError(ParseError):
    """A function name not present in the catalog."""


class ArityError(ParseError):
    """A function applied to the wrong number of arguments."""


class TypeCheckError(LoftError):
    """A parsed form does not fit the table schema.

    kind is one of: unknown_column, type_mismatch, bad_ordinal.
    """

    def __init__(self, message: str, kind: str = "type_mismatch"):
        super().__init__(message)
        self.kind = kind


class ExecutionError(LoftError):
    """A typed runtime failure of the executor.

    kind is one of: empty_view (an aggregation, ordinal, all or most over
    a view with no usable values), rank_range (an ordinal rank outside the
    usable value multiset), non_numeric (a numeric comparison or arithmetic
    over a non-numeric operand), view_size (hop over a view that does not
    hold exactly one row).
    """

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


class IngestError(LoftError):
    """Corpus file could not be loaded."""


class DistributionError(LoftError):
    """Template distribution file is malformed or inconsistent."""


class HookError(LoftError):
    """External hook process could not be launched or died mid-batch."""
