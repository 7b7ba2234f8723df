"""Exception types shared across the package, and the input checks that
raise :class:`InvalidDocument`.

Every error raised by gbsample derives from :class:`GbsampleError`, so
callers (notably the CLI) can distinguish user-facing problems from bugs.
"""

from __future__ import annotations


class GbsampleError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(GbsampleError, ValueError):
    """An argument outside its valid range, such as a budget below one row,
    a negative seed or an empty interval.  Also a :class:`ValueError`, which
    such mistakes raised before this class existed."""


class InvalidDocument(GbsampleError):
    """A JSON input document of the wrong shape, such as a string where a
    list is expected."""


def string_list(value, source: str, path: str) -> tuple[str, ...]:
    """``value`` as a tuple of strings; anything but a JSON list of strings
    raises :class:`InvalidDocument` naming the ``source`` document and the
    field ``path`` in it.  A bare string is rejected rather than split into
    its characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InvalidDocument(
            f"{source}: {path}: expected a list of strings, got {value!r}"
        )
    return tuple(value)


def member(source: str, obj, path: str, name: str, ok=None, expected: str = ""):
    """``obj[name]`` from the JSON object at ``path`` in the ``source``
    document.  A non-object ``obj``, a missing ``name`` or a value that
    ``ok`` rejects (described by ``expected``) raises
    :class:`InvalidDocument` naming the document and the field."""
    where = f"{path}.{name}" if path else name
    if not isinstance(obj, dict):
        what = path or "(document)"
        raise InvalidDocument(f"{source}: {what}: expected an object, got {obj!r}")
    if name not in obj:
        raise InvalidDocument(f"{source}: {where}: missing")
    if ok is not None and not ok(obj[name]):
        raise InvalidDocument(
            f"{source}: {where}: expected {expected}, got {obj[name]!r}"
        )
    return obj[name]


# ---------------------------------------------------------------------------
# dataset


class MissingColumn(GbsampleError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} not found in file header")
        self.column = column


class TypeParseError(GbsampleError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(
            f"row {row}: cannot parse {value!r} as a number for column {column!r}"
        )
        self.row = row
        self.column = column
        self.value = value


class EmptyFile(GbsampleError):
    pass


class UnknownAttribute(GbsampleError):
    def __init__(self, attr: str):
        super().__init__(f"{attr!r} is not a categorical column of the relation")
        self.attr = attr


class UnknownColumn(GbsampleError):
    def __init__(self, column: str):
        super().__init__(f"{column!r} is not a numeric column of the relation")
        self.column = column


class NotASubset(GbsampleError):
    pass


# ---------------------------------------------------------------------------
# allocation


class EmptyProblem(GbsampleError):
    pass


class NonPositiveCost(GbsampleError):
    pass


class ZeroMeanError(GbsampleError):
    """A stratum or group mean is zero, so its CV is undefined."""

    def __init__(self, key, column: str | None = None):
        where = f"{key}" if column is None else f"{key} column {column!r}"
        super().__init__(f"zero mean for {where}; CV undefined")
        self.key = key
        self.column = column


class ZeroMeanStratum(ZeroMeanError):
    pass


class ZeroMeanCoarseGroup(ZeroMeanError):
    pass


class ZeroMeanGroup(ZeroMeanError):
    pass


class AllStrataConstant(GbsampleError):
    pass


class RateOutOfRange(GbsampleError):
    pass


class InvalidSampleSize(GbsampleError):
    pass


# ---------------------------------------------------------------------------
# sampling and querying


class PlanMismatch(GbsampleError):
    pass


class CorruptSampleFile(GbsampleError):
    pass


class SchemaMismatch(GbsampleError):
    pass


class IncompatibleGrouping(GbsampleError):
    pass
