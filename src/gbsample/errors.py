"""Exception types shared across the package, the input checks that
raise :class:`InvalidDocument`, :func:`open_text`, through which every
input file is read, and :func:`parse_json`, through which every JSON input
document is parsed.

Every error raised by gbsample derives from :class:`GbsampleError`, so
callers (notably the CLI) can distinguish user-facing problems from bugs.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from typing import Sequence


class GbsampleError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(GbsampleError, ValueError):
    """An argument outside its valid range, such as a budget below one row,
    a negative seed or an empty interval.  Also a :class:`ValueError`, which
    such mistakes raised before this class existed."""


class InvalidDocument(GbsampleError):
    """A JSON input document of the wrong shape, such as a string where a
    list is expected."""


class UnreadableFile(GbsampleError):
    """An input file that cannot be read as text: a path that is a
    directory (or runs through a file), bytes that are not UTF-8, or a CSV
    field beyond the csv module's size limit."""


@contextmanager
def open_text(path, newline: str | None = None):
    """The file at ``path`` opened for reading as UTF-8 text.  Each way
    the file may be unreadable, met on opening it or in the ``with`` body
    while reading it, raises :class:`UnreadableFile` naming the file; a
    missing file still raises :class:`FileNotFoundError`."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except (IsADirectoryError, NotADirectoryError) as exc:
        raise UnreadableFile(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise UnreadableFile(f"{path}: {exc}") from None


def parse_json(text: str, source: str):
    """The JSON document ``text``; a syntax error, or nesting deeper than
    the parser's recursion limit, raises :class:`InvalidDocument` naming
    the ``source`` document."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(f"{source}: not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidDocument(f"{source}: JSON nested too deeply to read") from None


#: (check, description) pairs of JSON value types for :func:`member` and
#: :func:`expect`.  A bool is not an integer, nor is 1.0; an integer must
#: fit in int64, the type every count and index is held in; a bare string
#: is not a list of strings (it is never split into its characters).
INTEGER = (
    lambda v: type(v) is int and -(2**63) <= v < 2**63,
    "an integer in the int64 range",
)
COUNT = (lambda v: INTEGER[0](v) and v >= 0, "a non-negative integer in the int64 range")
POSITIVE = (lambda v: INTEGER[0](v) and v >= 1, "an integer >= 1 in the int64 range")
#: a seed is any non-negative integer: numpy's SeedSequence takes every
#: such int, and no seed is held in int64
SEED = (lambda v: type(v) is int and v >= 0, "a non-negative integer")


def check_seed(seed: int) -> None:
    """Raise :class:`InvalidArgument` for a negative seed."""
    if seed < 0:
        raise InvalidArgument(f"seed must be a non-negative integer, got {seed}")


def finite(v) -> bool:
    """Whether the int or float ``v`` is a finite float: an int beyond the
    float range is not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


NUMBER = (lambda v: type(v) in (int, float) and finite(v), "a finite number")
STRING = (lambda v: isinstance(v, str), "a string")
LIST = (lambda v: isinstance(v, list), "a list")
OBJECT = (lambda v: isinstance(v, dict), "an object")
STRINGS = (lambda v: LIST[0](v) and all(map(STRING[0], v)), "a list of strings")
NAMES = (lambda v: STRINGS[0](v) and len(set(v)) == len(v), "a list of distinct strings")
BOOL = (lambda v: type(v) is bool, "true or false")


def one_of(choices) -> tuple:
    """The check of a string among ``choices``."""
    names = ", ".join(map(repr, choices))
    return (lambda v: isinstance(v, str) and v in choices), f"one of {names}"


def nullable(check: tuple) -> tuple:
    """``check`` that also accepts JSON null."""
    ok, expected = check
    return (lambda v: v is None or ok(v)), f"{expected} or null"


def expect(source: str, value, path: str, ok, expected: str):
    """``value`` if ``ok`` accepts it; otherwise :class:`InvalidDocument`
    naming the ``source`` document, the field ``path`` in it and what was
    ``expected``."""
    if not ok(value):
        where = path or "(document)"
        raise InvalidDocument(f"{source}: {where}: expected {expected}, got {value!r}")
    return value


_REQUIRED = object()


def member(source: str, obj, path: str, name: str, ok=None, expected="", default=_REQUIRED):
    """``obj[name]`` from the JSON object at ``path`` in the ``source``
    document, or ``default`` when given and ``name`` is absent.  A
    non-object ``obj``, a missing required ``name`` or a value that ``ok``
    rejects (described by ``expected``) raises :class:`InvalidDocument`
    naming the document and the field."""
    where = f"{path}.{name}" if path else name
    expect(source, obj, path, *OBJECT)
    if name not in obj:
        if default is _REQUIRED:
            raise InvalidDocument(f"{source}: {where}: missing")
        return default
    return obj[name] if ok is None else expect(source, obj[name], where, ok, expected)


def _fields(items: list, name: str) -> list | None:
    """``item[name]`` of every item, or None unless every item is a JSON
    object that holds ``name``."""
    if set(map(type, items)) <= {dict}:
        try:
            return list(map(itemgetter(name), items))
        except KeyError:
            pass
    return None


def members(source: str, items: list, path: str, name: str, ok, expected: str, **default) -> list:
    """:func:`member` of ``name`` in every object of the list ``items`` at
    ``path`` in the ``source`` document, checked a field at a time: one
    pass reads every value and one checks them, and only when either
    fails are the items rescanned one by one, so the first bad item raises
    the same :class:`InvalidDocument` that a :func:`member` call per item
    would."""
    values = _fields(items, name)
    if values is not None and all(map(ok, values)):
        return values
    return [
        member(source, item, f"{path}[{i}]", name, ok, expected, **default)
        for i, item in enumerate(items)
    ]


def stratum_keys(
    source: str, strata: list, widths: Sequence[int], groups: Sequence[int] | None = None
) -> list[tuple]:
    """The ``key`` of every stratum object in ``strata``, as value tuples.
    Key i must be a list of ``widths[i]`` strings and must not repeat an
    earlier key of its group ``groups[i]`` (an individual plan's query; all
    strata form one group when ``groups`` is None); otherwise
    :class:`InvalidDocument` names ``source`` and the field.  Every key is
    read and checked in one pass, as :func:`members` reads a field; only a
    failed check rescans the strata one by one for the first bad or
    repeated key."""
    values = _fields(strata, "key")
    # exact types: a key they reject but the item check accepts is rescanned
    if (
        values is not None
        and set(map(type, values)) <= {list}
        and list(map(len, values)) == list(widths)
        and set(map(type, chain.from_iterable(values))) <= {str}
    ):
        keys = list(map(tuple, values))
        if len(set(keys if groups is None else zip(groups, keys))) == len(keys):
            return keys
    keys, seen = [], set()
    for i, (item, width) in enumerate(zip(strata, widths)):
        at = f"strata[{i}]"
        ok = lambda v, width=width: STRINGS[0](v) and len(v) == width  # noqa: E731
        key = tuple(member(source, item, at, "key", ok, f"a list of {width} strings"))
        pair = (None if groups is None else groups[i], key)
        if pair in seen:
            raise InvalidDocument(f"{source}: {at}.key: repeats stratum {list(key)!r}")
        seen.add(pair)
        keys.append(key)
    return keys


# ---------------------------------------------------------------------------
# dataset


class MissingColumn(GbsampleError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} not found in file header")
        self.column = column


class TypeParseError(GbsampleError):
    def __init__(self, row: int, column: str, value: str, expected: str = "a finite number"):
        super().__init__(
            f"row {row}: cannot parse {value!r} as a number for column {column!r}"
        )
        self.row = row
        self.column = column
        self.value = value
        self.expected = expected


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


class CatalogMismatch(GbsampleError):
    """A catalog file lacks a grouping attribute or an aggregation column
    that the configured queries read."""


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


class FloatOverflow(GbsampleError):
    """A stratum's moments or cost under one column lie beyond the float
    range, so no CV can be computed from them."""

    def __init__(self, what: str, key, column: str):
        super().__init__(f"{key} column {column!r}: {what} beyond the float range")
        self.key = key
        self.column = column


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
