"""In-memory typed relations and stratification by categorical attributes.

A :class:`Relation` is an immutable table with categorical columns and
numeric columns (float64).  Rows are identified by a stable ordinal
``row_id`` in file order; every pass over the data iterates in row_id order
so that downstream artifacts are reproducible.

Categorical columns are dictionary-encoded: each is an array of int codes,
one per row, plus its distinct values ("levels") in order of first
occurrence, so code k stands for ``levels[k]``.  :func:`read_columns`
reads the CSV rows of both the data files of :func:`load_csv` and the
sample files of :func:`gbsample.sampler.load_sample`, and encodes while
it parses, :data:`CHUNK_ROWS` rows at a time and one column of the chunk
at a time, so it holds at most one chunk of rows as strings; it and
:func:`encode` share one first-occurrence encoder, :func:`encode_into`.
It cuts a chunk into cells by one ``str.split`` of the chunk's text while
every chunk so far is free of quotes, carriage returns, NULs, over-long
lines and rows of other widths and no read error stopped one, and by
``csv.reader`` from the first chunk that is not to the end of the file.
:func:`csv_writer` writes every CSV file the package writes.
:meth:`Relation.encoded` returns the codes and levels;
:meth:`Relation.categorical` and :meth:`Relation.records` decode them to
values at the API edge, so every file the package writes is unchanged by
the encoding.

Strata are integer ids: :func:`stratum_ids` numbers the rows' value tuples
under a list of attributes by first occurrence (:func:`first_occurrence_ids`,
in linear time by an array indexed by value when the values are dense
enough, by ``np.unique`` otherwise), and :func:`segments` sorts rows by id
(a radix sort up to 65536 strata) so that each stratum is a contiguous
slice.  A relation computes each grouping's stratification
(:class:`Strata`: the ids, the strata's value tuples and the sorted
slices) once, on first use of :meth:`Relation.strata`, and keeps it: the
relation never changes.  Every layer that works stratum by stratum
(catalog, allocation, draw, estimation, evaluation, workload entities)
reads it from there, so one grouping of one relation is stratified once
however many layers use it.  It keeps each
``(grouping, columns)`` catalog of :func:`gbsample.stats.compute_catalog`,
and each column's moments under a grouping, the same way, in the same
memo (:meth:`Relation.memo`).

Missing categorical cells are mapped to the sentinel :data:`NULL_TOKEN`,
which forms its own stratum.  Missing numeric cells are a parse error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyFile,
    InvalidArgument,
    MissingColumn,
    SchemaMismatch,
    TypeParseError,
    UnknownAttribute,
    UnknownColumn,
    open_text,
)

NULL_TOKEN = "⟨null⟩"

#: rows :func:`load_csv` parses at a time
CHUNK_ROWS = 1024

CATEGORICAL = "categorical"
NUMERIC = "numeric"
#: the check of a column kind, for :func:`errors.member` and :func:`errors.expect`
COLUMN_KINDS = (lambda v: v in (CATEGORICAL, NUMERIC), f"{CATEGORICAL!r} or {NUMERIC!r}")


@dataclass(frozen=True)
class ColumnSchema:
    """Name and kind (categorical or numeric) of one column."""

    name: str
    kind: str

    def __post_init__(self):
        if not COLUMN_KINDS[0](self.kind):
            raise InvalidArgument(f"unknown column kind {self.kind!r}")


@dataclass(frozen=True)
class GroupKey:
    """An ordered assignment of values to a tuple of categorical attributes.

    Equality is positional: two keys are equal iff they agree on both the
    attribute tuple and the value tuple.
    """

    attrs: tuple[str, ...]
    values: tuple[str, ...]

    def __post_init__(self):
        if len(self.attrs) != len(self.values):
            raise ValueError("attrs and values must have equal length")

    def __str__(self):
        if not self.attrs:
            return "(*)"
        return "(" + ", ".join(f"{a}={v}" for a, v in zip(self.attrs, self.values)) + ")"


class Encoded(NamedTuple):
    """A dictionary-encoded categorical column: ``levels[codes[r]]`` is the
    value of row r.  Every level occurs, and levels are numbered by first
    occurrence: the first row of code k comes before that of code k + 1."""

    codes: np.ndarray
    levels: tuple


def encode(values: Iterable) -> Encoded:
    """Dictionary-encode a sequence of categorical values."""
    index: dict = {}
    codes = encode_into(list(values), index, index)
    return Encoded(frozen(codes), tuple(index))


def encode_into(
    values: list, seen: dict, index: dict, level: Callable | None = None
) -> np.ndarray:
    """The code of every value, looked up in ``seen`` (value -> code).

    A value not yet in ``seen`` gets the code of its level, ``level(value)``
    (the value itself when ``level`` is None), in ``index`` (level -> code),
    where a new level takes the next code; both dicts are extended.  The new
    values are walked in order of first occurrence, so the levels stay
    numbered by first occurrence across every call that shares the dicts.
    ``seen`` and ``index`` may be one dict when ``level`` is None.
    """
    try:
        return np.fromiter(map(seen.__getitem__, values), np.intp, len(values))
    except KeyError:
        for value in dict.fromkeys(values):
            if value not in seen:
                key = value if level is None else level(value)
                seen[value] = index.setdefault(key, len(index))
    return np.fromiter(map(seen.__getitem__, values), np.intp, len(values))


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only."""
    arr.setflags(write=False)
    return arr


class Strata(NamedTuple):
    """One stratification of a relation's rows.

    Row r lies in stratum ``ids[r]``; stratum k has the value tuple
    ``keys[k]`` and the rows ``order[bounds[k]:bounds[k + 1]]``, ascending.
    Strata are numbered by first occurrence (see :func:`stratum_ids` and
    :func:`segments`).  The arrays are read-only.
    """

    ids: np.ndarray
    keys: tuple
    order: np.ndarray
    bounds: np.ndarray


class Relation:
    """An immutable table.  ``row_id`` is the 0-based position.

    Numeric columns are read-only float64 arrays.  Categorical columns are
    stored dictionary-encoded (:class:`Encoded`); a column may be given
    either as a sequence of values, which is encoded here, or already as an
    :class:`Encoded` pair.  ``n_rows``, when given, must match the columns;
    it is how a relation without columns (the strata of an empty grouping)
    keeps its row count.
    """

    def __init__(
        self,
        schema: Sequence[ColumnSchema],
        columns: Mapping[str, object],
        n_rows: int | None = None,
    ):
        names = [c.name for c in schema]
        if len(set(names)) != len(names):
            raise InvalidArgument("duplicate column names in schema")
        self.schema = tuple(schema)
        self._columns: dict[str, object] = {}
        sizes = set()
        for col in schema:
            data = columns[col.name]
            if col.kind == NUMERIC:
                arr = frozen(np.asarray(data, dtype=np.float64))
                self._columns[col.name] = arr
                sizes.add(arr.shape[0])
            else:
                enc = data if isinstance(data, Encoded) else encode(data)
                self._columns[col.name] = enc
                sizes.add(enc.codes.shape[0])
        if n_rows is not None:
            sizes.add(n_rows)
        if len(sizes) > 1:
            raise ValueError("columns have unequal lengths")
        self.n_rows = sizes.pop() if sizes else 0
        self._memo: dict[tuple, object] = {}

    # -- schema helpers ---------------------------------------------------

    def kind_of(self, name: str) -> str | None:
        for c in self.schema:
            if c.name == name:
                return c.kind
        return None

    def encoded(self, name: str) -> Encoded:
        """The codes and levels of a categorical column."""
        if self.kind_of(name) != CATEGORICAL:
            raise UnknownAttribute(name)
        return self._columns[name]

    def categorical(self, name: str) -> list[str]:
        """The decoded values of a categorical column, one per row."""
        codes, levels = self.encoded(name)
        return [levels[k] for k in codes.tolist()]

    def numeric(self, name: str) -> np.ndarray:
        if self.kind_of(name) != NUMERIC:
            raise UnknownColumn(name)
        return self._columns[name]

    def memo(self, compute: Callable, *args: Hashable):
        """``compute(self, *args)``, computed on the first such call and kept
        for every later one, so it must be read-only: the relation never
        changes.  A call that raises keeps nothing; there is no size limit."""
        key = (compute, *args)
        if key not in self._memo:
            self._memo[key] = compute(self, *args)
        return self._memo[key]

    def strata(self, attrs: Sequence[str]) -> Strata:
        """The stratification of the rows under ``attrs``, computed the
        first time these attributes (in this order) are asked for and kept
        for every later call.  An attribute that is not a categorical
        column raises :class:`UnknownAttribute`."""
        return self.memo(_stratify, tuple(attrs))

    def records(self, row_ids, names: Sequence[str] | None = None) -> list[tuple]:
        """The given rows as tuples of the values of the columns ``names``
        (every column, in schema order, by default), categorical cells
        decoded and numeric cells as Python floats."""
        idx = np.asarray(row_ids, dtype=np.intp)
        columns = []
        for name in [c.name for c in self.schema] if names is None else names:
            data = self._columns[name]
            if isinstance(data, Encoded):
                columns.append([data.levels[k] for k in data.codes[idx].tolist()])
            else:
                columns.append(data[idx].tolist())
        return list(zip(*columns)) if columns else [()] * idx.shape[0]

    def take(self, rows) -> "Relation":
        """The given rows, in the given order, as a new relation.

        Numeric columns are gathered; categorical columns stay encoded,
        their codes renumbered by first occurrence among the taken rows and
        their levels cut to the values those rows hold.
        """
        idx = np.asarray(rows, dtype=np.intp)
        columns: dict[str, object] = {}
        for c in self.schema:
            data = self._columns[c.name]
            if c.kind == NUMERIC:
                columns[c.name] = data[idx]
            else:
                taken = data.codes[idx]
                codes, first = first_occurrence_ids(taken)
                levels = tuple(data.levels[k] for k in taken[first].tolist())
                columns[c.name] = Encoded(frozen(codes), levels)
        return Relation(self.schema, columns, idx.shape[0])

    def __len__(self):
        return self.n_rows

    @classmethod
    def from_records(
        cls, schema: Sequence[ColumnSchema], records: Iterable[Sequence]
    ) -> "Relation":
        """The relation of ``records``, tuples of values in schema order.  A
        record of another width, or with a numeric value that ``float``
        rejects or an unhashable categorical one, raises
        :class:`SchemaMismatch` naming it."""
        rows = list(records)
        for rec in rows:
            if len(rec) != len(schema):
                raise SchemaMismatch(f"record {rec!r} is {len(rec)} wide, the schema {len(schema)}")
            for c, value in zip(schema, rec):
                try:
                    float(value) if c.kind == NUMERIC else hash(value)
                except (TypeError, ValueError):
                    bad = f"column {c.name!r} cannot hold {value!r}"
                    raise SchemaMismatch(f"record {rec!r}: {bad}") from None
        columns = list(zip(*rows)) or [()] * len(schema)
        return cls(schema, {c.name: col for c, col in zip(schema, columns)}, len(rows))


def load_csv(path, schema: Sequence[ColumnSchema]) -> Relation:
    """Load a comma-separated UTF-8 file with a header row into a Relation.

    The header must contain every schema column (extra columns are ignored).
    Categorical cells are trimmed and encoded as they are read; an empty
    one, or one missing from a short row, becomes :data:`NULL_TOKEN`.
    Numeric cells that fail to parse, including empty, missing and
    non-finite ones, raise :class:`TypeParseError` naming the first such
    cell in row-major order; a file with a valid header but no data rows
    raises :class:`EmptyFile`, and one that cannot be read as text
    :class:`UnreadableFile` (see :func:`errors.open_text`), unless an
    earlier row holds a bad numeric cell.  The rows are read by
    :func:`read_columns`.
    """
    with open_text(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
        header = [h.strip() for h in header]
        for col in schema:
            if col.name not in header:
                raise MissingColumn(col.name)
        fields = [(c.name, header.index(c.name), c.kind) for c in schema]
        n_rows, columns = read_columns(fh, len(header), fields, _level)
    if n_rows == 0:
        raise EmptyFile(f"{path}: header only, no data rows")
    return Relation(schema, {c.name: col for c, col in zip(schema, columns)}, n_rows)


#: per numeric kind of :func:`read_columns`: the type that parses a cell,
#: the column's dtype and what a cell must hold; only NUMERIC must be finite
_PARSE = {
    NUMERIC: (float, np.float64, "a finite number"),
    float: (float, np.float64, "a number"),
    int: (int, np.int64, "a 64-bit integer"),
}


def read_columns(
    fh, ncols: int, fields: Sequence[tuple], level: Callable | None, ragged: Callable | None = None
) -> tuple[int, list]:
    """The row count of ``fh`` after a header of ``ncols`` cells, and per
    field ``(name, position, kind)`` the column of its rows' cells at
    ``position``: :class:`Encoded` for a CATEGORICAL one, leveled by
    ``level`` (see :func:`encode_into`), else parsed as :data:`_PARSE`
    says, the first cell that fails, in row-major order, raising
    :class:`TypeParseError`.  With ``ragged`` None a short row holds
    ``""`` where it has no cell; otherwise a row of other than ``ncols``
    cells raises ``ragged(row, cells)`` before its chunk is parsed.  The
    rows are parsed :data:`CHUNK_ROWS` at a time (cut into cells by
    :func:`_chunks`), one column at a time, as cell by cell, and a read
    error is raised once the rows before it are parsed.
    """
    # per field: codes by raw text and by level (if categorical), arrays by chunk
    seen = [({}, {}, []) for _ in fields]
    n_rows = 0
    for n, columns, unread in _chunks(fh, ncols, [p for _, p, _ in fields], ragged):
        for (_, _, kind), (by_raw, by_level, chunks), cells in zip(fields, seen, columns):
            if kind == CATEGORICAL:
                chunks.append(encode_into(cells, by_raw, by_level, level))
                continue
            parse, dtype, _ = _PARSE[kind]
            try:
                values = np.fromiter(map(parse, cells), dtype, n)
            except (ValueError, OverflowError):
                values = None
            if values is None or kind == NUMERIC and not np.isfinite(values).all():
                _raise_first_bad_cell(fields, columns, n_rows)
            chunks.append(values)
        del columns  # free the chunk's strings before the next is read
        n_rows += n
        if unread is not None:
            raise unread
    # each column's chunks are freed once joined, so at most one column is
    # held twice; holding them all to the end left the heap too fragmented
    # for the next layer's row-sized arrays, and raised the peak RSS
    joined = []
    for (_, _, kind), (_, by_level, chunks) in zip(fields, seen):
        values = np.concatenate(chunks)
        chunks.clear()
        joined.append(values if kind != CATEGORICAL else Encoded(frozen(values), tuple(by_level)))
    return n_rows, joined


def _chunks(fh, ncols: int, positions: list[int], ragged: Callable | None):
    """The rows of ``fh`` after a header of ``ncols`` cells,
    :data:`CHUNK_ROWS` at a time (fewer in the last chunk): per chunk, its
    row count, the cells of its rows at each of ``positions`` (a list per
    position; see :func:`read_columns` for a row of another width) and
    the error that stopped the read early, if any (see :func:`_read_chunk`).

    A chunk is split by :func:`_split` while every chunk so far has passed
    its test.  The first that fails it, or that a read error cuts short,
    switches the rest of the file to ``csv.reader``, from that chunk's
    first line on, so a quoted field may span the lines of two chunks.
    """
    limit = csv.field_size_limit()
    first = 0
    while True:
        lines: list = []
        try:
            lines.extend(islice(fh, CHUNK_ROWS))
        except (UnicodeDecodeError, OSError) as exc:
            reader = csv.reader(_raise_after(lines, exc))
            break
        columns = _split(lines, ncols, positions, limit)
        if columns is None:
            reader = csv.reader(chain(lines, fh))
            break
        n = len(lines)
        del lines  # free the chunk's strings before the next is read
        yield n, columns, None
        del columns
        if n < CHUNK_ROWS:
            return
        first += n
    del lines
    width = 1 + max(positions, default=-1)
    while True:
        rows, unread = _read_chunk(reader)
        if ragged is not None:
            for row, cells in enumerate(rows, first):
                if len(cells) != ncols:
                    raise ragged(row, len(cells))
        elif min(map(len, rows), default=width) < width:
            rows = [r + [""] * (width - len(r)) for r in rows]
        n = len(rows)
        columns = [list(map(itemgetter(i), rows)) for i in positions]
        del rows
        yield n, columns, unread
        del columns
        if unread is not None or n < CHUNK_ROWS:
            return
        first += n


def csv_writer(fh):
    """A ``csv.writer`` of ``\\n``-ended rows to ``fh`` that quotes a cell
    holding ``\\r`` on every Python: before 3.13 a writer quotes only its
    terminator's characters, so rows end in ``\\r\\n``, cut as written."""
    return csv.writer(SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")),
                      lineterminator="\r\n")


def _raise_after(lines: list[str], exc: Exception):
    """``lines``, then ``exc`` raised: the file ``lines`` were read from as
    ``csv.reader`` met it."""
    yield from lines
    raise exc


def _split(lines: list[str], ncols: int, positions: list[int], limit: int) -> list | None:
    """The cells at each of ``positions`` of ``lines``, rows of ``ncols``
    cells, by one ``str.split`` of their text.  None when there are no
    lines, or where ``csv.reader`` may cut them otherwise: when some line
    holds a quote, a carriage return or a NUL (which ``csv.reader``
    rejects on Python 3.10 only), has other than ``ncols - 1`` commas or
    is longer than ``limit``, the largest field ``csv.reader`` reads."""
    text = "".join(lines)
    if '"' in text or "\r" in text or "\0" in text:
        return None
    if set(map(str.count, lines, repeat(","))) != {ncols - 1}:
        return None
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    cells = text.replace("\n", ",").split(",")
    del text
    end = len(lines) * ncols  # a newline after the last line adds one empty cell
    return [cells[i:end:ncols] for i in positions]


def _read_chunk(reader) -> tuple[list, Exception | None]:
    """The next :data:`CHUNK_ROWS` rows of ``reader`` (fewer at the end),
    and the error that stopped the read early, if any: the rows before an
    unreadable one are parsed first, so a bad numeric cell in them is
    reported before the read error."""
    rows: list = []
    try:
        rows.extend(islice(reader, CHUNK_ROWS))
    except (UnicodeDecodeError, csv.Error, OSError) as exc:
        return rows, exc
    return rows, None


def _level(raw: str) -> str:
    """The categorical value a raw cell holds."""
    return raw.strip() or NULL_TOKEN


def _raise_first_bad_cell(fields: list, columns: list, first_row: int) -> None:
    """Raise :class:`TypeParseError` for the first cell of the ``columns``
    (lists of raw cells, the field ``fields[j]`` at ``columns[j]``), in
    row-major order, that a numeric field does not parse as its kind asks
    (see :func:`read_columns`); row 0 of the columns is row ``first_row``."""
    for row_id, row in enumerate(zip(*columns), first_row):
        for (name, _, kind), raw in zip(fields, row):
            if kind == CATEGORICAL:
                continue
            parse, dtype, expected = _PARSE[kind]
            try:
                value = dtype(parse(raw))
            except (ValueError, OverflowError):
                raise TypeParseError(row_id, name, raw, expected) from None
            if kind == NUMERIC and not np.isfinite(value):
                raise TypeParseError(row_id, name, raw, expected)


def stratum_ids(
    rel: Relation, attrs: Sequence[str]
) -> tuple[np.ndarray, list[tuple]]:
    """The stratum id of every row under ``attrs`` and the values of every
    stratum, in id order.

    Strata are numbered by first occurrence in row order; an empty
    attribute list yields one stratum of every row (none when there are no
    rows, as under any other attributes).  The ids are mixed-radix numbers
    over the columns' codes, compacted after each attribute, so they stay
    below ``n_rows`` times a column's cardinality and never overflow.
    """
    columns = [rel.encoded(a) for a in attrs]
    if not columns:
        return np.zeros(rel.n_rows, dtype=np.intp), [()] if rel.n_rows else []
    if len(columns) == 1:  # the codes are already numbered by first occurrence
        return columns[0].codes, [(v,) for v in columns[0].levels]
    ids = columns[0].codes
    for col in columns[1:]:
        ids, rows = first_occurrence_ids(ids * len(col.levels) + col.codes)
    return ids, rel.records(rows, attrs)


def _stratify(rel: Relation, attrs: tuple[str, ...]) -> Strata:
    ids, keys = stratum_ids(rel, attrs)
    order, bounds = segments(ids, len(keys))
    return Strata(frozen(ids), tuple(keys), frozen(order), frozen(bounds))


def first_occurrence_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the distinct non-negative integer ``values``, numbered by
    first occurrence, one per element, and the position of each id's first
    occurrence in id order.

    When the values are below four times their count, each value's first
    position is found in an array indexed by value (``np.minimum.at``), in
    linear time; otherwise by ``np.unique``, whose sort needs no array as
    large as the largest value.
    """
    n = values.shape[0]
    top = int(values.max()) + 1 if n else 0
    if top > 4 * n:
        _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        return rank[inverse], first[order]
    first = np.full(top, n, dtype=np.intp)
    np.minimum.at(first, values, np.arange(n))
    starts = np.sort(first[first < n])
    rank = np.empty(top, dtype=np.intp)
    rank[values[starts]] = np.arange(starts.shape[0])
    return rank[values], starts


def key_relation(attrs: Sequence[str], keys: Sequence[tuple]) -> Relation:
    """The value tuples ``keys`` over ``attrs`` as categorical columns, row k for ``keys[k]``."""
    columns = list(zip(*keys, strict=True)) or [()] * len(attrs)
    schema = [ColumnSchema(a, CATEGORICAL) for a in attrs]
    return Relation(schema, dict(zip(attrs, columns)), len(keys))


def segments(ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by stratum: a stable argsort of ``ids`` and bounds such
    that ``order[bounds[k]:bounds[k + 1]]`` are the rows of stratum k in
    ascending order.  Up to 65536 strata the ids are sorted as ``uint16``,
    which NumPy sorts stably by radix sort; a stable sort's permutation is
    unique, so ``order`` does not depend on the type."""
    order = np.argsort(ids.astype(np.uint16) if count <= 65536 else ids, kind="stable")
    bounds = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.bincount(ids, minlength=count), out=bounds[1:])
    return order, bounds
