"""In-memory typed relations and stratification by categorical attributes.

A :class:`Relation` is an immutable table with categorical columns (strings)
and numeric columns (float64).  Rows are identified by a stable ordinal
``row_id`` in file order; every pass over the data iterates in row_id order
so that downstream artifacts are reproducible.

Missing categorical cells are mapped to the sentinel :data:`NULL_TOKEN`,
which forms its own stratum.  Missing numeric cells are a parse error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyFile,
    InvalidArgument,
    MissingColumn,
    NotASubset,
    TypeParseError,
    UnknownAttribute,
    UnknownColumn,
)

NULL_TOKEN = "⟨null⟩"

CATEGORICAL = "categorical"
NUMERIC = "numeric"


@dataclass(frozen=True)
class ColumnSchema:
    """Name and kind (categorical or numeric) of one column."""

    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC):
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

    def project(self, target_attrs: Sequence[str]) -> "GroupKey":
        """Restrict this key to ``target_attrs`` (must be a subset of attrs),
        preserving the declared order of ``target_attrs``."""
        lookup = dict(zip(self.attrs, self.values))
        missing = [a for a in target_attrs if a not in lookup]
        if missing:
            raise NotASubset(f"attributes {missing} not part of key {self}")
        return GroupKey(tuple(target_attrs), tuple(lookup[a] for a in target_attrs))

    def __str__(self):
        if not self.attrs:
            return "(*)"
        return "(" + ", ".join(f"{a}={v}" for a, v in zip(self.attrs, self.values)) + ")"


def project_key(key: GroupKey, target_attrs: Sequence[str]) -> GroupKey:
    """Functional form of :meth:`GroupKey.project`."""
    return key.project(target_attrs)


class Relation:
    """An immutable table: categorical columns as string lists, numeric
    columns as float64 arrays.  ``row_id`` is the 0-based position."""

    def __init__(self, schema: Sequence[ColumnSchema], columns: Mapping[str, object]):
        names = [c.name for c in schema]
        if len(set(names)) != len(names):
            raise InvalidArgument("duplicate column names in schema")
        self.schema = tuple(schema)
        self._columns: dict[str, object] = {}
        sizes = set()
        for col in schema:
            data = columns[col.name]
            if col.kind == NUMERIC:
                arr = np.asarray(data, dtype=np.float64)
                arr.setflags(write=False)
                self._columns[col.name] = arr
                sizes.add(arr.shape[0])
            else:
                vals = list(data)
                self._columns[col.name] = vals
                sizes.add(len(vals))
        if len(sizes) > 1:
            raise ValueError("columns have unequal lengths")
        self.n_rows = sizes.pop() if sizes else 0

    # -- schema helpers ---------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema)

    def kind_of(self, name: str) -> str | None:
        for c in self.schema:
            if c.name == name:
                return c.kind
        return None

    def categorical(self, name: str) -> list[str]:
        if self.kind_of(name) != CATEGORICAL:
            raise UnknownAttribute(name)
        return self._columns[name]

    def numeric(self, name: str) -> np.ndarray:
        if self.kind_of(name) != NUMERIC:
            raise UnknownColumn(name)
        return self._columns[name]

    def record(self, row_id: int) -> tuple:
        """Full row as a tuple of values in schema order."""
        return tuple(self._columns[c.name][row_id] for c in self.schema)

    def __len__(self):
        return self.n_rows

    @classmethod
    def from_records(
        cls, schema: Sequence[ColumnSchema], records: Iterable[Sequence]
    ) -> "Relation":
        cols: dict[str, list] = {c.name: [] for c in schema}
        for rec in records:
            for c, v in zip(schema, rec):
                cols[c.name].append(v)
        return cls(schema, cols)


def _parse_cell(raw: str, col: ColumnSchema, row_id: int):
    if col.kind == CATEGORICAL:
        v = raw.strip()
        return v if v else NULL_TOKEN
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise TypeParseError(row_id, col.name, raw) from None
    if not math.isfinite(value):
        raise TypeParseError(row_id, col.name, raw)
    return value


def load_csv(path, schema: Sequence[ColumnSchema]) -> Relation:
    """Load a comma-separated UTF-8 file with a header row into a Relation.

    The header must contain every schema column (extra columns are ignored).
    Numeric cells that fail to parse, including empty ones, raise
    :class:`TypeParseError`; a file with a valid header but no data rows
    raises :class:`EmptyFile`.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
        header = [h.strip() for h in header]
        positions = {}
        for col in schema:
            if col.name not in header:
                raise MissingColumn(col.name)
            positions[col.name] = header.index(col.name)

        cols: dict[str, list] = {c.name: [] for c in schema}
        row_id = 0
        for raw_row in reader:
            for col in schema:
                idx = positions[col.name]
                raw = raw_row[idx] if idx < len(raw_row) else ""
                cols[col.name].append(_parse_cell(raw, col, row_id))
            row_id += 1
    if row_id == 0:
        raise EmptyFile(f"{path}: header only, no data rows")
    return Relation(schema, cols)


def partition(rel: Relation, attrs: Sequence[str]) -> dict[GroupKey, list[int]]:
    """Partition row ids into strata keyed by the values of ``attrs``.

    Every row falls in exactly one bucket; buckets are nonempty and keyed in
    first-occurrence order.  An empty attribute list yields a single stratum
    holding every row.
    """
    attrs = tuple(attrs)
    for a in attrs:
        if rel.kind_of(a) != CATEGORICAL:
            raise UnknownAttribute(a)
    if not attrs:
        return {GroupKey((), ()): list(range(rel.n_rows))}
    columns = [rel.categorical(a) for a in attrs]
    buckets: dict[tuple[str, ...], list[int]] = {}
    for i in range(rel.n_rows):
        values = tuple(col[i] for col in columns)
        buckets.setdefault(values, []).append(i)
    return {GroupKey(attrs, values): rows for values, rows in buckets.items()}


def stratum_ids(
    rel: Relation, attrs: Sequence[str]
) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """The stratum id of every row under ``attrs`` and the values of every
    stratum, without per-stratum row lists.

    Strata are numbered in the order :func:`partition` keys them (first
    occurrence); an empty attribute list yields one stratum of every row.
    """
    columns = [rel.categorical(a) for a in attrs]
    if not columns:
        return np.zeros(rel.n_rows, dtype=np.intp), [()]
    ids: dict[tuple[str, ...], int] = {}
    row_ids = np.fromiter(
        (ids.setdefault(values, len(ids)) for values in zip(*columns)),
        dtype=np.intp,
        count=rel.n_rows,
    )
    return row_ids, list(ids)
