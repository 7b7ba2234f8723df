"""Materialize samples from an allocation plan.

Stratified samples draw, per stratum, a uniform without-replacement subset
of the stratum's rows, using an independent RNG substream derived from
(seed, stratum index) so draws are order-independent across strata.
Substream k is numpy's ``default_rng(SeedSequence([seed, k]))``, which
sample files depend on (a Poisson sample draws from substream 0).  For a
stratified draw, :func:`substream_states` computes the PCG64 seed state
of every stratum's substream in one array pass, by SeedSequence's
published hash and mix of 32-bit words, and each reaches ``PCG64``
through numpy's ``ISeedSequence`` interface, so no stratum builds a
SeedSequence of its own.
Poisson samples include each row independently with a row-specific
probability and carry the inverse-inclusion weight needed for unbiased
estimation.  A sampled row keeps every column of the relation, so the
sample can serve new groupings and query-time predicates.

Samples are columnar.  The sampled rows form one :class:`Relation`
(categorical columns stay encoded) next to an int64 array of their row
ids in the sampled relation; a Poisson sample adds a float64 array of
inclusion probabilities, and a stratified sample keeps its rows stratum
after stratum, with int64 arrays of each stratum's population ``n`` and
sample ``size`` and a relation of the strata's key values.  The tuple
forms (:attr:`StratifiedSample.strata`, :attr:`PoissonSample.row_ids` and
:attr:`PoissonSample.p`) are views derived from the columns on first
access; the benchmark is their only reader.

Sample file format (documented here; see also README): the first line is a
JSON header with the schema, method tag, seed and per-stratum metadata;
the remaining lines are CSV, written by :func:`dataset.csv_writer` and
read by :func:`dataset.read_columns`, the reader of :func:`dataset.load_csv`.
For stratified samples the CSV columns are ``stratum,row_id,<schema
columns>`` (stratum is the ordinal into the header's strata list); for
Poisson samples they are ``row_id,p,<schema columns>``; the CSV header
line must name exactly these.  Floats are written with 17 significant
digits and a cell holding a carriage return is quoted, so round-trips are
exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Sequence

import numpy as np

from .alloc import AllocationPlan
from .dataset import (
    CATEGORICAL,
    COLUMN_KINDS,
    ColumnSchema,
    GroupKey,
    Relation,
    csv_writer,
    frozen,
    key_relation,
    read_columns,
)
from .errors import (
    COUNT,
    INTEGER,
    LIST,
    NAMES,
    SEED,
    STRING,
    CorruptSampleFile,
    InvalidArgument,
    PlanMismatch,
    RateOutOfRange,
    SchemaMismatch,
    TypeParseError,
    check_seed,
    expect,
    member,
    members,
    open_text,
    stratum_keys,
)

_FLOAT = ".17g"


# numpy's SeedSequence constants: its pool of four 32-bit words is mixed
# with the (INIT_A, MULT_A) hash, and the state is drawn from it with the
# (INIT_B, MULT_B) hash
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(n: int) -> list[int]:
    """The 32-bit words of the non-negative int ``n``, least significant
    first, as SeedSequence splits an entropy int (0 is one word)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def substream_states(seed: int, indices) -> np.ndarray:
    """``SeedSequence([seed, k]).generate_state(4, np.uint64)`` for every
    index k of ``indices`` (each below 2**32), as the rows of one
    C-contiguous uint64 array.  The seed's words are the same for every k,
    so SeedSequence's hash constants are too, and each step of its
    algorithm runs once over all indices; uint32 array arithmetic wraps
    as its C code does."""
    check_seed(seed)  # a negative seed's words would never end
    index = np.asarray(indices, dtype=np.int64)
    if index.size and not 0 <= index.min() <= index.max() <= _MASK32:
        raise InvalidArgument("substream indices must lie in [0, 2**32)")
    index = index.astype(np.uint32)
    entropy = [np.full(index.shape, w, np.uint32) for w in _words(int(seed))] + [index]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(index.shape, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty(index.shape + (2 * _POOL,), dtype="<u4")
    const = _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[..., i] = value ^ (value >> np.uint32(16))
    # pairs of words, low word first, as SeedSequence builds a uint64
    return state.view("<u8").astype(np.uint64)


@cache
def _seeded() -> type:
    """The class of a seed sequence whose state is one precomputed row of
    :func:`substream_states`, which PCG64 asks for four uint64 words.
    Made on first use: numpy loads ``numpy.random`` only when asked, and
    importing the package should not."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.state

    return Seeded


def _generator(state: np.ndarray) -> np.random.Generator:
    """The generator ``default_rng`` builds from the seed sequence whose
    state is ``state``."""
    return np.random.Generator(np.random.PCG64(_seeded()(state)))


def _array(values, dtype) -> np.ndarray:
    """A read-only copy of ``values``."""
    return frozen(np.array(values, dtype=dtype))


@dataclass
class StratumSample:
    """One stratum of a stratified sample as tuples: a derived view, read
    only by the benchmark."""

    key: GroupKey
    n: int
    size: int
    row_ids: list[int]
    rows: list[tuple]


class StratifiedSample:
    """A stratified sample, held as columns.

    Stratum k has the value tuple ``keys[k]`` under ``group_attrs`` (also
    encoded as row k of the relation ``key_columns``), population ``n[k]``
    and ``size[k]`` sampled rows.  ``columns`` holds the sampled rows
    stratum after stratum in stratum order, and ``source_ids`` (int64)
    their row ids in the sampled relation.  Built from its first four
    arguments alone, a sample holds no strata.
    """

    def __init__(
        self,
        schema: Sequence[ColumnSchema],
        group_attrs: Sequence[str],
        method: str,
        seed: int,
        keys: Sequence[tuple] = (),
        n: Sequence[int] = (),
        size: Sequence[int] = (),
        columns: Relation | None = None,
        source_ids: Sequence[int] = (),
    ):
        self.schema = tuple(schema)
        self.group_attrs = tuple(group_attrs)
        self.method = method
        self.seed = seed
        self.keys = [tuple(key) for key in keys]
        self.key_columns = key_relation(self.group_attrs, self.keys)
        self.n = _array(n, np.int64)
        self.size = _array(size, np.int64)
        self.columns = Relation.from_records(schema, []) if columns is None else columns
        self.source_ids = _array(source_ids, np.int64)
        if self.columns.schema != self.schema or not (
            len(self.key_columns) == len(self.n) == len(self.size)
            and self.total_rows == len(self.columns) == len(self.source_ids)
        ):
            raise ValueError("strata and sampled rows do not match")

    @property
    def total_rows(self) -> int:
        return int(self.size.sum())

    @cached_property
    def row_strata(self) -> np.ndarray:
        """The stratum of every sampled row, read-only."""
        return frozen(np.repeat(np.arange(len(self.size)), self.size))

    @cached_property
    def expansion(self) -> np.ndarray:
        """Each stratum's expansion factor ``n / size`` as float64 (0 where
        the stratum holds no sampled row), read-only."""
        size = self.size.astype(np.float64)
        return frozen(np.divide(self.n, size, out=np.zeros(len(size)), where=size > 0))

    @cached_property
    def held(self) -> np.ndarray:
        """Whether each stratum holds a sampled row, read-only."""
        return frozen(self.size > 0)

    @cached_property
    def strata(self) -> list[StratumSample]:
        """Every stratum with its row ids and decoded rows as lists.  Its
        only reader is the benchmark; everything else reads the arrays."""
        rows = self.columns.records(np.arange(len(self.columns)))
        ids = self.source_ids.tolist()
        out, start = [], 0
        for key, n, size in zip(self.keys, self.n.tolist(), self.size.tolist()):
            end = start + size
            out.append(
                StratumSample(
                    GroupKey(self.group_attrs, key), n, size, ids[start:end], rows[start:end]
                )
            )
            start = end
        return out


class PoissonSample:
    """A Poisson sample, held as columns: the sampled rows ``columns``,
    their row ids in the sampled relation ``source_ids`` (int64) and their
    inclusion probabilities ``rates`` (float64).  ``row_ids`` and ``p`` are
    the same as lists, derived on first access; the benchmark is their only
    reader."""

    def __init__(
        self,
        seed: int,
        expected_size: float,
        columns: Relation,
        source_ids: Sequence[int],
        rates: Sequence[float],
    ):
        self.seed = seed
        self.expected_size = expected_size
        self.columns = columns
        self.source_ids = _array(source_ids, np.int64)
        self.rates = _array(rates, np.float64)
        if not len(columns) == len(self.source_ids) == len(self.rates):
            raise ValueError("one row id and rate per sampled row is required")

    @property
    def schema(self) -> tuple[ColumnSchema, ...]:
        return self.columns.schema

    @property
    def total_rows(self) -> int:
        return len(self.columns)

    @cached_property
    def expansion(self) -> np.ndarray:
        """Each sampled row's inverse inclusion probability ``1 / p``,
        read-only."""
        return frozen(1.0 / self.rates)

    @cached_property
    def row_ids(self) -> list[int]:
        return self.source_ids.tolist()

    @cached_property
    def p(self) -> list[float]:
        return self.rates.tolist()


def draw_stratified(rel: Relation, plan: AllocationPlan, seed: int) -> StratifiedSample:
    """Draw the per-stratum uniform subsets prescribed by a plan.

    Deterministic given (relation, plan, seed); raises PlanMismatch when
    the plan's strata do not cover the relation's partition exactly once.
    """
    check_seed(seed)
    strata = rel.strata(plan.group_attrs)
    position = {values: k for k, values in enumerate(strata.keys)}
    planned = [key.values for key in plan.keys]
    if len(planned) != len(position) or set(position) != set(planned):
        raise PlanMismatch(
            "plan strata do not match the relation's partition "
            f"({len(plan.keys)} plan strata, {len(position)} in relation)"
        )
    at = np.array([position[values] for values in planned], dtype=np.intp)
    start, n = strata.bounds[at], np.diff(strata.bounds)[at]
    size = np.asarray(plan.sizes, dtype=np.int64)
    over = np.flatnonzero(size > n)
    if len(over):
        idx = over[0]
        raise PlanMismatch(
            f"stratum {plan.keys[idx]} allocates {size[idx]} rows but holds only {n[idx]}"
        )
    # offset[j] is sampled row j's rank in its stratum's rows: 0, 1, ... in
    # a stratum taken whole, the picks of its substream in one drawn in
    # part, then sorted; the sampled rows go stratum after stratum in plan
    # order
    taken = np.maximum(size, 0)
    lead = np.cumsum(taken) - taken  # each stratum's first sampled row
    stratum = np.repeat(np.arange(len(at)), taken)
    offset = np.arange(len(stratum)) - lead[stratum]
    drawn = np.flatnonzero((size > 0) & (size < n))
    for state, first, n_k, s_k in zip(
        substream_states(seed, drawn), lead[drawn].tolist(), n[drawn].tolist(),
        size[drawn].tolist(),
    ):
        offset[first : first + s_k] = _generator(state).choice(n_k, s_k, replace=False)
    offset = offset[np.lexsort((offset, stratum))]
    rows = strata.order[start[stratum] + offset]
    return StratifiedSample(
        rel.schema,
        plan.group_attrs,
        plan.method,
        seed,
        planned,
        n,
        plan.sizes,
        rel.take(rows),
        rows,
    )


def draw_poisson(rel: Relation, p: np.ndarray, seed: int) -> PoissonSample:
    """Include each row independently with probability p[row]."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[0] != rel.n_rows:
        raise RateOutOfRange("one inclusion probability per row is required")
    if np.any(p < 0) or np.any(p > 1):
        raise RateOutOfRange("inclusion probabilities must lie in [0, 1]")
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    u = rng.random(rel.n_rows)
    taken = np.flatnonzero(u < p)
    return PoissonSample(seed, float(p.sum()), rel.take(taken), taken, p[taken])


# ---------------------------------------------------------------------------
# persistence


def _schema_doc(schema: Sequence[ColumnSchema]) -> list[dict]:
    return [{"name": c.name, "kind": c.kind} for c in schema]


def _cells(rel: Relation) -> list[list[str]]:
    """The CSV cells of every column: categorical values as they are,
    numbers with 17 significant digits."""
    return [
        rel.categorical(c.name)
        if c.kind == CATEGORICAL
        else [format(v, _FLOAT) for v in rel.numeric(c.name).tolist()]
        for c in rel.schema
    ]


#: per kind of sample file, the :func:`read_columns` fields of its leading columns
_LEAD = {
    "stratified": (("stratum", 0, int), ("row_id", 1, int)),
    "poisson": (("row_id", 0, int), ("p", 1, float)),
}


def save_sample(sample: StratifiedSample | PoissonSample, path) -> None:
    if isinstance(sample, StratifiedSample):
        header = {
            "kind": "stratified",
            "method": sample.method,
            "seed": sample.seed,
            "schema": _schema_doc(sample.schema),
            "group_attrs": list(sample.group_attrs),
            "strata": [
                {"key": list(key), "n": n, "s": s}
                for key, n, s in zip(
                    sample.keys, sample.n.tolist(), sample.size.tolist()
                )
            ],
        }
        lead = [sample.row_strata.tolist(), sample.source_ids.tolist()]
    else:
        header = {
            "kind": "poisson",
            "method": "individual",
            "seed": sample.seed,
            "schema": _schema_doc(sample.schema),
            "expected_size": format(sample.expected_size, _FLOAT),
            "rows": sample.total_rows,
        }
        rates = [format(pr, _FLOAT) for pr in sample.rates.tolist()]
        lead = [sample.source_ids.tolist(), rates]
    buf = io.StringIO()
    writer = csv_writer(buf)
    writer.writerow([name for name, *_ in _LEAD[header["kind"]]] + [c.name for c in sample.schema])
    writer.writerows(zip(*lead, *_cells(sample.columns)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(buf.getvalue())


def _is_size(value) -> bool:
    """Whether ``value`` is an ``expected_size`` as :func:`save_sample`
    writes it: a finite non-negative number as a string."""
    try:
        return isinstance(value, str) and 0.0 <= float(value) < math.inf
    except ValueError:
        return False


def load_sample(path, expect_schema: Sequence[ColumnSchema] | None = None):
    """Load a sample file; returns a StratifiedSample or PoissonSample.

    Raises CorruptSampleFile on a header that is not JSON, on a CSV header
    line other than the columns of :data:`_LEAD` and the schema's, on
    malformed or truncated rows and on a row whose group values differ
    from its stratum's key, InvalidDocument naming the file and the field
    on a header field of the wrong type (or a repeated column name or
    stratum key), SchemaMismatch when ``expect_schema`` is given and
    differs from the stored schema, and UnreadableFile on a file that
    cannot be read as text (see :func:`errors.open_text`).  Categorical
    cells are kept as written.
    """
    source = str(path)
    get = partial(member, source)
    with open_text(path, newline="") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise CorruptSampleFile(f"{path}: bad header ({exc})") from None
        kinds = (lambda v: v in ("stratified", "poisson"), "'stratified' or 'poisson'")
        kind = get(header, "", "kind", *kinds)
        get(header, "", "method", *STRING)  # both kinds carry these two
        get(header, "", "seed", *SEED)
        schema = tuple(
            ColumnSchema(get(c, f"schema[{i}]", "name", *STRING),
                         get(c, f"schema[{i}]", "kind", *COLUMN_KINDS))
            for i, c in enumerate(get(header, "", "schema", *LIST))
        )
        expect(source, [c.name for c in schema], "schema", NAMES[0], "columns with distinct names")
        if expect_schema is not None and tuple(expect_schema) != schema:
            raise SchemaMismatch(f"{path}: stored schema differs from expected schema")
        fields = [*_LEAD[kind], *((c.name, j, c.kind) for j, c in enumerate(schema, 2))]
        names = [name for name, *_ in fields]
        found = next(csv.reader(fh), [])  # [] when the file ends at the JSON line
        if found != names:
            raise CorruptSampleFile(f"{path}: CSV header line is {found}, expected {names}")

        def ragged(row: int, cells: int) -> CorruptSampleFile:
            width = len(names)
            return CorruptSampleFile(f"{path}: data row {row} has {cells} cells, expected {width}")

        try:
            n_rows, (first, second, *columns) = read_columns(
                fh, _past_header, len(names), fields, None, ragged
            )
        except TypeParseError as exc:
            raise CorruptSampleFile(
                f"{path}: data row {exc.row}: {exc.column} is {exc.value!r}, not {exc.expected}"
            ) from None
    rows = Relation(schema, dict(zip(names[2:], columns)), n_rows)
    load = _load_stratified if kind == "stratified" else _load_poisson
    return load(header, schema, first, second, rows, source)


def _past_header(fh) -> None:
    """Read a sample file's two header lines, the JSON line and the CSV one."""
    fh.readline()
    next(csv.reader(fh), None)


def _load_stratified(header, schema, stratum, ids, columns, path: str) -> StratifiedSample:
    get = partial(member, path)
    categorical = {c.name for c in schema if c.kind == CATEGORICAL}
    attrs = (lambda v: NAMES[0](v) and set(v) <= categorical, "distinct categorical columns")
    group_attrs = tuple(get(header, "", "group_attrs", *attrs))
    strata = get(header, "", "strata", *LIST)
    keys = stratum_keys(path, strata, [len(group_attrs)] * len(strata))
    # a negative n is below any sample size: the population check names it
    n = members(path, strata, "strata", "n", *INTEGER)
    size = members(path, strata, "strata", "s", *COUNT)
    outside = np.flatnonzero((stratum < 0) | (stratum >= len(keys)))
    if len(outside):
        i = outside[0]
        raise CorruptSampleFile(
            f"{path}: data row {i} names stratum {stratum[i]}, "
            f"outside [0, {len(keys)})"
        )
    held = np.bincount(stratum, minlength=len(keys)).tolist()
    for values, h, pop, s in zip(keys, held, n, size):
        if h != s:
            raise CorruptSampleFile(
                f"{path}: stratum {GroupKey(group_attrs, values)} has {h} rows, "
                f"header declares {s}"
            )
        if pop < s:
            raise CorruptSampleFile(
                f"{path}: stratum {GroupKey(group_attrs, values)} samples {s} rows "
                f"of a population of {pop}"
            )
    _check_row_keys(group_attrs, keys, stratum, columns, path)
    # stratum after stratum, file order within each
    order = np.argsort(stratum, kind="stable")
    return StratifiedSample(
        schema,
        group_attrs,
        header["method"],
        header["seed"],
        keys,
        n,
        size,
        columns.take(order),
        ids[order],
    )


def _check_row_keys(group_attrs, keys, stratum, columns: Relation, path: str) -> None:
    """Every row's value of each group attribute must be its stratum's:
    row r's code must equal the code of ``keys[stratum[r]]`` in that column
    (-1 for a key value no row holds)."""
    for j, attr in enumerate(group_attrs):
        codes, levels = columns.encoded(attr)
        code_of = {value: code for code, value in enumerate(levels)}
        key_codes = np.array([code_of.get(key[j], -1) for key in keys], dtype=np.intp)
        wrong = np.flatnonzero(codes != key_codes[stratum])
        if len(wrong):
            i, k = wrong[0], stratum[wrong[0]]
            raise CorruptSampleFile(
                f"{path}: data row {i} has {attr} = {levels[codes[i]]!r}, but its "
                f"stratum {k} is {GroupKey(group_attrs, keys[k])}"
            )


def _load_poisson(header, schema, row_ids, p, columns, path: str) -> PoissonSample:
    get = partial(member, path, header, "")
    expected_size = float(get("expected_size", _is_size, "a non-negative number as a string"))
    declared = get("rows", *COUNT, default=None)
    outside = np.flatnonzero(~((p > 0.0) & (p <= 1.0)))  # NaN is outside too
    if len(outside):
        i = outside[0]
        raise CorruptSampleFile(
            f"{path}: row {row_ids[i]} has inclusion probability {p[i]}, "
            "outside (0, 1]"
        )
    if declared is not None and len(columns) != declared:
        raise CorruptSampleFile(
            f"{path}: {len(columns)} rows read, header declares {declared}"
        )
    return PoissonSample(header["seed"], expected_size, columns, row_ids, p)
