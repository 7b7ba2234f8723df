"""Row-at-a-time and stratum-at-a-time reference forms of the package's
kernels.

The package numbers strata with :func:`gbsample.dataset.stratum_ids`, walks
them as slices of one sorted row order, and keeps their statistics as
arrays indexed by stratum.  The functions here do the same work the plain
way, one Python tuple per row and one ``GroupKey -> Stratum`` dict item
per stratum, so the tests can check the kernels against them with
``==``.  :class:`RunningMoments` is the scalar moment accumulator of the
Welford and Chan-Golub-LeVeque oracles, and :func:`predicted_group_cv` the
one-group form of :func:`gbsample.alloc.predicted_group_cvs`.
:func:`senate_shares` computes the senate baseline's equal split by its
own loop, and :func:`l2_sizes` the integer l2 allocation by a search for
mu that runs to float resolution from the largest cost, with :func:`shed`
taking a floor per stratum.  :func:`l2_objective` adds the l2 objective's
terms by a loop, the oracle of the package's in-order fold.
:func:`shed` is the heap of greedy removals, one unit at a time, that
the package's array selection of the cheapest removals replaced in every
l2 plan, stream settle and minimax plan, kept as its oracle;
:func:`plan_linf` is the minimax plan with that heap finish, and
:func:`inclusion_rates` the Poisson rates with the join over the fine
strata's value tuples re-encoded as a key relation, which the join on
the relation's own codes replaced.  The cost loops square every value
as ``v * v``, the correctly rounded square the package's kernels take.
:func:`load_csv` is the row-at-a-time loader the package's chunked one
replaced, kept verbatim as the oracle of its relations and errors, and
:func:`load_sample` the row-at-a-time sample reader, the oracle of the
samples' round trip.
:func:`first_occurrence_ids` and :func:`segments` are the stratum kernels
by ``np.unique`` and by a stable argsort of ``intp`` ids.
:func:`_group_by` and :func:`_inputs` are the group-by kernel that
gathered the kept rows (a full slice when there is no predicate) and
expanded an identity cell per row, which the row-weighted kernel
replaced, kept verbatim as its oracle.  :func:`estimate` and
:func:`exact_answer` run on them and order and gather the groups of an
answer the plain way, with ``np.unique`` and one key at a time.
:func:`stratum_fields` reads a sample header's strata one at a time with
:func:`gbsample.errors.member`, the oracle of the errors the package
raises after checking each field of every stratum in one pass.
:func:`ingest_batch` is the stream's record-fed ingest, which the one that
reads row ranges of a relation replaced, kept as its oracle; it draws its
keys from the state's generator, as the package does.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from gbsample.alloc import (
    LINF,
    UNIT_WEIGHTS,
    AllocationPlan,
    FinestStratification,
    GroupQuery,
    PerQueryAllocation,
    WeightSpec,
    _largest_above,
    _pinned_plan,
    _zero_mean_split,
    check_budget,
    cv2_costs,
    finest_from_catalog,
    floor_zero_costs,
    solve_fractional,
    unified_inclusion,
)
from gbsample.dataset import (
    CATEGORICAL,
    COLUMN_KINDS,
    NULL_TOKEN,
    NUMERIC,
    ColumnSchema,
    Encoded,
    GroupKey,
    Relation,
    encode,
    encode_into,
    frozen,
    key_relation,
)
from gbsample.errors import (
    COUNT as COUNT_CHECK,
    INTEGER,
    LIST,
    NAMES,
    SEED,
    STRING,
    STRINGS,
    AllStrataConstant,
    CorruptSampleFile,
    EmptyFile,
    FloatOverflow,
    InvalidArgument,
    InvalidDocument,
    MissingColumn,
    NotASubset,
    SchemaMismatch,
    TypeParseError,
    UnknownAttribute,
    ZeroMeanCoarseGroup,
    ZeroMeanGroup,
    ZeroMeanStratum,
    expect,
    member,
    members,
    open_text,
    stratum_keys,
)
from gbsample.query import AVG, COUNT, SUM, Answer, QueryRequest
from gbsample.sampler import (
    PoissonSample,
    StratifiedSample,
    _check_row_keys,
    _is_size,
    draw_stratified,
)
from gbsample.stats import StatsCatalog, compute_catalog
from gbsample.stream import (
    RETAINED,
    StreamState,
    _observe,
    _squared_cvs,
    offline_plan,
    settle_budget,
)
from gbsample.workload import QuerySpec


def load_csv(path, schema: Sequence[ColumnSchema]) -> Relation:
    """Load a comma-separated UTF-8 file with a header row into a Relation.

    The header must contain every schema column (extra columns are ignored).
    Categorical cells are trimmed and encoded as they are read; an empty
    one becomes :data:`NULL_TOKEN`.  Numeric cells that fail to parse,
    including empty and non-finite ones, raise :class:`TypeParseError`; a
    file with a valid header but no data rows raises :class:`EmptyFile`,
    and one that cannot be read as text :class:`UnreadableFile` (see
    :func:`errors.open_text`).
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
        header = [h.strip() for h in header]
        for col in schema:
            if col.name not in header:
                raise MissingColumn(col.name)
        # per column: name, position in the header, then its accumulators
        cats = [
            (c.name, header.index(c.name), {}, [])
            for c in schema
            if c.kind == CATEGORICAL
        ]
        nums = [
            (c.name, header.index(c.name), []) for c in schema if c.kind == NUMERIC
        ]

        row_id = 0
        for raw_row in reader:
            width = len(raw_row)
            for _, idx, index, codes in cats:
                value = raw_row[idx].strip() if idx < width else ""
                codes.append(index.setdefault(value or NULL_TOKEN, len(index)))
            for name, idx, values in nums:
                raw = raw_row[idx] if idx < width else ""
                try:
                    value = float(raw)
                except ValueError:
                    raise TypeParseError(row_id, name, raw) from None
                if not math.isfinite(value):
                    raise TypeParseError(row_id, name, raw)
                values.append(value)
            row_id += 1
    if row_id == 0:
        raise EmptyFile(f"{path}: header only, no data rows")
    columns: dict[str, object] = {name: values for name, _, values in nums}
    for name, _, index, codes in cats:
        columns[name] = Encoded(frozen(np.array(codes, dtype=np.intp)), tuple(index))
    return Relation(schema, columns)


def first_occurrence_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gbsample.dataset.first_occurrence_ids` by ``np.unique``: the
    sorted distinct values ranked by their first positions."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return rank[inverse], first[order]


def segments(ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gbsample.dataset.segments` by a stable argsort of the ids as
    ``intp``."""
    order = np.argsort(ids.astype(np.intp), kind="stable")
    bounds = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.bincount(ids, minlength=count), out=bounds[1:])
    return order, bounds


def partition(rel: Relation, attrs: Sequence[str]) -> dict[GroupKey, list[int]]:
    """Partition row ids into strata keyed by the values of ``attrs``.

    Every row falls in exactly one bucket; buckets are nonempty and keyed in
    first-occurrence order.  An empty attribute list yields a single stratum
    holding every row, and none when there are no rows.
    """
    attrs = tuple(attrs)
    for a in attrs:
        if rel.kind_of(a) != CATEGORICAL:
            raise UnknownAttribute(a)
    if not attrs:
        return {GroupKey((), ()): list(range(rel.n_rows))} if rel.n_rows else {}
    columns = [rel.categorical(a) for a in attrs]
    buckets: dict[tuple, list[int]] = {}
    for i in range(rel.n_rows):
        values = tuple(col[i] for col in columns)
        buckets.setdefault(values, []).append(i)
    return {GroupKey(attrs, values): rows for values, rows in buckets.items()}


def key_ids(records: Sequence[tuple], positions: Sequence[int]):
    """First-occurrence ids of the value tuples ``records`` hold at
    ``positions``, and those tuples in id order: the strata of
    :func:`gbsample.dataset.key_relation` one Python tuple at a time."""
    columns = [[r[i] for r in records] for i in positions]
    keys = zip(*columns) if columns else (() for _ in records)
    ids: dict[tuple, int] = {}
    numbered = (ids.setdefault(key, len(ids)) for key in keys)
    return np.fromiter(numbered, dtype=np.intp, count=len(records)), list(ids)


def project_key(key: GroupKey, target_attrs: Sequence[str]) -> GroupKey:
    """Restrict ``key`` to ``target_attrs`` (a subset of its attributes),
    in the order of ``target_attrs``."""
    lookup = dict(zip(key.attrs, key.values))
    missing = [a for a in target_attrs if a not in lookup]
    if missing:
        raise NotASubset(f"attributes {missing} not part of key {key}")
    return GroupKey(tuple(target_attrs), tuple(lookup[a] for a in target_attrs))


@dataclass(frozen=True)
class RunningMoments:
    """Count, mean and sum of squared deviations (m2) of a value stream."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @property
    def std(self) -> float:
        """The (n - 1)-divisor standard deviation; 0 when count <= 1."""
        return math.sqrt(max(self.m2 / (self.count - 1), 0.0)) if self.count > 1 else 0.0


EMPTY_MOMENTS = RunningMoments()


def accumulate(m: RunningMoments, x: float) -> RunningMoments:
    """Fold one value into the moments (Welford update)."""
    count = m.count + 1
    delta = x - m.mean
    mean = m.mean + delta / count
    m2 = m.m2 + delta * (x - mean)
    return RunningMoments(count, mean, m2)


def from_values(values: Iterable[float]) -> RunningMoments:
    """Moments by folding the values one at a time (Welford)."""
    m = EMPTY_MOMENTS
    for x in values:
        m = accumulate(m, x)
    return m


def build_finest(rel: Relation, queries: Sequence[GroupQuery]) -> FinestStratification:
    """The union stratification of ``queries`` computed from the relation."""
    union_attrs: list[str] = []
    all_columns: list[str] = []
    for q in queries:
        for a in q.attrs:
            if a not in union_attrs:
                union_attrs.append(a)
        for c in q.columns:
            if c not in all_columns:
                all_columns.append(c)
    fine = compute_catalog(rel, union_attrs, all_columns)
    return finest_from_catalog(fine, queries)


@dataclass(frozen=True)
class Stratum:
    """One stratum's row count and, per aggregation column, its mean and
    (n - 1)-divisor standard deviation."""

    n: int
    mean: dict[str, float]
    std: dict[str, float]


#: per stratum in catalog order, its key and summary
Summaries = dict[GroupKey, Stratum]


def catalog_summaries(rel: Relation, attrs: Sequence[str], columns: Sequence[str]) -> Summaries:
    """:func:`gbsample.stats.compute_catalog`, stratum by stratum over
    :func:`partition`'s row lists, with the moments from ``np.mean`` and
    ``np.sum``."""
    out = {}
    for key, rows in partition(rel, attrs).items():
        idx = np.asarray(rows, dtype=np.intp)
        mean, std = {}, {}
        for col in columns:
            x = rel.numeric(col)[idx]
            mean[col] = float(np.mean(x)) if len(rows) else 0.0
            m2 = float(np.sum((x - mean[col]) ** 2))
            std[col] = RunningMoments(len(rows), mean[col], m2).std
        out[key] = Stratum(len(rows), mean, std)
    return out


def summaries_of(catalog: StatsCatalog) -> Summaries:
    """The arrays ``keys``, ``n``, ``mean`` and ``std`` of ``catalog``,
    stratum by stratum."""
    out = {}
    for k, values in enumerate(catalog.keys):
        mean = {c: float(catalog.mean[c][k]) for c in catalog.agg_columns}
        std = {c: float(catalog.std[c][k]) for c in catalog.agg_columns}
        out[GroupKey(catalog.group_attrs, values)] = Stratum(int(catalog.n[k]), mean, std)
    return out


def draw(rel: Relation, plan: AllocationPlan, seed: int) -> list[tuple]:
    """:func:`gbsample.sampler.draw_stratified` over :func:`partition`'s
    row lists: (key values, n, size, row ids, rows) per plan stratum, the
    form of :func:`stratum_lists`."""
    buckets = partition(rel, plan.group_attrs)
    out = []
    for idx, key in enumerate(plan.keys):
        rows = buckets[key]
        s_i = int(plan.sizes[idx])
        if s_i == 0:
            chosen = []
        elif s_i == len(rows):
            chosen = list(rows)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
            pool = np.asarray(rows, dtype=np.int64)
            chosen = sorted(rng.choice(pool, size=s_i, replace=False).tolist())
        out.append((key.values, len(rows), s_i, chosen, rel.records(chosen)))
    return out


def draw_poisson(rel: Relation, p, seed: int) -> tuple[list, list, list]:
    """:func:`gbsample.sampler.draw_poisson` one row at a time: the row ids,
    rows and inclusion probabilities of the rows whose uniform draw falls
    below their probability, the form of :func:`poisson_lists`."""
    u = np.random.default_rng(np.random.SeedSequence([seed, 0])).random(rel.n_rows)
    taken = [r for r in range(rel.n_rows) if u[r] < p[r]]
    return taken, rel.records(taken), [float(p[r]) for r in taken]


def stratum_fields(source: str, strata: list, width: int) -> tuple[list, list, list]:
    """The keys, ``n`` and ``s`` of a stratified sample header's
    ``strata``, read one stratum at a time with :func:`member`: every key
    (a list of ``width`` strings, then compared with the keys before it),
    then every ``n``, then every ``s``; the first bad field raises its
    :class:`InvalidDocument`."""
    keys, seen = [], set()
    for i, item in enumerate(strata):
        at = f"strata[{i}]"
        ok = lambda v: STRINGS[0](v) and len(v) == width  # noqa: E731
        key = tuple(member(source, item, at, "key", ok, f"a list of {width} strings"))
        if key in seen:
            raise InvalidDocument(f"{source}: {at}.key: repeats stratum {list(key)!r}")
        seen.add(key)
        keys.append(key)
    n = [member(source, item, f"strata[{i}]", "n", *INTEGER) for i, item in enumerate(strata)]
    s = [member(source, item, f"strata[{i}]", "s", *COUNT_CHECK) for i, item in enumerate(strata)]
    return keys, n, s


def stratum_lists(sample: StratifiedSample) -> list[tuple]:
    """(key values, n, size, row ids, rows) per stratum of a stratified
    sample, split from its arrays ``keys``, ``n``, ``size``, ``source_ids``
    and ``columns``."""
    rows = sample.columns.records(np.arange(sample.total_rows))
    ids = sample.source_ids.tolist()
    bounds = np.concatenate(([0], np.cumsum(sample.size))).tolist()
    return [
        (key, n, size, ids[lo:hi], rows[lo:hi])
        for key, n, size, lo, hi in zip(
            sample.keys, sample.n.tolist(), sample.size.tolist(), bounds, bounds[1:]
        )
    ]


def poisson_lists(sample: PoissonSample) -> tuple[list, list, list]:
    """The row ids, rows and inclusion probabilities of a Poisson sample as
    lists, from its arrays ``source_ids``, ``columns`` and ``rates``."""
    rows = sample.columns.records(np.arange(sample.total_rows))
    return sample.source_ids.tolist(), rows, sample.rates.tolist()


def load_sample(path):
    """:func:`gbsample.sampler.load_sample` as it was before it read its
    body by :func:`gbsample.dataset.read_columns`: every row of the CSV
    body as one list of cells (``list(csv.reader)``), checked for width
    row by row, then every cell parsed by its own ``float`` or ``int``
    call.  It opens the file with ``newline=""``, so that a quoted
    carriage return stays in its cell, and skips the CSV header line
    unread.  The oracle of the sample files' round trip and of the class
    of the error a corrupted file raises."""
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
        reader = csv.reader(fh)
        try:
            next(reader)  # CSV column header
        except StopIteration:
            raise CorruptSampleFile(f"{path}: missing CSV body") from None
        rows = list(reader)
    load = _stratified_sample if kind == "stratified" else _poisson_sample
    try:
        return load(header, schema, rows, source)
    except ValueError as exc:
        raise CorruptSampleFile(f"{path}: malformed row ({exc})") from None


def _sample_rows(schema, rows: list[list[str]], path) -> tuple[tuple, tuple, Relation]:
    """The two leading CSV columns of ``rows`` as tuples of cells, and the
    schema columns after them as a relation.  Every row must have one cell
    per column and every numeric cell must parse as a finite number."""
    width = 2 + len(schema)
    for i, cells in enumerate(rows):
        if len(cells) != width:
            raise CorruptSampleFile(
                f"{path}: data row {i} has {len(cells)} cells, expected {width}"
            )
    first, second, *cells = list(zip(*rows)) or [()] * width
    columns: dict[str, object] = {}
    for col, col_cells in zip(schema, cells):
        if col.kind == CATEGORICAL:
            columns[col.name] = encode(col_cells)
            continue
        values = np.array([float(c) for c in col_cells], dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise CorruptSampleFile(
                f"{path}: data row {bad[0]}: {col.name} is {col_cells[bad[0]]!r}, "
                "not a finite number"
            )
        columns[col.name] = values
    return first, second, Relation(schema, columns, len(rows))


def _stratified_sample(header, schema, rows, path: str) -> StratifiedSample:
    get = partial(member, path)
    categorical = {c.name for c in schema if c.kind == CATEGORICAL}
    attrs = (lambda v: NAMES[0](v) and set(v) <= categorical, "distinct categorical columns")
    group_attrs = tuple(get(header, "", "group_attrs", *attrs))
    strata = get(header, "", "strata", *LIST)
    keys = stratum_keys(path, strata, [len(group_attrs)] * len(strata))
    # a negative n is below any sample size: the population check names it
    n = members(path, strata, "strata", "n", *INTEGER)
    size = members(path, strata, "strata", "s", *COUNT_CHECK)
    ordinals, row_ids, columns = _sample_rows(schema, rows, path)
    stratum = np.array([int(c) for c in ordinals], dtype=np.int64)
    outside = np.flatnonzero((stratum < 0) | (stratum >= len(keys)))
    if len(outside):
        i = outside[0]
        raise CorruptSampleFile(
            f"{path}: data row {i} names stratum {ordinals[i]}, "
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
    ids = np.array([int(c) for c in row_ids], dtype=np.int64)
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


def _poisson_sample(header, schema, rows, path: str) -> PoissonSample:
    get = partial(member, path, header, "")
    expected_size = float(get("expected_size", _is_size, "a non-negative number as a string"))
    declared = get("rows", *COUNT_CHECK, default=len(rows))
    row_ids, rates, columns = _sample_rows(schema, rows, path)
    p = np.array([float(c) for c in rates], dtype=np.float64)
    outside = np.flatnonzero(~((p > 0.0) & (p <= 1.0)))  # NaN is outside too
    if len(outside):
        i = outside[0]
        raise CorruptSampleFile(
            f"{path}: row {row_ids[i]} has inclusion probability {rates[i]}, "
            "outside (0, 1]"
        )
    if len(rows) != declared:
        raise CorruptSampleFile(
            f"{path}: {len(rows)} rows read, header declares {declared}"
        )
    return PoissonSample(
        header["seed"],
        expected_size,
        columns,
        [int(c) for c in row_ids],
        p,
    )


def aggregation_groups(rel: Relation, workload: Sequence[QuerySpec]) -> list[tuple]:
    """:func:`gbsample.workload.derive_aggregation_groups` over
    :func:`partition`'s row lists: (column, group attributes, group values,
    ascending member rows, frequency, inducers as (query index, group
    values)) per entity, in order of first induction; entities are told
    apart by column and member-row set."""
    entities: dict[tuple, list] = {}
    for qidx, query in enumerate(workload):
        mask = None if query.predicate is None else query.predicate.mask(rel)
        for key, rows in partition(rel, query.group_attrs).items():
            members = frozenset(r for r in rows if mask is None or mask[r])
            if not members:
                continue
            for col in query.agg_columns:
                entity = entities.setdefault(
                    (col, members), [col, key.attrs, key.values, sorted(members), 0, []]
                )
                entity[4] += query.repeats
                entity[5].append((qidx, key.values))
    return [tuple(e) for e in entities.values()]


# ---------------------------------------------------------------------------
# moments, pooling and cost coefficients, one dict item per stratum


def merge(a: RunningMoments, b: RunningMoments) -> RunningMoments:
    """Combine two moment accumulators as if their streams were concatenated
    (Chan, Golub and LeVeque's pairwise update).

    Exact for count and mean; m2 agrees with the single-stream value up to
    floating point error.
    """
    if a.count == 0:
        return b
    if b.count == 0:
        return a
    count = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.count / count)
    m2 = a.m2 + b.m2 + delta * delta * (a.count * b.count / count)
    return RunningMoments(count, mean, m2)


def moments(st: Stratum, column: str) -> RunningMoments:
    """The moment accumulator a stratum summary stands for."""
    return RunningMoments(st.n, st.mean[column], st.std[column] * st.std[column] * (st.n - 1))


def pool_summaries(fine: Summaries, target_attrs: Sequence[str]) -> Summaries:
    """:func:`gbsample.stats.pool_catalog` over dict items: every key
    projected with :func:`project_key`, every stratum and column merged
    into its group in dict order."""
    pooled: dict[GroupKey, dict[str, RunningMoments]] = {}
    for key, st in fine.items():
        acc = pooled.setdefault(project_key(key, target_attrs), {c: EMPTY_MOMENTS for c in st.mean})
        for col in st.mean:
            acc[col] = merge(acc[col], moments(st, col))
    out = {}
    for coarse, acc in pooled.items():
        n = next(iter(acc.values())).count
        mean = {c: m.mean for c, m in acc.items()}
        out[coarse] = Stratum(n, mean, {c: m.std for c, m in acc.items()})
    return out


def cv_costs(
    strata: Summaries,
    columns: Sequence[str],
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
    query: int = 0,
    error=ZeroMeanStratum,
) -> tuple[list[GroupKey], list[float], list[GroupKey]]:
    """:func:`gbsample.alloc.cv_costs` stratum by stratum, before the cost
    floor: (kept keys, their sum_j w_j * cv_j**2, excluded keys)."""
    keys, costs, excluded = [], [], []
    for key, st in strata.items():
        total = 0.0
        bad = None
        for col in columns:
            w = weights.weight(query, key.values, col)
            if w == 0.0:
                continue
            if st.mean[col] == 0.0:
                bad = col
                break
            cv = st.std[col] / abs(st.mean[col])
            total += w * (cv * cv)
        if bad is not None:
            if zero_mean == "exclude":
                excluded.append(key)
                continue
            raise error(key, bad)
        keys.append(key)
        costs.append(total)
    return keys, costs, excluded


def individual_sizes(
    per_query: Sequence[Summaries],
    queries: Sequence[GroupQuery],
    budget: int,
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> dict[tuple[int, GroupKey], float]:
    """:func:`gbsample.alloc.plan_individual`'s sizes from per-query dict
    items."""
    pairs, scores, excluded = [], [], []
    for i, (strata, q) in enumerate(zip(per_query, queries)):
        policy = (weights, zero_mean, i, ZeroMeanGroup)
        keys, costs, out = cv_costs(strata, q.columns, *policy)
        pairs += [(i, k) for k in keys]
        scores += costs
        excluded += [(i, k) for k in out]
    shares = solve_fractional(floor_zero_costs(np.array(scores)), budget - len(excluded))
    sizes = dict(zip(pairs, (float(s) for s in shares)))
    sizes.update((pair, 1.0) for pair in excluded)
    return sizes


def multi_grouping_costs(
    fine: Summaries,
    queries: Sequence[GroupQuery],
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> np.ndarray:
    """:func:`gbsample.alloc.multi_grouping_costs` over dict items, one
    fine stratum (in dict order), query and column at a time."""
    coarse = [pool_summaries(fine, q.attrs) for q in queries]
    costs = np.zeros(len(fine))
    for idx, key in enumerate(fine):
        fine_st = fine[key]
        total = 0.0
        for i, q in enumerate(queries):
            coarse_key = project_key(key, q.attrs)
            coarse_st = coarse[i][coarse_key]
            inner = 0.0
            for col in q.columns:
                w = weights.weight(i, coarse_key.values, col)
                if w == 0.0:
                    continue
                mu = coarse_st.mean[col]
                if mu == 0.0:
                    if zero_mean == "exclude":
                        continue
                    raise ZeroMeanCoarseGroup(coarse_key, col)
                sigma = fine_st.std[col]
                inner += w * (sigma * sigma) / (mu * mu)
            total += inner / coarse_st.n**2
        costs[idx] = fine_st.n**2 * total
    return floor_zero_costs(costs)


def senate_shares(caps: np.ndarray, budget: int) -> np.ndarray:
    """The senate baseline's fractional shares by their own water-filling
    loop: an equal split of min(budget, sum(caps)), each stratum whose cap
    lies below the equal share taken whole and the rest split again."""
    caps = np.asarray(caps, dtype=np.int64)
    r = caps.size
    shares = np.zeros(r, dtype=np.float64)
    active = np.ones(r, dtype=bool)
    remaining = float(min(budget, int(caps.sum())))
    while True:
        count = int(active.sum())
        if count == 0:
            break
        each = remaining / count
        over = active & (caps < each)
        if not over.any():
            shares[active] = each
            break
        shares[over] = caps[over]
        remaining -= float(caps[over].sum())
        active &= ~over
    return shares


def shed(
    sizes: np.ndarray, lower: np.ndarray, excess: int, loss: Callable[[int, int], float]
) -> np.ndarray:
    """Remove ``excess`` units, one at a time, each from the stratum whose
    next removal costs least; ties go to the lowest index and no stratum
    drops below ``lower``."""
    s = np.asarray(sizes, dtype=np.int64).tolist()
    if excess <= 0:
        return np.array(s, dtype=np.int64)
    low = np.asarray(lower, dtype=np.int64).tolist()
    heap = [(loss(i, s[i]), i) for i in range(len(s)) if s[i] > low[i]]
    heapq.heapify(heap)
    for _ in range(excess):
        _, i = heapq.heappop(heap)
        s[i] -= 1
        if s[i] > low[i]:
            heapq.heappush(heap, (loss(i, s[i]), i))
    return np.array(s, dtype=np.int64)


def l2_loss(costs: np.ndarray) -> Callable[[int, int], float]:
    """Increase of sum(c_i / s_i) when stratum i goes from s to s - 1 rows;
    infinite at one row."""
    c = np.asarray(costs, dtype=np.float64).tolist()

    def loss(i: int, s: int) -> float:
        return c[i] * (1.0 / (s - 1) - 1.0 / s) if s > 1 else math.inf

    return loss


def l2_objective(costs: np.ndarray | None, sizes: np.ndarray) -> float:
    """sum(c_i / s_i) by a loop over the strata; infinite if any stratum
    with positive cost has no rows."""
    if costs is None:
        return math.nan
    total = 0.0
    for c, s in zip(np.asarray(costs, dtype=float), np.asarray(sizes, dtype=float)):
        if s <= 0:
            if c > 0:
                return math.inf
            continue
        total += c / s
    return total


def largest_above(total: Callable[[float], float], target: float, hi: float) -> float:
    """Largest theta, to float resolution, with total(theta) >= target, for
    a total that does not rise with theta; brackets by halving from hi."""
    lo = hi
    while total(lo) < target:
        lo /= 2.0
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            return lo
        if total(mid) >= target:
            lo = mid
        else:
            hi = mid


def l2_sizes(
    fractional: np.ndarray, costs: np.ndarray, caps: np.ndarray, budget: int
) -> tuple[np.ndarray, list[str]]:
    """:func:`gbsample.alloc.l2_sizes` with the search for mu run to float
    resolution from the largest cost: the warm start keeps every row whose
    removal costs at least mu at the largest mu whose rows cover the
    budget, and :func:`shed` removes the surplus."""
    caps = np.asarray(caps, dtype=np.int64)
    costs = np.asarray(costs, dtype=np.float64)
    r = caps.size
    target = int(min(budget, int(caps.sum())))
    if target < r:
        order = np.lexsort((np.arange(r), -np.asarray(fractional, dtype=np.float64)))
        sizes = np.zeros(r, dtype=np.int64)
        sizes[order[:target]] = 1
        warning = (
            f"MissingGroups: budget {budget} is below the stratum count {r}; "
            f"{r - target} strata received no rows"
        )
        return sizes, [warning]

    def kept(mu: float) -> np.ndarray:
        if mu == 0.0:  # the search underflowed: every row
            return caps
        rows = np.floor(0.5 + np.sqrt(0.25 + costs / mu))
        return np.clip(rows, 1, caps).astype(np.int64)

    with np.errstate(over="ignore"):  # a c_i / mu beyond the float range keeps the cap
        start = kept(largest_above(lambda mu: int(kept(mu).sum()), target, float(costs.max())))
    return shed(start, np.ones(r), int(start.sum()) - target, l2_loss(costs)), []


def plan_linf(
    catalog: StatsCatalog, column: str, budget: int, zero_mean: str = "error"
) -> AllocationPlan:
    """:func:`gbsample.alloc.plan_linf` with the heap finish it replaced:
    :func:`shed` removes the surplus above the warm start one unit at a
    time, each from the stratum whose removal leaves the least predicted
    CV, ties to the lowest index."""
    check_budget(budget)
    cv2_all, first_zero = cv2_costs(catalog, [column])
    kept, excluded = _zero_mean_split(zero_mean, first_zero, catalog, [column], ZeroMeanStratum)
    flat = catalog.std[column][kept] == 0.0
    active, constant = kept[~flat], kept[flat]
    if not active.size:
        raise AllStrataConstant(
            "every stratum has zero variance; the minimax objective is degenerate"
        )
    pinned = np.concatenate([constant, excluded])
    warnings: list[str] = []
    if constant.size:
        warnings.append(
            f"ConstantStrata: {constant.size} zero-variance strata pinned at one row"
        )
    if excluded.size:
        warnings.append(
            f"ZeroMeanExcluded: {excluded.size} strata with zero mean pinned at one row"
        )

    cv2 = cv2_all[active]
    pops_arr = catalog.n[active]
    sub_budget = budget - len(pinned)
    if sub_budget < active.size:
        raise InvalidArgument(
            f"minimax allocation needs at least one row per positive-variance "
            f"stratum: budget {budget} leaves {sub_budget} rows for {active.size} strata"
        )

    if sub_budget >= int(pops_arr.sum()):
        sizes = pops_arr.copy()
        fractional = pops_arr.astype(float)
    else:

        def loads(t: float) -> np.ndarray:
            return pops_arr * cv2 / (t * t * pops_arr + cv2)

        t = _largest_above(
            lambda t: float(loads(t).sum()), sub_budget, math.sqrt(cv2.sum() / sub_budget)
        )
        fractional = loads(t)
        start = np.clip(np.ceil(fractional), 1, pops_arr).astype(np.int64)
        cv = np.sqrt(cv2).tolist()
        n = pops_arr.tolist()

        def cv_after_removal(i: int, s: int) -> float:
            return cv[i] * math.sqrt((n[i] - s + 1) / (n[i] * (s - 1)))

        excess = int(start.sum()) - sub_budget
        sizes = shed(start, np.ones(len(n)), excess, cv_after_removal)
    max_cv = float(np.sqrt(cv2 * (pops_arr - sizes) / (pops_arr * sizes)).max())

    capped = np.concatenate([sizes >= pops_arr, catalog.n[pinned] <= 1])
    return _pinned_plan(
        LINF, catalog, active, fractional, sizes, cv2, pinned, budget, capped, warnings,
        {"max_cv": max_cv},
    )


def inclusion_rates(rel: Relation, alloc: PerQueryAllocation) -> np.ndarray:
    """:func:`gbsample.alloc.inclusion_rates` with the join it replaced:
    the fine strata's value tuples re-encoded as a key relation
    (:func:`gbsample.dataset.key_relation`), each query's groups numbered
    by its strata."""
    union = list(dict.fromkeys(a for q in alloc.queries for a in q.attrs))
    fine_ids, fine_values, _, _ = rel.strata(union)
    fine_keys = key_relation(union, fine_values)
    n = alloc.populations
    rate = np.minimum(1.0, np.divide(alloc.sizes, n, out=np.zeros(len(n)), where=n > 0))
    per_query = []
    for i, q in enumerate(alloc.queries):
        group, keys, _, _ = fine_keys.strata(q.attrs)
        rows = np.flatnonzero(alloc.query == i).tolist()
        table = dict(zip([alloc.keys[r] for r in rows], rate[rows].tolist()))
        per_query.append(np.array([table.get(k, 0.0) for k in keys])[group])
    return unified_inclusion(per_query)[fine_ids]


def predicted_group_cv(
    parts: Sequence[tuple[int, float, float]], group_mean: float
) -> float | None:
    """:func:`gbsample.alloc.predicted_group_cvs` for one coarse group.

    ``parts`` holds (n_c, s_c, sigma_c) per member stratum; the estimate is
    the population-weighted combination of stratum means, with variance
    sum(n_c^2 sigma_c^2 / s_c - n_c sigma_c^2) / n_g^2.  A positive-variance
    stratum with no sample makes the CV infinite; a zero mean makes it None.
    """
    if group_mean == 0.0:
        return None
    n_g = sum(p[0] for p in parts)
    var = 0.0
    for n_c, s_c, sigma_c in parts:
        if sigma_c == 0.0:
            continue
        if s_c <= 0:
            return math.inf
        var += n_c * n_c * sigma_c * sigma_c / s_c - n_c * sigma_c * sigma_c
    var = max(var, 0.0) / (n_g * n_g)
    return math.sqrt(var) / abs(group_mean)


# ---------------------------------------------------------------------------
# streaming


def two_pass_reference(
    records: Sequence[tuple],
    schema: Sequence[ColumnSchema],
    group_attrs: Sequence[str],
    columns: Sequence[str],
    budget: int,
    seed: int,
) -> StratifiedSample:
    """Offline oracle for the streaming sampler: the first pass computes the
    catalog, the second draws the planned sample.  Its scores are the
    streaming f(i)^2 up to floating point error: the stream folds values in
    one at a time."""
    rel = Relation.from_records(schema, records)
    plan = offline_plan(rel, group_attrs, columns, budget)
    return draw_stratified(rel, plan, seed)


def ingest_batch(state: StreamState, batch: Sequence[tuple]) -> StreamState:
    """Feed one mini-batch, then settle back to the budget.

    Every arriving row updates its stratum's online moments and count and
    takes the next key of ``state.rng``; it is retained only if its key
    passes the stratum's discard threshold.
    New strata start with d = 1.0 (accept everything).  A batch with a
    malformed record (a wrong field count, a non-finite aggregation value,
    an unhashable group value), or one that would overflow a stratum's
    moments, raises :class:`SchemaMismatch`, and one that would take a
    stratum's squared CV beyond the float range raises
    :class:`FloatOverflow`; either leaves the state as it was.
    """
    n_cols = len(state.schema)
    for record in batch:
        if len(record) != n_cols:
            raise SchemaMismatch(f"record has {len(record)} fields, schema has {n_cols}")
    columns = list(zip(*batch)) or [()] * n_cols
    at = {c.name: i for i, c in enumerate(state.schema)}
    try:
        values = [np.array(list(map(float, columns[at[c]]))) for c in state.columns]
    except (TypeError, ValueError):
        raise SchemaMismatch("non-numeric value in an aggregation column") from None
    if not all(np.isfinite(x).all() for x in values):
        raise SchemaMismatch("non-finite value in an aggregation column")
    n = len(batch)
    group_pos = [at[a] for a in state.group_attrs]
    group_values = list(zip(*(columns[i] for i in group_pos))) if group_pos else [()] * n
    ids, known = state.ids, len(state.n_seen)  # value tuple -> id, in first-arrival order
    try:
        try:
            sid = encode_into(group_values, ids, ids)
        except TypeError:
            raise SchemaMismatch("unhashable value in a grouping column") from None
        n_seen, mean, m2 = _observe(state, sid, values, len(ids) - known)
        if not np.isfinite([*mean.values(), *m2.values()]).all():
            raise SchemaMismatch("aggregation values overflow their stratum's moments")
        f2 = floor_zero_costs(_squared_cvs(state, n_seen, mean, m2))
    except (SchemaMismatch, FloatOverflow):
        state.ids = dict(list(ids.items())[:known])  # forget the batch's new strata
        raise
    state.d = np.concatenate((state.d, np.ones(len(ids) - known)))
    state.n_seen, state.mean, state.m2, state.f2 = n_seen, mean, m2, f2

    keys = state.rng.random(n)
    offered = np.flatnonzero(keys <= state.d[sid])
    if offered.size:
        rows = np.empty(offered.size, RETAINED)
        rows["stratum"], rows["key"] = sid[offered], keys[offered]
        rows["ordinal"] = state.arrivals + offered
        rows["record"] = np.fromiter(map(tuple, batch), object, n)[offered]
        state.retained = np.concatenate([state.retained, rows])
    state.arrivals += n
    settle_budget(state)
    return state


def retained_keys(state: StreamState, k: int) -> list[float]:
    """The keys stratum ``k`` of a stream state retains, ascending."""
    table = state.retained
    return sorted(table["key"][table["stratum"] == k].tolist())


# ---------------------------------------------------------------------------
# query answers by the gathering kernel, ordered by np.unique and gathered
# one key at a time


def _group_by(fn, cells, values, keep, factor, group_of_cell, n_groups):
    """AVG, SUM or COUNT per group, with the expanded row count and the
    support, over the rows ``keep`` selects.

    Row r lies in cell ``cells[r]`` and cell c in group ``group_of_cell[c]``;
    cell c expands each of its rows by ``factor[c]``.  With m_c the kept rows
    of cell c, SUM_g = sum_c f_c * (sum of x over them), COUNT_g =
    sum_c f_c * m_c and AVG_g = SUM_g / COUNT_g (NaN where COUNT_g is 0).
    ``np.bincount`` adds in index order, rows in row order within a cell and
    then cells in cell order within a group, so a full sample of one
    stratum per group reproduces the exact answer bit for bit.
    """
    cells = cells[keep]
    rows = np.bincount(cells, minlength=len(factor))
    count = np.bincount(group_of_cell, factor * rows, n_groups)
    support = np.bincount(group_of_cell[cells], minlength=n_groups)
    if fn == COUNT:
        return count, count, support
    cell_sums = np.bincount(cells, values[keep], len(factor))
    total = np.bincount(group_of_cell, factor * cell_sums, n_groups)
    if fn == SUM:
        return total, count, support
    avg = np.divide(total, count, out=np.full(n_groups, np.nan), where=count > 0)
    return avg, count, support


def _inputs(rel: Relation, request: QueryRequest):
    """The aggregated column (None for COUNT) and the predicate's row mask
    (a full slice when there is none)."""
    values = rel.numeric(request.column) if request.fn != COUNT else None
    predicate = request.predicate
    if predicate is None or not predicate.atoms:
        return values, slice(None)
    return values, predicate.mask(rel)


def matched(attrs, keys, value, support, groups: np.ndarray) -> Answer:
    """The answer of ``groups`` in that order, their keys gathered one by
    one."""
    return Answer(
        attrs,
        tuple([keys[g] for g in groups.tolist()]),
        value[groups],
        support[groups],
        np.zeros(len(groups), dtype=bool),
    )


def estimate(sample, request: QueryRequest) -> Answer:
    """:func:`gbsample.query.estimate` with every per-sample array computed
    in the call, and a Poisson answer's groups ordered by ``np.unique``'s
    first index of each group among the kept rows."""
    attrs = tuple(request.group_attrs)
    values, keep = _inputs(sample.columns, request)
    if isinstance(sample, PoissonSample):
        ids, keys, _, _ = sample.columns.strata(attrs)
        value, _, support = _group_by(
            request.fn, np.arange(len(ids)), values, keep, 1.0 / sample.rates, ids, len(keys)
        )
        seen, first = np.unique(ids[keep], return_index=True)
        return matched(attrs, keys, value, support, seen[np.argsort(first)])
    group_of_cell, keys, _, _ = sample.key_columns.strata(attrs)
    size = sample.size.astype(np.float64)
    factor = np.divide(sample.n, size, out=np.zeros(len(size)), where=size > 0)
    row_strata = np.repeat(np.arange(len(sample.size)), sample.size)
    value, count, support = _group_by(
        request.fn, row_strata, values, keep, factor, group_of_cell, len(keys)
    )
    if request.fn == AVG:
        missing = count == 0
    else:
        missing = np.bincount(group_of_cell, size > 0, len(keys)) == 0
    return Answer(attrs, keys, np.where(missing, np.nan, value), support, missing)


def exact_answer(rel: Relation, request: QueryRequest) -> Answer:
    """:func:`gbsample.query.exact_answer` with its keys gathered one by
    one."""
    values, keep = _inputs(rel, request)
    ids, keys, _, _ = rel.strata(request.group_attrs)
    value, _, support = _group_by(
        request.fn, np.arange(rel.n_rows), values, keep, np.ones(rel.n_rows), ids, len(keys)
    )
    return matched(request.group_attrs, keys, value, support, np.flatnonzero(support))
