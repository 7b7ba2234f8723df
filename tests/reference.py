"""Row-at-a-time reference forms of the package's stratum kernels.

The package numbers strata with :func:`gbsample.dataset.stratum_ids` and
walks them as slices of one sorted row order.  The functions here do the
same work the plain way, one Python tuple per row, so the tests can check
the kernels against them with ``==``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from gbsample.alloc import (
    AllocationPlan,
    FinestStratification,
    GroupQuery,
    finest_from_catalog,
)
from gbsample.dataset import CATEGORICAL, GroupKey, Relation
from gbsample.errors import UnknownAttribute
from gbsample.stats import (
    EMPTY_MOMENTS,
    ColumnSummary,
    RunningMoments,
    StratumStats,
    accumulate,
    compute_catalog,
)
from gbsample.workload import QuerySpec


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
    buckets: dict[tuple, list[int]] = {}
    for i in range(rel.n_rows):
        values = tuple(col[i] for col in columns)
        buckets.setdefault(values, []).append(i)
    return {GroupKey(attrs, values): rows for values, rows in buckets.items()}


def project_key(key: GroupKey, target_attrs: Sequence[str]) -> GroupKey:
    """Functional form of :meth:`GroupKey.project`."""
    return key.project(target_attrs)


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


def catalog_entries(
    rel: Relation, attrs: Sequence[str], columns: Sequence[str]
) -> dict[GroupKey, StratumStats]:
    """:func:`gbsample.stats.compute_catalog`'s entries, stratum by stratum
    over :func:`partition`'s row lists, with the moments from ``np.mean``
    and ``np.sum``."""
    entries = {}
    for key, rows in partition(rel, attrs).items():
        idx = np.asarray(rows, dtype=np.intp)
        per_column = {}
        for col in columns:
            x = rel.numeric(col)[idx]
            mean = float(np.mean(x)) if len(rows) else 0.0
            m = RunningMoments(len(rows), mean, float(np.sum((x - mean) ** 2)))
            per_column[col] = ColumnSummary(m.mean, m.std)
        entries[key] = StratumStats(key, len(rows), per_column)
    return entries


def draw(rel: Relation, plan: AllocationPlan, seed: int) -> list[tuple]:
    """:func:`gbsample.sampler.draw_stratified` over :func:`partition`'s
    row lists: (key, n, size, row_ids, rows) per plan stratum."""
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
        out.append((key, len(rows), s_i, chosen, [rel.record(r) for r in chosen]))
    return out


def aggregation_groups(rel: Relation, workload: Sequence[QuerySpec]) -> list[tuple]:
    """:func:`gbsample.workload.derive_aggregation_groups` over
    :func:`partition`'s row lists: (column, group key, member rows,
    frequency, inducers) per entity, in order of first induction."""
    entities: dict[tuple, list] = {}
    for qidx, query in enumerate(workload):
        mask = None if query.predicate is None else query.predicate.mask(rel)
        for key, rows in partition(rel, query.group_attrs).items():
            members = frozenset(r for r in rows if mask is None or mask[r])
            if not members:
                continue
            for col in query.agg_columns:
                entity = entities.setdefault((col, members), [col, key, members, 0, []])
                entity[3] += query.repeats
                entity[4].append((qidx, key))
    return [tuple(e) for e in entities.values()]
