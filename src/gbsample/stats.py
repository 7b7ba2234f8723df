"""One-pass, mergeable per-stratum statistics.

The first pipeline pass computes, for every stratum and every aggregation
column, the count, mean, standard deviation and coefficient of variation
(CV = sigma / |mu|).  :func:`compute_catalog` sorts the rows by stratum id
once (:func:`gbsample.dataset.segments`) and takes each stratum's moments
over its contiguous slice with the two-pass formula of :func:`from_array`:
the mean, then the sum of squared deviations from it.  Moments combine
under :func:`merge` (Chan, Golub and LeVeque's pairwise update), which
pools strata into coarser groups; :func:`accumulate` is the one-value
Welford step the streaming sampler uses.

The standard deviation uses the (n - 1) divisor, which makes the finite
population correction formula in :func:`gbsample.alloc.predicted_cv` exact
for sampling without replacement; a single-row stratum has sigma = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import GroupKey, Relation, segments, stratum_ids

#: significant digits used when serializing floating point values
FLOAT_DIGITS = 17


def _fmt(x: float) -> float:
    return float(format(float(x), f".{FLOAT_DIGITS}g"))


@dataclass(frozen=True)
class RunningMoments:
    """Count, mean and sum of squared deviations (m2) of a value stream."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @property
    def variance(self) -> float:
        """Sample variance with the (n - 1) divisor; 0 when count <= 1."""
        if self.count <= 1:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))


EMPTY_MOMENTS = RunningMoments()


def accumulate(m: RunningMoments, x: float) -> RunningMoments:
    """Fold one value into the moments (Welford update)."""
    count = m.count + 1
    delta = x - m.mean
    mean = m.mean + delta / count
    m2 = m.m2 + delta * (x - mean)
    return RunningMoments(count, mean, m2)


def merge(a: RunningMoments, b: RunningMoments) -> RunningMoments:
    """Combine two moment accumulators as if their streams were concatenated.

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


def from_array(values: np.ndarray) -> RunningMoments:
    """Moments of an array: its mean, then the sum of squared deviations
    from that mean (equal to folding the elements in order with
    :func:`accumulate` up to floating point error)."""
    n = int(values.shape[0])
    if n == 0:
        return EMPTY_MOMENTS
    # the method forms of np.mean and np.sum: the same pairwise sums, bit
    # for bit, without the dispatch overhead that dominates small strata
    mean = float(values.sum()) / n
    deviations = values - mean
    return RunningMoments(n, mean, float((deviations * deviations).sum()))


@dataclass(frozen=True)
class ColumnSummary:
    """Per-column stratum summary: mean, std and the derived CV.

    ``cv`` is sigma / |mu| and is None when the mean is zero (undefined CV);
    the allocation layer decides how to treat that case.
    """

    mean: float
    std: float

    @property
    def cv(self) -> float | None:
        if self.mean == 0.0:
            return None
        return self.std / abs(self.mean)

    @property
    def cv_defined(self) -> bool:
        return self.mean != 0.0


@dataclass(frozen=True)
class StratumStats:
    key: GroupKey
    n: int
    per_column: Mapping[str, ColumnSummary]

    def moments(self, column: str) -> RunningMoments:
        """Reconstruct the moment accumulator for one column (for pooling)."""
        s = self.per_column[column]
        return RunningMoments(self.n, s.mean, s.std**2 * (self.n - 1))


@dataclass
class StatsCatalog:
    """All per-stratum statistics for one stratification of a relation."""

    group_attrs: tuple[str, ...]
    agg_columns: tuple[str, ...]
    entries: dict[GroupKey, StratumStats]
    total_n: int

    @property
    def keys(self) -> list[GroupKey]:
        return list(self.entries)

    def __len__(self):
        return len(self.entries)


def compute_catalog(
    rel: Relation, group_attrs: Sequence[str], agg_columns: Sequence[str]
) -> StatsCatalog:
    """Summarize every occurring stratum, in first-occurrence order."""
    group_attrs = tuple(group_attrs)
    agg_columns = tuple(agg_columns)
    ids, keys = stratum_ids(rel, group_attrs)
    order, bounds = segments(ids, len(keys))
    # each stratum's rows, ascending, as one contiguous slice per column
    ordered = {col: rel.numeric(col)[order] for col in agg_columns}
    entries: dict[GroupKey, StratumStats] = {}
    for k, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        key = GroupKey(group_attrs, keys[k])
        per_column = {}
        for col in agg_columns:
            m = from_array(ordered[col][lo:hi])
            per_column[col] = ColumnSummary(m.mean, m.std)
        entries[key] = StratumStats(key, hi - lo, per_column)
    return StatsCatalog(group_attrs, agg_columns, entries, rel.n_rows)


def pool_catalog(catalog: StatsCatalog, target_attrs: Sequence[str]) -> StatsCatalog:
    """Aggregate a catalog up to a coarser stratification.

    ``target_attrs`` must be a subset of the catalog's group attributes; the
    pooled moments of each coarse group combine its fine strata exactly (up
    to floating point error in m2).
    """
    target_attrs = tuple(target_attrs)
    coarse_keys = [key.project(target_attrs) for key in catalog.entries]
    return _pool(catalog, target_attrs, coarse_keys)


def _pool(
    catalog: StatsCatalog, target_attrs: tuple[str, ...], coarse_keys: Iterable[GroupKey]
) -> StatsCatalog:
    """:func:`pool_catalog` with each fine stratum's coarse key given, in
    catalog order."""
    pooled: dict[GroupKey, dict[str, RunningMoments]] = {}
    for coarse, st in zip(coarse_keys, catalog.entries.values()):
        acc = pooled.setdefault(coarse, {c: EMPTY_MOMENTS for c in catalog.agg_columns})
        for col in catalog.agg_columns:
            acc[col] = merge(acc[col], st.moments(col))
    entries = {}
    for coarse, acc in pooled.items():
        n = next(iter(acc.values())).count
        per_column = {c: ColumnSummary(m.mean, m.std) for c, m in acc.items()}
        entries[coarse] = StratumStats(coarse, n, per_column)
    return StatsCatalog(target_attrs, catalog.agg_columns, entries, catalog.total_n)


# ---------------------------------------------------------------------------
# serialization


def catalog_to_json(catalog: StatsCatalog) -> str:
    doc = {
        "group_attrs": list(catalog.group_attrs),
        "agg_columns": list(catalog.agg_columns),
        "total_n": catalog.total_n,
        "strata": [
            {
                "key": list(st.key.values),
                "n": st.n,
                "columns": {
                    col: {"mean": _fmt(s.mean), "std": _fmt(s.std)}
                    for col, s in st.per_column.items()
                },
            }
            for st in catalog.entries.values()
        ],
    }
    return json.dumps(doc, indent=2)


def catalog_from_json(text: str) -> StatsCatalog:
    doc = json.loads(text)
    group_attrs = tuple(doc["group_attrs"])
    agg_columns = tuple(doc["agg_columns"])
    entries = {}
    for item in doc["strata"]:
        key = GroupKey(group_attrs, tuple(item["key"]))
        per_column = {
            col: ColumnSummary(float(v["mean"]), float(v["std"]))
            for col, v in item["columns"].items()
        }
        entries[key] = StratumStats(key, int(item["n"]), per_column)
    return StatsCatalog(group_attrs, agg_columns, entries, int(doc["total_n"]))
