"""One-pass, mergeable per-stratum statistics held as arrays.

:func:`compute_catalog` is where the package computes per-stratum
moments.  It reads the relation's stratification
(:meth:`gbsample.dataset.Relation.strata`: the rows sorted by stratum id)
and takes each stratum's count, mean and standard deviation with the
two-pass formula: the mean, then the sum of squared deviations from it.
Strata are reduced by size, not one by one: the k strata of each size s
are gathered into one C-contiguous (k, s) matrix, whose row sums run
numpy's pairwise summation exactly as the sum of each stratum's slice
would.  The loop runs once per distinct stratum size (at most about
sqrt(2 N) for N rows).  The coefficient of variation is sigma / |mu|.
A relation keeps each ``(grouping, columns)`` catalog as it keeps each
grouping's strata (:meth:`gbsample.dataset.Relation.memo`): every call of
:func:`compute_catalog` hands out that one shared, read-only catalog.  It
keeps each column's moments under a grouping the same way, and a catalog
is assembled from them, so a catalog over some of the columns of one
already computed (``(x,)`` after ``(x, y)``) computes no moment again.

A :class:`StatsCatalog` is arrays indexed by stratum: the strata's value
tuples in first-occurrence order, an int64 count array ``n`` and, per
aggregation column, float64 ``mean`` and ``std`` arrays.  It keeps std
rather than the sum of squared deviations because ``catalog.json`` holds
std, so a catalog read back from its file is bit-identical to the one
computed.  ``StatsCatalog.entries`` is a read-only ``GroupKey ->
StratumStats`` view built from the arrays on first access; the benchmark
(``benchmark/workloads.py``) is its only reader.

:meth:`StatsCatalog.pooled` aggregates to a coarser grouping once per
attribute tuple and keeps the result.  A fine stratum's group is its
stratum id under those attributes in the catalog's key relation (one row
per stratum), and the fine moments fold into their group in catalog order
with Chan, Golub and LeVeque's pairwise update, the sum of squared
deviations rebuilt as std * std * (n - 1).

The standard deviation uses the (n - 1) divisor, which makes the finite
population correction formula in :func:`gbsample.alloc.predicted_cv` exact
for sampling without replacement; a single-row stratum has sigma = 0.
:func:`std_of` is that formula, for the catalog, the pooled catalogs and
the streaming sampler's online moments alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .dataset import GroupKey, Relation, frozen, key_relation
from .errors import (
    COUNT,
    LIST,
    NAMES,
    NUMBER,
    FloatOverflow,
    InvalidDocument,
    NotASubset,
    member,
    parse_json,
    stratum_keys,
)


def std_of(n: np.ndarray, m2: np.ndarray | Sequence[float]) -> np.ndarray:
    """The (n - 1)-divisor standard deviation of strata with counts ``n``
    and sums of squared deviations ``m2``: sqrt(max(m2 / (n - 1), 0)),
    and 0 where n <= 1."""
    variance = np.divide(m2, n - 1, out=np.zeros(n.shape), where=n > 1)
    return np.sqrt(np.maximum(variance, 0.0))


@dataclass(frozen=True)
class ColumnSummary:
    """One column's mean and std in one stratum of the entries view."""

    mean: float
    std: float


@dataclass(frozen=True)
class StratumStats:
    """One stratum of :attr:`StatsCatalog.entries`, the benchmark's view."""

    key: GroupKey
    n: int
    per_column: Mapping[str, ColumnSummary]


@dataclass(eq=False)
class StatsCatalog:
    """All per-stratum statistics for one stratification of a relation.

    Stratum k has the values ``keys[k]`` on ``group_attrs``, ``n[k]`` rows
    and, for every aggregation column c, mean ``mean[c][k]`` and standard
    deviation ``std[c][k]``.  The arrays are read-only; ``keys`` must not
    change either, since the :class:`GroupKey` objects, ``entries``, the key
    relation and the pooled catalogs are built from it once.
    """

    group_attrs: tuple[str, ...]
    agg_columns: tuple[str, ...]
    keys: list[tuple]
    n: np.ndarray
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    total_n: int

    def __post_init__(self):
        # read-only copies: the caller's dicts, lists and arrays stay as given
        self.n = frozen(np.array(self.n, dtype=np.int64))
        self.mean = {c: frozen(np.array(self.mean[c], dtype=np.float64)) for c in self.agg_columns}
        self.std = {c: frozen(np.array(self.std[c], dtype=np.float64)) for c in self.agg_columns}
        self._pooled: dict[tuple[str, ...], tuple[StatsCatalog, np.ndarray]] = {}

    def __len__(self):
        return len(self.keys)

    def group_keys(self, index: Sequence[int] | None = None) -> list[GroupKey]:
        """The strata (or those at ``index``) as :class:`GroupKey` objects."""
        keys = self._group_keys
        return list(keys) if index is None else [keys[k] for k in index]

    @cached_property
    def _group_keys(self) -> tuple[GroupKey, ...]:
        return tuple(GroupKey(self.group_attrs, values) for values in self.keys)

    @cached_property
    def key_relation(self) -> Relation:
        """The strata's value tuples as an encoded relation, row k for stratum k."""
        return key_relation(self.group_attrs, self.keys)

    def pooled(self, attrs: Sequence[str]) -> tuple[StatsCatalog, np.ndarray]:
        """The catalog aggregated up to ``attrs``, a subset of its group
        attributes, and the read-only index of every fine stratum's group in
        it; computed on the first call for these attributes (in this order)
        and kept.  Counts and means combine exactly, the sums of squared
        deviations up to floating point error."""
        attrs = tuple(attrs)
        if attrs in self._pooled:
            return self._pooled[attrs]
        missing = [a for a in attrs if a not in self.group_attrs]
        if missing:
            raise NotASubset(f"attributes {missing} not part of the catalog's {self.group_attrs}")
        ids, keys, _, _ = self.key_relation.strata(attrs)
        size = len(keys)
        n = np.bincount(ids, self.n, size).astype(np.int64)
        groups, fine_n = ids.tolist(), self.n.tolist()
        mean, std = {}, {}
        for col in self.agg_columns:
            count, mu, m2 = [0] * size, [0.0] * size, [0.0] * size
            with np.errstate(over="ignore"):  # a square beyond the float range is inf
                fine_var = (self.std[col] * self.std[col]).tolist()
            for g, n_f, mean_f, var_f in zip(groups, fine_n, self.mean[col].tolist(), fine_var):
                # Chan, Golub and LeVeque's update of (count, mu, m2)[g] by
                # the fine stratum's moments, in catalog order
                m2_f = var_f * (n_f - 1)
                a = count[g]
                if a == 0:
                    count[g], mu[g], m2[g] = n_f, mean_f, m2_f
                elif n_f:
                    total = a + n_f
                    delta = mean_f - mu[g]
                    mu[g] = mu[g] + delta * (n_f / total)
                    m2[g] = m2[g] + m2_f + delta * delta * (a * n_f / total)
                    count[g] = total
            mean[col], std[col] = mu, std_of(n, m2)
        out = StatsCatalog(attrs, self.agg_columns, list(keys), n, mean, std, self.total_n)
        finite_catalog(out)
        found = self._pooled[attrs] = out, ids
        return found

    @cached_property
    def entries(self) -> Mapping[GroupKey, StratumStats]:
        """A read-only ``GroupKey -> StratumStats`` view of the arrays, in
        catalog order, built on first access.  Its only reader is the
        benchmark; everything else reads the arrays."""
        n = self.n.tolist()
        columns = _column_lists(self)
        entries = {}
        for k, key in enumerate(self.group_keys()):
            per_column = {c: ColumnSummary(mu[k], sigma[k]) for c, mu, sigma in columns}
            entries[key] = StratumStats(key, n[k], per_column)
        return MappingProxyType(entries)


def _column_lists(catalog: StatsCatalog) -> list[tuple[str, list[float], list[float]]]:
    """(column, means, stds) per aggregation column, as Python lists."""
    return [(c, catalog.mean[c].tolist(), catalog.std[c].tolist()) for c in catalog.agg_columns]


def compute_catalog(
    rel: Relation, group_attrs: Sequence[str], agg_columns: Sequence[str]
) -> StatsCatalog:
    """Summarize every occurring stratum, in first-occurrence order.  A
    moment beyond the float range is kept as inf or NaN, without a warning;
    :func:`finite_catalog` rejects such a catalog.  The relation keeps it
    for later calls with these attributes and columns, in this order."""
    return rel.memo(_compute_catalog, tuple(group_attrs), tuple(agg_columns))


def _compute_catalog(
    rel: Relation, group_attrs: tuple[str, ...], agg_columns: tuple[str, ...]
) -> StatsCatalog:
    strata = rel.strata(group_attrs)
    mean, std = {}, {}
    for col in agg_columns:
        mean[col], std[col] = rel.memo(_column_moments, group_attrs, col)
    n = np.diff(strata.bounds)
    return StatsCatalog(group_attrs, agg_columns, list(strata.keys), n, mean, std, rel.n_rows)


def _column_moments(
    rel: Relation, group_attrs: tuple[str, ...], col: str
) -> tuple[np.ndarray, np.ndarray]:
    """The mean and std of ``col`` in every stratum under ``group_attrs``,
    read-only; each column's moments depend on that column alone, so a
    catalog over any columns is assembled from them."""
    strata = rel.strata(group_attrs)
    n = np.diff(strata.bounds)
    ordered = rel.numeric(col)[strata.order]
    mu, m2 = np.zeros(len(n)), np.zeros(len(n))
    # the k strata of each size s, gathered as the rows of a C-contiguous
    # (k, s) matrix: add.reduce along a row runs the same pairwise sum as
    # x.sum() of the stratum's slice, bit for bit (reduceat would add in
    # sequence); every stratum holds a row, so no size is 0
    by_size = np.argsort(n, kind="stable")
    sizes, first = np.unique(n[by_size], return_index=True)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, group in zip(sizes.tolist(), np.split(by_size, first[1:])):
            x = ordered[strata.bounds[group, None] + np.arange(s)]
            mu[group] = mean = x.sum(axis=1) / s
            d = x - mean[:, None]
            m2[group] = (d * d).sum(axis=1)
    return frozen(mu), frozen(std_of(n, m2))


def finite_catalog(catalog: StatsCatalog) -> None:
    """Raise :class:`FloatOverflow` naming the first column, and its first
    stratum, whose mean or std is not finite."""
    for col in catalog.agg_columns:
        bad = np.flatnonzero(~np.isfinite(catalog.mean[col]) | ~np.isfinite(catalog.std[col]))
        if bad.size:
            key = catalog.group_keys([int(bad[0])])[0]
            raise FloatOverflow("the mean or std is", key, col)


def pool_catalog(catalog: StatsCatalog, target_attrs: Sequence[str]) -> StatsCatalog:
    """The pooled catalog of :meth:`StatsCatalog.pooled`, without the ids."""
    return catalog.pooled(target_attrs)[0]


# ---------------------------------------------------------------------------
# serialization


def catalog_to_json(catalog: StatsCatalog) -> str:
    """The catalog as a JSON document; each float is written as the
    shortest text that reads back as the same float."""
    columns = _column_lists(catalog)
    doc = {
        "group_attrs": list(catalog.group_attrs),
        "agg_columns": list(catalog.agg_columns),
        "total_n": catalog.total_n,
        "strata": [
            {
                "key": list(values),
                "n": n,
                "columns": {
                    col: {"mean": mu[k], "std": sigma[k]} for col, mu, sigma in columns
                },
            }
            for k, (values, n) in enumerate(zip(catalog.keys, catalog.n.tolist()))
        ],
    }
    return json.dumps(doc, indent=2)


def catalog_from_json(text: str, source: str = "catalog.json") -> StatsCatalog:
    """Parse a catalog file.  A document of the wrong shape, a repeated
    group attribute or aggregation column, a key of the wrong length or a
    repeated key, a negative count, a ``total_n`` other than the strata's
    total count, or a mean or std that is not a finite number (or a
    negative std) raises :class:`InvalidDocument` naming ``source`` and the
    field."""

    get = partial(member, source)
    spread = (lambda v: NUMBER[0](v) and v >= 0), "a finite number >= 0"
    doc = parse_json(text, source)
    group_attrs = tuple(get(doc, "", "group_attrs", *NAMES))
    agg_columns = tuple(get(doc, "", "agg_columns", *NAMES))
    total_n = get(doc, "", "total_n", *COUNT)
    strata = get(doc, "", "strata", *LIST)
    keys = stratum_keys(source, strata, [len(group_attrs)] * len(strata))
    n: list[int] = []
    mean: dict[str, list[float]] = {c: [] for c in agg_columns}
    std: dict[str, list[float]] = {c: [] for c in agg_columns}
    for i, item in enumerate(strata):
        at = f"strata[{i}]"
        n.append(get(item, at, "n", *COUNT))
        for col in agg_columns:
            summary = get(get(item, at, "columns"), f"{at}.columns", col)
            mean[col].append(float(get(summary, f"{at}.columns.{col}", "mean", *NUMBER)))
            std[col].append(float(get(summary, f"{at}.columns.{col}", "std", *spread)))
    if total_n != sum(n):
        raise InvalidDocument(f"{source}: total_n: expected {sum(n)}, the sum of n, got {total_n}")
    return StatsCatalog(group_attrs, agg_columns, keys, n, mean, std, total_n)
