"""Turn a declared query workload into weighted aggregation groups.

Each group-by query in a workload splits every aggregation column it
touches into one subcolumn per group; each (column, group) pair is an
*aggregation group*.  A query repeated ``k`` times contributes ``k`` to the
frequency of every aggregation group it induces.  Two queries share an
aggregation group when the column matches and the group covers exactly the
same rows (a predicate that does not change a group's membership does not
split the entity).  Frequencies then become weights for the allocators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .dataset import GroupKey, Relation
from .errors import (
    INTEGER,
    LIST,
    STRINGS,
    EmptyProblem,
    InvalidArgument,
    UnknownColumn,
    expect,
    member,
)
from .alloc import GroupQuery, WeightSpec
from .query import Predicate


@dataclass(frozen=True)
class QuerySpec:
    """One workload query: grouping attributes, aggregation columns, an
    optional predicate and a repeat count."""

    group_attrs: tuple[str, ...]
    agg_columns: tuple[str, ...]
    predicate: Predicate | None = None
    repeats: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise InvalidArgument(f"repeats must be >= 1, got {self.repeats}")


@dataclass(frozen=True)
class AggregationGroup:
    """A (column, group) entity with its predicate-restricted member rows."""

    column: str
    group: GroupKey
    member_rows: frozenset[int]


@dataclass
class FrequencyTable:
    """Frequencies of the distinct aggregation groups of a workload, plus
    which queries induced each entity (query index -> that query's view of
    the group key)."""

    frequencies: dict[AggregationGroup, int] = field(default_factory=dict)
    inducers: dict[AggregationGroup, list[tuple[int, GroupKey]]] = field(
        default_factory=dict
    )

    def total(self) -> int:
        return sum(self.frequencies.values())

    def __len__(self):
        return len(self.frequencies)


def derive_aggregation_groups(rel: Relation, workload: Sequence[QuerySpec]) -> FrequencyTable:
    """Deduce all aggregation groups of a workload and their frequencies.

    Every query contributes its repeat count to each (column, occurring
    group) it induces under its predicate; entities with identical column
    and member-row set accumulate across queries.  Groups emptied by a
    predicate are not materialized.
    """
    if not workload:
        raise EmptyProblem("workload is empty")
    table = FrequencyTable()
    by_identity: dict[tuple[str, frozenset[int]], AggregationGroup] = {}
    for qidx, query in enumerate(workload):
        for col in query.agg_columns:
            if rel.kind_of(col) != "numeric":
                raise UnknownColumn(col)
        mask = None if query.predicate is None else query.predicate.mask(rel)
        _, values, order, bounds = rel.strata(query.group_attrs)
        if mask is not None:
            # keep the matching rows; each bound moves to the count kept before it
            keep = mask[order]
            order = order[keep]
            bounds = np.concatenate(([0], np.cumsum(keep)))[bounds]
        rows = order.tolist()
        for k, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            if lo == hi:
                continue
            key = GroupKey(query.group_attrs, values[k])
            members = frozenset(rows[lo:hi])
            for col in query.agg_columns:
                ident = (col, members)
                entity = by_identity.get(ident)
                if entity is None:
                    entity = AggregationGroup(col, key, members)
                    by_identity[ident] = entity
                    table.frequencies[entity] = 0
                    table.inducers[entity] = []
                table.frequencies[entity] += query.repeats
                table.inducers[entity].append((qidx, key))
    return table


def weights_from_frequencies(
    table: FrequencyTable, transform: str = "identity"
) -> WeightSpec:
    """Weights proportional to entity frequencies (or their square roots).

    The weight of an entity is attached, for every query that induces it,
    to that query's (index, group key, column) triple so the allocators can
    look it up.  Absolute scale is irrelevant: the allocation is invariant
    to rescaling all weights.
    """
    if not table.frequencies:
        raise EmptyProblem("frequency table is empty")
    entries: dict[tuple, float] = {}
    for entity, freq in table.frequencies.items():
        w = _transform(freq, transform)
        for qidx, key in table.inducers[entity]:
            entries[(qidx, key.values, entity.column)] = w
    return WeightSpec(entries)


def allocation_inputs(
    table: FrequencyTable, transform: str = "identity"
) -> tuple[list[GroupQuery], WeightSpec]:
    """Deduplicated allocation view of a workload.

    The optimization objective sums the weighted squared CV of every
    *distinct* entity once, so entities shared by several queries must not
    enter once per inducing query.  This builds one synthetic single-column
    query per (grouping attrs, column) pair and attaches each entity's
    weight to it exactly once (entities whose memberships differ only by a
    predicate accumulate on their shared group slot, since the allocator
    optimizes the unrestricted group estimator as their proxy).  The
    returned WeightSpec defaults to 0 so group/column combinations the
    workload never asks about carry no accuracy demand.
    """
    if not table.frequencies:
        raise EmptyProblem("frequency table is empty")
    queries: list[GroupQuery] = []
    index: dict[tuple, int] = {}
    entries: dict[tuple, float] = {}
    for entity, freq in table.frequencies.items():
        _, first_key = table.inducers[entity][0]
        slot = (first_key.attrs, entity.column)
        if slot not in index:
            index[slot] = len(queries)
            queries.append(GroupQuery(first_key.attrs, (entity.column,)))
        probe = (index[slot], first_key.values, entity.column)
        entries[probe] = entries.get(probe, 0.0) + _transform(freq, transform)
    return queries, WeightSpec(entries, default=0.0)


def _transform(freq: int, transform: str) -> float:
    if transform == "identity":
        return float(freq)
    if transform == "sqrt":
        return float(freq) ** 0.5
    raise InvalidArgument(f"unknown weight transform {transform!r}")


# ---------------------------------------------------------------------------
# workload files


def workload_from_json(text: str, source: str = "workload") -> list[QuerySpec]:
    """Parse a workload file: a JSON array of
    {group_by, aggregates, predicate?, repeats?}.  A document that is not
    an array, an item that is not an object or lacks ``group_by`` or
    ``aggregates``, and a ``repeats`` that is not a JSON integer raise
    :class:`InvalidDocument` naming ``source`` and the field."""
    doc = expect(source, json.loads(text), "", LIST[0], "a list of queries")
    out = []
    for i, item in enumerate(doc):
        get = partial(member, source, item, f"[{i}]")
        group_attrs = tuple(get("group_by", *STRINGS))
        agg_columns = tuple(get("aggregates", *STRINGS))
        pred = item.get("predicate")
        repeats = get("repeats", *INTEGER, default=1)
        out.append(
            QuerySpec(
                group_attrs=group_attrs,
                agg_columns=agg_columns,
                predicate=Predicate.from_json(pred, source, f"[{i}].predicate")
                if pred
                else None,
                repeats=repeats,
            )
        )
    return out


def workload_to_json(workload: Sequence[QuerySpec]) -> str:
    doc = [
        {
            "group_by": list(q.group_attrs),
            "aggregates": list(q.agg_columns),
            "predicate": q.predicate.to_json() if q.predicate else None,
            "repeats": q.repeats,
        }
        for q in workload
    ]
    return json.dumps(doc, indent=2)
