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

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .dataset import Relation
from .errors import (
    INTEGER,
    LIST,
    STRINGS,
    EmptyProblem,
    InvalidArgument,
    UnknownColumn,
    expect,
    member,
    parse_json,
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


@dataclass
class FrequencyTable:
    """The distinct aggregation groups (entities) of a workload, one row per
    entity in order of first induction: entity e aggregates ``columns[e]``
    over the rows ``members[e]`` (ascending row ids, read-only), the group
    with values ``values[e]`` under ``attrs[e]`` in the first query that
    induced it; ``frequencies[e]`` is its summed repeat count, and
    ``inducers[e]`` lists each inducing query's index with its value tuple
    of the group."""

    columns: list[str] = field(default_factory=list)
    attrs: list[tuple[str, ...]] = field(default_factory=list)
    values: list[tuple] = field(default_factory=list)
    members: list[np.ndarray] = field(default_factory=list)
    frequencies: list[int] = field(default_factory=list)
    inducers: list[list[tuple[int, tuple]]] = field(default_factory=list)

    def total(self) -> int:
        return sum(self.frequencies)

    def __len__(self):
        return len(self.frequencies)


def derive_aggregation_groups(rel: Relation, workload: Sequence[QuerySpec]) -> FrequencyTable:
    """Deduce all aggregation groups of a workload and their frequencies.

    Every query contributes its repeat count to each (column, occurring
    group) it induces under its predicate; entities with identical column
    and member rows accumulate across queries.  Groups emptied by a
    predicate are not materialized.
    """
    if not workload:
        raise EmptyProblem("workload is empty")
    table = FrequencyTable()
    # (column, member count, first and last member row) -> the entities of
    # that fingerprint; a group is the one whose members are its rows
    entity_of: dict[tuple, list[int]] = {}
    for qidx, query in enumerate(workload):
        for col in query.agg_columns:
            if rel.kind_of(col) != "numeric":
                raise UnknownColumn(col)
        _, values, order, bounds = rel.strata(query.group_attrs)
        if query.predicate is not None:
            # keep the matching rows; each bound moves down by the rows dropped before it
            keep = query.predicate.mask(rel)[order]
            order = order[keep]
            order.flags.writeable = False
            bounds = bounds - np.searchsorted(np.flatnonzero(~keep), bounds)
        held = np.flatnonzero(bounds[1:] > bounds[:-1])
        lo, hi = bounds[held], bounds[held + 1]
        for k, a, b, first, last in zip(
            held.tolist(), lo.tolist(), hi.tolist(), order[lo].tolist(), order[hi - 1].tolist()
        ):
            members = order[a:b]
            for col in query.agg_columns:
                same = entity_of.setdefault((col, b - a, first, last), [])
                e = next((e for e in same if np.array_equal(table.members[e], members)), None)
                if e is None:
                    e = len(table.frequencies)
                    same.append(e)
                    table.columns.append(col)
                    table.attrs.append(query.group_attrs)
                    table.values.append(values[k])
                    table.members.append(members)
                    table.frequencies.append(0)
                    table.inducers.append([])
                table.frequencies[e] += query.repeats
                table.inducers[e].append((qidx, values[k]))
    return table


def weights_from_frequencies(
    table: FrequencyTable, transform: str = "identity"
) -> WeightSpec:
    """Weights proportional to entity frequencies (or their square roots).

    The weight of an entity is attached, for every query that induces it,
    to that query's (index, group values, column) triple so the allocators
    can look it up.  Absolute scale is irrelevant: the allocation is
    invariant to rescaling all weights.
    """
    entries: dict[tuple, float] = {}
    for column, w, inducers in zip(table.columns, _weights(table, transform), table.inducers):
        for qidx, values in inducers:
            entries[(qidx, values, column)] = w
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
    queries: list[GroupQuery] = []
    index: dict[tuple, int] = {}
    entries: dict[tuple, float] = {}
    for attrs, values, column, w in zip(
        table.attrs, table.values, table.columns, _weights(table, transform)
    ):
        slot = index.setdefault((attrs, column), len(queries))
        if slot == len(queries):
            queries.append(GroupQuery(attrs, (column,)))
        probe = (slot, values, column)
        entries[probe] = entries.get(probe, 0.0) + w
    return queries, WeightSpec(entries, default=0.0)


#: the weight of an entity of each frequency, by weight transform name
WEIGHT_TRANSFORMS = {"identity": float, "sqrt": lambda freq: float(freq) ** 0.5}


def _weights(table: FrequencyTable, transform: str) -> list[float]:
    """Every entity's weight: its frequency under the ``transform`` of
    :data:`WEIGHT_TRANSFORMS`."""
    if not table.frequencies:
        raise EmptyProblem("frequency table is empty")
    if transform not in WEIGHT_TRANSFORMS:
        raise InvalidArgument(f"unknown weight transform {transform!r}")
    return list(map(WEIGHT_TRANSFORMS[transform], table.frequencies))


# ---------------------------------------------------------------------------
# workload files


def workload_from_json(text: str, source: str = "workload") -> list[QuerySpec]:
    """Parse a workload file: a JSON array of
    {group_by, aggregates, predicate?, repeats?}.  A document that is not
    an array, an item that is not an object or lacks ``group_by`` or
    ``aggregates``, and a ``repeats`` that is not a JSON integer raise
    :class:`InvalidDocument` naming ``source`` and the field."""
    doc = expect(source, parse_json(text, source), "", LIST[0], "a list of queries")
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

