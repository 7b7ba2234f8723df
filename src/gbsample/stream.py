"""Budgeted stratified sampling over an append-only stream.

Rows arrive in mini-batches.  Each row receives a fresh uniform (0, 1)
key; a stratum retains the rows with the smallest keys it has ever seen,
tracking d_i, the smallest key it ever discarded (1.0 until the first
eviction).  A new row enters its stratum's sample iff its key is at most
d_i, which keeps every retained set an exact bottom-k by key, hence a
uniform without-replacement subset of the stratum so far.

After each batch the total may exceed the budget M.  The settle step
computes fractional per-stratum targets M_i = M * f(i) / sum(f) from the
current online statistics (f is the square root of the configured
weighted squared-CV score, as in the offline allocators) and evicts the
excess.  The policy is that only strata above their target ever lose
rows; among such evictions the counts minimize the increase of the
objective

    F = sum_i f(i)^2 / s_i

exactly, by repeatedly removing a row from the stratum with the smallest
marginal increase f(i)^2 (1 / (s_i - 1) - 1 / s_i) (:func:`alloc.shed`,
exact for this separable convex objective).  The policy can cost F: with
f^2 = (0.10346266, 4.89471939, 0.13759474, 3.88691962), sizes
(2, 3, 2, 2) and four rows to evict, stratum 3 sits below its target, so
settle keeps (1, 1, 1, 2) with an F increase of 3.384, where (1, 2, 1, 1)
would add only 2.880.  Evicted rows are always the largest keys of their
stratum.

With batch size one this is a pure streaming sampler; with the entire
stream as one batch it reduces to the offline pipeline (same statistics,
same targets), up to one row of rounding.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .alloc import (
    AllocationPlan,
    L2,
    UNIT_WEIGHTS,
    WeightSpec,
    _assemble_plan,
    floor_zero_costs,
    l2_loss,
    shed,
)
from .dataset import ColumnSchema, GroupKey, Relation
from .errors import SchemaMismatch
from .sampler import StratifiedSample, StratumSample, draw_stratified
from .stats import EMPTY_MOMENTS, RunningMoments, accumulate, compute_catalog


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which columns and weights drive the per-stratum score f(i)^2."""

    columns: tuple[str, ...]
    weights: WeightSpec = UNIT_WEIGHTS


@dataclass
class KeyedStratumSample:
    """Bottom-k-by-key reservoir for one stratum plus its online moments."""

    key: GroupKey
    d: float = 1.0
    n_seen: int = 0
    moments: dict[str, RunningMoments] = field(default_factory=dict)
    # max-heap on key via negation: entries are (-key, arrival ordinal, record)
    heap: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.heap)

    def observe(self, record_values: dict[str, float]) -> None:
        self.n_seen += 1
        for col, x in record_values.items():
            self.moments[col] = accumulate(self.moments.get(col, EMPTY_MOMENTS), x)

    def offer(self, key_value: float, ordinal: int, record: tuple) -> bool:
        if key_value <= self.d:
            heapq.heappush(self.heap, (-key_value, ordinal, record))
            return True
        return False

    def evict(self, count: int) -> None:
        """Drop the ``count`` largest keys; d becomes the smallest dropped."""
        smallest = None
        for _ in range(count):
            neg_key, _, _ = heapq.heappop(self.heap)
            smallest = -neg_key
        if smallest is not None:
            self.d = smallest

    def retained_keys(self) -> list[float]:
        return sorted(-neg for neg, _, _ in self.heap)


@dataclass
class SettleReport:
    beta: int
    evicted: dict[GroupKey, int]
    targets: dict[GroupKey, float]
    f_squared: dict[GroupKey, float]
    delta_objective: float


@dataclass
class StreamState:
    schema: tuple[ColumnSchema, ...]
    group_attrs: tuple[str, ...]
    objective: ObjectiveSpec
    budget: int
    strata: dict[GroupKey, KeyedStratumSample] = field(default_factory=dict)
    arrivals: int = 0
    last_settle: SettleReport | None = None

    @property
    def total_retained(self) -> int:
        return sum(s.size for s in self.strata.values())

    def scores(self) -> tuple[list[GroupKey], np.ndarray]:
        """Per-stratum f(i)^2 from the current online moments.

        Zero-variance or zero-mean strata score 0 and are floored to a
        vanishing positive value, mirroring the offline cost floor.
        """
        keys = list(self.strata)
        raw = np.zeros(len(keys))
        for i, key in enumerate(keys):
            st = self.strata[key]
            total = 0.0
            for col in self.objective.columns:
                m = st.moments.get(col, EMPTY_MOMENTS)
                if m.mean == 0.0:
                    continue
                cv = m.std / abs(m.mean)
                total += self.objective.weights.weight(0, key, col) * cv * cv
            raw[i] = total
        return keys, floor_zero_costs(raw)

    def targets(self) -> dict[GroupKey, float]:
        """Fractional optimal sizes M_i = M * f(i) / sum f(j)."""
        keys, f2 = self.scores()
        f = np.sqrt(f2)
        shares = self.budget * f / f.sum()
        return dict(zip(keys, shares))

    def objective_value(self) -> float:
        """F = sum f(i)^2 / s_i over retained strata (inf on an empty one)."""
        keys, f2 = self.scores()
        total = 0.0
        for key, f2_i in zip(keys, f2):
            s = self.strata[key].size
            if s == 0:
                return math.inf
            total += f2_i / s
        return total

    def snapshot(self) -> StratifiedSample:
        """Read-only view of the current sample for querying."""
        sample = StratifiedSample(self.schema, self.group_attrs, "stream", 0)
        for key, st in self.strata.items():
            entries = sorted(st.heap, key=lambda e: e[1])
            sample.strata.append(
                StratumSample(
                    key,
                    st.n_seen,
                    st.size,
                    [e[1] for e in entries],
                    [e[2] for e in entries],
                )
            )
        return sample


def make_state(
    schema: Sequence[ColumnSchema],
    group_attrs: Sequence[str],
    objective: ObjectiveSpec,
    budget: int,
) -> StreamState:
    names = {c.name for c in schema}
    for a in tuple(group_attrs) + tuple(objective.columns):
        if a not in names:
            raise SchemaMismatch(f"column {a!r} not in schema")
    return StreamState(tuple(schema), tuple(group_attrs), objective, int(budget))


def batch_keys(seed: int, count: int) -> np.ndarray:
    """Uniform keys assigned to a batch, in row order.

    Exposed so replay checks can regenerate the exact keys a batch used.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    return rng.random(count)


def ingest_batch(state: StreamState, batch: Sequence[tuple], seed: int) -> StreamState:
    """Feed one mini-batch, then settle back to the budget.

    Every arriving row updates its stratum's online moments and count; it
    is retained only if its key passes the stratum's discard threshold.
    New strata start with d = 1.0 (accept everything).
    """
    by_name = {c.name: i for i, c in enumerate(state.schema)}
    group_pos = [by_name[a] for a in state.group_attrs]
    col_pos = {col: by_name[col] for col in state.objective.columns}
    n_cols = len(state.schema)

    keys = batch_keys(seed, len(batch))
    for key_value, record in zip(keys, batch):
        if len(record) != n_cols:
            raise SchemaMismatch(
                f"record has {len(record)} fields, schema has {n_cols}"
            )
        try:
            col_values = {col: float(record[i]) for col, i in col_pos.items()}
        except (TypeError, ValueError):
            raise SchemaMismatch("non-numeric value in an aggregation column") from None
        gkey = GroupKey(state.group_attrs, tuple(record[i] for i in group_pos))
        stratum = state.strata.get(gkey)
        if stratum is None:
            stratum = KeyedStratumSample(gkey)
            state.strata[gkey] = stratum
        stratum.observe(col_values)
        stratum.offer(float(key_value), state.arrivals, tuple(record))
        state.arrivals += 1
    settle_budget(state)
    return state


def settle_budget(state: StreamState) -> StreamState:
    """Evict the rows above budget, only from strata above their target.

    Strata at or below their fractional target M_i keep every row; among
    evictions from the others, the counts are the exact integer minimizer
    of the F increase (:func:`gbsample.alloc.shed` with the l2 loss).
    """
    beta = state.total_retained - state.budget
    if beta <= 0:
        state.last_settle = SettleReport(max(beta, 0), {}, {}, {}, 0.0)
        return state
    keys, f2 = state.scores()
    f = np.sqrt(f2)
    shares = state.budget * f / f.sum()
    before = np.array([state.strata[k].size for k in keys], dtype=np.int64)
    lower = np.where(before > shares, 0, before)
    after = shed(before, lower, beta, l2_loss(f2))

    evicted: dict[GroupKey, int] = {}
    delta = 0.0
    for k, f2_k, s_old, s_new in zip(keys, f2, before.tolist(), after.tolist()):
        if s_new == s_old:
            continue
        evicted[k] = s_old - s_new
        state.strata[k].evict(s_old - s_new)
        if s_new == 0:
            delta = math.inf
        elif not math.isinf(delta):
            delta += f2_k * (1.0 / s_new - 1.0 / s_old)
    state.last_settle = SettleReport(
        beta, evicted, dict(zip(keys, shares)), dict(zip(keys, f2)), delta
    )
    return state


def two_pass_reference(
    records: Sequence[tuple],
    schema: Sequence[ColumnSchema],
    group_attrs: Sequence[str],
    objective: ObjectiveSpec,
    budget: int,
    seed: int,
) -> StratifiedSample:
    """Offline oracle: first pass computes the catalog, second pass draws
    the planned sample.  Scores match the streaming f(i)^2 exactly."""
    rel = Relation.from_records(schema, records)
    plan = offline_plan(rel, group_attrs, objective, budget)
    return draw_stratified(rel, plan, seed)


def offline_plan(
    rel: Relation,
    group_attrs: Sequence[str],
    objective: ObjectiveSpec,
    budget: int,
) -> AllocationPlan:
    """The offline allocation the streaming sampler converges to."""
    catalog = compute_catalog(rel, group_attrs, objective.columns)
    keys = list(catalog.entries)
    raw = np.zeros(len(keys))
    for i, key in enumerate(keys):
        st = catalog.entries[key]
        total = 0.0
        for col in objective.columns:
            s = st.per_column[col]
            if s.cv_defined:
                total += objective.weights.weight(0, key, col) * s.cv**2
        raw[i] = total
    return _assemble_plan(L2, catalog, keys, floor_zero_costs(raw), [], budget)
