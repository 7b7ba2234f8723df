"""Budgeted stratified sampling over an append-only stream.

Rows arrive in mini-batches, each some rows of a :class:`Relation`; a
batch decodes only its grouping values and the rows it offers a place.
Under the stream's seed the i-th row accepted has the uniform key
``default_rng(seed).random(N)[i]``, whatever the batches.  A stratum
retains the rows with the smallest keys it has ever seen, tracking d_i,
the smallest key it ever discarded (1.0 until the first eviction).  A new
row enters its stratum's sample iff its key is at most d_i, which keeps
every retained set an exact bottom-k by key, hence a uniform
without-replacement subset of the stratum so far.

Each batch scores every stratum with f(i)^2, kept as ``f2``: the squared
CVs of its online statistics summed over the configured columns, floored
as the offline costs are.  The total may then exceed the budget M; the
settle step gives the strata that hold rows the sizes of
:func:`alloc.l2_sizes`, the planners' exact integer allocator, with their
held rows as caps: the exact minimum of the objective

    F = sum_i f(i)^2 / s_i

over 1 <= s_i <= held_i with sum(s_i) = M, so no stratum empties while M
covers one row each; below that, the M strata with the largest f keep one
row each (ties to the lowest id).  Each settle is optimal from the state
it starts in; evicted rows are gone, so a whole stream is not.  The
targets M_i = M * f(i) / sum(f), the offline closed form, are reported.
Evicted rows are always the largest keys of their stratum.

The state is arrays by stratum id (ids in first-arrival order) and one
table of retained records.  A batch updates the moments in lockstep over
each stratum's k-th arrival, one vectorized Welford step per rank k and
distinct column, so each stratum folds its values in arrival order.

With batch size one this is a pure streaming sampler; with the entire
stream as one batch it reduces to the offline pipeline (same statistics,
same targets), up to one row of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .alloc import (
    AllocationPlan,
    L2,
    _assemble_plan,
    check_budget,
    cv2_costs,
    floor_zero_costs,
    l2_objective,
    l2_sizes,
    solve_fractional,
)
from .dataset import CATEGORICAL, NUMERIC, ColumnSchema, GroupKey, Relation, encode_into
from .errors import FloatOverflow, SchemaMismatch, UnknownAttribute, UnknownColumn, check_seed
from .sampler import StratifiedSample
from .stats import compute_catalog, std_of

#: one retained row: its stratum id, key, arrival ordinal and record
RETAINED = np.dtype([("stratum", "i8"), ("key", "f8"), ("ordinal", "i8"), ("record", "O")])


@dataclass
class SettleReport:
    """One settle, in arrays by stratum id: the rows ``evicted``, the targets
    M_i and the scores f(i)^2 (both empty when nothing was over budget)."""

    beta: int
    evicted: np.ndarray
    targets: np.ndarray
    f_squared: np.ndarray
    delta_objective: float


@dataclass
class StreamState:
    """Stratum k has the group values that ``ids`` maps to k, ``n_seen[k]``
    arrivals, threshold ``d[k]``, per column c of ``columns`` moments
    ``mean[c][k]`` and ``m2[c][k]``, and the score ``f2[k]`` those moments
    give; ``retained`` holds the kept rows and ``rng`` draws their keys."""

    schema: tuple[ColumnSchema, ...]
    group_attrs: tuple[str, ...]
    columns: tuple[str, ...]
    budget: int
    mean: dict[str, np.ndarray]
    m2: dict[str, np.ndarray]
    rng: np.random.Generator
    ids: dict[tuple, int] = field(default_factory=dict)
    n_seen: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    d: np.ndarray = field(default_factory=lambda: np.zeros(0))
    f2: np.ndarray = field(default_factory=lambda: np.zeros(0))
    retained: np.ndarray = field(default_factory=lambda: np.zeros(0, RETAINED))
    arrivals: int = 0
    last_settle: SettleReport | None = None

    @property
    def total_retained(self) -> int:
        return len(self.retained)

    def sizes(self) -> np.ndarray:
        """Retained rows per stratum."""
        return np.bincount(self.retained["stratum"], minlength=len(self.ids))

    def objective_value(self) -> float:
        """F = sum f(i)^2 / s_i over retained strata (inf on an empty one)."""
        return l2_objective(self.f2, self.sizes())

    def snapshot(self) -> StratifiedSample:
        """Read-only view of the current sample for querying."""
        rows = self.retained[np.lexsort((self.retained["ordinal"], self.retained["stratum"]))]
        records = rows["record"].tolist()  # decoded from this schema: no cell to check
        columns = zip(self.schema, list(zip(*records)) or [()] * len(self.schema))
        relation = Relation(self.schema, {c.name: col for c, col in columns}, len(records))
        return StratifiedSample(
            self.schema, self.group_attrs, "stream", 0, list(self.ids), self.n_seen,
            self.sizes(), relation, rows["ordinal"],
        )


def _squared_cvs(state: StreamState, n_seen, mean, m2) -> np.ndarray:
    """sum_c cv_c^2 per stratum from these counts and moments (a zero-mean
    column adds nothing).  A sum beyond the float range raises
    :class:`FloatOverflow` naming its stratum and the column that took it
    there."""
    total = np.zeros(len(n_seen))
    for col in state.columns:
        mu = mean[col]
        std = std_of(n_seen, m2[col])
        with np.errstate(over="ignore"):
            cv = np.divide(std, np.abs(mu), out=np.zeros(len(mu)), where=mu != 0.0)
            total = total + cv * cv  # the correctly rounded square, as in cv2_costs
        bad = np.flatnonzero(~np.isfinite(total))
        if bad.size:
            key = GroupKey(state.group_attrs, list(state.ids)[bad[0]])
            raise FloatOverflow("the squared CV is", key, col)
    return total


def make_state(
    schema: Sequence[ColumnSchema],
    group_attrs: Sequence[str],
    columns: Sequence[str],
    budget: int,
    seed: int,
) -> StreamState:
    """An empty state over categorical ``group_attrs`` and numeric ``columns``."""
    check_budget(budget)
    check_seed(seed)
    kinds = {c.name: c.kind for c in schema}
    columns = tuple(columns)
    for names, kind, error in ((group_attrs, CATEGORICAL, UnknownAttribute),
                               (columns, NUMERIC, UnknownColumn)):
        for a in names:
            if a not in kinds:
                raise SchemaMismatch(f"column {a!r} not in schema")
            if kinds[a] != kind:
                raise error(a)
    return StreamState(tuple(schema), tuple(group_attrs), columns, int(budget),
                       {c: np.zeros(0) for c in columns}, {c: np.zeros(0) for c in columns},
                       np.random.default_rng(seed))


def _observe(state: StreamState, sid: np.ndarray, values: list[np.ndarray], new: int):
    """The counts and moments with the batch folded in, as new arrays (the
    state is not changed): Welford's update, one vectorized step per rank k
    per distinct column of ``state.columns``, with which ``values`` is
    aligned, over every stratum's k-th arrival.  New strata start at zero."""
    n_seen = np.concatenate((state.n_seen, np.zeros(new, np.int64)))
    mean = {c: np.concatenate((x, np.zeros(new))) for c, x in state.mean.items()}
    m2 = {c: np.concatenate((x, np.zeros(new))) for c, x in state.m2.items()}
    counts = np.bincount(sid, minlength=len(n_seen))
    by_stratum = np.argsort(sid, kind="stable")
    rank = np.arange(len(sid)) - (np.cumsum(counts) - counts)[sid[by_stratum]]
    by_rank = by_stratum[np.argsort(rank, kind="stable")]
    bounds = np.cumsum(np.bincount(rank)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # the caller rejects an overflow
        for k, (lo, hi) in enumerate(zip([0] + bounds, bounds)):
            rows = by_rank[lo:hi]
            s = sid[rows]
            count = n_seen[s] + (k + 1)
            for col, x in dict(zip(state.columns, values)).items():
                x = x[rows]
                before = mean[col][s]
                delta = x - before
                mean[col][s] = before + delta / count
                m2[col][s] = m2[col][s] + delta * (x - mean[col][s])
    return n_seen + counts, mean, m2


def ingest_batch(state: StreamState, rel: Relation, rows) -> StreamState:
    """Feed the rows ``rows`` of ``rel`` in order as one batch, then settle to the budget.

    Every arriving row updates its stratum's online moments and count,
    takes the next key of ``state.rng`` and is retained only if the key
    passes the stratum's discard threshold; new strata start with d = 1.0
    (accept everything).  A relation of another schema, a non-finite
    aggregation value or a batch that would overflow a stratum's moments
    raises :class:`SchemaMismatch`, and one that would take a stratum's
    squared CV beyond the float range raises :class:`FloatOverflow`; either
    leaves the state, ``rng`` included, as it was.
    """
    if rel.schema != state.schema:
        raise SchemaMismatch("the relation's schema is not the stream's")
    rows = np.asarray(rows, dtype=np.intp)
    values = [rel.numeric(c)[rows] for c in state.columns]
    if not all(np.isfinite(x).all() for x in values):
        raise SchemaMismatch("non-finite value in an aggregation column")
    ids, known = state.ids, len(state.n_seen)  # value tuple -> id, in first-arrival order
    sid = encode_into(rel.records(rows, state.group_attrs), ids, ids)
    try:
        n_seen, mean, m2 = _observe(state, sid, values, len(ids) - known)
        if not np.isfinite([*mean.values(), *m2.values()]).all():
            raise SchemaMismatch("aggregation values overflow their stratum's moments")
        f2 = floor_zero_costs(_squared_cvs(state, n_seen, mean, m2))
    except (SchemaMismatch, FloatOverflow):
        state.ids = dict(list(ids.items())[:known])  # forget the batch's new strata
        raise
    state.d = np.concatenate((state.d, np.ones(len(ids) - known)))
    state.n_seen, state.mean, state.m2, state.f2 = n_seen, mean, m2, f2

    keys = state.rng.random(len(rows))
    offered = np.flatnonzero(keys <= state.d[sid])
    if offered.size:
        new = np.empty(offered.size, RETAINED)
        new["stratum"], new["key"] = sid[offered], keys[offered]
        new["ordinal"] = state.arrivals + offered
        new["record"] = np.fromiter(rel.records(rows[offered]), object, offered.size)
        state.retained = np.concatenate([state.retained, new])
    state.arrivals += len(rows)
    settle_budget(state)
    return state


def settle_budget(state: StreamState) -> StreamState:
    """Evict the rows above budget: the strata that hold rows keep the
    sizes :func:`gbsample.alloc.l2_sizes` gives them, with their held rows
    as caps, the exact integer minimizer of F when the budget covers one
    row each.  The table sorted by (stratum, key) loses each stratum's
    tail, and d becomes the first key cut.
    """
    retained = state.retained
    beta = len(retained) - state.budget
    evicted = np.zeros(len(state.ids), dtype=np.int64)
    if beta <= 0:
        state.last_settle = SettleReport(0, evicted, np.zeros(0), np.zeros(0), 0.0)
        return state
    f2 = state.f2
    shares = solve_fractional(f2, state.budget)
    before = state.sizes()
    held = np.flatnonzero(before)
    evicted[held] = before[held] - l2_sizes(shares[held], f2[held], before[held], state.budget)[0]

    # the rows of the strata that lose rows, sorted by (stratum, key)
    changed = np.flatnonzero(evicted)
    rows = np.flatnonzero(evicted[retained["stratum"]])
    rows = rows[np.lexsort((retained["key"][rows], retained["stratum"][rows]))]
    at = np.searchsorted(changed, retained["stratum"][rows])
    rank = np.arange(len(rows)) - (np.cumsum(before[changed]) - before[changed])[at]
    kept = before[changed] - evicted[changed]
    state.d[changed] = retained["key"][rows[rank == kept[at]]]
    state.retained = np.delete(retained, rows[rank >= kept[at]])

    with np.errstate(divide="ignore"):  # a stratum emptied adds inf
        delta = (f2[changed] * (1.0 / kept - 1.0 / before[changed])).sum()
    state.last_settle = SettleReport(beta, evicted, shares, f2, float(delta))
    return state


def offline_plan(
    rel: Relation,
    group_attrs: Sequence[str],
    columns: Sequence[str],
    budget: int,
) -> AllocationPlan:
    """The offline allocation the streaming sampler converges to; as in
    :attr:`StreamState.f2`, a zero-mean column adds nothing."""
    catalog = compute_catalog(rel, group_attrs, columns)
    costs, _ = cv2_costs(catalog, columns)
    strata = np.arange(len(catalog))
    return _assemble_plan(L2, catalog, strata, floor_zero_costs(costs), [], budget)
