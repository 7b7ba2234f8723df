"""Sample-size allocation across strata.

All allocators here minimize a norm of the per-group coefficients of
variation of the estimates a stratified sample will produce.  The common
core is the closed-form minimizer of ``sum(c_i / s_i)`` subject to
``sum(s_i) = M`` (:func:`solve_fractional`), with recursive handling of
strata whose population is smaller than their ideal allocation
(:func:`resolve_caps`), which also give the streaming sampler's targets
and, at unit costs, the senate baseline's capped equal split.  Integer
sizes come from greedy removal from a warm start above an optimum, exact
for separable convex objectives and for minimax: :func:`_finish` selects
the cheapest removals as one array for :func:`l2_sizes`, which sizes
every l2 plan and each stream settle, and for :func:`plan_linf`.

Cost coefficients ``c_i`` are built from per-stratum statistics:

* one aggregation column:       c_i = w_i * cv_i^2
* several columns, one grouping: c_i = sum_j w_ij * cv_ij^2
* several groupings (stratify by the union of all grouping attributes):
  c_f = n_f^2 * sum_i (1 / n_gi^2) * sum_l w * sigma_fl^2 / mu_gl^2
  where f is a fine stratum and gi its containing group under query i.

The minimax allocator (:func:`plan_linf`) instead equalizes the predicted
CVs and minimizes their maximum: a bisection on the common CV gives the
continuous optimum and a warm start, which the same finish takes down.

Strata with zero variance receive a vanishing cost floor so that the
integer allocation gives them exactly one row (one row determines a
constant group exactly).
Strata with zero mean have no defined CV: by default they raise, or with
``zero_mean="exclude"`` they are taken out of the optimization and also
pinned at one row.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import GroupKey, Relation, stratum_ids
from .errors import (
    BOOL,
    COUNT,
    INTEGER,
    LIST,
    NAMES,
    NUMBER,
    OBJECT,
    STRING,
    STRINGS,
    AllStrataConstant,
    EmptyProblem,
    FloatOverflow,
    InvalidArgument,
    InvalidSampleSize,
    NonPositiveCost,
    RateOutOfRange,
    ZeroMeanCoarseGroup,
    ZeroMeanError,
    ZeroMeanGroup,
    ZeroMeanStratum,
    member,
    members,
    parse_json,
    stratum_keys,
)
from .stats import StatsCatalog

#: zero-variance strata get this fraction of the smallest positive cost
ZERO_COST_RATIO = 1e-12

L2 = "l2"
LINF = "linf"
INDIVIDUAL = "individual"
#: the ``zero_mean`` policies: a zero-mean stratum raises, or is excluded
ZERO_MEAN_POLICIES = ("error", "exclude")


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class WeightSpec:
    """Positive weights keyed by (query index, group values, column).

    Any component of the key may be None in ``entries`` to act as a
    wildcard; the most specific matching entry wins.  Unmatched lookups
    return ``default`` (1 normally; workload-derived specs use 0 so that
    never-queried combinations carry no accuracy demand).

    Immutable: ``entries`` is a read-only copy of the mapping given, and
    specs compare and hash by value.
    """

    entries: Mapping[tuple, float] = field(default_factory=dict)
    default: float = 1.0

    def __post_init__(self):
        for k, w in self.entries.items():
            if not w > 0:
                raise NonPositiveCost(f"weight for {k} must be positive, got {w}")
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def __hash__(self):
        return hash((frozenset(self.entries.items()), self.default))

    def weight(self, query: int | None, values: tuple | None, column: str | None) -> float:
        """The most specific entry for (query, values, column), or ``default``."""
        for probe in (
            (query, values, column),
            (None, values, column),
            (query, None, column),
            (None, None, column),
        ):
            if probe in self.entries:
                return self.entries[probe]
        return self.default

    def weights_of(self, query: int, keys: Sequence[tuple], column: str) -> np.ndarray:
        """:meth:`weight` of ``column`` for every group value tuple in ``keys``."""
        if not self.entries:
            return np.full(len(keys), self.default, dtype=np.float64)
        return np.array([self.weight(query, k, column) for k in keys], dtype=np.float64)


UNIT_WEIGHTS = WeightSpec()


# ---------------------------------------------------------------------------
# the fractional core


def solve_fractional(costs: np.ndarray, budget: float) -> np.ndarray:
    """Closed-form minimizer of sum(c_i / s_i) with sum(s_i) = budget.

    The optimum assigns s_i proportional to sqrt(c_i); at it, c_i / s_i^2
    is constant across strata (the stationarity condition).
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.size == 0:
        raise EmptyProblem("no strata to allocate over")
    if np.any(costs <= 0):
        raise NonPositiveCost("all cost coefficients must be positive")
    if not budget > 0:
        raise InvalidArgument(f"budget must be positive, got {budget}")
    root = np.sqrt(costs)
    return budget * root / root.sum()


def check_budget(budget: int) -> None:
    """Raise :class:`InvalidArgument` for a sample budget below one row."""
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")


def floor_zero_costs(costs: np.ndarray) -> np.ndarray:
    """Replace zero costs with a vanishing positive floor.

    The floor is small enough that an integer l2 allocation gives the
    floored strata exactly one row each (see :func:`l2_sizes`).
    """
    costs = np.asarray(costs, dtype=np.float64).copy()
    zero = costs == 0.0
    if not zero.any():
        return costs
    positive = costs[~zero]
    floor = float(positive.min()) * ZERO_COST_RATIO if positive.size else 1.0
    costs[zero] = floor
    return costs


# ---------------------------------------------------------------------------
# the integer core


def _finish(start: np.ndarray, excess: int,
            loss: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """``start`` less its ``excess`` cheapest removals, as greedy removal
    one unit at a time takes them, ties to the lowest index; no stratum
    drops below one unit.  ``loss(i, s)`` is the array of costs of taking
    stratum i[j] from s[j] units to s[j] - 1.  Where that never falls as s
    falls (a separable convex objective, or a minimax of terms that rise as
    units go), greedy removal from above an optimum ends at an optimum (the
    priority-value method; Wright 2012, Friedrich, Muennich, de Vries &
    Wagner 2015).  Each stratum's top min(start_i - 1, excess) units are
    listed in index order; all below the excess-th least loss go, then the
    first at it.  Where a rounded loss falls (the l2 loss from s =
    106,711,305 on), greedy removal takes the next unit at once, so a unit
    ranks at the running maximum of its stratum's losses."""
    if not excess:
        return start
    take = np.minimum(start - 1, excess)
    first = np.cumsum(take) - take
    unit = np.repeat(np.arange(start.size), take)  # in index order
    s = start[unit] - (np.arange(unit.size) - first[unit])
    cost = loss(unit, s)
    falls = (cost[1:] < cost[:-1]) & (unit[1:] == unit[:-1])
    for i in np.unique(unit[1:][falls]).tolist():
        run = slice(first[i], first[i] + take[i])
        cost[run] = np.maximum.accumulate(cost[run])
    cut = np.partition(cost, excess - 1)[excess - 1]
    below = cost < cut
    removed = np.concatenate([unit[below], unit[cost == cut][: excess - int(below.sum())]])
    return start - np.bincount(removed, minlength=start.size)


def _l2_loss(costs: np.ndarray, i: np.ndarray, s: np.ndarray) -> np.ndarray:
    """c_i * (1 / (s - 1) - 1 / s): what taking stratum i to s - 1 rows adds to sum(c / s)."""
    return costs[i] * (1.0 / (s - 1) - 1.0 / s)


def _cv_loss(n: np.ndarray, cv: np.ndarray, i: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The predicted CV that taking stratum i from s rows to s - 1 leaves,
    cv_i * sqrt((n_i - s + 1) / (n_i * (s - 1))) with the integers divided
    as Python divides them; that never falls as s falls, even rounded."""
    m = n[i]
    big = s - 1 >= -(-(2**53) // m)  # m * (s - 1) >= 2**53: floats would round it
    q = np.divide(m - s + 1, m * (s - 1), out=np.empty(i.size), where=~big)
    q[big] = [(a - b + 1) / (a * (b - 1)) for a, b in zip(m[big].tolist(), s[big].tolist())]
    return cv[i] * np.sqrt(q)


def _largest_above(total: Callable[[float], float], target: float, hi: float,
                   lo: float | None = None, exact: bool = False) -> float:
    """Largest theta, to float resolution, with total(theta) >= target, for
    a total that does not rise with theta.  The bracket starts at ``lo``
    (``hi`` if lo is None or 0), halved while its total falls short, then
    doubled while positive, below hi / 2 and still covering.  With
    ``exact`` the search ends at the first theta whose total equals the
    target: for an integer step total, the largest theta is on that step."""
    lo = lo or hi
    while (got := total(lo)) < target:
        lo /= 2.0
    while 0.0 < lo and 2.0 * lo < hi and not (exact and got == target):
        if (got := total(2.0 * lo)) >= target:
            lo *= 2.0
        else:
            hi = 2.0 * lo
    while not (exact and got == target):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break
        if (got := total(mid)) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def l2_sizes(
    fractional: np.ndarray, costs: np.ndarray, caps: np.ndarray, budget: int
) -> tuple[np.ndarray, list[str]]:
    """Exact integer minimizer of sum(c_i / s_i) over 1 <= s_i <= n_i with
    sum(s_i) = min(budget, sum(n_i)).

    The warm start keeps every row whose removal would cost at least mu,
    s_i(mu) = clip(floor(1/2 + sqrt(1/4 + c_i / mu)), 1, n_i), at the
    largest mu whose rows still cover the budget; every optimum lies
    componentwise below it, so :func:`_finish` by :func:`_l2_loss` ends at
    one exactly.  The search starts at the closed form's marginal loss
    (sum(sqrt(c)) / budget)^2 and stops at the first mu whose rows equal
    the budget: every mu on that step keeps the same rows.  A search that
    halves mu to 0 (costs near the float floor, or zero costs, which keep
    one row at every mu > 0) starts from the caps.  (Ceilings of the
    fractional optimum are not always above an optimum: with shares 2.99,
    twenty at 1.05 and 1.01 at budget 25 the optimum gives the first
    stratum 4 rows.)  Below one row per stratum the largest ``fractional``
    shares get one row each, ties to the lowest index, and a MissingGroups
    warning is attached.
    """
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

    def kept(mu: float) -> np.ndarray:  # as floats; the floor is at least 1
        if mu == 0.0:  # the search underflowed: start from the caps
            return caps
        return np.minimum(np.floor(0.5 + np.sqrt(0.25 + costs / mu)), caps)

    with np.errstate(over="ignore"):  # a c_i / mu beyond the float range keeps the cap
        mu = _largest_above(lambda mu: kept(mu).sum(), target, float(costs.max()),
                            float(np.sqrt(costs).sum() / target) ** 2, exact=True)
        start = kept(mu).astype(np.int64)
    return _finish(start, int(start.sum()) - target, partial(_l2_loss, costs)), []


# ---------------------------------------------------------------------------
# plans


@dataclass
class AllocationPlan:
    """Fractional and integral per-stratum sample sizes plus diagnostics;
    ``capped`` flags, per stratum of ``keys``, the strata whose allocation
    reached their population."""

    method: str
    group_attrs: tuple[str, ...]
    keys: tuple[GroupKey, ...]
    populations: np.ndarray
    fractional: np.ndarray
    sizes: np.ndarray
    budget: int
    capped: np.ndarray
    costs: np.ndarray | None = None
    warnings: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def total_size(self) -> int:
        return int(self.sizes.sum())

    def objective_fractional(self) -> float:
        return l2_objective(self.costs, self.fractional)

    def objective_integral(self) -> float:
        return l2_objective(self.costs, self.sizes)


def ordered_sum(terms) -> float:
    """The terms added strictly left to right to 0.0, as a loop adds them on
    every Python (builtin sum compensates from 3.12, numpy's sum is pairwise)."""
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf
        return float(np.add.accumulate(np.append(0.0, terms))[-1])


def l2_objective(costs: np.ndarray | None, sizes: np.ndarray) -> float:
    """sum(c_i / s_i) in stratum order; infinite if a stratum with positive cost has no rows."""
    if costs is None:
        return math.nan
    costs, sizes = np.asarray(costs, dtype=float), np.asarray(sizes, dtype=float)
    empty = sizes <= 0
    if (costs[empty] > 0).any():
        return math.inf
    return ordered_sum(np.divide(costs, sizes, out=np.zeros(len(costs)), where=~empty))


def resolve_caps(
    costs: np.ndarray, caps: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fractional allocation with bounded strata pinned at their population.

    Repeatedly solves the closed form, freezes every stratum whose share
    exceeds its population at that population, and re-solves the remainder
    under the reduced budget, until no stratum is oversubscribed.  Returns
    the full fractional vector and a boolean mask of pinned strata.
    """
    costs = np.asarray(costs, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.int64)
    r = costs.size
    if budget >= int(caps.sum()):
        return caps.astype(np.float64), np.ones(r, dtype=bool)
    frozen = np.zeros(r, dtype=bool)
    out = np.zeros(r, dtype=np.float64)
    while True:
        active = np.flatnonzero(~frozen)
        remaining = budget - int(caps[frozen].sum())
        share = solve_fractional(costs[active], remaining)
        out[active] = share
        over = active[share > caps[active]]
        if over.size == 0:
            break
        frozen[over] = True
    out[frozen] = caps[frozen]
    return out, frozen


def plan_l2(
    catalog: StatsCatalog,
    columns: Sequence[str],
    budget: int,
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> AllocationPlan:
    """Allocation minimizing the weighted l2 norm of predicted CVs for one
    grouping and one or more aggregation columns."""
    kept, costs, excluded = cv_costs(catalog, columns, weights, zero_mean)
    return _assemble_plan(L2, catalog, kept, costs, excluded, budget)


def cv2_costs(
    catalog: StatsCatalog,
    columns: Sequence[str],
    weights: WeightSpec = UNIT_WEIGHTS,
    query: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stratum cost sum_j w_j * (sigma_j / |mu_j|)^2 over ``columns``,
    added in column order, and per stratum the position in ``columns`` of
    its first zero-mean column of nonzero weight (-1 if none).

    Zero-weight columns add nothing; zero-mean columns have no CV and add
    nothing either, so each caller applies its own zero-mean policy to the
    strata the second array flags.  A cost beyond the float range raises
    :class:`FloatOverflow` naming the first stratum and the column that
    took it there.
    """
    costs = np.zeros(len(catalog))
    first_zero = np.full(len(catalog), -1)
    for j, col in enumerate(columns):
        w = weights.weights_of(query, catalog.keys, col)
        mu = catalog.mean[col]
        zero = (w != 0.0) & (mu == 0.0)
        first_zero[zero & (first_zero < 0)] = j
        on = (w != 0.0) & ~zero
        with np.errstate(over="ignore"):
            cv = catalog.std[col][on] / np.abs(mu[on])
            costs[on] = costs[on] + w[on] * (cv * cv)
        bad = np.flatnonzero(~np.isfinite(costs))
        if bad.size:
            raise FloatOverflow("the squared-CV cost is", catalog.group_keys([int(bad[0])])[0], col)
    return costs, first_zero


def _excludes_zero_mean(zero_mean: str) -> bool:
    """Whether the ``zero_mean`` policy is "exclude"; a value not in
    :data:`ZERO_MEAN_POLICIES` raises :class:`InvalidArgument`."""
    if zero_mean not in ZERO_MEAN_POLICIES:
        raise InvalidArgument(
            f"unknown zero_mean policy {zero_mean!r}; expected one of {ZERO_MEAN_POLICIES}"
        )
    return zero_mean == "exclude"


def _zero_mean_split(zero_mean: str, first_zero, catalog: StatsCatalog, columns, error):
    """(kept, excluded), the catalog indices of the strata that the
    ``first_zero`` of :func:`cv2_costs` flags without and with a zero-mean
    column, under the validated ``zero_mean`` policy; under "error" the
    first flagged stratum raises ``error`` naming it and that column."""
    exclude = _excludes_zero_mean(zero_mean)
    zero = np.flatnonzero(first_zero >= 0)
    if zero.size and not exclude:
        k = int(zero[0])
        raise error(catalog.group_keys([k])[0], columns[first_zero[k]])
    return np.flatnonzero(first_zero < 0), zero


def cv_costs(
    catalog: StatsCatalog,
    columns: Sequence[str],
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-stratum cost coefficients sum_j w_j * cv_j^2 over the columns
    (:func:`cv2_costs`) under the ``zero_mean`` policy.

    Returns (kept, costs, excluded): the catalog indices of the kept strata,
    their costs with the zero-cost floor, and the indices of the zero-mean
    strata removed under ``zero_mean="exclude"``.  Under "error" the first
    zero-mean stratum raises :class:`ZeroMeanStratum` naming its first
    zero-mean column.
    """
    columns = tuple(columns)
    costs, first_zero = cv2_costs(catalog, columns, weights)
    kept, zero = _zero_mean_split(zero_mean, first_zero, catalog, columns, ZeroMeanStratum)
    return kept, floor_zero_costs(costs[kept]), zero


def _assemble_plan(
    method: str,
    catalog: StatsCatalog,
    kept: np.ndarray,
    costs: np.ndarray,
    excluded: Sequence[int],
    budget: int,
) -> AllocationPlan:
    """Shared l2-style assembly over the catalog strata at the indices
    ``kept`` (with their costs) and ``excluded``: cap repair, rounding,
    excluded strata at 1."""
    warnings: list[str] = []
    n_excluded = len(excluded)
    if n_excluded:
        warnings.append(
            f"ZeroMeanExcluded: {n_excluded} strata with zero mean were removed "
            f"from optimization and pinned at one row"
        )
    if not len(kept) and not n_excluded:
        raise EmptyProblem("catalog has no strata")
    check_budget(budget)
    caps = catalog.n[kept]
    sub_budget = budget - n_excluded
    fractional, sizes, frozen = np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, bool)
    if len(kept):
        if sub_budget < 1:
            raise InvalidArgument(
                f"budget {budget} leaves no rows after pinning {n_excluded} "
                f"zero-mean strata at one row each"
            )
        fractional, frozen = resolve_caps(costs, caps, sub_budget)
        sizes, round_warnings = l2_sizes(fractional, costs, caps, sub_budget)
        warnings.extend(round_warnings)
    capped = np.concatenate([frozen, np.zeros(n_excluded, dtype=bool)])
    return _pinned_plan(
        method, catalog, kept, fractional, sizes, costs, excluded, budget, capped, warnings
    )


def _pinned_plan(
    method, catalog, active, fractional, sizes, costs, pinned, budget, capped, warnings,
    extra=None,
) -> AllocationPlan:
    """The plan over the catalog strata at the indices ``active``, with
    their fractional and integer sizes and costs, followed by the strata at
    ``pinned`` with one row each and cost 0; ``capped`` flags the strata
    in that order."""
    order = np.concatenate([active, pinned]).astype(np.intp)
    keys = catalog.group_keys(order.tolist())
    ones = np.ones(len(pinned))
    return AllocationPlan(
        method=method,
        group_attrs=catalog.group_attrs,
        keys=tuple(keys),
        populations=catalog.n[order],
        fractional=np.concatenate([fractional, ones]),
        sizes=np.concatenate([sizes, ones.astype(np.int64)]),
        budget=budget,
        capped=capped,
        costs=np.concatenate([costs, np.zeros(len(pinned))]),
        warnings=warnings,
        extra=extra or {},
    )


# ---------------------------------------------------------------------------
# multiple groupings over the union stratification


@dataclass(frozen=True)
class GroupQuery:
    """One group-by query: its grouping attributes and aggregation columns."""

    attrs: tuple[str, ...]
    columns: tuple[str, ...]


@dataclass
class FinestStratification:
    """Stratification by the union of all queries' grouping attributes.

    Holds the fine catalog over the union attributes, the pooled coarse
    catalog per query, and per query an array giving every fine stratum's
    index in that query's coarse catalog.
    """

    union_attrs: tuple[str, ...]
    queries: tuple[GroupQuery, ...]
    fine: StatsCatalog
    coarse: tuple[StatsCatalog, ...]
    coarse_ids: tuple[np.ndarray, ...]


def finest_from_catalog(
    fine: StatsCatalog, queries: Sequence[GroupQuery]
) -> FinestStratification:
    """Build the union stratification from an existing fine catalog; the
    coarse per-query statistics are pooled (:meth:`StatsCatalog.pooled`)."""
    pooled = [fine.pooled(q.attrs) for q in queries]
    return FinestStratification(
        fine.group_attrs,
        tuple(queries),
        fine,
        tuple(coarse for coarse, _ in pooled),
        tuple(ids for _, ids in pooled),
    )


def multi_grouping_costs(
    fs: FinestStratification,
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> np.ndarray:
    """Cost coefficients for the strata of ``fs.fine``, in its order, that
    serve several group-by queries.

    For fine stratum f with population n_f and, under query i, containing
    group g with population n_g and column mean mu_gl:

        cost_f = n_f^2 * sum_i (1 / n_g^2) * sum_l w(i,g,l) * sigma_fl^2 / mu_gl^2

    With a single query grouped exactly by the union attributes this
    reduces to the plain weighted squared-CV cost.  Under
    ``zero_mean="exclude"`` the terms of zero-mean coarse groups are
    dropped instead of raising.  A cost beyond the float range raises
    :class:`FloatOverflow`, after any zero-mean coarse group has raised,
    naming the first (query, column) whose term takes a cost there and
    the first fine stratum whose cost it takes there.
    """
    exclude = _excludes_zero_mean(zero_mean)
    fine = fs.fine
    fine_n2 = fine.n.astype(np.float64) ** 2
    total = np.zeros(len(fine))
    zeros = []  # (fine stratum, query, column) of a query column's first zero-mean term
    overflow = None  # (fine stratum, column) of the first cost beyond the float range
    for i, (q, coarse, ids) in enumerate(zip(fs.queries, fs.coarse, fs.coarse_ids)):
        inner = np.zeros(len(fine))
        group_n2 = (coarse.n.astype(np.float64) ** 2)[ids]
        for j, col in enumerate(q.columns):
            w = weights.weights_of(i, coarse.keys, col)[ids]
            mu = coarse.mean[col][ids]
            zero = np.flatnonzero((w != 0.0) & (mu == 0.0))
            if zero.size and not exclude:
                zeros.append((int(zero[0]), i, j))
            on = (w != 0.0) & (mu != 0.0)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                sigma = fine.std[col][on]
                term = w[on] * (sigma * sigma) / (mu[on] * mu[on])
                # where a square left the float range, square the CV instead
                odd = ~np.isfinite(term)
                if odd.any():
                    cv = sigma[odd] / np.abs(mu[on][odd])
                    term[odd] = w[on][odd] * (cv * cv)
                inner[on] = inner[on] + term
                bad = np.flatnonzero(~np.isfinite(fine_n2 * (total + inner / group_n2)))
            if bad.size and overflow is None:
                overflow = (int(bad[0]), col)
        with np.errstate(over="ignore"):
            total = total + inner / group_n2
    if zeros:  # raise for the first in the order fine stratum, query, column
        f, i, j = min(zeros)
        key = GroupKey(fs.queries[i].attrs, fs.coarse[i].keys[fs.coarse_ids[i][f]])
        raise ZeroMeanCoarseGroup(key, fs.queries[i].columns[j])
    if overflow is not None:
        f, column = overflow
        raise FloatOverflow("the squared-CV cost is", fine.group_keys([f])[0], column)
    return floor_zero_costs(fine_n2 * total)


def plan_multi_groupby(
    fs: FinestStratification,
    budget: int,
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> AllocationPlan:
    costs = multi_grouping_costs(fs, weights, zero_mean)
    return _assemble_plan(L2, fs.fine, np.arange(len(fs.fine)), costs, [], budget)


def cube_queries(attrs: Sequence[str], columns: Sequence[str]) -> list[GroupQuery]:
    """One query per subset of ``attrs`` (full set first, empty set last),
    as produced by a cube-by over those attributes."""
    return [
        GroupQuery(subset, tuple(columns))
        for size in range(len(attrs), -1, -1)
        for subset in itertools.combinations(tuple(attrs), size)
    ]


# ---------------------------------------------------------------------------
# minimax (l-infinity) allocation


def plan_linf(
    catalog: StatsCatalog,
    column: str,
    budget: int,
    zero_mean: str = "error",
) -> AllocationPlan:
    """Allocation minimizing the maximum predicted CV across strata.

    A stratum reaches predicted CV t with x_i(t) = n_i cv_i^2 /
    (t^2 n_i + cv_i^2) rows.  Bisection on t finds the continuous optimum,
    where every positive-variance stratum has the same CV and sum(x) equals
    the budget; ``fractional`` holds x there.  Integer sizes start from
    clip(ceil(x), 1, n_i) at the last t whose loads exceed the budget, which
    lies above an integer optimum, and :func:`_finish` removes the surplus
    by the predicted CV each removal leaves (:func:`_cv_loss`); the result
    is the exact integer minimax, reported as ``extra["max_cv"]``.

    Zero-variance strata are excluded from the search and pinned at one
    row each; their predicted CV is zero regardless.
    """
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
        warnings.append(f"ConstantStrata: {constant.size} zero-variance strata pinned at one row")
    if excluded.size:
        warnings.append(f"ZeroMeanExcluded: {excluded.size} strata with zero mean pinned at one row")

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
        excess = int(start.sum()) - sub_budget
        sizes = _finish(start, excess, partial(_cv_loss, pops_arr, np.sqrt(cv2)))
    max_cv = float(np.sqrt(cv2 * (pops_arr - sizes) / (pops_arr * sizes)).max())

    capped = np.concatenate([sizes >= pops_arr, catalog.n[pinned] <= 1])
    return _pinned_plan(
        LINF, catalog, active, fractional, sizes, cv2, pinned, budget, capped, warnings,
        {"max_cv": max_cv},
    )


# ---------------------------------------------------------------------------
# individual stratification and a unified Poisson sample


@dataclass
class PerQueryAllocation:
    """Fractional sample sizes for every (query, group) pair under one
    budget, as one table in plan-file row order: row r is the group of
    query ``query[r]`` (int64) with the values ``keys[r]`` under that
    query's attributes, its population ``populations[r]`` (int64) and its
    share ``sizes[r]`` (float64)."""

    queries: tuple[GroupQuery, ...]
    query: np.ndarray
    keys: tuple[tuple, ...]
    populations: np.ndarray
    sizes: np.ndarray
    budget: int
    warnings: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return float(self.sizes.sum())


def plan_individual(
    catalogs: Sequence[StatsCatalog],
    queries: Sequence[GroupQuery],
    budget: int,
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> PerQueryAllocation:
    """Split the budget across all groups of all queries, each stratified by
    its own grouping; group (i, g) receives share proportional to
    sqrt(sum_l w(i,g,l) * cv_igl^2).  Rows come by query, then in catalog
    order, the zero-mean pairs that ``zero_mean="exclude"`` pins at 1.0
    last."""
    # per query: the query index, population, cost and zero-mean flag of its
    # groups, after one typed empty entry so that no queries concatenate too
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0, bool))]
    keys: list[tuple] = []
    for i, (catalog, q) in enumerate(zip(catalogs, queries)):
        costs, first_zero = cv2_costs(catalog, q.columns, weights, i)
        _zero_mean_split(zero_mean, first_zero, catalog, q.columns, ZeroMeanGroup)
        parts.append((np.full(len(catalog), i, np.int64), catalog.n, costs, first_zero >= 0))
        keys.extend(catalog.keys)
    query, n, costs, zero = map(np.concatenate, zip(*parts))
    if zero.all():
        raise EmptyProblem("no (query, group) pairs to allocate over")
    excluded = int(zero.sum())
    check_budget(budget)
    if budget - excluded < 1:
        raise InvalidArgument(f"budget {budget} leaves no rows after pinning {excluded} "
                              "zero-mean (query, group) pairs at one row each")
    note = f"ZeroMeanExcluded: {excluded} (query, group) pairs pinned at one row"
    order = np.concatenate([np.flatnonzero(~zero), np.flatnonzero(zero)])
    shares = np.ones(len(order))
    shares[: len(order) - excluded] = solve_fractional(
        floor_zero_costs(costs[~zero]), budget - excluded
    )
    return PerQueryAllocation(
        tuple(queries), query[order], tuple(keys[r] for r in order.tolist()), n[order],
        shares, budget, [note] if excluded else [],
    )


def unified_inclusion(rates_per_query: Sequence[np.ndarray]) -> np.ndarray:
    """Combine per-query row inclusion rates into one Poisson rate per row:
    p_r = 1 - prod_i (1 - p_ri).  A single query passes through unchanged."""
    if not rates_per_query:
        raise EmptyProblem("no rate vectors given")
    stacked = np.vstack([np.asarray(p, dtype=np.float64) for p in rates_per_query])
    if np.any(stacked < 0) or np.any(stacked > 1):
        raise RateOutOfRange("per-query inclusion rates must lie in [0, 1]")
    if stacked.shape[0] == 1:
        return stacked[0].copy()
    return 1.0 - np.prod(1.0 - stacked, axis=0)


def inclusion_rates(rel: Relation, alloc: PerQueryAllocation) -> np.ndarray:
    """Per-row unified Poisson inclusion probabilities for an individual-
    stratification allocation; each row of ``alloc`` has rate s / n,
    clamped to 1 when the share exceeds the group size (0 for n = 0).

    The rows are partitioned once, by the union of the queries' grouping
    attributes; a query numbers its groups over each fine stratum's first
    row, by the relation's codes, and its rate per fine stratum is that of
    the table row with its group's values (0 if the table has none).  The
    rates combine per fine stratum, which each row takes.
    """
    union = list(dict.fromkeys(a for q in alloc.queries for a in q.attrs))
    fine = rel.strata(union)
    firsts = rel.take(fine.order[fine.bounds[:-1]])
    n = alloc.populations
    rate = np.minimum(1.0, np.divide(alloc.sizes, n, out=np.zeros(len(n)), where=n > 0))
    per_query = []
    for i, q in enumerate(alloc.queries):
        group, keys = stratum_ids(firsts, q.attrs)
        rows = np.flatnonzero(alloc.query == i).tolist()
        table = dict(zip([alloc.keys[r] for r in rows], rate[rows].tolist()))
        per_query.append(np.array([table.get(k, 0.0) for k in keys])[group])
    return unified_inclusion(per_query)[fine.ids]


# ---------------------------------------------------------------------------
# predicted estimator quality


def predicted_cv(n: int, s: float, mean: float, std: float) -> float:
    """Predicted CV of a per-stratum sample mean under sampling without
    replacement: (sigma / |mu|) * sqrt((n - s) / (n * s)).

    Exact when sigma uses the (n - 1) divisor; zero for an exhaustive
    sample.
    """
    if not 1 <= s <= n:
        raise InvalidSampleSize(f"sample size {s} outside [1, {n}]")
    if mean == 0.0:
        raise ZeroMeanError("(scalar)", None)
    return (std / abs(mean)) * math.sqrt((n - s) / (n * s))


def predicted_group_cvs(
    n: np.ndarray, s: np.ndarray, sigma: np.ndarray, group: np.ndarray, mean: np.ndarray
) -> list[float | None]:
    """Predicted CV of every coarse group's estimate built from fine strata.

    Member stratum c has population ``n[c]`` (at least 1), sample size
    ``s[c]`` and std ``sigma[c]`` and lies in group ``group[c]``; group g
    has at least one member and mean ``mean[g]``.  The estimate is the
    population-weighted combination of stratum means, with variance
    sum(n_c^2 sigma_c^2 / s_c - n_c sigma_c^2) / n_g^2 added in member
    order (a stratum with sigma_c = 0 adds exactly 0).  A positive-variance
    stratum with no sample makes its group's CV inf; a group with mean 0
    gets None.  A variance beyond the float range gives an inf or NaN CV,
    without a warning.
    """
    drawn, size = s > 0, len(mean)
    n_g = np.bincount(group, n, size)
    with np.errstate(over="ignore", invalid="ignore"):
        part = n * n * sigma * sigma / np.where(drawn, s, 1) - n * sigma * sigma
        cv = np.sqrt(np.maximum(np.bincount(group, part, size), 0.0) / (n_g * n_g))
    cv = np.divide(cv, np.abs(mean), out=np.zeros(size), where=mean != 0.0)
    cv[np.bincount(group, (sigma != 0.0) & ~drawn, size) > 0] = math.inf
    return [None if mu == 0.0 else c for c, mu in zip(cv.tolist(), mean.tolist())]


# ---------------------------------------------------------------------------
# serialization


def plan_to_json(plan: AllocationPlan) -> str:
    doc = {
        "method": plan.method,
        "budget": plan.budget,
        "group_attrs": list(plan.group_attrs),
        "objective_fractional": json_float(plan.objective_fractional()),
        "objective_integral": json_float(plan.objective_integral()),
        "strata": [
            {"key": list(k.values), "n": n, "fractional": f, "integral": s, "capped": c}
            for k, n, f, s, c in zip(
                plan.keys,
                plan.populations.tolist(),
                plan.fractional.tolist(),
                plan.sizes.tolist(),
                plan.capped.tolist(),
                strict=True,
            )
        ],
        "warnings": plan.warnings,
        "extra": plan.extra,
    }
    return json.dumps(doc, indent=2)


def plan_from_json(text: str, source: str = "plan.json") -> AllocationPlan | PerQueryAllocation:
    """Parse a plan file: a :class:`PerQueryAllocation` when its method is
    individual, else an :class:`AllocationPlan` (a stratum without
    ``capped`` is not capped).  A missing field, a field of the wrong JSON
    type, a repeated grouping attribute, a key whose length differs from
    its grouping, a repeated key (a repeated query and key in an individual
    plan) and a query index outside the plan's queries raise
    :class:`InvalidDocument` naming ``source`` and the field."""
    get = partial(member, source)
    doc = parse_json(text, source)
    method = get(doc, "", "method", *STRING)
    budget = get(doc, "", "budget", *INTEGER)
    warnings = list(get(doc, "", "warnings", *STRINGS, default=[]))
    strata = get(doc, "", "strata", *LIST)

    def column(name: str, check: tuple, dtype, **default) -> np.ndarray:
        return np.array(members(source, strata, "strata", name, *check, **default), dtype=dtype)

    if method == INDIVIDUAL:
        queries = tuple(
            GroupQuery(tuple(get(q, f"queries[{j}]", "group_by", *NAMES)),
                       tuple(get(q, f"queries[{j}]", "columns", *STRINGS)))
            for j, q in enumerate(get(doc, "", "queries", *LIST))
        )
        index = lambda v: INTEGER[0](v) and 0 <= v < len(queries)  # noqa: E731
        query = column("query", (index, f"a query index below {len(queries)}"), np.int64)
        widths = [len(queries[q].attrs) for q in query.tolist()]
        keys = tuple(stratum_keys(source, strata, widths, query.tolist()))
        populations = column("n", COUNT, np.int64)
        sizes = column("fractional", NUMBER, np.float64)
        return PerQueryAllocation(queries, query, keys, populations, sizes, budget, warnings)

    attrs = tuple(get(doc, "", "group_attrs", *NAMES))
    keys = stratum_keys(source, strata, [len(attrs)] * len(strata))
    return AllocationPlan(
        method=method,
        group_attrs=attrs,
        keys=tuple(GroupKey(attrs, values) for values in keys),
        populations=column("n", COUNT, np.int64),
        fractional=column("fractional", NUMBER, np.float64),
        sizes=column("integral", COUNT, np.int64),
        budget=budget,
        capped=column("capped", BOOL, bool, default=False),
        costs=None,
        warnings=warnings,
        extra=dict(get(doc, "", "extra", *OBJECT, default={})),
    )


def individual_to_json(alloc: PerQueryAllocation) -> str:
    doc = {
        "method": INDIVIDUAL,
        "budget": alloc.budget,
        "queries": [
            {"group_by": list(q.attrs), "columns": list(q.columns)}
            for q in alloc.queries
        ],
        "strata": [
            {"query": i, "key": list(key), "n": n, "fractional": share, "integral": None}
            for i, key, n, share in zip(
                alloc.query.tolist(), alloc.keys, alloc.populations.tolist(), alloc.sizes.tolist(),
                strict=True,
            )
        ],
        "warnings": alloc.warnings,
    }
    return json.dumps(doc, indent=2)


def json_float(x: float | None):
    """``x`` for a JSON document: None for None or NaN, "inf" for an infinity."""
    if x is None or math.isnan(x):
        return None
    return "inf" if math.isinf(x) else x
