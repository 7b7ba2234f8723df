"""Sample-size allocation across strata.

All allocators here minimize a norm of the per-group coefficients of
variation of the estimates a stratified sample will produce.  The common
core is the closed-form minimizer of ``sum(c_i / s_i)`` subject to
``sum(s_i) = M`` (:func:`solve_fractional`), with recursive handling of
strata whose population is smaller than their ideal allocation
(:func:`resolve_caps`).  Integer sizes come from one routine,
:func:`shed`: from a warm start that lies above an integer optimum it
removes the surplus one unit at a time, each from the stratum whose
removal costs least, which is exact for separable convex objectives.

Cost coefficients ``c_i`` are built from per-stratum statistics:

* one aggregation column:       c_i = w_i * cv_i^2
* several columns, one grouping: c_i = sum_j w_ij * cv_ij^2
* several groupings (stratify by the union of all grouping attributes):
  c_f = n_f^2 * sum_i (1 / n_gi^2) * sum_l w * sigma_fl^2 / mu_gl^2
  where f is a fine stratum and gi its containing group under query i.

The minimax allocator (:func:`plan_linf`) instead equalizes the predicted
CVs and minimizes their maximum: a bisection on the common CV gives the
continuous optimum and a warm start for :func:`shed`.

Strata with zero variance receive a vanishing cost floor so that the
integer allocation gives them exactly one row (one row determines a
constant group exactly).
Strata with zero mean have no defined CV: by default they raise, or with
``zero_mean="exclude"`` they are taken out of the optimization and also
pinned at one row.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import GroupKey, Relation, stratum_ids
from .errors import (
    AllStrataConstant,
    EmptyProblem,
    InvalidArgument,
    InvalidSampleSize,
    NonPositiveCost,
    NotASubset,
    RateOutOfRange,
    ZeroMeanCoarseGroup,
    ZeroMeanError,
    ZeroMeanGroup,
    ZeroMeanStratum,
)
from .stats import StatsCatalog, _pool

#: zero-variance strata get this fraction of the smallest positive cost
ZERO_COST_RATIO = 1e-12

L2 = "l2"
LINF = "linf"
INDIVIDUAL = "individual"


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

    def weight(self, query: int | None, key: GroupKey | None, column: str | None) -> float:
        values = key.values if key is not None else None
        for probe in (
            (query, values, column),
            (None, values, column),
            (query, None, column),
            (None, None, column),
        ):
            if probe in self.entries:
                return self.entries[probe]
        return self.default


UNIT_WEIGHTS = WeightSpec()


# ---------------------------------------------------------------------------
# the fractional core


@dataclass
class AllocationProblem:
    """Strata with positive cost coefficients, population caps and a budget."""

    keys: tuple[GroupKey, ...]
    costs: np.ndarray
    caps: np.ndarray
    budget: int

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64)
        self.caps = np.asarray(self.caps, dtype=np.int64)
        if len(self.keys) == 0:
            raise EmptyProblem("no strata to allocate over")
        if self.budget < 1:
            raise InvalidArgument(f"budget must be >= 1, got {self.budget}")
        if np.any(self.costs <= 0):
            raise NonPositiveCost("all cost coefficients must be positive")


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


def shed(
    sizes: np.ndarray,
    lower: np.ndarray,
    excess: int,
    loss: Callable[[int, int], float],
) -> np.ndarray:
    """Remove ``excess`` units, one at a time, each from the stratum whose
    next removal costs least; ties go to the lowest index and no stratum
    drops below ``lower``.

    ``loss(i, s)`` is the cost of taking stratum i from s units to s - 1
    and must not fall as s falls (a separable convex objective, or a
    minimax of per-stratum terms that rise as units go).  Greedy removal is
    then exact: started from any vector that lies componentwise above an
    optimum, it ends at an optimum (the priority-value method; Wright 2012,
    Friedrich, Muennich, de Vries & Wagner 2015).  O((r + excess) log r).
    """
    s = [int(v) for v in sizes]
    if excess <= 0:
        return np.array(s, dtype=np.int64)
    low = [int(v) for v in lower]
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
    infinite at one row, so a stratum empties only when forced to."""
    c = np.asarray(costs, dtype=np.float64).tolist()

    def loss(i: int, s: int) -> float:
        return c[i] * (1.0 / (s - 1) - 1.0 / s) if s > 1 else math.inf

    return loss


def _largest_above(total: Callable[[float], float], target: float, hi: float) -> float:
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
    """Exact integer minimizer of sum(c_i / s_i) over 1 <= s_i <= n_i with
    sum(s_i) = min(budget, sum(n_i)).

    The warm start keeps every row whose removal would cost at least mu,
    s_i(mu) = clip(floor(1/2 + sqrt(1/4 + c_i / mu)), 1, n_i), at the
    largest mu whose rows still cover the budget; every optimum lies
    componentwise below it, so :func:`shed` finishes exactly.  (Ceilings
    of the fractional optimum are not always above an optimum: with shares
    2.99, twenty at 1.05 and 1.01 at budget 25 the optimum gives the first
    stratum 4 rows.)  Below one row per stratum the largest ``fractional``
    shares get one row each and a MissingGroups warning is attached.
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

    def kept(mu: float) -> np.ndarray:
        rows = np.floor(0.5 + np.sqrt(0.25 + costs / mu))
        return np.clip(rows, 1, caps).astype(np.int64)

    start = kept(_largest_above(lambda mu: int(kept(mu).sum()), target, float(costs.max())))
    return shed(start, np.ones(r), int(start.sum()) - target, l2_loss(costs)), []


# ---------------------------------------------------------------------------
# plans


@dataclass
class AllocationPlan:
    """Fractional and integral per-stratum sample sizes plus diagnostics."""

    method: str
    group_attrs: tuple[str, ...]
    keys: tuple[GroupKey, ...]
    populations: np.ndarray
    fractional: np.ndarray
    sizes: np.ndarray
    budget: int
    capped: frozenset[GroupKey] = frozenset()
    costs: np.ndarray | None = None
    warnings: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def size_of(self, key: GroupKey) -> int:
        return int(self.sizes[self.keys.index(key)])

    @property
    def total_size(self) -> int:
        return int(self.sizes.sum())

    def objective_fractional(self) -> float:
        return l2_objective(self.costs, self.fractional)

    def objective_integral(self) -> float:
        return l2_objective(self.costs, self.sizes)


def l2_objective(costs: np.ndarray | None, sizes: np.ndarray) -> float:
    """sum(c_i / s_i); infinite if any stratum with positive cost has no rows."""
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
    query: int = 0,
) -> AllocationPlan:
    """Allocation minimizing the weighted l2 norm of predicted CVs for one
    grouping and one or more aggregation columns."""
    keys, costs, excluded = cv_costs(catalog, columns, weights, zero_mean, query)
    return _assemble_plan(L2, catalog, keys, costs, excluded, budget)


def cv_costs(
    catalog: StatsCatalog,
    columns: Sequence[str],
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
    query: int = 0,
) -> tuple[list[GroupKey], np.ndarray, list[GroupKey]]:
    """Per-stratum cost coefficients sum_j w_j * cv_j^2 over the columns.

    Returns (keys, costs, excluded) where ``excluded`` holds zero-mean
    strata removed under ``zero_mean="exclude"``.
    """
    columns = tuple(columns)
    keys: list[GroupKey] = []
    costs: list[float] = []
    excluded: list[GroupKey] = []
    for key, st in catalog.entries.items():
        total = 0.0
        bad = None
        for col in columns:
            w = weights.weight(query, key, col)
            if w == 0.0:
                continue
            summary = st.per_column[col]
            if not summary.cv_defined:
                bad = col
                break
            total += w * summary.cv**2
        if bad is not None:
            if zero_mean == "exclude":
                excluded.append(key)
                continue
            raise ZeroMeanStratum(key, bad)
        keys.append(key)
        costs.append(total)
    return keys, floor_zero_costs(np.array(costs)), excluded


def _assemble_plan(
    method: str,
    catalog: StatsCatalog,
    keys: list[GroupKey],
    costs: np.ndarray,
    excluded: list[GroupKey],
    budget: int,
    extra: dict | None = None,
) -> AllocationPlan:
    """Shared l2-style assembly: cap repair, rounding, excluded strata at 1."""
    warnings: list[str] = []
    n_excluded = len(excluded)
    if n_excluded:
        warnings.append(
            f"ZeroMeanExcluded: {n_excluded} strata with zero mean were removed "
            f"from optimization and pinned at one row"
        )
    if not keys and not excluded:
        raise EmptyProblem("catalog has no strata")
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")
    caps = np.array([catalog.entries[k].n for k in keys], dtype=np.int64)
    sub_budget = budget - n_excluded
    if keys:
        if sub_budget < 1:
            raise InvalidArgument(
                f"budget {budget} leaves no rows after pinning {n_excluded} "
                f"zero-mean strata at one row each"
            )
        problem = AllocationProblem(tuple(keys), costs, caps, sub_budget)
        fractional, frozen = resolve_caps(problem.costs, problem.caps, problem.budget)
        sizes, round_warnings = l2_sizes(fractional, problem.costs, caps, sub_budget)
        warnings.extend(round_warnings)
    else:
        fractional = np.zeros(0)
        sizes = np.zeros(0, dtype=np.int64)
        frozen = np.zeros(0, dtype=bool)

    all_keys = list(keys) + list(excluded)
    exc_caps = np.array(
        [catalog.entries[k].n for k in excluded], dtype=np.int64
    )
    populations = np.concatenate([caps, exc_caps])
    fractional = np.concatenate([fractional, np.ones(n_excluded)])
    sizes = np.concatenate([sizes, np.ones(n_excluded, dtype=np.int64)])
    costs_full = np.concatenate(
        [np.asarray(costs, dtype=np.float64), np.zeros(n_excluded)]
    )
    capped = frozenset(k for k, f in zip(keys, frozen) if f)
    return AllocationPlan(
        method=method,
        group_attrs=catalog.group_attrs,
        keys=tuple(all_keys),
        populations=populations,
        fractional=fractional,
        sizes=sizes,
        budget=budget,
        capped=capped,
        costs=costs_full,
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
    catalog per query, and for every fine stratum its containing coarse
    group under each query.
    """

    union_attrs: tuple[str, ...]
    queries: tuple[GroupQuery, ...]
    fine: StatsCatalog
    coarse: tuple[StatsCatalog, ...]
    projections: tuple[dict[GroupKey, GroupKey], ...]

    @property
    def strata(self) -> list[GroupKey]:
        return list(self.fine.entries)


def finest_from_catalog(
    fine: StatsCatalog, queries: Sequence[GroupQuery]
) -> FinestStratification:
    """Build the union stratification from an existing fine catalog; the
    coarse per-query statistics are pooled, not recomputed."""
    for q in queries:
        if not set(q.attrs) <= set(fine.group_attrs):
            raise NotASubset(
                f"query attrs {q.attrs} not covered by catalog attrs {fine.group_attrs}"
            )
    projections = tuple(
        {key: key.project(q.attrs) for key in fine.entries} for q in queries
    )
    coarse = tuple(
        _pool(fine, tuple(q.attrs), proj.values())
        for q, proj in zip(queries, projections)
    )
    return FinestStratification(
        fine.group_attrs, tuple(queries), fine, coarse, projections
    )


def multi_grouping_costs(
    fs: FinestStratification,
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> tuple[list[GroupKey], np.ndarray]:
    """Cost coefficients for fine strata serving several group-by queries.

    For fine stratum f with population n_f and, under query i, containing
    group g with population n_g and column mean mu_gl:

        cost_f = n_f^2 * sum_i (1 / n_g^2) * sum_l w(i,g,l) * sigma_fl^2 / mu_gl^2

    With a single query grouped exactly by the union attributes this
    reduces to the plain weighted squared-CV cost.  Under
    ``zero_mean="exclude"`` the terms of zero-mean coarse groups are
    dropped instead of raising.
    """
    keys = list(fs.fine.entries)
    costs = np.zeros(len(keys))
    for idx, key in enumerate(keys):
        fine_st = fs.fine.entries[key]
        total = 0.0
        for i, q in enumerate(fs.queries):
            coarse_key = fs.projections[i][key]
            coarse_st = fs.coarse[i].entries[coarse_key]
            inner = 0.0
            for col in q.columns:
                w = weights.weight(i, coarse_key, col)
                if w == 0.0:
                    continue
                mu = coarse_st.per_column[col].mean
                if mu == 0.0:
                    if zero_mean == "exclude":
                        continue
                    raise ZeroMeanCoarseGroup(coarse_key, col)
                sigma = fine_st.per_column[col].std
                inner += w * sigma**2 / mu**2
            total += inner / coarse_st.n**2
        costs[idx] = fine_st.n**2 * total
    return keys, floor_zero_costs(costs)


def plan_multi_groupby(
    fs: FinestStratification,
    budget: int,
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> AllocationPlan:
    keys, costs = multi_grouping_costs(fs, weights, zero_mean)
    return _assemble_plan(L2, fs.fine, keys, costs, [], budget)


def cube_queries(attrs: Sequence[str], columns: Sequence[str]) -> list[GroupQuery]:
    """One query per subset of ``attrs`` (full set first, empty set last),
    as produced by a cube-by over those attributes."""
    attrs = tuple(attrs)
    out = []
    for size in range(len(attrs), -1, -1):
        for subset in itertools.combinations(attrs, size):
            out.append(GroupQuery(subset, tuple(columns)))
    return out


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
    lies above an integer optimum, and :func:`shed` removes the surplus by
    the predicted CV each removal leaves; the result is the exact integer
    minimax, reported as ``extra["max_cv"]``.

    Zero-variance strata are excluded from the search and pinned at one
    row each; their predicted CV is zero regardless.
    """
    keys: list[GroupKey] = []
    cv2 = []
    pops = []
    constant: list[GroupKey] = []
    excluded: list[GroupKey] = []
    for key, st in catalog.entries.items():
        s = st.per_column[column]
        if not s.cv_defined:
            if zero_mean == "exclude":
                excluded.append(key)
                continue
            raise ZeroMeanStratum(key, column)
        if s.std == 0.0:
            constant.append(key)
            continue
        keys.append(key)
        cv2.append(s.cv**2)
        pops.append(st.n)
    if not keys:
        raise AllStrataConstant(
            "every stratum has zero variance; the minimax objective is degenerate"
        )
    pinned = constant + excluded
    warnings: list[str] = []
    if constant:
        warnings.append(
            f"ConstantStrata: {len(constant)} zero-variance strata pinned at one row"
        )
    if excluded:
        warnings.append(
            f"ZeroMeanExcluded: {len(excluded)} strata with zero mean pinned at one row"
        )

    cv2 = np.array(cv2)
    pops_arr = np.array(pops, dtype=np.int64)
    sub_budget = budget - len(pinned)
    if sub_budget < len(keys):
        raise InvalidArgument(
            f"minimax allocation needs at least one row per positive-variance "
            f"stratum: budget {budget} leaves {sub_budget} rows for {len(keys)} strata"
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

        sizes = shed(start, np.ones(len(keys)), int(start.sum()) - sub_budget, cv_after_removal)
    max_cv = float(np.sqrt(cv2 * (pops_arr - sizes) / (pops_arr * sizes)).max())

    all_keys = list(keys) + list(pinned)
    pin_pops = np.array([catalog.entries[k].n for k in pinned], dtype=np.int64)
    populations = np.concatenate([pops_arr, pin_pops]) if pinned else pops_arr
    fractional_full = np.concatenate([fractional, np.ones(len(pinned))])
    sizes_full = np.concatenate([sizes, np.ones(len(pinned), dtype=np.int64)])
    costs = np.concatenate([cv2, np.zeros(len(pinned))])
    return AllocationPlan(
        method=LINF,
        group_attrs=catalog.group_attrs,
        keys=tuple(all_keys),
        populations=populations,
        fractional=fractional_full,
        sizes=sizes_full,
        budget=budget,
        capped=frozenset(
            k for k, s, n in zip(all_keys, sizes_full, populations) if s >= n
        ),
        costs=costs,
        warnings=warnings,
        extra={"max_cv": max_cv},
    )


# ---------------------------------------------------------------------------
# individual stratification and a unified Poisson sample


@dataclass
class PerQueryAllocation:
    """Fractional sample sizes for every (query, group) pair under one budget."""

    queries: tuple[GroupQuery, ...]
    sizes: dict[tuple[int, GroupKey], float]
    populations: dict[tuple[int, GroupKey], int]
    budget: int
    warnings: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return float(sum(self.sizes.values()))


def plan_individual(
    catalogs: Sequence[StatsCatalog],
    queries: Sequence[GroupQuery],
    budget: int,
    weights: WeightSpec = UNIT_WEIGHTS,
    zero_mean: str = "error",
) -> PerQueryAllocation:
    """Split the budget across all groups of all queries, each stratified by
    its own grouping; group (i, g) receives share proportional to
    sqrt(sum_l w(i,g,l) * cv_igl^2)."""
    pairs: list[tuple[int, GroupKey]] = []
    scores: list[float] = []
    populations: dict[tuple[int, GroupKey], int] = {}
    warnings: list[str] = []
    excluded: list[tuple[int, GroupKey]] = []
    for i, (catalog, q) in enumerate(zip(catalogs, queries)):
        for key, st in catalog.entries.items():
            populations[(i, key)] = st.n
            total = 0.0
            bad = None
            for col in q.columns:
                w = weights.weight(i, key, col)
                if w == 0.0:
                    continue
                s = st.per_column[col]
                if not s.cv_defined:
                    bad = col
                    break
                total += w * s.cv**2
            if bad is not None:
                if zero_mean == "exclude":
                    excluded.append((i, key))
                    continue
                raise ZeroMeanGroup(key, bad)
            pairs.append((i, key))
            scores.append(total)
    if not pairs:
        raise EmptyProblem("no (query, group) pairs to allocate over")
    if excluded:
        warnings.append(
            f"ZeroMeanExcluded: {len(excluded)} (query, group) pairs pinned at one row"
        )
    sub_budget = budget - len(excluded)
    shares = solve_fractional(floor_zero_costs(np.array(scores)), sub_budget)
    sizes = dict(zip(pairs, (float(s) for s in shares)))
    for pair in excluded:
        sizes[pair] = 1.0
    return PerQueryAllocation(tuple(queries), sizes, populations, budget, warnings)


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
    stratification allocation; each per-query rate is s_ig / n_ig clamped
    to 1 when the allocation exceeds the group size.

    The rows are partitioned once, by the union of the queries' grouping
    attributes; a query's rate per fine stratum is that of the group its
    key projects to, and each row takes the rate of its fine stratum.  A
    group missing from ``alloc.populations`` counts its rows instead.
    """
    union: list[str] = []
    for q in alloc.queries:
        for a in q.attrs:
            if a not in union:
                union.append(a)
    fine_ids, fine_values = stratum_ids(rel, union)
    counts = np.bincount(fine_ids, minlength=len(fine_values)).tolist()

    per_query = []
    for i, q in enumerate(alloc.queries):
        positions = [union.index(a) for a in q.attrs]
        members: dict[tuple[str, ...], list[int]] = {}
        for f, values in enumerate(fine_values):
            members.setdefault(tuple(values[p] for p in positions), []).append(f)
        rate_of = np.zeros(len(fine_values))
        for values, fines in members.items():
            key = GroupKey(q.attrs, values)
            share = alloc.sizes.get((i, key), 0.0)
            n = alloc.populations.get((i, key), sum(counts[f] for f in fines))
            rate_of[fines] = min(1.0, share / n) if n else 0.0
        per_query.append(rate_of[fine_ids])
    return unified_inclusion(per_query)


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


def predicted_group_cv(
    parts: Sequence[tuple[int, float, float]], group_mean: float
) -> float:
    """Predicted CV of a coarse-group estimate built from fine strata.

    ``parts`` holds (n_c, s_c, sigma_c) per member stratum; the estimate is
    the population-weighted combination of stratum means, with variance
    sum(n_c^2 sigma_c^2 / s_c - n_c sigma_c^2) / n_g^2.  A positive-variance
    stratum with no sample makes the CV infinite.
    """
    if group_mean == 0.0:
        raise ZeroMeanError("(group)", None)
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
# serialization


def plan_to_json(plan: AllocationPlan) -> str:
    doc = {
        "method": plan.method,
        "budget": plan.budget,
        "group_attrs": list(plan.group_attrs),
        "objective_fractional": _json_float(plan.objective_fractional()),
        "objective_integral": _json_float(plan.objective_integral()),
        "strata": [
            {
                "key": list(k.values),
                "n": int(n),
                "fractional": float(f),
                "integral": int(s),
                "capped": k in plan.capped,
            }
            for k, n, f, s in zip(
                plan.keys, plan.populations, plan.fractional, plan.sizes
            )
        ],
        "warnings": plan.warnings,
        "extra": plan.extra,
    }
    return json.dumps(doc, indent=2)


def plan_from_json(text: str) -> AllocationPlan:
    doc = json.loads(text)
    attrs = tuple(doc["group_attrs"])
    keys = tuple(GroupKey(attrs, tuple(item["key"])) for item in doc["strata"])
    populations = np.array([item["n"] for item in doc["strata"]], dtype=np.int64)
    fractional = np.array([item["fractional"] for item in doc["strata"]])
    sizes = np.array([item["integral"] for item in doc["strata"]], dtype=np.int64)
    capped = frozenset(
        k for k, item in zip(keys, doc["strata"]) if item.get("capped")
    )
    return AllocationPlan(
        method=doc["method"],
        group_attrs=attrs,
        keys=keys,
        populations=populations,
        fractional=fractional,
        sizes=sizes,
        budget=int(doc["budget"]),
        capped=capped,
        costs=None,
        warnings=list(doc.get("warnings", [])),
        extra=dict(doc.get("extra", {})),
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
            {
                "query": i,
                "key": list(key.values),
                "n": alloc.populations[(i, key)],
                "fractional": float(share),
                "integral": None,
            }
            for (i, key), share in alloc.sizes.items()
        ],
        "warnings": alloc.warnings,
    }
    return json.dumps(doc, indent=2)


def individual_from_json(text: str) -> PerQueryAllocation:
    doc = json.loads(text)
    queries = tuple(
        GroupQuery(tuple(q["group_by"]), tuple(q["columns"])) for q in doc["queries"]
    )
    sizes = {}
    populations = {}
    for item in doc["strata"]:
        i = int(item["query"])
        key = GroupKey(queries[i].attrs, tuple(item["key"]))
        sizes[(i, key)] = float(item["fractional"])
        populations[(i, key)] = int(item["n"])
    return PerQueryAllocation(
        queries, sizes, populations, int(doc["budget"]), list(doc.get("warnings", []))
    )


def _json_float(x: float):
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "inf"
    return x
