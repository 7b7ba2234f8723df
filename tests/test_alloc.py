import heapq
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gbsample.alloc import (
    GroupQuery,
    PerQueryAllocation,
    WeightSpec,
    build_finest,
    cube_queries,
    cv_costs,
    finest_from_catalog,
    floor_zero_costs,
    individual_from_json,
    individual_to_json,
    inclusion_rates,
    l2_objective,
    l2_sizes,
    multi_grouping_costs,
    plan_from_json,
    plan_individual,
    plan_l2,
    plan_linf,
    plan_multi_groupby,
    plan_to_json,
    predicted_cv,
    predicted_group_cv,
    resolve_caps,
    shed,
    solve_fractional,
    unified_inclusion,
)
from gbsample.baselines import _round as baseline_round
from gbsample.dataset import (
    CATEGORICAL,
    NUMERIC,
    ColumnSchema,
    GroupKey,
    Relation,
    partition,
)
from gbsample.errors import (
    AllStrataConstant,
    EmptyProblem,
    InvalidSampleSize,
    NonPositiveCost,
    RateOutOfRange,
    ZeroMeanStratum,
)
from gbsample.stats import compute_catalog, pool_catalog

from conftest import STUDENT_ROWS, STUDENT_SCHEMA


# ---------------------------------------------------------------------------
# oracles


def grid_search_objective(costs, budget, steps=2000):
    """Dense grid search over the simplex for min sum(c_i / s_i); r <= 3."""
    costs = np.asarray(costs, dtype=float)
    r = costs.size
    if r == 1:
        return costs[0] / budget
    grid = np.linspace(budget / steps, budget - budget / steps, steps - 1)
    if r == 2:
        obj = costs[0] / grid + costs[1] / (budget - grid)
        return float(obj.min())
    best = math.inf
    for s1 in grid:
        rest = budget - s1
        s2 = np.linspace(rest / steps, rest - rest / steps, steps - 1)
        obj = costs[0] / s1 + costs[1] / s2 + costs[2] / (rest - s2)
        best = min(best, float(obj.min()))
    return best


def lambda_bisection(costs, budget, iters=200):
    """Independent fractional oracle: bisection on the stationarity
    multiplier.  s_i(lam) = sqrt(c_i / lam) decreases in lam; find the lam
    whose total allocation is the budget."""
    costs = np.asarray(costs, dtype=float)

    def total(lam):
        return float(np.sqrt(costs / lam).sum())

    lo, hi = 1e-30, 1.0
    while total(hi) > budget:
        hi *= 2.0
    while total(lo) < budget:
        lo *= 2.0
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if total(mid) > budget:
            lo = mid
        else:
            hi = mid
    lam = math.sqrt(lo * hi)
    return np.sqrt(costs / lam)


def compositions(total, caps):
    """Every integer vector with 1 <= s_i <= caps_i summing to total."""
    caps = [int(c) for c in caps]

    def rec(i, remaining):
        if i == len(caps) - 1:
            if 1 <= remaining <= caps[i]:
                yield (remaining,)
            return
        lo = max(1, remaining - sum(caps[i + 1 :]))
        hi = min(caps[i], remaining - (len(caps) - i - 1))
        for s in range(lo, hi + 1):
            for rest in rec(i + 1, remaining - s):
                yield (s,) + rest

    yield from rec(0, total)


def exhaustive_integer_optimum(costs, caps, budget):
    """Brute-force best integer allocation with every stratum >= 1."""
    best = math.inf
    best_sizes = None
    for sizes in compositions(budget, caps):
        obj = sum(c / s for c, s in zip(costs, sizes))
        if obj < best:
            best = obj
            best_sizes = sizes
    return best, best_sizes


def greedy_add_optimum(costs, caps, target):
    """Independent exact l2 integer optimum for larger instances: from one
    row each, add rows one at a time where sum(c_i / s_i) falls most (the
    priority values c_i / (s_i (s_i + 1)))."""
    costs = [float(c) for c in costs]
    caps = [int(c) for c in caps]
    s = [1] * len(costs)
    heap = [(-c / 2.0, i) for i, c in enumerate(costs) if caps[i] > 1]
    heapq.heapify(heap)
    for _ in range(target - len(costs)):
        _, i = heapq.heappop(heap)
        s[i] += 1
        if s[i] < caps[i]:
            heapq.heappush(heap, (-costs[i] / (s[i] * (s[i] + 1)), i))
    return np.array(s)


# ---------------------------------------------------------------------------
# solve_fractional


def test_solve_fractional_closed_form():
    s = solve_fractional(np.array([9.0, 1.0]), 8)
    assert s == pytest.approx([6.0, 2.0])


def test_solve_fractional_symmetry():
    for c in (0.25, 3.0, 40.0):
        s = solve_fractional(np.full(5, c), 20)
        assert s == pytest.approx([4.0] * 5)


def test_solve_fractional_matches_grid_search():
    costs = np.array([4.0, 1.0, 1.0])
    s = solve_fractional(costs, 10)
    ours = float((costs / s).sum())
    oracle = grid_search_objective(costs, 10)
    assert ours <= oracle
    assert ours == pytest.approx(oracle, rel=1e-6)


def test_solve_fractional_errors():
    with pytest.raises(EmptyProblem):
        solve_fractional(np.array([]), 5)
    with pytest.raises(NonPositiveCost):
        solve_fractional(np.array([1.0, 0.0]), 5)
    with pytest.raises(NonPositiveCost):
        solve_fractional(np.array([1.0, -2.0]), 5)


@given(
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
    st.integers(1, 1000),
)
def test_solve_fractional_stationarity(costs, budget):
    costs = np.asarray(costs)
    s = solve_fractional(costs, budget)
    assert float(s.sum()) == pytest.approx(budget, rel=1e-12)
    ratios = costs / s**2
    assert ratios.max() == pytest.approx(ratios.min(), rel=1e-9)


# ---------------------------------------------------------------------------
# integer allocation


def _l2_sizes(shares, caps, budget, costs=None):
    """l2_sizes on raw shares; without costs, the shares are taken as the
    closed-form optimum of the costs shares**2."""
    shares = np.asarray(shares, dtype=float)
    if costs is None:
        costs = floor_zero_costs(shares**2)
    return l2_sizes(shares, costs, np.asarray(caps), budget)


def test_shed_removes_the_cheapest_unit_above_the_lower_bound():
    def loss(i, s):
        return (1.0, 1.0, 4.0)[i] / s

    sizes = np.array([3, 3, 3])
    assert shed(sizes, np.array([1, 3, 0]), 4, loss).tolist() == [1, 3, 1]
    assert sizes.tolist() == [3, 3, 3]
    # ties go to the lowest index; nothing to remove leaves the sizes alone
    assert shed(np.array([2, 2]), np.zeros(2), 1, lambda i, s: 1.0).tolist() == [1, 2]
    assert shed(np.array([2, 2]), np.zeros(2), 0, lambda i, s: 1.0).tolist() == [2, 2]


def test_round_already_integral():
    sizes, w = _l2_sizes([6.0, 2.0], [1000, 1000], 8)
    assert sizes.tolist() == [6, 2]
    assert not w
    sizes, w = baseline_round(np.array([6.0, 2.0]), np.array([1000, 1000]), 8)
    assert sizes.tolist() == [6, 2]
    assert not w


def test_round_tie_broken_by_order():
    # largest remainder gives the leftover row to the lower index ...
    sizes, _ = baseline_round(np.array([3.5, 3.5]), np.array([10, 10]), 7)
    assert sizes.tolist() == [4, 3]
    # ... and a tied removal takes the row from the lower index
    sizes, _ = _l2_sizes([3.5, 3.5], [10, 10], 7)
    assert sizes.tolist() == [3, 4]


def test_round_cap_then_redistribute():
    sizes, _ = baseline_round(np.array([7.8, 0.2]), np.array([5, 100]), 8)
    assert sizes.tolist() == [5, 3]
    costs = np.array([7.8, 0.2]) ** 2
    fractional, _ = resolve_caps(costs, np.array([5, 100]), 8)
    sizes, _ = l2_sizes(fractional, costs, np.array([5, 100]), 8)
    assert sizes.tolist() == [5, 3]


def test_round_budget_below_strata_count():
    sizes, warnings = _l2_sizes([0.5, 2.0, 0.5], [9, 9, 9], 2)
    # largest shares get the rows: stratum 1 certainly, then tie by order
    assert sizes.tolist() == [1, 1, 0]
    assert any("MissingGroups" in w for w in warnings)


def test_round_min_one_bump():
    # a vanishing share still receives one row when the budget allows
    sizes, _ = _l2_sizes([9.999999, 1e-6], [50, 50], 10)
    assert sizes.tolist() == [9, 1]


@given(
    st.lists(st.floats(0.001, 50.0), min_size=1, max_size=6).map(np.array),
    st.integers(1, 200),
    st.lists(st.integers(1, 40), min_size=6, max_size=6),
)
def test_round_sums_and_caps(shares, budget, caps):
    caps = np.array(caps[: shares.size])
    shares = shares * budget / shares.sum()
    for sizes, _ in (_l2_sizes(shares, caps, budget), baseline_round(shares, caps, budget)):
        assert int(sizes.sum()) == min(budget, int(caps.sum()))
        assert (sizes <= caps).all()
    sizes, _ = _l2_sizes(shares, caps, budget)
    if budget >= shares.size:
        assert (sizes >= 1).all()


def test_l2_sizes_exact_where_ceilings_are_not_above_the_optimum():
    # shares 2.99, twenty at 1.05 and 1.01 at budget 25: the optimum gives
    # the first stratum 4 rows, one above the ceiling of its share
    shares = np.array([2.99] + [1.05] * 20 + [1.01])
    costs = shares**2
    caps = np.full(shares.size, 1000)
    sizes, _ = l2_sizes(shares, costs, caps, 25)
    best, best_sizes = exhaustive_integer_optimum(costs, caps, 25)
    assert sizes.tolist() == list(best_sizes)
    assert sizes[0] == 4
    assert l2_objective(costs, sizes) == pytest.approx(best, rel=1e-12)


# ---------------------------------------------------------------------------
# single grouping costs


def _two_strata_catalog(cv_a=0.3, cv_b=0.1, n=100, mean=10.0):
    # choose +-d patterns: cv of {m-d, m+d}*k is sqrt(n/(n-1)) * d/m
    rows = []
    for grp, cv in (("a", cv_a), ("b", cv_b)):
        d = cv * mean * math.sqrt((n - 1) / n)
        for i in range(n // 2):
            rows.append((grp, mean - d))
            rows.append((grp, mean + d))
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(schema, rows)
    return compute_catalog(rel, ["g"], ["v"])


def test_plan_l2_cv_ratio_three_to_one():
    catalog = _two_strata_catalog()
    plan = plan_l2(catalog, ["v"], 8)
    assert plan.sizes.tolist() == [6, 2]
    assert plan.fractional == pytest.approx([6.0, 2.0], rel=1e-9)


def test_plan_l2_higher_spread_gets_more_rows():
    # equal means, sigma_1 >> sigma_2 implies s_1 > s_2
    catalog = _two_strata_catalog(cv_a=0.8, cv_b=0.05)
    plan = plan_l2(catalog, ["v"], 40)
    assert plan.size_of(GroupKey(("g",), ("a",))) > plan.size_of(
        GroupKey(("g",), ("b",))
    )


def test_plan_l2_weight_scaling():
    catalog = _two_strata_catalog(cv_a=0.2, cv_b=0.2)
    w = WeightSpec({(None, ("a",), "v"): 4.0})
    plan = plan_l2(catalog, ["v"], 9, weights=w)
    # sqrt(4) = 2, so stratum a gets twice stratum b
    assert plan.fractional == pytest.approx([6.0, 3.0], rel=1e-9)


def test_weight_spec_is_immutable_and_hashable_by_value():
    given_entries = {(None, ("a",), "v"): 4.0}
    w = WeightSpec(given_entries)
    given_entries[(None, ("b",), "v")] = 9.0  # the spec keeps its own copy
    assert w.weight(None, GroupKey(("g",), ("b",)), "v") == 1.0
    with pytest.raises(TypeError):
        w.entries[(None, ("b",), "v")] = 9.0
    same = WeightSpec({(None, ("a",), "v"): 4.0})
    assert w == same and hash(w) == hash(same)
    assert w != WeightSpec({(None, ("a",), "v"): 4.0}, default=0.0)
    assert w != WeightSpec({(None, ("a",), "v"): 2.0})


def test_cv_costs_zero_mean_error_and_exclude():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(
        schema, [("a", 5.0), ("a", -5.0), ("b", 3.0), ("b", 5.0)]
    )
    catalog = compute_catalog(rel, ["g"], ["v"])
    with pytest.raises(ZeroMeanStratum):
        cv_costs(catalog, ["v"])
    keys, costs, excluded = cv_costs(catalog, ["v"], zero_mean="exclude")
    assert [k.values for k in excluded] == [("a",)]
    plan = plan_l2(catalog, ["v"], 3, zero_mean="exclude")
    assert plan.size_of(GroupKey(("g",), ("a",))) == 1


def test_zero_variance_stratum_gets_exactly_one_row():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rows = [("a", 5.0)] * 30 + [("b", float(v)) for v in (1, 9) * 15]
    rel = Relation.from_records(schema, rows)
    plan = plan_l2(compute_catalog(rel, ["g"], ["v"]), ["v"], 10)
    assert plan.size_of(GroupKey(("g",), ("a",))) == 1
    assert plan.size_of(GroupKey(("g",), ("b",))) == 9


def test_multi_column_reductions(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age", "gpa"])
    single = compute_catalog(student_rel, ["major"], ["age"])
    k1, c1, _ = cv_costs(catalog, ["age"])
    k2, c2, _ = cv_costs(single, ["age"])
    assert c1 == pytest.approx(c2)

    # duplicated column doubles the cost, allocation unchanged
    plan_one = plan_l2(catalog, ["age"], 8)
    k3, c3, _ = cv_costs(catalog, ["age", "age"])
    assert c3 == pytest.approx(2 * c1)
    plan_two = plan_l2(catalog, ["age", "age"], 8)
    assert plan_two.fractional == pytest.approx(plan_one.fractional, rel=1e-12)


def test_multi_column_costs_match_hand_expansion(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age", "gpa"])
    keys, costs, _ = cv_costs(catalog, ["age", "gpa"])
    by_major = {}
    for major in ("CS", "Math", "EE", "ME"):
        rows = [r for r in STUDENT_ROWS if r[4] == major]
        total = 0.0
        for idx in (1, 2):  # age, gpa record positions
            vals = [r[idx] for r in rows]
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            total += var / mean**2
        by_major[major] = total
    for key, cost in zip(keys, costs):
        assert cost == pytest.approx(by_major[key.values[0]], rel=1e-12)


# ---------------------------------------------------------------------------
# bounded strata


def test_resolve_caps_no_cap_hit():
    costs = np.array([9.0, 1.0])
    frac, frozen = resolve_caps(costs, np.array([100, 100]), 8)
    assert frac == pytest.approx(solve_fractional(costs, 8))
    assert not frozen.any()


def test_resolve_caps_single_recursion():
    frac, frozen = resolve_caps(np.array([9.0, 1.0]), np.array([2, 1000]), 8)
    assert frac.tolist() == [2.0, 6.0]
    assert frozen.tolist() == [True, False]


def test_resolve_caps_full_inclusion():
    frac, frozen = resolve_caps(np.array([5.0, 1.0]), np.array([3, 4]), 50)
    assert frac.tolist() == [3.0, 4.0]
    assert frozen.all()


def test_resolve_caps_paper_style_chain():
    # fractional shares spill over two strata in sequence
    cvs = np.array([10.0, 8.0, 30.0, 20.0, 8.0, 24.0])
    caps = np.array([15, 50, 50, 45, 60, 180])
    frac, frozen = resolve_caps(cvs**2, caps, 200)
    assert frac == pytest.approx([15.0, 18.0, 50.0, 45.0, 18.0, 54.0])
    assert frozen.tolist() == [True, False, True, False, False, False]


def test_capped_objective_matches_exhaustive_optimum():
    rng = np.random.default_rng(11)
    for _ in range(25):
        r = rng.integers(2, 5)
        costs = rng.uniform(0.05, 20.0, size=r)
        caps = rng.integers(2, 12, size=r)
        budget = int(rng.integers(r, min(26, int(caps.sum()) + 1)))
        frac, _ = resolve_caps(costs, caps, budget)
        sizes, _ = l2_sizes(frac, costs, caps, budget)
        ours = l2_objective(costs, sizes)
        best, _ = exhaustive_integer_optimum(costs, caps, min(budget, int(caps.sum())))
        frac_bound = l2_objective(costs, frac)
        assert ours >= frac_bound - 1e-12
        assert ours == pytest.approx(best, rel=1e-12)


# ---------------------------------------------------------------------------
# multiple groupings


def test_multi_grouping_single_query_reduces_to_plain_costs(student_rel):
    fs = build_finest(student_rel, [GroupQuery(("major",), ("gpa",))])
    keys_b, costs_b = multi_grouping_costs(fs)
    keys_a, costs_a, _ = cv_costs(compute_catalog(student_rel, ["major"], ["gpa"]), ["gpa"])
    assert [k.values for k in keys_b] == [k.values for k in keys_a]
    assert costs_b == pytest.approx(costs_a, rel=1e-12)


def _student_beta_oracle(queries, columns=("gpa",)):
    """Hand expansion of the union-stratification coefficient over the
    8-row demo table, straight from the raw rows."""
    def rows_matching(attrs, values):
        pos = {"major": 4, "college": 5}
        return [
            r
            for r in STUDENT_ROWS
            if all(r[pos[a]] == v for a, v in zip(attrs, values))
        ]

    def mean(vals):
        return sum(vals) / len(vals)

    def var(vals):
        m = mean(vals)
        return sum((v - m) ** 2 for v in vals) / (len(vals) - 1) if len(vals) > 1 else 0.0

    col_pos = {"age": 1, "gpa": 2, "sat": 3}
    fine_keys = sorted({(r[4], r[5]) for r in STUDENT_ROWS})
    betas = {}
    for mj, cl in fine_keys:
        fine_rows = rows_matching(("major", "college"), (mj, cl))
        n_f = len(fine_rows)
        total = 0.0
        for attrs in queries:
            values = tuple({"major": mj, "college": cl}[a] for a in attrs)
            coarse_rows = rows_matching(attrs, values)
            n_g = len(coarse_rows)
            inner = 0.0
            for col in columns:
                mu = mean([r[col_pos[col]] for r in coarse_rows])
                sigma2 = var([r[col_pos[col]] for r in fine_rows])
                inner += sigma2 / mu**2
            total += inner / n_g**2
        betas[(mj, cl)] = n_f**2 * total
    return betas


def test_multi_grouping_pair_matches_hand_oracle(student_rel):
    queries = [GroupQuery(("major",), ("gpa",)), GroupQuery(("college",), ("gpa",))]
    fs = build_finest(student_rel, queries)
    keys, costs = multi_grouping_costs(fs)
    oracle = _student_beta_oracle([("major",), ("college",)])
    for key, cost in zip(keys, costs):
        assert cost == pytest.approx(oracle[key.values], rel=1e-12)


def test_multi_grouping_cube_matches_hand_oracle(student_rel):
    queries = cube_queries(("major", "college"), ("gpa",))
    assert [q.attrs for q in queries] == [
        ("major", "college"),
        ("major",),
        ("college",),
        (),
    ]
    fs = build_finest(student_rel, queries)
    keys, costs = multi_grouping_costs(fs)
    oracle = _student_beta_oracle(
        [("major", "college"), ("major",), ("college",), ()]
    )
    for key, cost in zip(keys, costs):
        assert cost == pytest.approx(oracle[key.values], rel=1e-12)


def test_plan_multi_groupby_runs(student_rel):
    queries = [GroupQuery(("major",), ("gpa",)), GroupQuery(("college",), ("age",))]
    fs = build_finest(student_rel, queries)
    plan = plan_multi_groupby(fs, 6)
    assert plan.total_size == 6
    assert set(plan.keys) == set(fs.fine.entries)


def test_finest_from_catalog_matches_build(student_rel):
    queries = [GroupQuery(("major",), ("gpa",)), GroupQuery(("college",), ("gpa",))]
    fine = compute_catalog(student_rel, ["major", "college"], ["gpa"])
    from_catalog = finest_from_catalog(fine, queries)
    direct = build_finest(student_rel, queries)
    assert from_catalog.union_attrs == direct.union_attrs
    _, costs_a = multi_grouping_costs(from_catalog)
    _, costs_b = multi_grouping_costs(direct)
    assert costs_a == pytest.approx(costs_b, rel=1e-12)
    # the coarse catalogs are the pooled ones, entry for entry and in order
    for q, coarse, proj in zip(queries, from_catalog.coarse, from_catalog.projections):
        pooled = pool_catalog(fine, q.attrs)
        assert coarse.group_attrs == pooled.group_attrs == q.attrs
        assert list(coarse.entries.items()) == list(pooled.entries.items())
        assert proj == {key: key.project(q.attrs) for key in fine.entries}
    with pytest.raises(Exception):
        finest_from_catalog(fine, [GroupQuery(("id",), ("gpa",))])


def test_allocation_problem_validation(student_rel):
    from gbsample.alloc import AllocationProblem

    keys = (GroupKey(("g",), ("a",)),)
    with pytest.raises(EmptyProblem):
        AllocationProblem((), np.array([]), np.array([]), 5)
    with pytest.raises(NonPositiveCost):
        AllocationProblem(keys, np.array([0.0]), np.array([3]), 5)
    with pytest.raises(ValueError):
        AllocationProblem(keys, np.array([1.0]), np.array([3]), 0)


# ---------------------------------------------------------------------------
# minimax


def _catalog_from_groups(groups):
    """groups: list of (name, n, mean, cv)."""
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rows = []
    for name, n, mean, cv in groups:
        d = cv * mean * math.sqrt((n - 1) / n)
        for i in range(n // 2):
            rows.extend([(name, mean - d), (name, mean + d)])
        if n % 2:
            rows.append((name, mean))
    rel = Relation.from_records(schema, rows)
    return compute_catalog(rel, ["g"], ["v"]), rel


def test_linf_single_stratum():
    catalog, _ = _catalog_from_groups([("a", 50, 10.0, 0.2)])
    plan = plan_linf(catalog, "v", 12)
    assert plan.sizes.tolist() == [12]


def test_linf_identical_strata_equal_split():
    catalog, _ = _catalog_from_groups(
        [("a", 100, 10.0, 0.2), ("b", 100, 10.0, 0.2), ("c", 100, 10.0, 0.2)]
    )
    plan = plan_linf(catalog, "v", 30)
    assert plan.sizes.tolist() == [10, 10, 10]


def _max_cv(catalog, plan):
    out = 0.0
    for key, n, size in zip(plan.keys, plan.populations, plan.sizes):
        st = catalog.entries[key].per_column["v"]
        out = max(out, predicted_cv(int(n), int(size), st.mean, st.std))
    return out


def exhaustive_minimax(catalog, budget):
    """Smallest max predicted CV over every composition of the budget into
    1 <= s_i <= n_i (positive-variance strata only)."""
    keys = list(catalog.entries)
    pops = [catalog.entries[k].n for k in keys]
    table = []
    for key, n in zip(keys, pops):
        st = catalog.entries[key].per_column["v"]
        table.append([None] + [predicted_cv(n, s, st.mean, st.std) for s in range(1, n + 1)])
    return min(
        max(table[i][s] for i, s in enumerate(comp))
        for comp in compositions(min(budget, sum(pops)), pops)
    )


def test_linf_matches_exhaustive_minimax_steep():
    # steep cv spread: the worst stratum takes most of the budget
    catalog, _ = _catalog_from_groups(
        [("a", 100, 10.0, 2.0), ("b", 100, 10.0, 1.0), ("c", 100, 10.0, 0.5)]
    )
    plan = plan_linf(catalog, "v", 30)
    assert plan.total_size == 30
    assert _max_cv(catalog, plan) == pytest.approx(exhaustive_minimax(catalog, 30), rel=1e-12)
    assert plan.extra["max_cv"] == pytest.approx(_max_cv(catalog, plan), rel=1e-12)


def test_linf_matches_exhaustive_minimax_random():
    rng = np.random.default_rng(44)
    capped = 0
    for _ in range(120):
        r = int(rng.integers(1, 6))
        groups = [
            (f"g{i}", int(rng.integers(2, 12)), float(rng.uniform(1.0, 50.0)),
             float(rng.choice([0.5, rng.uniform(0.05, 3.0)])))
            for i in range(r)
        ]
        catalog, _ = _catalog_from_groups(groups)
        total = sum(g[1] for g in groups)
        budget = int(rng.integers(r, min(total, 20) + 1))
        plan = plan_linf(catalog, "v", budget)
        ours = _max_cv(catalog, plan)
        assert plan.total_size == min(budget, total)
        assert ours == pytest.approx(exhaustive_minimax(catalog, budget), rel=1e-12, abs=1e-15)
        assert plan.extra["max_cv"] == pytest.approx(ours, rel=1e-12, abs=1e-15)
        capped += bool(plan.capped)
    assert capped >= 10


def test_linf_monotone_total_load():
    # x_i(t) = n_i cv_i^2 / (t^2 n_i + cv_i^2) falls with the target CV t
    cv2 = np.array([0.9, 0.1, 0.02])
    pops = np.array([40, 160, 400])
    totals = [float((pops * cv2 / (t * t * pops + cv2)).sum()) for t in np.linspace(0, 2, 600)]
    assert totals[0] == pytest.approx(pops.sum())
    assert all(a >= b for a, b in zip(totals, totals[1:]))


def test_linf_fractional_equalizes_cvs():
    catalog, _ = _catalog_from_groups(
        [("a", 400, 5.0, 1.5), ("b", 300, 20.0, 0.4), ("c", 500, 2.0, 0.1)]
    )
    plan = plan_linf(catalog, "v", 90)
    assert plan.fractional.sum() == pytest.approx(90, rel=1e-12)
    cvs = []
    for key, x in zip(plan.keys, plan.fractional):
        s = catalog.entries[key].per_column["v"]
        cvs.append(s.cv * math.sqrt((catalog.entries[key].n - x) / (catalog.entries[key].n * x)))
    assert max(cvs) == pytest.approx(min(cvs), rel=1e-6)


def test_linf_max_cv_not_worse_than_l2():
    catalog, _ = _catalog_from_groups(
        [("a", 400, 5.0, 1.5), ("b", 300, 20.0, 0.4), ("c", 500, 2.0, 0.1)]
    )
    budget = 90
    plan_inf = plan_linf(catalog, "v", budget)
    plan_sq = plan_l2(catalog, ["v"], budget)

    def max_cv(plan):
        out = 0.0
        for key, n, s in zip(plan.keys, plan.populations, plan.sizes):
            st = catalog.entries[key].per_column["v"]
            out = max(out, predicted_cv(int(n), int(s), st.mean, st.std))
        return out

    assert max_cv(plan_inf) <= max_cv(plan_sq) + 1e-12


def test_linf_all_constant_raises():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(schema, [("a", 3.0), ("a", 3.0), ("b", 7.0)])
    catalog = compute_catalog(rel, ["g"], ["v"])
    with pytest.raises(AllStrataConstant):
        plan_linf(catalog, "v", 3)


# ---------------------------------------------------------------------------
# individual stratification


def test_individual_single_query_matches_plain(student_rel):
    # one query reduces to the multi-column closed form (individual
    # stratification puts no population caps on the fractional shares)
    catalog = compute_catalog(student_rel, ["major"], ["age", "gpa"])
    q = GroupQuery(("major",), ("age", "gpa"))
    alloc_one = plan_individual([catalog], [q], 8)
    keys, costs, _ = cv_costs(catalog, ["age", "gpa"])
    closed = solve_fractional(costs, 8)
    for key, frac in zip(keys, closed):
        assert alloc_one.sizes[(0, key)] == pytest.approx(frac, rel=1e-12)
    assert alloc_one.total == pytest.approx(8.0, rel=1e-12)


def test_individual_duplicate_query_halves_then_matches(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age"])
    q = GroupQuery(("major",), ("age",))
    one = plan_individual([catalog], [q], 8)
    two = plan_individual([catalog, catalog], [q, q], 8)
    for key in catalog.entries:
        # identical queries split the budget evenly; each query's group gets
        # half of the single-query share
        assert two.sizes[(0, key)] == pytest.approx(one.sizes[(0, key)] / 2, rel=1e-12)
        assert two.sizes[(1, key)] == pytest.approx(two.sizes[(0, key)], rel=1e-12)


def test_individual_disjoint_groupings_match_grid_oracle(student_rel):
    cat_major = compute_catalog(student_rel, ["major"], ["age"])
    cat_college = compute_catalog(student_rel, ["college"], ["gpa"])
    queries = [GroupQuery(("major",), ("age",)), GroupQuery(("college",), ("gpa",))]
    result = plan_individual([cat_major, cat_college], queries, 12)
    # direct objective: sum over pairs of score / s; grid over the simplex
    pairs = list(result.sizes)
    scores = []
    for (i, key) in pairs:
        cat = (cat_major, cat_college)[i]
        st = cat.entries[key].per_column[("age", "gpa")[i]]
        scores.append(st.cv**2)
    ours = sum(sc / result.sizes[p] for sc, p in zip(scores, pairs))
    oracle = lambda_bisection(np.array(scores), 12)
    oracle_obj = float((np.array(scores) / oracle).sum())
    assert ours == pytest.approx(oracle_obj, rel=1e-9)


def test_unified_inclusion_rules():
    assert unified_inclusion([np.array([0.3, 0.9])]).tolist() == [0.3, 0.9]
    combined = unified_inclusion([np.array([0.5]), np.array([0.5])])
    assert combined == pytest.approx([0.75])
    absorbing = unified_inclusion([np.array([1.0, 0.2]), np.array([0.4, 0.0])])
    assert absorbing[0] == 1.0
    assert absorbing[1] == pytest.approx(0.2)
    with pytest.raises(RateOutOfRange):
        unified_inclusion([np.array([1.2])])
    with pytest.raises(EmptyProblem):
        unified_inclusion([])


def test_inclusion_rates_bounds(student_rel):
    cat_major = compute_catalog(student_rel, ["major"], ["age"])
    cat_college = compute_catalog(student_rel, ["college"], ["gpa"])
    queries = [GroupQuery(("major",), ("age",)), GroupQuery(("college",), ("gpa",))]
    result = plan_individual([cat_major, cat_college], queries, 6)
    p = inclusion_rates(student_rel, result)
    assert p.shape == (8,)
    assert ((p > 0) & (p <= 1)).all()
    # p_r at least the max per-query rate and at most their sum
    for i, key_fn in ((0, lambda r: (r[4],)), (1, lambda r: (r[5],))):
        for row_id, row in enumerate(STUDENT_ROWS):
            key = GroupKey(queries[i].attrs, key_fn(row))
            rate = min(1.0, result.sizes[(i, key)] / result.populations[(i, key)])
            assert p[row_id] >= rate - 1e-12


# ---------------------------------------------------------------------------
# predicted CV


def test_predicted_cv_exhaustive_sample_is_exact():
    assert predicted_cv(50, 50, 10.0, 3.0) == 0.0


def test_predicted_cv_relative_spread_pair():
    # equal absolute spread, very different means: the smaller mean has the
    # ten-times-larger CV
    n, s = 2, 1
    sigma = math.sqrt(200.0)  # predicted std of the estimate is exactly 10
    cv_large_mean = predicted_cv(n, s, 1000.0, sigma)
    cv_small_mean = predicted_cv(n, s, 100.0, sigma)
    assert cv_large_mean == pytest.approx(10.0 / 1000.0, rel=1e-12)
    assert cv_small_mean == pytest.approx(10.0 / 100.0, rel=1e-12)


def test_predicted_cv_formula_value():
    got = predicted_cv(100, 25, 1.0, 0.2)
    assert got == pytest.approx(0.2 * math.sqrt(0.03), rel=1e-12)


def test_predicted_cv_decreasing_in_s():
    vals = [predicted_cv(100, s, 5.0, 2.0) for s in range(1, 101)]
    assert all(a > b or (a == b == 0.0) for a, b in zip(vals, vals[1:]))


def test_predicted_cv_invalid_sizes():
    with pytest.raises(InvalidSampleSize):
        predicted_cv(10, 0, 5.0, 1.0)
    with pytest.raises(InvalidSampleSize):
        predicted_cv(10, 11, 5.0, 1.0)


def test_predicted_group_cv_singleton_matches_scalar():
    got = predicted_group_cv([(100, 25, 0.2)], 1.0)
    assert got == pytest.approx(predicted_cv(100, 25, 1.0, 0.2), rel=1e-12)


def test_predicted_group_cv_zero_sample_positive_sigma_is_inf():
    assert predicted_group_cv([(10, 0, 1.0), (10, 5, 1.0)], 5.0) == math.inf
    assert predicted_group_cv([(10, 0, 0.0), (10, 5, 1.0)], 5.0) < math.inf


# ---------------------------------------------------------------------------
# invariances


def test_allocation_scale_invariance(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age"])
    plan = plan_l2(catalog, ["age"], 8)

    scaled_rows = [
        (r[0], r[1] * 3.0, r[2], r[3], r[4], r[5]) for r in STUDENT_ROWS
    ]
    rel2 = Relation.from_records(STUDENT_SCHEMA, scaled_rows)
    plan_scaled = plan_l2(compute_catalog(rel2, ["major"], ["age"]), ["age"], 8)
    assert plan_scaled.fractional == pytest.approx(plan.fractional, rel=1e-12)

    w = WeightSpec({(None, None, "age"): 5.0})
    plan_weighted = plan_l2(catalog, ["age"], 8, weights=w)
    assert plan_weighted.fractional == pytest.approx(plan.fractional, rel=1e-12)


def test_plan_json_round_trip(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age"])
    plan = plan_l2(catalog, ["age"], 6)
    back = plan_from_json(plan_to_json(plan))
    assert back.method == plan.method
    assert back.keys == plan.keys
    assert back.sizes.tolist() == plan.sizes.tolist()
    assert back.fractional == pytest.approx(plan.fractional)
    assert back.capped == plan.capped


def test_individual_json_round_trip(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age"])
    q = GroupQuery(("major",), ("age",))
    result = plan_individual([catalog], [q], 8)
    back = individual_from_json(individual_to_json(result))
    assert back.queries == result.queries
    assert back.budget == result.budget
    for pair, share in result.sizes.items():
        assert back.sizes[pair] == pytest.approx(share)


# ---------------------------------------------------------------------------
# the integer allocators against oracles, and the rates against their
# direct form


def reference_largest_remainder(fractional, caps, budget):
    """Direct form of the baselines' capped largest-remainder rounding."""
    shares = np.asarray(fractional, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.int64)
    r = shares.size
    warnings = []
    target = int(min(budget, int(caps.sum())))

    frozen = np.zeros(r, dtype=bool)
    scaled = shares.astype(np.float64).copy()
    while True:
        remaining = target - int(caps[frozen].sum())
        active = ~frozen
        mass = scaled[active].sum()
        if mass <= 0:
            scaled[active] = remaining / max(active.sum(), 1)
        else:
            scaled[active] = scaled[active] * (remaining / mass)
        over = active & (scaled > caps)
        if not over.any():
            break
        frozen |= over
    scaled[frozen] = caps[frozen]

    sizes = np.floor(scaled).astype(np.int64)
    sizes[frozen] = caps[frozen]
    leftover = target - int(sizes.sum())
    remainders = scaled - np.floor(scaled)
    order = sorted(range(r), key=lambda i: (-remainders[i], i))
    for i in order:
        if leftover <= 0:
            break
        if not frozen[i] and sizes[i] + 1 <= caps[i]:
            sizes[i] += 1
            leftover -= 1

    if (sizes == 0).any():
        missing = int((sizes == 0).sum())
        warnings.append(f"MissingGroups: {missing} strata rounded to zero rows")
    return sizes, warnings


def reference_inclusion_rates(rel, alloc):
    """Per-row rates with one partition of the rows per query."""
    per_query = []
    for i, q in enumerate(alloc.queries):
        rates = np.zeros(rel.n_rows)
        for key, rows in partition(rel, q.attrs).items():
            share = alloc.sizes.get((i, key), 0.0)
            n = alloc.populations.get((i, key), len(rows))
            rate = min(1.0, share / n) if n else 0.0
            rates[np.asarray(rows, dtype=np.intp)] = rate
        per_query.append(rates)
    return unified_inclusion(per_query)


def assert_same_rounding(fractional, caps, budget):
    """The baselines' rounding equals its direct form byte for byte."""
    got, got_w = baseline_round(fractional, caps, budget)
    want, want_w = reference_largest_remainder(fractional, caps, budget)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got_w == want_w
    return got


def assert_l2_optimal(fractional, costs, caps, budget):
    """l2_sizes reaches the objective of the greedy-addition optimum; below
    one row per stratum the largest shares get one row each."""
    sizes, warnings = l2_sizes(fractional, costs, caps, budget)
    caps = np.asarray(caps)
    r = caps.size
    target = min(budget, int(caps.sum()))
    assert sizes.dtype == np.int64
    assert int(sizes.sum()) == target
    assert (sizes <= caps).all()
    if target < r:
        order = sorted(range(r), key=lambda i: (-fractional[i], i))
        assert sorted(np.flatnonzero(sizes).tolist()) == sorted(order[:target])
        assert len(warnings) == 1 and warnings[0].startswith("MissingGroups")
        return sizes
    assert (sizes >= 1).all() and not warnings
    best = greedy_add_optimum(costs, caps, target)
    assert l2_objective(costs, sizes) == pytest.approx(
        l2_objective(costs, best), rel=1e-12
    )
    return sizes


def _zero_count(fractional, caps, budget):
    unrepaired, _ = reference_largest_remainder(fractional, caps, budget)
    return int((unrepaired == 0).sum())


def _random_costs(rng, r, kind):
    if kind == "none":
        return None
    if kind == "tied":
        return rng.choice([1e-9, 2.0], size=r)
    costs = rng.lognormal(0.0, 2.0, size=r)
    if kind == "floored":
        costs[rng.random(r) < 0.3] = 0.0
        costs = floor_zero_costs(costs)
    return costs


@pytest.mark.parametrize("kind", ["none", "random", "tied", "floored"])
def test_round_repair_matches_reference_on_planned_instances(kind):
    # the planners' path: closed form with caps resolved, then rounding;
    # "repaired" counts instances where plain rounding leaves a stratum empty
    rng = np.random.default_rng(20240 + len(kind))
    repaired = 0
    for _ in range(150):
        r = int(rng.integers(1, 60))
        caps = np.minimum(rng.zipf(1.6, size=r), 500).astype(np.int64)
        budget = int(rng.integers(1, int(caps.sum()) + 2))
        costs = _random_costs(rng, r, kind)
        planning = costs if costs is not None else rng.lognormal(0.0, 2.0, size=r)
        if budget < int(caps.sum()):
            fractional, _ = resolve_caps(planning, caps, budget)
        else:
            fractional = caps.astype(np.float64)
        assert_same_rounding(fractional, caps, budget)
        assert_l2_optimal(fractional, planning, caps, budget)
        if budget >= r and _zero_count(fractional, caps, budget):
            repaired += 1
    assert repaired >= 10


@pytest.mark.parametrize("kind", ["none", "random", "tied", "floored"])
def test_round_repair_matches_reference_on_raw_shares(kind):
    # arbitrary shares, including budgets below the stratum count
    rng = np.random.default_rng(777 + len(kind))
    below = 0
    for _ in range(150):
        r = int(rng.integers(1, 40))
        shares = rng.choice([1e-9, 0.01, 0.4, 3.0, 50.0], size=r)
        caps = rng.integers(1, 30, size=r)
        budget = int(rng.integers(1, 2 * r + 20))
        costs = _random_costs(rng, r, kind)
        if costs is None:
            costs = floor_zero_costs(shares**2)
        assert_same_rounding(shares, caps, budget)
        assert_l2_optimal(shares, costs, caps, budget)
        below += min(budget, int(caps.sum())) < r
    assert below >= 10


def test_round_repair_one_donor_gives_several_rows():
    # one large stratum funds the one-row minimum of four tiny ones
    shares = np.array([1e-6, 20.0, 1e-6, 1e-6, 5.0, 1e-6])
    caps = np.array([10, 40, 10, 10, 40, 10])
    for costs in (shares**2, np.array([1.0, 1.0, 1.0, 1.0, 1000.0, 1.0])):
        sizes = assert_l2_optimal(shares, costs, caps, 25)
        best, best_sizes = exhaustive_integer_optimum(costs, caps, 25)
        assert sizes.tolist() == list(best_sizes)
        assert sizes.tolist()[1] <= 20 - 3
    # tied costs: balanced sizes, the lowest indices give up the tied rows
    sizes = assert_l2_optimal(
        np.array([5.0, 5.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0, 1.0]),
        np.array([9, 9, 9, 9]), 10,
    )
    assert sizes.tolist() == [2, 2, 3, 3]


def test_round_repair_matches_reference_at_benchmark_scale():
    # ~2500 Zipf-sized strata with spread costs at a 10 % budget
    rng = np.random.default_rng(11)
    r = 2500
    caps = np.minimum(rng.zipf(1.3, size=r), 2000).astype(np.int64)
    costs = floor_zero_costs(
        np.where(rng.random(r) < 0.05, 0.0, rng.lognormal(0.0, 3.0, size=r))
    )
    budget = int(caps.sum()) // 10
    fractional, _ = resolve_caps(costs, caps, budget)
    assert _zero_count(fractional, caps, budget) > 100
    assert_same_rounding(fractional, caps, budget)
    sizes = assert_l2_optimal(fractional, costs, caps, budget)
    assert (sizes >= 1).all()


@given(
    st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12),
    st.integers(1, 120),
    st.lists(st.integers(1, 30), min_size=12, max_size=12),
    st.one_of(
        st.none(),
        st.lists(st.sampled_from([1e-12, 0.5, 1.0, 3.0]), min_size=12, max_size=12),
    ),
)
def test_round_repair_matches_reference_hypothesis(shares, budget, caps, costs):
    r = len(shares)
    shares, caps = np.array(shares), np.array(caps[:r])
    costs = floor_zero_costs(shares**2) if costs is None else np.array(costs[:r])
    assert_same_rounding(shares, caps, budget)
    assert_l2_optimal(shares, costs, caps, budget)


def _random_relation(rng, n, cards):
    schema = tuple(ColumnSchema(a, CATEGORICAL) for a in cards) + (
        ColumnSchema("x", NUMERIC),
    )
    columns = {
        a: [f"{a}{v}" for v in np.minimum(rng.zipf(1.5, size=n), k) - 1]
        for a, k in cards.items()
    }
    columns["x"] = rng.lognormal(2.0, 0.5, size=n)
    return Relation(schema, columns)


def test_inclusion_rates_match_reference_on_cube():
    # every subset of (a, b, c), the empty grouping () included
    rng = np.random.default_rng(5)
    rel = _random_relation(rng, 3000, {"a": 12, "b": 6, "c": 4})
    fine = compute_catalog(rel, ["a", "b", "c"], ["x"])
    queries = cube_queries(("a", "b", "c"), ("x",))
    assert GroupQuery((), ("x",)) in queries
    catalogs = [pool_catalog(fine, q.attrs) for q in queries]
    for budget in (40, 600, 5000):
        alloc = plan_individual(catalogs, queries, budget)
        got = inclusion_rates(rel, alloc)
        assert got.tobytes() == reference_inclusion_rates(rel, alloc).tobytes()


def test_inclusion_rates_match_reference_on_permuted_attrs():
    rng = np.random.default_rng(6)
    rel = _random_relation(rng, 2000, {"a": 9, "b": 7, "c": 3})
    queries = [
        GroupQuery(("b", "a"), ("x",)),
        GroupQuery(("a", "b"), ("x",)),
        GroupQuery(("c", "a", "b"), ("x",)),
        GroupQuery(("b",), ("x",)),
    ]
    catalogs = [compute_catalog(rel, q.attrs, ["x"]) for q in queries]
    alloc = plan_individual(catalogs, queries, 300)
    got = inclusion_rates(rel, alloc)
    assert got.tobytes() == reference_inclusion_rates(rel, alloc).tobytes()


def test_inclusion_rates_match_reference_with_missing_entries():
    # groups absent from the allocation take share 0 or their row count
    rng = np.random.default_rng(8)
    rel = _random_relation(rng, 500, {"a": 5, "b": 4})
    queries = (GroupQuery(("a",), ("x",)), GroupQuery(("b", "a"), ("x",)))
    catalogs = [compute_catalog(rel, q.attrs, ["x"]) for q in queries]
    full = plan_individual(catalogs, queries, 90)
    pairs = list(full.sizes)
    sizes = {p: 3.0 * s for k, (p, s) in enumerate(full.sizes.items()) if k % 3}
    populations = {p: n for k, (p, n) in enumerate(full.populations.items()) if k % 4}
    alloc = PerQueryAllocation(queries, sizes, populations, 90)
    assert len(sizes) < len(pairs) and len(populations) < len(pairs)
    got = inclusion_rates(rel, alloc)
    assert got.tobytes() == reference_inclusion_rates(rel, alloc).tobytes()
    assert (got == 1.0).any()

    empty = Relation((ColumnSchema("a", CATEGORICAL),), {"a": []})
    alloc = PerQueryAllocation((GroupQuery((), ()), GroupQuery(("a",), ())), {}, {}, 1)
    assert inclusion_rates(empty, alloc).tobytes() == (
        reference_inclusion_rates(empty, alloc).tobytes()
    )
