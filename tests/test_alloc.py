import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gbsample.alloc import (
    GroupQuery,
    _minimax_sizes,
    PerQueryAllocation,
    WeightSpec,
    cube_queries,
    cv_costs,
    finest_from_catalog,
    floor_zero_costs,
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
    predicted_group_cvs,
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
)
from gbsample.errors import (
    AllStrataConstant,
    EmptyProblem,
    FloatOverflow,
    InvalidArgument,
    InvalidSampleSize,
    NonPositiveCost,
    RateOutOfRange,
    ZeroMeanCoarseGroup,
    ZeroMeanStratum,
)
from gbsample.stats import StatsCatalog, compute_catalog, pool_catalog

from conftest import STUDENT_ROWS, STUDENT_SCHEMA
import reference
from reference import build_finest, partition, predicted_group_cv, project_key


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

    # stratum 0 is cheapest but stops at one row; stratum 1 starts there
    sizes = np.array([3, 1, 3])
    assert shed(sizes, 3, loss).tolist() == [1, 1, 2]
    assert sizes.tolist() == [3, 1, 3]
    # ties go to the lowest index; nothing to remove leaves the sizes alone
    assert shed(np.array([2, 2]), 1, lambda i, s: 1.0).tolist() == [1, 2]
    assert shed(np.array([2, 2]), 0, lambda i, s: 1.0).tolist() == [2, 2]


@st.composite
def _l2_instances(draw):
    """Costs (tie-heavy, spread over twelve decades, or floored zeros),
    caps and a budget at one of the edges: one row per stratum, every row,
    below the stratum count, or anywhere."""
    r = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["ties", "wide", "zeros"]))
    if kind == "wide":
        costs = draw(st.lists(st.floats(1e-6, 1e6), min_size=r, max_size=r))
    else:
        levels = [1.0, 2.0, 3.0] if kind == "ties" else [0.0, 0.5, 4.0]
        costs = draw(st.lists(st.sampled_from(levels), min_size=r, max_size=r))
    caps = draw(st.lists(st.integers(1, 12), min_size=r, max_size=r))
    total = sum(caps)
    budget = draw(st.sampled_from([r, total, max(1, r - 1)]) | st.integers(1, total + 3))
    return floor_zero_costs(np.array(costs)), np.array(caps), budget


def _assert_same_l2_sizes(costs, caps, budget):
    fractional, _ = resolve_caps(costs, caps, budget)
    got, got_w = l2_sizes(fractional, costs, caps, budget)
    want, want_w = reference.l2_sizes(fractional, costs, caps, budget)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got_w == want_w


@given(_l2_instances())
@example((np.full(5, 2.0), np.full(5, 9), 5))  # one row each, all tied
@example((np.array([1.0, 1.0, 2.0, 2.0]), np.array([1, 9, 2, 9]), 14))  # binding caps
@example((floor_zero_costs(np.array([0.0, 3.0, 0.0])), np.array([5, 5, 5]), 7))
@example((np.array([1e-6, 1e6, 1.0]), np.array([3, 3, 3]), 2))  # below the stratum count
def test_l2_sizes_matches_the_full_search(instance):
    """The search for mu that starts at the closed form and stops on the
    step that meets the budget gives the bytes of the search that runs to
    float resolution from the largest cost."""
    _assert_same_l2_sizes(*instance)


def test_l2_sizes_matches_the_full_search_on_seeded_instances():
    rng = np.random.default_rng(2020)
    for _ in range(1500):
        r = int(rng.integers(1, 40))
        kind = rng.integers(3)
        if kind == 0:
            costs = rng.integers(1, 4, r).astype(float)
        elif kind == 1:
            costs = 10.0 ** rng.uniform(-6, 6, r)
        else:
            costs = floor_zero_costs(rng.choice([0.0, 0.25, 7.0], r))
        caps = rng.integers(1, 30, r)
        budget = int(rng.choice([r, int(caps.sum()), int(rng.integers(1, caps.sum() + 5))]))
        _assert_same_l2_sizes(costs, caps, budget)


def test_l2_sizes_ends_where_the_search_reaches_the_float_floor():
    # sum(sqrt(c)) / budget squared underflows to 0, or a zero cost keeps one
    # row at every mu > 0, so the search halves mu down to 0; it starts from
    # the caps there, without dividing by mu, and sheds to an exact optimum
    for costs, caps, budget in (
        ([5e-324, 5e-324, 1e-323], [5, 5, 5], 8),
        ([1e-323, 1e-323], [5, 5], 10),
        ([0.0, 1.0], [5, 5], 7),
    ):
        costs, caps = np.array(costs), np.array(caps)
        shares = np.ones(len(costs))  # read only below one row per stratum
        sizes, warnings = l2_sizes(shares, costs, caps, budget)
        want, _ = reference.l2_sizes(shares, costs, caps, budget)
        assert sizes.tobytes() == want.tobytes() and not warnings
        assert sizes.sum() == min(budget, caps.sum())
        best, _ = exhaustive_integer_optimum(costs, caps, min(budget, int(caps.sum())))
        assert l2_objective(costs, sizes) == pytest.approx(best, rel=1e-12)


#: (cost, size) pairs of an l2 objective: zero and infinite costs, empty,
#: negative and fractional sizes
OBJECTIVE_TERMS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 1e300)),
        st.one_of(st.integers(-2, 50), st.floats(0.25, 1e3)),
    ),
    max_size=40,
)


@given(OBJECTIVE_TERMS)
@example([])
@example([(0.0, 0), (2.0, 3)])  # no cost and no rows: adds nothing
@example([(2.0, 3), (1.0, 0)])  # a cost and no rows: inf
@example([(math.inf, 2), (1.0, 4)])
@example([(1.0, 1)] + [(1e-16, 1)] * 10)  # in order 1.0; compensated, more
def test_l2_objective_equals_the_loop_bit_for_bit(terms):
    costs = np.array([c for c, _ in terms], dtype=float)
    sizes = np.array([s for _, s in terms], dtype=float)
    ours, loop = l2_objective(costs, sizes), reference.l2_objective(costs, sizes)
    assert np.float64(ours).tobytes() == np.float64(loop).tobytes()
    assert math.isnan(l2_objective(None, sizes))


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


def _sizes(plan):
    """A one-attribute plan's integral sizes by stratum value."""
    return {k.values[0]: size for k, size in zip(plan.keys, plan.sizes.tolist())}


def test_plan_l2_cv_ratio_three_to_one():
    catalog = _two_strata_catalog()
    plan = plan_l2(catalog, ["v"], 8)
    assert plan.sizes.tolist() == [6, 2]
    assert plan.fractional == pytest.approx([6.0, 2.0], rel=1e-9)


def test_plan_l2_higher_spread_gets_more_rows():
    # equal means, sigma_1 >> sigma_2 implies s_1 > s_2
    catalog = _two_strata_catalog(cv_a=0.8, cv_b=0.05)
    plan = plan_l2(catalog, ["v"], 40)
    sizes = _sizes(plan)
    assert sizes["a"] > sizes["b"]


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
    assert w.weight(None, ("b",), "v") == 1.0
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
    kept, costs, excluded = cv_costs(catalog, ["v"], zero_mean="exclude")
    assert [catalog.keys[k] for k in excluded] == [("a",)]
    assert [catalog.keys[k] for k in kept] == [("b",)]
    plan = plan_l2(catalog, ["v"], 3, zero_mean="exclude")
    assert _sizes(plan) == {"b": 2, "a": 1}


def _one_zero_mean_pair_catalog():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(schema, [("a", 5.0), ("a", -5.0), ("b", 3.0), ("b", 5.0)])
    return compute_catalog(rel, ["g"], ["v"])


def test_plan_individual_a_budget_below_one_is_invalid():
    catalog = _one_zero_mean_pair_catalog()
    with pytest.raises(InvalidArgument, match="^budget must be >= 1, got 0$"):
        plan_individual([catalog], [GroupQuery(("g",), ("v",))], 0, zero_mean="exclude")


def test_plan_individual_a_budget_the_pinned_pairs_use_up_is_invalid():
    catalog = _one_zero_mean_pair_catalog()
    with pytest.raises(InvalidArgument) as raised:
        plan_individual([catalog], [GroupQuery(("g",), ("v",))], 1, zero_mean="exclude")
    assert str(raised.value) == (
        "budget 1 leaves no rows after pinning 1 zero-mean (query, group) pairs at one row each"
    )
    plan = plan_individual([catalog], [GroupQuery(("g",), ("v",))], 2, zero_mean="exclude")
    assert plan.sizes.tolist() == [1.0, 1.0]


def test_zero_variance_stratum_gets_exactly_one_row():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rows = [("a", 5.0)] * 30 + [("b", float(v)) for v in (1, 9) * 15]
    rel = Relation.from_records(schema, rows)
    plan = plan_l2(compute_catalog(rel, ["g"], ["v"]), ["v"], 10)
    assert _sizes(plan) == {"a": 1, "b": 9}


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
    kept, costs, _ = cv_costs(catalog, ["age", "gpa"])
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
    for k, cost in zip(kept, costs):
        assert cost == pytest.approx(by_major[catalog.keys[k][0]], rel=1e-12)


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
    costs_b = multi_grouping_costs(fs)
    catalog = compute_catalog(student_rel, ["major"], ["gpa"])
    kept, costs_a, _ = cv_costs(catalog, ["gpa"])
    assert fs.fine.keys == [catalog.keys[k] for k in kept]
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
    costs = multi_grouping_costs(fs)
    oracle = _student_beta_oracle([("major",), ("college",)])
    assert len(costs) == len(fs.fine.keys) == len(oracle)
    for values, cost in zip(fs.fine.keys, costs):
        assert cost == pytest.approx(oracle[values], rel=1e-12)


def test_multi_grouping_cube_matches_hand_oracle(student_rel):
    queries = cube_queries(("major", "college"), ("gpa",))
    assert [q.attrs for q in queries] == [
        ("major", "college"),
        ("major",),
        ("college",),
        (),
    ]
    fs = build_finest(student_rel, queries)
    costs = multi_grouping_costs(fs)
    oracle = _student_beta_oracle(
        [("major", "college"), ("major",), ("college",), ()]
    )
    assert len(costs) == len(fs.fine.keys) == len(oracle)
    for values, cost in zip(fs.fine.keys, costs):
        assert cost == pytest.approx(oracle[values], rel=1e-12)


def test_plan_multi_groupby_runs(student_rel):
    queries = [GroupQuery(("major",), ("gpa",)), GroupQuery(("college",), ("age",))]
    fs = build_finest(student_rel, queries)
    plan = plan_multi_groupby(fs, 6)
    assert plan.total_size == 6
    assert set(plan.keys) == set(fs.fine.group_keys())


def test_finest_from_catalog_matches_build(student_rel):
    queries = [GroupQuery(("major",), ("gpa",)), GroupQuery(("college",), ("gpa",))]
    fine = compute_catalog(student_rel, ["major", "college"], ["gpa"])
    from_catalog = finest_from_catalog(fine, queries)
    direct = build_finest(student_rel, queries)
    assert from_catalog.union_attrs == direct.union_attrs
    costs_a = multi_grouping_costs(from_catalog)
    costs_b = multi_grouping_costs(direct)
    assert costs_a == pytest.approx(costs_b, rel=1e-12)
    # the coarse catalogs are the pooled ones, stratum for stratum and in
    # order, and each fine stratum's coarse id points at its projection
    for q, coarse, ids in zip(queries, from_catalog.coarse, from_catalog.coarse_ids):
        pooled = pool_catalog(fine, q.attrs)
        assert coarse.group_attrs == pooled.group_attrs == q.attrs
        assert coarse.keys == pooled.keys
        assert coarse.n.tolist() == pooled.n.tolist()
        assert coarse.mean["gpa"].tolist() == pooled.mean["gpa"].tolist()
        assert coarse.std["gpa"].tolist() == pooled.std["gpa"].tolist()
        assert [coarse.keys[g] for g in ids] == [
            project_key(key, q.attrs).values for key in fine.group_keys()
        ]
    with pytest.raises(Exception):
        finest_from_catalog(fine, [GroupQuery(("id",), ("gpa",))])


def test_multi_grouping_costs_where_a_square_leaves_the_float_range():
    """Grouped exactly by the fine attributes, the costs are the plain
    squared CVs even where sigma^2 or mu^2 alone underflows or overflows;
    a cost beyond the float range names the column whose term took it
    there."""
    def finest(mean_v, std_v):
        keys = [("a",), ("b",), ("c",), ("d",)]
        mean = {"v": mean_v, "u": [1.0] * 4}
        std = {"v": std_v, "u": [0.0, 0.0, 0.0, 1e154]}
        catalog = StatsCatalog(("g",), ("v", "u"), keys, [1] * 4, mean, std, 4)
        return catalog, finest_from_catalog(catalog, [GroupQuery(("g",), ("v", "u"))])

    catalog, fs = finest([1e-170, 1e-170, 1e100, 2.0], [0.0, 2e-170, 1e200, 1.0])
    _, expected, _ = cv_costs(catalog, ["v", "u"])
    assert multi_grouping_costs(fs).tolist() == pytest.approx(expected.tolist(), rel=1e-15)
    assert expected[1:3].tolist() == pytest.approx([4.0, 1e200], rel=1e-15)
    # v's squared CV is 1e308 at d, and u's 1e308 more takes it past the range
    _, fs = finest([1e-170, 1e-170, 1e100, 1.0], [0.0, 2e-170, 1e200, 1e154])
    with pytest.raises(FloatOverflow, match=r"\(g=d\) column 'u': the squared-CV cost"):
        multi_grouping_costs(fs)
    # a zero-mean coarse group raises before the overflow at d
    _, fs = finest([0.0, 1e-170, 1e100, 1.0], [1.0, 2e-170, 1e200, 1e154])
    with pytest.raises(ZeroMeanCoarseGroup, match=r"\(g=a\) column 'v'"):
        multi_grouping_costs(fs)
    # c leaves the range at u, d already at v: the first overflowing
    # column, v, names d, though c comes first
    keys, mean = [("c",), ("d",)], {"v": [1.0, 1.0], "u": [1.0, 1.0]}
    catalog = StatsCatalog(("g",), ("v", "u"), keys, [1, 1], mean,
                           {"v": [1.0, 1e200], "u": [1e200, 1.0]}, 2)
    fs = finest_from_catalog(catalog, [GroupQuery(("g",), ("v", "u"))])
    with pytest.raises(FloatOverflow, match=r"\(g=d\) column 'v': the squared-CV cost"):
        multi_grouping_costs(fs)


def test_multi_grouping_costs_whose_sum_over_queries_leaves_the_float_range():
    # each query's term is 1e308 at a, finite, but the two sum past the range
    keys, mean, std = [("a",), ("b",)], {"v": [1.0, 1.0]}, {"v": [1e154, 1.0]}
    catalog = StatsCatalog(("g",), ("v",), keys, [1, 1], mean, std, 2)
    fs = finest_from_catalog(catalog, [GroupQuery(("g",), ("v",))] * 2)
    with pytest.raises(FloatOverflow, match=r"\(g=a\) column 'v': the squared-CV cost"):
        multi_grouping_costs(fs)


def test_allocation_problem_validation():
    with pytest.raises(EmptyProblem):
        solve_fractional(np.array([]), 5)
    with pytest.raises(NonPositiveCost):
        solve_fractional(np.array([0.0]), 5)
    with pytest.raises(InvalidArgument):
        solve_fractional(np.array([1.0]), 0)


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


def _stratum(catalog, key, col="v"):
    """(n, mean, std) of the stratum ``key`` in the arrays of ``catalog``."""
    k = catalog.keys.index(key.values)
    return int(catalog.n[k]), float(catalog.mean[col][k]), float(catalog.std[col][k])


def _max_cv(catalog, plan):
    out = 0.0
    for key, n, size in zip(plan.keys, plan.populations, plan.sizes):
        _, mean, std = _stratum(catalog, key)
        out = max(out, predicted_cv(int(n), int(size), mean, std))
    return out


def exhaustive_minimax(catalog, budget):
    """Smallest max predicted CV over every composition of the budget into
    1 <= s_i <= n_i (positive-variance strata only)."""
    pops = catalog.n.tolist()
    table = []
    for n, mean, std in zip(pops, catalog.mean["v"].tolist(), catalog.std["v"].tolist()):
        table.append([None] + [predicted_cv(n, s, mean, std) for s in range(1, n + 1)])
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
        capped += bool(plan.capped.any())
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
        n, mean, std = _stratum(catalog, key)
        cvs.append(std / abs(mean) * math.sqrt((n - x) / (n * x)))
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
            _, mean, std = _stratum(catalog, key)
            out = max(out, predicted_cv(int(n), int(s), mean, std))
        return out

    assert max_cv(plan_inf) <= max_cv(plan_sq) + 1e-12


@pytest.mark.parametrize("budget", [0, -2])
def test_linf_a_budget_below_one_is_invalid(budget):
    catalog, _ = _catalog_from_groups([("a", 50, 10.0, 0.2), ("b", 50, 20.0, 0.3)])
    with pytest.raises(InvalidArgument, match=f"^budget must be >= 1, got {budget}$"):
        plan_linf(catalog, "v", budget)


def test_linf_all_constant_raises():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(schema, [("a", 3.0), ("a", 3.0), ("b", 7.0)])
    catalog = compute_catalog(rel, ["g"], ["v"])
    with pytest.raises(AllStrataConstant):
        plan_linf(catalog, "v", 3)


def _plan_fields(plan):
    """Every field of an allocation plan, its arrays as bytes."""
    arrays = (plan.populations, plan.fractional, plan.sizes, plan.capped, plan.costs)
    return (plan.method, plan.keys, plan.warnings, plan.extra, *(a.tobytes() for a in arrays))


def _fields_or_error(fn):
    try:
        return _plan_fields(fn())
    except Exception as exc:  # the same error, with the same message
        return type(exc), str(exc)


#: a stratum's population: small, so strata reach their cap, or near
#: 2**27, where n * (s - 1) passes 2**53 for a large s
_linf_n = st.one_of(st.integers(1, 30), st.integers(2**27 - 3, 2**27 + 3))
#: a few fixed means and stds, so that drawn strata often tie in all three
_linf_stratum = st.tuples(
    _linf_n,
    st.one_of(st.sampled_from([0.0, 1.0, -2.5, 10.0]), st.floats(0.01, 100.0)),
    st.one_of(st.sampled_from([0.0, 0.5, 3.0]), st.floats(0.01, 50.0)),
)


@given(
    st.lists(st.sampled_from([(7, 10.0, 3.0), (12, 1.0, 0.5)]) | _linf_stratum,
             min_size=1, max_size=12),
    st.integers(1, 80) | st.integers(1, 2**31),
    st.sampled_from(["error", "exclude"]),
)
@example([(5, 10.0, 3.0)] * 4, 9, "error")  # tied strata: the lowest index keeps its rows
@example([(2**27 + 1, 1.0, 0.5), (2**27, 1.0, 0.4)], 2**27 + 5, "error")
@example([(6, 1.0, 0.0), (4, 0.0, 1.0), (9, 2.0, 5.0), (3, 2.0, 5.0)], 7, "exclude")
def test_linf_matches_the_heap_finish(strata, budget, zero_mean):
    # the array finish of plan_linf against the heap of greedy removals it
    # replaced, bit for bit: sizes, fractional shares, max_cv and the rest
    n = [k for k, _, _ in strata]
    catalog = StatsCatalog(
        ("g",), ("v",), [(f"s{i}",) for i in range(len(strata))], n,
        {"v": [mu for _, mu, _ in strata]},
        {"v": [sd if k > 1 else 0.0 for k, _, sd in strata]}, sum(n),
    )
    assert _fields_or_error(lambda: plan_linf(catalog, "v", budget, zero_mean)) == (
        _fields_or_error(lambda: reference.plan_linf(catalog, "v", budget, zero_mean))
    )


@given(
    st.lists(st.sampled_from([(9, 1.0), (2**27 + 1, 0.25)])
             | st.tuples(_linf_n, st.sampled_from([0.25, 1.0]) | st.floats(0.01, 10.0)),
             min_size=1, max_size=10),
    st.data(),
)
def test_minimax_removals_match_the_heap(strata, data):
    # any warm start and any excess up to every removable unit (or 40), so
    # the excess often passes the stratum count and a stratum may give up
    # all but one of its rows; tied strata lose rows lowest index first
    n = np.array([k for k, _ in strata])
    cv = np.array([c for _, c in strata])
    start = np.array([data.draw(st.integers(1, 12) | st.integers(max(k - 5, 1), k))
                      if k > 12 else data.draw(st.integers(1, k)) for k in n.tolist()])
    excess = data.draw(st.integers(0, min(int((start - 1).sum()), 40)))
    c, m = cv.tolist(), n.tolist()
    want = reference.shed(start, np.ones(len(m)), excess,
                          lambda i, s: c[i] * math.sqrt((m[i] - s + 1) / (m[i] * (s - 1))))
    assert _minimax_sizes(start, n, cv, excess).tobytes() == want.tobytes()


def test_minimax_removals_divide_exactly_beyond_2_53():
    # stratum 1 has n * (s - 1) above 2**53, where dividing the integers as
    # floats gives a loss one ulp below the exactly rounded one; exactly
    # rounded, it ties stratum 0's loss, and the lower index loses the row
    n, start = np.array([10, 2**27 + 1]), np.array([10, 2**27 - 12])
    cv = np.array([2.644693872735953e-07, 1.0])
    m = (n[1] - start[1] + 1) / (n[1] * (start[1] - 1))  # as numpy divides
    assert cv[1] * math.sqrt(m) < cv[0] * math.sqrt(1 / 90) == (
        math.sqrt(int(n[1] - start[1] + 1) / int(n[1] * (start[1] - 1)))
    )
    assert _minimax_sizes(start, n, cv, 1).tolist() == [9, 2**27 - 12]


# ---------------------------------------------------------------------------
# individual stratification


def test_individual_single_query_matches_plain(student_rel):
    # one query reduces to the multi-column closed form (individual
    # stratification puts no population caps on the fractional shares)
    catalog = compute_catalog(student_rel, ["major"], ["age", "gpa"])
    q = GroupQuery(("major",), ("age", "gpa"))
    alloc_one = plan_individual([catalog], [q], 8)
    kept, costs, _ = cv_costs(catalog, ["age", "gpa"])
    closed = solve_fractional(costs, 8)
    assert alloc_one.query.tolist() == [0] * len(kept)
    assert alloc_one.keys == tuple(catalog.keys[k] for k in kept)
    assert alloc_one.populations.tolist() == catalog.n[kept].tolist()
    assert alloc_one.sizes.tolist() == pytest.approx(closed.tolist(), rel=1e-12)
    assert alloc_one.total == pytest.approx(8.0, rel=1e-12)


def test_individual_duplicate_query_halves_then_matches(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age"])
    q = GroupQuery(("major",), ("age",))
    one = plan_individual([catalog], [q], 8)
    two = plan_individual([catalog, catalog], [q, q], 8)
    r = len(catalog)
    assert two.query.tolist() == [0] * r + [1] * r
    assert two.keys == one.keys * 2
    # identical queries split the budget evenly; each query's group gets
    # half of the single-query share
    assert two.sizes[:r] == pytest.approx(one.sizes / 2, rel=1e-12)
    assert two.sizes[r:] == pytest.approx(two.sizes[:r], rel=1e-12)


def test_individual_disjoint_groupings_match_grid_oracle(student_rel):
    cat_major = compute_catalog(student_rel, ["major"], ["age"])
    cat_college = compute_catalog(student_rel, ["college"], ["gpa"])
    queries = [GroupQuery(("major",), ("age",)), GroupQuery(("college",), ("gpa",))]
    result = plan_individual([cat_major, cat_college], queries, 12)
    # direct objective: sum over pairs of score / s; grid over the simplex
    scores = []
    for i, values in zip(result.query.tolist(), result.keys):
        key = GroupKey(queries[i].attrs, values)
        _, mean, std = _stratum((cat_major, cat_college)[i], key, ("age", "gpa")[i])
        scores.append((std / abs(mean)) ** 2)
    ours = sum(sc / s for sc, s in zip(scores, result.sizes.tolist()))
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
    # p_r at least the max per-query rate
    rates = {
        (i, values): min(1.0, s / n)
        for i, values, n, s in zip(
            result.query.tolist(), result.keys, result.populations.tolist(), result.sizes.tolist()
        )
    }
    for i, key_fn in ((0, lambda r: (r[4],)), (1, lambda r: (r[5],))):
        for row_id, row in enumerate(STUDENT_ROWS):
            assert p[row_id] >= rates[(i, key_fn(row))] - 1e-12


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


def _group_cvs(members, means):
    """``predicted_group_cvs`` of members (group, n, s, sigma), in member
    order, and the oracle's CV of each group."""
    group, n, s, sigma = zip(*members)
    got = predicted_group_cvs(
        np.array(n, dtype=np.int64),
        np.array(s, dtype=np.int64),
        np.array(sigma, dtype=np.float64),
        np.array(group, dtype=np.intp),
        np.array(means, dtype=np.float64),
    )
    parts = [[m[1:] for m in members if m[0] == g] for g in range(len(means))]
    return got, [predicted_group_cv(p, mu) for p, mu in zip(parts, means)]


def test_predicted_group_cvs_edge_groups():
    members = [
        (0, 10, 0, 1.0),  # s = 0 with sigma > 0: inf
        (1, 7, 0, 0.0),  # sigma == 0 members add nothing, drawn or not
        (0, 10, 5, 1.0),
        (1, 12, 3, 0.0),
        (2, 40, 4, 2.5),  # a single-member group
        (3, 9, 2, 1.5),  # a zero-mean group
        (1, 30, 6, 0.75),
        (3, 9, 0, 1.0),  # zero mean wins over inf
    ]
    got, want = _group_cvs(members, [5.0, -3.0, 11.0, 0.0])
    assert got == want
    assert got[0] == math.inf and got[3] is None
    assert got[2] == predicted_group_cv([(40, 4, 2.5)], 11.0)
    assert math.isfinite(got[1]) and got[1] > 0.0


#: one member stratum (n, s, sigma), sigma often exactly 0
MEMBER = st.tuples(
    st.integers(1, 500), st.integers(0, 500), st.one_of(st.just(0.0), st.floats(1e-6, 1e6))
)
MEAN = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))


@given(
    st.lists(st.tuples(MEAN, st.lists(MEMBER, min_size=1, max_size=6)), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_predicted_group_cvs_match_the_scalar(groups, rnd):
    """The vectorized kernel equals the scalar oracle group by group, by ==
    (inf and None included), whatever the order its members come in."""
    members = [
        (g, n, min(s, n), sigma) for g, (_, parts) in enumerate(groups) for n, s, sigma in parts
    ]
    rnd.shuffle(members)
    got, want = _group_cvs(members, [mean for mean, _ in groups])
    assert got == want


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
    assert back.capped.dtype == bool
    assert back.capped.tolist() == plan.capped.tolist() == [False, True, False, False]
    # a stratum without "capped" is not capped
    doc = json.loads(plan_to_json(plan))
    del doc["strata"][1]["capped"]
    assert not plan_from_json(json.dumps(doc)).capped.any()


def test_individual_json_round_trip(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age"])
    q = GroupQuery(("major",), ("age",))
    result = plan_individual([catalog], [q], 8)
    back = plan_from_json(individual_to_json(result))
    assert back.queries == result.queries
    assert back.budget == result.budget
    assert back.keys == result.keys
    for column in ("query", "populations", "sizes"):
        got, want = getattr(back, column), getattr(result, column)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


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
    """Per-row rates with one partition of the rows per query and the
    allocation's rows read into dicts keyed by (query, GroupKey)."""
    sizes, populations = {}, {}
    for i, values, n, s in zip(
        alloc.query.tolist(), alloc.keys, alloc.populations.tolist(), alloc.sizes.tolist()
    ):
        pair = (i, GroupKey(alloc.queries[i].attrs, values))
        sizes[pair], populations[pair] = s, n
    per_query = []
    for i, q in enumerate(alloc.queries):
        rates = np.zeros(rel.n_rows)
        for key, rows in partition(rel, q.attrs).items():
            n = populations.get((i, key), 0)
            rate = min(1.0, sizes[(i, key)] / n) if n else 0.0
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
    # groups absent from the allocation take rate 0; inflated shares clamp to 1
    rng = np.random.default_rng(8)
    rel = _random_relation(rng, 500, {"a": 5, "b": 4})
    queries = (GroupQuery(("a",), ("x",)), GroupQuery(("b", "a"), ("x",)))
    catalogs = [compute_catalog(rel, q.attrs, ["x"]) for q in queries]
    full = plan_individual(catalogs, queries, 90)
    kept = np.arange(len(full.keys)) % 3 > 0
    alloc = PerQueryAllocation(
        queries,
        full.query[kept],
        tuple(k for k, keep in zip(full.keys, kept) if keep),
        full.populations[kept],
        3.0 * full.sizes[kept],
        90,
    )
    got = inclusion_rates(rel, alloc)
    assert got.tobytes() == reference_inclusion_rates(rel, alloc).tobytes()
    assert (got == 1.0).any()

    empty = Relation((ColumnSchema("a", CATEGORICAL),), {"a": []})
    none = np.zeros(0, dtype=np.int64)
    alloc = PerQueryAllocation(
        (GroupQuery((), ()), GroupQuery(("a",), ())), none, (), none, np.zeros(0), 1
    )
    assert inclusion_rates(empty, alloc).tobytes() == (
        reference_inclusion_rates(empty, alloc).tobytes()
    )


#: keys with a comma, a bar, empty text and non-ASCII text
_RATE_KEYS = ("a", "b,c", "x|y", "", "Zürich", "東京")


@given(
    st.lists(st.tuples(*[st.sampled_from(_RATE_KEYS)] * 2, st.sampled_from(("p", "q"))),
             min_size=1, max_size=40),
    st.permutations(("a", "b", "c")),
    st.data(),
)
def test_inclusion_rates_match_the_key_relation_join(rows, attrs, data):
    # the rates joined on the relation's codes against the join over the
    # fine strata's value tuples re-encoded as a key relation, byte for
    # byte: a cube with the empty grouping, its plan's rows reordered,
    # some dropped (their groups take rate 0) and shares scaled past n
    schema = (*(ColumnSchema(a, CATEGORICAL) for a in "abc"), ColumnSchema("x", NUMERIC))
    rel = Relation.from_records(schema, [(*r, float(i % 7 + 1)) for i, r in enumerate(rows)])
    queries = cube_queries(attrs[: data.draw(st.integers(1, 3))], ("x",))
    catalogs = [compute_catalog(rel, q.attrs, ["x"]) for q in queries]
    full = plan_individual(catalogs, queries, data.draw(st.integers(1, 60)))
    order = data.draw(st.permutations(range(len(full.keys))))
    order = [r for r in order if data.draw(st.booleans())] if data.draw(st.booleans()) else order
    alloc = PerQueryAllocation(
        queries, full.query[order], tuple(full.keys[r] for r in order), full.populations[order],
        data.draw(st.sampled_from([1.0, 4.0])) * full.sizes[order], full.budget,
    )
    got = inclusion_rates(rel, alloc)
    assert got.tobytes() == reference.inclusion_rates(rel, alloc).tobytes()
    assert got.tobytes() == reference_inclusion_rates(rel, alloc).tobytes()


def test_unknown_zero_mean_policy_raises_invalid_argument(student_rel):
    # no stratum has a zero mean, so only the policy check can raise
    catalog = compute_catalog(student_rel, ["major", "college"], ["age", "gpa"])
    queries = [GroupQuery(("major",), ("gpa",)), GroupQuery((), ("age",))]
    fs = finest_from_catalog(catalog, queries)
    pooled = [pool_catalog(catalog, q.attrs) for q in queries]
    calls = [
        lambda zm: cv_costs(catalog, ["age"], zero_mean=zm),
        lambda zm: plan_l2(catalog, ["age"], 6, zero_mean=zm),
        lambda zm: plan_linf(catalog, "age", 6, zm),
        lambda zm: multi_grouping_costs(fs, zero_mean=zm),
        lambda zm: plan_multi_groupby(fs, 6, zero_mean=zm),
        lambda zm: plan_individual(pooled, queries, 6, zero_mean=zm),
    ]
    for call in calls:
        for zero_mean in ("error", "exclude"):
            call(zero_mean)
        for zero_mean in ("excldue", "Error", ""):
            with pytest.raises(InvalidArgument, match="zero_mean"):
                call(zero_mean)
