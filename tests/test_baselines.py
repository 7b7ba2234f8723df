import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gbsample.alloc import cv_costs, l2_objective, plan_l2
from gbsample.baselines import _round, alloc_congress, alloc_senate, alloc_uniform
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, Relation
from gbsample.errors import InvalidArgument
from gbsample.stats import StatsCatalog, compute_catalog

from reference import senate_shares


def _catalog(sizes, cvs=None, mean=100.0):
    """Catalog with given stratum sizes; optional per-stratum CVs."""
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rows = []
    for i, n in enumerate(sizes):
        cv = 0.1 if cvs is None else cvs[i]
        d = cv * mean * math.sqrt((n - 1) / n) if n > 1 else 0.0
        for j in range(n):
            rows.append((f"s{i}", mean + (d if j % 2 else -d)))
        if n % 2:
            rows[-1] = (f"s{i}", mean)
    rel = Relation.from_records(schema, rows)
    return compute_catalog(rel, ["g"], ["v"])


SIX = (15, 50, 50, 45, 60, 180)


def test_uniform_equal_sizes_split_evenly():
    plan = alloc_uniform(_catalog((40, 40, 40, 40)), 20)
    assert plan.sizes.tolist() == [5, 5, 5, 5]


def test_uniform_proportional_largest_remainder():
    plan = alloc_uniform(_catalog(SIX), 200)
    # shares 200 * n / 400 = (7.5, 25, 25, 22.5, 30, 90); floors sum to 199
    # and the leftover goes to the first of the tied largest remainders
    assert plan.sizes.tolist() == [8, 25, 25, 22, 30, 90]
    assert plan.total_size == 200


def test_uniform_tiny_group_rounds_to_zero():
    # n/N = 4/2004 < 1/(2M) for M = 100
    plan = alloc_uniform(_catalog((4, 2000)), 100)
    assert plan.sizes.tolist() == [0, 100]
    assert any("MissingGroups" in w for w in plan.warnings)


def test_senate_divisible_budget():
    plan = alloc_senate(_catalog((50, 50, 50, 50)), 40)
    assert plan.sizes.tolist() == [10, 10, 10, 10]


def test_senate_ignores_spread():
    # equal means and sizes, very different spreads: senate still splits
    # evenly, which is the weakness the CV-driven allocator fixes
    catalog = _catalog((60, 60), cvs=(0.9, 0.01))
    plan = alloc_senate(catalog, 30)
    assert plan.sizes.tolist() == [15, 15]
    cv_plan = plan_l2(catalog, ["v"], 30)
    assert cv_plan.sizes[0] > cv_plan.sizes[1]


def test_senate_cap_redistribution_hand_check():
    # r=3, one stratum of 2 rows: share 4 exceeds it, the surplus splits
    # equally between the other two
    plan = alloc_senate(_catalog((2, 50, 50)), 12)
    assert plan.sizes.tolist() == [2, 5, 5]
    assert plan.fractional.tolist() == [2.0, 5.0, 5.0]


def test_congress_equal_sizes_matches_senate_and_uniform():
    catalog = _catalog((30, 30, 30))
    budget = 15
    assert (
        alloc_congress(catalog, budget).sizes.tolist()
        == alloc_senate(catalog, budget).sizes.tolist()
        == alloc_uniform(catalog, budget).sizes.tolist()
        == [5, 5, 5]
    )


def test_congress_single_stratum():
    assert alloc_congress(_catalog((30,)), 12).sizes.tolist() == [12]
    assert alloc_congress(_catalog((8,)), 12).sizes.tolist() == [8]


def test_congress_formula_oracle_six_strata():
    plan = alloc_congress(_catalog(SIX), 200)
    caps = np.array(SIX, dtype=float)
    house = 200 * caps / caps.sum()
    senate = senate_shares(caps.astype(np.int64), 200)
    raw = np.maximum(house, senate)
    expect = raw * 200 / raw.sum()
    assert plan.fractional == pytest.approx(expect)
    assert plan.total_size == 200
    # the max-hybrid never starves a stratum below both component shares
    floors = np.minimum(house, senate)
    assert (plan.fractional >= np.minimum(floors, expect) - 1e-9).all()


def test_all_baselines_respect_budget_and_caps():
    for sizes, budget in (((3, 9, 27), 12), ((5, 5, 5), 30), (SIX, 123)):
        catalog = _catalog(sizes)
        for allocator in (alloc_uniform, alloc_senate, alloc_congress):
            plan = allocator(catalog, budget)
            assert plan.total_size == min(budget, sum(sizes))
            assert (plan.sizes <= plan.populations).all()


@pytest.mark.parametrize("budget", [29, 10**17])
def test_congress_shares_stay_within_the_populations(budget):
    # rescaling to the budget rounded the shares of strata 1, 2, 4 and 5
    # (at 29) and of stratum 5 (at 10**17) to just above their populations
    plan = alloc_congress(_catalog(range(1, 8)), budget)
    assert (plan.fractional <= plan.populations).all()
    assert plan.fractional.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


def test_cv_plan_dominates_baselines_on_l2_objective():
    catalog = _catalog(
        (20, 60, 120, 40, 200), cvs=(0.9, 0.05, 0.4, 0.02, 0.15)
    )
    budget = 60
    _, costs, _ = cv_costs(catalog, ["v"])
    best = plan_l2(catalog, ["v"], budget)
    best_obj = l2_objective(costs, best.sizes)
    for allocator in (alloc_uniform, alloc_senate, alloc_congress):
        other = allocator(catalog, budget)
        assert best_obj <= l2_objective(costs, other.sizes) + 1e-12


def _counts_catalog(caps):
    """A catalog with the populations ``caps``, which may hold zeros; the
    baselines read nothing else."""
    r = len(caps)
    return StatsCatalog(
        ("g",), ("v",), [(f"s{i}",) for i in range(r)], caps,
        {"v": [1.0] * r}, {"v": [0.0] * r}, int(sum(caps)),
    )


def _oracle_plan(fractional, caps, budget):
    """The fractional sizes, integer sizes, capped flags and warnings of a
    baseline plan with the given fractional sizes."""
    sizes, warnings = _round(fractional, caps, budget)
    return fractional.tobytes(), sizes.tolist(), (fractional >= caps).tolist(), warnings


def _plan_parts(plan):
    return plan.fractional.tobytes(), plan.sizes.tolist(), plan.capped.tolist(), plan.warnings


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=10).filter(lambda caps: sum(caps) > 0),
    st.integers(1, 450),
)
@example([5, 0, 7], 12)
@example([5, 0, 7], 100)
@example([9], 4)
@example([9], 9)
@example([21], 303)  # the rescale rounds the one share above its cap
def test_senate_and_congress_match_the_water_filling_oracle(caps, budget):
    # the equal split is resolve_caps at unit costs: byte for byte the
    # reference loop, with zero caps, one stratum and budgets of every row
    # or more
    catalog = _counts_catalog(caps)
    caps = np.array(caps, dtype=np.int64)
    senate = senate_shares(caps, budget)
    assert _plan_parts(alloc_senate(catalog, budget)) == _oracle_plan(senate, caps, budget)
    raw = np.maximum(budget * caps / caps.sum(), senate)
    congress = np.minimum(raw * (min(budget, int(caps.sum())) / raw.sum()), caps)
    assert _plan_parts(alloc_congress(catalog, budget)) == _oracle_plan(congress, caps, budget)


@pytest.mark.parametrize("allocator", [alloc_uniform, alloc_senate, alloc_congress])
@pytest.mark.parametrize("budget", [0, -3])
def test_a_budget_below_one_is_invalid(allocator, budget):
    with pytest.raises(InvalidArgument, match=f"^budget must be >= 1, got {budget}$"):
        allocator(_catalog((3, 2, 1)), budget)


@pytest.mark.parametrize("allocator", [alloc_uniform, alloc_senate, alloc_congress])
@pytest.mark.parametrize("budget", [2**63 - 1, 2**62, 2**53 + 1])
def test_a_budget_near_the_int64_limit_takes_every_stratum_whole(allocator, budget):
    # budget * caps would wrap in int64; the shares are computed in float64
    plan = allocator(_counts_catalog([1, 2, 5]), budget)
    assert (plan.fractional >= 0).all() and (plan.fractional <= plan.populations).all()
    assert plan.capped.tolist() == [True, True, True]
    assert plan.sizes.tolist() == [1, 2, 5] and plan.warnings == []


@pytest.mark.parametrize("budget", [1, 7, 2**31 + 5, 2**40 + 3, 2**45])
def test_float_shares_keep_the_bits_of_the_integer_product(budget):
    # below 2**53 a float64 budget times a cap rounds as the exact product does
    caps = np.array([1, 3, 7, 2**20 + 1, 2**45 + 3], dtype=np.int64)
    plan = alloc_uniform(_counts_catalog(caps.tolist()), budget)
    exact = np.array([budget * int(c) for c in caps], dtype=np.float64) / caps.sum()
    assert plan.fractional.tobytes() == np.minimum(exact, caps).tobytes()
