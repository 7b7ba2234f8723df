import itertools
import math

import numpy as np
import pytest

from gbsample.alloc import plan_l2
from gbsample.baselines import alloc_senate
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, Relation
from gbsample.errors import CorruptSampleFile, PlanMismatch, RateOutOfRange, SchemaMismatch
from gbsample.sampler import draw_poisson, draw_stratified, load_sample, save_sample
from gbsample.stats import compute_catalog

# chi-square critical value, p = 0.001, 5 degrees of freedom
CHI2_CRIT_5DF = 20.515


def _simple_rel(groups):
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rows = []
    for name, values in groups:
        rows.extend((name, float(v)) for v in values)
    return Relation.from_records(schema, rows)


def test_exhaustive_sample_is_the_relation(fix_a_rel):
    catalog = compute_catalog(fix_a_rel, ["grp"], ["v"])
    plan = plan_l2(catalog, ["v"], fix_a_rel.n_rows)
    sample = draw_stratified(fix_a_rel, plan, seed=3)
    assert sample.total_rows == fix_a_rel.n_rows
    got = sorted(r for s in sample.strata for r in s.row_ids)
    assert got == list(range(fix_a_rel.n_rows))


def test_zero_size_stratum_flagged_missing():
    rel = _simple_rel([("a", [1, 2, 3, 4]), ("b", [5, 6, 7, 8])])
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 8)
    plan.sizes[0] = 0
    plan.sizes[1] = 4
    sample = draw_stratified(rel, plan, seed=1)
    assert sample.strata[0].missing
    assert sample.strata[0].rows == []
    assert not sample.strata[1].missing


def test_plan_mismatch():
    rel = _simple_rel([("a", [1, 2]), ("b", [3, 4])])
    other = _simple_rel([("a", [1, 2]), ("c", [3, 4])])
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 4)
    with pytest.raises(PlanMismatch):
        draw_stratified(other, plan, seed=0)


def test_oversized_allocation_rejected():
    rel = _simple_rel([("a", [1, 2]), ("b", [3, 4])])
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 4)
    plan.sizes[0] = 3
    with pytest.raises(PlanMismatch):
        draw_stratified(rel, plan, seed=0)


def test_determinism_same_seed_same_bytes(tmp_path, fix_a_rel):
    catalog = compute_catalog(fix_a_rel, ["grp"], ["v"])
    plan = plan_l2(catalog, ["v"], 8)
    p1, p2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    save_sample(draw_stratified(fix_a_rel, plan, seed=42), p1)
    save_sample(draw_stratified(fix_a_rel, plan, seed=42), p2)
    assert p1.read_bytes() == p2.read_bytes()
    p3 = tmp_path / "s3.txt"
    save_sample(draw_stratified(fix_a_rel, plan, seed=43), p3)
    assert p1.read_bytes() != p3.read_bytes()


def test_budget_respected(fix_a_rel):
    catalog = compute_catalog(fix_a_rel, ["grp"], ["v"])
    for budget in (2, 5, 9, 16):
        plan = plan_l2(catalog, ["v"], budget)
        sample = draw_stratified(fix_a_rel, plan, seed=0)
        assert sample.total_rows == min(budget, fix_a_rel.n_rows)


def test_within_stratum_subsets_uniform():
    """All 6 two-element subsets of a 4-row stratum appear equally often
    across 12000 seeded draws (chi-square, p > 0.001)."""
    rel = _simple_rel([("a", [10, 20, 30, 40])])
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 2)
    assert plan.sizes.tolist() == [2]
    counts = {c: 0 for c in itertools.combinations(range(4), 2)}
    trials = 12000
    for seed in range(trials):
        sample = draw_stratified(rel, plan, seed=seed)
        counts[tuple(sample.strata[0].row_ids)] += 1
    expected = trials / 6
    chi2 = sum((got - expected) ** 2 / expected for got in counts.values())
    assert chi2 < CHI2_CRIT_5DF


def test_poisson_extremes():
    rel = _simple_rel([("a", range(10)), ("b", range(10))])
    full = draw_poisson(rel, np.ones(20), seed=5)
    assert full.total_rows == 20
    assert full.weights() == [1.0] * 20
    empty = draw_poisson(rel, np.zeros(20), seed=5)
    assert empty.total_rows == 0


def test_poisson_size_within_binomial_bounds():
    n = 10000
    rel = _simple_rel([("a", range(n))])
    p = np.full(n, 0.3)
    sample = draw_poisson(rel, p, seed=11)
    sd = math.sqrt(n * 0.3 * 0.7)
    assert abs(sample.total_rows - 3000) <= 4 * sd
    assert sample.expected_size == pytest.approx(3000.0)


def test_poisson_rate_validation():
    rel = _simple_rel([("a", [1.0])])
    with pytest.raises(RateOutOfRange):
        draw_poisson(rel, np.array([1.5]), seed=0)
    with pytest.raises(RateOutOfRange):
        draw_poisson(rel, np.array([0.5, 0.5]), seed=0)


def test_stratified_round_trip(tmp_path, fix_a_rel):
    catalog = compute_catalog(fix_a_rel, ["grp"], ["v"])
    plan = plan_l2(catalog, ["v"], 8)
    sample = draw_stratified(fix_a_rel, plan, seed=9)
    path = tmp_path / "sample.txt"
    save_sample(sample, path)
    back = load_sample(path)
    assert back.schema == sample.schema
    assert back.group_attrs == sample.group_attrs
    assert back.method == sample.method
    assert back.seed == sample.seed
    for a, b in zip(back.strata, sample.strata):
        assert (a.key, a.n, a.size, a.row_ids, a.rows) == (
            b.key,
            b.n,
            b.size,
            b.row_ids,
            b.rows,
        )


def test_poisson_round_trip(tmp_path):
    rel = _simple_rel([("a", [1.5, 2.5, 3.5]), ("b", [4.5, 5.5])])
    sample = draw_poisson(rel, np.array([0.9, 0.4, 0.7, 1.0, 0.35]), seed=2)
    path = tmp_path / "poisson.txt"
    save_sample(sample, path)
    back = load_sample(path)
    assert back.row_ids == sample.row_ids
    assert back.rows == sample.rows
    assert back.p == sample.p
    assert back.expected_size == sample.expected_size


def test_load_rejects_poisson_rates_outside_unit_interval(tmp_path):
    rel = _simple_rel([("a", [1.5, 2.5, 3.5]), ("b", [4.5, 5.5])])
    path = tmp_path / "poisson.txt"
    save_sample(draw_poisson(rel, np.ones(5), seed=2), path)
    header, columns, first, *rest = path.read_text(encoding="utf-8").splitlines()
    row_id, _, record = first.split(",", 2)

    def write_rate(rate):
        line = ",".join([row_id, rate, record])
        text = "\n".join([header, columns, line, *rest]) + "\n"
        path.write_text(text, encoding="utf-8")

    for bad in ("0", "0.0", "-0.25", "1.0000001", "2", "nan", "inf"):
        write_rate(bad)
        with pytest.raises(CorruptSampleFile, match="outside"):
            load_sample(path)
    for good in ("1", "1e-300", "0.5"):
        write_rate(good)
        assert load_sample(path).p[0] == float(good)


def test_load_schema_mismatch(tmp_path, fix_a_rel):
    catalog = compute_catalog(fix_a_rel, ["grp"], ["v"])
    plan = plan_l2(catalog, ["v"], 4)
    path = tmp_path / "sample.txt"
    save_sample(draw_stratified(fix_a_rel, plan, seed=1), path)
    other_schema = (ColumnSchema("grp", CATEGORICAL), ColumnSchema("w", NUMERIC))
    with pytest.raises(SchemaMismatch):
        load_sample(path, expect_schema=other_schema)


def test_load_truncated_file(tmp_path, fix_a_rel):
    catalog = compute_catalog(fix_a_rel, ["grp"], ["v"])
    plan = plan_l2(catalog, ["v"], 8)
    path = tmp_path / "sample.txt"
    save_sample(draw_stratified(fix_a_rel, plan, seed=1), path)
    text = path.read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    with pytest.raises(CorruptSampleFile):
        load_sample(path)


def test_load_garbage_header(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not-json\nstratum,row_id\n", encoding="utf-8")
    with pytest.raises(CorruptSampleFile):
        load_sample(path)


def test_per_stratum_substreams_are_independent(fix_a_rel):
    """Changing one stratum's allocation leaves another stratum's draw
    untouched (each stratum uses its own (seed, index) substream)."""
    catalog = compute_catalog(fix_a_rel, ["grp"], ["v"])
    plan_a = plan_l2(catalog, ["v"], 8)
    plan_b = plan_l2(catalog, ["v"], 8)
    plan_b.sizes[1] = min(int(plan_b.sizes[1]) + 2, int(plan_b.populations[1]))
    s_a = draw_stratified(fix_a_rel, plan_a, seed=77)
    s_b = draw_stratified(fix_a_rel, plan_b, seed=77)
    assert s_a.strata[0].row_ids == s_b.strata[0].row_ids
