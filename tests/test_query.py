import csv
import io
import math

import numpy as np
import pytest

from gbsample.alloc import plan_l2
from gbsample.baselines import alloc_senate, alloc_uniform
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, Relation
from gbsample.errors import GbsampleError, IncompatibleGrouping, InvalidArgument, UnknownColumn
from gbsample.query import (
    AVG,
    COUNT,
    SUM,
    Atom,
    Predicate,
    QueryRequest,
    estimate,
    estimate_avg,
    estimate_count,
    estimate_poisson,
    estimate_sum,
    evaluate,
    exact_answer,
    report_to_csv,
    report_to_json,
)
from gbsample.sampler import draw_poisson, draw_stratified
from gbsample.stats import compute_catalog



def _full_sample(rel, attrs):
    catalog = compute_catalog(rel, list(attrs), [])
    plan = alloc_senate(catalog, rel.n_rows)
    return draw_stratified(rel, plan, seed=0)


def _two_group_rel():
    schema = (
        ColumnSchema("g", CATEGORICAL),
        ColumnSchema("h", CATEGORICAL),
        ColumnSchema("v", NUMERIC),
    )
    rng = np.random.default_rng(5)
    rows = []
    for g in "abc":
        for h in "xy":
            for v in rng.normal(10.0 * (ord(g) - 96), 2.0, size=40):
                rows.append((g, h, float(v)))
    return Relation.from_records(schema, rows)


# ---------------------------------------------------------------------------
# exact answers


def test_exact_avg_age_by_major(student_rel):
    got = exact_answer(student_rel, ["major"], "age", AVG)
    expect = {"CS": 23.5, "Math": 26.0, "EE": 22.0, "ME": 26.5}
    assert {k.values[0]: v for k, v in got.items()} == pytest.approx(expect)


def test_exact_empty_predicate(student_rel):
    nothing = Predicate((Atom("age", ">", 1000.0),))
    assert exact_answer(student_rel, ["major"], "age", AVG, nothing) == {}


def test_exact_single_row_group(student_rel):
    one = Predicate((Atom("id", "=", "3"),))
    got = exact_answer(student_rel, ["major"], "gpa", AVG, one)
    assert {k.values[0]: v for k, v in got.items()} == {"Math": 3.8}


def test_exact_sum_count(student_rel):
    sums = exact_answer(student_rel, ["college"], "age", SUM)
    counts = exact_answer(student_rel, ["college"], None, COUNT)
    assert {k.values[0]: v for k, v in sums.items()} == {
        "Science": 25.0 + 22 + 24 + 28,
        "Engineering": 21.0 + 23 + 27 + 26,
    }
    assert set(counts.values()) == {4.0}


# ---------------------------------------------------------------------------
# full-sample exactness


def test_full_sample_same_grouping_bit_for_bit():
    rel = _two_group_rel()
    sample = _full_sample(rel, ("g", "h"))
    exact = exact_answer(rel, ["g", "h"], "v", AVG)
    for est in estimate_avg(sample, ["g", "h"], "v"):
        assert est.value == exact[est.group]  # identical float, same sum order
    exact_sum = exact_answer(rel, ["g", "h"], "v", SUM)
    for est in estimate_sum(sample, ["g", "h"], "v"):
        assert est.value == exact_sum[est.group]
    exact_count = exact_answer(rel, ["g", "h"], None, COUNT)
    for est in estimate_count(sample, ["g", "h"]):
        assert est.value == exact_count[est.group]


def test_full_sample_coarser_grouping_exact_within_fp():
    rel = _two_group_rel()
    sample = _full_sample(rel, ("g", "h"))
    exact = exact_answer(rel, ["g"], "v", AVG)
    for est in estimate_avg(sample, ["g"], "v"):
        assert est.value == pytest.approx(exact[est.group], rel=1e-12)


def test_same_grouping_estimate_is_stratum_sample_mean():
    rel = _two_group_rel()
    catalog = compute_catalog(rel, ["g"], ["v"])
    plan = plan_l2(catalog, ["v"], 30)
    sample = draw_stratified(rel, plan, seed=7)
    by_group = {e.group: e.value for e in estimate_avg(sample, ["g"], "v")}
    for stratum in sample.strata:
        vals = [r[2] for r in stratum.rows]
        assert by_group[stratum.key] == pytest.approx(sum(vals) / len(vals), rel=1e-12)


# ---------------------------------------------------------------------------
# expansion arithmetic


def test_count_expansion_factor():
    # stratum of 100 rows sampled at 10, 4 sampled rows match: estimate 40
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rows = [("a", float(i)) for i in range(100)]
    rel = Relation.from_records(schema, rows)
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 10)
    sample = draw_stratified(rel, plan, seed=21)
    vals = sorted(r[1] for r in sample.strata[0].rows)
    threshold = vals[3]  # keep exactly 4 sampled rows
    pred = Predicate((Atom("v", "<=", threshold),))
    (est,) = estimate_count(sample, ["g"], pred)
    assert est.value == pytest.approx(40.0)
    assert est.support == 4


def test_avg_is_sum_over_count_exactly():
    rel = _two_group_rel()
    plan = plan_l2(compute_catalog(rel, ["g", "h"], ["v"]), ["v"], 60)
    sample = draw_stratified(rel, plan, seed=3)
    pred = Predicate((Atom("v", ">", 15.0),))
    avg = {e.group: e for e in estimate_avg(sample, ["g"], "v", pred)}
    tot = {e.group: e for e in estimate_sum(sample, ["g"], "v", pred)}
    cnt = {e.group: e for e in estimate_count(sample, ["g"], pred)}
    for key, est in avg.items():
        if est.missing:
            continue
        assert est.value == tot[key].value / cnt[key].value  # identical floats


def test_unbiasedness_monte_carlo_light():
    rel = _two_group_rel()
    catalog = compute_catalog(rel, ["g"], ["v"])
    plan = plan_l2(catalog, ["v"], 30)
    reps = 400
    sums = {}
    for seed in range(reps):
        sample = draw_stratified(rel, plan, seed=seed)
        for est in estimate_avg(sample, ["g"], "v"):
            sums.setdefault(est.group, []).append(est.value)
    exact = exact_answer(rel, ["g"], "v", AVG)
    for key, values in sums.items():
        arr = np.asarray(values)
        se = arr.std(ddof=1) / math.sqrt(reps)
        assert abs(arr.mean() - exact[key]) <= 3 * se + 1e-9


def test_grouping_must_be_subset_of_stratification():
    rel = _two_group_rel()
    sample = _full_sample(rel, ("g",))
    with pytest.raises(IncompatibleGrouping):
        estimate_avg(sample, ["g", "h"], "v")
    with pytest.raises(IncompatibleGrouping):
        estimate_avg(sample, ["h"], "v")


def test_unknown_column_rejected():
    rel = _two_group_rel()
    sample = _full_sample(rel, ("g",))
    with pytest.raises(UnknownColumn):
        estimate_avg(sample, ["g"], "nope")
    with pytest.raises(UnknownColumn):
        estimate_avg(sample, ["g"], "g")  # categorical


def test_missing_group_semantics():
    rel = _two_group_rel()
    catalog = compute_catalog(rel, ["g"], ["v"])
    plan = alloc_senate(catalog, 9)
    sample = draw_stratified(rel, plan, seed=2)
    nothing = Predicate((Atom("v", ">", 1e9),))
    for est in estimate_avg(sample, ["g"], "v", nothing):
        assert est.missing and est.value is None
    for est in estimate_sum(sample, ["g"], "v", nothing):
        assert not est.missing and est.value == 0.0
    for est in estimate_count(sample, ["g"], nothing):
        assert not est.missing and est.value == 0.0


# ---------------------------------------------------------------------------
# Poisson estimation


def test_poisson_full_inclusion_exact(student_rel):
    sample = draw_poisson(student_rel, np.ones(8), seed=1)
    got = {e.group: e.value for e in estimate_poisson(sample, ["major"], AVG, "age")}
    exact = exact_answer(student_rel, ["major"], "age", AVG)
    for key, value in exact.items():
        assert got[key] == pytest.approx(value)


def test_poisson_count_weights():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(schema, [("a", 1.0), ("a", 2.0), ("b", 3.0)])
    sample = draw_poisson(rel, np.array([0.5, 0.5, 1.0]), seed=4)
    for est in estimate_poisson(sample, ["g"], COUNT):
        if est.group.values == ("b",):
            assert est.value == pytest.approx(1.0)
        else:
            assert est.value == pytest.approx(2.0 * est.support)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_full_sample_zero_errors(student_rel):
    sample = _full_sample(student_rel, ("major",))
    report = evaluate(student_rel, sample, QueryRequest(("major",), AVG, "age"))
    assert report.summary["max"] == 0.0
    assert report.cv_l2 == 0.0
    assert report.missing_groups == 0


def test_evaluate_cv_norms_relative_spread_pair():
    # two strata with equal absolute spread but means 1000 and 100: the
    # predicted CV vector is (0.01, 0.1) and its max is 0.1
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(
        schema,
        [("big", 990.0), ("big", 1010.0), ("small", 90.0), ("small", 110.0)],
    )
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 2)
    sample = draw_stratified(rel, plan, seed=0)
    report = evaluate(rel, sample, QueryRequest(("g",), AVG, "v"))
    cvs = sorted(s.predicted_cv for s in report.scores)
    assert cvs == pytest.approx([0.01, 0.1], rel=1e-12)
    assert report.cv_linf == pytest.approx(0.1, rel=1e-12)
    assert report.cv_l2 == pytest.approx(math.hypot(0.01, 0.1), rel=1e-12)


def test_evaluate_missing_group_scores_one():
    rel = _two_group_rel()
    catalog = compute_catalog(rel, ["g"], ["v"])
    plan = alloc_uniform(catalog, 3)
    plan.sizes[:] = [3, 0, 0]
    sample = draw_stratified(rel, plan, seed=1)
    report = evaluate(rel, sample, QueryRequest(("g",), AVG, "v"))
    assert report.missing_groups == 2
    ones = [s for s in report.scores if s.missing]
    assert len(ones) == 2 and all(s.rel_error == 1.0 for s in ones)
    excl = evaluate(
        rel, sample, QueryRequest(("g",), AVG, "v"), missing_policy="exclude"
    )
    assert excl.missing_groups == 2
    assert all(not s.missing for s in excl.scores)


def test_evaluate_zero_truth_excluded():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(
        schema, [("a", 5.0), ("a", -5.0), ("b", 2.0), ("b", 4.0)]
    )
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 4)
    sample = draw_stratified(rel, plan, seed=0)
    report = evaluate(rel, sample, QueryRequest(("g",), AVG, "v"))
    assert any("ZeroTruth" in w for w in report.warnings)
    assert {s.group.values[0] for s in report.scores} == {"b"}


def test_evaluate_percentile_ordering():
    rel = _two_group_rel()
    plan = plan_l2(compute_catalog(rel, ["g", "h"], ["v"]), ["v"], 24)
    sample = draw_stratified(rel, plan, seed=5)
    report = evaluate(rel, sample, QueryRequest(("g", "h"), AVG, "v"))
    s = report.summary
    assert s["max"] >= s["p99"] >= s["p90"] >= s["p50"] >= 0.0


def test_report_serialization(student_rel):
    sample = _full_sample(student_rel, ("major",))
    report = evaluate(student_rel, sample, QueryRequest(("major",), AVG, "age"))
    doc = report_to_json(report)
    assert '"rel_error"' in doc
    csv_text = report_to_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "major,exact,estimate,rel_error,predicted_cv,missing"
    assert len(lines) == 5


def test_report_csv_quotes_keys_and_writes_plain_numbers():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    names = ["a,b", "Zürich \"Nord\"", "plain"]
    rng = np.random.default_rng(3)
    rows = [(g, float(v)) for g in names for v in rng.normal(10.0, 2.0, size=30)]
    rel = Relation.from_records(schema, rows)
    plan = plan_l2(compute_catalog(rel, ["g"], ["v"]), ["v"], 12)
    sample = draw_stratified(rel, plan, seed=2)
    report = evaluate(rel, sample, QueryRequest(("g",), AVG, "v"))

    text = report_to_csv(report)
    assert "np." not in text
    header, *body = list(csv.reader(io.StringIO(text)))
    assert header == ["g", "exact", "estimate", "rel_error", "predicted_cv", "missing"]
    assert sorted(row[0] for row in body) == sorted(names)
    for row, score in zip(body, report.scores):
        assert len(row) == len(header)
        assert row[0] == score.group.values[0]
        assert [float(cell) for cell in row[1:5]] == [
            score.exact,
            score.estimate,
            score.rel_error,
            score.predicted_cv,
        ]
        assert row[5] == "0"


def test_estimate_dispatch(student_rel):
    sample = _full_sample(student_rel, ("major",))
    req = QueryRequest(("major",), COUNT)
    got = {e.group.values[0]: e.value for e in estimate(sample, req)}
    assert got == {"CS": 2.0, "Math": 2.0, "EE": 2.0, "ME": 2.0}


def test_grand_total_grouping(student_rel):
    # an empty grouping aggregates the whole table (the cube's last set)
    sample = _full_sample(student_rel, ("major",))
    (est,) = estimate_avg(sample, [], "age")
    exact = exact_answer(student_rel, [], "age", AVG)
    assert est.group.attrs == ()
    assert est.value == pytest.approx(list(exact.values())[0], rel=1e-12)


def test_out_of_range_arguments_raise_invalid_argument(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age"])
    with pytest.raises(InvalidArgument, match="budget must be >= 1, got 0"):
        plan_l2(catalog, ["age"], 0)
    plan = plan_l2(catalog, ["age"], 4)
    with pytest.raises(InvalidArgument, match="seed"):
        draw_stratified(student_rel, plan, seed=-1)
    with pytest.raises(InvalidArgument, match="seed"):
        draw_poisson(student_rel, np.full(student_rel.n_rows, 0.5), seed=-1)
    with pytest.raises(InvalidArgument, match="lo <= hi"):
        Atom("age", "between", lo=30.0, hi=20.0)
    # a numeric column compares only with real numbers, in both evaluators
    for atom in (
        Atom("age", "=", value="x"),
        Atom("age", "!=", value="25"),
        Atom("age", "<", value="x"),
        Atom("age", ">=", value=True),
        Atom("age", "<=", value=None),
        Atom("age", "between", lo="20", hi="30"),
    ):
        predicate = Predicate((atom,))
        with pytest.raises(InvalidArgument, match="numeric"):
            predicate.mask(student_rel)
        with pytest.raises(InvalidArgument, match="numeric"):
            predicate.row_matcher(student_rel.schema)
    for value in (25, 25.0, np.float64(25.0), np.int64(25)):
        assert Predicate((Atom("age", "=", value=value),)).mask(student_rel).sum() == 1
    # still a ValueError for callers that catch the builtin
    assert issubclass(InvalidArgument, GbsampleError)
    assert issubclass(InvalidArgument, ValueError)
