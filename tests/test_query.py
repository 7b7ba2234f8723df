import csv
import io
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsample.alloc import plan_l2
from gbsample.baselines import alloc_senate, alloc_uniform
from gbsample.cli import main
from gbsample.dataset import (
    CATEGORICAL,
    NUMERIC,
    ColumnSchema,
    GroupKey,
    Relation,
)
from gbsample.errors import (
    GbsampleError,
    IncompatibleGrouping,
    InvalidArgument,
    InvalidDocument,
    UnknownColumn,
)
from gbsample.query import (
    AVG,
    COUNT,
    SUM,
    Atom,
    Estimate,
    Predicate,
    QueryRequest,
    estimate,
    evaluate,
    exact_answer,
    _predicted_cvs,
    report_to_csv,
    report_to_json,
)
from gbsample.sampler import (
    PoissonSample,
    StratifiedSample,
    draw_poisson,
    draw_stratified,
    load_sample,
    save_sample,
)
from gbsample.stats import compute_catalog
from gbsample.stream import ingest_batch, make_state

import reference
from reference import key_ids, partition, predicted_group_cv, project_key



def _by_group(answer):
    """An answer as a ``GroupKey -> value`` dict in answer order (the form
    ``exact_answer`` returned before answers were arrays)."""
    return {e.group: e.value for e in answer}


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
    assert got.attrs == ("major",)
    assert got.keys == (("CS",), ("Math",), ("EE",), ("ME",))
    assert got.value.tolist() == pytest.approx([23.5, 26.0, 22.0, 26.5])
    assert got.support.tolist() == [2, 2, 2, 2]
    assert not got.missing.any()


def test_exact_empty_predicate(student_rel):
    nothing = Predicate((Atom("age", ">", 1000.0),))
    got = exact_answer(student_rel, ["major"], "age", AVG, nothing)
    assert list(got) == [] and got.keys == ()
    assert len(got.value) == len(got.support) == len(got.missing) == 0


def test_exact_single_row_group(student_rel):
    one = Predicate((Atom("id", "=", "3"),))
    got = exact_answer(student_rel, ["major"], "gpa", AVG, one)
    assert got.keys == (("Math",),) and got.value.tolist() == [3.8]
    assert got.support.tolist() == [1]


def test_exact_sum_count(student_rel):
    sums = exact_answer(student_rel, ["college"], "age", SUM)
    counts = exact_answer(student_rel, ["college"], None, COUNT)
    assert sums.keys == (("Science",), ("Engineering",))
    assert sums.value.tolist() == [25.0 + 22 + 24 + 28, 21.0 + 23 + 27 + 26]
    assert counts.value.tolist() == [4.0, 4.0]


# ---------------------------------------------------------------------------
# full-sample exactness


def test_full_sample_same_grouping_bit_for_bit():
    rel = _two_group_rel()
    sample = _full_sample(rel, ("g", "h"))
    exact = _by_group(exact_answer(rel, ["g", "h"], "v", AVG))
    for est in estimate(sample, QueryRequest(("g", "h"), AVG, "v")):
        assert est.value == exact[est.group]  # identical float, same sum order
    exact_sum = _by_group(exact_answer(rel, ["g", "h"], "v", SUM))
    for est in estimate(sample, QueryRequest(("g", "h"), SUM, "v")):
        assert est.value == exact_sum[est.group]
    exact_count = _by_group(exact_answer(rel, ["g", "h"], None, COUNT))
    for est in estimate(sample, QueryRequest(("g", "h"), COUNT)):
        assert est.value == exact_count[est.group]


def test_full_sample_coarser_grouping_exact_within_fp():
    rel = _two_group_rel()
    sample = _full_sample(rel, ("g", "h"))
    exact = _by_group(exact_answer(rel, ["g"], "v", AVG))
    for est in estimate(sample, QueryRequest(("g",), AVG, "v")):
        assert est.value == pytest.approx(exact[est.group], rel=1e-12)


def test_same_grouping_estimate_is_stratum_sample_mean():
    rel = _two_group_rel()
    catalog = compute_catalog(rel, ["g"], ["v"])
    plan = plan_l2(catalog, ["v"], 30)
    sample = draw_stratified(rel, plan, seed=7)
    request = QueryRequest(("g",), AVG, "v")
    by_group = {e.group.values: e.value for e in estimate(sample, request)}
    for key, _, _, _, rows in reference.stratum_lists(sample):
        vals = [r[2] for r in rows]
        assert by_group[key] == pytest.approx(sum(vals) / len(vals), rel=1e-12)


# ---------------------------------------------------------------------------
# expansion arithmetic


def test_count_expansion_factor():
    # stratum of 100 rows sampled at 10, 4 sampled rows match: estimate 40
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rows = [("a", float(i)) for i in range(100)]
    rel = Relation.from_records(schema, rows)
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 10)
    sample = draw_stratified(rel, plan, seed=21)
    vals = sorted(sample.columns.numeric("v").tolist())
    threshold = vals[3]  # keep exactly 4 sampled rows
    pred = Predicate((Atom("v", "<=", threshold),))
    (est,) = estimate(sample, QueryRequest(("g",), COUNT, None, pred))
    assert est.value == pytest.approx(40.0)
    assert est.support == 4


def test_avg_is_sum_over_count_exactly():
    rel = _two_group_rel()
    plan = plan_l2(compute_catalog(rel, ["g", "h"], ["v"]), ["v"], 60)
    sample = draw_stratified(rel, plan, seed=3)
    pred = Predicate((Atom("v", ">", 15.0),))
    avg = {e.group: e for e in estimate(sample, QueryRequest(("g",), AVG, "v", pred))}
    tot = {e.group: e for e in estimate(sample, QueryRequest(("g",), SUM, "v", pred))}
    cnt = {
        e.group: e for e in estimate(sample, QueryRequest(("g",), COUNT, None, pred))
    }
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
        for est in estimate(sample, QueryRequest(("g",), AVG, "v")):
            sums.setdefault(est.group, []).append(est.value)
    exact = _by_group(exact_answer(rel, ["g"], "v", AVG))
    for key, values in sums.items():
        arr = np.asarray(values)
        se = arr.std(ddof=1) / math.sqrt(reps)
        assert abs(arr.mean() - exact[key]) <= 3 * se + 1e-9


def test_grouping_must_be_subset_of_stratification():
    rel = _two_group_rel()
    sample = _full_sample(rel, ("g",))
    with pytest.raises(IncompatibleGrouping):
        estimate(sample, QueryRequest(("g", "h"), AVG, "v"))
    with pytest.raises(IncompatibleGrouping):
        estimate(sample, QueryRequest(("h",), AVG, "v"))


def test_unknown_column_rejected():
    rel = _two_group_rel()
    sample = _full_sample(rel, ("g",))
    with pytest.raises(UnknownColumn):
        estimate(sample, QueryRequest(("g",), AVG, "nope"))
    with pytest.raises(UnknownColumn):
        estimate(sample, QueryRequest(("g",), AVG, "g"))  # categorical


def test_missing_group_semantics():
    rel = _two_group_rel()
    catalog = compute_catalog(rel, ["g"], ["v"])
    plan = alloc_senate(catalog, 9)
    sample = draw_stratified(rel, plan, seed=2)
    nothing = Predicate((Atom("v", ">", 1e9),))
    for est in estimate(sample, QueryRequest(("g",), AVG, "v", nothing)):
        assert est.missing and est.value is None
    for est in estimate(sample, QueryRequest(("g",), SUM, "v", nothing)):
        assert not est.missing and est.value == 0.0
    for est in estimate(sample, QueryRequest(("g",), COUNT, None, nothing)):
        assert not est.missing and est.value == 0.0


# ---------------------------------------------------------------------------
# Poisson estimation


def test_poisson_full_inclusion_exact(student_rel):
    sample = draw_poisson(student_rel, np.ones(8), seed=1)
    request = QueryRequest(("major",), AVG, "age")
    got = _by_group(estimate(sample, request))
    exact = _by_group(exact_answer(student_rel, ["major"], "age", AVG))
    for key, value in exact.items():
        assert got[key] == pytest.approx(value)


def test_poisson_count_weights():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(schema, [("a", 1.0), ("a", 2.0), ("b", 3.0)])
    sample = draw_poisson(rel, np.array([0.5, 0.5, 1.0]), seed=4)
    for est in estimate(sample, QueryRequest(("g",), COUNT)):
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


def test_evaluate_cv_l2_adds_the_squares_in_order(monkeypatch):
    # 1.0 and then ten squares of 1e-16, each below half an ulp of 1.0: in
    # order they vanish, while a compensated sum (Python 3.12's builtin sum,
    # or fsum) keeps them
    rel = Relation.from_records(
        (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC)),
        [(f"g{i}", float(i + 1)) for i in range(11)],
    )
    cvs = [1.0] + [1e-8] * 10
    monkeypatch.setattr(
        "gbsample.query._predicted_cvs", lambda *_: {(f"g{i}",): c for i, c in enumerate(cvs)}
    )
    report = evaluate(rel, _full_sample(rel, ["g"]), QueryRequest(("g",), AVG, "v"))
    assert report.cv_l2 == math.sqrt(_ordered_sum(c * c for c in cvs)) == 1.0
    assert math.sqrt(math.fsum(c * c for c in cvs)) > 1.0


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
    assert [s.key for s in report.scores] == [("b",)]


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
        assert (row[0],) == score.key
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
    (est,) = estimate(sample, QueryRequest((), AVG, "age"))
    exact = exact_answer(student_rel, [], "age", AVG)
    assert est.group.attrs == () and exact.keys == ((),)
    assert est.value == pytest.approx(float(exact.value[0]), rel=1e-12)


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
    # a numeric column compares only with real numbers, and a categorical
    # one only by = and !=, on the relation and on either kind of sample
    samples = (
        draw_stratified(student_rel, plan, seed=0),
        draw_poisson(student_rel, np.full(student_rel.n_rows, 0.5), seed=0),
    )
    for atom, match in (
        (Atom("age", "=", value="x"), "numeric"),
        (Atom("age", "!=", value="25"), "numeric"),
        (Atom("age", "<", value="x"), "numeric"),
        (Atom("age", ">=", value=True), "numeric"),
        (Atom("age", "<=", value=None), "numeric"),
        (Atom("age", "between", lo="20", hi="30"), "numeric"),
        (Atom("age", ">", value=math.nan), "finite"),
        (Atom("age", "<", value=-math.inf), "finite"),
        (Atom("age", "between", lo=20.0, hi=math.inf), "finite"),
        (Atom("major", "<", value="M"), "categorical"),
        (Atom("major", ">=", value="M"), "categorical"),
        (Atom("major", "between", lo=1.0, hi=2.0), "categorical"),
    ):
        predicate = Predicate((atom,))
        with pytest.raises(InvalidArgument, match=match):
            predicate.mask(student_rel)
        for sample in samples:
            for request in (
                QueryRequest(("major",), AVG, "age", predicate),
                QueryRequest(("major",), COUNT, None, predicate),
            ):
                with pytest.raises(InvalidArgument, match=match):
                    estimate(sample, request)
    for value in (25, 25.0, np.float64(25.0), np.int64(25)):
        assert Predicate((Atom("age", "=", value=value),)).mask(student_rel).sum() == 1
    # still a ValueError for callers that catch the builtin
    assert issubclass(InvalidArgument, GbsampleError)
    assert issubclass(InvalidArgument, ValueError)


def test_categorical_order_atoms_rejected_on_both_sample_kinds():
    rel = _two_group_rel()
    stratified = _full_sample(rel, ("g", "h"))
    poisson = draw_poisson(rel, np.full(rel.n_rows, 0.5), seed=3)
    predicate = Predicate((Atom("g", "<", value="b"),))
    with pytest.raises(InvalidArgument, match="categorical"):
        exact_answer(rel, ["g"], "v", AVG, predicate)
    for sample in (stratified, poisson):
        with pytest.raises(InvalidArgument, match="categorical"):
            estimate(sample, QueryRequest(("g",), AVG, "v", predicate))


# ---------------------------------------------------------------------------
# the row loops the aggregation kernel replaced, kept as reference oracles
#
# Sums run left to right: the loops used sum(), which adds in order up to
# Python 3.11 and with compensation from 3.12 on, while np.bincount adds in
# order on every version.


def _ordered_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _ref_scalar_test(atom, v):
    if atom.op == "=":
        return v == atom.value
    if atom.op == "!=":
        return v != atom.value
    if atom.op == "<":
        return v < atom.value
    if atom.op == "<=":
        return v <= atom.value
    if atom.op == ">":
        return v > atom.value
    if atom.op == ">=":
        return v >= atom.value
    return atom.lo <= v <= atom.hi


def _ref_row_matcher(predicate, schema):
    pos = {c.name: i for i, c in enumerate(schema)}
    compiled = [(pos[atom.column], atom) for atom in predicate.atoms]
    return lambda record: all(_ref_scalar_test(a, record[i]) for i, a in compiled)


def _ref_expansions(sample, group_attrs, column, predicate):
    col_pos = None
    if column is not None:
        col_pos = [c.name for c in sample.schema].index(column)
    matcher = _ref_row_matcher(predicate, sample.schema) if predicate else None
    groups = {}
    for key, n, size, _, rows in reference.stratum_lists(sample):
        coarse = project_key(GroupKey(sample.group_attrs, key), group_attrs)
        g = groups.setdefault(
            coarse, {"sum": 0.0, "count": 0.0, "support": 0, "sampled": False}
        )
        if size == 0:
            continue
        g["sampled"] = True
        if matcher is not None:
            rows = [r for r in rows if matcher(r)]
        m = len(rows)
        if m == 0:
            continue
        factor = n / size
        if col_pos is not None:
            g["sum"] += factor * _ordered_sum(r[col_pos] for r in rows)
        g["count"] += factor * m
        g["support"] += m
    return groups


def _ref_estimate_avg(sample, group_attrs, column, predicate=None):
    out = []
    for key, g in _ref_expansions(sample, group_attrs, column, predicate).items():
        if g["count"] > 0:
            out.append(Estimate(key, g["sum"] / g["count"], g["support"], False))
        else:
            out.append(Estimate(key, None, 0, True))
    return out


def _ref_estimate_sum(sample, group_attrs, column, predicate=None):
    out = []
    for key, g in _ref_expansions(sample, group_attrs, column, predicate).items():
        if g["sampled"]:
            out.append(Estimate(key, g["sum"], g["support"], False))
        else:
            out.append(Estimate(key, None, 0, True))
    return out


def _ref_estimate_count(sample, group_attrs, predicate=None):
    out = []
    for key, g in _ref_expansions(sample, group_attrs, None, predicate).items():
        if g["sampled"]:
            out.append(Estimate(key, g["count"], g["support"], False))
        else:
            out.append(Estimate(key, None, 0, True))
    return out


def _ref_estimate_poisson(sample, group_attrs, fn, column=None, predicate=None):
    pos = {c.name: i for i, c in enumerate(sample.schema)}
    col_pos = pos[column] if fn != COUNT else None
    matcher = _ref_row_matcher(predicate, sample.schema) if predicate else None
    groups = {}
    _, records, rates = reference.poisson_lists(sample)
    for record, pr in zip(records, rates):
        if matcher is not None and not matcher(record):
            continue
        key = GroupKey(group_attrs, tuple(record[pos[a]] for a in group_attrs))
        g = groups.setdefault(key, {"sum": 0.0, "count": 0.0, "support": 0})
        w = 1.0 / pr
        g["count"] += w
        if col_pos is not None:
            g["sum"] += w * record[col_pos]
        g["support"] += 1
    out = []
    for key, g in groups.items():
        if fn == COUNT:
            value = g["count"]
        elif fn == SUM:
            value = g["sum"]
        else:
            value = g["sum"] / g["count"]
        out.append(Estimate(key, value, g["support"], False))
    return out


def _ref_exact_answer(rel, group_attrs, column, fn, predicate=None):
    values = rel.numeric(column) if fn != COUNT else None
    mask = predicate.mask(rel) if predicate else None
    out = {}
    for key, rows in partition(rel, group_attrs).items():
        if mask is not None:
            rows = [r for r in rows if mask[r]]
        if not rows:
            continue
        if fn == COUNT:
            out[key] = float(len(rows))
        else:
            total = _ordered_sum(float(values[r]) for r in rows)
            out[key] = total / len(rows) if fn == AVG else total
    return out


def _ref_estimate(sample, request):
    attrs, fn, column, predicate = (
        request.group_attrs, request.fn, request.column, request.predicate
    )
    if isinstance(sample, PoissonSample):
        return _ref_estimate_poisson(sample, attrs, fn, column, predicate)
    if fn == AVG:
        return _ref_estimate_avg(sample, attrs, column, predicate)
    if fn == SUM:
        return _ref_estimate_sum(sample, attrs, column, predicate)
    return _ref_estimate_count(sample, attrs, predicate)


def _ref_view(schema, records, request):
    """The columns of ``records`` that ``request`` aggregates or filters on."""
    names = {a.column for a in request.predicate.atoms} if request.predicate else set()
    if request.fn != COUNT:
        names.add(request.column)
    touched = [(i, c) for i, c in enumerate(schema) if c.name in names]
    return Relation(
        [c for _, c in touched], {c.name: [r[i] for r in records] for i, c in touched}
    )


def _ref_tuple_estimate(sample, request):
    """``estimate`` on the samples' rows as tuples: the touched columns
    re-encoded from the rows (``_ref_view``) and groups numbered by hashing
    value tuples (``key_ids``), one per stratum or per sampled row."""
    attrs = tuple(request.group_attrs)
    if isinstance(sample, PoissonSample):
        pos = {c.name: i for i, c in enumerate(sample.schema)}
        _, rows, rates = reference.poisson_lists(sample)
        values, keep = reference._inputs(_ref_view(sample.schema, rows, request), request)
        ids, keys = key_ids(rows, [pos[a] for a in attrs])
        weight = 1.0 / np.asarray(rates, dtype=np.float64)
        value, _, support = reference._group_by(
            request.fn, np.arange(len(ids)), values, keep, weight, ids, len(keys)
        )
        seen, first = np.unique(ids[keep], return_index=True)
        value, support = value.tolist(), support.tolist()
        return [
            Estimate(GroupKey(attrs, keys[g]), value[g], support[g], False)
            for g in seen[np.argsort(first)].tolist()
        ]
    strata = reference.stratum_lists(sample)
    group_of_cell, keys = key_ids(
        [key for key, *_ in strata], [sample.group_attrs.index(a) for a in attrs]
    )
    n = np.array([n for _, n, _, _, _ in strata], dtype=np.float64)
    size = np.array([size for _, _, size, _, _ in strata], dtype=np.float64)
    factor = np.divide(n, size, out=np.zeros(len(strata)), where=size > 0)
    rows = [rows for *_, rows in strata]
    held = np.fromiter(map(len, rows), dtype=np.intp, count=len(strata))
    cells = np.repeat(np.arange(len(strata)), held)
    view = _ref_view(sample.schema, [r for part in rows for r in part], request)
    value, count, support = reference._group_by(
        request.fn, cells, *reference._inputs(view, request), factor, group_of_cell, len(keys)
    )
    if request.fn == AVG:
        present = count > 0
    else:
        present = np.bincount(group_of_cell, size > 0, len(keys)) > 0
    out = []
    for key, v, m, ok in zip(keys, value.tolist(), support.tolist(), present.tolist()):
        key = GroupKey(attrs, key)
        out.append(Estimate(key, v, m, False) if ok else Estimate(key, None, 0, True))
    return out


def _ref_predicted_cvs(rel, sample, request):
    """Predicted CVs from two full catalogs: one by the sample's strata for
    each stratum's population and std, one by the query groups for each
    group's mean."""
    if request.column is None or not isinstance(sample, StratifiedSample):
        return {}
    col = request.column
    catalog = compute_catalog(rel, sample.group_attrs, (col,))
    stratum_of = {values: k for k, values in enumerate(catalog.keys)}
    n, std = catalog.n.tolist(), catalog.std[col].tolist()
    positions = [sample.group_attrs.index(a) for a in request.group_attrs]
    by_coarse = {}
    for values, size in zip(sample.keys, sample.size.tolist()):
        k = stratum_of.get(values)
        if k is None:
            continue
        coarse = tuple(values[p] for p in positions)
        by_coarse.setdefault(coarse, []).append((n[k], size, std[k]))
    groups = compute_catalog(rel, request.group_attrs, (col,))
    group_mean = dict(zip(groups.keys, groups.mean[col].tolist()))
    out = {}
    for coarse, parts in by_coarse.items():
        mu = group_mean.get(coarse, 0.0)
        out[GroupKey(tuple(request.group_attrs), coarse)] = predicted_group_cv(parts, mu)
    return out


def _as_tuples(estimates):
    """Group, value, support and missing flag in order; values compare
    with ==."""
    return [(e.group, e.value, e.support, e.missing) for e in estimates]


def _check_arrays(answer):
    """An answer's arrays have one entry per key, ``value`` is NaN exactly
    where ``missing``, and its view holds the keys in order."""
    n = len(answer.keys)
    assert len(answer) == n
    assert answer.value.dtype == np.float64 and answer.value.shape == (n,)
    assert answer.support.dtype == np.int64 and answer.support.shape == (n,)
    assert answer.missing.dtype == bool and answer.missing.shape == (n,)
    assert np.isnan(answer.value).tolist() == answer.missing.tolist()
    view = list(answer)
    assert [e.group for e in view] == [GroupKey(answer.attrs, k) for k in answer.keys]


def _same_estimates(sample, request):
    got = estimate(sample, request)
    _check_arrays(got)
    assert _as_tuples(got) == _as_tuples(_ref_estimate(sample, request)), request
    assert _as_tuples(got) == _as_tuples(_ref_tuple_estimate(sample, request)), request
    # plain Python numbers, so the JSON written from them stays as it was
    assert all(e.value is None or type(e.value) is float for e in got)
    assert all(type(e.support) is int for e in got)


KEY_NAMES = ("a,b", "x|y", "Zürich", "東京", "plain", "")

SCHEMA_GHV = (
    ColumnSchema("g", CATEGORICAL),
    ColumnSchema("h", CATEGORICAL),
    ColumnSchema("v", NUMERIC),
    ColumnSchema("w", NUMERIC),
)


def _random_rel(rng, n_rows, g_card, h_card):
    g = rng.choice(KEY_NAMES[:g_card], size=n_rows).tolist()
    h = rng.choice(["h0", "h|1", "h,2"][:h_card], size=n_rows).tolist()
    v = np.round(rng.normal(10.0, 5.0, size=n_rows), 3)
    w = rng.integers(0, 4, size=n_rows).astype(float)
    return Relation(SCHEMA_GHV, {"g": g, "h": h, "v": v, "w": w})


def _random_predicates(rng):
    lo = float(np.round(rng.normal(8.0, 4.0), 1))
    return [
        None,
        Predicate((Atom("v", "<", lo),)),
        Predicate((Atom("v", "between", lo=lo, hi=lo + 6.0),)),
        Predicate((Atom("g", "=", KEY_NAMES[int(rng.integers(3))]),)),
        Predicate((Atom("h", "!=", "h0"), Atom("w", ">=", 2.0))),
        Predicate((Atom("w", "=", 1),)),
        Predicate((Atom("w", "!=", 3.0), Atom("v", "<=", lo), Atom("v", ">", lo - 9))),
        Predicate((Atom("v", ">", 1e9),)),  # empties every group
    ]


def _requests(attr_sets, predicates):
    for attrs in attr_sets:
        for pred in predicates:
            yield QueryRequest(attrs, AVG, "v", pred)
            yield QueryRequest(attrs, SUM, "w", pred)
            yield QueryRequest(attrs, COUNT, None, pred)


STRAT_GROUPINGS = (("g", "h"), ("h", "g"), ("g",), ("h",), ())


def _stratified(rel, seed, budget, rng, zero_strata):
    plan = plan_l2(compute_catalog(rel, ["g", "h"], ["v"]), ["v"], budget)
    if zero_strata:
        # strata that hold no sampled rows: missing groups and 0 factors
        plan.sizes[rng.random(len(plan.sizes)) < 0.3] = 0
    return draw_stratified(rel, plan, seed=seed)


def _check_sample(sample, rng):
    for request in _requests(STRAT_GROUPINGS, _random_predicates(rng)):
        _same_estimates(sample, request)


def _check_exact(rel, rng):
    for request in _requests(STRAT_GROUPINGS, _random_predicates(rng)):
        args = (rel, request.group_attrs, request.column, request.fn, request.predicate)
        got, want = exact_answer(*args), _ref_exact_answer(*args)
        _check_exact_arrays(got, want, request)


def _check_exact_arrays(got, want, request):
    """``exact_answer``'s arrays against the oracle's dict, in order."""
    _check_arrays(got)
    assert got.attrs == tuple(request.group_attrs)
    assert list(zip(got.keys, got.value.tolist())) == [
        (k.values, v) for k, v in want.items()
    ], request
    assert not got.missing.any() and (got.support > 0).all()
    assert list(_by_group(got).items()) == list(want.items()), request
    assert all(type(e.value) is float for e in got)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_reference_loops_seeded(seed, tmp_path):
    rng = np.random.default_rng(seed)
    rel = _random_rel(rng, 400, 6, 3)
    p = rng.uniform(0.05, 1.0, rel.n_rows)
    p[rng.random(rel.n_rows) < 0.2] = 1.0
    samples = [
        _stratified(rel, seed, budget, rng, zero)
        for budget, zero in ((30, False), (60, True), (rel.n_rows, False))
    ] + [draw_poisson(rel, p, seed=seed)]
    for i, sample in enumerate(samples):
        _check_sample(sample, rng)
        # a loaded sample holds Python floats where a drawn one holds numpy's
        path = tmp_path / f"sample{i}.txt"
        save_sample(sample, path)
        _check_sample(load_sample(path), rng)
    _check_exact(rel, rng)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    n_rows=st.integers(1, 60),
    g_card=st.integers(1, len(KEY_NAMES)),
    h_card=st.integers(1, 3),
    budget=st.integers(1, 60),
    zero=st.booleans(),
)
def test_kernel_matches_reference_loops_hypothesis(
    seed, n_rows, g_card, h_card, budget, zero
):
    rng = np.random.default_rng(seed)
    rel = _random_rel(rng, n_rows, g_card, h_card)
    _check_sample(_stratified(rel, seed, budget, rng, zero), rng)
    p = rng.choice([0.1, 0.5, 1.0], size=n_rows)
    _check_sample(draw_poisson(rel, p, seed=seed), rng)
    _check_exact(rel, rng)


def _snapshot(rel, budget, seed):
    """A stream snapshot of ``rel`` stratified by (g, h), fed in batches of 7
    rows under a budget that may leave strata empty."""
    state = make_state(rel.schema, ("g", "h"), ("v",), budget, seed)
    for start in range(0, rel.n_rows, 7):
        ingest_batch(state, rel, np.arange(start, min(start + 7, rel.n_rows)))
    return state.snapshot()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_rows=st.integers(0, 50),
    g_card=st.integers(1, len(KEY_NAMES)),
    h_card=st.integers(1, 3),
    budget=st.integers(1, 50),
    zero=st.booleans(),
)
def test_columnar_estimate_matches_tuple_oracle(seed, n_rows, g_card, h_card, budget, zero):
    """Drawn, stream-snapshot and saved-then-loaded samples of both kinds,
    including empty ones and ones with zero-size strata, answer every
    request exactly as the tuple-based estimate does."""
    rng = np.random.default_rng(seed)
    rel = _random_rel(rng, n_rows, g_card, h_card)
    p = rng.choice([0.0, 0.2, 1.0], size=n_rows)
    samples = [
        draw_poisson(rel, p, seed=seed),
        _snapshot(rel, budget, seed),
        StratifiedSample(rel.schema, ("g", "h"), "l2", seed),
    ]
    if n_rows:
        samples.append(_stratified(rel, seed, budget, rng, zero))
    with tempfile.TemporaryDirectory() as tmp:
        for i, sample in enumerate(samples):
            path = Path(tmp) / f"sample{i}.txt"
            save_sample(sample, path)
            _check_sample(sample, rng)
            _check_sample(load_sample(path), rng)


def test_kernel_on_empty_samples_and_relations():
    rng = np.random.default_rng(1)
    rel = _random_rel(rng, 40, 3, 2)
    plan = plan_l2(compute_catalog(rel, ["g", "h"], ["v"]), ["v"], 10)
    plan.sizes[:] = 0
    nothing_drawn = draw_stratified(rel, plan, seed=0)
    no_strata = StratifiedSample(rel.schema, ("g", "h"), "l2", 0)
    empty_poisson = draw_poisson(rel, np.zeros(rel.n_rows), seed=0)
    assert empty_poisson.total_rows == 0
    for sample in (nothing_drawn, no_strata, empty_poisson):
        _check_sample(sample, rng)
    # every group of the stratified sample is reported missing
    assert all(e.missing for e in estimate(nothing_drawn, QueryRequest(("g",), COUNT)))
    assert list(estimate(no_strata, QueryRequest((), COUNT))) == []
    empty_rel = Relation(SCHEMA_GHV, {"g": [], "h": [], "v": [], "w": []})
    for attrs in (("g",), ()):
        got = exact_answer(empty_rel, attrs, "v", AVG)
        assert list(got) == [] and got.keys == () and len(got.value) == 0
        assert _ref_exact_answer(empty_rel, attrs, "v", AVG) == {}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_rows=st.integers(0, 60),
    g_card=st.integers(1, len(KEY_NAMES)),
    h_card=st.integers(1, 3),
    budget=st.integers(1, 60),
    zero=st.booleans(),
)
def test_answer_arrays_match_the_oracles(seed, n_rows, g_card, h_card, budget, zero):
    """On random stratified and Poisson samples, for AVG, SUM and COUNT with
    no predicate, one that keeps some rows and one that keeps none, an
    answer's view equals both oracles in order, its value is NaN exactly
    where it is missing, and the exact answer's arrays are the oracle's
    dict in order; a sample with no strata answers no group and one where
    nothing was drawn answers every group missing."""
    rng = np.random.default_rng(seed)
    rel = _random_rel(rng, n_rows, g_card, h_card)
    predicates = (
        None,
        Predicate((Atom("v", "<", 10.0),)),
        Predicate((Atom("v", ">", 1e9),)),
    )
    no_strata = StratifiedSample(rel.schema, ("g", "h"), "l2", seed)
    samples = [draw_poisson(rel, rng.choice([0.0, 0.3, 1.0], size=n_rows), seed), no_strata]
    nothing_drawn = None
    if n_rows:
        samples.append(_stratified(rel, seed, budget, rng, zero))
        plan = plan_l2(compute_catalog(rel, ["g", "h"], ["v"]), ["v"], budget)
        plan.sizes[:] = 0
        nothing_drawn = draw_stratified(rel, plan, seed=seed)
        samples.append(nothing_drawn)
    for request in _requests(STRAT_GROUPINGS, predicates):
        for sample in samples:
            answer = estimate(sample, request)
            _check_arrays(answer)
            assert answer.attrs == request.group_attrs
            assert list(answer) == _ref_estimate(sample, request), request
            assert list(answer) == _ref_tuple_estimate(sample, request), request
            if sample is no_strata:
                assert len(answer) == 0
            if sample is nothing_drawn:
                groups = rel.strata(request.group_attrs).keys
                assert answer.keys == groups and answer.missing.all()
            if request.group_attrs == () and isinstance(sample, StratifiedSample):
                assert answer.keys == (((),) if len(sample.keys) else ())
        args = (rel, request.group_attrs, request.column, request.fn, request.predicate)
        _check_exact_arrays(exact_answer(*args), _ref_exact_answer(*args), request)


def test_mask_agrees_with_reference_row_matcher():
    rng = np.random.default_rng(9)
    rel = _random_rel(rng, 200, 6, 3)
    records = rel.records(range(rel.n_rows))
    for predicate in _random_predicates(rng)[1:]:
        matches = _ref_row_matcher(predicate, rel.schema)
        assert predicate.mask(rel).tolist() == [matches(r) for r in records]


def test_query_document_rejects_a_string_for_group_by():
    doc = {"group_by": "major", "aggregate": {"fn": "avg", "column": "age"}}
    with pytest.raises(InvalidDocument, match=r"q\.json: group_by: .*'major'"):
        QueryRequest.from_json(doc, "q.json")
    doc["group_by"] = ["major"]
    assert QueryRequest.from_json(doc).group_attrs == ("major",)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    n_rows=st.integers(1, 60),
    g_card=st.integers(1, len(KEY_NAMES)),
    h_card=st.integers(1, 3),
    budget=st.integers(1, 60),
    zero=st.booleans(),
)
def test_predicted_cvs_match_the_two_catalog_oracle(seed, n_rows, g_card, h_card, budget, zero):
    """``evaluate``'s predicted CVs equal, by ==, those of two full catalogs
    on the sample's own grouping (one moments pass) and on coarser and
    permuted ones, for drawn and loaded samples, and against a relation
    that lacks some of the sample's strata."""
    rng = np.random.default_rng(seed)
    rel = _random_rel(rng, n_rows, g_card, h_card)
    sample = _stratified(rel, seed, budget, rng, zero)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.txt"
        save_sample(sample, path)
        loaded = load_sample(path)
    part = rel.take(range((n_rows + 1) // 2))
    for target in (rel, part):
        for drawn in (sample, loaded):
            for attrs in STRAT_GROUPINGS:
                for column in ("v", "w"):
                    request = QueryRequest(attrs, AVG, column)
                    want = _ref_predicted_cvs(target, drawn, request)
                    got = _predicted_cvs(target, drawn, request)
                    assert list(got.items()) == [(k.values, v) for k, v in want.items()], request
                    report = evaluate(target, drawn, request)
                    want_cvs = {k.values: cv for k, cv in want.items()}
                    assert all(s.predicted_cv == want_cvs.get(s.key) for s in report.scores)


# ---------------------------------------------------------------------------
# answer order and cached sample arrays, against the reference forms

_GH_SCHEMA = (
    ColumnSchema("g", CATEGORICAL),
    ColumnSchema("h", CATEGORICAL),
    ColumnSchema("v", NUMERIC),
)

#: groupings of the (g, h) samples: none, each alone, both and both permuted
_GROUPINGS = [(), ("g",), ("h",), ("g", "h"), ("h", "g")]


def _same_answer(got, want):
    assert got.attrs == want.attrs
    assert got.keys == want.keys
    assert got.value.tobytes() == want.value.tobytes()
    assert got.support.tobytes() == want.support.tobytes()
    assert got.missing.tobytes() == want.missing.tobytes()


def _predicates(cut):
    """No predicate, one that keeps the rows above ``cut`` (which drops the
    first rows of some groups), one that matches nothing, one that matches
    everything, and a categorical one."""
    return [
        None,
        Predicate((Atom("v", ">", cut),)),
        Predicate((Atom("v", ">", 1e9),)),
        Predicate((Atom("v", "between", lo=-1e9, hi=1e9),)),
        Predicate((Atom("h", "!=", "x"),)),
    ]


@settings(max_examples=40)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from("xy"), st.integers(0, 9)),
        min_size=1,
        max_size=30,
    ),
    rates=st.lists(st.sampled_from([0.3, 0.6, 1.0]), min_size=30, max_size=30),
    budget=st.integers(1, 12),
    cut=st.integers(0, 9),
    seed=st.integers(0, 3),
)
def test_answers_match_the_reference_order_and_bytes(rows, rates, budget, cut, seed):
    rel = Relation.from_records(_GH_SCHEMA, [(g, h, float(v)) for g, h, v in rows])
    poisson = draw_poisson(rel, np.array(rates[: len(rows)]), seed)
    catalog = compute_catalog(rel, ["g", "h"], [])
    stratified = draw_stratified(rel, alloc_uniform(catalog, budget), seed)
    for attrs in _GROUPINGS:
        for fn, column in ((AVG, "v"), (SUM, "v"), (COUNT, None)):
            for predicate in _predicates(float(cut)):
                request = QueryRequest(attrs, fn, column, predicate)
                for sample in (poisson, stratified):
                    _same_answer(estimate(sample, request), reference.estimate(sample, request))
                _same_answer(
                    exact_answer(rel, attrs, column, fn, predicate),
                    reference.exact_answer(rel, request),
                )


_GHUV_SCHEMA = (*_GH_SCHEMA, ColumnSchema("u", NUMERIC))

#: aggregated values that a sum or an expansion treats specially: signed
#: zeros, infinities, NaN and values whose expansion overflows
_EXTREME_VALUES = [-0.0, 0.0, 1.5, -2.0, math.inf, -math.inf, math.nan, 1e308, -1e308]


def _outcome(call):
    """The answer ``call`` returns, or the type of the exception it raises
    (a RuntimeWarning is an error in this suite)."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


def _same_outcome(got, want):
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
    else:
        _same_answer(got, want)


@settings(max_examples=40)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from("abc"),
            st.sampled_from("xy"),
            st.sampled_from(_EXTREME_VALUES),
            st.integers(0, 9),
        ),
        min_size=1,
        max_size=30,
    ),
    rates=st.lists(st.sampled_from([0.3, 0.6, 1.0]), min_size=30, max_size=30),
    sizes=st.lists(st.integers(0, 6), min_size=6, max_size=6),
    bounds=st.tuples(st.integers(0, 9), st.integers(0, 9)).map(sorted),
    seed=st.integers(0, 3),
)
def test_the_row_weighted_kernel_matches_the_gathering_one(rows, rates, sizes, bounds, seed):
    """``estimate`` and ``exact_answer`` give the bytes of the gathering
    kernel kept in ``reference``, or raise what it raises, on extreme
    values under every kind of predicate, on stratified samples with empty
    and whole strata and on Poisson samples with rates of 1."""
    rel = Relation.from_records(_GHUV_SCHEMA, [(g, h, v, float(u)) for g, h, v, u in rows])
    poisson = draw_poisson(rel, np.array(rates[: len(rows)]), seed)
    plan = alloc_uniform(compute_catalog(rel, ["g", "h"], []), 1)
    sizes = np.minimum(sizes[: len(plan.keys)], plan.populations)
    stratified = draw_stratified(rel, replace(plan, sizes=sizes), seed)
    lo, hi = bounds
    predicates = [
        None,
        Predicate(()),
        Predicate((Atom("u", ">", 100.0),)),
        Predicate((Atom("u", "between", lo=-1e9, hi=1e9),)),
        Predicate((Atom("g", "=", "a"),)),
        Predicate((Atom("h", "!=", "x"),)),
        Predicate((Atom("u", "between", lo=float(lo), hi=float(hi)),)),
        Predicate((Atom("v", "between", lo=-1e300, hi=1e300), Atom("h", "=", "y"))),
    ]
    for attrs in _GROUPINGS:
        for fn, column in ((AVG, "v"), (SUM, "v"), (COUNT, None)):
            for predicate in predicates:
                request = QueryRequest(attrs, fn, column, predicate)
                for sample in (poisson, stratified):
                    _same_outcome(
                        _outcome(lambda: estimate(sample, request)),
                        _outcome(lambda: reference.estimate(sample, request)),
                    )
                _same_outcome(
                    _outcome(lambda: exact_answer(rel, attrs, column, fn, predicate)),
                    _outcome(lambda: reference.exact_answer(rel, request)),
                )


@pytest.mark.parametrize("fn, column, arrays", [(AVG, "x", 3), (COUNT, None, 2)])
def test_an_exact_answer_allocates_no_row_sized_identity_arrays(fn, column, arrays):
    """On 200k rows in 2500 (a, b) groups, the exact answer's traced peak
    stays under ``arrays`` float64 arrays of one value per row: the kernel
    weighs rows by the mask, with no identity cell ids, unit factors or
    gathered rows (``reference._group_by``, which has them, peaks at 6
    for AVG and 5 for COUNT)."""
    n = 200_000
    rng = np.random.default_rng(0)
    schema = (
        ColumnSchema("a", CATEGORICAL), ColumnSchema("b", CATEGORICAL), ColumnSchema("x", NUMERIC),
    )
    columns = {name: [f"{name}{k}" for k in rng.integers(0, 50, n).tolist()] for name in "ab"}
    rel = Relation(schema, {**columns, "x": rng.normal(size=n)})
    rel.strata(("a", "b"))  # the cached grouping is not the kernel's to pay for
    tracemalloc.start()
    try:
        exact_answer(rel, ("a", "b"), column, fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays * 8 * n, peak / (8 * n)


def test_a_predicate_orders_poisson_groups_by_their_first_kept_row():
    """Group a comes first in the sample, but the predicate drops its first
    row, so b's first kept row comes before a's, while the exact answer
    keeps the relation's first-occurrence order.  A predicate that matches
    nothing answers no group."""
    rows = [("a", "x", 0.0), ("b", "x", 5.0), ("a", "y", 6.0), ("c", "y", 7.0), ("b", "y", 8.0)]
    rel = Relation.from_records(_GH_SCHEMA, rows)
    sample = draw_poisson(rel, np.ones(len(rows)), seed=0)
    keep = Predicate((Atom("v", ">", 1.0),))
    for attrs, want, support in (
        (("g",), [("b",), ("a",), ("c",)], [2, 1, 1]),
        (("g", "h"), [("b", "x"), ("a", "y"), ("c", "y"), ("b", "y")], [1, 1, 1, 1]),
    ):
        got = estimate(sample, QueryRequest(attrs, COUNT, None, keep))
        assert list(got.keys) == want
        assert got.support.tolist() == support
    assert exact_answer(rel, ("g",), None, COUNT, keep).keys == (("a",), ("b",), ("c",))
    nothing = Predicate((Atom("v", ">", 100.0),))
    empty = estimate(sample, QueryRequest(("g",), SUM, "v", nothing))
    assert empty.keys == () and len(empty.value) == 0


def test_an_answer_of_every_group_holds_the_cached_keys():
    rel = _two_group_rel()
    sample = draw_poisson(rel, np.full(rel.n_rows, 0.5), seed=2)
    for attrs in _GROUPINGS:
        request = QueryRequest(attrs, SUM, "v")
        assert estimate(sample, request).keys is sample.columns.strata(attrs).keys
        assert exact_answer(rel, attrs, "v", SUM).keys is rel.strata(attrs).keys


def test_sample_arrays_are_cached_read_only():
    rel = _two_group_rel()
    catalog = compute_catalog(rel, ["g", "h"], [])
    stratified = draw_stratified(rel, alloc_uniform(catalog, 3), seed=1)
    poisson = draw_poisson(rel, np.full(rel.n_rows, 0.5), seed=1)
    arrays = {
        (stratified, "row_strata"): np.repeat(np.arange(6), stratified.size),
        (stratified, "expansion"): np.divide(
            stratified.n, stratified.size, out=np.zeros(6), where=stratified.size > 0
        ),
        (stratified, "held"): stratified.size > 0,
        (poisson, "expansion"): 1.0 / poisson.rates,
    }
    before = {where: getattr(*where) for where in arrays}
    for sample in (stratified, poisson):
        for fn, column in ((AVG, "v"), (SUM, "v"), (COUNT, None)):
            estimate(sample, QueryRequest(("g",), fn, column))
    for where, want in arrays.items():
        got = getattr(*where)
        assert got is before[where], where  # built once, on first use
        assert not got.flags.writeable, where
        assert got.tobytes() == want.tobytes(), where
    assert not stratified.held.all()  # the budget leaves strata empty


def test_compare_computes_the_fine_catalog_once(tmp_path, fix_a_csv, computed_catalogs):
    """``compare`` plans every method from the relation's catalog and each
    seed's evaluation reads its predicted CVs from the same catalog, kept
    by the relation: one computation for the whole run."""
    config = {
        "data": str(fix_a_csv),
        "schema": [{"name": "grp", "kind": "categorical"}, {"name": "v", "kind": "numeric"}],
        "group_by": ["grp"],
        "aggregates": ["v"],
        "methods": ["cvopt-l2", "uniform", "senate"],
        "n_seeds": 4,
        "budget": 8,
        "seed": 5,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["compare", "--config", str(path)]) == 0
    assert computed_catalogs == [(("grp",), "v")]
    results = json.loads((tmp_path / "out" / "compare.json").read_text())["results"]
    assert [r["seeds"] for r in results] == [4, 4, 4]
