import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsample.alloc import plan_l2
from gbsample.baselines import alloc_senate, alloc_uniform
from gbsample.dataset import (
    CATEGORICAL,
    NUMERIC,
    ColumnSchema,
    GroupKey,
    Relation,
    partition,
)
from gbsample.errors import GbsampleError, IncompatibleGrouping, InvalidArgument, UnknownColumn
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
    for est in estimate(sample, QueryRequest(("g", "h"), AVG, "v")):
        assert est.value == exact[est.group]  # identical float, same sum order
    exact_sum = exact_answer(rel, ["g", "h"], "v", SUM)
    for est in estimate(sample, QueryRequest(("g", "h"), SUM, "v")):
        assert est.value == exact_sum[est.group]
    exact_count = exact_answer(rel, ["g", "h"], None, COUNT)
    for est in estimate(sample, QueryRequest(("g", "h"), COUNT)):
        assert est.value == exact_count[est.group]


def test_full_sample_coarser_grouping_exact_within_fp():
    rel = _two_group_rel()
    sample = _full_sample(rel, ("g", "h"))
    exact = exact_answer(rel, ["g"], "v", AVG)
    for est in estimate(sample, QueryRequest(("g",), AVG, "v")):
        assert est.value == pytest.approx(exact[est.group], rel=1e-12)


def test_same_grouping_estimate_is_stratum_sample_mean():
    rel = _two_group_rel()
    catalog = compute_catalog(rel, ["g"], ["v"])
    plan = plan_l2(catalog, ["v"], 30)
    sample = draw_stratified(rel, plan, seed=7)
    request = QueryRequest(("g",), AVG, "v")
    by_group = {e.group: e.value for e in estimate(sample, request)}
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
    exact = exact_answer(rel, ["g"], "v", AVG)
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
    got = {e.group: e.value for e in estimate(sample, request)}
    exact = exact_answer(student_rel, ["major"], "age", AVG)
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
    (est,) = estimate(sample, QueryRequest((), AVG, "age"))
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
    for stratum in sample.strata:
        coarse = stratum.key.project(group_attrs)
        g = groups.setdefault(
            coarse, {"sum": 0.0, "count": 0.0, "support": 0, "sampled": False}
        )
        if stratum.size == 0:
            continue
        g["sampled"] = True
        rows = stratum.rows
        if matcher is not None:
            rows = [r for r in rows if matcher(r)]
        m = len(rows)
        if m == 0:
            continue
        factor = stratum.n / stratum.size
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
    for record, pr in zip(sample.rows, sample.p):
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


def _as_tuples(estimates):
    """Group, value, support and missing flag in order; values compare
    with ==."""
    return [(e.group, e.value, e.support, e.missing) for e in estimates]


def _same_estimates(sample, request):
    got = estimate(sample, request)
    assert _as_tuples(got) == _as_tuples(_ref_estimate(sample, request)), request
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
        assert list(got.items()) == list(want.items()), request
        assert all(type(v) is float for v in got.values())


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
    assert estimate(no_strata, QueryRequest((), COUNT)) == []
    empty_rel = Relation(SCHEMA_GHV, {"g": [], "h": [], "v": [], "w": []})
    for attrs in (("g",), ()):
        assert exact_answer(empty_rel, attrs, "v", AVG) == {}
        assert _ref_exact_answer(empty_rel, attrs, "v", AVG) == {}


def test_mask_agrees_with_reference_row_matcher():
    rng = np.random.default_rng(9)
    rel = _random_rel(rng, 200, 6, 3)
    records = [rel.record(r) for r in range(rel.n_rows)]
    for predicate in _random_predicates(rng)[1:]:
        matches = _ref_row_matcher(predicate, rel.schema)
        assert predicate.mask(rel).tolist() == [matches(r) for r in records]
