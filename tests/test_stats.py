import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gbsample import stats
from gbsample.alloc import cv2_costs
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, GroupKey, Relation
from gbsample.errors import UnknownAttribute, UnknownColumn
from gbsample.stats import (
    StatsCatalog,
    catalog_from_json,
    catalog_to_json,
    compute_catalog,
    pool_catalog,
    std_of,
)

import reference
from reference import EMPTY_MOMENTS, RunningMoments, accumulate, from_values, merge


def test_accumulate_two_points():
    m = accumulate(accumulate(EMPTY_MOMENTS, 25.0), 22.0)
    assert m.count == 2
    assert m.mean == pytest.approx(23.5)
    assert m.m2 == pytest.approx(4.5)


def test_accumulate_single_point():
    m = accumulate(EMPTY_MOMENTS, 7.0)
    assert (m.count, m.mean, m.m2) == (1, 7.0, 0.0)
    assert m.std == 0.0


def test_accumulate_constant_stream():
    m = EMPTY_MOMENTS
    for _ in range(9):
        m = accumulate(m, 3.25)
    assert m.m2 == 0.0
    assert m.mean == 3.25


def test_merge_identity():
    m = from_values([1.0, 2.0, 4.0])
    assert merge(m, EMPTY_MOMENTS) == m
    assert merge(EMPTY_MOMENTS, m) == m


def test_merge_two_points():
    merged = merge(from_values([25.0]), from_values([22.0]))
    whole = from_values([25.0, 22.0])
    assert merged.count == whole.count
    assert merged.mean == pytest.approx(whole.mean)
    assert merged.m2 == pytest.approx(whole.m2)


def test_merge_random_splits_matches_whole_stream():
    rng = np.random.default_rng(7)
    values = rng.normal(50.0, 12.0, size=1000)
    whole = from_values(values)
    for cut in (1, 137, 500, 999):
        merged = merge(from_values(values[:cut]), from_values(values[cut:]))
        assert merged.count == 1000
        assert merged.mean == pytest.approx(whole.mean, rel=1e-9)
        assert merged.m2 == pytest.approx(whole.m2, rel=1e-9)


@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=0, max_size=40),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=0, max_size=40),
)
def test_merge_equals_concatenation(xs, ys):
    merged = merge(from_values(xs), from_values(ys))
    whole = from_values(xs + ys)
    assert merged.count == whole.count
    assert merged.mean == pytest.approx(whole.mean, abs=1e-9)
    assert merged.m2 == pytest.approx(whole.m2, rel=1e-6, abs=1e-6)


def test_catalog_student_major_age(student_rel):
    catalog = compute_catalog(student_rel, ["major"], ["age"])
    k = catalog.keys.index(("CS",))
    assert catalog.n[k] == 2
    mean, std = catalog.mean["age"][k], catalog.std["age"][k]
    assert mean == pytest.approx(23.5)
    assert std == pytest.approx(math.sqrt(4.5))
    assert std / abs(mean) == pytest.approx(math.sqrt(4.5) / 23.5)
    assert std / abs(mean) == pytest.approx(0.09027, abs=5e-6)
    assert catalog.total_n == 8
    assert catalog.n.sum() == 8
    # the package's one CV formula reads the same arrays
    assert cv2_costs(catalog, ["age"])[0][k] == (std / abs(mean)) ** 2


def test_moments_equal_the_reference_bit_for_bit():
    """Strata of every size from 1 to 300 (twice, across the 8- and
    128-element blocks of numpy's pairwise sum) and above 10000, rows
    interleaved, values over twelve orders of magnitude; strata holding
    values near +-1.7e308 overflow to an infinite or NaN mean or std, with
    no RuntimeWarning (which fails the suite)."""
    rng = np.random.default_rng(25)
    sizes = [*range(1, 301), *range(1, 301), 10_001, 10_001, 12_345]
    groups = np.repeat(np.arange(len(sizes)), sizes)
    values = rng.normal(size=len(groups)) * 10.0 ** rng.uniform(-6, 6, size=len(groups))
    huge = np.isin(groups, rng.choice(len(sizes), size=60, replace=False))
    values[huge] = rng.choice([1.7e308, -1.7e308, 1.0], size=int(huge.sum()))
    order = rng.permutation(len(groups))
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation(schema, {"g": [f"s{g}" for g in groups[order].tolist()], "v": values[order]})
    catalog = compute_catalog(rel, ["g"], ["v"])
    with np.errstate(all="ignore"):
        want = reference.catalog_summaries(rel, ["g"], ["v"])
    assert list(want) == catalog.group_keys()
    for field, got in (("mean", catalog.mean["v"]), ("std", catalog.std["v"])):
        expected = np.array([getattr(stratum, field)["v"] for stratum in want.values()])
        assert got.tobytes() == expected.tobytes(), field
    # the data reach both overflow outcomes
    for moment in (catalog.mean["v"], catalog.std["v"]):
        assert np.isinf(moment).any() and np.isnan(moment).any()


def test_catalog_single_row_stratum():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(schema, [("a", 5.0)])
    catalog = compute_catalog(rel, ["g"], ["v"])
    assert catalog.keys == [("a",)] and catalog.n.tolist() == [1]
    assert catalog.std["v"].tolist() == [0.0]
    assert cv2_costs(catalog, ["v"])[0].tolist() == [0.0]


def test_catalog_zero_mean_flag():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(schema, [("a", 5.0), ("a", -5.0)])
    catalog = compute_catalog(rel, ["g"], ["v"])
    assert catalog.mean["v"].tolist() == [0.0]
    costs, first_zero = cv2_costs(catalog, ["v"])
    # flagged as zero-mean in column 0, and no CV added for it
    assert first_zero.tolist() == [0]
    assert costs.tolist() == [0.0]


def test_catalog_unknown_names(student_rel, computed_catalogs):
    """An unknown name raises on every call: a failed catalog is not kept,
    nor the moments of an unknown column; those of a known one are."""
    for attrs, columns, error in (
        (["nope"], ["age"], UnknownAttribute),
        (["major"], ["major"], UnknownColumn),
        (["major"], ["age", "nope"], UnknownColumn),
    ):
        for _ in range(2):
            with pytest.raises(error):
                compute_catalog(student_rel, attrs, columns)
    major = ("major",)
    assert computed_catalogs == [
        (major, "major"), (major, "major"), (major, "age"), (major, "nope"), (major, "nope")
    ]
    assert not [key for key in student_rel._memo if key[0] is stats._compute_catalog]


def test_rescaling_column_leaves_cv_unchanged(student_rel):
    base = compute_catalog(student_rel, ["major"], ["age"])
    c = 7.25
    scaled_rows = [
        (r[0], r[1] * c, r[2], r[3], r[4], r[5])
        for r in zip(*[student_rel.categorical("id"),
                       student_rel.numeric("age"),
                       student_rel.numeric("gpa"),
                       student_rel.numeric("sat"),
                       student_rel.categorical("major"),
                       student_rel.categorical("college")])
    ]
    rel2 = Relation.from_records(student_rel.schema, scaled_rows)
    scaled = compute_catalog(rel2, ["major"], ["age"])
    assert scaled.keys == base.keys
    a_mean, a_std = base.mean["age"], base.std["age"]
    b_mean, b_std = scaled.mean["age"], scaled.std["age"]
    assert b_mean == pytest.approx(c * a_mean, rel=1e-12)
    assert b_std == pytest.approx(c * a_std, rel=1e-12)
    assert b_std / np.abs(b_mean) == pytest.approx(a_std / np.abs(a_mean), rel=1e-12)


@given(
    st.lists(
        st.tuples(
            st.sampled_from("abc"),
            st.sampled_from("uv"),
            st.floats(1, 100, allow_nan=False),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_pooled_catalog_reproduces_coarse(rows):
    """Union-attribute statistics aggregated up equal the direct coarse
    computation (supports stratifying by the union of all groupings)."""
    schema = (
        ColumnSchema("g1", CATEGORICAL),
        ColumnSchema("g2", CATEGORICAL),
        ColumnSchema("v", NUMERIC),
    )
    rel = Relation.from_records(schema, rows)
    fine = compute_catalog(rel, ["g1", "g2"], ["v"])
    pooled = pool_catalog(fine, ["g1"])
    direct = compute_catalog(rel, ["g1"], ["v"])
    assert pooled.group_attrs == direct.group_attrs == ("g1",)
    assert pooled.keys == direct.keys
    assert pooled.n.tolist() == direct.n.tolist()
    assert pooled.mean["v"] == pytest.approx(direct.mean["v"], rel=1e-9, abs=1e-9)
    assert pooled.std["v"] == pytest.approx(direct.std["v"], rel=1e-7, abs=1e-7)


def test_catalog_json_round_trip(student_rel):
    catalog = compute_catalog(student_rel, ["major", "college"], ["age", "gpa"])
    text = catalog_to_json(catalog)
    back = catalog_from_json(text)
    assert back.group_attrs == catalog.group_attrs
    assert back.agg_columns == catalog.agg_columns
    assert back.total_n == catalog.total_n
    assert back.keys == catalog.keys
    assert back.n.tolist() == catalog.n.tolist()
    for col in catalog.agg_columns:
        # json writes each float's shortest round-trip text: exact
        assert back.mean[col].tolist() == catalog.mean[col].tolist()
        assert back.std[col].tolist() == catalog.std[col].tolist()


def test_entries_view_matches_the_arrays(student_rel):
    """The ``GroupKey -> StratumStats`` view, read only by the benchmark,
    holds the arrays' values stratum by stratum, in catalog order."""
    catalog = compute_catalog(student_rel, ["major", "college"], ["age", "gpa"])
    view = catalog.entries
    assert list(view) == [GroupKey(("major", "college"), k) for k in catalog.keys]
    for k, (key, st) in enumerate(view.items()):
        assert st.key == key and type(st.n) is int and st.n == catalog.n[k]
        assert list(st.per_column) == ["age", "gpa"]
        for col, summary in st.per_column.items():
            assert (summary.mean, summary.std) == (catalog.mean[col][k], catalog.std[col][k])
            assert type(summary.mean) is float and type(summary.std) is float
    with pytest.raises(TypeError):
        view[key] = st  # read-only


def test_column_summary_cv_sign():
    catalog = StatsCatalog(("g",), ("v",), [("a",)], [4], {"v": [-10.0]}, {"v": [5.0]}, 4)
    costs, first_zero = cv2_costs(catalog, ["v"])
    assert costs.tolist() == [0.25] and first_zero.tolist() == [-1]


def test_std_of_matches_the_scalar_moments():
    """``std_of`` is ``RunningMoments.std`` elementwise, bit for bit,
    including 0 for one row and for none."""
    n = [0, 1, 2, 3, 7, 1000]
    m2 = [0.0, 0.0, 4.5, 1e-300, 2.0 / 3.0, 123456.789]
    want = [RunningMoments(c, 0.0, m).std for c, m in zip(n, m2)]
    assert std_of(np.array(n), m2).tolist() == want


def test_a_catalog_leaves_its_arguments_as_given():
    """The catalog keeps read-only copies: the caller's dicts still hold
    their own lists and arrays, unchanged and writable."""
    n = np.array([2, 3])
    mean = {"v": [1.0, 2.0], "w": np.array([3.0, 4.0])}
    std = {"v": [0.5, 0.25], "w": np.array([0.0, 1.0])}
    catalog = StatsCatalog(("g",), ("v", "w"), [("a",), ("b",)], n, mean, std, 5)
    assert type(mean["v"]) is list and type(std["v"]) is list
    assert mean["v"] == [1.0, 2.0] and std["v"] == [0.5, 0.25]
    for arr in (n, mean["w"], std["w"]):
        assert arr.flags.writeable
    n[0] = mean["w"][0] = std["w"][0] = 9
    assert catalog.n.tolist() == [2, 3]
    assert catalog.mean["w"].tolist() == [3.0, 4.0] and catalog.std["w"].tolist() == [0.0, 1.0]
    for arr in (catalog.n, *catalog.mean.values(), *catalog.std.values()):
        assert not arr.flags.writeable



def _same_values(a, b):
    assert (a.group_attrs, a.agg_columns, a.keys, a.total_n) == (
        b.group_attrs, b.agg_columns, b.keys, b.total_n
    )
    assert a.n.tobytes() == b.n.tobytes()
    for col in a.agg_columns:
        assert a.mean[col].tobytes() == b.mean[col].tobytes()
        assert a.std[col].tobytes() == b.std[col].tobytes()


def test_a_relation_computes_each_catalog_once(student_rel, computed_catalogs):
    """The same relation, grouping and columns, given as lists or tuples,
    return the one read-only catalog, and with it the pooled catalogs it keeps."""
    catalog = compute_catalog(student_rel, ["major", "college"], ["age", "gpa"])
    assert compute_catalog(student_rel, ("major", "college"), ("age", "gpa")) is catalog
    assert compute_catalog(student_rel, ["major", "college"], ["age", "gpa"]) is catalog
    assert computed_catalogs == [(("major", "college"), "age"), (("major", "college"), "gpa")]
    assert pool_catalog(catalog, ["college"]) is pool_catalog(
        compute_catalog(student_rel, ["major", "college"], ["age", "gpa"]), ("college",)
    )
    assert catalog.pooled(["major"]) is catalog.pooled(("major",))
    assert not catalog.n.flags.writeable and not catalog.mean["age"].flags.writeable


def test_another_grouping_columns_or_relation_gets_its_own_catalog(student_rel):
    attrs, columns = ("major", "college"), ("age", "gpa")
    catalog = compute_catalog(student_rel, attrs, columns)
    copy = student_rel.take(np.arange(student_rel.n_rows))
    for other in (
        (attrs, columns),
        (attrs, columns[::-1]),
        (attrs[::-1], columns),
        (("college",), columns),
        (attrs, ("age",)),
    ):
        mine, fresh = compute_catalog(student_rel, *other), compute_catalog(copy, *other)
        assert (mine is catalog) == (other == (attrs, columns)) and fresh is not mine
        _same_values(mine, fresh)


def test_a_catalog_over_fewer_columns_computes_no_moment_again(student_rel, computed_catalogs):
    """After an ``(age, gpa)`` catalog, the ``(age,)`` and ``(gpa, age)``
    catalogs of the same grouping are assembled from the kept moments, and
    every one of them equals a catalog computed afresh."""
    copy = student_rel.take(np.arange(student_rel.n_rows))
    attrs = ("major", "college")
    catalogs = [
        compute_catalog(student_rel, attrs, columns)
        for columns in (("age", "gpa"), ("age",), ("gpa", "age"))
    ]
    assert computed_catalogs == [(attrs, "age"), (attrs, "gpa")]
    for catalog in catalogs:
        _same_values(catalog, compute_catalog(copy, attrs, catalog.agg_columns))
    compute_catalog(student_rel, ("college",), ("age",))
    assert computed_catalogs[-1] == (("college",), "age")
