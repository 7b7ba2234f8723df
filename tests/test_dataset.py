import numpy as np
import pytest
from hypothesis import given, strategies as st

from gbsample.dataset import (
    CATEGORICAL,
    NULL_TOKEN,
    NUMERIC,
    ColumnSchema,
    GroupKey,
    Relation,
    load_csv,
    segments,
    stratum_ids,
)
from gbsample.errors import (
    EmptyFile,
    MissingColumn,
    NotASubset,
    TypeParseError,
    UnknownAttribute,
)

from conftest import STUDENT_SCHEMA
from reference import partition, project_key


def test_load_csv_student(student_csv):
    rel = load_csv(student_csv, STUDENT_SCHEMA)
    assert rel.n_rows == 8
    assert rel.numeric("age")[0] == 25.0
    assert rel.categorical("major")[2] == "Math"


def test_load_csv_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,age\n", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_csv(path, (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC)))


def test_load_csv_no_header(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_csv(path, (ColumnSchema("id", CATEGORICAL),))


def test_load_csv_bad_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,age\nx,abc\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC))
    with pytest.raises(TypeParseError) as err:
        load_csv(path, schema)
    assert err.value.column == "age"
    assert err.value.row == 0


def test_load_csv_missing_numeric_cell_is_error(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("id,age\nx,\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC))
    with pytest.raises(TypeParseError):
        load_csv(path, schema)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("id\nx\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC))
    with pytest.raises(MissingColumn):
        load_csv(path, schema)


def test_load_csv_trims_and_nulls(tmp_path):
    path = tmp_path / "trim.csv"
    path.write_text("id,grp\n1,  CS \n2,\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("grp", CATEGORICAL))
    rel = load_csv(path, schema)
    assert rel.categorical("grp") == ["CS", NULL_TOKEN]
    # the null token forms its own stratum
    assert len(partition(rel, ["grp"])) == 2


def test_partition_by_major(student_rel):
    buckets = partition(student_rel, ["major"])
    assert len(buckets) == 4
    sizes = {key.values[0]: len(rows) for key, rows in buckets.items()}
    assert sizes == {"CS": 2, "Math": 2, "EE": 2, "ME": 2}


def test_partition_injective_key(student_rel):
    buckets = partition(student_rel, ["id"])
    assert len(buckets) == 8
    assert all(len(rows) == 1 for rows in buckets.values())


def test_partition_major_college(student_rel):
    buckets = partition(student_rel, ["major", "college"])
    got = {key.values for key in buckets}
    assert got == {
        ("CS", "Science"),
        ("Math", "Science"),
        ("EE", "Engineering"),
        ("ME", "Engineering"),
    }
    assert all(len(rows) == 2 for rows in buckets.values())


def test_partition_empty_attrs(student_rel):
    buckets = partition(student_rel, [])
    assert list(buckets) == [GroupKey((), ())]
    assert buckets[GroupKey((), ())] == list(range(8))


def test_partition_unknown_attribute(student_rel):
    with pytest.raises(UnknownAttribute):
        partition(student_rel, ["age"])  # numeric column
    with pytest.raises(UnknownAttribute):
        partition(student_rel, ["nope"])
    with pytest.raises(UnknownAttribute):
        stratum_ids(student_rel, ["major", "age"])


def test_project_key_basic():
    key = GroupKey(("major", "year", "zipcode"), ("CS", "2020", "50011"))
    assert project_key(key, ["major", "year"]) == GroupKey(
        ("major", "year"), ("CS", "2020")
    )
    assert project_key(key, key.attrs) == key
    assert project_key(key, ["zipcode"]) == GroupKey(("zipcode",), ("50011",))


def test_project_key_not_subset():
    key = GroupKey(("major",), ("CS",))
    with pytest.raises(NotASubset):
        project_key(key, ["college"])


def test_group_key_validation():
    with pytest.raises(ValueError):
        GroupKey(("a", "b"), ("x",))
    assert str(GroupKey((), ())) == "(*)"
    assert str(GroupKey(("m",), ("CS",))) == "(m=CS)"


def test_relation_construction_errors():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    with pytest.raises(ValueError):
        Relation(schema, {"g": ["a", "b"], "v": [1.0]})
    dup = (ColumnSchema("g", CATEGORICAL), ColumnSchema("g", CATEGORICAL))
    with pytest.raises(ValueError):
        Relation(dup, {"g": ["a"]})
    with pytest.raises(ValueError):
        ColumnSchema("x", "text")


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("id,age\nx,nan\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC))
    with pytest.raises(TypeParseError):
        load_csv(path, schema)


# ---------------------------------------------------------------------------
# properties

_rows = st.lists(
    st.tuples(
        st.sampled_from("abcd"),
        st.sampled_from("xyz"),
        st.floats(-100, 100, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _rel_from(rows):
    schema = (
        ColumnSchema("g1", CATEGORICAL),
        ColumnSchema("g2", CATEGORICAL),
        ColumnSchema("v", NUMERIC),
    )
    return Relation.from_records(schema, rows)


@given(_rows)
def test_partition_is_disjoint_cover(rows):
    rel = _rel_from(rows)
    for attrs in ([], ["g1"], ["g2"], ["g1", "g2"], ["g2", "g1"]):
        buckets = partition(rel, attrs)
        seen = [r for rows_ in buckets.values() for r in rows_]
        assert sorted(seen) == list(range(rel.n_rows))
        assert all(rows_ for rows_ in buckets.values())
        # stratum ids number the same strata in the same order
        ids, values = stratum_ids(rel, attrs)
        assert values == [key.values for key in buckets]
        assert [list(np.flatnonzero(ids == k)) for k in range(len(values))] == list(
            buckets.values()
        )


@given(_rows)
def test_partition_refinement(rows):
    """Every (g1, g2) stratum sits inside exactly the g1 stratum that
    project_key names."""
    rel = _rel_from(rows)
    fine = partition(rel, ["g1", "g2"])
    coarse = partition(rel, ["g1"])
    for key, members in fine.items():
        target = project_key(key, ["g1"])
        assert set(members) <= set(coarse[target])


@given(_rows, st.data())
def test_take_gathers_rows_and_renumbers_codes(rows, data):
    """``take`` holds the chosen rows in the chosen order, with codes
    renumbered by first occurrence among them, so ``stratum_ids`` on the
    taken relation numbers its strata as on the same rows built afresh."""
    rel = _rel_from(rows)
    chosen = data.draw(st.lists(st.integers(0, rel.n_rows - 1), max_size=30))
    taken = rel.take(chosen)
    afresh = Relation.from_records(rel.schema, rel.records(chosen))
    assert len(taken) == len(chosen)
    assert taken.records(range(len(chosen))) == afresh.records(range(len(chosen)))
    for name in ("g1", "g2"):
        assert taken.encoded(name).codes.tolist() == afresh.encoded(name).codes.tolist()
        assert taken.encoded(name).levels == afresh.encoded(name).levels
    for attrs in ([], ["g1"], ["g2", "g1"]):
        got, want = stratum_ids(taken, attrs), stratum_ids(afresh, attrs)
        assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])


_KEY_TEXT = st.sampled_from(["a", "", ",", "a,b", "|", "x|y", "Zürich", "東京", NULL_TOKEN])
_GROUPED = (
    ColumnSchema("g1", CATEGORICAL),
    ColumnSchema("g2", CATEGORICAL),
    ColumnSchema("g3", CATEGORICAL),
    ColumnSchema("v", NUMERIC),
)


@given(
    st.lists(st.tuples(_KEY_TEXT, _KEY_TEXT, _KEY_TEXT, st.just(1.0)), min_size=1, max_size=40),
    st.data(),
)
def test_strata_equal_the_uncached_kernels(rows, data):
    """``Relation.strata`` holds exactly what ``stratum_ids`` and
    ``segments`` compute, for every grouping in every attribute order, on
    relations built from records and made by ``take``."""
    rel = Relation.from_records(_GROUPED, rows)
    taken = rel.take(data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=30)))
    groupings = [(), ("g1",), ("g2", "g1"), ("g1", "g2", "g3"), ("g3", "g1", "g2")]
    groupings.append(data.draw(st.permutations(["g1", "g2", "g3"])))
    groupings.append(data.draw(st.lists(st.sampled_from(["g1", "g2", "g3"]), unique=True)))
    for r in (rel, taken):
        for attrs in groupings:
            ids, keys = stratum_ids(r, attrs)
            order, bounds = segments(ids, len(keys))
            got = r.strata(attrs)
            assert got.keys == tuple(keys)
            for have, want in ((got.ids, ids), (got.order, order), (got.bounds, bounds)):
                assert have.dtype == want.dtype and have.tolist() == want.tolist()
            assert r.strata(list(attrs)) is got


def test_strata_are_read_only_and_computed_once(student_rel):
    for attrs in ((), ("major",), ("major", "college")):
        strata = student_rel.strata(attrs)
        assert student_rel.strata(list(attrs)) is strata
        assert isinstance(strata.keys, tuple)
        for arr in (strata.ids, strata.order, strata.bounds):
            with pytest.raises(ValueError):
                arr[0] = 1
    assert student_rel.strata(("college", "major")) is not student_rel.strata(
        ("major", "college")
    )


def test_strata_of_an_unknown_attribute_raise_on_every_call(student_rel):
    for attrs in (("nope",), ("major", "nope"), ("age",), ("college", "gpa")):
        for _ in range(2):
            with pytest.raises(UnknownAttribute):
                student_rel.strata(attrs)
    assert student_rel._memo == {}


def test_a_relation_without_columns_keeps_its_row_count():
    rel = Relation((), {}, 3)
    assert len(rel) == 3 and rel.records(range(3)) == [(), (), ()]
    assert len(Relation.from_records((), [(), ()])) == 2
    assert len(_rel_from([("a", "x", 1.0)] * 4).take([0, 2])) == 2
    with pytest.raises(ValueError):
        Relation((ColumnSchema("v", NUMERIC),), {"v": [1.0]}, 2)
