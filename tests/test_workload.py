import json

import numpy as np
import pytest

from gbsample.alloc import plan_l2
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, Relation
from gbsample.errors import EmptyProblem, InvalidDocument
from gbsample.query import Atom, Predicate
from gbsample.stats import compute_catalog
from gbsample.workload import (
    QuerySpec,
    derive_aggregation_groups,
    weights_from_frequencies,
    workload_from_json,
)

import reference
from reference import build_finest


def demo_workload():
    """Three queries: majors want age+gpa (20x), colleges want age+sat
    (10x), and majors within the Science college want gpa (15x)."""
    science = Predicate((Atom("college", "=", "Science"),))
    return [
        QuerySpec(("major",), ("age", "gpa"), None, 20),
        QuerySpec(("college",), ("age", "sat"), None, 10),
        QuerySpec(("major",), ("gpa",), science, 15),
    ]


def _freq_by_label(table):
    return dict(zip(zip(table.columns, table.values), table.frequencies))


def test_shared_entities_accumulate(student_rel):
    table = derive_aggregation_groups(student_rel, demo_workload())
    freqs = _freq_by_label(table)
    # the Science college contains exactly the CS and Math majors, so the
    # predicate does not change those groups' membership and the gpa
    # entities merge across the two major queries: 20 + 15
    assert freqs[("gpa", ("CS",))] == 35
    assert freqs[("gpa", ("Math",))] == 35
    # entities only the first query induces
    for major in ("CS", "Math", "EE", "ME"):
        assert freqs[("age", (major,))] == 20
    assert freqs[("gpa", ("EE",))] == 20
    assert freqs[("gpa", ("ME",))] == 20
    # college-level entities come from the second query alone
    for college in ("Science", "Engineering"):
        assert freqs[("age", (college,))] == 10
        assert freqs[("sat", (college,))] == 10


def test_frequency_conservation(student_rel):
    table = derive_aggregation_groups(student_rel, demo_workload())
    # sum over queries of repeats * occurring groups * columns:
    # 20*4*2 + 10*2*2 + 15*2*1
    assert table.total() == 160 + 40 + 30


def test_single_query_uniform_frequency(student_rel):
    table = derive_aggregation_groups(
        student_rel, [QuerySpec(("major",), ("age",), None, 7)]
    )
    assert set(table.frequencies) == {7}
    assert len(table) == 4


def test_predicate_restricts_membership(student_rel):
    engineering = Predicate((Atom("college", "=", "Engineering"),))
    unrestricted = derive_aggregation_groups(
        student_rel, [QuerySpec(("college",), ("age",), None, 1)]
    )
    restricted = derive_aggregation_groups(
        student_rel, [QuerySpec(("college",), ("age",), engineering, 1)]
    )
    # groups emptied by the predicate are not materialized
    assert len(restricted) == 1
    assert restricted.values == [("Engineering",)]
    full = dict(zip(unrestricted.values, unrestricted.members))
    assert restricted.members[0].tolist() == full[("Engineering",)].tolist() == [4, 5, 6, 7]
    # with no predicate a group's members are a read-only view of the
    # relation's stratification, not a copy
    order = student_rel.strata(("college",)).order
    assert all(np.shares_memory(m, order) for m in unrestricted.members)
    assert not any(m.flags.writeable for m in unrestricted.members + restricted.members)


def test_partial_predicate_splits_entity(student_rel):
    # a predicate that drops one row of a group produces a distinct entity
    young = Predicate((Atom("age", "<", 25.0),))
    table = derive_aggregation_groups(
        student_rel,
        [
            QuerySpec(("major",), ("gpa",), None, 3),
            QuerySpec(("major",), ("gpa",), young, 5),
        ],
    )
    freqs = _freq_by_label(table)
    # CS rows are ages 25 and 22: the restricted entity keeps one row, so
    # the two queries do not share it
    cs_entities = [
        (rows.tolist(), f)
        for values, rows, f in zip(table.values, table.members, table.frequencies)
        if values == ("CS",)
    ]
    assert sorted(cs_entities) == [([0, 1], 3), ([1], 5)]


def test_empty_workload_raises(student_rel):
    with pytest.raises(EmptyProblem):
        derive_aggregation_groups(student_rel, [])


def test_weights_identity_and_sqrt(student_rel):
    table = derive_aggregation_groups(student_rel, demo_workload())
    w_id = weights_from_frequencies(table)
    # query 0 (majors) sees the merged frequency for gpa of CS
    assert w_id.weight(0, ("CS",), "gpa") == 35.0
    # query 2 (the predicated one) sees the same shared weight
    assert w_id.weight(2, ("CS",), "gpa") == 35.0
    assert w_id.weight(0, ("EE",), "age") == 20.0
    assert w_id.weight(1, ("Science",), "sat") == 10.0
    w_sqrt = weights_from_frequencies(table, "sqrt")
    assert w_sqrt.weight(0, ("CS",), "gpa") == pytest.approx(35.0**0.5)
    with pytest.raises(ValueError):
        weights_from_frequencies(table, "log")


def test_uniform_frequencies_match_unweighted_plan(student_rel):
    table = derive_aggregation_groups(
        student_rel, [QuerySpec(("major",), ("age",), None, 9)]
    )
    weights = weights_from_frequencies(table)
    catalog = compute_catalog(student_rel, ["major"], ["age"])
    weighted = plan_l2(catalog, ["age"], 6, weights=weights)
    plain = plan_l2(catalog, ["age"], 6)
    assert weighted.fractional == pytest.approx(plain.fractional, rel=1e-12)


def test_workload_document_parses_to_its_queries():
    text = """[
      {"group_by": ["major"], "aggregates": ["age", "gpa"], "repeats": 20},
      {"group_by": ["college"], "aggregates": ["age", "sat"], "predicate": null, "repeats": 10},
      {"group_by": ["major"], "aggregates": ["gpa"], "repeats": 15,
       "predicate": [{"column": "college", "op": "=", "value": "Science"}]}
    ]"""
    assert workload_from_json(text) == demo_workload()


def test_allocation_inputs_count_shared_entities_once(student_rel):
    from gbsample.alloc import (
        GroupQuery,
        WeightSpec,
        plan_multi_groupby,
    )
    from gbsample.workload import allocation_inputs

    science = Predicate((Atom("college", "=", "Science"),))
    workload = [
        QuerySpec(("major",), ("gpa",), None, 20),
        QuerySpec(("major",), ("gpa",), science, 15),
    ]
    table = derive_aggregation_groups(student_rel, workload)
    queries, weights = allocation_inputs(table)
    # both workload queries collapse into one synthetic query
    assert queries == [GroupQuery(("major",), ("gpa",))]
    assert weights.weight(0, ("CS",), "gpa") == 35.0
    assert weights.weight(0, ("EE",), "gpa") == 20.0
    # never-queried combinations carry zero demand
    assert weights.weight(0, ("CS",), "age") == 0.0

    fs = build_finest(student_rel, queries)
    got = plan_multi_groupby(fs, 6, weights)
    manual = WeightSpec(
        {
            (0, ("CS",), "gpa"): 35.0,
            (0, ("Math",), "gpa"): 35.0,
            (0, ("EE",), "gpa"): 20.0,
            (0, ("ME",), "gpa"): 20.0,
        }
    )
    expect = plan_multi_groupby(build_finest(student_rel, queries), 6, manual)
    assert got.fractional == pytest.approx(expect.fractional, rel=1e-12)


def test_allocation_inputs_sqrt_transform(student_rel):
    from gbsample.alloc import GroupQuery
    from gbsample.workload import allocation_inputs

    table = derive_aggregation_groups(student_rel, demo_workload())
    queries, weights = allocation_inputs(table, "sqrt")
    qpos = queries.index(GroupQuery(("major",), ("gpa",)))
    assert weights.weight(qpos, ("CS",), "gpa") == pytest.approx(35.0**0.5)
    assert weights.weight(qpos, ("EE",), "gpa") == pytest.approx(20.0**0.5)


def test_workload_file_rejects_a_string_for_a_list():
    first = {"group_by": [], "aggregates": ["gpa"]}
    for field in ("group_by", "aggregates"):
        item = {"group_by": ["major"], "aggregates": ["age"], field: "age"}
        text = json.dumps([first, item])
        with pytest.raises(InvalidDocument, match=rf"w\.json: \[1\]\.{field}: "):
            workload_from_json(text, "w.json")
    with pytest.raises(InvalidDocument):
        workload_from_json(json.dumps([{"group_by": [1], "aggregates": ["age"]}]))


def test_groups_alike_in_size_and_ends_stay_apart():
    # g = p holds rows {0, 1, 3} and h = u rows {0, 2, 3}: the same count,
    # first and last row, but other members, so two entities; h = u under
    # v > 0 keeps all its rows, the same entity as h = u
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("h", CATEGORICAL),
              ColumnSchema("v", NUMERIC))
    rel = Relation.from_records(schema, [("p", "u", 1.0), ("p", "w", 2.0),
                                         ("q", "u", 3.0), ("p", "u", 4.0)])
    workload = [
        QuerySpec(("g",), ("v",), None, 2),
        QuerySpec(("h",), ("v",), None, 3),
        QuerySpec(("h",), ("v",), Predicate((Atom("v", ">", 0.0),)), 5),
    ]
    table = derive_aggregation_groups(rel, workload)
    assert [m.tolist() for m in table.members] == [[0, 1, 3], [2], [0, 2, 3], [1]]
    assert table.frequencies == [2, 2, 8, 8]
    got = list(zip(table.columns, table.attrs, table.values, [m.tolist() for m in table.members],
                   table.frequencies, table.inducers))
    assert got == reference.aggregation_groups(rel, workload)
