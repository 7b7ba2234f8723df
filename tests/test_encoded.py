"""The encoded relation and the sort-and-segment stratum kernel against the
row-at-a-time reference forms in ``reference.py``, compared with ``==``."""

import csv
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gbsample.baselines import alloc_senate
from gbsample.dataset import (
    CATEGORICAL,
    NULL_TOKEN,
    NUMERIC,
    ColumnSchema,
    Encoded,
    GroupKey,
    Relation,
    encode,
    load_csv,
    segments,
    stratum_ids,
)
from gbsample.query import Atom, Predicate
from gbsample.sampler import draw_stratified
from gbsample.stats import compute_catalog
from gbsample.workload import QuerySpec, derive_aggregation_groups

import reference

SCHEMA = (
    ColumnSchema("g", CATEGORICAL),
    ColumnSchema("v", NUMERIC),
    ColumnSchema("h", CATEGORICAL),
    ColumnSchema("k", CATEGORICAL),
)

#: keys with the CSV separator, the old key separator, non-ASCII text,
#: blanks to trim and empty text
TEXT = ["a", "a,b", "a|b", "ä", "日本語", " x ", "", "⟨null⟩ "]

GROUPINGS = [(), ("g",), ("h", "g"), ("g", "h", "k"), ("k", "g"), ("k",)]

_rows = st.lists(
    st.tuples(
        st.sampled_from(TEXT),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.sampled_from(TEXT[:4]),
        st.sampled_from(TEXT[3:]),
    ),
    min_size=0,
    max_size=40,
)


def _from_csv(rows):
    """The rows written as CSV and loaded back, with the cells load_csv
    trims or maps to the null token."""
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([c.name for c in SCHEMA])
            writer.writerows([g, repr(v), h, k] for g, v, h, k in rows)
        return load_csv(path, SCHEMA)
    finally:
        os.remove(path)


def _cleaned(value):
    return value.strip() or NULL_TOKEN


def _check_kernels(rel):
    """Every stratum kernel equals its reference form on ``rel``."""
    for attrs in GROUPINGS:
        ids, values = stratum_ids(rel, attrs)
        buckets = reference.partition(rel, attrs)
        assert values == [key.values for key in buckets]
        assert [np.flatnonzero(ids == k).tolist() for k in range(len(values))] == list(
            buckets.values()
        )
        order, bounds = segments(ids, len(values))
        assert [
            order[lo:hi].tolist() for lo, hi in zip(bounds[:-1], bounds[1:])
        ] == list(buckets.values())

        catalog = compute_catalog(rel, attrs, ["v"])
        assert list(catalog.entries.items()) == list(
            reference.catalog_entries(rel, attrs, ["v"]).items()
        )

        if rel.n_rows:
            plan = alloc_senate(catalog, max(rel.n_rows // 2, 1))
            sample = draw_stratified(rel, plan, seed=3)
            got = [(s.key, s.n, s.size, s.row_ids, s.rows) for s in sample.strata]
            assert got == reference.draw(rel, plan, 3)

    workload = [
        QuerySpec(("g",), ("v",), None, 2),
        QuerySpec(("h", "g"), ("v",), Predicate((Atom("k", "!=", "ä"),)), 3),
        QuerySpec((), ("v",), Predicate((Atom("v", ">", 0.0),))),
        QuerySpec(("k", "h"), ("v",), Predicate((Atom("g", "=", "a|b"),))),
    ]
    table = derive_aggregation_groups(rel, workload)
    got = [
        (e.column, e.group, e.member_rows, f, table.inducers[e])
        for e, f in table.frequencies.items()
    ]
    assert got == reference.aggregation_groups(rel, workload)


@given(_rows)
def test_kernels_match_the_reference_on_a_relation_from_lists(rows):
    rel = Relation.from_records(SCHEMA, rows)
    assert rel.categorical("g") == [r[0] for r in rows]
    _check_kernels(rel)


@given(_rows.filter(bool))
def test_kernels_match_the_reference_on_a_loaded_csv(rows):
    rel = _from_csv(rows)
    assert rel.categorical("g") == [_cleaned(r[0]) for r in rows]
    assert rel.categorical("k") == [_cleaned(r[3]) for r in rows]
    assert rel.numeric("v").tolist() == [r[1] for r in rows]
    _check_kernels(rel)


def test_kernels_match_the_reference_on_large_strata():
    # strata of hundreds of rows run numpy's blocked pairwise summation
    rng = np.random.default_rng(4)
    n = 3000
    rel = Relation(
        SCHEMA,
        {
            "g": rng.choice(TEXT[:3], size=n).tolist(),
            "v": rng.lognormal(3.0, 1.0, size=n),
            "h": rng.choice(TEXT[3:5], size=n).tolist(),
            "k": rng.choice(TEXT, size=n, p=[0.6] + [0.4 / 7] * 7).tolist(),
        },
    )
    _check_kernels(rel)


def test_kernels_on_a_zero_row_relation():
    rel = Relation(SCHEMA, {"g": [], "v": [], "h": [], "k": []})
    _check_kernels(rel)
    ids, values = stratum_ids(rel, ())
    assert ids.shape == (0,) and values == [()]
    ids, values = stratum_ids(rel, ("g", "h"))
    assert ids.shape == (0,) and values == []
    catalog = compute_catalog(rel, (), ["v"])
    assert [(st.key, st.n) for st in catalog.entries.values()] == [(GroupKey((), ()), 0)]


def test_stratum_ids_compact_past_the_int64_range():
    # c1..c8 hold 256 levels each, so c0's radix weight is 256**8 = 2**64:
    # mixed-radix ids that were not compacted after each attribute would
    # wrap and merge the rows that differ only in c0
    names = [f"c{i}" for i in range(9)]
    schema = tuple(ColumnSchema(a, CATEGORICAL) for a in names) + (
        ColumnSchema("v", NUMERIC),
    )
    columns = {a: [f"{a}-{r % 256}" for r in range(512)] for a in names[1:]}
    columns["c0"] = ["p" if r < 256 else "q" for r in range(512)]
    columns["v"] = np.arange(512.0)
    rel = Relation(schema, columns)
    assert math.prod(len(rel.encoded(a).levels) for a in names) > 2**63
    for attrs in (names, names[::-1], names[1:] + names[:1]):
        ids, values = stratum_ids(rel, attrs)
        assert len(values) == 512
        buckets = reference.partition(rel, attrs)
        assert values == [key.values for key in buckets]
        assert [np.flatnonzero(ids == k).tolist() for k in range(len(values))] == list(
            buckets.values()
        )
    # rows that repeat still share a stratum after the compaction
    doubled = Relation(schema, {a: list(columns[a]) * 2 for a in names + ["v"]})
    ids, values = stratum_ids(doubled, names)
    assert (ids[:512] == ids[512:]).all() and len(values) == 512


def test_encoded_columns_are_codes_plus_first_occurrence_levels():
    rel = Relation.from_records(
        SCHEMA, [("b", 1.0, "x", "u"), ("a", 2.0, "x", "u"), ("b", 3.0, "y", "u")]
    )
    codes, levels = rel.encoded("g")
    assert codes.tolist() == [0, 1, 0] and levels == ("b", "a")
    assert rel.codes("g") is codes and not codes.flags.writeable
    assert rel.categorical("g") == ["b", "a", "b"]
    assert rel.record(2) == ("b", 3.0, "y", "u")
    assert rel.records([2, 0]) == [("b", 3.0, "y", "u"), ("b", 1.0, "x", "u")]
    # an encoded column passes through the constructor unchanged
    columns = {
        "g": encode(["b", "a", "b"]),
        "v": [1.0, 2.0, 3.0],
        "h": ["x", "x", "y"],
        "k": Encoded(rel.codes("k"), ("u",)),
    }
    same = Relation(SCHEMA, columns)
    assert same.records(range(3)) == rel.records(range(3))


def test_load_csv_keeps_no_string_per_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("g,v,h,k\nCS,1,x,\n CS ,2,,u\nMath,3,x,u\n", encoding="utf-8")
    rel = load_csv(path, SCHEMA)
    assert rel.codes("g").tolist() == [0, 0, 1]
    assert rel.encoded("g").levels == ("CS", "Math")
    assert rel.encoded("h").levels == ("x", NULL_TOKEN)
    assert rel.encoded("k").levels == (NULL_TOKEN, "u")
    assert rel.codes("g").dtype == np.intp


@pytest.mark.parametrize(
    "atom",
    [
        Atom("g", "=", "absent"),
        Atom("g", "!=", "absent"),
        Atom("g", "=", 1),
        Atom("g", "!=", 1),
        Atom("g", "=", None),
        Atom("g", "=", "a,b"),
        Atom("g", "!=", "日本語"),
    ],
)
def test_categorical_mask_compares_codes_like_values(atom):
    rows = [(g, float(i), "h", "k") for i, g in enumerate(TEXT + ["1", "a,b"])]
    for rel in (Relation.from_records(SCHEMA, rows), _from_csv(rows)):
        hit = [v == atom.value for v in rel.categorical("g")]
        want = np.array(hit if atom.op == "=" else [not h for h in hit], dtype=bool)
        got = Predicate((atom,)).mask(rel)
        assert got.dtype == bool and got.tolist() == want.tolist()
