"""The encoded relation, the sort-and-segment stratum kernel and the array
catalog's pooling and cost kernels against the row-at-a-time and
dict-per-stratum reference forms in ``reference.py``, compared with
``==``."""

import csv
import itertools
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gbsample.alloc import (
    UNIT_WEIGHTS,
    GroupQuery,
    WeightSpec,
    cv_costs,
    finest_from_catalog,
    floor_zero_costs,
    multi_grouping_costs,
    plan_individual,
    plan_l2,
    plan_linf,
)
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
from gbsample.errors import (
    GbsampleError,
    NotASubset,
    ZeroMeanCoarseGroup,
    ZeroMeanError,
    ZeroMeanGroup,
    ZeroMeanStratum,
)
from gbsample.query import Atom, Predicate
from gbsample.sampler import draw_stratified
from gbsample.stats import (
    StatsCatalog,
    catalog_from_json,
    catalog_to_json,
    compute_catalog,
    pool_catalog,
)
from gbsample.workload import (
    QuerySpec,
    allocation_inputs,
    derive_aggregation_groups,
    weights_from_frequencies,
)

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
        assert _items(catalog) == list(reference.catalog_summaries(rel, attrs, ["v"]).items())

        if rel.n_rows:
            plan = alloc_senate(catalog, max(rel.n_rows // 2, 1))
            sample = draw_stratified(rel, plan, seed=3)
            assert reference.stratum_lists(sample) == reference.draw(rel, plan, 3)

    workload = [
        QuerySpec(("g",), ("v",), None, 2),
        QuerySpec(("h", "g"), ("v",), Predicate((Atom("k", "!=", "ä"),)), 3),
        QuerySpec((), ("v",), Predicate((Atom("v", ">", 0.0),))),
        QuerySpec(("k", "h"), ("v",), Predicate((Atom("g", "=", "a|b"),))),
    ]
    table = derive_aggregation_groups(rel, workload)
    got = list(
        zip(
            table.columns,
            table.attrs,
            table.values,
            [m.tolist() for m in table.members],
            table.frequencies,
            table.inducers,
        )
    )
    assert got == reference.aggregation_groups(rel, workload)
    assert not any(m.flags.writeable for m in table.members)


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
    # no rows, no strata: under () as under any other attributes
    for attrs in ((), ("g", "h")):
        ids, values = stratum_ids(rel, attrs)
        assert ids.shape == (0,) and values == []
        catalog = compute_catalog(rel, attrs, ["v"])
        assert catalog.keys == [] and catalog.n.tolist() == []
        assert catalog.mean["v"].tolist() == catalog.std["v"].tolist() == []


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
    assert rel.encoded("g").codes is codes and not codes.flags.writeable
    assert rel.categorical("g") == ["b", "a", "b"]
    assert rel.records([2, 0]) == [("b", 3.0, "y", "u"), ("b", 1.0, "x", "u")]
    # an encoded column passes through the constructor unchanged
    columns = {
        "g": encode(["b", "a", "b"]),
        "v": [1.0, 2.0, 3.0],
        "h": ["x", "x", "y"],
        "k": Encoded(rel.encoded("k").codes, ("u",)),
    }
    same = Relation(SCHEMA, columns)
    assert same.records(range(3)) == rel.records(range(3))


def test_load_csv_keeps_no_string_per_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("g,v,h,k\nCS,1,x,\n CS ,2,,u\nMath,3,x,u\n", encoding="utf-8")
    rel = load_csv(path, SCHEMA)
    assert rel.encoded("g").codes.tolist() == [0, 0, 1]
    assert rel.encoded("g").levels == ("CS", "Math")
    assert rel.encoded("h").levels == ("x", NULL_TOKEN)
    assert rel.encoded("k").levels == (NULL_TOKEN, "u")
    assert rel.encoded("g").codes.dtype == np.intp


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


# ---------------------------------------------------------------------------
# the array catalog, pooling and cost kernels against the dict-per-stratum
# reference forms

COST_SCHEMA = (
    ColumnSchema("g", CATEGORICAL),
    ColumnSchema("h", CATEGORICAL),
    ColumnSchema("k", CATEGORICAL),
    ColumnSchema("v", NUMERIC),
    ColumnSchema("u", NUMERIC),
)

#: small integers, so strata whose mean is exactly zero are common
LEVELS = [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]

FINE = ("g", "h", "k")

#: permuted attributes, a single attribute, the fine grouping itself and
#: the empty grouping, each with its aggregation columns
QUERIES = [
    GroupQuery(("k", "g"), ("v",)),
    GroupQuery(("h",), ("u", "v")),
    GroupQuery(("g", "h", "k"), ("v", "u")),
    GroupQuery((), ("u",)),
]

WORKLOAD = [
    QuerySpec(("k", "g"), ("v",), None, 2),
    QuerySpec(("h",), ("u", "v"), Predicate((Atom("u", ">", 0.0),)), 3),
    QuerySpec((), ("u",)),
]

_cost_rows = st.lists(
    st.tuples(
        st.sampled_from(TEXT),
        st.sampled_from(TEXT[:4]),
        st.sampled_from(TEXT[3:]),
        st.sampled_from(LEVELS),
        st.sampled_from(LEVELS) | st.floats(0.5, 50.0),
    ),
    min_size=1,
    max_size=40,
)


def _items(catalog):
    """The arrays of ``catalog`` as (GroupKey, reference.Stratum) pairs, in
    catalog order."""
    return list(reference.summaries_of(catalog).items())


def _outcome(fn):
    """``fn()``, or for an error its type and, for a zero mean, the key and
    column it names."""
    try:
        return fn()
    except ZeroMeanError as exc:
        return type(exc), exc.key, exc.column
    except GbsampleError as exc:
        return type(exc)


def _check_cost_kernels(rel):
    columns = ("v", "u")
    fine = compute_catalog(rel, FINE, columns)
    ref_fine = reference.catalog_summaries(rel, FINE, columns)
    assert _items(fine) == list(ref_fine.items())

    table = derive_aggregation_groups(rel, WORKLOAD)
    derived_queries, derived_weights = allocation_inputs(table)
    weighted = [
        (QUERIES, UNIT_WEIGHTS),
        (QUERIES, WeightSpec({(1, None, "v"): 4.0, (None, None, "u"): 0.5})),
        (derived_queries, derived_weights),
        ([GroupQuery(q.group_attrs, q.agg_columns) for q in WORKLOAD],
         weights_from_frequencies(table)),
    ]
    for queries, weights in weighted:
        fs = finest_from_catalog(fine, queries)
        ref_coarse = [reference.pool_summaries(ref_fine, q.attrs) for q in queries]
        for q, coarse, ids, ref in zip(queries, fs.coarse, fs.coarse_ids, ref_coarse):
            assert _items(coarse) == list(ref.items())
            assert _items(pool_catalog(fine, q.attrs)) == list(ref.items())
            assert [coarse.keys[g] for g in ids.tolist()] == [
                reference.project_key(key, q.attrs).values for key in ref_fine
            ]
        for zero_mean in ("error", "exclude"):
            policy = (weights, zero_mean)
            got = _outcome(lambda: multi_grouping_costs(fs, *policy).tolist())
            want = _outcome(
                lambda: reference.multi_grouping_costs(ref_fine, queries, *policy).tolist()
            )
            assert got == want
            for i, (q, coarse, ref) in enumerate(zip(queries, fs.coarse, ref_coarse)):
                moved = (_seen_by(weights, i), zero_mean)
                got = _outcome(lambda: _keyed(coarse, cv_costs(coarse, q.columns, *moved)))
                want = _outcome(
                    lambda: _floored(reference.cv_costs(ref, q.columns, *policy, i))
                )
                assert got == want
            budget = 3 * sum(len(c) for c in fs.coarse)
            # in row order: the kept pairs by query, then the excluded pairs
            got = _outcome(lambda: _shares(plan_individual(fs.coarse, queries, budget, *policy)))
            args = (ref_coarse, queries, budget, *policy)
            want = _outcome(lambda: list(reference.individual_sizes(*args).items()))
            assert got == want


def _shares(alloc):
    """The rows of an individual allocation as ((query, GroupKey), share)."""
    queries, rows = alloc.queries, zip(alloc.query.tolist(), alloc.keys, alloc.sizes.tolist())
    return [((i, GroupKey(queries[i].attrs, values)), s) for i, values, s in rows]


def _seen_by(weights, i):
    """``weights`` with query ``i``'s entries moved to query 0, the query
    whose weights ``cv_costs`` reads, and every other query's moved out of
    its reach."""
    moved = {(q if q is None else 0 if q == i else -1, *rest): w
             for (q, *rest), w in weights.entries.items()}
    return WeightSpec(moved, weights.default)


def _floored(result):
    keys, costs, excluded = result
    return keys, floor_zero_costs(np.array(costs)).tolist(), excluded


def _keyed(catalog, result):
    kept, costs, excluded = result
    return catalog.group_keys(kept), costs.tolist(), catalog.group_keys(excluded)


@given(_cost_rows)
def test_cost_kernels_match_the_reference(rows):
    _check_cost_kernels(Relation.from_records(COST_SCHEMA, rows))


def test_cost_kernels_match_the_reference_on_larger_strata():
    rng = np.random.default_rng(8)
    n = 2000
    rows = list(
        zip(
            rng.choice(TEXT[:3], size=n).tolist(),
            rng.choice(TEXT[3:5], size=n).tolist(),
            rng.choice(TEXT, size=n).tolist(),
            rng.choice(LEVELS, size=n).tolist(),
            rng.lognormal(2.0, 1.0, size=n).tolist(),
        )
    )
    _check_cost_kernels(Relation.from_records(COST_SCHEMA, rows))


#: every ordered subset of the fine attributes, () and permutations included
ORDERED_SUBSETS = [
    attrs for size in range(len(FINE) + 1) for attrs in itertools.permutations(FINE, size)
]


def _with_zero_count_stratum(catalog):
    """``catalog`` with one more stratum, of no rows, at the front; its
    h value occurs nowhere else."""
    return StatsCatalog(
        catalog.group_attrs, catalog.agg_columns, [("a", "zero", "")] + catalog.keys,
        [0] + catalog.n.tolist(),
        {c: [2.5] + catalog.mean[c].tolist() for c in catalog.agg_columns},
        {c: [1.5] + catalog.std[c].tolist() for c in catalog.agg_columns},
        catalog.total_n,
    )


def _pooled_bits(catalog, attrs):
    coarse, ids = catalog.pooled(attrs)
    arrays = [coarse.n, ids] + [a[c] for a in (coarse.mean, coarse.std) for c in coarse.agg_columns]
    return coarse.keys, [(x.dtype.str, x.tobytes()) for x in arrays]


@given(_cost_rows)
@example([])  # no strata: no groups under any attributes, () included
def test_pooled_matches_the_reference_and_is_kept(rows):
    computed = compute_catalog(Relation.from_records(COST_SCHEMA, rows), FINE, ("v", "u"))
    for catalog in (computed, _with_zero_count_stratum(computed)):
        loaded = catalog_from_json(catalog_to_json(catalog))
        ref = reference.summaries_of(catalog)
        for attrs in ORDERED_SUBSETS:
            found = catalog.pooled(attrs)
            coarse, ids = found
            assert _items(coarse) == list(reference.pool_summaries(ref, attrs).items())
            positions = [FINE.index(a) for a in attrs]
            assert ids.tolist() == reference.key_ids(catalog.keys, positions)[0].tolist()
            # kept: a second call, and pool_catalog, return the same objects
            assert catalog.pooled(list(attrs)) is found
            assert pool_catalog(catalog, attrs) is coarse
            assert not ids.flags.writeable
            with pytest.raises(ValueError):
                ids[:1] = 0
            # a catalog read back from its file pools to the same bits
            assert _pooled_bits(loaded, attrs) == _pooled_bits(catalog, attrs)
        kept = dict(catalog._pooled)
        for attrs in (("v",), ("g", "nope"), ("k", "k", "u")):
            for _ in range(2):
                with pytest.raises(NotASubset):
                    catalog.pooled(attrs)
            assert catalog._pooled == kept


def test_zero_mean_errors_name_the_first_key_and_column_in_catalog_order():
    # stratum ("a,b", "ä") has mean 0 in v, and ("日本語", "") in u and v
    rows = [
        ("x", "", 1.0, 2.0),
        ("x", "", 3.0, 5.0),
        ("x", "", 4.0, 1.0),
        ("a,b", "ä", -1.0, 1.0),
        ("a,b", "ä", 1.0, 2.0),
        ("日本語", "", 2.0, -3.0),
        ("日本語", "", -2.0, 3.0),
    ]
    schema = (
        ColumnSchema("g", CATEGORICAL),
        ColumnSchema("h", CATEGORICAL),
        ColumnSchema("v", NUMERIC),
        ColumnSchema("u", NUMERIC),
    )
    rel = Relation.from_records(schema, rows)
    fine = compute_catalog(rel, ("g", "h"), ("u", "v"))
    first = GroupKey(("g", "h"), ("a,b", "ä"))
    with pytest.raises(ZeroMeanStratum) as err:
        cv_costs(fine, ("u", "v"))
    assert (err.value.key, err.value.column) == (first, "v")
    with pytest.raises(ZeroMeanStratum) as err:
        cv_costs(fine, ("v", "u"))
    assert (err.value.key, err.value.column) == (first, "v")
    with pytest.raises(ZeroMeanStratum) as err:
        plan_linf(fine, "u", 5)
    last = GroupKey(("g", "h"), ("日本語", ""))
    assert (err.value.key, err.value.column) == (last, "u")
    with pytest.raises(ZeroMeanGroup) as err:
        plan_individual([fine], [GroupQuery(("g", "h"), ("u", "v"))], 5)
    assert (err.value.key, err.value.column) == (first, "v")
    queries = [GroupQuery(("h", "g"), ("u",)), GroupQuery(("g",), ("v",))]
    with pytest.raises(ZeroMeanCoarseGroup) as err:
        multi_grouping_costs(finest_from_catalog(fine, queries))
    assert (err.value.key, err.value.column) == (GroupKey(("g",), ("a,b",)), "v")
    # excluded, the two strata are pinned at one row each
    plan = plan_l2(fine, ("u", "v"), 5, zero_mean="exclude")
    assert plan.keys[1:] == (first, last)
    assert plan.sizes.tolist() == [3, 1, 1]


#: values whose square by this C library's pow (Python's x**2) is not
#: the correctly rounded x * x; the test checks them on every platform
ODD_SQUARES = (0.8467763420071795, 0.6475377083485385, 0.8408835429094627,
               0.22577417556513596, 0.4270731443843285, 1.9754482163144704)


def test_costs_square_like_python_floats():
    # every cost kernel squares as the correctly rounded x * x, whatever
    # the platform's pow gives: checked against squares rounded from the
    # exact Fraction, on values whose pow square differs where this
    # platform has any, else on the fixed ones
    x = np.random.default_rng(5).lognormal(0.0, 1.0, size=20_000).tolist()
    values = [v for v in x if v**2 != v * v][:20] or list(ODD_SQUARES)
    square = [float(Fraction(v) ** 2) for v in values]
    n = len(values)
    keys = [(f"s{i}",) for i in range(n)]
    tiny = 2.0**-600  # its square, and std * std below, underflow to 0

    def catalog(mean, std):
        return StatsCatalog(("g",), ("v",), keys, [4] * n, {"v": mean}, {"v": std}, 4 * n)

    # mean 1 and std v give cv = v; mean v and std 1 give cv = 1 / v, and
    # sigma^2 / mu^2 = 1 / v^2.  The cost under one query grouped by g is
    # 16 * (sigma^2 / mu^2 / 16), so the quotient of the squares exactly
    inverse = [1.0 / v for v in values]
    for cat, want, want_multi in (
        (catalog([1.0] * n, values), square, square),
        (catalog([tiny] * n, [v * tiny for v in values]), square, square),  # the cv * cv fallback
        (catalog(values, [1.0] * n), [float(Fraction(c) ** 2) for c in inverse],
         [1.0 / q for q in square]),
    ):
        for zero_mean in ("error", "exclude"):
            assert cv_costs(cat, ("v",), zero_mean=zero_mean)[1].tolist() == want
        fs = finest_from_catalog(cat, [GroupQuery(("g",), ("v",))])
        assert multi_grouping_costs(fs).tolist() == want_multi
    # pooling rebuilds each sum of squared deviations as std * std * (n - 1)
    cat = catalog([1.0] * n, values)
    assert pool_catalog(cat, ("g",)).std["v"].tolist() == [math.sqrt(q * 3 / 3) for q in square]
    m2 = 0.0
    for q in square:  # every mean is 1, so each update adds 0 for the means
        m2 = m2 + q * 3 + 0.0
    assert pool_catalog(cat, ()).std["v"].tolist() == [math.sqrt(m2 / (4 * n - 1))]
    # and the kernels agree with the reference loops, which square as v * v
    ref = reference.summaries_of(cat)
    fs = finest_from_catalog(cat, [GroupQuery(("g",), ("v",)), GroupQuery((), ("v",))])
    assert multi_grouping_costs(fs).tolist() == (
        reference.multi_grouping_costs(ref, fs.queries).tolist()
    )
    for attrs in (("g",), ()):
        assert _items(pool_catalog(cat, attrs)) == list(
            reference.pool_summaries(ref, attrs).items()
        )
