import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from gbsample.alloc import plan_l2
from gbsample.baselines import alloc_senate
from gbsample.dataset import (
    CATEGORICAL,
    CHUNK_ROWS,
    NULL_TOKEN,
    NUMERIC,
    ColumnSchema,
    GroupKey,
    Relation,
)
from gbsample.errors import (
    CorruptSampleFile,
    InvalidArgument,
    InvalidDocument,
    PlanMismatch,
    RateOutOfRange,
    SchemaMismatch,
)
from gbsample.sampler import (
    draw_poisson,
    draw_stratified,
    load_sample,
    save_sample,
    substream_states,
)
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
    assert sorted(sample.source_ids.tolist()) == list(range(fix_a_rel.n_rows))


def test_zero_size_stratum_flagged_missing():
    rel = _simple_rel([("a", [1, 2, 3, 4]), ("b", [5, 6, 7, 8])])
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 8)
    plan.sizes[0] = 0
    plan.sizes[1] = 4
    sample = draw_stratified(rel, plan, seed=1)
    assert sample.size.tolist() == [0, 4]
    assert sample.held.tolist() == [False, True]
    assert sample.row_strata.tolist() == [1] * 4


def test_plan_mismatch():
    rel = _simple_rel([("a", [1, 2]), ("b", [3, 4])])
    other = _simple_rel([("a", [1, 2]), ("c", [3, 4])])
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 4)
    with pytest.raises(PlanMismatch):
        draw_stratified(other, plan, seed=0)
    # every stratum present, one of them twice
    plan = replace(
        plan,
        keys=plan.keys + plan.keys[:1],
        populations=np.append(plan.populations, plan.populations[0]),
        fractional=np.append(plan.fractional, plan.fractional[0]),
        sizes=np.append(plan.sizes, plan.sizes[0]),
    )
    with pytest.raises(PlanMismatch):
        draw_stratified(rel, plan, seed=0)


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
        counts[tuple(sample.source_ids.tolist())] += 1
    expected = trials / 6
    chi2 = sum((got - expected) ** 2 / expected for got in counts.values())
    assert chi2 < CHI2_CRIT_5DF


def test_poisson_extremes():
    rel = _simple_rel([("a", range(10)), ("b", range(10))])
    full = draw_poisson(rel, np.ones(20), seed=5)
    assert full.total_rows == 20
    assert (1.0 / full.rates).tolist() == [1.0] * 20
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
    assert reference.stratum_lists(back) == reference.stratum_lists(sample)


def test_poisson_round_trip(tmp_path):
    rel = _simple_rel([("a", [1.5, 2.5, 3.5]), ("b", [4.5, 5.5])])
    sample = draw_poisson(rel, np.array([0.9, 0.4, 0.7, 1.0, 0.35]), seed=2)
    path = tmp_path / "poisson.txt"
    save_sample(sample, path)
    back = load_sample(path)
    assert reference.poisson_lists(back) == reference.poisson_lists(sample)
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
        assert load_sample(path).rates[0] == float(good)


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
    assert reference.stratum_lists(s_a)[0] == reference.stratum_lists(s_b)[0]


# ---------------------------------------------------------------------------
# columnar samples

KEYED_SCHEMA = (
    ColumnSchema("g", CATEGORICAL),
    ColumnSchema("h", CATEGORICAL),
    ColumnSchema("v", NUMERIC),
)


def _keyed_rel(rng, n_rows):
    g = rng.choice(["a,b", "x|y", "Zürich", "", "plain"], size=n_rows).tolist()
    h = rng.choice(["h0", "h|1"], size=n_rows).tolist()
    return Relation(KEYED_SCHEMA, {"g": g, "h": h, "v": rng.normal(size=n_rows)})


def _assert_encoded(rel):
    """Every categorical column holds each of its levels, once, numbered by
    first occurrence."""
    for col in rel.schema:
        if col.kind == CATEGORICAL:
            codes, levels = rel.encoded(col.name)
            seen, first = np.unique(codes, return_index=True)
            assert seen.tolist() == list(range(len(levels)))
            assert np.all(np.diff(first) > 0)
            assert len(set(levels)) == len(levels)


#: one-word seeds, the largest one-word seed, and seeds of two, three and
#: seven 32-bit words (more words than SeedSequence's pool of four)
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_states_are_the_seed_sequences(seed):
    index = [0, 1, 2999, 2**32 - 1]
    want = [np.random.SeedSequence([seed, k]).generate_state(4, np.uint64) for k in index]
    got = substream_states(seed, index)
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    assert got.tobytes() == np.array(want).tobytes()
    assert substream_states(seed, []).shape == (0, 4)


@pytest.mark.parametrize("index", [[-1], [0, 2**32]])
def test_substream_indices_lie_below_two_to_the_32(index):
    with pytest.raises(InvalidArgument):
        substream_states(1, index)


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_a_negative_seed_is_invalid_before_the_indices_and_the_plan(seed):
    for index in ([0, 1], [-1]):
        with pytest.raises(InvalidArgument, match="seed must be a non-negative"):
            substream_states(seed, index)
    rel = _simple_rel([("a", [1, 2]), ("b", [3, 4])])
    other = _simple_rel([("a", [1, 2]), ("c", [3, 4])])
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 4)
    with pytest.raises(InvalidArgument, match="seed must be a non-negative"):
        draw_stratified(other, plan, seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 10_000), st.integers(2**32, 2**200)),
    n_rows=st.integers(1, 60),
    budget=st.integers(1, 60),
    zero=st.booleans(),
)
def test_draws_match_the_reference(seed, n_rows, budget, zero):
    rng = np.random.default_rng(seed)
    rel = _keyed_rel(rng, n_rows)
    plan = alloc_senate(compute_catalog(rel, ["g", "h"], ["v"]), budget)
    if zero:
        plan.sizes[rng.random(len(plan.sizes)) < 0.3] = 0
    sample = draw_stratified(rel, plan, seed)
    assert reference.stratum_lists(sample) == reference.draw(rel, plan, seed)
    p = rng.choice([0.0, 0.3, 1.0], size=n_rows)
    poisson = draw_poisson(rel, p, seed)
    assert reference.poisson_lists(poisson) == reference.draw_poisson(rel, p, seed)
    for drawn in (sample, poisson):
        _assert_encoded(drawn.columns)
        assert drawn.total_rows == len(drawn.columns) == len(drawn.source_ids)
    _assert_encoded(sample.key_columns)
    assert sample.keys == [key.values for key in plan.keys]


def _body(path):
    header, names, *rows = path.read_text(encoding="utf-8").splitlines()
    return header, names, [row.split(",", 1) for row in rows]


def _write_body(path, header, names, rows):
    lines = [header, names] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _two_strata_file(tmp_path):
    rel = _simple_rel([("a", [1, 2, 3, 4]), ("b", [5, 6, 7, 8])])
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 4)
    sample = draw_stratified(rel, plan, seed=3)
    path = tmp_path / "sample.txt"
    save_sample(sample, path)
    return sample, path


def test_load_groups_rows_by_stratum_in_file_order(tmp_path):
    sample, path = _two_strata_file(tmp_path)
    header, names, rows = _body(path)
    _write_body(path, header, names, rows[::-1])
    back = load_sample(path)
    want = [
        (k, n, size, ids[::-1], rows[::-1])
        for k, n, size, ids, rows in reference.stratum_lists(sample)
    ]
    assert reference.stratum_lists(back) == want
    _assert_encoded(back.columns)


def test_load_rejects_stratum_ordinals_outside_the_header(tmp_path):
    sample, path = _two_strata_file(tmp_path)
    header, names, rows = _body(path)
    assert [ordinal for ordinal, _ in rows] == ["0", "0", "1", "1"]
    # -1 and 0 swap a row between the strata and keep both counts
    for first, third in (("-1", "0"), ("1", "2"), ("0", "-2")):
        changed = [[first, rows[0][1]], rows[1], [third, rows[2][1]], rows[3]]
        _write_body(path, header, names, changed)
        with pytest.raises(CorruptSampleFile, match=r"outside \[0, 2\)"):
            load_sample(path)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf"])
def test_load_rejects_non_finite_numbers(tmp_path, cell):
    stratified, path = _two_strata_file(tmp_path)
    header, names, rows = _body(path)
    _write_body(path, header, names, [[rows[0][0], f"0,a,{cell}"]] + rows[1:])
    with pytest.raises(CorruptSampleFile, match="not a finite number"):
        load_sample(path)
    rel = _simple_rel([("a", [1.5, 2.5]), ("b", [4.5])])
    save_sample(draw_poisson(rel, np.ones(3), seed=2), path)
    header, names, rows = _body(path)
    _write_body(path, header, names, rows[:2] + [["2", f"1,b,{cell}"]])
    with pytest.raises(CorruptSampleFile, match="not a finite number"):
        load_sample(path)


def test_load_rejects_rows_of_the_wrong_width(tmp_path):
    _, path = _two_strata_file(tmp_path)
    header, names, rows = _body(path)
    for bad in ("0,a", "0,a,1.0,extra"):
        _write_body(path, header, names, [[rows[0][0], bad]] + rows[1:])
        with pytest.raises(CorruptSampleFile, match="cells, expected 4"):
            load_sample(path)


def test_load_rejects_a_population_below_the_sample_size(tmp_path):
    _, path = _two_strata_file(tmp_path)
    header, names, rows = _body(path)
    assert '"n": 4, "s": 2}' in header
    for n in (-40, 0, 1):
        changed = header.replace('"n": 4, "s": 2}', f'"n": {n}, "s": 2}}', 1)
        _write_body(path, changed, names, rows)
        with pytest.raises(CorruptSampleFile, match="population"):
            load_sample(path)
    _write_body(path, header.replace('"n": 4, "s": 2}', '"n": 2, "s": 2}', 1), names, rows)
    assert load_sample(path).n.tolist() == [2, 4]


def test_load_rejects_a_csv_header_line_other_than_the_columns(tmp_path):
    _, path = _two_strata_file(tmp_path)
    header, names, rows = _body(path)
    assert names == "stratum,row_id,g,v"
    for bad in ("stratum,row_id,g,w", "row_id,stratum,g,v", "stratum,row_id,g", "row_id,p,g,v"):
        _write_body(path, header, bad, rows)
        with pytest.raises(CorruptSampleFile, match="CSV header") as err:
            load_sample(path)
        assert str(path) in str(err.value)


def test_load_rejects_a_poisson_file_without_its_csv_header_line(tmp_path):
    """Without the line, and without a ``rows`` field to count against, the
    first data row must not be taken for the header and skipped."""
    rel = _simple_rel([("a", [1.5, 2.5]), ("b", [4.5])])
    path = tmp_path / "poisson.txt"
    save_sample(draw_poisson(rel, np.ones(3), seed=2), path)
    header, names, rows = _body(path)
    doc = json.loads(header)
    del doc["rows"]
    _write_body(path, json.dumps(doc), names, rows)
    assert load_sample(path).total_rows == 3
    first, *rest = rows
    _write_body(path, json.dumps(doc), ",".join(first), rest)
    with pytest.raises(CorruptSampleFile, match="CSV header") as err:
        load_sample(path)
    assert str(path) in str(err.value)


def test_load_rejects_ordinals_and_row_ids_that_are_not_int64(tmp_path):
    _, path = _two_strata_file(tmp_path)
    header, names, rows = _body(path)
    for at, cell in ((0, "1e3"), (0, "99999999999999999999"), (1, "2.0"), (1, "")):
        cells = ",".join(rows[2]).split(",")
        cells[at] = cell
        _write_body(path, header, names, rows[:2] + [cells] + rows[3:])
        with pytest.raises(CorruptSampleFile, match="data row 2: .* not a 64-bit integer"):
            load_sample(path)


#: a key's characters in the round trip: the CSV delimiter and quote, the
#: separator of stream keys, non-ASCII text, both line-end characters
#: (so every line end, CR, LF and CRLF, in and between cells) and padding
_ODD_CHARS = [",", '"', "|", "é", "東", "\r", "\n", " ", "a"]
_ODD_KEY = st.one_of(st.text(st.sampled_from(_ODD_CHARS), max_size=4), st.just(NULL_TOKEN))
#: rows of the plain key the round trip's files start with: more than a
#: chunk, so the first chunk is split and the next, which holds the odd
#: keys, is read by ``csv.reader``
_PLAIN_ROWS = CHUNK_ROWS + 76


def _error(load, path):
    """The class of the error ``load(path)`` raises, None if it loads."""
    try:
        load(path)
    except Exception as exc:
        return type(exc)
    return None


def _corrupt(path, at, edit, rng):
    """Edit data row ``at`` of the sample file at ``path``, one of the plain
    rows the file starts with: drop or add a cell, write ``nan`` in the
    numeric cell, or write a number that is not an integer in the first
    column."""
    head, names, *lines = path.read_bytes().split(b"\n", _PLAIN_ROWS + 2)
    cells = lines[at].split(b",")
    if edit == "ragged":
        cells = cells[:-1] if rng.random() < 0.5 else cells + [b"x"]
    elif edit == "nan":
        cells[-1] = b"nan"
    else:
        cells[0] = rng.choice([b"1e3", b"0.5", b"x", b""])
    lines[at] = b",".join(cells)
    path.write_bytes(b"\n".join([head, names, *lines]))


@settings(max_examples=50, deadline=None)
@given(
    odd=st.lists(st.tuples(_ODD_KEY, _ODD_KEY), min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
    at=st.integers(0, _PLAIN_ROWS - 1),
    edit=st.sampled_from(["ragged", "nan", "ordinal"]),
)
def test_samples_round_trip_keys_with_quotes_and_line_ends(tmp_path_factory, odd, seed, at, edit):
    """Stratified and Poisson samples whose keys hold any of
    :data:`_ODD_CHARS` or the null token read back as written, and as the
    row-at-a-time reader reads them, across the split and the
    ``csv.reader`` routes; a corrupted row raises the reader's error
    class."""
    rng = np.random.default_rng(seed)
    odd = [('a\rb', 'say "hi"'), *odd]
    g = ["plain"] * _PLAIN_ROWS + [key for key, _ in odd]
    h = ["h"] * _PLAIN_ROWS + [key for _, key in odd]
    rel = Relation(KEYED_SCHEMA, {"g": g, "h": h, "v": rng.normal(size=len(g))})
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), len(g))
    counts = np.bincount(rel.strata(["g"]).ids)
    plan.sizes[:] = [_PLAIN_ROWS, *(rng.integers(0, n + 1) for n in counts[1:])]
    p = np.concatenate([np.ones(_PLAIN_ROWS), rng.choice([0.3, 1.0], size=len(odd))])
    path = tmp_path_factory.mktemp("round_trip") / "sample.txt"
    for sample, lists in (
        (draw_stratified(rel, plan, seed), reference.stratum_lists),
        (draw_poisson(rel, p, seed), reference.poisson_lists),
    ):
        save_sample(sample, path)
        chunk = path.read_bytes().split(b"\n")[2 : CHUNK_ROWS + 2]  # the body's first chunk
        assert not any(b'"' in line or b"\r" in line for line in chunk)
        back = load_sample(path)
        assert lists(back) == lists(sample) == lists(reference.load_sample(path))
        assert back.schema == sample.schema and back.seed == sample.seed
        _corrupt(path, at, edit, rng)
        assert _error(load_sample, path) is _error(reference.load_sample, path) is not None


# ---------------------------------------------------------------------------
# the tuple views, read only by the benchmark: one test each against the arrays


def _views_rel():
    rng = np.random.default_rng(4)
    return _keyed_rel(rng, 40)


def test_strata_view_matches_the_arrays():
    rel = _views_rel()
    plan = alloc_senate(compute_catalog(rel, ["g", "h"], ["v"]), 12)
    plan.sizes[0] = 0
    sample = draw_stratified(rel, plan, seed=3)
    view = [(s.key, s.n, s.size, s.row_ids, s.rows) for s in sample.strata]
    want = [(GroupKey(("g", "h"), k), *rest) for k, *rest in reference.stratum_lists(sample)]
    assert view == want and view[0][2] == 0
    assert all(type(s.n) is int and type(s.size) is int for s in sample.strata)
    assert all(type(r) is int for s in sample.strata for r in s.row_ids)


def test_poisson_row_ids_view_matches_the_arrays():
    rel = _views_rel()
    sample = draw_poisson(rel, np.full(rel.n_rows, 0.4), seed=3)
    assert 0 < sample.total_rows < rel.n_rows
    assert sample.row_ids == sample.source_ids.tolist()
    assert all(type(r) is int for r in sample.row_ids)


def test_poisson_p_view_matches_the_arrays():
    rel = _views_rel()
    p = np.random.default_rng(5).uniform(0.2, 0.9, rel.n_rows)
    sample = draw_poisson(rel, p, seed=3)
    assert 0 < sample.total_rows < rel.n_rows
    assert sample.p == sample.rates.tolist() == p[sample.source_ids].tolist()
    assert all(type(pr) is float for pr in sample.p)


def test_a_stratum_over_ten_thousand_rows_draws_as_the_reference():
    # choice shuffles the tail of the whole population above 10000 rows
    rel = _simple_rel([("a", range(12_000)), ("b", range(3)), ("c", range(40))])
    plan = alloc_senate(compute_catalog(rel, ["g"], ["v"]), 40)
    plan.sizes[:] = [1000, 2, 39]
    for seed in (5, 2**64 + 5):
        sample = draw_stratified(rel, plan, seed)
        assert reference.stratum_lists(sample) == reference.draw(rel, plan, seed)


def _five_strata_header(tmp_path):
    rel = _simple_rel([(g, range(1, 5)) for g in "abcde"])
    path = tmp_path / "sample.txt"
    save_sample(draw_stratified(rel, alloc_senate(compute_catalog(rel, ["g"], ["v"]), 10), 1), path)
    header, body = path.read_text(encoding="utf-8").split("\n", 1)
    return path, json.loads(header), body


#: edits of one stratum of a sample header: (field, value), None for the
#: value drops the field and None for the field replaces the whole stratum
STRATUM_EDITS = [
    ("key", "a"),
    ("key", ["a", "b"]),
    ("key", None),
    ("n", 2.5),
    ("n", None),
    ("s", -1),
    ("s", "2"),
    (None, ["x"]),
]


def _edit(strata, at, field, value):
    if field is None:
        strata[at] = value
    elif value is None:
        del strata[at][field]
    else:
        strata[at][field] = value


def _header_errors(path, header, body):
    """The text of the InvalidDocument that loading the header raises, and
    that of reading its strata one at a time (:func:`reference.stratum_fields`)."""
    path.write_text(json.dumps(header) + "\n" + body, encoding="utf-8")
    with pytest.raises(InvalidDocument) as got:
        load_sample(path)
    with pytest.raises(InvalidDocument) as want:
        reference.stratum_fields(str(path), header["strata"], 1)
    return str(got.value), str(want.value)


@pytest.mark.parametrize("field, value", STRATUM_EDITS)
@pytest.mark.parametrize("at", [0, 2, 4])
def test_a_bad_stratum_field_raises_as_one_read_at_a_time(tmp_path, at, field, value):
    path, header, body = _five_strata_header(tmp_path)
    _edit(header["strata"], at, field, value)
    got, want = _header_errors(path, header, body)
    assert got == want
    assert f": strata[{at}]" in got


@pytest.mark.parametrize("at, other", [(0, 2), (2, 0), (4, 3), (1, 4)])
def test_a_repeated_stratum_key_is_named_where_it_repeats(tmp_path, at, other):
    path, header, body = _five_strata_header(tmp_path)
    strata = header["strata"]
    strata[at]["key"] = strata[other]["key"]
    got, want = _header_errors(path, header, body)
    assert got == want
    assert f": strata[{max(at, other)}].key: repeats stratum" in got


def test_every_key_is_checked_before_any_count(tmp_path):
    # a bad s in the first stratum, a bad n in the middle one and a bad key
    # in the last: the key is named, as reading the keys first would
    path, header, body = _five_strata_header(tmp_path)
    strata = header["strata"]
    strata[0]["s"], strata[2]["n"], strata[4]["key"] = -1, "3", [1]
    got, want = _header_errors(path, header, body)
    assert got == want
    assert ": strata[4].key: expected a list of 1 strings" in got
    strata[4]["key"] = ["e"]
    got, want = _header_errors(path, header, body)
    assert got == want
    assert ": strata[2].n: expected an integer" in got
