import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gbsample.alloc import floor_zero_costs
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, Relation
from gbsample.errors import (
    FloatOverflow,
    InvalidArgument,
    SchemaMismatch,
    UnknownAttribute,
    UnknownColumn,
)
from gbsample.stream import (
    _squared_cvs,
    ingest_batch,
    make_state,
    offline_plan,
    settle_budget,
)

import reference
from reference import from_values, retained_keys, two_pass_reference

SCHEMA = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
OBJ = ("v",)


def synthetic_stream(seed, n, groups=4, sigma_scale=2.0):
    rng = np.random.default_rng(seed)
    names = [f"g{i}" for i in range(groups)]
    rows = []
    for _ in range(n):
        i = int(rng.integers(groups))
        value = rng.normal(50.0 * (i + 1), sigma_scale * (i + 1))
        rows.append((names[i], float(value)))
    return rows


def _fresh(budget=40, seed=0):
    return make_state(SCHEMA, ("g",), OBJ, budget, seed)


def _holding(sizes, budget, seed=0):
    """A state whose strata s0, s1, ... hold ``sizes`` rows: one batch
    ingested under a budget that keeps every row, then ``budget`` set."""
    rows = [(f"s{i}", 0.0) for i, size in enumerate(sizes) for _ in range(int(size))]
    state = make_state(SCHEMA, ("g",), OBJ, len(rows), seed)
    ingest_batch(state, Relation.from_records(SCHEMA, rows), np.arange(len(rows)))
    state.budget = budget
    return state


def test_schema_mismatch():
    with pytest.raises(SchemaMismatch):
        Relation.from_records(SCHEMA, [("a", 1.0, 9.9)])
    with pytest.raises(SchemaMismatch):
        Relation.from_records(SCHEMA, [("a", "oops")])
    wider = Relation.from_records(SCHEMA + (ColumnSchema("w", NUMERIC),), [("a", 1.0, 2.0)])
    state = _fresh()
    with pytest.raises(SchemaMismatch, match="schema is not the stream's"):
        ingest_batch(state, wider, [0])
    assert not state.ids and state.arrivals == 0 and state.total_retained == 0
    with pytest.raises(SchemaMismatch):
        make_state(SCHEMA, ("nope",), OBJ, 10, 0)


def test_make_state_checks_column_kinds():
    with pytest.raises(UnknownAttribute, match="^'v' is not a categorical column"):
        make_state(SCHEMA, ("v",), OBJ, 10, 0)
    with pytest.raises(UnknownColumn, match="^'g' is not a numeric column"):
        make_state(SCHEMA, ("g",), ("g",), 10, 0)


@pytest.mark.parametrize("budget", [0, -3])
def test_a_budget_below_one_is_invalid(budget):
    with pytest.raises(InvalidArgument, match=f"^budget must be >= 1, got {budget}$"):
        make_state(SCHEMA, ("g",), OBJ, budget, 0)


def test_a_negative_seed_is_invalid():
    with pytest.raises(InvalidArgument, match="^seed must be a non-negative integer, got -1$"):
        make_state(SCHEMA, ("g",), OBJ, 10, seed=-1)


def test_key_above_threshold_is_rejected():
    state = _fresh(budget=100, seed=1)
    rel = Relation.from_records(SCHEMA, [("a", 1.0)] * 3)
    _, second, third = np.random.default_rng(1).random(3)
    ingest_batch(state, rel, [0])
    state.d[0] = second / 2
    ingest_batch(state, rel, [1])
    assert state.total_retained == 1 and state.n_seen[0] == 2
    state.d[0] = third
    ingest_batch(state, rel, [2])
    assert state.total_retained == 2 and third in retained_keys(state, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan", "inf"])
def test_non_finite_aggregation_value_is_a_schema_mismatch(bad):
    state = _fresh(budget=2)
    rows = [("a", 1.0), ("b", 2.0), ("a", 3.0), ("c", bad), ("b", 4.0)]
    rel = Relation.from_records(SCHEMA, rows)
    ingest_batch(state, rel, np.arange(2))
    with pytest.raises(SchemaMismatch, match="non-finite"):
        ingest_batch(state, rel, np.arange(2, 5))
    # the failed batch left the state as it was
    assert list(state.ids) == [("a",), ("b",)]
    assert state.n_seen.tolist() == [1, 1] and state.arrivals == 2
    assert state.mean["v"].tolist() == [1.0, 2.0] and state.total_retained == 2


def test_an_unhashable_group_value_rejects_the_batch():
    # a batch is rows of a relation, which cannot hold the unhashable value
    with pytest.raises(SchemaMismatch, match=r"^record \(\['x'\], 2.0\): column 'g'"):
        Relation.from_records(SCHEMA, [("b", 1.0), (["x"], 2.0)])


#: (1e308 - -1e308) overflows: the second row would make stratum a's
#: Welford mean -inf and its m2 -inf
OVERFLOW_ROWS = [("a", 1e308), ("a", -1e308), ("b", 1.0), ("b", 2.0), ("a", 3.0), ("b", 4.0)]


def _state_of(state):
    return (
        list(state.ids), state.n_seen.tolist(), state.d.tolist(), state.arrivals,
        state.mean["v"].tolist(), state.m2["v"].tolist(), state.f2.tolist(),
        state.retained.tolist(), id(state.last_settle),
    )


@pytest.mark.parametrize("batch_size", [1, 7])
def test_overflowing_moments_reject_the_batch(batch_size):
    state = _fresh(budget=2)
    rows = OVERFLOW_ROWS
    rel = Relation.from_records(SCHEMA, rows + [("b", 5.0), ("b", 6.0)])
    batches = np.array_split(np.arange(len(rows)), range(batch_size, len(rows), batch_size))
    bad = 1 // batch_size  # the batch holding the second row
    for batch in batches[:bad]:
        ingest_batch(state, rel, batch)
    before = _state_of(state)
    with pytest.raises(SchemaMismatch, match="overflow"):
        ingest_batch(state, rel, batches[bad])
    # the failed batch left the state as it was, its new strata included
    assert _state_of(state) == before
    ingest_batch(state, rel, np.arange(len(rows), len(rel)))
    assert list(state.ids) == ([("a",), ("b",)] if bad else [("b",)])
    assert state.total_retained == 2 and np.isfinite(state.objective_value())


#: stratum a's moments stay finite, but after its third row sigma / |mu| is
#: about 1e160, whose square is beyond the float range
SCORE_OVERFLOW_ROWS = [
    ("a", 1e150), ("a", -1e150), ("a", 3e-10), ("b", 1.0), ("b", 2.0), ("b", 4.0)
]


@pytest.mark.parametrize("batch_size", [1, 2, 6])
def test_overflowing_squared_cv_rejects_the_batch(batch_size):
    state = _fresh(budget=4)
    rows = SCORE_OVERFLOW_ROWS
    rel = Relation.from_records(SCHEMA, rows + [("b", 5.0), ("c", 6.0)])
    batches = np.array_split(np.arange(len(rows)), range(batch_size, len(rows), batch_size))
    bad = 2 // batch_size  # the batch holding the third row
    for batch in batches[:bad]:
        ingest_batch(state, rel, batch)
    before = _state_of(state)
    with pytest.raises(FloatOverflow, match=r"\(g=a\) column 'v': the squared CV"):
        ingest_batch(state, rel, batches[bad])
    # the failed batch left the state as it was, its new strata included
    assert _state_of(state) == before
    ingest_batch(state, rel, np.arange(len(rows), len(rel)))
    assert np.isfinite(state.objective_value())


def test_settle_noop_below_budget():
    state = _fresh(budget=1000)
    rel = Relation.from_records(SCHEMA, synthetic_stream(1, 200))
    ingest_batch(state, rel, np.arange(200))
    assert state.total_retained == 200  # everything retained, d still 1.0
    report = state.last_settle
    assert report.beta == 0 and not report.evicted.any()


def test_single_batch_matches_offline_plan():
    rows = synthetic_stream(7, 3000)
    state = _fresh(budget=60)
    rel = Relation.from_records(SCHEMA, rows)
    ingest_batch(state, rel, np.arange(len(rel)))
    plan = offline_plan(rel, ("g",), OBJ, 60)
    assert state.total_retained == 60
    sizes = state.sizes()
    for key, size in zip(plan.keys, plan.sizes):
        assert abs(sizes[state.ids[key.values]] - int(size)) <= 1


def test_all_oversized_base_case_sets_rounded_targets():
    # two strata far above their targets; f ratio 3:1 via value spreads
    state = _fresh(budget=8)
    rows = [("a", float(v)) for v in (12, 18) * 20] + [
        ("b", float(v)) for v in (14, 16) * 20
    ]
    ingest_batch(state, Relation.from_records(SCHEMA, rows), np.arange(len(rows)))
    targets = state.last_settle.targets
    sizes = {k[0]: size for k, size in zip(state.ids, state.sizes().tolist())}
    assert sizes == {"a": 6, "b": 2}
    assert targets[state.ids[("a",)]] == pytest.approx(6.0, rel=1e-9)


def test_eviction_only_touches_oversized():
    # on this seeded stream every evicting stratum held more than its
    # fractional target; settle does not require it (see the tests below)
    state = _fresh(budget=30, seed=1000)
    evictions_seen = 0
    rows = [r for b in range(10) for r in synthetic_stream(100 + b, 90)]
    rel = Relation.from_records(SCHEMA, rows)
    for start in range(0, 900, 90):
        ingest_batch(state, rel, np.arange(start, start + 90))
        report = state.last_settle
        sizes = state.sizes()
        for k in np.flatnonzero(report.evicted):
            evictions_seen += 1
            size_before_settle = sizes[k] + report.evicted[k]
            assert size_before_settle > report.targets[k]
    assert evictions_seen > 0


def test_settle_may_evict_from_a_stratum_below_its_target():
    # stratum 3 holds 2 rows against a target above 2, yet giving up one of
    # them keeps (1, 2, 1, 1), which adds 2.880 to F; keeping stratum 3
    # whole would force (1, 1, 1, 2), which adds 3.384
    f2 = np.array([0.10346266, 4.89471939, 0.13759474, 3.88691962])
    state = _holding((2, 3, 2, 2), budget=5)
    state.f2 = f2
    settle_budget(state)
    assert state.sizes().tolist() == [1, 2, 1, 1]
    report = state.last_settle
    assert report.targets[3] > 2
    assert report.evicted.tolist() == [1, 1, 1, 1]
    assert report.delta_objective == pytest.approx(2.880, abs=5e-4)
    kept_whole = sum(f2 * (1.0 / np.array([1, 1, 1, 2]) - 1.0 / np.array([2, 3, 2, 2])))
    assert kept_whole == pytest.approx(3.384, abs=5e-4)


def _exhaustive_minimum(f2, held, budget):
    """min F = sum f2 / s over 1 <= s_i <= held_i with sum(s) = budget."""
    best = math.inf
    for sizes in itertools.product(*[range(1, h + 1) for h in held]):
        if sum(sizes) == budget:
            best = min(best, sum(f / s for f, s in zip(f2, sizes)))
    return best


def test_settle_reaches_the_exhaustive_minimum_without_emptying_a_stratum():
    rng = np.random.default_rng(2024)
    trials = 0
    while trials < 300:
        k = int(rng.integers(1, 6))
        f2 = rng.lognormal(0.0, 1.5, size=k)
        held = rng.integers(1, 7, size=k)
        if int(held.sum()) - 1 < k:
            continue
        trials += 1
        budget = int(rng.integers(k, int(held.sum())))
        state = _holding(held, budget, seed=trials)
        state.f2 = f2
        settle_budget(state)
        after = state.sizes()
        assert int(after.sum()) == budget
        assert (after >= 1).all() and (after <= held).all()
        ours = sum(f / s for f, s in zip(f2, after.tolist()))
        assert ours == pytest.approx(_exhaustive_minimum(f2, held.tolist(), budget), rel=1e-12)


def test_settle_below_the_stratum_count_keeps_the_largest_scores():
    f2 = np.array([1.0, 5.0, 0.5, 3.0, 2.0])
    state = _holding((2, 1, 3, 1, 2), budget=3)
    state.f2 = f2
    settle_budget(state)
    assert state.sizes().tolist() == [0, 1, 0, 1, 1]
    # ties go to the lowest id
    state = _holding((1, 1, 1), budget=2)
    state.f2 = np.full(3, 2.0)
    settle_budget(state)
    assert state.sizes().tolist() == [1, 1, 0]


def test_eviction_matches_brute_force_small():
    rng = np.random.default_rng(13)
    for trial in range(60):
        k = int(rng.integers(2, 5))
        f2 = rng.uniform(0.1, 4.0, size=k)
        sizes = rng.integers(2, 9, size=k)
        # keep at least one row per stratum affordable
        beta = int(rng.integers(1, min(5, int(sizes.sum()) - k) + 1))
        budget = int(sizes.sum()) - beta

        state = _holding(sizes, budget, seed=trial)
        # feed only constant columns, then set synthetic f^2 on the state
        keys = range(k)
        state.f2 = f2

        before = state.sizes().tolist()
        settle_budget(state)
        after = state.sizes()
        ours = sum(
            f2[i] * (1.0 / after[key] - 1.0 / before[key])
            for i, key in enumerate(keys)
        )

        best = math.inf
        ranges = [range(0, before[key] + 1) for key in keys]
        for evictions in itertools.product(*ranges):
            if sum(evictions) != beta:
                continue
            if any(before[key] - e == 0 for key, e in zip(keys, evictions)):
                continue
            delta = sum(
                f2[i] * (1.0 / (before[key] - e) - 1.0 / before[key])
                for i, (key, e) in enumerate(zip(keys, evictions))
            )
            best = min(best, delta)
        assert ours == pytest.approx(best, rel=1e-12, abs=1e-15)


def test_objective_accounting():
    state = _fresh(budget=25)
    rel = Relation.from_records(SCHEMA, synthetic_stream(3, 600))
    for start in range(0, 600, 60):
        # objective before settle but after moments update is not observable
        # from outside; check the settle report's own accounting instead
        ingest_batch(state, rel, np.arange(start, start + 60))
        report = state.last_settle
        if not report.evicted.any():
            continue
        sizes = state.sizes()
        recomputed = sum(
            report.f_squared[k]
            * (1.0 / sizes[k] - 1.0 / (sizes[k] + report.evicted[k]))
            for k in np.flatnonzero(report.evicted)
        )
        assert report.delta_objective == pytest.approx(recomputed, rel=1e-12)


def test_bottom_k_by_key_structure():
    """After any ingest and settle sequence, every stratum retains exactly
    the smallest keys it has seen."""
    budget = 35
    state = _fresh(budget, seed=7000)
    all_keys: dict[tuple, list[float]] = {}
    rows = synthetic_stream(17, 1200)
    rel = Relation.from_records(SCHEMA, rows)
    for record, key_value in zip(rows, np.random.default_rng(7000).random(len(rows))):
        all_keys.setdefault((record[0],), []).append(float(key_value))
    for start in range(0, len(rows), 30):
        ingest_batch(state, rel, np.arange(start, start + 30))
        assert state.total_retained <= budget

    assert state.total_retained == budget
    sizes = state.sizes()
    for k, values in enumerate(state.ids):
        expect = sorted(all_keys[values])[: sizes[k]]
        assert retained_keys(state, k) == pytest.approx(expect, abs=0)
        assert state.n_seen[k] == len(all_keys[values])


def test_threshold_never_increases():
    state = _fresh(budget=20)
    rel = Relation.from_records(SCHEMA, synthetic_stream(23, 900))
    last_d = np.zeros(0)
    for start in range(0, 900, 45):
        ingest_batch(state, rel, np.arange(start, start + 45))
        assert (state.d[: len(last_d)] <= last_d + 1e-15).all()
        last_d = state.d.copy()


def test_two_pass_reference_equals_offline_pipeline():
    rows = synthetic_stream(29, 800)
    sample = two_pass_reference(rows, SCHEMA, ("g",), OBJ, 50, seed=9)
    rel = Relation.from_records(SCHEMA, rows)
    from gbsample.sampler import draw_stratified

    plan = offline_plan(rel, ("g",), OBJ, 50)
    direct = draw_stratified(rel, plan, seed=9)
    assert sample.total_rows == direct.total_rows == 50
    assert sample.keys == direct.keys
    assert sample.size.tolist() == direct.size.tolist()
    assert sample.source_ids.tolist() == direct.source_ids.tolist()


def test_two_pass_single_stratum_budget_cap():
    rows = [("only", float(i)) for i in range(30)]
    sample = two_pass_reference(rows, SCHEMA, ("g",), OBJ, 50, seed=4)
    assert sample.total_rows == 30  # min(M, n)
    sample2 = two_pass_reference(rows, SCHEMA, ("g",), OBJ, 12, seed=4)
    assert sample2.total_rows == 12


def test_budget_below_strata_count_degenerates_gracefully():
    # budget 2 against 5 one-row-per-arrival strata: settles must empty
    # some strata without going negative or crashing
    state = make_state(SCHEMA, ("g",), OBJ, 2, 0)
    rel = Relation.from_records(SCHEMA, [(f"g{i}", float(10 + i)) for i in range(5)] * 3)
    for start in range(0, len(rel), 5):
        ingest_batch(state, rel, np.arange(start, start + 5))
        assert state.total_retained <= 2
    assert (state.sizes() >= 0).all()
    assert state.total_retained == 2


def test_online_moments_match_offline_catalog():
    from gbsample.stats import compute_catalog

    rel = Relation.from_records(SCHEMA, synthetic_stream(41, 700))
    state = _fresh(budget=30)
    for start in range(0, 700, 70):
        ingest_batch(state, rel, np.arange(start, start + 70))
    catalog = compute_catalog(rel, ["g"], ["v"])
    assert list(state.ids) == catalog.keys
    assert state.n_seen.tolist() == catalog.n.tolist()
    std = np.sqrt(state.m2["v"] / (state.n_seen - 1))
    assert state.mean["v"] == pytest.approx(catalog.mean["v"], rel=1e-12)
    assert std == pytest.approx(catalog.std["v"], rel=1e-9)


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=12),
    st.integers(4, 60),
    st.integers(0, 10_000),
)
def test_stream_invariants_random_batch_sizes(batch_sizes, budget, seed0):
    """Under any batch-size sequence: the budget holds after every settle,
    thresholds never rise, and retained sets stay bottom-k by key."""
    rows = synthetic_stream(5, sum(batch_sizes), groups=3)
    rel = Relation.from_records(SCHEMA, rows)
    state = _fresh(budget=budget, seed=seed0)
    seen: dict = {}
    for record, key_value in zip(rows, np.random.default_rng(seed0).random(len(rows))):
        seen.setdefault(record[0], []).append(float(key_value))
    start = 0
    last_d = np.zeros(0)
    for size in batch_sizes:
        start += size
        ingest_batch(state, rel, np.arange(start - size, start))
        assert state.total_retained <= budget
        assert (state.d[: len(last_d)] <= last_d).all()
        last_d = state.d.copy()
    sizes = state.sizes()
    for k, values in enumerate(state.ids):
        expect = sorted(seen[values[0]])[: sizes[k]]
        assert retained_keys(state, k) == expect


@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=12),
    st.integers(0, 11),
    st.integers(0, 2**32 - 1),
)
@example(batch_sizes=[3, 0, 4], bad_at=1, seed=0)
def test_the_ith_row_accepted_holds_the_ith_key_of_the_seed(batch_sizes, bad_at, seed):
    """However the stream is cut into batches, empty ones included, the row
    of arrival ordinal i holds key ``default_rng(seed).random(N)[i]`` under a
    budget of at least N; a batch rejected before batch ``bad_at`` (that
    batch's rows with a new stratum's, one of them infinite) draws no key."""
    rows = synthetic_stream(5, sum(batch_sizes), groups=3)
    rel = Relation.from_records(SCHEMA, rows + [("late", 1.0), ("late", math.inf)])
    bad = np.arange(len(rows), len(rel))
    state = _fresh(budget=len(rows) + 1, seed=seed)
    start = 0
    for b, size in enumerate(batch_sizes):
        batch = np.arange(start, start + size)
        if b == bad_at % len(batch_sizes):
            drawn = state.rng.bit_generator.state
            with pytest.raises(SchemaMismatch, match="non-finite"):
                ingest_batch(state, rel, np.concatenate((batch, bad)))
            assert state.rng.bit_generator.state == drawn
        ingest_batch(state, rel, batch)
        start += size
    table = state.retained[np.argsort(state.retained["ordinal"])]
    assert table["ordinal"].tolist() == list(range(len(rows)))
    assert table["key"].tobytes() == np.random.default_rng(seed).random(len(rows)).tobytes()
    assert ("late",) not in state.ids


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(-40, 40).map(lambda k: k / 4)),
        min_size=1,
        max_size=60,
    ),
    st.lists(st.integers(1, 15), min_size=1, max_size=10),
    st.integers(0, 6),
    st.sampled_from([OVERFLOW_ROWS[:2], SCORE_OVERFLOW_ROWS[:3]]),
    st.integers(1, 12),
)
@example(rows=[(0, 1.0), (0, 1.0), (1, -1.0), (1, 1.0)], batch_sizes=[2], bad_at=1,
         bad_rows=SCORE_OVERFLOW_ROWS[:3], budget=1)
def test_f2_is_the_floored_score_of_the_committed_moments(
    rows, batch_sizes, bad_at, bad_rows, budget
):
    """After every accepted batch, strata first seen mid-stream and
    zero-score ones included, ``f2`` is the floored squared-CV sum of the
    committed moments, bit for bit; batch ``bad_at`` first arrives with the
    rows of a new stratum a that overflow, and its rejection leaves ``f2``
    as it was.  Batch sizes cycle through ``batch_sizes``."""
    rows = [(f"g{g}", x) for g, x in rows]
    rel = Relation.from_records(SCHEMA, rows + bad_rows)
    bad = np.arange(len(rows), len(rel))
    state = _fresh(budget=budget)
    start, b = 0, 0
    while start < len(rows):
        batch = np.arange(start, min(start + batch_sizes[b % len(batch_sizes)], len(rows)))
        if b == bad_at:
            before = state.f2
            with pytest.raises((SchemaMismatch, FloatOverflow)):
                ingest_batch(state, rel, np.concatenate((batch, bad)))
            assert state.f2 is before and len(before) == len(state.ids)
        ingest_batch(state, rel, batch)
        want = floor_zero_costs(_squared_cvs(state, state.n_seen, state.mean, state.m2))
        assert state.f2.tobytes() == want.tobytes() and len(want) == len(state.ids)
        start, b = start + len(batch), b + 1


def test_snapshot_usable_for_estimation():
    rel = Relation.from_records(SCHEMA, synthetic_stream(31, 1000))
    state = _fresh(budget=80)
    for start in range(0, 1000, 100):
        ingest_batch(state, rel, np.arange(start, start + 100))
    snap = state.snapshot()
    from gbsample.query import AVG, QueryRequest, estimate

    ests = estimate(snap, QueryRequest(("g",), AVG, "v"))
    from gbsample.query import exact_answer

    exact = {e.group: e.value for e in exact_answer(rel, ["g"], "v", AVG)}
    for est in ests:
        assert abs(est.value - exact[est.group]) / abs(exact[est.group]) < 0.25


def _relation_bits(rel):
    """The row count and every column of ``rel``: numeric bytes, or codes
    and levels."""
    columns = []
    for c in rel.schema:
        if c.kind == NUMERIC:
            x = rel.numeric(c.name)
            columns.append((x.dtype.str, x.tobytes()))
        else:
            codes, levels = rel.encoded(c.name)
            columns.append((codes.dtype.str, codes.tobytes(), levels))
    return rel.n_rows, columns


@pytest.mark.parametrize("n_rows", [300, 0])
def test_the_snapshot_holds_the_relation_of_its_records(n_rows):
    rel = Relation.from_records(SCHEMA, synthetic_stream(5, n_rows))
    state = _fresh(budget=30)
    for start in range(0, n_rows, 50):
        ingest_batch(state, rel, np.arange(start, start + 50))
    table = state.retained[np.lexsort((state.retained["ordinal"], state.retained["stratum"]))]
    want = Relation.from_records(SCHEMA, table["record"].tolist())
    assert _relation_bits(state.snapshot().columns) == _relation_bits(want)
    assert state.snapshot().total_rows == min(n_rows, 30)


def test_snapshot_holds_each_stratum_in_arrival_order():
    rows = synthetic_stream(5, 300)
    rel = Relation.from_records(SCHEMA, rows)
    state = _fresh(budget=30)
    for start in range(0, 300, 50):
        ingest_batch(state, rel, np.arange(start, start + 50))
    snap = state.snapshot()
    assert snap.keys == list(state.ids)
    assert snap.n.tolist() == state.n_seen.tolist()
    table = state.retained
    arrivals = [
        sorted(table["ordinal"][table["stratum"] == k].tolist()) for k in state.ids.values()
    ]
    assert snap.size.tolist() == [len(a) for a in arrivals]
    ordinals = [r for a in arrivals for r in a]
    assert snap.source_ids.tolist() == ordinals
    assert snap.columns.records(np.arange(snap.total_rows)) == [rows[r] for r in ordinals]


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=1,
        max_size=80,
    ),
    st.lists(st.integers(1, 20), min_size=1, max_size=20),
)
@example(rows=[(0, 2.5), (1, -1.0), (0, 7.25), (2, 0.1), (0, 1e-3)], batch_sizes=[1])
@example(rows=[(g, 1.5 * g) for g in range(6)], batch_sizes=[4])
def test_lockstep_moments_equal_a_row_by_row_fold(rows, batch_sizes):
    """The moments after any batch split, batch size 1 and single-row strata
    included, are exactly those of folding each stratum's values one at a
    time in arrival order; batch sizes cycle through ``batch_sizes``."""
    schema = SCHEMA + (ColumnSchema("w", NUMERIC),)
    rows = [(f"g{g}", x, x * x - 3.0) for g, x in rows]
    rel = Relation.from_records(schema, rows)
    state = make_state(schema, ("g",), ("v", "w"), 10, 0)
    start, b = 0, 0
    while start < len(rows):
        size = batch_sizes[b % len(batch_sizes)]
        ingest_batch(state, rel, np.arange(start, min(start + size, len(rows))))
        start, b = start + size, b + 1
    for k, (name,) in enumerate(state.ids):
        for col, pos in (("v", 1), ("w", 2)):
            m = from_values([r[pos] for r in rows if r[0] == name])
            assert state.n_seen[k] == m.count
            assert (state.mean[col][k], state.m2[col][k]) == (m.mean, m.m2)


def test_a_repeated_aggregation_column_is_folded_once():
    rows = [("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 9.0), ("a", 8.0)]
    rel = Relation.from_records(SCHEMA, rows)
    once = make_state(SCHEMA, ("g",), ("v",), 3, 4)
    twice = make_state(SCHEMA, ("g",), ("v", "v"), 3, 4)
    for state in (once, twice):
        ingest_batch(state, rel, np.arange(len(rel)))
    assert twice.mean["v"].tobytes() == once.mean["v"].tobytes()
    assert twice.m2["v"].tobytes() == once.m2["v"].tobytes()
    # each column's cv^2 is added as listed, as cv2_costs adds it
    assert twice.f2.tobytes() == (2 * once.f2).tobytes()
    assert twice.f2 == pytest.approx([1.625, 1.6198], abs=5e-5)
    plan = offline_plan(rel, ("g",), ("v", "v"), 3)
    assert twice.sizes().tolist() == [int(size) for size in plan.sizes] == [2, 1]


def _bits(state):
    """Every array and count of a stream state and its last settle, as
    bytes where they are floats."""
    report = state.last_settle
    return (
        list(state.ids.items()), state.n_seen.tobytes(), state.d.tobytes(), state.f2.tobytes(),
        {c: (state.mean[c].tobytes(), state.m2[c].tobytes()) for c in state.mean},
        [state.retained[f].tobytes() for f in ("stratum", "key", "ordinal")],
        repr(state.retained["record"].tolist()), state.arrivals,
        (report.beta, report.evicted.tobytes(), report.targets.tobytes(),
         report.f_squared.tobytes(), np.float64(report.delta_objective).tobytes()),
    )


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(-40, 40).map(lambda k: k / 4)),
        min_size=1,
        max_size=60,
    ),
    st.lists(st.integers(0, 15), min_size=1, max_size=10).filter(any),
    st.sampled_from([("g",), ("g", "h")]),
    st.sampled_from([("v",), ("v", "w"), ("v", "v")]),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_ingest_matches_the_record_fed_oracle(rows, batch_sizes, attrs, columns, budget, seed):
    """Rows of a relation fed by row number, in shuffled batches of any size
    (empty ones included), give the state the record-fed ingest gives the
    same records, bit for bit, after every batch.  The stratum "late" is
    first seen once every other row has arrived."""
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("h", CATEGORICAL),
              ColumnSchema("v", NUMERIC), ColumnSchema("w", NUMERIC))
    records = [(f"g{g}", f"h{h}", x, x * x - 3.0) for g, h, x in rows]
    records += [("late", "h0", 2.0, 1.0), ("late", "h1", 5.5, 27.25)]
    rel = Relation.from_records(schema, records)
    rng = np.random.default_rng(seed)
    order = np.concatenate((rng.permutation(len(rows)), len(rows) + rng.permutation(2)))
    state = make_state(schema, attrs, columns, budget, seed)
    oracle = make_state(schema, attrs, columns, budget, seed)
    start, b = 0, 0
    while start < len(order):
        batch = order[start : start + batch_sizes[b % len(batch_sizes)]]
        ingest_batch(state, rel, batch)
        reference.ingest_batch(oracle, [records[i] for i in batch])
        assert _bits(state) == _bits(oracle)
        start, b = start + len(batch), b + 1
