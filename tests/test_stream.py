import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gbsample.alloc import UNIT_WEIGHTS
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, GroupKey, Relation
from gbsample.errors import SchemaMismatch
from gbsample.stream import (
    KeyedStratumSample,
    ObjectiveSpec,
    batch_keys,
    ingest_batch,
    make_state,
    offline_plan,
    settle_budget,
)

from reference import two_pass_reference

SCHEMA = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
OBJ = ObjectiveSpec(("v",))


def synthetic_stream(seed, n, groups=4, sigma_scale=2.0):
    rng = np.random.default_rng(seed)
    names = [f"g{i}" for i in range(groups)]
    rows = []
    for _ in range(n):
        i = int(rng.integers(groups))
        value = rng.normal(50.0 * (i + 1), sigma_scale * (i + 1))
        rows.append((names[i], float(value)))
    return rows


def _fresh(budget=40):
    return make_state(SCHEMA, ("g",), OBJ, budget)


def test_objective_spec_default_weights_are_shared_unit_weights():
    # An unhashable dataclass default fails at import on Python >= 3.11.
    assert ObjectiveSpec(("v",)).weights is UNIT_WEIGHTS
    assert ObjectiveSpec(("v",)) == ObjectiveSpec(("v",))
    assert hash(ObjectiveSpec(("v",))) == hash(ObjectiveSpec(("v",)))


def test_schema_mismatch():
    state = _fresh()
    with pytest.raises(SchemaMismatch):
        ingest_batch(state, [("a", 1.0, 9.9)], seed=0)
    with pytest.raises(SchemaMismatch):
        ingest_batch(state, [("a", "oops")], seed=0)
    with pytest.raises(SchemaMismatch):
        make_state(SCHEMA, ("nope",), OBJ, 10)


def test_key_above_threshold_is_rejected():
    state = _fresh(budget=100)
    stratum = KeyedStratumSample(GroupKey(("g",), ("a",)))
    stratum.d = 0.5
    state.strata[stratum.key] = stratum
    before = stratum.size
    accepted = stratum.offer(0.7, 0, ("a", 1.0))
    assert not accepted and stratum.size == before
    assert stratum.offer(0.4, 1, ("a", 1.0))


def test_settle_noop_below_budget():
    state = _fresh(budget=1000)
    ingest_batch(state, synthetic_stream(1, 200), seed=3)
    assert state.total_retained == 200  # everything retained, d still 1.0
    report = state.last_settle
    assert report.beta == 0 and not report.evicted


def test_single_batch_matches_offline_plan():
    rows = synthetic_stream(7, 3000)
    state = _fresh(budget=60)
    ingest_batch(state, rows, seed=11)
    rel = Relation.from_records(SCHEMA, rows)
    plan = offline_plan(rel, ("g",), OBJ, 60)
    assert state.total_retained == 60
    for key, size in zip(plan.keys, plan.sizes):
        assert abs(state.strata[key].size - int(size)) <= 1


def test_all_oversized_base_case_sets_rounded_targets():
    # two strata far above their targets; f ratio 3:1 via value spreads
    state = _fresh(budget=8)
    rows = [("a", float(v)) for v in (12, 18) * 20] + [
        ("b", float(v)) for v in (14, 16) * 20
    ]
    ingest_batch(state, rows, seed=5)
    targets = state.targets()
    sizes = {k.values[0]: s.size for k, s in state.strata.items()}
    assert sizes == {"a": 6, "b": 2}
    assert targets[GroupKey(("g",), ("a",))] == pytest.approx(6.0, rel=1e-9)


def test_eviction_only_touches_oversized():
    state = _fresh(budget=30)
    evictions_seen = 0
    for b, start in enumerate(range(0, 900, 90)):
        rows = synthetic_stream(100 + b, 90)
        ingest_batch(state, rows, seed=1000 + b)
        report = state.last_settle
        for key, count in report.evicted.items():
            evictions_seen += 1
            size_before_settle = state.strata[key].size + count
            assert size_before_settle > report.targets[key]
    assert evictions_seen > 0

    # the policy can cost F: stratum 3 sits below its target, so settle keeps
    # (1, 1, 1, 2) with an increase of 3.384, though (1, 2, 1, 1) adds 2.880
    f2 = np.array([0.10346266, 4.89471939, 0.13759474, 3.88691962])
    state = make_state(SCHEMA, ("g",), OBJ, 5)
    keys = [GroupKey(("g",), (f"s{i}",)) for i in range(4)]
    for i, (key, size) in enumerate(zip(keys, (2, 3, 2, 2))):
        stratum = KeyedStratumSample(key)
        for j in range(size):
            stratum.offer(0.1 * (j + 1), j, (f"s{i}", 0.0))
        state.strata[key] = stratum
    state.scores = lambda: (keys, f2)  # type: ignore
    settle_budget(state)
    assert [state.strata[k].size for k in keys] == [1, 1, 1, 2]
    report = state.last_settle
    assert report.targets[keys[3]] > 2
    assert report.delta_objective == pytest.approx(3.384, abs=5e-4)
    unrestricted = sum(f2 * (1.0 / np.array([1, 2, 1, 1]) - 1.0 / np.array([2, 3, 2, 2])))
    assert unrestricted == pytest.approx(2.880, abs=5e-4)


def test_eviction_matches_brute_force_small():
    rng = np.random.default_rng(13)
    for trial in range(60):
        k = int(rng.integers(2, 5))
        f2 = rng.uniform(0.1, 4.0, size=k)
        sizes = rng.integers(2, 9, size=k)
        # keep at least one row per stratum affordable
        beta = int(rng.integers(1, min(5, int(sizes.sum()) - k) + 1))
        budget = int(sizes.sum()) - beta

        state = make_state(SCHEMA, ("g",), OBJ, budget)
        for i in range(k):
            key = GroupKey(("g",), (f"s{i}",))
            stratum = KeyedStratumSample(key)
            for j in range(int(sizes[i])):
                stratum.offer(rng.random(), j, (f"s{i}", 0.0))
            stratum.n_seen = int(sizes[i])
            state.strata[key] = stratum
        # freeze the scores by monkeypatching: feed only constant columns,
        # then override with synthetic f^2
        keys = list(state.strata)
        state.scores = lambda keys=keys, f2=f2: (keys, f2)  # type: ignore

        before = {key: state.strata[key].size for key in keys}
        settle_budget(state)
        ours = sum(
            f2[i] * (1.0 / state.strata[key].size - 1.0 / before[key])
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
    rows = synthetic_stream(3, 600)
    for start in range(0, 600, 60):
        before = state.objective_value() if state.strata else None
        batch = rows[start : start + 60]
        # objective before settle but after moments update is not observable
        # from outside; check the settle report's own accounting instead
        ingest_batch(state, batch, seed=start)
        report = state.last_settle
        if not report.evicted:
            continue
        recomputed = sum(
            report.f_squared[key]
            * (1.0 / state.strata[key].size - 1.0 / (state.strata[key].size + count))
            for key, count in report.evicted.items()
        )
        assert report.delta_objective == pytest.approx(recomputed, rel=1e-12)


def test_bottom_k_by_key_structure():
    """After any ingest and settle sequence, every stratum retains exactly
    the smallest keys it has seen."""
    budget = 35
    state = _fresh(budget)
    all_keys: dict[GroupKey, list[float]] = {}
    rows = synthetic_stream(17, 1200)
    batch_size = 30
    for b, start in enumerate(range(0, len(rows), batch_size)):
        batch = rows[start : start + batch_size]
        seed = 7000 + b
        keys = batch_keys(seed, len(batch))
        for record, key_value in zip(batch, keys):
            gkey = GroupKey(("g",), (record[0],))
            all_keys.setdefault(gkey, []).append(float(key_value))
        ingest_batch(state, batch, seed=seed)
        assert state.total_retained <= budget

    assert state.total_retained == budget
    for gkey, stratum in state.strata.items():
        expect = sorted(all_keys[gkey])[: stratum.size]
        assert stratum.retained_keys() == pytest.approx(expect, abs=0)
        assert stratum.n_seen == len(all_keys[gkey])


def test_threshold_never_increases():
    state = _fresh(budget=20)
    rows = synthetic_stream(23, 900)
    last_d: dict[GroupKey, float] = {}
    for b, start in enumerate(range(0, 900, 45)):
        ingest_batch(state, rows[start : start + 45], seed=b)
        for key, stratum in state.strata.items():
            if key in last_d:
                assert stratum.d <= last_d[key] + 1e-15
            last_d[key] = stratum.d


def test_two_pass_reference_equals_offline_pipeline():
    rows = synthetic_stream(29, 800)
    sample = two_pass_reference(rows, SCHEMA, ("g",), OBJ, 50, seed=9)
    rel = Relation.from_records(SCHEMA, rows)
    from gbsample.sampler import draw_stratified

    plan = offline_plan(rel, ("g",), OBJ, 50)
    direct = draw_stratified(rel, plan, seed=9)
    assert sample.total_rows == direct.total_rows == 50
    for a, b in zip(sample.strata, direct.strata):
        assert a.key == b.key and a.row_ids == b.row_ids


def test_two_pass_single_stratum_budget_cap():
    rows = [("only", float(i)) for i in range(30)]
    sample = two_pass_reference(rows, SCHEMA, ("g",), OBJ, 50, seed=4)
    assert sample.total_rows == 30  # min(M, n)
    sample2 = two_pass_reference(rows, SCHEMA, ("g",), OBJ, 12, seed=4)
    assert sample2.total_rows == 12


def test_budget_below_strata_count_degenerates_gracefully():
    # budget 2 against 5 one-row-per-arrival strata: settles must empty
    # some strata without going negative or crashing
    state = make_state(SCHEMA, ("g",), OBJ, 2)
    rows = [(f"g{i}", float(10 + i)) for i in range(5)] * 3
    for b, start in enumerate(range(0, len(rows), 5)):
        ingest_batch(state, rows[start : start + 5], seed=b)
        assert state.total_retained <= 2
    assert all(st.size >= 0 for st in state.strata.values())
    assert state.total_retained == 2


def test_online_moments_match_offline_catalog():
    from gbsample.stats import compute_catalog

    rows = synthetic_stream(41, 700)
    state = _fresh(budget=30)
    for start in range(0, 700, 70):
        ingest_batch(state, rows[start : start + 70], seed=start)
    rel = Relation.from_records(SCHEMA, rows)
    catalog = compute_catalog(rel, ["g"], ["v"])
    assert [key.values for key in state.strata] == catalog.keys
    for k, stratum in enumerate(state.strata.values()):
        m = stratum.moments["v"]
        assert stratum.n_seen == catalog.n[k]
        assert m.mean == pytest.approx(catalog.mean["v"][k], rel=1e-12)
        assert m.std == pytest.approx(catalog.std["v"][k], rel=1e-9)


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=12),
    st.integers(4, 60),
    st.integers(0, 10_000),
)
def test_stream_invariants_random_batch_sizes(batch_sizes, budget, seed0):
    """Under any batch-size sequence: the budget holds after every settle,
    thresholds never rise, and retained sets stay bottom-k by key."""
    rows = synthetic_stream(5, sum(batch_sizes), groups=3)
    state = _fresh(budget=budget)
    seen: dict = {}
    start = 0
    last_d: dict = {}
    for b, size in enumerate(batch_sizes):
        batch = rows[start : start + size]
        start += size
        seed = seed0 + b
        for record, key_value in zip(batch, batch_keys(seed, len(batch))):
            seen.setdefault(record[0], []).append(float(key_value))
        ingest_batch(state, batch, seed=seed)
        assert state.total_retained <= budget
        for key, stratum in state.strata.items():
            if key in last_d:
                assert stratum.d <= last_d[key]
            last_d[key] = stratum.d
    for key, stratum in state.strata.items():
        expect = sorted(seen[key.values[0]])[: stratum.size]
        assert stratum.retained_keys() == expect


def test_snapshot_usable_for_estimation():
    rows = synthetic_stream(31, 1000)
    state = _fresh(budget=80)
    for b, start in enumerate(range(0, 1000, 100)):
        ingest_batch(state, rows[start : start + 100], seed=b)
    snap = state.snapshot()
    from gbsample.query import AVG, QueryRequest, estimate

    ests = estimate(snap, QueryRequest(("g",), AVG, "v"))
    rel = Relation.from_records(SCHEMA, rows)
    from gbsample.query import exact_answer

    exact = exact_answer(rel, ["g"], "v", AVG)
    for est in ests:
        assert abs(est.value - exact[est.group]) / abs(exact[est.group]) < 0.25


def test_snapshot_holds_each_stratum_in_arrival_order():
    rows = synthetic_stream(5, 300)
    state = _fresh(budget=30)
    for b, start in enumerate(range(0, 300, 50)):
        ingest_batch(state, rows[start : start + 50], seed=b)
    snap = state.snapshot()
    assert [s.key for s in snap.strata] == list(state.strata)
    for got, (key, stratum) in zip(snap.strata, state.strata.items()):
        arrivals = sorted(ordinal for _, ordinal, _ in stratum.heap)
        assert (got.n, got.size) == (stratum.n_seen, stratum.size)
        assert got.row_ids == arrivals
        assert got.rows == [rows[r] for r in arrivals]
