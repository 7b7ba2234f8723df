"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value is either computed by an independent oracle
inside this module (brute force, grid/bisection search, exhaustive
enumeration, Monte-Carlo moments) or asserted directly from arithmetic.
"""

import itertools
import math
import time

import numpy as np
import pytest

from gbsample.alloc import (
    GroupQuery,
    build_finest,
    cube_queries,
    cv_costs,
    inclusion_rates,
    l2_objective,
    l2_sizes,
    multi_grouping_costs,
    plan_individual,
    plan_l2,
    plan_linf,
    predicted_cv,
    resolve_caps,
    solve_fractional,
)
from gbsample.baselines import alloc_congress, alloc_senate, alloc_uniform
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, GroupKey, Relation
from gbsample.query import AVG, COUNT, QueryRequest, estimate, evaluate
from gbsample.sampler import draw_poisson, draw_stratified
from gbsample.stats import compute_catalog
from gbsample.stream import (
    KeyedStratumSample,
    ObjectiveSpec,
    batch_keys,
    ingest_batch,
    make_state,
    offline_plan,
    settle_budget,
)
from gbsample.workload import QuerySpec, derive_aggregation_groups
from gbsample.query import Atom, Predicate

from conftest import STUDENT_ROWS


def _announce(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. closed-form optimality


def _lambda_bisection_objective(costs, budget):
    """Independent fractional oracle via bisection on the stationarity
    multiplier lam: s_i(lam) = sqrt(c_i / lam), total decreasing in lam."""
    costs = np.asarray(costs, dtype=float)

    def total(lam):
        return float(np.sqrt(costs / lam).sum())

    lo, hi = 1e-30, 1.0
    while total(hi) > budget:
        hi *= 4.0
    while total(lo) < budget:
        lo *= 4.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if total(mid) > budget:
            lo = mid
        else:
            hi = mid
    s = np.sqrt(costs / math.sqrt(lo * hi))
    return float((costs / s).sum())


def _grid_objective(costs, budget, steps=1600):
    costs = np.asarray(costs, dtype=float)
    r = costs.size
    eps = budget / steps
    grid = np.linspace(eps, budget - eps, steps - 1)
    if r == 1:
        return costs[0] / budget
    if r == 2:
        return float((costs[0] / grid + costs[1] / (budget - grid)).min())
    best = math.inf
    for s1 in grid:
        rest = budget - s1
        s2 = np.linspace(rest / steps, rest - rest / steps, steps - 1)
        obj = costs[0] / s1 + costs[1] / s2 + costs[2] / (rest - s2)
        best = min(best, float(obj.min()))
    return best


def test_criterion_1_closed_form_optimality():
    start = time.time()
    rng = np.random.default_rng(101)
    for trial in range(100):
        r = int(rng.integers(1, 7))
        costs = rng.uniform(0.01, 100.0, size=r)
        budget = int(rng.integers(r, 1001))
        s = solve_fractional(costs, budget)

        assert float(s.sum()) == pytest.approx(budget, rel=1e-12)
        ratios = costs / s**2
        assert ratios.max() == pytest.approx(ratios.min(), rel=1e-9)

        ours = float((costs / s).sum())
        oracle = _lambda_bisection_objective(costs, budget)
        assert ours == pytest.approx(oracle, rel=1e-6)
        assert ours <= oracle * (1 + 1e-9)
        if r <= 3:
            assert ours <= _grid_objective(costs, budget) * (1 + 1e-9)
            assert ours == pytest.approx(_grid_objective(costs, budget), rel=1e-5)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _announce(1, f"closed form matches bisection/grid oracles on 100 instances "
                 f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. integer optimality


def _compositions(total, caps):
    caps = list(caps)

    def rec(i, remaining):
        if i == len(caps) - 1:
            if 1 <= remaining <= caps[i]:
                yield (remaining,)
            return
        tail_max = sum(caps[i + 1 :])
        lo = max(1, remaining - tail_max)
        hi = min(caps[i], remaining - (len(caps) - i - 1))
        for s in range(lo, hi + 1):
            for rest in rec(i + 1, remaining - s):
                yield (s,) + rest

    yield from rec(0, total)


def test_criterion_2_integer_near_optimality():
    start = time.time()
    rng = np.random.default_rng(202)
    trials = 0
    while trials < 150:
        r = int(rng.integers(2, 5))
        costs = rng.uniform(0.01, 100.0, size=r)
        caps = rng.integers(1, 26, size=r)
        if int(caps.sum()) < r + 1:
            continue
        budget = int(rng.integers(r, min(25, int(caps.sum())) + 1))
        trials += 1

        fractional, _ = resolve_caps(costs, caps, budget)
        sizes, _ = l2_sizes(fractional, costs, caps, budget)
        ours = l2_objective(costs, sizes)

        target = min(budget, int(caps.sum()))
        best = min(
            sum(c / s for c, s in zip(costs, comp))
            for comp in _compositions(target, caps)
        )
        frac_bound = l2_objective(costs, fractional)
        assert ours >= frac_bound - 1e-9 * abs(frac_bound)
        assert ours == pytest.approx(best, rel=1e-12)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _announce(2, f"integer plans equal {trials} exhaustive integer optima "
                 f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. CV calibration


def test_criterion_3_cv_calibration():
    start = time.time()
    rng = np.random.default_rng(303)
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    spec = [("a", 100.0, 5.0), ("b", 40.0, 8.0), ("c", 250.0, 60.0)]
    rows = []
    for name, mu, sigma in spec:
        for v in rng.normal(mu, sigma, size=1000):
            rows.append((name, float(v)))
    rel = Relation.from_records(schema, rows)
    catalog = compute_catalog(rel, ["g"], ["v"])
    plan = plan_l2(catalog, ["v"], 150)

    reps = 2000
    values: dict[GroupKey, list[float]] = {}
    for seed in range(reps):
        sample = draw_stratified(rel, plan, seed=seed)
        for est in estimate(sample, QueryRequest(("g",), AVG, "v")):
            values.setdefault(est.group, []).append(est.value)

    for key, n, s in zip(plan.keys, plan.populations, plan.sizes):
        stats_v = catalog.entries[key].per_column["v"]
        predicted_std = (
            predicted_cv(int(n), int(s), stats_v.mean, stats_v.std)
            * abs(stats_v.mean)
        )
        arr = np.asarray(values[key])
        emp_std = float(arr.std(ddof=1))
        assert abs(emp_std - predicted_std) <= 0.05 * predicted_std, key
        se = emp_std / math.sqrt(reps)
        assert abs(float(arr.mean()) - stats_v.mean) <= 3 * se, key
    elapsed = time.time() - start
    assert elapsed < 120.0
    _announce(3, f"empirical estimator spread within 5% of predicted CV and "
                 f"means unbiased over {reps} draws ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. minimax behavior


def _fixture_catalogs():
    def build(groups):
        schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
        rows = []
        for name, n, mean, cv in groups:
            d = cv * mean * math.sqrt((n - 1) / n)
            for j in range(n):
                rows.append((name, mean + (d if j % 2 else -d)))
        return compute_catalog(Relation.from_records(schema, rows), ["g"], ["v"])

    return [
        ("steep", build([("a", 100, 10.0, 2.0), ("b", 100, 10.0, 1.0), ("c", 100, 10.0, 0.5)]), 30),
        ("skewed", build([("a", 400, 5.0, 1.5), ("b", 300, 20.0, 0.4), ("c", 500, 2.0, 0.1)]), 90),
        ("pair", build([("a", 200, 15.0, 0.6), ("b", 200, 15.0, 0.2)]), 40),
        ("flat12", build([(f"g{i:02d}", 100, 10.0, 0.2 + 0.01 * i) for i in range(12)]), 200),
    ]


def test_criterion_4_minimax_behavior():
    exhaustive = 0
    for name, catalog, budget in _fixture_catalogs():
        plan_inf = plan_linf(catalog, "v", budget)
        plan_sq = plan_l2(catalog, ["v"], budget)

        def max_cv(plan):
            worst = 0.0
            for key, n, s in zip(plan.keys, plan.populations, plan.sizes):
                stats_v = catalog.entries[key].per_column["v"]
                worst = max(
                    worst, predicted_cv(int(n), int(s), stats_v.mean, stats_v.std)
                )
            return worst

        assert max_cv(plan_inf) <= max_cv(plan_sq) + 1e-12, name

        # the exact integer minimax, over every composition of the budget
        keys = list(catalog.entries)
        if len(keys) <= 3:
            pops = [catalog.entries[k].n for k in keys]
            cv_of = [
                [None] + [
                    predicted_cv(n, s, catalog.entries[k].per_column["v"].mean,
                                 catalog.entries[k].per_column["v"].std)
                    for s in range(1, n + 1)
                ]
                for k, n in zip(keys, pops)
            ]
            best = min(
                max(cv_of[i][s] for i, s in enumerate(comp))
                for comp in _compositions(budget, pops)
            )
            assert max_cv(plan_inf) == pytest.approx(best, rel=1e-12), name
            exhaustive += 1

        cvs = []
        for key, x in zip(plan_inf.keys, plan_inf.fractional):
            stats_v = catalog.entries[key].per_column["v"]
            n = catalog.entries[key].n
            cvs.append(stats_v.cv * math.sqrt((n - x) / (n * x)))
        assert max(cvs) - min(cvs) <= 1e-6 * max(cvs), name
    assert exhaustive == 3
    _announce(4, "minimax plans never raise the worst predicted CV, equal the "
                 "exhaustive integer minimax and the continuous optimum "
                 "equalizes all CVs")


# ---------------------------------------------------------------------------
# 5. multi-group-by coefficient correctness


def _rows_matching(attrs, values):
    pos = {"major": 4, "college": 5}
    return [
        r for r in STUDENT_ROWS if all(r[pos[a]] == v for a, v in zip(attrs, values))
    ]


def _mean(vals):
    return sum(vals) / len(vals)


def _var(vals):
    m = _mean(vals)
    return sum((v - m) ** 2 for v in vals) / (len(vals) - 1) if len(vals) > 1 else 0.0


def _beta_oracle(fine_values, queries, column_pos=2):
    majors_colleges = sorted({(r[4], r[5]) for r in STUDENT_ROWS})
    out = {}
    for mj, cl in majors_colleges:
        fine_rows = _rows_matching(("major", "college"), (mj, cl))
        n_f = len(fine_rows)
        sigma2 = _var([r[column_pos] for r in fine_rows])
        total = 0.0
        for attrs in queries:
            values = tuple({"major": mj, "college": cl}[a] for a in attrs)
            coarse = _rows_matching(attrs, values)
            mu = _mean([r[column_pos] for r in coarse])
            total += sigma2 / (len(coarse) ** 2 * mu**2)
        out[(mj, cl)] = n_f**2 * total
    return out


def test_criterion_5_multi_groupby_coefficients(student_rel):
    # pair of queries: by major and by college, both averaging gpa
    queries = [GroupQuery(("major",), ("gpa",)), GroupQuery(("college",), ("gpa",))]
    fs = build_finest(student_rel, queries)
    keys, costs = multi_grouping_costs(fs)
    oracle = _beta_oracle(None, [("major",), ("college",)])
    for key, cost in zip(keys, costs):
        assert cost == pytest.approx(oracle[key.values], rel=1e-12)

    # the worked closed form for one fine stratum:
    # beta = n_fine^2 sigma_fine^2 (1/(n_major^2 mu_major^2)
    #                               + 1/(n_college^2 mu_college^2))
    cs_sci = _rows_matching(("major", "college"), ("CS", "Science"))
    sigma2 = _var([r[2] for r in cs_sci])
    mu_major = _mean([r[2] for r in _rows_matching(("major",), ("CS",))])
    mu_college = _mean([r[2] for r in _rows_matching(("college",), ("Science",))])
    worked = (
        len(cs_sci) ** 2
        * sigma2
        * (1.0 / (2**2 * mu_major**2) + 1.0 / (4**2 * mu_college**2))
    )
    idx = keys.index(GroupKey(("major", "college"), ("CS", "Science")))
    assert costs[idx] == pytest.approx(worked, rel=1e-12)

    # all four grouping sets of the cube over (major, college)
    cube = cube_queries(("major", "college"), ("gpa",))
    fs_cube = build_finest(student_rel, cube)
    keys_c, costs_c = multi_grouping_costs(fs_cube)
    oracle_c = _beta_oracle(None, [("major", "college"), ("major",), ("college",), ()])
    for key, cost in zip(keys_c, costs_c):
        assert cost == pytest.approx(oracle_c[key.values], rel=1e-12)
    _announce(5, "union-stratification coefficients match the hand-expanded "
                 "oracle for the query pair and the full cube to 1e-12")


# ---------------------------------------------------------------------------
# 6. workload derivation


def _brute_force_frequencies(rows, workload):
    """Independent derivation straight over raw records."""
    pos = {"id": 0, "age": 1, "gpa": 2, "sat": 3, "major": 4, "college": 5}
    tally: dict[tuple, int] = {}
    for q in workload:
        kept = []
        for i, r in enumerate(rows):
            if q.predicate is None:
                kept.append(i)
            else:
                ok = True
                for atom in q.predicate.atoms:
                    if r[pos[atom.column]] != atom.value:
                        ok = False
                if ok:
                    kept.append(i)
        groups: dict[tuple, list[int]] = {}
        for i in kept:
            key = tuple(rows[i][pos[a]] for a in q.group_attrs)
            groups.setdefault(key, []).append(i)
        for col in q.agg_columns:
            for key, members in groups.items():
                ident = (col, frozenset(members))
                tally[ident] = tally.get(ident, 0) + q.repeats
    return tally


def test_criterion_6_workload_frequencies(student_rel):
    science = Predicate((Atom("college", "=", "Science"),))
    workload = [
        QuerySpec(("major",), ("age", "gpa"), None, 20),
        QuerySpec(("college",), ("age", "sat"), None, 10),
        QuerySpec(("major",), ("gpa",), science, 15),
    ]
    table = derive_aggregation_groups(student_rel, workload)
    by_label = {
        (e.column, e.group.values): f for e, f in table.frequencies.items()
    }
    assert by_label[("gpa", ("CS",))] == 35
    assert by_label[("gpa", ("Math",))] == 35

    oracle = _brute_force_frequencies(STUDENT_ROWS, workload)
    ours = {
        (e.column, e.member_rows): f for e, f in table.frequencies.items()
    }
    assert ours == oracle

    derived_age_major = by_label[("age", ("CS",))]
    assert derived_age_major == 20
    _announce(
        6,
        "workload frequencies match brute force; shared gpa entities get 35; "
        "note: an external reference table lists 25 for the age-by-major "
        f"entities where direct derivation gives {derived_age_major}",
    )


# ---------------------------------------------------------------------------
# 7. eviction optimality


def test_criterion_7_eviction_optimality():
    start = time.time()
    rng = np.random.default_rng(707)
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    untouched_checks = 0
    for trial in range(200):
        k = int(rng.integers(2, 5))
        f2 = rng.uniform(0.05, 5.0, size=k)
        sizes = rng.integers(2, 10, size=k)
        beta = int(rng.integers(1, min(5, int(sizes.sum()) - k) + 1))
        budget = int(sizes.sum()) - beta

        state = make_state(schema, ("g",), ObjectiveSpec(("v",)), budget)
        keys = []
        for i in range(k):
            key = GroupKey(("g",), (f"s{i}",))
            keys.append(key)
            stratum = KeyedStratumSample(key)
            for j in range(int(sizes[i])):
                stratum.offer(float(rng.random()), j, (f"s{i}", 0.0))
            stratum.n_seen = int(sizes[i])
            state.strata[key] = stratum
        state.scores = lambda keys=keys, f2=f2: (keys, f2)  # type: ignore

        before = {key: state.strata[key].size for key in keys}
        keys_before = {key: state.strata[key].retained_keys() for key in keys}
        settle_budget(state)
        report = state.last_settle

        ours = sum(
            f2[i] * (1.0 / state.strata[key].size - 1.0 / before[key])
            for i, key in enumerate(keys)
        )
        best = math.inf
        for evictions in itertools.product(
            *[range(0, before[key] + 1) for key in keys]
        ):
            if sum(evictions) != beta:
                continue
            if any(before[key] - e == 0 for key, e in zip(keys, evictions)):
                continue
            delta = sum(
                f2[i] * (1.0 / (before[key] - e) - 1.0 / before[key])
                for i, (key, e) in enumerate(zip(keys, evictions))
            )
            best = min(best, delta)
        assert ours == best, (trial, ours, best)

        # strata at or below their fractional target are untouched
        for key in keys:
            if before[key] <= report.targets[key]:
                untouched_checks += 1
                assert key not in report.evicted
                assert state.strata[key].retained_keys() == keys_before[key]
    elapsed = time.time() - start
    assert elapsed < 30.0
    assert untouched_checks > 0
    _announce(7, f"eviction F-increase equals the exhaustive minimum on 200 "
                 f"states; non-oversized strata untouched ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. streaming/offline agreement


SCHEMA_STREAM = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))


def _stream_rows(seed, n, groups=8):
    rng = np.random.default_rng(seed)
    names = [f"g{i}" for i in range(groups)]
    ids = rng.integers(0, groups, size=n)
    mus = 20.0 * (1 + np.arange(groups))
    sigmas = np.linspace(1.0, 40.0, groups)
    vals = rng.normal(mus[ids], sigmas[ids])
    return [(names[i], float(v)) for i, v in zip(ids, vals)]


def test_criterion_8_streaming_offline_agreement():
    start = time.time()
    objective = ObjectiveSpec(("v",))
    budget = 500

    for seed in range(5):
        rows = _stream_rows(800 + seed, 50_000)
        state = make_state(SCHEMA_STREAM, ("g",), objective, budget)
        ingest_batch(state, rows, seed=9000 + seed)
        rel = Relation.from_records(SCHEMA_STREAM, rows)
        plan = offline_plan(rel, ("g",), objective, budget)
        assert state.total_retained == budget
        for key, size in zip(plan.keys, plan.sizes):
            assert abs(state.strata[key].size - int(size)) <= 1, (seed, key)

    # batch-size-1 replay of the same-size stream: budget holds after every
    # settle and each stratum retains exactly its smallest keys
    replay_n = 50_000
    for seed in range(5):
        rows = _stream_rows(900 + seed, replay_n)
        state = make_state(SCHEMA_STREAM, ("g",), objective, 120)
        seen: dict[GroupKey, list[float]] = {}
        for i, record in enumerate(rows):
            key_seed = 100_000 * seed + i
            (key_value,) = batch_keys(key_seed, 1)
            gkey = GroupKey(("g",), (record[0],))
            seen.setdefault(gkey, []).append(float(key_value))
            ingest_batch(state, [record], seed=key_seed)
            assert state.total_retained <= 120
        assert state.total_retained == 120
        for gkey, stratum in state.strata.items():
            expect = sorted(seen[gkey])[: stratum.size]
            assert stratum.retained_keys() == expect
    elapsed = time.time() - start
    _announce(8, f"single-batch streaming equals the offline plan within 1 row "
                 f"and batch-1 replay keeps the bottom-k structure ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 9. direction-preserving comparison


def _comparison_population():
    rng = np.random.default_rng(909)
    sizes = np.round(150 * 1.26 ** np.arange(20)).astype(int)  # 150 .. ~11000
    cvs = np.linspace(0.05, 1.0, 20)
    rng.shuffle(cvs)
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    rows = []
    for i, (n, cv) in enumerate(zip(sizes, cvs)):
        mu = 50.0 * (1 + (i % 5))
        vals = rng.normal(mu, cv * mu, size=int(n))
        rows.extend((f"g{i:02d}", float(v)) for v in vals)
    return Relation.from_records(schema, rows)


def test_criterion_9_direction_preserving_comparison():
    start = time.time()
    rel = _comparison_population()
    catalog = compute_catalog(rel, ["g"], ["v"])
    budget = int(0.01 * rel.n_rows)

    plans = {
        "cvopt": plan_l2(catalog, ["v"], budget),
        "senate": alloc_senate(catalog, budget),
        "uniform": alloc_uniform(catalog, budget),
        "congress": alloc_congress(catalog, budget),
    }

    # deterministic part: the cv-driven plan dominates on its objective
    _, costs, _ = cv_costs(catalog, ["v"])
    cv_obj = l2_objective(costs, plans["cvopt"].sizes)
    for name in ("senate", "uniform", "congress"):
        other = l2_objective(costs, plans[name].sizes)
        assert cv_obj < other, name

    request = QueryRequest(("g",), AVG, "v")
    max_errors = {name: [] for name in ("cvopt", "senate", "uniform")}
    for seed in range(20):
        for name in max_errors:
            sample = draw_stratified(rel, plans[name], seed=seed)
            report = evaluate(rel, sample, request)
            max_errors[name].append(report.summary["max"])
    means = {name: float(np.mean(v)) for name, v in max_errors.items()}
    assert means["cvopt"] < means["senate"] < means["uniform"], means
    elapsed = time.time() - start
    assert elapsed < 300.0
    _announce(9, f"mean max error ordering cvopt {means['cvopt']:.3f} < senate "
                 f"{means['senate']:.3f} < uniform {means['uniform']:.3f} and "
                 f"objective dominance holds ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 10. unified Poisson sample


def test_criterion_10_poisson_unified_sample():
    start = time.time()
    rng = np.random.default_rng(1010)
    n = 10_000
    schema = (
        ColumnSchema("g", CATEGORICAL),
        ColumnSchema("h", CATEGORICAL),
        ColumnSchema("v1", NUMERIC),
        ColumnSchema("v2", NUMERIC),
    )
    g_ids = rng.integers(0, 8, size=n)
    h_ids = rng.integers(0, 5, size=n)
    rows = [
        (
            f"g{gi}",
            f"h{hi}",
            float(rng.normal(30.0 + 5 * gi, 2.0 + gi)),
            float(rng.normal(100.0 + 10 * hi, 5.0 + hi)),
        )
        for gi, hi in zip(g_ids, h_ids)
    ]
    rel = Relation.from_records(schema, rows)

    queries = [GroupQuery(("g",), ("v1",)), GroupQuery(("h",), ("v2",))]
    catalogs = [
        compute_catalog(rel, ["g"], ["v1"]),
        compute_catalog(rel, ["h"], ["v2"]),
    ]
    allocation = plan_individual(catalogs, queries, 1200)
    p = inclusion_rates(rel, allocation)
    expected_size = float(p.sum())

    seeds = 50
    sizes = []
    count_sums: dict[GroupKey, float] = {}
    for seed in range(seeds):
        sample = draw_poisson(rel, p, seed=seed)
        sizes.append(sample.total_rows)
        for est in estimate(sample, QueryRequest(("g",), COUNT)):
            count_sums[est.group] = count_sums.get(est.group, 0.0) + est.value

    binomial_sd = math.sqrt(float((p * (1 - p)).sum()))
    mean_size = float(np.mean(sizes))
    assert abs(mean_size - expected_size) <= 3 * binomial_sd / math.sqrt(seeds)

    buckets: dict[GroupKey, np.ndarray] = {}
    for key, rows_idx in (
        (GroupKey(("g",), (f"g{gi}",)), np.flatnonzero(g_ids == gi))
        for gi in range(8)
    ):
        buckets[key] = rows_idx
    for key, idx in buckets.items():
        truth = float(idx.size)
        var_ht = float(((1 - p[idx]) / p[idx]).sum())
        se = math.sqrt(var_ht / seeds)
        mean_est = count_sums[key] / seeds
        assert abs(mean_est - truth) <= 3 * se, key
    elapsed = time.time() - start
    _announce(10, f"unified Poisson sample size and per-group weighted counts "
                  f"match theory over {seeds} seeds ({elapsed:.1f}s)")
