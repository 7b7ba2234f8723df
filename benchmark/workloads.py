"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client.  ``setup`` prepares what
the timed phase needs; ``run_pass`` performs one pass of the timed phase,
making the same calls in the same order on every pass.  Every call into
gbsample goes through :meth:`Ledger.op`, which counts it as one operation,
times it and wraps it in a span, after running the host-speed reference
kernel once; checks that fail mark the operation they follow as failed.  Checks and quality scoring run between operations and
are not timed.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

import oracle
from hostspeed import reference_seconds
from gbsample.alloc import (
    cube_queries,
    finest_from_catalog,
    GroupQuery,
    inclusion_rates,
    plan_individual,
    plan_l2,
    plan_linf,
    plan_multi_groupby,
    predicted_cv,
)
from gbsample.baselines import alloc_congress, alloc_senate, alloc_uniform
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, load_csv
from gbsample.query import AVG, COUNT, SUM, Atom, Predicate, QueryRequest, estimate, evaluate
from gbsample.sampler import draw_poisson, draw_stratified, load_sample, save_sample
from gbsample.stats import compute_catalog, pool_catalog
from gbsample.workload import QuerySpec, allocation_inputs, derive_aggregation_groups

SCHEMA = (
    ColumnSchema("a", CATEGORICAL),
    ColumnSchema("b", CATEGORICAL),
    ColumnSchema("c", CATEGORICAL),
    ColumnSchema("x", NUMERIC),
    ColumnSchema("y", NUMERIC),
)

#: the program's form of the predicates in :data:`oracle.PREDICATES`
PREDICATES = {
    None: None,
    "c!=c0": Predicate((Atom("c", "!=", "c0"),)),
    "x_between_10_40": Predicate((Atom("x", "between", lo=10.0, hi=40.0),)),
}

REL_TOL = 1e-9


class OpError(Exception):
    """A call into gbsample raised; the ledger has counted it as failed."""


class Ledger:
    """Counts operations and failed operations, and times each operation."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self._failed: set[int] = set()
        self._name = ""
        self.times: list[float] = []  # operation durations since the last reset
        self.reference: list[float] = []  # reference kernel durations, likewise

    @property
    def failed(self) -> int:
        return len(self._failed)

    def op(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        self._name = name
        self.reference.append(reference_seconds())
        t0 = time.perf_counter()
        try:
            out = self.tracer.call(name, fn, *args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            self.fail(f"raised {type(exc).__name__}: {exc}")
            raise OpError(name) from exc
        self.times.append(time.perf_counter() - t0)
        return out

    def check(self, ok, message: str) -> None:
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self._failed.add(self.attempted)
        if len(self.failures) < 50:
            self.failures.append(f"{self._name}: {message}")


def _close(a: float | None, b: float) -> bool:
    return a is not None and abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def check_catalog(ledger, catalog, expected_sizes) -> None:
    got = {key.values: st.n for key, st in catalog.entries.items()}
    ledger.check(got == expected_sizes, "stratum sizes differ from the generated table")


def check_plan(ledger, plan, budget, min_one=True) -> None:
    sizes = np.asarray(plan.sizes)
    pops = np.asarray(plan.populations)
    total = int(sizes.sum())
    want = min(budget, int(pops.sum()))
    ledger.check(total == want, f"{plan.method} plan sums to {total}, expected {want}")
    ledger.check(bool(np.all(sizes >= 0) and np.all(sizes <= pops)), "plan exceeds a cap")
    if min_one and budget >= len(plan.keys):
        ledger.check(bool(np.all(sizes >= 1)), f"{plan.method} plan leaves a stratum empty")


def check_stratified(ledger, sample, plan) -> None:
    ledger.check(sample.total_rows == plan.total_size, "sample size differs from the plan")
    by_key = dict(zip(plan.keys, plan.sizes))
    ledger.check(
        all(s.size == by_key.get(s.key) == len(s.row_ids) for s in sample.strata),
        "stratum sample sizes differ from the plan",
    )


def check_poisson(ledger, sample, p, rows) -> None:
    ledger.check(
        p.shape == (rows,) and bool(np.all((p >= 0) & (p <= 1))), "inclusion rates outside [0, 1]"
    )
    ledger.check(
        all(sample.p[i] == p[r] for i, r in enumerate(sample.row_ids)),
        "Poisson sample rows carry the wrong inclusion rates",
    )


def same_sample(a, b) -> bool:
    if (a.schema, a.group_attrs, a.method, a.seed) != (b.schema, b.group_attrs, b.method, b.seed):
        return False
    return len(a.strata) == len(b.strata) and all(
        (x.key, x.n, x.size, x.row_ids, x.rows) == (y.key, y.n, y.size, y.row_ids, y.rows)
        for x, y in zip(a.strata, b.strata)
    )


def check_estimates(ledger, estimates, truth, fn) -> tuple[float, int]:
    """Checks one estimate list against the exact answer; returns the sum of
    relative errors over the exact groups (a missing group scores 1.0) and
    the number of exact groups."""
    got = {e.group.values: e for e in estimates}
    for key, e in got.items():
        if key not in truth:
            # a group no population row matches may only be estimated as 0
            ok = e.support == 0 and (e.value is None or e.value == 0.0)
            ledger.check(ok, f"estimated group {key} is not in the exact answer")
        elif e.value is not None:
            ledger.check(math.isfinite(e.value), f"{fn} estimate of {key} is not finite")
    total = 0.0
    for key, value in truth.items():
        e = got.get(key)
        if e is None or e.missing or e.value is None:
            total += 1.0
        else:
            total += abs(e.value - value) / abs(value)
    return total, len(truth)


def max_predicted_cv(plan, catalog, columns) -> float:
    worst = 0.0
    for key, n, s in zip(plan.keys, plan.populations, plan.sizes):
        st = catalog.entries[key]
        for col in columns:
            summary = st.per_column[col]
            worst = max(worst, predicted_cv(int(n), int(s), summary.mean, summary.std))
    return worst


class Workload:
    """Shared context: generated CSV, oracle arrays, sizes and seed."""

    name = ""
    budget_rate = 0.0
    #: whether each call of a pass is a request (else the whole pass is one)
    call_is_request = False

    def __init__(self, csv_path, truth, rows, seed, workdir):
        self.csv_path = csv_path
        self.truth = truth
        self.rows = rows
        self.seed = seed
        self.workdir = workdir
        self.budget = int(self.budget_rate * self.rows)
        self.reference = None  # digest of the first pass
        self.quality: dict = {}
        self.counts: dict = {}

    def setup(self, ledger):
        return None

    def run_pass(self, state, ledger) -> None:
        raise NotImplementedError

    def _same_as_first(self, ledger, digest) -> None:
        if self.reference is None:
            self.reference = digest
        else:
            ledger.check(digest == self.reference, "pass output differs from the first pass")

    def _load(self, ledger):
        rel = ledger.op("dataset.load_csv", load_csv, self.csv_path, SCHEMA)
        ledger.check(rel.n_rows == self.rows, f"loaded {rel.n_rows} rows, wrote {self.rows}")
        return rel


class Build(Workload):
    """CSV to a saved stratified sample, then one evaluated query."""

    name = "build"
    budget_rate = 0.02
    attrs = ("a", "b")
    columns = ("x", "y")
    request = QueryRequest(("a", "b"), AVG, "x")

    def __init__(self, *args):
        super().__init__(*args)
        self.sizes = oracle.sizes(self.truth, self.attrs)

    def run_pass(self, state, ledger):
        rel = self._load(ledger)
        cat = ledger.op("stats.compute_catalog", compute_catalog, rel, self.attrs, self.columns)
        check_catalog(ledger, cat, self.sizes)
        plan = ledger.op("alloc.plan_l2", plan_l2, cat, self.columns, self.budget)
        check_plan(ledger, plan, self.budget)
        sample = ledger.op("sampler.draw_stratified", draw_stratified, rel, plan, self.seed)
        check_stratified(ledger, sample, plan)
        path = os.path.join(self.workdir, "sample.txt")
        ledger.op("sampler.save_sample", save_sample, sample, path)
        loaded = ledger.op("sampler.load_sample", load_sample, path)
        ledger.check(same_sample(sample, loaded), "sample does not round-trip through its file")
        report = ledger.op("query.evaluate", evaluate, rel, loaded, self.request)
        ledger.check(
            all(s.estimate is None or math.isfinite(s.estimate) for s in report.scores)
            and math.isfinite(report.summary["mean"]),
            "evaluate produced a non-finite value",
        )

        counts = estimate(loaded, QueryRequest(self.attrs, COUNT))
        ledger.check(
            len(counts) == len(self.sizes)
            and all(_close(e.value, self.sizes[e.group.values]) for e in counts),
            "COUNT from the stratified sample differs from the true group size",
        )
        self.counts = {
            "stats.strata": len(cat),
            "sampler.sample_rows": sample.total_rows,
            "query.groups_answered": len(report.scores),
        }
        if self.reference is None:
            self.quality = {
                "l2_objective": plan.objective_integral(),
                "l2_objective_fractional": plan.objective_fractional(),
                "linf_max_cv": max_predicted_cv(plan, cat, self.columns),
                "mean_rel_error": report.summary["mean"],
            }
        self._same_as_first(ledger, (plan.sizes.tobytes(), report.summary["mean"]))


class PlanCube(Workload):
    """Every planner over a cube of groupings; the relation is loaded in set-up."""

    name = "plan_cube"
    budget_rate = 0.10
    attrs = ("a", "b", "c")
    columns = ("x", "y")
    #: a three-query workload with repeats: (group by, columns, predicate, repeats)
    workload_spec = (
        (("a",), ("x",), None, 3),
        (("a", "b"), ("x",), "c!=c0", 2),
        (("b", "c"), ("x", "y"), None, 1),
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.workload = [QuerySpec(g, cols, PREDICATES[p], r) for g, cols, p, r in self.workload_spec]
        # total frequency: each query adds its repeats per (non-empty group, column)
        self.frequency_total = sum(
            r * len(cols) * len(oracle.sizes(self.truth, g, p)) for g, cols, p, r in self.workload_spec
        )
        self.sizes = oracle.sizes(self.truth, self.attrs)

    def setup(self, ledger):
        return self._load(ledger)

    def run_pass(self, rel, ledger):
        budget = self.budget
        cat = ledger.op("stats.compute_catalog", compute_catalog, rel, self.attrs, self.columns)
        check_catalog(ledger, cat, self.sizes)
        queries = ledger.op("alloc.cube_queries", cube_queries, self.attrs, ("x",))
        fs = ledger.op("alloc.finest_from_catalog", finest_from_catalog, cat, queries)
        cube = ledger.op("alloc.plan_multi_groupby", plan_multi_groupby, fs, budget)
        check_plan(ledger, cube, budget)
        linf = ledger.op("alloc.plan_linf", plan_linf, cat, "x", budget)
        check_plan(ledger, linf, budget)

        pooled = []
        for q in queries:
            pooled.append(ledger.op("stats.pool_catalog", pool_catalog, cat, q.attrs))
            ledger.check(
                sum(st.n for st in pooled[-1].entries.values()) == self.rows,
                "pooled catalog does not cover the relation",
            )
        ind = ledger.op("alloc.plan_individual", plan_individual, pooled, queries, budget)
        ledger.check(_close(ind.total, budget), "individual allocation does not sum to the budget")
        p = ledger.op("alloc.inclusion_rates", inclusion_rates, rel, ind)
        poisson = ledger.op("sampler.draw_poisson", draw_poisson, rel, p, self.seed)
        check_poisson(ledger, poisson, p, self.rows)

        table = ledger.op(
            "workload.derive_aggregation_groups", derive_aggregation_groups, rel, self.workload
        )
        ledger.check(table.total() == self.frequency_total, "workload frequencies do not add up")
        wq, weights = ledger.op("workload.allocation_inputs", allocation_inputs, table)
        wfs = ledger.op("alloc.finest_from_catalog", finest_from_catalog, cat, wq)
        weighted = ledger.op("alloc.plan_multi_groupby", plan_multi_groupby, wfs, budget, weights)
        check_plan(ledger, weighted, budget)

        for name, fn in (
            ("baselines.alloc_uniform", alloc_uniform),
            ("baselines.alloc_senate", alloc_senate),
            ("baselines.alloc_congress", alloc_congress),
        ):
            check_plan(ledger, ledger.op(name, fn, cat, budget), budget, min_one=False)

        self.counts = {
            "stats.strata": len(cat),
            "workload.entities": len(table),
            "sampler.sample_rows": poisson.total_rows,
        }
        if self.reference is None:
            err, groups = 0.0, 0
            for q in queries:
                est = estimate(poisson, QueryRequest(q.attrs, AVG, "x"))
                e, g = check_estimates(ledger, est, oracle.exact(self.truth, q.attrs, "avg"), AVG)
                err, groups = err + e, groups + g
            self.quality = {
                "l2_objective": cube.objective_integral(),
                "l2_objective_fractional": cube.objective_fractional(),
                "weighted_l2_objective": weighted.objective_integral(),
                "linf_max_cv": max_predicted_cv(linf, cat, ("x",)),
                "mean_rel_error": err / groups,
            }
        digest = tuple(pl.sizes.tobytes() for pl in (cube, linf, weighted)) + (
            tuple(poisson.row_ids),
            len(table),
        )
        self._same_as_first(ledger, digest)


class Serve(Workload):
    """A fixed cycle of distinct group-by requests against two samples."""

    name = "serve"
    budget_rate = 0.05
    attrs = ("a", "b")
    columns = ("x", "y")
    groupings = (("a",), ("b",), ("a", "b"))
    call_is_request = True

    def __init__(self, *args):
        super().__init__(*args)
        self.requests = [
            (QueryRequest(g, fn, None if fn == COUNT else "x", PREDICATES[pred]), pred)
            for fn in (AVG, SUM, COUNT)
            for g in self.groupings
            for pred in PREDICATES
        ]
        self.exact = [
            oracle.exact(self.truth, req.group_attrs, req.fn, pred) for req, pred in self.requests
        ]
        self.sizes = {g: oracle.sizes(self.truth, g) for g in self.groupings}

    def setup(self, ledger):
        rel = self._load(ledger)
        cat = ledger.op("stats.compute_catalog", compute_catalog, rel, self.attrs, self.columns)
        check_catalog(ledger, cat, self.sizes[self.attrs])
        plan = ledger.op("alloc.plan_l2", plan_l2, cat, self.columns, self.budget)
        check_plan(ledger, plan, self.budget)
        strat = ledger.op("sampler.draw_stratified", draw_stratified, rel, plan, self.seed)
        check_stratified(ledger, strat, plan)
        queries = [GroupQuery(g, ("x",)) for g in self.groupings]
        pooled = [ledger.op("stats.pool_catalog", pool_catalog, cat, q.attrs) for q in queries]
        ind = ledger.op("alloc.plan_individual", plan_individual, pooled, queries, self.budget)
        ledger.check(_close(ind.total, self.budget), "individual allocation does not sum to the budget")
        p = ledger.op("alloc.inclusion_rates", inclusion_rates, rel, ind)
        poisson = ledger.op("sampler.draw_poisson", draw_poisson, rel, p, self.seed)
        check_poisson(ledger, poisson, p, self.rows)
        self.counts = {
            "stats.strata": len(cat),
            "sampler.sample_rows": strat.total_rows + poisson.total_rows,
        }
        self.quality = {
            "l2_objective": plan.objective_integral(),
            "l2_objective_fractional": plan.objective_fractional(),
            "linf_max_cv": max_predicted_cv(plan, cat, self.columns),
        }
        return {"stratified": strat, "poisson": poisson}

    def run_pass(self, samples, ledger):
        errors, groups, answered = [], 0, 0
        for (req, pred), truth in zip(self.requests, self.exact):
            for kind, sample in samples.items():
                est = ledger.op(f"query.estimate.{kind}", estimate, sample, req)
                answered += len(est)
                err, n = check_estimates(ledger, est, truth, req.fn)
                errors.append(err)
                groups += n
                if kind == "stratified" and req.fn == COUNT and pred is None:
                    sizes = self.sizes[req.group_attrs]
                    ledger.check(
                        len(est) == len(sizes)
                        and all(_close(e.value, sizes[e.group.values]) for e in est),
                        "COUNT from the stratified sample differs from the true group size",
                    )
        self.counts["query.groups_answered"] = answered
        if self.reference is None:
            self.quality["mean_rel_error"] = sum(errors) / groups
        self._same_as_first(ledger, tuple(errors))


WORKLOADS = {w.name: w for w in (Build, PlanCube, Serve)}
