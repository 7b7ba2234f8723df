"""Command-line pipeline: stats -> plan -> sample -> query -> evaluate,
plus method comparison and a stream simulator.

Every command takes a JSON config file (--config) whose fields can be
overridden by flags.  Randomized commands require an explicit seed; there
is no wall-clock seeding, so identical config and seed produce byte-
identical outputs.  Exit codes: 0 ok, 1 user error, 2 internal error.

Config fields::

    data        path to the CSV table
    schema      [{"name": ..., "kind": "categorical" | "numeric"}, ...]
    group_by    grouping attributes (when no workload is given)
    aggregates  aggregation columns
    method      cvopt-l2 | cvopt-linf | cvopt-individual |
                uniform | senate | congress
    budget      sample budget M (rows), or
    rate        sampling rate in (0, 1]; M = floor(rate * N)
    workload    optional workload file (JSON array of queries)
    weights     optional explicit weight file
    weight_transform  identity | sqrt   (for workload-derived weights)
    zero_mean   error | exclude
    query       query file for `query` / `evaluate`
    seed        RNG seed (int)
    out_dir     output directory
    batch_size  stream-sim batch size
    methods     list of methods for `compare`
    n_seeds     number of seeds for `compare` (seed, seed+1, ...)
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import alloc, baselines, query as qmod, sampler, stats, stream, workload as wmod
from .dataset import ColumnSchema, Relation, load_csv
from .errors import GbsampleError, InvalidDocument, member, string_list

METHODS_CV = ("cvopt-l2", "cvopt-linf", "cvopt-individual")
METHODS_BASE = tuple(baselines.ALLOCATORS)
ALL_METHODS = METHODS_CV + METHODS_BASE


class UsageError(GbsampleError):
    pass


@dataclass
class RunConfig:
    data: str | None = None
    schema: list[dict] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    aggregates: list[str] = field(default_factory=list)
    method: str = "cvopt-l2"
    budget: int | None = None
    rate: float | None = None
    workload: str | None = None
    weights: str | None = None
    weight_transform: str = "identity"
    zero_mean: str = "error"
    query: str | None = None
    seed: int | None = None
    out_dir: str = "out"
    batch_size: int = 1
    # compare defaults: every method that draws a stratified sample
    methods: list[str] = field(
        default_factory=lambda: ["cvopt-l2", "cvopt-linf", "uniform", "senate", "congress"]
    )
    n_seeds: int = 5
    missing_policy: str = "score_one"
    #: the config file the fields were read from, named in errors
    source: ClassVar[str] = "config"

    def schema_objects(self) -> tuple[ColumnSchema, ...]:
        """The configured schema.  A ``schema`` that is not a list of
        objects, or an entry without a string ``name`` or without a
        ``kind``, raises :class:`InvalidDocument` naming the config file
        and the field."""
        if not self.schema:
            raise UsageError("config must define a schema")
        if not isinstance(self.schema, list):
            raise InvalidDocument(
                f"{self.source}: schema: expected a list of objects, got {self.schema!r}"
            )
        out = []
        for i, entry in enumerate(self.schema):
            get = partial(member, self.source, entry, f"schema[{i}]")
            name = get("name", lambda v: isinstance(v, str), "a string")
            out.append(ColumnSchema(name, get("kind")))
        return tuple(out)

    def resolve_budget(self, n_rows: int, r: int | None = None) -> tuple[int, list[str]]:
        warnings = []
        if (self.budget is None) == (self.rate is None):
            raise UsageError("exactly one of budget or rate must be set")
        if self.budget is not None:
            return int(self.budget), warnings
        if not 0 < self.rate <= 1:
            raise UsageError("rate must lie in (0, 1]")
        m = int(self.rate * n_rows)
        if r is not None and m < r:
            warnings.append(
                f"BudgetBelowStrataCount: rate {self.rate} gives M={m} "
                f"below the stratum count {r}"
            )
        return m, warnings

    def need(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise UsageError(f"config field {name!r} is required for this command")
        return value


def load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg.source = args.config
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        names = {f.name for f in fields(RunConfig)}
        for k, v in doc.items():
            if k not in names:
                raise UsageError(f"unknown config field {k!r}")
            if k in ("group_by", "aggregates", "methods"):
                v = list(string_list(v, args.config, k))
            setattr(cfg, k, v)
    for name in (
        "data",
        "method",
        "budget",
        "rate",
        "workload",
        "weights",
        "query",
        "seed",
        "out_dir",
        "batch_size",
        "zero_mean",
        "weight_transform",
        "missing_policy",
        "n_seeds",
    ):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "group_by", None):
        cfg.group_by = args.group_by.split(",")
    if getattr(args, "aggregates", None):
        cfg.aggregates = args.aggregates.split(",")
    if getattr(args, "methods", None):
        cfg.methods = args.methods.split(",")
    if cfg.method not in ALL_METHODS:
        raise UsageError(f"unknown method {cfg.method!r}; choose from {ALL_METHODS}")
    return cfg


# ---------------------------------------------------------------------------
# shared plumbing


def _load_relation(cfg: RunConfig) -> Relation:
    return load_csv(cfg.need("data"), cfg.schema_objects())


def _load_workload(cfg: RunConfig) -> list[wmod.QuerySpec]:
    with open(cfg.need("workload"), encoding="utf-8") as fh:
        return wmod.workload_from_json(fh.read(), cfg.workload)


def _queries(cfg: RunConfig, queries_from_workload) -> list[alloc.GroupQuery]:
    if queries_from_workload is not None:
        return [alloc.GroupQuery(q.group_attrs, q.agg_columns) for q in queries_from_workload]
    if not cfg.group_by or not cfg.aggregates:
        raise UsageError("group_by and aggregates are required without a workload")
    return [alloc.GroupQuery(tuple(cfg.group_by), tuple(cfg.aggregates))]


def _stats_attrs_columns(cfg: RunConfig) -> tuple[list[str], list[str]]:
    """The catalog's stratification and aggregation columns: the union over
    the workload's queries, or the configured group_by and aggregates."""
    if not cfg.workload:
        query = _queries(cfg, None)[0]
        return list(query.attrs), list(query.columns)
    queries = _load_workload(cfg)
    attrs = list(dict.fromkeys(a for q in queries for a in q.group_attrs))
    cols = list(dict.fromkeys(c for q in queries for c in q.agg_columns))
    return attrs, cols


def _explicit_weights(cfg: RunConfig) -> alloc.WeightSpec | None:
    if not cfg.weights:
        return None
    with open(cfg.weights, encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = {}
    for i, item in enumerate(doc):
        group = item.get("group")
        if group is not None:
            group = string_list(group, cfg.weights, f"[{i}].group")
        entries[(item.get("query"), group, item.get("column"))] = float(item["weight"])
    return alloc.WeightSpec(entries)


def _out(cfg: RunConfig, name: str) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _read_catalog(cfg: RunConfig) -> stats.StatsCatalog:
    path = Path(cfg.out_dir) / "catalog.json"
    if not path.exists():
        raise UsageError(f"{path} not found; run the stats command first")
    return stats.catalog_from_json(path.read_text(encoding="utf-8"), str(path))


# ---------------------------------------------------------------------------
# commands


def cmd_stats(cfg: RunConfig) -> int:
    rel = _load_relation(cfg)
    attrs, cols = _stats_attrs_columns(cfg)
    catalog = stats.compute_catalog(rel, attrs, cols)
    path = _out(cfg, "catalog.json")
    path.write_text(stats.catalog_to_json(catalog), encoding="utf-8")
    print(f"wrote {path} ({len(catalog)} strata, N={catalog.total_n})")
    return 0


def _build_plan(cfg: RunConfig):
    """Dispatch on method; returns (plan_or_alloc, json_text)."""
    catalog = _read_catalog(cfg)
    queries_w = _load_workload(cfg) if cfg.workload else None
    queries = _queries(cfg, queries_w)
    budget, warnings = cfg.resolve_budget(catalog.total_n, len(catalog))

    weights = _explicit_weights(cfg)
    if weights is None and queries_w is not None:
        rel = _load_relation(cfg)
        table = wmod.derive_aggregation_groups(rel, queries_w)
        if cfg.method == "cvopt-individual":
            # individual stratification keeps one sample per workload query
            weights = wmod.weights_from_frequencies(table, cfg.weight_transform)
        else:
            # shared entities must enter the joint objective exactly once
            queries, weights = wmod.allocation_inputs(table, cfg.weight_transform)
    if weights is None:
        weights = alloc.UNIT_WEIGHTS

    method = cfg.method
    if method == "cvopt-individual":
        catalogs = [stats.pool_catalog(catalog, q.attrs) for q in queries]
        result = alloc.plan_individual(
            catalogs, queries, budget, weights, cfg.zero_mean
        )
        result.warnings.extend(warnings)
        return result, alloc.individual_to_json(result)

    if method == "cvopt-linf":
        if len(queries) != 1 or len(queries[0].columns) != 1:
            raise UsageError(
                "cvopt-linf supports a single grouping and a single aggregate"
            )
        plan = alloc.plan_linf(catalog, queries[0].columns[0], budget, cfg.zero_mean)
    elif method == "cvopt-l2":
        if len(queries) == 1 and queries[0].attrs == catalog.group_attrs:
            plan = alloc.plan_l2(
                catalog, queries[0].columns, budget, weights, cfg.zero_mean
            )
        else:
            fs = alloc.finest_from_catalog(catalog, queries)
            plan = alloc.plan_multi_groupby(fs, budget, weights, cfg.zero_mean)
    elif method in baselines.ALLOCATORS:
        plan = baselines.ALLOCATORS[method](catalog, budget)
    else:
        raise UsageError(f"unknown method {method!r}")
    plan.warnings.extend(warnings)
    return plan, alloc.plan_to_json(plan)


def cmd_plan(cfg: RunConfig) -> int:
    _, text = _build_plan(cfg)
    path = _out(cfg, "plan.json")
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    seed = int(cfg.need("seed"))
    rel = _load_relation(cfg)
    plan_path = Path(cfg.out_dir) / "plan.json"
    if not plan_path.exists():
        raise UsageError(f"{plan_path} not found; run the plan command first")
    text = plan_path.read_text(encoding="utf-8")
    if json.loads(text)["method"] == alloc.INDIVIDUAL:
        rates = alloc.inclusion_rates(rel, alloc.individual_from_json(text))
        sample = sampler.draw_poisson(rel, rates, seed)
    else:
        sample = sampler.draw_stratified(rel, alloc.plan_from_json(text), seed)
    path = _out(cfg, "sample.txt")
    sampler.save_sample(sample, path)
    print(f"wrote {path} ({sample.total_rows} rows)")
    return 0


def _load_query(cfg: RunConfig) -> qmod.QueryRequest:
    with open(cfg.need("query"), encoding="utf-8") as fh:
        return qmod.QueryRequest.from_json(json.load(fh), cfg.query)


def cmd_query(cfg: RunConfig) -> int:
    request = _load_query(cfg)
    sample = sampler.load_sample(Path(cfg.out_dir) / "sample.txt")
    estimates = qmod.estimate(sample, request)
    path = _out(cfg, "estimates.json")
    path.write_text(qmod.estimates_to_json(estimates, request), encoding="utf-8")
    print(f"wrote {path} ({len(estimates)} groups)")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    request = _load_query(cfg)
    rel = _load_relation(cfg)
    sample = sampler.load_sample(
        Path(cfg.out_dir) / "sample.txt", expect_schema=rel.schema
    )
    report = qmod.evaluate(rel, sample, request, cfg.missing_policy)
    jpath = _out(cfg, "report.json")
    jpath.write_text(qmod.report_to_json(report), encoding="utf-8")
    cpath = _out(cfg, "report.csv")
    cpath.write_text(qmod.report_to_csv(report), encoding="utf-8")
    print(f"wrote {jpath} and {cpath}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    """Run several methods under one budget and seed set; write a
    side-by-side table of mean and max relative errors."""
    seed = int(cfg.need("seed"))
    rel = _load_relation(cfg)
    attrs, cols = _stats_attrs_columns(cfg)
    catalog = stats.compute_catalog(rel, attrs, cols)
    budget, warnings = cfg.resolve_budget(catalog.total_n, len(catalog))
    if cfg.query:
        request = _load_query(cfg)
    else:
        request = qmod.QueryRequest(tuple(attrs), qmod.AVG, cols[0])

    rows = []
    for method in cfg.methods:
        if method == "cvopt-l2":
            plan = alloc.plan_l2(catalog, cols, budget, zero_mean=cfg.zero_mean)
        elif method == "cvopt-linf":
            plan = alloc.plan_linf(catalog, cols[0], budget, cfg.zero_mean)
        elif method in baselines.ALLOCATORS:
            plan = baselines.ALLOCATORS[method](catalog, budget)
        else:
            raise UsageError(f"method {method!r} not supported in compare")
        mean_errors = []
        max_errors = []
        missing = 0
        for i in range(int(cfg.n_seeds)):
            sample = sampler.draw_stratified(rel, plan, seed + i)
            report = qmod.evaluate(rel, sample, request, cfg.missing_policy)
            missing += report.missing_groups
            if report.summary["mean"] is not None:  # seeds that scored a group
                mean_errors.append(report.summary["mean"])
                max_errors.append(report.summary["max"])
        unscored = int(cfg.n_seeds) - len(mean_errors)
        if unscored:
            warnings.append(
                f"NoScoredGroups: {method}: {unscored} of {int(cfg.n_seeds)} "
                "seeds scored no group and are left out of the means"
            )
        rows.append(
            {
                "method": method,
                "budget": budget,
                "seeds": int(cfg.n_seeds),
                "mean_rel_error": float(np.mean(mean_errors)) if mean_errors else None,
                "max_rel_error": float(np.mean(max_errors)) if max_errors else None,
                "missing_groups": missing,
            }
        )
    doc = {"query": request.to_json(), "warnings": warnings, "results": rows}
    jpath = _out(cfg, "compare.json")
    jpath.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    cpath = _out(cfg, "compare.csv")
    columns = [
        "method", "budget", "seeds", "mean_rel_error", "max_rel_error", "missing_groups"
    ]
    with open(cpath, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([r[c] for c in columns] for r in rows)
    print(f"wrote {jpath} and {cpath}")
    return 0


def batch_seed(base_seed: int, batch_index: int) -> int:
    """Deterministic per-batch seed for the stream simulator."""
    return int(np.random.SeedSequence([int(base_seed), int(batch_index)]).generate_state(1)[0])


def cmd_stream(cfg: RunConfig) -> int:
    """Replay a CSV in row order through the streaming sampler, emitting
    one JSON line of metrics per mini-batch."""
    seed = int(cfg.need("seed"))
    rel = _load_relation(cfg)
    if not cfg.group_by or not cfg.aggregates:
        raise UsageError("group_by and aggregates are required for stream-sim")
    budget, _ = cfg.resolve_budget(rel.n_rows)
    objective = stream.ObjectiveSpec(tuple(cfg.aggregates))
    state = stream.make_state(rel.schema, tuple(cfg.group_by), objective, budget)
    batch_size = max(int(cfg.batch_size), 1)
    path = _out(cfg, "stream_metrics.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        records = rel.records(np.arange(rel.n_rows))
        for b, start in enumerate(range(0, len(records), batch_size)):
            batch = records[start : start + batch_size]
            stream.ingest_batch(state, batch, batch_seed(seed, b))
            sizes = [
                {"key": list(k.values), "size": st.size}
                for k, st in state.strata.items()
            ]
            objective_value = state.objective_value()
            line = {
                "batch": b,
                "arrivals": state.arrivals,
                "retained": state.total_retained,
                "objective": "inf" if objective_value == float("inf") else objective_value,
                "sizes": sizes,
            }
            fh.write(json.dumps(line) + "\n")
    print(f"wrote {path} ({state.arrivals} rows, {state.total_retained} retained)")
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gbsample", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "stats": cmd_stats,
        "plan": cmd_plan,
        "sample": cmd_sample,
        "query": cmd_query,
        "evaluate": cmd_evaluate,
        "compare": cmd_compare,
        "stream-sim": cmd_stream,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--data")
        p.add_argument("--method")
        p.add_argument("--budget", type=int)
        p.add_argument("--rate", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--group-by", dest="group_by")
        p.add_argument("--aggregates")
        p.add_argument("--workload")
        p.add_argument("--weights")
        p.add_argument("--query")
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--zero-mean", dest="zero_mean", choices=["error", "exclude"])
        p.add_argument("--methods")
        p.add_argument("--n-seeds", dest="n_seeds", type=int)
        p.add_argument(
            "--missing-policy",
            dest="missing_policy",
            choices=["score_one", "exclude"],
        )
        p.add_argument(
            "--weight-transform",
            dest="weight_transform",
            choices=["identity", "sqrt"],
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args)
        return args.fn(cfg)
    except (UsageError, GbsampleError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
