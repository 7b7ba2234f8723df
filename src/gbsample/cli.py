"""Command-line pipeline: stats -> plan -> sample -> query -> evaluate,
plus method comparison and a stream simulator.

Every command takes a JSON config file (--config).  Each field of
:class:`RunConfig` but ``schema`` is also a flag that overrides it
(``out_dir`` is ``--out-dir``; a list flag is comma-separated).  A value
from the file and one from the flag pass the same check, listed below;
an int is a JSON integer in the int64 range (not a float, a bool or a
string), a list holds distinct names, and a file value is null only
where the default is null.  Randomized commands require an explicit
seed; identical config and seed produce byte-identical outputs.  Exit
codes: 0 ok, 1 user error, 2 internal error.

Config fields::

    data        path to the CSV table
    schema      [{"name": ..., "kind": "categorical" | "numeric"}, ...]
    group_by    grouping attributes, a list (when no workload is given)
    aggregates  aggregation columns, a list
    method      cvopt-l2 | cvopt-linf | cvopt-individual |
                uniform | senate | congress
    budget      sample budget M (rows, int >= 1), or
    rate        sampling rate in (0, 1], a finite number; M = floor(rate * N)
    workload    optional workload file (JSON array of queries)
    weights     optional explicit weight file
    weight_transform  identity | sqrt   (for workload-derived weights)
    zero_mean   error | exclude
    missing_policy  score_one | exclude   (for `evaluate` and `compare`)
    query       query file for `query` / `evaluate`
    seed        RNG seed (any integer >= 0)
    out_dir     output directory (made if absent)
    batch_size  stream-sim batch size (int >= 1)
    methods     list of methods for `compare` (not cvopt-individual)
    n_seeds     number of seeds for `compare` (int >= 1; seed, seed+1, ...)
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import alloc, baselines, query as qmod, sampler, stats, stream, workload as wmod
from .dataset import COLUMN_KINDS, ColumnSchema, Relation, csv_writer, load_csv
from .errors import (
    INTEGER,
    LIST,
    NAMES,
    NUMBER,
    OBJECT,
    POSITIVE,
    SEED,
    STRING,
    STRINGS,
    CatalogMismatch,
    GbsampleError,
    expect,
    member,
    nullable,
    one_of,
    open_text,
    parse_json,
)

ALL_METHODS = ("cvopt-l2", "cvopt-linf", "cvopt-individual", *baselines.ALLOCATORS)


class UsageError(GbsampleError):
    pass


def _field(default, check: tuple, flag_type=None):
    """A RunConfig field: its ``default`` (a factory if callable), the check
    that a value from the config file and one from the flag pass alike (a
    file value may also be null where the default is) and its flag's type."""
    kind = "default_factory" if callable(default) else "default"
    return field(**{kind: default}, metadata={"check": check, "type": flag_type})


#: the checks of a method and of a list of distinct methods but cvopt-individual
_METHOD = one_of(ALL_METHODS)
_STRATIFIED = one_of(tuple(m for m in ALL_METHODS if m != "cvopt-individual"))
_METHODS = (lambda v: NAMES[0](v) and all(map(_STRATIFIED[0], v)),
            f"{NAMES[1]}, each {_STRATIFIED[1]}")


@dataclass
class RunConfig:
    data: str | None = _field(None, STRING)
    schema: list[dict] = _field(list, (LIST[0], "a list of objects"))
    group_by: list[str] = _field(list, NAMES)
    aggregates: list[str] = _field(list, NAMES)
    method: str = _field("cvopt-l2", _METHOD)
    budget: int | None = _field(None, INTEGER, int)
    rate: float | None = _field(None, NUMBER, float)
    workload: str | None = _field(None, STRING)
    weights: str | None = _field(None, STRING)
    weight_transform: str = _field("identity", one_of(wmod.WEIGHT_TRANSFORMS))
    zero_mean: str = _field("error", one_of(alloc.ZERO_MEAN_POLICIES))
    query: str | None = _field(None, STRING)
    seed: int | None = _field(None, SEED, int)
    out_dir: str = _field("out", STRING)
    batch_size: int = _field(1, POSITIVE, int)
    # compare's default: every method that draws a stratified sample
    methods: list[str] = _field(
        lambda: ["cvopt-l2", "cvopt-linf", "uniform", "senate", "congress"], _METHODS
    )
    n_seeds: int = _field(5, POSITIVE, int)
    missing_policy: str = _field("score_one", one_of(qmod.MISSING_POLICIES))
    #: the config file the fields were read from, named in errors
    source: ClassVar[str] = "config"

    def schema_objects(self) -> tuple[ColumnSchema, ...]:
        """The configured schema.  An entry that is not an object, or
        without a string ``name`` or without a ``kind`` of
        :data:`~gbsample.dataset.COLUMN_KINDS`, raises
        :class:`InvalidDocument` naming the config file and the field."""
        if not self.schema:
            raise UsageError("config must define a schema")
        get = partial(member, self.source)
        return tuple(
            ColumnSchema(get(e, f"schema[{i}]", "name", *STRING),
                         get(e, f"schema[{i}]", "kind", *COLUMN_KINDS))
            for i, e in enumerate(self.schema)
        )

    def resolve_budget(self, n_rows: int, r: int | None = None) -> tuple[int, list[str]]:
        """M for ``n_rows`` rows, and a warning if below ``r`` strata; an M
        below 1 raises :class:`UsageError` naming the budget or the rate."""
        if (self.budget is None) == (self.rate is None):
            raise UsageError("exactly one of budget or rate must be set")
        if self.budget is not None:
            if self.budget < 1:
                raise UsageError(f"budget must be at least 1, got {self.budget}")
            return self.budget, []
        if not 0 < self.rate <= 1:
            raise UsageError("rate must lie in (0, 1]")
        m = int(self.rate * n_rows)
        if m < 1:
            raise UsageError(f"rate {self.rate} of N={n_rows} rows gives M={m}, below one row")
        if r is not None and m < r:
            return m, [
                f"BudgetBelowStrataCount: rate {self.rate} gives M={m} "
                f"below the stratum count {r}"
            ]
        return m, []

    def need(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise UsageError(f"config field {name!r} is required for this command")
        return value


def load_config(args) -> RunConfig:
    """The fields of the ``--config`` file overridden by the flags given,
    each value checked by its field's check."""
    cfg = RunConfig()
    doc = {}
    if args.config:
        cfg.source = args.config
        with open_text(args.config) as fh:
            doc = expect(cfg.source, parse_json(fh.read(), cfg.source), "", *OBJECT)
        for k in sorted(doc.keys() - {f.name for f in fields(RunConfig)}):
            raise UsageError(f"unknown config field {k!r}")
    for f in fields(RunConfig):
        check = f.metadata["check"]
        if f.name in doc:
            null_ok = nullable(check) if f.default is None else check
            setattr(cfg, f.name, member(cfg.source, doc, "", f.name, *null_ok))
        value = getattr(args, f.name, None)
        if value is not None:
            value = value.split(",") if f.type == "list[str]" else value
            flag = "--" + f.name.replace("_", "-")
            setattr(cfg, f.name, expect("command line", value, flag, *check))
    return cfg


# ---------------------------------------------------------------------------
# shared plumbing


def _load_relation(cfg: RunConfig) -> Relation:
    return load_csv(cfg.need("data"), cfg.schema_objects())


def _load_workload(cfg: RunConfig) -> list[wmod.QuerySpec]:
    with open_text(cfg.need("workload")) as fh:
        return wmod.workload_from_json(fh.read(), cfg.workload)


def _queries(cfg: RunConfig, queries_from_workload) -> list[alloc.GroupQuery]:
    if queries_from_workload is not None:
        return [alloc.GroupQuery(q.group_attrs, q.agg_columns) for q in queries_from_workload]
    if not cfg.group_by or not cfg.aggregates:
        raise UsageError("group_by and aggregates are required without a workload")
    return [alloc.GroupQuery(tuple(cfg.group_by), tuple(cfg.aggregates))]


def _union(queries) -> tuple[list[str], list[str]]:
    """The grouping attributes and aggregation columns of ``queries``, each once."""
    attrs = list(dict.fromkeys(a for q in queries for a in q.attrs))
    return attrs, list(dict.fromkeys(c for q in queries for c in q.columns))


def _stats_attrs_columns(cfg: RunConfig) -> tuple[list[str], list[str]]:
    """The catalog's stratification and aggregation columns: the union over
    the workload's queries, or the configured group_by and aggregates."""
    return _union(_queries(cfg, _load_workload(cfg) if cfg.workload else None))


def _explicit_weights(cfg: RunConfig) -> alloc.WeightSpec | None:
    """The weights file: a list of {query?, group?, column?, weight}, where
    a missing or null key component matches every query, group or column."""
    if not cfg.weights:
        return None
    source = cfg.weights
    with open_text(source) as fh:
        doc = expect(source, parse_json(fh.read(), source), "", *LIST)
    entries = {}
    for i, item in enumerate(doc):
        get = partial(member, source, item, f"[{i}]")
        query = get("query", *nullable(INTEGER), default=None)
        group = get("group", *nullable(STRINGS), default=None)
        column = get("column", *nullable(STRING), default=None)
        key = (query, None if group is None else tuple(group), column)
        entries[key] = float(get("weight", *NUMBER))
    return alloc.WeightSpec(entries)


def _out(cfg: RunConfig, name: str, text: str | None = None) -> Path:
    """The path of the output file ``name``, its directory made if need be;
    ``text``, when given, is written there."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if text is not None:
        (out / name).write_text(text, encoding="utf-8")
    return out / name


def _out_both(cfg: RunConfig, first: tuple[str, str], second: tuple[str, str]):
    """Write two output files, each a ``(name, text)`` pair, and return
    their paths; when the second cannot be written the first is removed, so
    a failed command leaves neither file new."""
    path = _out(cfg, *first)
    try:
        return path, _out(cfg, *second)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _stage_file(cfg: RunConfig, name: str, command: str) -> Path:
    """The path of the file ``name`` that ``command`` wrote, which must exist."""
    path = Path(cfg.out_dir) / name
    if not path.exists():
        raise UsageError(f"{path} not found; run the {command} command first")
    return path


def _read_output(cfg: RunConfig, name: str, command: str) -> tuple[str, str]:
    """The text and the path of the file ``name`` that ``command`` wrote."""
    with open_text(path := _stage_file(cfg, name, command)) as fh:
        return fh.read(), str(path)


# ---------------------------------------------------------------------------
# commands


def cmd_stats(cfg: RunConfig) -> int:
    rel = _load_relation(cfg)
    attrs, cols = _stats_attrs_columns(cfg)
    catalog = stats.compute_catalog(rel, attrs, cols)
    stats.finite_catalog(catalog)
    path = _out(cfg, "catalog.json", stats.catalog_to_json(catalog))
    print(f"wrote {path} ({len(catalog)} strata, N={catalog.total_n})")
    return 0


def _allocate(method: str, cfg: RunConfig, catalog, queries, budget, weights):
    """The stratified plan of ``method`` (any but cvopt-individual) for the
    catalog's strata.  cvopt-linf bounds the CV of the first query's first
    column."""
    if method == "cvopt-linf":
        return alloc.plan_linf(catalog, queries[0].columns[0], budget, cfg.zero_mean)
    if method == "cvopt-l2":
        if len(queries) == 1 and queries[0].attrs == catalog.group_attrs:
            return alloc.plan_l2(catalog, queries[0].columns, budget, weights, cfg.zero_mean)
        fs = alloc.finest_from_catalog(catalog, queries)
        return alloc.plan_multi_groupby(fs, budget, weights, cfg.zero_mean)
    return baselines.ALLOCATORS[method](catalog, budget)


def _check_catalog(cfg: RunConfig, catalog, path: str, queries) -> None:
    """Raise :class:`CatalogMismatch` unless the catalog file at ``path``
    has every grouping attribute and aggregation column of ``queries``."""
    attrs, columns = _union(queries)
    if set(attrs) <= set(catalog.group_attrs) and set(columns) <= set(catalog.agg_columns):
        return
    raise CatalogMismatch(
        f"{path} groups by {list(catalog.group_attrs)} and aggregates "
        f"{list(catalog.agg_columns)}, but {cfg.source} asks for the attributes "
        f"{attrs} and the aggregates {columns}; run the stats command again"
    )


def _build_plan(cfg: RunConfig):
    """Dispatch on method; returns (plan_or_alloc, json_text)."""
    text, path = _read_output(cfg, "catalog.json", "stats")
    catalog = stats.catalog_from_json(text, path)
    queries_w = _load_workload(cfg) if cfg.workload else None
    queries = _queries(cfg, queries_w)
    if cfg.method not in baselines.ALLOCATORS:  # the baselines read only the counts
        _check_catalog(cfg, catalog, path, queries)
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

    if cfg.method == "cvopt-individual":
        catalogs = [stats.pool_catalog(catalog, q.attrs) for q in queries]
        result = alloc.plan_individual(
            catalogs, queries, budget, weights, cfg.zero_mean
        )
        result.warnings.extend(warnings)
        return result, alloc.individual_to_json(result)
    if cfg.method == "cvopt-linf" and (len(queries) != 1 or len(queries[0].columns) != 1):
        raise UsageError("cvopt-linf supports a single grouping and a single aggregate")
    plan = _allocate(cfg.method, cfg, catalog, queries, budget, weights)
    plan.warnings.extend(warnings)
    return plan, alloc.plan_to_json(plan)


def cmd_plan(cfg: RunConfig) -> int:
    _, text = _build_plan(cfg)
    path = _out(cfg, "plan.json", text)
    print(f"wrote {path}")
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    seed = cfg.need("seed")
    rel = _load_relation(cfg)
    plan = alloc.plan_from_json(*_read_output(cfg, "plan.json", "plan"))
    if isinstance(plan, alloc.PerQueryAllocation):
        sample = sampler.draw_poisson(rel, alloc.inclusion_rates(rel, plan), seed)
    else:
        sample = sampler.draw_stratified(rel, plan, seed)
    path = _out(cfg, "sample.txt")
    sampler.save_sample(sample, path)
    print(f"wrote {path} ({sample.total_rows} rows)")
    return 0


def _load_query(cfg: RunConfig) -> qmod.QueryRequest:
    with open_text(cfg.need("query")) as fh:
        return qmod.QueryRequest.from_json(parse_json(fh.read(), cfg.query), cfg.query)


def cmd_query(cfg: RunConfig) -> int:
    request = _load_query(cfg)
    sample = sampler.load_sample(_stage_file(cfg, "sample.txt", "sample"))
    answer = qmod.estimate(sample, request)
    path = _out(cfg, "estimates.json", qmod.estimates_to_json(answer, request))
    print(f"wrote {path} ({len(answer)} groups)")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    request = _load_query(cfg)
    rel = _load_relation(cfg)
    sample = sampler.load_sample(_stage_file(cfg, "sample.txt", "sample"), rel.schema)
    report = qmod.evaluate(rel, sample, request, cfg.missing_policy)
    jpath, cpath = _out_both(
        cfg, ("report.json", qmod.report_to_json(report)), ("report.csv", qmod.report_to_csv(report))
    )
    print(f"wrote {jpath} and {cpath}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    """Run several methods under one budget and seed set; write a
    side-by-side table of mean and max relative errors."""
    seed = cfg.need("seed")
    rel = _load_relation(cfg)
    attrs, cols = _stats_attrs_columns(cfg)
    catalog = stats.compute_catalog(rel, attrs, cols)
    budget, warnings = cfg.resolve_budget(catalog.total_n, len(catalog))
    request = _load_query(cfg) if cfg.query else qmod.QueryRequest(tuple(attrs), qmod.AVG, cols[0])

    queries = [alloc.GroupQuery(tuple(attrs), tuple(cols))]
    columns = ("method", "budget", "seeds", "mean_rel_error", "max_rel_error", "missing_groups")
    rows = []
    for method in cfg.methods:
        plan = _allocate(method, cfg, catalog, queries, budget, alloc.UNIT_WEIGHTS)
        scored = []  # the summaries of the seeds that scored a group
        missing = 0
        for i in range(cfg.n_seeds):
            sample = sampler.draw_stratified(rel, plan, seed + i)
            report = qmod.evaluate(rel, sample, request, cfg.missing_policy)
            missing += report.missing_groups
            if report.summary["mean"] is not None:
                scored.append(report.summary)
        unscored = cfg.n_seeds - len(scored)
        if unscored:
            warnings.append(
                f"NoScoredGroups: {method}: {unscored} of {cfg.n_seeds} "
                "seeds scored no group and are left out of the means"
            )
        # the mean over the scored seeds of their mean and max relative errors
        errors = [float(np.mean([s[k] for s in scored])) if scored else None
                  for k in ("mean", "max")]
        rows.append(dict(zip(columns, (method, budget, cfg.n_seeds, *errors, missing))))
    doc = {"query": request.to_json(), "warnings": warnings, "results": rows}
    table = io.StringIO()
    writer = csv_writer(table)
    writer.writerow(columns)
    writer.writerows([r[c] for c in columns] for r in rows)
    jpath, cpath = _out_both(
        cfg, ("compare.json", json.dumps(doc, indent=2)), ("compare.csv", table.getvalue())
    )
    print(f"wrote {jpath} and {cpath}")
    return 0


def cmd_stream(cfg: RunConfig) -> int:
    """Replay a CSV through the streaming sampler, each mini-batch a row range
    of the loaded relation; one JSON line of metrics per batch, none for a rejected one."""
    seed = cfg.need("seed")
    rel = _load_relation(cfg)
    if not cfg.group_by or not cfg.aggregates:
        raise UsageError("group_by and aggregates are required for stream-sim")
    budget, _ = cfg.resolve_budget(rel.n_rows)
    state = stream.make_state(rel.schema, cfg.group_by, cfg.aggregates, budget, seed)
    path = _out(cfg, "stream_metrics.jsonl")
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            for b, start in enumerate(range(0, rel.n_rows, cfg.batch_size)):
                rows = np.arange(start, min(start + cfg.batch_size, rel.n_rows))
                stream.ingest_batch(state, rel, rows)
                strata = zip(state.ids, state.sizes().tolist())
                line = {"batch": b, "arrivals": state.arrivals, "retained": state.total_retained,
                        "objective": alloc.json_float(state.objective_value()),
                        "sizes": [{"key": list(k), "size": size} for k, size in strata]}
                fh.write(json.dumps(line) + "\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    print(f"wrote {path} ({state.arrivals} rows, {state.total_retained} retained)")
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


COMMANDS = {
    "stats": cmd_stats,
    "plan": cmd_plan,
    "sample": cmd_sample,
    "query": cmd_query,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "stream-sim": cmd_stream,
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command, each with ``--config`` and one flag per
    RunConfig field but ``schema``."""
    parser = _Parser(prog="gbsample", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON config file")
        for f in fields(RunConfig):
            if f.name != "schema":
                p.add_argument("--" + f.name.replace("_", "-"), type=f.metadata["type"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args)
        return args.fn(cfg)
    except (UsageError, GbsampleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
