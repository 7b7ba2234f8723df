#!/usr/bin/env python3
"""Print a sha256 digest of every file the CLI pipeline writes.

Runs ``stats -> plan -> sample -> query -> evaluate`` through
``gbsample.cli`` on the 8-row student table and on the three ``--size
tiny`` benchmark tables (generated by ``benchmark/datagen.py``), for the
methods cvopt-l2, cvopt-linf, a cube multi-groupby, a workload-weighted
plan, cvopt-individual, uniform, senate and congress; then ``compare``
(cvopt-l2, cvopt-linf, uniform, senate and congress over two seeds) on the
same grouping, and ``stream-sim`` on it with two aggregates at batch sizes
1, 7 and 100.  A 14-row table with a zero-mean stratum runs cvopt-l2,
cvopt-linf, a cube and a two-query cvopt-individual plan under
``"zero_mean": "exclude"``, the paths that pin excluded strata at one row.
Every plan answers four queries: a coarse AVG, a fine SUM under the
table's predicate, a fine COUNT, and a fine AVG under a predicate few rows
match, which leaves sampled groups missing.  On the generated tables the
Poisson sample of cvopt-individual also answers a fine AVG under a
``reorder`` predicate that drops the first sampled rows of some groups, so
its groups, ordered by first kept row, leave the sample's first-occurrence
order; the script checks that they do.  Last, on the student table,
``plan`` runs for every method at each budget below one row (0, -3 and a
rate that rounds to 0), and ``stream-sim`` at budget 0; each must exit 1.
Then ``stream-sim`` runs on the tiny build table at a budget equal to its
stratum count, at batch sizes 1, 7 and 100, where every settle can keep a
row in every stratum; the script counts the batches whose objective is
``inf`` (a stratum left empty).
Last, a generated "messy" table of 2100 rows, its categorical column
``b`` last so that a short row leaves it null, with padded, empty,
quoted-comma and non-ASCII keys and a level first seen after row 2048
(past the loader's second chunk), runs ``stats -> plan -> sample ->
evaluate`` under cvopt-l2, pinning the loader's cleaning rules.
Last, a copy of the tiny build table with CRLF line ends, which the
loader reads by ``csv.reader`` where it splits the plain table's lines
by ``str.split``, runs the build table's cvopt-l2 plan and queries; every
line must match the plain table's.
Last, ``stats -> plan -> sample`` run on the tiny build table under
cvopt-l2 (a stratified sample) and cvopt-individual (a Poisson sample)
with seeds of two and seven 32-bit words, beyond the int64 range, so
their digests pin the per-stratum substreams of a multi-word seed.
Last, a 10-row table whose keys hold a carriage return, a newline, both
and a quote runs ``stats -> plan -> sample -> query -> evaluate`` under
cvopt-l2 and cvopt-individual: the sample file and ``report.csv`` must
quote every such key, on every Python, and the sample must read back.
Last, a generated 120-row table whose 12 strata tie in n, mean and std
(or in n and CV) runs ``stats -> plan -> sample`` under cvopt-linf and a
cube plan, so their digests pin which tied strata lose the surplus rows.
Last, a copy of the tiny build table saved with a UTF-8 byte-order mark
(as Excel's "CSV UTF-8" saves it) runs the same plan and queries; every
line must match the plain table's, as the mark is not part of the text.
Last, the tied table runs ``stats -> plan -> sample`` under cvopt-l2 and
``stream-sim`` at batch sizes 1 and 7, so their digests pin which tied
strata lose rows in an l2 plan and in a stream's settles.
Prints one line ``<sha256>  <table>/<method>/<file>`` per output file,
plus the exit code of every command, the outcome of the order check, the
count of ``inf`` objectives and whether the CRLF and byte-order-mark
copies wrote the plain table's bytes.  Exits 1 if any command failed, a
budget below one row did not exit 1, the order check found the groups in
sample order, a stream at the stratum count wrote an ``inf`` objective or
either copy wrote other bytes.

gbsample is imported from the interpreter's path, so the same script run
against two source trees shows whether they write the same bytes::

    PYTHONPATH=src python scripts/output_digests.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/output_digests.py > old.txt
    diff old.txt new.txt

``scripts/output_digests.txt`` holds this tree's listing; CI writes a
fresh one to a file and diffs it against that, so a change that moves an
output byte must update the committed listing with it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from gbsample.cli import ALL_METHODS, main as gbsample

ROOT = Path(__file__).resolve().parents[1]

STUDENT_CSV = """id,age,gpa,sat,major,college
1,25,3.4,1250,CS,Science
2,22,3.1,1280,CS,Science
3,24,3.8,1230,Math,Science
4,28,3.6,1270,Math,Science
5,21,3.5,1210,EE,Engineering
6,23,3.2,1260,EE,Engineering
7,27,3.7,1220,ME,Engineering
8,26,3.3,1230,ME,Engineering
"""

#: stratum (a, x) has mean 0: its values are -1 and 1
ZERO_MEAN_CSV = """g,h,v
a,x,-1
a,x,1
a,y,2
a,y,5
a,y,3
b,x,4
b,x,9
b,y,6
b,y,2
b,y,8
c,x,7
c,x,3
c,y,5
c,y,1
"""

#: per table: categorical and numeric columns, stratification attributes,
#: the budget setting, a predicate for the workload, a ``rare`` predicate
#: that few rows match (so AVG leaves sampled groups missing), a ``share``
#: predicate that drops one group of the first attribute and keeps the
#: others whole (so a workload query under it shares their entities), for
#: a generated table a ``reorder`` predicate (see :func:`_reorder_lines`)
#: and, for an inline table, its CSV text; a table with a ``zero_mean``
#: policy runs only the plans of :func:`_zero_mean_runs`
TABLES = {
    "student": {
        "categorical": ["id", "major", "college"],
        "numeric": ["age", "gpa", "sat"],
        "attrs": ["major", "college"],
        "size": {"budget": 6},
        "predicate": [{"column": "age", "op": ">", "value": 22}],
        "rare": [{"column": "age", "op": ">", "value": 26}],
        "share": [{"column": "major", "op": "!=", "value": "CS"}],
        "csv": STUDENT_CSV,
    },
    "zero_mean": {
        "categorical": ["g", "h"],
        "numeric": ["v"],
        "attrs": ["g", "h"],
        "size": {"budget": 9},
        "predicate": [{"column": "v", "op": ">", "value": 1}],
        "rare": [{"column": "v", "op": ">", "value": 7}],
        "csv": ZERO_MEAN_CSV,
        "zero_mean": "exclude",
    },
    **{
        name: {
            "categorical": ["a", "b", "c"],
            "numeric": ["x", "y"],
            "attrs": attrs,
            "size": {"rate": 0.1},
            "predicate": [{"column": "y", "op": "<", "value": 60.0}],
            "rare": [{"column": "x", "op": ">", "value": 60.0}],
            "share": [{"column": "a", "op": "!=", "value": "a0"}],
            "reorder": [{"column": "x", "op": ">", "value": 20.0}],
        }
        for name, attrs in (
            ("build", ["a", "b"]),
            ("plan_cube", ["a", "b", "c"]),
            ("serve", ["a", "b"]),
        )
    },
}

OUTPUTS = ("catalog.json", "plan.json", "sample.txt")

#: batch sizes of the stream-sim runs: one row at a time, batches that
#: split strata unevenly, and batches larger than a tiny table's strata
STREAM_BATCH_SIZES = (1, 7, 100)


def _side_runs(spec: dict) -> dict[str, tuple[str, dict, tuple[str, ...]]]:
    """The commands run alone on the plain grouping: per label, the command,
    its config fields and the files it writes."""
    plain = {"group_by": spec["attrs"], "aggregates": spec["numeric"][:1]}
    runs = {
        "compare": (
            "compare",
            {**plain, "methods": ["cvopt-l2", "cvopt-linf", "uniform", "senate", "congress"],
             "n_seeds": 2},
            ("compare.json", "compare.csv"),
        )
    }
    for size in STREAM_BATCH_SIZES:
        runs[f"stream-sim-{size}"] = (
            "stream-sim",
            {**plain, "aggregates": spec["numeric"][:2], "batch_size": size},
            ("stream_metrics.jsonl",),
        )
    return runs


#: seed of the generated tiny tables
SEED = 7


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _cube(attrs: list[str], column: str) -> list[dict]:
    return [
        {"group_by": list(subset), "aggregates": [column]}
        for size in range(len(attrs), -1, -1)
        for subset in itertools.combinations(attrs, size)
    ]


def _runs(spec: dict, work: Path) -> dict[str, dict]:
    """Config fields per method on one table.  The workload's last query
    repeats its first under the ``share`` predicate, so the groups that
    predicate keeps whole are entities of both queries."""
    attrs, (x, y) = spec["attrs"], spec["numeric"][:2]
    workload = _write(
        work / "workload.json",
        [
            {"group_by": attrs[:1], "aggregates": [x], "repeats": 3},
            {"group_by": attrs[1:], "aggregates": [x, y], "predicate": spec["predicate"]},
            {"group_by": [], "aggregates": [y]},
            {"group_by": attrs[:1], "aggregates": [x], "predicate": spec["share"], "repeats": 2},
        ],
    )
    cube = _write(work / "cube.json", _cube(attrs, x))
    unit_weights = _write(work / "unit_weights.json", [])
    plain = {"group_by": attrs, "aggregates": [x]}
    return {
        "cvopt-l2": {"group_by": attrs, "aggregates": [x, y]},
        "cvopt-linf": {**plain, "method": "cvopt-linf"},
        "cube": {"workload": cube, "weights": unit_weights},
        "workload": {"workload": workload},
        "cvopt-individual": {"workload": workload, "method": "cvopt-individual"},
        "uniform": {**plain, "method": "uniform"},
        "senate": {**plain, "method": "senate"},
        "congress": {**plain, "method": "congress"},
    }


def _zero_mean_runs(spec: dict, work: Path) -> dict[str, dict]:
    """Config fields per method on a table with zero-mean strata: every
    plan that pins the strata (or pairs) the policy excludes."""
    attrs, x = spec["attrs"], spec["numeric"][0]
    policy = {"zero_mean": spec["zero_mean"]}
    plain = {"group_by": attrs, "aggregates": [x], **policy}
    two = _write(
        work / "two_queries.json",
        [{"group_by": attrs, "aggregates": [x]}, {"group_by": attrs[:1], "aggregates": [x]}],
    )
    cube = _write(work / "cube.json", _cube(attrs, x))
    unit_weights = _write(work / "unit_weights.json", [])
    return {
        "cvopt-l2": plain,
        "cvopt-linf": {**plain, "method": "cvopt-linf"},
        "cube": {"workload": cube, "weights": unit_weights, **policy},
        "cvopt-individual": {"workload": two, "method": "cvopt-individual", **policy},
    }


def _queries(spec: dict, work: Path) -> dict[str, str]:
    attrs, x = spec["attrs"], spec["numeric"][0]
    return {
        "avg-coarse": _write(
            work / "q_avg.json",
            {"group_by": attrs[:1], "aggregate": {"fn": "avg", "column": x}},
        ),
        "sum-fine": _write(
            work / "q_sum.json",
            {
                "group_by": attrs,
                "aggregate": {"fn": "sum", "column": x},
                "predicate": spec["predicate"],
            },
        ),
        "count-fine": _write(
            work / "q_count.json", {"group_by": attrs, "aggregate": {"fn": "count"}}
        ),
        "avg-rare": _write(
            work / "q_avg_rare.json",
            {
                "group_by": attrs,
                "aggregate": {"fn": "avg", "column": x},
                "predicate": spec["rare"],
            },
        ),
    }


def _reorder_lines(name: str, method: str, spec: dict, out: Path, config_path: str,
                   queries: dict[str, str], work: Path) -> tuple[list[str], int]:
    """The exit, digest and order-check lines of the fine AVG under the
    ``reorder`` predicate on a Poisson sample, and the number of failures.
    Its groups must differ in order from the same groups in the sample's
    first-occurrence order, which the unfiltered fine COUNT lists."""
    query = _write(
        work / "q_avg_reorder.json",
        {
            "group_by": spec["attrs"],
            "aggregate": {"fn": "avg", "column": spec["numeric"][0]},
            "predicate": spec["reorder"],
        },
    )
    keys = {}
    codes = []
    for label, path in (("count-fine", queries["count-fine"]), ("avg-reorder", query)):
        codes.append(_cli(["query", "--config", config_path, "--query", path]))
        estimates = out / "estimates.json"
        if estimates.exists():
            doc = json.loads(estimates.read_text(encoding="utf-8"))
            keys[label] = [tuple(e["key"]) for e in doc["estimates"]]
    where = f"{name}/{method}/avg-reorder"
    lines = [
        f"exit {codes[1:]}  {where}",
        f"{_digest(out / 'estimates.json')}  {where}/estimates.json",
    ]
    (out / "estimates.json").unlink(missing_ok=True)
    got = keys.get("avg-reorder", [])
    kept = set(got)
    reordered = got != [k for k in keys.get("count-fine", []) if k in kept]
    lines.append(f"reordered {reordered}  {where}")
    return lines, sum(c != 0 for c in codes) + (not reordered)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-" * 64


def _schema(spec: dict) -> list[dict]:
    return [{"name": c, "kind": "categorical"} for c in spec["categorical"]] + [
        {"name": c, "kind": "numeric"} for c in spec["numeric"]
    ]


def _cli(args: list[str]) -> int:
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        return gbsample(args)


def table_digests(
    name: str, spec: dict, data: Path, work: Path, methods=None
) -> tuple[list[str], int]:
    """The digest and exit-code lines of every run on one table, or of the
    plans of ``methods`` alone when given, and the number of commands that
    failed."""
    lines = []
    failed = 0
    queries = _queries(spec, work)

    def config(label: str, fields: dict) -> tuple[Path, str]:
        out = work / label
        return out, _write(
            work / f"{label}.config.json",
            {"data": str(data), "schema": _schema(spec), "seed": 1, "out_dir": str(out),
             **spec["size"], **fields},
        )

    pinned = "zero_mean" in spec
    for method, fields in (_zero_mean_runs if pinned else _runs)(spec, work).items():
        if methods is not None and method not in methods:
            continue
        out, config_path = config(method, fields)
        codes = [_cli([cmd, "--config", config_path]) for cmd in ("stats", "plan", "sample")]
        failed += sum(c != 0 for c in codes)
        lines.append(f"exit {codes}  {name}/{method}")
        lines += [f"{_digest(out / f)}  {name}/{method}/{f}" for f in OUTPUTS]
        for label, query in queries.items():
            codes = [_cli([cmd, "--config", config_path, "--query", query])
                     for cmd in ("query", "evaluate")]
            failed += sum(c != 0 for c in codes)
            lines.append(f"exit {codes}  {name}/{method}/{label}")
            for f in ("estimates.json", "report.json", "report.csv"):
                lines.append(f"{_digest(out / f)}  {name}/{method}/{label}/{f}")
                (out / f).unlink(missing_ok=True)
        if method == "cvopt-individual" and "reorder" in spec:
            reorder, n_failed = _reorder_lines(name, method, spec, out, config_path, queries, work)
            lines += reorder
            failed += n_failed
    side_runs = {} if pinned or methods is not None else _side_runs(spec)
    for label, (command, fields, outputs) in side_runs.items():
        out, config_path = config(label, fields)
        code = _cli([command, "--config", config_path])
        failed += code != 0
        lines.append(f"exit [{code}]  {name}/{label}")
        lines += [f"{_digest(out / f)}  {name}/{label}/{f}" for f in outputs]
    return lines, failed


#: budgets below one row: per label, the config fields that set it
BUDGET_EDGES = {
    "budget-0": {"budget": 0}, "budget-minus-3": {"budget": -3}, "rate-0.1": {"rate": 0.1}
}


def budget_edge_lines(work: Path) -> tuple[list[str], int]:
    """The exit-code lines of ``plan`` for every method and of ``stream-sim``
    with a budget below one row on the student table, and the number of
    commands that did not exit 1."""
    spec = TABLES["student"]
    data = work / "data.csv"
    data.write_text(spec["csv"], encoding="utf-8")
    base = {"data": str(data), "schema": _schema(spec), "group_by": spec["attrs"],
            "aggregates": spec["numeric"][:1], "seed": 1, "out_dir": str(work / "out")}
    failed = _cli(["stats", "--config", _write(work / "config.json", base)]) != 0
    runs = [("plan", f"{method}/{label}", {"method": method, **size})
            for method in ALL_METHODS for label, size in BUDGET_EDGES.items()]
    runs.append(("stream-sim", "stream-sim/budget-0", BUDGET_EDGES["budget-0"]))
    lines = []
    for i, (command, where, fields) in enumerate(runs):
        code = _cli([command, "--config", _write(work / f"edge{i}.json", {**base, **fields})])
        failed += code != 1
        lines.append(f"exit [{code}]  student/{where}")
    return lines, failed


def stream_edge_lines(data: Path, work: Path) -> tuple[list[str], int]:
    """The exit, digest and ``inf``-count lines of ``stream-sim`` on the
    build table at ``data`` with a budget equal to its stratum count, and
    the number of runs that failed or wrote an ``inf`` objective."""
    spec = TABLES["build"]
    with open(data, newline="", encoding="utf-8") as fh:
        strata = len({tuple(row[a] for a in spec["attrs"]) for row in csv.DictReader(fh)})
    lines, failed = [], 0
    for size in STREAM_BATCH_SIZES:
        out, where = work / f"stream-sim-{size}", f"build/stream-sim-at-strata-{size}"
        config = {"data": str(data), "schema": _schema(spec), "seed": 1, "out_dir": str(out),
                  "group_by": spec["attrs"], "aggregates": spec["numeric"][:2],
                  "budget": strata, "batch_size": size}
        code = _cli(["stream-sim", "--config", _write(work / f"stream{size}.json", config)])
        metrics = out / "stream_metrics.jsonl"
        text = metrics.read_text(encoding="utf-8") if metrics.exists() else ""
        empty = sum(json.loads(line)["objective"] == "inf" for line in text.splitlines())
        failed += (code != 0) + (empty > 0)
        lines += [f"exit [{code}]  {where}", f"{_digest(metrics)}  {where}/stream_metrics.jsonl",
                  f"inf {empty}  {where}"]
    return lines, failed


#: the messy table: numeric columns first, categorical ``b`` last
MESSY = {
    "categorical": ["a", "b"],
    "numeric": ["x", "y"],
    "attrs": ["a", "b"],
    "size": {"budget": 300},
    "predicate": [{"column": "y", "op": "<", "value": 30.0}],
    "rare": [{"column": "x", "op": ">", "value": 21.0}],
}
MESSY_ROWS = 2100
#: keys of ``a``: padded, empty and blank ones (one value and the null
#: token), a comma a reader must keep quoted, and non-ASCII text
MESSY_KEYS = ("north", " north ", "", "  ", "a,b", "Zürich", "東京", "south ")


def _messy_csv(path: Path) -> None:
    """Write the messy table: every 97th row is short (no ``b`` cell), and
    the key ``late`` appears only after row 2048."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "a", "b"])
        for r in range(MESSY_ROWS):
            key = "late" if r > 2048 and r % 3 == 0 else MESSY_KEYS[r * 5 % len(MESSY_KEYS)]
            row = [f"{10 + r * 7 % 13 + r % 5 / 4:g}", f"{20 + r * 11 % 17:g}", key, "pqr"[r % 3]]
            writer.writerow(row[:3] if r % 97 == 0 else row)


def messy_lines(work: Path) -> tuple[list[str], int]:
    """The exit-code and digest lines of ``stats -> plan -> sample ->
    evaluate`` under cvopt-l2 on the messy table, and the number of
    commands that failed."""
    data = work / "data.csv"
    _messy_csv(data)
    out = work / "cvopt-l2"
    config = _write(
        work / "config.json",
        {"data": str(data), "schema": _schema(MESSY), "seed": 1, "out_dir": str(out),
         "group_by": MESSY["attrs"], "aggregates": MESSY["numeric"], **MESSY["size"]},
    )
    codes = [_cli([cmd, "--config", config]) for cmd in ("stats", "plan", "sample")]
    failed = sum(c != 0 for c in codes)
    lines = [f"exit {codes}  messy/cvopt-l2"]
    lines += [f"{_digest(out / f)}  messy/cvopt-l2/{f}" for f in OUTPUTS]
    for label, query in _queries(MESSY, work).items():
        code = _cli(["evaluate", "--config", config, "--query", query])
        failed += code != 0
        lines.append(f"exit [{code}]  messy/cvopt-l2/{label}")
        for f in ("report.json", "report.csv"):
            lines.append(f"{_digest(out / f)}  messy/cvopt-l2/{label}/{f}")
            (out / f).unlink(missing_ok=True)
    return lines, failed


def copy_lines(label: str, raw: bytes, work: Path, lf_lines: list[str]) -> tuple[list[str], int]:
    """The exit and digest lines of every cvopt-l2 run of
    :func:`table_digests` on ``raw``, a copy of the tiny build table's
    bytes named ``label`` (with CRLF line ends, or a byte-order mark),
    then whether each line is the original table's (``lf_lines``) but for
    the table's name; and the number of commands that failed, plus one if
    a line differs."""
    copy = work / "data.csv"
    copy.write_bytes(raw)
    lines, failed = table_digests(label, TABLES["build"], copy, work, ("cvopt-l2",))
    lf = set(lf_lines)
    same = all(line.replace(f"  {label}/", "  build/") in lf for line in lines)
    return [*lines, f"same-as-lf {same}  {label}/cvopt-l2"], failed + (not same)


#: seeds of two and of seven 32-bit words (more than SeedSequence's pool
#: of four)
BIG_SEEDS = (2**64 + 5, 2**200 + 3)


def big_seed_lines(data: Path, work: Path) -> tuple[list[str], int]:
    """The exit and ``sample.txt`` digest lines of ``stats -> plan ->
    sample`` on the tiny build table at ``data`` under cvopt-l2 and
    cvopt-individual with each seed of :data:`BIG_SEEDS`, and the number
    of commands that failed."""
    spec = TABLES["build"]
    attrs, (x, y) = spec["attrs"], spec["numeric"][:2]
    workload = _write(work / "workload.json", [{"group_by": attrs, "aggregates": [x, y]}])
    methods = {
        "cvopt-l2": {"group_by": attrs, "aggregates": [x, y]},
        "cvopt-individual": {"workload": workload, "method": "cvopt-individual"},
    }
    lines, failed = [], 0
    for seed in BIG_SEEDS:
        for method, fields in methods.items():
            out, where = work / f"{method}-{seed}", f"build/{method}/seed-{seed}"
            config = _write(
                work / f"{method}-{seed}.json",
                {"data": str(data), "schema": _schema(spec), "seed": seed, "out_dir": str(out),
                 **spec["size"], **fields},
            )
            codes = [_cli([cmd, "--config", config]) for cmd in ("stats", "plan", "sample")]
            failed += sum(c != 0 for c in codes)
            lines += [f"exit {codes}  {where}", f"{_digest(out / 'sample.txt')}  {where}/sample.txt"]
    return lines, failed


#: a tiny table whose keys hold a carriage return, a newline, both, and a
#: quote; written with ``\n`` line ends, each key quoted
LINE_ENDS = {
    "categorical": ["g"],
    "numeric": ["v"],
    "csv": 'g,v\n"a\r\nb",1\n"a\r\nb",2\n"a\rb",3\n"a\rb",5\n"a\nb",4\n"a\nb",7\n'
           '"say ""hi""",6\n"say ""hi""",9\n"plain",8\n"plain",3\n',
}


def line_end_lines(work: Path) -> tuple[list[str], int]:
    """The exit-code and digest lines of ``stats -> plan -> sample -> query
    -> evaluate`` under cvopt-l2 (a stratified sample) and cvopt-individual
    (a Poisson sample) on the :data:`LINE_ENDS` table, and the number of
    commands that failed."""
    data = work / "data.csv"
    data.write_bytes(LINE_ENDS["csv"].encode("utf-8"))
    plain = {"group_by": ["g"], "aggregates": ["v"]}
    workload = _write(work / "workload.json", [plain])
    query = _write(
        work / "query.json", {"group_by": ["g"], "aggregate": {"fn": "avg", "column": "v"}}
    )
    runs = {
        "cvopt-l2": plain,
        "cvopt-individual": {"workload": workload, "method": "cvopt-individual"},
    }
    lines, failed = [], 0
    for method, fields in runs.items():
        out, where = work / method, f"line-ends/{method}"
        config = _write(
            work / f"{method}.json",
            {"data": str(data), "schema": _schema(LINE_ENDS), "seed": 1, "out_dir": str(out),
             "budget": 6, **fields},
        )
        codes = [_cli([cmd, "--config", config]) for cmd in ("stats", "plan", "sample")]
        codes += [_cli([cmd, "--config", config, "--query", query])
                  for cmd in ("query", "evaluate")]
        failed += sum(c != 0 for c in codes)
        lines.append(f"exit {codes}  {where}")
        files = ("sample.txt", "estimates.json", "report.json", "report.csv")
        lines += [f"{_digest(out / f)}  {where}/{f}" for f in files]
    return lines, failed


#: the tied table: 12 strata (g, h), 10 rows each, rows dealt to the
#: strata in turn; every stratum holds VALUES, or VALUES doubled (the same
#: CV at another mean and std), so strata tie in n, mean and std
TIES = {
    "categorical": ["g", "h"],
    "numeric": ["v"],
    "attrs": ["g", "h"],
    "size": {"budget": 40},
}
TIES_VALUES = (3, 5, 7, 9, 11, 4, 6, 8, 10, 12)


def _ties_csv(path: Path) -> None:
    """Write the tied table; the strata of ``g`` = g2 hold the doubled values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "h", "v"])
        for r in range(120):
            g, h = f"g{r % 4}", f"h{r % 3}"
            writer.writerow([g, h, TIES_VALUES[r // 12] * (2 if g == "g2" else 1)])


def _tie_runs(work: Path, runs: dict[str, tuple[dict, tuple[str, ...], tuple[str, ...]]]
              ) -> tuple[list[str], int]:
    """The exit-code and digest lines of each run on the tied table in
    ``work``, per label its config fields, commands and the files it
    writes; and the number of commands that failed."""
    lines, failed = [], 0
    for method, (fields, commands, files) in runs.items():
        out, where = work / method, f"ties/{method}"
        config = _write(
            work / f"{method}.config.json",
            {"data": str(work / "data.csv"), "schema": _schema(TIES), "seed": 1,
             "out_dir": str(out), **TIES["size"], **fields},
        )
        codes = [_cli([cmd, "--config", config]) for cmd in commands]
        failed += sum(c != 0 for c in codes)
        lines.append(f"exit {codes}  {where}")
        lines += [f"{_digest(out / f)}  {where}/{f}" for f in files]
    return lines, failed


def tie_lines(work: Path) -> tuple[list[str], int]:
    """The exit-code and digest lines of ``stats -> plan -> sample`` under
    cvopt-linf and a cube plan (cvopt-l2 over every subset of (g, h)) on
    the tied table, written to ``work``, where the strata that lose a row
    are chosen among ties by index; and the number of commands that failed."""
    _ties_csv(work / "data.csv")
    attrs = TIES["attrs"]
    build = ("stats", "plan", "sample")
    return _tie_runs(work, {
        "cvopt-linf": ({"group_by": attrs, "aggregates": ["v"], "method": "cvopt-linf"},
                       build, OUTPUTS),
        "cube": ({"workload": _write(work / "cube.json", _cube(attrs, "v")),
                  "weights": _write(work / "unit_weights.json", [])}, build, OUTPUTS),
    })


def tie_l2_lines(work: Path) -> tuple[list[str], int]:
    """The lines of :func:`tie_lines` for ``stats -> plan -> sample`` under
    cvopt-l2, whose warm start holds 8 rows over the budget, and for
    ``stream-sim`` at batch sizes 1 and 7, whose settles remove 1 to 7
    rows, on the tied table :func:`tie_lines` wrote to ``work``; every l2
    finish chooses among tied strata by index."""
    plain = {"group_by": TIES["attrs"], "aggregates": ["v"]}
    runs = {"cvopt-l2": (plain, ("stats", "plan", "sample"), OUTPUTS)}
    for size in (1, 7):
        runs[f"stream-sim-{size}"] = (
            {**plain, "batch_size": size}, ("stream-sim",), ("stream_metrics.jsonl",),
        )
    return _tie_runs(work, runs)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        table_lines = {}
        for name, spec in TABLES.items():
            work = Path(tmp) / name
            work.mkdir()
            if "csv" in spec:
                data = work / "data.csv"
                data.write_text(spec["csv"], encoding="utf-8")
            else:
                subprocess.run(
                    [sys.executable, str(ROOT / "benchmark" / "datagen.py"),
                     "--workload", name, "--seed", str(SEED), "--size", "tiny",
                     "--out", str(work)],
                    check=True,
                )
                data = work / "data.csv"
            lines, n_failed = table_digests(name, spec, data, work)
            print("\n".join(lines))
            failed += n_failed
            table_lines[name] = lines
        work = Path(tmp) / "budget_edges"
        work.mkdir()
        lines, n_failed = budget_edge_lines(work)
        print("\n".join(lines))
        failed += n_failed
        work = Path(tmp) / "stream_edges"
        work.mkdir()
        lines, n_failed = stream_edge_lines(Path(tmp) / "build" / "data.csv", work)
        print("\n".join(lines))
        failed += n_failed
        work = Path(tmp) / "messy"
        work.mkdir()
        lines, n_failed = messy_lines(work)
        print("\n".join(lines))
        failed += n_failed
        work = Path(tmp) / "build_crlf"
        work.mkdir()
        build = (Path(tmp) / "build" / "data.csv").read_bytes()
        crlf = build.replace(b"\n", b"\r\n")
        lines, n_failed = copy_lines("build-crlf", crlf, work, table_lines["build"])
        print("\n".join(lines))
        failed += n_failed
        work = Path(tmp) / "big_seeds"
        work.mkdir()
        lines, n_failed = big_seed_lines(Path(tmp) / "build" / "data.csv", work)
        print("\n".join(lines))
        failed += n_failed
        work = Path(tmp) / "line_ends"
        work.mkdir()
        lines, n_failed = line_end_lines(work)
        print("\n".join(lines))
        failed += n_failed
        work = Path(tmp) / "ties"
        work.mkdir()
        lines, n_failed = tie_lines(work)
        print("\n".join(lines))
        failed += n_failed
        work = Path(tmp) / "build_bom"
        work.mkdir()
        bom = b"\xef\xbb\xbf" + build
        lines, n_failed = copy_lines("build-bom", bom, work, table_lines["build"])
        print("\n".join(lines))
        failed += n_failed
        lines, n_failed = tie_l2_lines(Path(tmp) / "ties")
        print("\n".join(lines))
        failed += n_failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
