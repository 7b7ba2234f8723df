import argparse
import csv
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from gbsample.cli import ALL_METHODS, RunConfig, UsageError, build_parser, main

from conftest import FIX_A_ROWS


def _write_config(tmp_path, data_path, **overrides):
    cfg = {
        "data": str(data_path),
        "schema": [
            {"name": "grp", "kind": "categorical"},
            {"name": "v", "kind": "numeric"},
        ],
        "group_by": ["grp"],
        "aggregates": ["v"],
        "method": "cvopt-l2",
        "budget": 8,
        "seed": 5,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _run(*argv):
    return main(list(argv))


def test_plan_fix_a_closed_form(tmp_path, fix_a_csv):
    cfg = _write_config(tmp_path, fix_a_csv)
    assert _run("stats", "--config", str(cfg)) == 0
    assert _run("plan", "--config", str(cfg)) == 0
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    sizes = {s["key"][0]: s["integral"] for s in doc["strata"]}
    assert sizes == {"a": 6, "b": 2}
    assert doc["method"] == "l2"


def test_rate_to_budget():
    cfg = RunConfig(budget=None, rate=0.01)
    assert cfg.resolve_budget(100000)[0] == 1000
    cfg2 = RunConfig(budget=None, rate=0.5)
    assert cfg2.resolve_budget(101)[0] == 50
    with pytest.raises(UsageError):
        RunConfig(budget=5, rate=0.5).resolve_budget(100)
    with pytest.raises(UsageError):
        RunConfig(budget=None, rate=1.5).resolve_budget(100)


def test_full_pipeline_composes(tmp_path, fix_a_csv):
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps(
            {
                "group_by": ["grp"],
                "aggregate": {"fn": "avg", "column": "v"},
                "predicate": None,
            }
        ),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, fix_a_csv, query=str(query_path))
    for command in ("stats", "plan", "sample", "query", "evaluate"):
        assert _run(command, "--config", str(cfg)) == 0, command
    out = tmp_path / "out"
    estimates = json.loads((out / "estimates.json").read_text())
    assert len(estimates["estimates"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["max"] is not None
    assert (out / "report.csv").exists()


#: keys with a line end or a quote in them, which every file of the
#: pipeline must keep whole
LINE_END_KEYS = ("a\r\nb", "a\rb", "a\nb", 'say "hi"')


@pytest.mark.parametrize("method", ["cvopt-l2", "cvopt-individual"])
def test_keys_with_line_ends_run_the_whole_pipeline(tmp_path, method):
    data = tmp_path / "data.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(["grp", "v"])
        for i, key in enumerate(LINE_END_KEYS):
            writer.writerows((key, 1.0 + i + r) for r in range(3))
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"group_by": ["grp"], "aggregate": {"fn": "avg", "column": "v"}}))
    fields = {"method": method, "query": str(query)}
    if method == "cvopt-individual":
        fields["workload"] = str(tmp_path / "workload.json")
        (tmp_path / "workload.json").write_text(
            json.dumps([{"group_by": ["grp"], "aggregates": ["v"]}])
        )
    cfg = _write_config(tmp_path, data, **fields)
    for command in ("stats", "plan", "sample", "query", "evaluate"):
        assert _run(command, "--config", str(cfg)) == 0, command
    out = tmp_path / "out"
    estimates = json.loads((out / "estimates.json").read_text(encoding="utf-8"))["estimates"]
    assert [tuple(e["key"]) for e in estimates] == [(key,) for key in LINE_END_KEYS]
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == list(LINE_END_KEYS)


def test_end_to_end_determinism(tmp_path, fix_a_csv):
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps(
            {"group_by": ["grp"], "aggregate": {"fn": "avg", "column": "v"}}
        ),
        encoding="utf-8",
    )
    outputs = []
    for run in ("r1", "r2"):
        out_dir = tmp_path / run
        cfg = _write_config(
            tmp_path, fix_a_csv, query=str(query_path), out_dir=str(out_dir)
        )
        for command in ("stats", "plan", "sample", "query", "evaluate"):
            assert _run(command, "--config", str(cfg)) == 0
        outputs.append(
            tuple(
                (out_dir / name).read_bytes()
                for name in (
                    "catalog.json",
                    "plan.json",
                    "sample.txt",
                    "estimates.json",
                    "report.json",
                    "report.csv",
                )
            )
        )
    assert outputs[0] == outputs[1]


def test_plan_methods_dispatch(tmp_path, fix_a_csv):
    for method, tag in (
        ("cvopt-linf", "linf"),
        ("uniform", "uniform"),
        ("senate", "senate"),
        ("congress", "congress"),
    ):
        out_dir = tmp_path / method
        cfg = _write_config(tmp_path, fix_a_csv, method=method, out_dir=str(out_dir))
        assert _run("stats", "--config", str(cfg)) == 0
        assert _run("plan", "--config", str(cfg)) == 0
        doc = json.loads((out_dir / "plan.json").read_text())
        assert doc["method"] == tag


def test_individual_method_poisson_sample(tmp_path, fix_a_csv):
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "count"}}),
        encoding="utf-8",
    )
    cfg = _write_config(
        tmp_path, fix_a_csv, method="cvopt-individual", budget=6, query=str(query_path)
    )
    assert _run("stats", "--config", str(cfg)) == 0
    assert _run("plan", "--config", str(cfg)) == 0
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert doc["method"] == "individual"
    assert _run("sample", "--config", str(cfg)) == 0
    first_line = (tmp_path / "out" / "sample.txt").read_text().splitlines()[0]
    assert json.loads(first_line)["kind"] == "poisson"
    # the weighted-count query and the evaluation run off the Poisson sample
    assert _run("query", "--config", str(cfg)) == 0
    assert _run("evaluate", "--config", str(cfg)) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["max"] is not None


def test_workload_weighted_plan(tmp_path, student_csv):
    workload_path = tmp_path / "workload.json"
    workload_path.write_text(
        json.dumps(
            [
                {"group_by": ["major"], "aggregates": ["age", "gpa"], "repeats": 20},
                {"group_by": ["college"], "aggregates": ["age", "sat"], "repeats": 10},
                {
                    "group_by": ["major"],
                    "aggregates": ["gpa"],
                    "predicate": [
                        {"column": "college", "op": "=", "value": "Science"}
                    ],
                    "repeats": 15,
                },
            ]
        ),
        encoding="utf-8",
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "data": str(student_csv),
                "schema": [
                    {"name": "id", "kind": "categorical"},
                    {"name": "age", "kind": "numeric"},
                    {"name": "gpa", "kind": "numeric"},
                    {"name": "sat", "kind": "numeric"},
                    {"name": "major", "kind": "categorical"},
                    {"name": "college", "kind": "numeric"},
                ],
                "workload": str(workload_path),
                "method": "cvopt-l2",
                "budget": 6,
                "seed": 1,
                "out_dir": str(tmp_path / "out"),
            }
        ),
        encoding="utf-8",
    )
    # college is categorical, not numeric: the config above is wrong on
    # purpose and must fail as a user error
    assert _run("stats", "--config", str(cfg_path)) == 1

    fixed = json.loads(cfg_path.read_text())
    fixed["schema"][5]["kind"] = "categorical"
    cfg_path.write_text(json.dumps(fixed), encoding="utf-8")
    assert _run("stats", "--config", str(cfg_path)) == 0
    assert _run("plan", "--config", str(cfg_path)) == 0
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    # finest stratification over (major, college) has 4 strata
    assert len(doc["strata"]) == 4
    assert doc["budget"] == 6


def test_compare_table(tmp_path, fix_a_csv):
    cfg = _write_config(
        tmp_path,
        fix_a_csv,
        methods=["cvopt-l2", "uniform", "senate"],
        n_seeds=3,
        budget=8,
    )
    assert _run("compare", "--config", str(cfg)) == 0
    doc = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert [r["method"] for r in doc["results"]] == ["cvopt-l2", "uniform", "senate"]
    csv_lines = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("method,budget,seeds,")
    assert len(csv_lines) == 4
    with open(tmp_path / "out" / "compare.csv", newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    for row, result in zip(body, doc["results"]):
        assert dict(zip(header, row))["method"] == result["method"]
        assert [float(cell) for cell in row[1:]] == [
            result[name] for name in header[1:]
        ]


def test_compare_refuses_cvopt_individual_in_either_place(tmp_path, fix_a_csv, capsys):
    methods = ["cvopt-l2", "cvopt-individual"]
    cfg = _write_config(tmp_path, fix_a_csv, methods=methods)
    assert _run("compare", "--config", str(cfg)) == 1
    assert f"error: {cfg}: methods: expected" in capsys.readouterr().err
    cfg = _write_config(tmp_path, fix_a_csv)
    assert _run("compare", "--config", str(cfg), "--methods", ",".join(methods)) == 1
    err = capsys.readouterr().err
    assert "error: command line: --methods: expected" in err
    assert err.endswith(f", got {methods}\n")
    assert not (tmp_path / "out").exists()


def test_stream_sim_emits_jsonl(tmp_path, fix_a_csv):
    cfg = _write_config(tmp_path, fix_a_csv, budget=6, batch_size=4)
    assert _run("stream-sim", "--config", str(cfg)) == 0
    lines = (tmp_path / "out" / "stream_metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(FIX_A_ROWS) // 4
    for line in lines:
        doc = json.loads(line)
        assert {"batch", "arrivals", "retained", "objective", "sizes"} <= set(doc)
        assert doc["retained"] <= 6
    last = json.loads(lines[-1])
    assert last["arrivals"] == len(FIX_A_ROWS)


def test_exit_codes(tmp_path, fix_a_csv):
    # missing required upstream artifact
    cfg = _write_config(tmp_path, fix_a_csv)
    assert _run("plan", "--config", str(cfg)) == 1
    # nonexistent data file
    cfg_bad = _write_config(tmp_path, tmp_path / "absent.csv")
    assert _run("stats", "--config", str(cfg_bad)) == 1
    # unknown method
    cfg_method = _write_config(tmp_path, fix_a_csv, method="nope")
    assert _run("plan", "--config", str(cfg_method)) == 1
    # unknown subcommand
    assert _run("frobnicate") == 1
    # sampling without a seed
    cfg_seedless = _write_config(tmp_path, fix_a_csv)
    doc = json.loads((tmp_path / "config.json").read_text())
    doc.pop("seed")
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    assert _run("stats", "--config", str(cfg_seedless)) == 0
    assert _run("plan", "--config", str(cfg_seedless)) == 0
    assert _run("sample", "--config", str(cfg_seedless)) == 1
    # out-of-range arguments are user errors, not internal ones
    assert _run("plan", "--config", str(cfg), "--budget", "0") == 1
    assert _run("plan", "--config", str(cfg)) == 0
    assert _run("sample", "--config", str(cfg), "--seed", "-1") == 1
    # a numeric column compared with a string
    assert _run("sample", "--config", str(cfg), "--seed", "5") == 0
    query_path = tmp_path / "bad_query.json"
    for op in ("=", "<"):
        query_path.write_text(
            json.dumps(
                {
                    "group_by": ["grp"],
                    "aggregate": {"fn": "avg", "column": "v"},
                    "predicate": [{"column": "v", "op": op, "value": "x"}],
                }
            ),
            encoding="utf-8",
        )
        for command in ("query", "evaluate"):
            argv = ("--config", str(cfg), "--seed", "5", "--query", str(query_path))
            assert _run(command, *argv) == 1
    # a categorical column compared by order, on either kind of sample
    query_path.write_text(
        json.dumps(
            {
                "group_by": ["grp"],
                "aggregate": {"fn": "count", "column": None},
                "predicate": [{"column": "grp", "op": "<", "value": "b"}],
            }
        ),
        encoding="utf-8",
    )
    for method in ("cvopt-l2", "cvopt-individual"):
        cfg_m = str(_write_config(tmp_path, fix_a_csv, method=method))
        for command in ("stats", "plan", "sample"):
            assert _run(command, "--config", cfg_m) == 0
        for command in ("query", "evaluate"):
            assert _run(command, "--config", cfg_m, "--query", str(query_path)) == 1
    # a Poisson sample file whose inclusion probability is 0
    sample_path = tmp_path / "out" / "sample.txt"
    header, columns, first, *rest = sample_path.read_text(encoding="utf-8").splitlines()
    assert json.loads(header)["kind"] == "poisson"
    row_id, _, record = first.split(",", 2)
    broken = "\n".join([header, columns, f"{row_id},0,{record}", *rest]) + "\n"
    sample_path.write_text(broken, encoding="utf-8")
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "count", "column": None}}),
        encoding="utf-8",
    )
    assert _run("query", "--config", cfg_m, "--query", str(query_path)) == 1


def test_flag_overrides(tmp_path, fix_a_csv):
    cfg = _write_config(tmp_path, fix_a_csv, budget=8)
    out2 = tmp_path / "alt"
    assert (
        _run(
            "stats",
            "--config",
            str(cfg),
            "--out-dir",
            str(out2),
        )
        == 0
    )
    assert (out2 / "catalog.json").exists()


@pytest.mark.parametrize("batch_size", [1, 7, 100])
def test_stream_sim_output_is_a_function_of_config_and_seed(tmp_path, batch_size):
    rng = np.random.default_rng(3)
    groups = rng.integers(0, 8, size=400)
    values = rng.normal(10.0 * (groups + 1), 3.0 * (groups + 1)).tolist()
    data = tmp_path / "data.csv"
    rows = "".join(f"g{g},{v!r}\n" for g, v in zip(groups, values))
    data.write_text("grp,v\n" + rows, encoding="utf-8")
    cfg = _write_config(tmp_path, data, budget=24, batch_size=batch_size)
    metrics = tmp_path / "out" / "stream_metrics.jsonl"
    runs = []
    for seed in ("5", "5", "6"):
        assert _run("stream-sim", "--config", str(cfg), "--seed", seed) == 0
        runs.append(metrics.read_bytes())
    assert runs[0] == runs[1]
    assert runs[2] != runs[0]


def test_zero_mean_exclude_flag(tmp_path):
    data = tmp_path / "zm.csv"
    data.write_text(
        "grp,v\na,5\na,-5\nb,2\nb,4\nb,3\nb,5\n", encoding="utf-8"
    )
    cfg = _write_config(tmp_path, data, budget=4)
    assert _run("stats", "--config", str(cfg)) == 0
    # stratum a has mean zero: the default errors out, the switch pins it
    assert _run("plan", "--config", str(cfg)) == 1
    assert _run("plan", "--config", str(cfg), "--zero-mean", "exclude") == 0
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    sizes = {s["key"][0]: s["integral"] for s in doc["strata"]}
    assert sizes["a"] == 1
    assert sizes["a"] + sizes["b"] == 4
    assert any("ZeroMeanExcluded" in w for w in doc["warnings"])


def test_stream_sim_composite_group_keys(tmp_path, student_csv):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "data": str(student_csv),
                "schema": [
                    {"name": "id", "kind": "categorical"},
                    {"name": "age", "kind": "numeric"},
                    {"name": "gpa", "kind": "numeric"},
                    {"name": "sat", "kind": "numeric"},
                    {"name": "major", "kind": "categorical"},
                    {"name": "college", "kind": "categorical"},
                ],
                "group_by": ["major", "college"],
                "aggregates": ["gpa"],
                "budget": 4,
                "seed": 2,
                "batch_size": 2,
                "out_dir": str(tmp_path / "out"),
            }
        ),
        encoding="utf-8",
    )
    assert _run("stream-sim", "--config", str(cfg_path)) == 0
    lines = (tmp_path / "out" / "stream_metrics.jsonl").read_text().strip().splitlines()
    last = json.loads(lines[-1])
    assert ["CS", "Science"] in [entry["key"] for entry in last["sizes"]]
    assert sum(entry["size"] for entry in last["sizes"]) == last["retained"]
    assert last["retained"] <= 4


def test_stream_sim_keys_containing_the_separator_stay_apart(tmp_path):
    data = tmp_path / "pipes.csv"
    data.write_text("a,b,v\na|b,c,1\na,b|c,2\na|b,c,3\na,b|c,5\n", encoding="utf-8")
    cfg = _write_config(
        tmp_path,
        data,
        schema=[
            {"name": "a", "kind": "categorical"},
            {"name": "b", "kind": "categorical"},
            {"name": "v", "kind": "numeric"},
        ],
        group_by=["a", "b"],
        budget=10,
        batch_size=4,
    )
    assert _run("stream-sim", "--config", str(cfg)) == 0
    (line,) = (tmp_path / "out" / "stream_metrics.jsonl").read_text().splitlines()
    assert json.loads(line)["sizes"] == [
        {"key": ["a|b", "c"], "size": 2},
        {"key": ["a", "b|c"], "size": 2},
    ]


@pytest.mark.parametrize("batch_size", [1, 7])
def test_stream_sim_overflowing_moments_is_a_user_error(tmp_path, capsys, batch_size):
    data = tmp_path / "huge.csv"
    data.write_text("grp,v\na,1e308\na,-1e308\nb,1\nb,2\na,3\nb,4\n", encoding="utf-8")
    cfg = _write_config(tmp_path, data, budget=2, batch_size=batch_size, seed=1)
    assert _run("stream-sim", "--config", str(cfg)) == 1
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("batch_size", [1, 2, 6])
def test_stream_sim_overflowing_squared_cv_is_a_user_error(tmp_path, capsys, batch_size):
    # a's moments stay finite, but with its third row sigma / |mu| is about
    # 1e160, whose square is beyond the float range
    data = tmp_path / "huge.csv"
    data.write_text("grp,v\na,1e150\na,-1e150\na,3e-10\nb,1\nb,2\nb,4\n", encoding="utf-8")
    cfg = _write_config(tmp_path, data, budget=4, batch_size=batch_size, seed=1)
    assert _run("stream-sim", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert "error: (grp=a) column 'v': the squared CV is beyond the float range" in err
    assert "Warning" not in err
    # the batches before the rejected one leave no partial file ...
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []
    # ... and a rejected run leaves the previous run's file as it was
    metrics = tmp_path / "out" / "stream_metrics.jsonl"
    metrics.write_text("previous run\n", encoding="utf-8")
    assert _run("stream-sim", "--config", str(cfg)) == 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["stream_metrics.jsonl"]
    assert metrics.read_text(encoding="utf-8") == "previous run\n"


#: six rows in three groups: a rate of 0.1 gives M = 0
SIX_ROWS = "grp,v\na,1\na,2\nb,3\nb,5\nc,4\nc,7\n"

#: a budget below one row, set directly or by a rate, and the error it gives
BELOW_ONE = [
    pytest.param({"budget": 0}, "budget must be at least 1, got 0", id="budget-0"),
    pytest.param({"budget": -3}, "budget must be at least 1, got -3", id="budget-minus-3"),
    pytest.param({"budget": None, "rate": 0.1}, "rate 0.1 of N=6 rows gives M=0, below one row",
                 id="rate-0.1"),
]


@pytest.mark.parametrize("size, message", BELOW_ONE)
@pytest.mark.parametrize(
    "method", ["cvopt-l2", "cvopt-linf", "cvopt-individual", "uniform", "senate", "congress"]
)
def test_plan_with_a_budget_below_one_is_a_user_error(tmp_path, capsys, method, size, message):
    data = tmp_path / "six.csv"
    data.write_text(SIX_ROWS, encoding="utf-8")
    cfg = _write_config(tmp_path, data, method=method, **size)
    assert _run("stats", "--config", str(cfg)) == 0
    capsys.readouterr()
    assert _run("plan", "--config", str(cfg)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "plan.json").exists()


@pytest.mark.parametrize("size, message", BELOW_ONE)
def test_stream_sim_with_a_budget_below_one_is_a_user_error(tmp_path, capsys, size, message):
    data = tmp_path / "six.csv"
    data.write_text(SIX_ROWS, encoding="utf-8")
    cfg = _write_config(tmp_path, data, **size)
    assert _run("stream-sim", "--config", str(cfg)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


#: ``g`` is categorical though its cells look numeric, ``x`` is numeric
KINDS_CSV = "g,x\n1,2.5\n2,3.5\n1,4.0\n2,1.5\n"


@pytest.mark.parametrize(
    "group_by, aggregates, message",
    [
        (["x"], ["x"], "'x' is not a categorical column of the relation"),
        (["g"], ["g"], "'g' is not a numeric column of the relation"),
    ],
    ids=["numeric-group-by", "categorical-aggregate"],
)
def test_stream_sim_checks_column_kinds_as_stats_does(
    tmp_path, capsys, group_by, aggregates, message
):
    data = tmp_path / "kinds.csv"
    data.write_text(KINDS_CSV, encoding="utf-8")
    cfg = _write_config(
        tmp_path, data, schema=[{"name": "g", "kind": "categorical"},
                                {"name": "x", "kind": "numeric"}],
        group_by=group_by, aggregates=aggregates, budget=2, batch_size=1,
    )
    for command in ("stats", "stream-sim"):
        assert _run(command, "--config", str(cfg)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "stream_metrics.jsonl").exists()


@pytest.mark.parametrize("by_flag", [False, True])
@pytest.mark.parametrize(
    "command, name, value",
    [("stream-sim", "batch_size", 0), ("stream-sim", "batch_size", -5),
     ("compare", "n_seeds", 0), ("compare", "n_seeds", -2)],
)
def test_a_count_below_one_is_a_user_error(
    tmp_path, fix_a_csv, capsys, command, name, value, by_flag
):
    flag = ["--" + name.replace("_", "-"), str(value)] if by_flag else []
    cfg = _write_config(tmp_path, fix_a_csv, **({} if by_flag else {name: value}))
    assert _run(command, "--config", str(cfg), *flag) == 1
    where = f"command line: {flag[0]}" if by_flag else f"{cfg}: {name}"
    expected = f"expected an integer >= 1 in the int64 range, got {value}"
    assert capsys.readouterr().err == f"error: {where}: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_rate_on_large_table_end_to_end(tmp_path):
    import numpy as np

    rng = np.random.default_rng(3)
    n = 100_000
    groups = rng.integers(0, 10, size=n)
    values = rng.normal(100.0 + 10 * groups, 5.0 + groups)
    lines = ["grp,v"] + [f"g{g},{v:.6f}" for g, v in zip(groups, values)]
    data = tmp_path / "big.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cfg = _write_config(tmp_path, data)
    doc = json.loads((tmp_path / "config.json").read_text())
    doc.pop("budget")
    doc["rate"] = 0.01
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    assert _run("stats", "--config", str(cfg)) == 0
    assert _run("plan", "--config", str(cfg)) == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert plan["budget"] == 1000
    assert sum(s["integral"] for s in plan["strata"]) == 1000
    assert _run("sample", "--config", str(cfg)) == 0


STUDENT_CONFIG_SCHEMA = [
    {"name": "id", "kind": "categorical"},
    {"name": "age", "kind": "numeric"},
    {"name": "gpa", "kind": "numeric"},
    {"name": "sat", "kind": "numeric"},
    {"name": "major", "kind": "categorical"},
    {"name": "college", "kind": "categorical"},
]


def test_compare_without_a_scored_group_writes_null(tmp_path, student_csv, capsys):
    # no row has age -1, so no seed scores any group
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps(
            {
                "group_by": ["major", "college"],
                "aggregate": {"fn": "avg", "column": "age"},
                "predicate": [{"column": "age", "op": "=", "value": -1}],
            }
        ),
        encoding="utf-8",
    )
    cfg = _write_config(
        tmp_path,
        student_csv,
        schema=STUDENT_CONFIG_SCHEMA,
        group_by=["major", "college"],
        aggregates=["age"],
        budget=4,
        methods=["cvopt-l2"],
        n_seeds=2,
        query=str(query_path),
    )
    assert _run("compare", "--config", str(cfg)) == 0
    doc = json.loads((tmp_path / "out" / "compare.json").read_text())
    (row,) = doc["results"]
    assert row["mean_rel_error"] is None and row["max_rel_error"] is None
    assert [w.split(":")[0] for w in doc["warnings"]] == ["NoScoredGroups"]
    with open(tmp_path / "out" / "compare.csv", newline="", encoding="utf-8") as fh:
        header, body = list(csv.reader(fh))
    cells = dict(zip(header, body))
    assert cells["mean_rel_error"] == cells["max_rel_error"] == ""


def test_a_string_where_a_list_is_expected_is_a_user_error(
    tmp_path, student_csv, capsys
):
    workload_path = tmp_path / "workload.json"
    workload_path.write_text(
        json.dumps([{"group_by": ["major"], "aggregates": "age"}]), encoding="utf-8"
    )
    cfg = _write_config(
        tmp_path,
        student_csv,
        schema=STUDENT_CONFIG_SCHEMA,
        workload=str(workload_path),
        budget=4,
    )
    assert _run("stats", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert str(workload_path) in err and "[0].aggregates" in err

    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": "major", "aggregate": {"fn": "avg", "column": "age"}}),
        encoding="utf-8",
    )
    cfg = _write_config(
        tmp_path,
        student_csv,
        schema=STUDENT_CONFIG_SCHEMA,
        group_by=["major"],
        aggregates=["age"],
        budget=4,
        query=str(query_path),
    )
    for command in ("stats", "plan", "sample"):
        assert _run(command, "--config", str(cfg)) == 0
    capsys.readouterr()
    for command in ("query", "evaluate"):
        assert _run(command, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert str(query_path) in err and "group_by" in err

    # the config's own list fields
    cfg = _write_config(
        tmp_path, student_csv, schema=STUDENT_CONFIG_SCHEMA, group_by="major"
    )
    assert _run("stats", "--config", str(cfg)) == 1
    assert "group_by" in capsys.readouterr().err


def _drop(doc, path):
    *parents, last = path
    for p in parents:
        doc = doc[p]
    del doc[last]


def _put(doc, path, value):
    """Set the field at ``path``; an index one past a list's end appends."""
    *parents, last = path
    for p in parents:
        doc = doc[p]
    if isinstance(doc, list) and last == len(doc):
        doc.append(value)
    else:
        doc[last] = value


# each mutation of a valid catalog.json, as (name, path, value); a value of
# None drops the field
CATALOG_MUTATIONS = [
    ("missing agg_columns", ("agg_columns",), None),
    ("stratum without n", ("strata", 0, "n"), None),
    ("columns without an aggregation column", ("strata", 0, "columns", "v"), None),
    ("key longer than group_attrs", ("strata", 0, "key"), ["a", "extra"]),
    ("group_attrs as a string", ("group_attrs",), "grp"),
    ("non-numeric std", ("strata", 1, "columns", "v", "std"), "wide"),
    ("negative n", ("strata", 0, "n"), -3),
    ("duplicate key", ("strata", 1, "key"), ["a"]),
    ("repeated aggregation column", ("agg_columns",), ["v", "v"]),
    ("repeated group attribute", ("group_attrs",), ["grp", "grp"]),
    ("negative std", ("strata", 0, "columns", "v", "std"), -1.0),
    ("infinite std", ("strata", 0, "columns", "v", "std"), float("inf")),
    ("NaN mean", ("strata", 0, "columns", "v", "mean"), float("nan")),
    ("missing total_n", ("total_n",), None),
    ("total_n not the strata's total n", ("total_n",), 1000),
    ("strata as an object", ("strata",), {}),
    ("stratum not an object", ("strata", 0), ["a"]),
    ("document not an object", (), None),
]


@pytest.mark.parametrize(
    "name, path, value", CATALOG_MUTATIONS, ids=[m[0] for m in CATALOG_MUTATIONS]
)
def test_malformed_catalog_is_a_user_error(tmp_path, fix_a_csv, capsys, name, path, value):
    cfg = _write_config(tmp_path, fix_a_csv, budget=4)
    assert _run("stats", "--config", str(cfg)) == 0
    catalog = tmp_path / "out" / "catalog.json"
    doc = json.loads(catalog.read_text(encoding="utf-8"))
    if not path:
        doc = [doc]
    elif value is None:
        _drop(doc, path)
    else:
        _put(doc, path, value)
    catalog.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert _run("plan", "--config", str(cfg)) == 1, name
    assert not (tmp_path / "out" / "plan.json").exists()
    # the message names the file
    assert str(catalog) in capsys.readouterr().err


def test_catalog_errors_name_the_field(tmp_path):
    from gbsample.errors import InvalidDocument
    from gbsample.stats import catalog_from_json

    doc = {
        "group_attrs": ["g"],
        "agg_columns": ["v"],
        "total_n": 3,
        "strata": [{"key": ["a"], "n": -3, "columns": {"v": {"mean": 1.0, "std": 0.0}}}],
    }
    with pytest.raises(InvalidDocument, match=r"^cat\.json: strata\[0\]\.n: expected"):
        catalog_from_json(json.dumps(doc), "cat.json")
    doc["strata"][0]["n"] = 3
    doc["strata"].append(dict(doc["strata"][0]))
    with pytest.raises(InvalidDocument, match=r"strata\[1\]\.key: repeats stratum \['a'\]"):
        catalog_from_json(json.dumps(doc), "cat.json")
    doc["strata"].pop()  # every key is read before any stratum's other fields
    del doc["strata"][0]["columns"]["v"]["std"]
    with pytest.raises(InvalidDocument, match=r"strata\[0\]\.columns\.v\.std: missing"):
        catalog_from_json(json.dumps(doc), "cat.json")
    # repeated names, each with keys and columns that match them
    doc = {
        "group_attrs": ["g", "g"],
        "agg_columns": ["v"],
        "total_n": 3,
        "strata": [{"key": ["a", "a"], "n": 3, "columns": {"v": {"mean": 1.0, "std": 0.0}}}],
    }
    distinct = r"expected a list of distinct strings"
    with pytest.raises(InvalidDocument, match=rf"^cat\.json: group_attrs: {distinct}"):
        catalog_from_json(json.dumps(doc), "cat.json")
    doc["group_attrs"], doc["agg_columns"] = ["g", "h"], ["v", "v"]
    with pytest.raises(InvalidDocument, match=rf"^cat\.json: agg_columns: {distinct}"):
        catalog_from_json(json.dumps(doc), "cat.json")


def test_catalog_total_n_must_be_the_strata_total(tmp_path, student_csv, capsys):
    cfg = _write_config(
        tmp_path, student_csv, schema=STUDENT_CONFIG_SCHEMA, group_by=["major"],
        aggregates=["gpa"], budget=None, rate=0.5,
    )
    assert _run("stats", "--config", str(cfg)) == 0
    catalog = tmp_path / "out" / "catalog.json"
    doc = json.loads(catalog.read_text(encoding="utf-8"))
    assert doc["total_n"] == 8
    doc["total_n"] = 1000
    catalog.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert _run("plan", "--config", str(cfg)) == 1
    assert "total_n: expected 8, the sum of n, got 1000" in capsys.readouterr().err
    assert not (tmp_path / "out" / "plan.json").exists()


TWO_COLUMN_SCHEMA = [
    {"name": "grp", "kind": "categorical"},
    {"name": "v", "kind": "numeric"},
    {"name": "u", "kind": "numeric"},
]


@pytest.mark.parametrize(
    "method, plan_fields, catalog_edit",
    [
        ("cvopt-l2", {"aggregates": ["v", "u"]}, None),
        ("cvopt-individual", {"aggregates": ["v", "u"]}, None),
        ("cvopt-l2", {"workload": [{"group_by": ["grp"], "aggregates": ["u"]}]}, None),
        ("cvopt-linf", {}, {"agg_columns": []}),
    ],
)
def test_a_catalog_without_a_configured_column_is_a_user_error(
    tmp_path, capsys, method, plan_fields, catalog_edit
):
    """``stats`` under one config, then ``plan`` under another that reads a
    column the catalog does not hold, or a catalog edited to lack one."""
    data = tmp_path / "two.csv"
    data.write_text("grp,v,u\na,1,2\na,3,5\nb,2,4\nb,6,1\n", encoding="utf-8")
    common = {"schema": TWO_COLUMN_SCHEMA, "budget": 3, "method": method}
    assert _run("stats", "--config", str(_write_config(tmp_path, data, **common))) == 0
    catalog = tmp_path / "out" / "catalog.json"
    if catalog_edit:
        doc = json.loads(catalog.read_text(encoding="utf-8"))
        catalog.write_text(json.dumps({**doc, **catalog_edit}), encoding="utf-8")
    if "workload" in plan_fields:
        workload = tmp_path / "workload.json"
        workload.write_text(json.dumps(plan_fields["workload"]), encoding="utf-8")
        plan_fields = {"workload": str(workload)}
    cfg = _write_config(tmp_path, data, **common, **plan_fields)
    capsys.readouterr()
    assert _run("plan", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert f"{catalog} groups by" in err and f"but {cfg} asks for" in err
    assert not (tmp_path / "out" / "plan.json").exists()
    # a baseline reads only the catalog's counts, so the same catalog serves it
    if not catalog_edit:
        uniform = _write_config(tmp_path, data, **{**common, "method": "uniform"}, **plan_fields)
        assert _run("plan", "--config", str(uniform)) == 0


#: a stratum a whose mean is 1e-10 and whose std is about 1.4e150, so its
#: squared CV is beyond the float range, next to an ordinary stratum b
TINY_MEAN_CSV = "grp,v\na,1e150\na,-1e150\na,3e-10\nb,1\nb,2\nb,4\n"


@pytest.mark.parametrize(
    "method, workload",
    [
        ("cvopt-l2", None),
        ("cvopt-linf", None),
        ("cvopt-individual", None),
        ("cvopt-l2", [{"group_by": ["grp"], "aggregates": ["v"]},
                      {"group_by": [], "aggregates": ["v"]}]),
    ],
)
def test_a_squared_cv_beyond_the_float_range_is_a_user_error(
    tmp_path, capsys, method, workload
):
    data = tmp_path / "tiny_mean.csv"
    data.write_text(TINY_MEAN_CSV, encoding="utf-8")
    fields = {"method": method, "budget": 4}
    if workload:
        path = tmp_path / "workload.json"
        path.write_text(json.dumps(workload), encoding="utf-8")
        fields.update(workload=str(path), weights=str(_write_weights(tmp_path)))
    cfg = _write_config(tmp_path, data, **fields)
    assert _run("stats", "--config", str(cfg)) == 0
    capsys.readouterr()
    assert _run("plan", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert "(grp=a) column 'v': the squared-CV cost is beyond the float range" in err
    assert not (tmp_path / "out" / "plan.json").exists()


def _write_weights(tmp_path):
    path = tmp_path / "unit_weights.json"
    path.write_text("[]", encoding="utf-8")
    return path


@pytest.mark.parametrize("method", ["cvopt-l2", "cvopt-linf", "cvopt-individual"])
def test_a_catalog_std_whose_square_overflows_is_a_user_error(
    tmp_path, fix_a_csv, capsys, method
):
    cfg = _write_config(tmp_path, fix_a_csv, method=method)
    assert _run("stats", "--config", str(cfg)) == 0
    catalog = tmp_path / "out" / "catalog.json"
    doc = json.loads(catalog.read_text(encoding="utf-8"))
    doc["strata"][0]["columns"]["v"]["std"] = 1e200
    catalog.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert _run("plan", "--config", str(cfg)) == 1
    assert "(grp=a) column 'v': the " in capsys.readouterr().err
    assert not (tmp_path / "out" / "plan.json").exists()


@pytest.mark.parametrize(
    "rows",
    [
        # the squared deviations overflow: the std would be inf
        "a,1e200\na,-1e200\na,3\n",
        # the sum overflows: the mean would be inf
        "a,1e308\na,1e308\n",
    ],
)
def test_stats_whose_moments_overflow_is_a_user_error(tmp_path, capsys, rows):
    data = tmp_path / "huge.csv"
    data.write_text("grp,v\nb,1\nb,2\n" + rows + "b,4\n", encoding="utf-8")
    cfg = _write_config(tmp_path, data)
    assert _run("stats", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert "(grp=a) column 'v': the mean or std is beyond the float range" in err
    assert not (tmp_path / "out" / "catalog.json").exists()


def test_evaluate_drops_a_predicted_cv_whose_moments_overflow(tmp_path, capsys):
    """Only the stats command rejects moments beyond the float range; the
    predicted CVs of ``evaluate`` leave out the group whose CV is not finite."""
    data = tmp_path / "two.csv"
    data.write_text(
        "grp,v,u\na,1,1e200\na,2,-1e200\na,3,3\nb,1,1\nb,2,2\nb,4,4\n", encoding="utf-8"
    )
    query = tmp_path / "query.json"
    query.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "avg", "column": "u"}}),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, data, schema=TWO_COLUMN_SCHEMA, budget=4, query=str(query))
    for command in ("stats", "plan", "sample", "query", "evaluate"):
        assert _run(command, "--config", str(cfg)) == 0, command
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    predicted = {g["key"][0]: g["predicted_cv"] for g in report["groups"]}
    assert predicted["a"] is None and math.isfinite(predicted["b"])
    assert report["cv_norms"]["l2"] == predicted["b"]
    capsys.readouterr()
    assert _run("stats", "--config", str(cfg), "--aggregates", "u") == 1
    assert "(grp=a) column 'u': the mean or std is" in capsys.readouterr().err


@pytest.mark.parametrize("workload", [None, [{"group_by": ["grp"]}, {"group_by": []}]])
def test_a_mean_whose_square_underflows_plans(tmp_path, workload):
    """Stratum a is constant at 1e-170, so its mean squared is 0 and its
    squared CV is 0 under one query or two."""
    data = tmp_path / "tiny.csv"
    data.write_text("grp,v\na,1e-170\na,1e-170\nb,1\nb,2\nb,4\n", encoding="utf-8")
    fields = {"budget": 3}
    if workload:
        path = tmp_path / "workload.json"
        path.write_text(json.dumps([{**q, "aggregates": ["v"]} for q in workload]))
        fields.update(workload=str(path), weights=str(_write_weights(tmp_path)))
    cfg = _write_config(tmp_path, data, **fields)
    for command in ("stats", "plan", "sample"):
        assert _run(command, "--config", str(cfg)) == 0, command
    doc = json.loads((tmp_path / "out" / "plan.json").read_text(encoding="utf-8"))
    assert {s["key"][0]: s["integral"] for s in doc["strata"]} == {"a": 1, "b": 2}


@pytest.mark.parametrize("by_flag", [True, False])
def test_a_sample_drawn_with_a_seed_beyond_int64_reads_back(tmp_path, fix_a_csv, by_flag):
    seed = 2**64
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"group_by": ["grp"], "aggregate": {"fn": "count"}}))
    fields = {"query": str(query), **({} if by_flag else {"seed": seed})}
    cfg = _write_config(tmp_path, fix_a_csv, **fields)
    flag = ("--seed", str(seed)) if by_flag else ()
    for command in ("stats", "plan", "sample"):
        assert _run(command, "--config", str(cfg), *flag) == 0, command
    header = (tmp_path / "out" / "sample.txt").read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(header)["seed"] == seed
    for command in ("query", "evaluate"):
        assert _run(command, "--config", str(cfg), *flag) == 0, command


@pytest.mark.parametrize(
    "method, extra",
    [
        ("cvopt-l2", {}),
        ("cvopt-linf", {}),
        ("cvopt-l2", {"group_by": [], "workload": "w"}),
        ("cvopt-individual", {"workload": "w"}),
    ],
)
def test_unknown_zero_mean_policy_is_a_user_error(
    tmp_path, fix_a_csv, capsys, method, extra
):
    if "workload" in extra:
        workload = tmp_path / "workload.json"
        workload.write_text(
            json.dumps([{"group_by": ["grp"], "aggregates": ["v"]},
                        {"group_by": [], "aggregates": ["v"]}]),
            encoding="utf-8",
        )
        extra = {**extra, "workload": str(workload)}
    cfg = _write_config(tmp_path, fix_a_csv, method=method, **extra)
    assert _run("stats", "--config", str(cfg)) == 0
    cfg = _write_config(tmp_path, fix_a_csv, method=method, zero_mean="excldue", **extra)
    capsys.readouterr()
    for command in ("stats", "plan"):
        assert _run(command, "--config", str(cfg)) == 1
        expected = "zero_mean: expected one of 'error', 'exclude', got 'excldue'"
        assert capsys.readouterr().err == f"error: {cfg}: {expected}\n"
    assert not (tmp_path / "out" / "plan.json").exists()


def _count_where(*atoms):
    return {"group_by": ["grp"], "aggregate": {"fn": "count"}, "predicate": list(atoms)}


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"group_by": ["grp"]}, "aggregate: missing"),
        ({"group_by": ["grp"], "aggregate": "avg"}, "aggregate: expected an object"),
        (
            {
                "group_by": ["grp"],
                "aggregate": {"fn": "count"},
                "predicate": {"column": "v", "op": ">", "value": 1},
            },
            "predicate: expected a list of atoms",
        ),
        (
            {"group_by": ["grp"], "aggregate": {"fn": "count"}, "predicate": [{"op": "="}]},
            "predicate[0].column: missing",
        ),
        ({"aggregate": {"fn": "count"}}, "group_by: missing"),
        (
            _count_where({"column": "v", "op": "between", "lo": "x", "hi": 3}),
            "predicate[0].lo: expected a finite number, got 'x'",
        ),
        (
            _count_where({"column": "v", "op": "between", "lo": 1, "hi": math.nan}),
            "predicate[0].hi: expected a finite number, got nan",
        ),
        (
            _count_where({"column": "grp", "op": ["="], "value": "a"}),
            "predicate[0].op: expected a string, got ['=']",
        ),
        (
            _count_where({"column": ["grp"], "op": "=", "value": "a"}),
            "predicate[0].column: expected a string, got ['grp']",
        ),
        (
            _count_where({"column": "v", "op": ">", "value": math.nan}),
            "predicate[0].value: expected a string or a finite number, got nan",
        ),
        (
            _count_where({"column": "grp", "op": "=", "value": ["a"]}),
            "predicate[0].value: expected a string or a finite number, got ['a']",
        ),
        (
            _count_where({"column": "grp", "op": "!=", "value": math.nan}),
            "predicate[0].value: expected a string or a finite number, got nan",
        ),
        # an int beyond the float range is not a finite number
        pytest.param(
            _count_where({"column": "v", "op": "between", "lo": 10**400, "hi": 3}),
            f"predicate[0].lo: expected a finite number, got {10**400}",
            id="lo-beyond-the-float-range",
        ),
        pytest.param(
            _count_where({"column": "v", "op": ">", "value": -(10**400)}),
            f"predicate[0].value: expected a string or a finite number, got {-(10**400)}",
            id="value-beyond-the-float-range",
        ),
    ],
)
def test_malformed_query_document_is_a_user_error(tmp_path, fix_a_csv, capsys, doc, field):
    query_path = tmp_path / "query.json"
    query_path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = _write_config(tmp_path, fix_a_csv, query=str(query_path))
    for command in ("stats", "plan", "sample"):
        assert _run(command, "--config", str(cfg)) == 0
    capsys.readouterr()
    for command in ("query", "evaluate"):
        assert _run(command, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"{query_path}: {field}" in err, err


def test_corrupt_sample_file_is_a_user_error(tmp_path, fix_a_csv, capsys):
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "avg", "column": "v"}}),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, fix_a_csv, query=str(query_path))
    for command in ("stats", "plan", "sample"):
        assert _run(command, "--config", str(cfg)) == 0
    out = tmp_path / "out"
    header, names, *rows = (out / "sample.txt").read_text(encoding="utf-8").splitlines()
    ordinals = [row.split(",", 1)[0] for row in rows]
    a, b = ordinals.index("0"), ordinals.index("1")
    swapped = list(rows)  # one row of each stratum moved to the other
    swapped[a] = "-1," + rows[a].split(",", 1)[1]
    swapped[b] = "0," + rows[b].split(",", 1)[1]
    ordinal, row_id, grp, _ = rows[0].split(",")
    not_a_number = [f"{ordinal},{row_id},{grp},nan"] + rows[1:]
    for body, message in ((swapped, "outside [0, 2)"), (not_a_number, "not a finite")):
        text = "\n".join([header, names, *body]) + "\n"
        (out / "sample.txt").write_text(text, encoding="utf-8")
        capsys.readouterr()
        for command, written in (("query", "estimates.json"), ("evaluate", "report.json")):
            (out / written).unlink(missing_ok=True)
            assert _run(command, "--config", str(cfg)) == 1
            assert message in capsys.readouterr().err
            assert not (out / written).exists()


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"queries": [{"group_by": ["grp"], "aggregates": ["v"]}]}, "(document): expected a list"),
        (["grp"], "[0]: expected an object"),
        ([{"aggregates": ["v"]}], "[0].group_by: missing"),
        ([{"group_by": ["grp"]}], "[0].aggregates: missing"),
        ([{"group_by": ["grp"], "aggregates": ["v"], "repeats": "x"}], "[0].repeats: expected"),
        ([{"group_by": ["grp"], "aggregates": ["v"], "repeats": 1.7}], "[0].repeats: expected"),
        ([{"group_by": ["grp"], "aggregates": ["v"], "repeats": True}], "[0].repeats: expected"),
        (
            [{"group_by": ["grp"], "aggregates": ["v"],
              "predicate": [{"column": "v", "op": "between", "lo": "x", "hi": 3}]}],
            "[0].predicate[0].lo: expected a finite number",
        ),
        (
            [{"group_by": ["grp"], "aggregates": ["v"],
              "predicate": [{"column": "v", "op": ["="], "value": 3}]}],
            "[0].predicate[0].op: expected a string",
        ),
    ],
)
def test_malformed_workload_document_is_a_user_error(tmp_path, fix_a_csv, capsys, doc, field):
    workload_path = tmp_path / "workload.json"
    workload_path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = _write_config(tmp_path, fix_a_csv, workload=str(workload_path))
    assert _run("stats", "--config", str(cfg)) == 1
    assert f"{workload_path}: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "catalog.json").exists()


@pytest.mark.parametrize(
    "schema, field",
    [
        ([{"name": "grp"}, {"name": "v", "kind": "numeric"}], "schema[0].kind: missing"),
        (
            [{"name": "grp", "kind": "categorical"}, {"name": "v", "kind": "bogus"}],
            "schema[1].kind: expected 'categorical' or 'numeric', got 'bogus'",
        ),
        ([{"name": "grp", "kind": "categorical"}, {"kind": "numeric"}], "schema[1].name: missing"),
        ([{"name": 3, "kind": "categorical"}], "schema[0].name: expected a string"),
        ({"grp": "categorical", "v": "numeric"}, "schema: expected a list of objects"),
        (["grp", "v"], "schema[0]: expected an object"),
    ],
)
def test_malformed_config_schema_is_a_user_error(tmp_path, fix_a_csv, capsys, schema, field):
    cfg = _write_config(tmp_path, fix_a_csv, schema=schema)
    assert _run("stats", "--config", str(cfg)) == 1
    assert f"{cfg}: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "catalog.json").exists()


@pytest.mark.parametrize("key", ["need", "schema_objects", "source"])
def test_config_keys_that_are_not_fields_are_unknown(tmp_path, fix_a_csv, capsys, key):
    cfg = _write_config(tmp_path, fix_a_csv, **{key: 1})
    assert _run("stats", "--config", str(cfg)) == 1
    assert f"unknown config field {key!r}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# typed config values, the option table, weights and plan files

COMMANDS = ("stats", "plan", "sample", "query", "evaluate", "compare", "stream-sim")

#: values of the wrong JSON type for each annotation of a RunConfig field;
#: null is wrong too where the annotation does not admit None
WRONG_TYPES = {
    "int": ["5", 1.5, True],
    "float": ["0.5", True, float("nan")],
    "str": [["a"], {"a": 1}, 5],
    "list": ["grp", [1], ["grp", "grp"]],
}


def _wrong_typed_values():
    for f in fields(RunConfig):
        kind, _, nullable = f.type.partition(" | ")
        wrong = WRONG_TYPES[kind.split("[")[0]] + ([] if nullable else [None])
        for value in wrong:
            if f.name == "schema" and isinstance(value, list):
                continue  # a list whose entries are wrong is schema_objects' case
            yield pytest.param(f.name, value, id=f"{f.name}={value!r}")


@pytest.mark.parametrize("name, value", _wrong_typed_values())
def test_a_wrong_typed_config_value_is_a_user_error(tmp_path, fix_a_csv, capsys, name, value):
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "avg", "column": "v"}}),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, fix_a_csv, query=str(query_path))
    for command in ("stats", "plan", "sample"):  # the upstream files exist
        assert _run(command, "--config", str(cfg)) == 0
    cfg = _write_config(tmp_path, fix_a_csv, **{"query": str(query_path), name: value})
    capsys.readouterr()
    for command in COMMANDS:
        assert _run(command, "--config", str(cfg)) == 1, command
        assert f"{cfg}: {name}: expected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, value",
    [
        ("plan", "budget", "abc"),
        ("plan", "budget", 3.7),
        ("plan", "budget", True),
        ("plan", "budget", "10"),
        ("sample", "seed", "x"),
        ("sample", "seed", 1.5),
        ("plan", "rate", "x"),
        pytest.param("plan", "rate", 10**400, id="plan-rate-beyond-the-float-range"),
        ("stream-sim", "batch_size", "x"),
        ("compare", "n_seeds", "x"),
        ("stats", "out_dir", 5),
    ],
)
def test_config_values_are_typed_at_load(tmp_path, fix_a_csv, capsys, command, name, value):
    overrides = {name: value, **({"budget": None} if name == "rate" else {})}
    cfg = _write_config(tmp_path, fix_a_csv, **overrides)
    assert _run(command, "--config", str(cfg)) == 1
    assert f"{cfg}: {name}: expected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_config_document_that_is_not_an_object_is_a_user_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[1]", encoding="utf-8")
    for command in COMMANDS:
        assert _run(command, "--config", str(cfg)) == 1
        assert f"{cfg}: (document): expected an object" in capsys.readouterr().err


def test_null_is_read_where_the_default_is_null(tmp_path, fix_a_csv):
    nulls = {f.name: None for f in fields(RunConfig) if f.default is None}
    assert set(nulls) == {"data", "budget", "rate", "workload", "weights", "query", "seed"}
    cfg = _write_config(tmp_path, fix_a_csv, **{**nulls, "data": str(fix_a_csv), "budget": 4})
    for command in ("stats", "plan"):
        assert _run(command, "--config", str(cfg)) == 0


def test_flags_override_typed_config_values(tmp_path, fix_a_csv):
    cfg = _write_config(tmp_path, fix_a_csv, group_by=["v"], budget=None, rate=None)
    argv = ("--config", str(cfg), "--group-by", "grp", "--budget", "4")
    assert _run("stats", *argv) == 0
    assert _run("plan", *argv) == 0
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert doc["group_attrs"] == ["grp"] and doc["budget"] == 4
    # flags keep their argparse types
    assert _run("plan", "--config", str(cfg), "--budget", "3.7") == 1


@pytest.mark.parametrize("flag", ["--group-by", "--aggregates", "--methods"])
def test_a_list_flag_with_a_repeated_name_is_a_user_error(tmp_path, fix_a_csv, capsys, flag):
    cfg = _write_config(tmp_path, fix_a_csv)
    for command in COMMANDS:
        assert _run(command, "--config", str(cfg), flag, "grp,v,grp") == 1, command
        err = capsys.readouterr().err
        assert f"command line: {flag}: expected a list of distinct strings" in err
        assert err.endswith(", got ['grp', 'v', 'grp']\n")
    assert not (tmp_path / "out").exists()


#: a file that no command finds, and a file where a directory is expected
ABSENT, NOT_A_DIRECTORY = "absent.json", "fix_a.csv"
EVERY_COMMAND = [[command] for command in COMMANDS]

#: per RunConfig field but schema: a config value and a flag text that are
#: rejected, and the runs (command and further flags) given the flag.  Each
#: field's check runs at load, so the config value fails every command; a
#: path that its check admits fails the commands that open it, naming it
BAD_VALUES = [
    ("data", 5, ABSENT, [["stats"], ["stream-sim"]]),
    ("group_by", ["grp", "grp"], "grp,grp", EVERY_COMMAND),
    ("aggregates", ["v", "v"], "v,v", EVERY_COMMAND),
    ("method", "bogus", "bogus", EVERY_COMMAND),
    ("budget", 10**20, str(10**20), [["plan", "--method", m] for m in ALL_METHODS]),
    ("rate", float("nan"), "nan", EVERY_COMMAND),
    ("workload", 5, ABSENT, [["stats"], ["plan"]]),
    ("weights", 5, ABSENT, [["plan"]]),
    ("weight_transform", "bogus", "bogus", EVERY_COMMAND),
    ("zero_mean", "bogus", "bogus", EVERY_COMMAND),
    ("query", 5, ABSENT, [["query"], ["evaluate"]]),
    ("seed", -1, "-1", EVERY_COMMAND),
    ("out_dir", 5, NOT_A_DIRECTORY, [["stats"], ["stream-sim"]]),
    ("batch_size", 0, "0", EVERY_COMMAND),
    ("methods", ["cvopt-l2", "bogus"], "cvopt-l2,bogus", EVERY_COMMAND),
    ("n_seeds", 0, str(2**63), EVERY_COMMAND),
    ("missing_policy", "bogus", "bogus", EVERY_COMMAND),
]


def test_the_bad_values_cover_every_field_but_the_schema():
    assert [case[0] for case in BAD_VALUES] == [
        f.name for f in fields(RunConfig) if f.name != "schema"
    ]


@pytest.mark.parametrize(
    "name, config_value, flag_text, runs", BAD_VALUES, ids=[case[0] for case in BAD_VALUES]
)
def test_a_field_has_one_check_for_the_config_file_and_the_flag(
    tmp_path, fix_a_csv, capsys, monkeypatch, name, config_value, flag_text, runs
):
    monkeypatch.chdir(tmp_path)  # the flags' relative paths
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "avg", "column": "v"}}),
        encoding="utf-8",
    )
    good = _write_config(tmp_path, fix_a_csv, query=str(query_path))
    for command in ("stats", "plan", "sample"):  # the upstream files exist
        assert _run(command, "--config", str(good)) == 0
    out = tmp_path / "out"
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    bad = tmp_path / "bad.json"
    doc = {**json.loads(good.read_text(encoding="utf-8")), name: config_value}
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in COMMANDS:
        assert _run(command, "--config", str(bad)) == 1, command
        assert f"error: {bad}: {name}: expected" in capsys.readouterr().err, command
    flag = "--" + name.replace("_", "-")
    named = (
        repr(flag_text) if flag_text in (ABSENT, NOT_A_DIRECTORY)
        else f"error: command line: {flag}: expected"
    )
    for command, *more in runs:
        assert _run(command, "--config", str(good), *more, flag, flag_text) == 1, command
        assert named in capsys.readouterr().err, command
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


#: every subcommand's options before the flags were built from RunConfig:
#: (option string, dest, argparse type, choices); no option has argparse
#: choices, as each allowed value is part of its field's check
PARSER_OPTIONS = [
    ("--aggregates", "aggregates", None, None),
    ("--batch-size", "batch_size", int, None),
    ("--budget", "budget", int, None),
    ("--config", "config", None, None),
    ("--data", "data", None, None),
    ("--group-by", "group_by", None, None),
    ("--method", "method", None, None),
    ("--methods", "methods", None, None),
    ("--missing-policy", "missing_policy", None, None),
    ("--n-seeds", "n_seeds", int, None),
    ("--out-dir", "out_dir", None, None),
    ("--query", "query", None, None),
    ("--rate", "rate", float, None),
    ("--seed", "seed", int, None),
    ("--weight-transform", "weight_transform", None, None),
    ("--weights", "weights", None, None),
    ("--workload", "workload", None, None),
    ("--zero-mean", "zero_mean", None, None),
]


def test_every_subcommand_keeps_its_options():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert list(subparsers.choices) == list(COMMANDS)
    for command, parser in subparsers.choices.items():
        options = sorted(
            (s, a.dest, a.type, a.choices)
            for a in parser._actions
            if a.dest != "help"
            for s in a.option_strings
        )
        assert options == PARSER_OPTIONS, command


@pytest.mark.parametrize(
    "doc, field",
    [
        ({}, "(document): expected a list"),
        ([1], "[0]: expected an object"),
        ([{"column": "v"}], "[0].weight: missing"),
        ([{"weight": "2"}], "[0].weight: expected a finite number"),
        ([{"weight": 10**400}], "[0].weight: expected a finite number"),
        (
            [{"weight": 2, "query": "0"}],
            "[0].query: expected an integer in the int64 range or null",
        ),
        (
            [{"weight": 2, "query": 0.5}],
            "[0].query: expected an integer in the int64 range or null",
        ),
        ([{"weight": 2, "column": 5}], "[0].column: expected a string or null"),
        ([{"weight": 2, "column": ["v"]}], "[0].column: expected a string or null"),
        ([{"weight": 2, "group": "a"}], "[0].group: expected a list of strings or null"),
    ],
)
def test_malformed_weights_file_is_a_user_error(tmp_path, fix_a_csv, capsys, doc, field):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(doc), encoding="utf-8")
    cfg = _write_config(tmp_path, fix_a_csv, weights=str(weights))
    assert _run("stats", "--config", str(cfg)) == 0
    capsys.readouterr()
    assert _run("plan", "--config", str(cfg)) == 1
    assert f"{weights}: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "plan.json").exists()


def test_weights_file_entries_weight_their_stratum(tmp_path, fix_a_csv):
    sizes = []
    for doc in ([], [{"query": None, "group": ["b"], "column": "v", "weight": 100.0}]):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(doc), encoding="utf-8")
        cfg = _write_config(tmp_path, fix_a_csv, weights=str(weights))
        for command in ("stats", "plan"):
            assert _run(command, "--config", str(cfg)) == 0
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        sizes.append({s["key"][0]: s["integral"] for s in plan["strata"]})
    assert sizes[0] == {"a": 6, "b": 2}
    assert sizes[1]["b"] > sizes[0]["b"]


#: mutations of a written plan.json, as (method, path, value, field named);
#: a value of None drops the field, and an empty path replaces the document
PLAN_MUTATIONS = [
    ("cvopt-l2", (), [1], "(document): expected an object"),
    ("cvopt-l2", (), {"method": "cvopt-l2"}, "budget: missing"),
    ("cvopt-l2", ("group_attrs",), None, "group_attrs: missing"),
    ("cvopt-l2", ("group_attrs",), ["grp", "grp"], "group_attrs: expected a list of distinct"),
    ("cvopt-l2", ("budget",), "8", "budget: expected an integer"),
    ("cvopt-l2", ("strata",), {}, "strata: expected a list"),
    ("cvopt-l2", ("strata", 0), "a", "strata[0]: expected an object"),
    ("cvopt-l2", ("strata", 0, "key"), ["a", "b"], "strata[0].key: expected a list of 1"),
    ("cvopt-l2", ("strata", 0, "integral"), -1, "strata[0].integral: expected a non-negative"),
    ("cvopt-l2", ("strata", 1, "integral"), 1.5, "strata[1].integral: expected a non-negative"),
    ("cvopt-l2", ("strata", 0, "n"), "6", "strata[0].n: expected a non-negative"),
    ("cvopt-l2", ("strata", 0, "n"), 2**70, "strata[0].n: expected a non-negative"),
    ("cvopt-l2", ("strata", 1, "integral"), 2**70, "strata[1].integral: expected a non-negative"),
    ("cvopt-l2", ("strata", 0, "fractional"), None, "strata[0].fractional: missing"),
    ("cvopt-l2", ("extra",), "x", "extra: expected an object"),
    ("cvopt-l2", ("strata", 0, "capped"), "no", "strata[0].capped: expected true or false"),
    # a copy of strata[0] appended: every stratum still present, one twice
    (
        "cvopt-l2",
        ("strata", 2),
        {"key": ["a"], "n": 8, "fractional": 6.0, "integral": 6, "capped": False},
        "strata[2].key: repeats stratum ['a']",
    ),
    ("cvopt-individual", ("queries",), None, "queries: missing"),
    ("cvopt-individual", ("queries", 0, "group_by"), "grp", "queries[0].group_by: expected"),
    (
        "cvopt-individual",
        ("queries", 0, "group_by"),
        ["grp", "grp"],
        "queries[0].group_by: expected a list of distinct",
    ),
    ("cvopt-individual", ("strata", 0, "query"), 1, "strata[0].query: expected a query index"),
    ("cvopt-individual", ("strata", 0, "query"), None, "strata[0].query: missing"),
    ("cvopt-individual", ("strata", 1, "key"), [], "strata[1].key: expected a list of 1"),
    ("cvopt-individual", ("strata", 0, "fractional"), "x", "strata[0].fractional: expected"),
    ("cvopt-individual", ("strata", 0, "n"), -2, "strata[0].n: expected a non-negative"),
    ("cvopt-individual", ("strata", 0, "n"), 2**70, "strata[0].n: expected a non-negative"),
    (
        "cvopt-individual",
        ("strata", 2),
        {"query": 0, "key": ["a"], "n": 8, "fractional": 6.0, "integral": None},
        "strata[2].key: repeats stratum ['a']",
    ),
]


@pytest.mark.parametrize(
    "method, path, value, field", PLAN_MUTATIONS, ids=[f"{m[0]}: {m[3]}" for m in PLAN_MUTATIONS]
)
def test_malformed_plan_file_is_a_user_error(
    tmp_path, fix_a_csv, capsys, method, path, value, field
):
    cfg = _write_config(tmp_path, fix_a_csv, method=method)
    for command in ("stats", "plan"):
        assert _run(command, "--config", str(cfg)) == 0
    plan = tmp_path / "out" / "plan.json"
    doc = json.loads(plan.read_text(encoding="utf-8"))
    if not path:
        doc = value
    elif value is None:
        _drop(doc, path)
    else:
        _put(doc, path, value)
    plan.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert _run("sample", "--config", str(cfg)) == 1
    assert f"{plan}: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sample.txt").exists()


# each mutation of a valid sample file's JSON header, as (method, path,
# value, the field the error names); a value of None drops the field
SAMPLE_MUTATIONS = [
    ("cvopt-l2", (), [1], "(document): expected an object"),
    ("cvopt-l2", ("kind",), "cluster", "kind: expected 'stratified' or 'poisson'"),
    ("cvopt-l2", ("method",), None, "method: missing"),
    ("cvopt-l2", ("method",), 3, "method: expected a string"),
    ("cvopt-l2", ("seed",), -1, "seed: expected a non-negative integer"),
    ("cvopt-l2", ("seed",), "5", "seed: expected a non-negative integer"),
    ("cvopt-l2", ("schema",), {}, "schema: expected a list"),
    ("cvopt-l2", ("schema", 0), "grp", "schema[0]: expected an object"),
    ("cvopt-l2", ("schema", 0, "name"), 5, "schema[0].name: expected a string"),
    ("cvopt-l2", ("schema", 1, "kind"), "text", "schema[1].kind: expected 'categorical' or"),
    ("cvopt-l2", ("schema", 1, "name"), "grp", "schema: expected columns with distinct names"),
    ("cvopt-l2", ("group_attrs",), "grp", "group_attrs: expected distinct categorical"),
    ("cvopt-l2", ("group_attrs",), ["grp", "grp"], "group_attrs: expected distinct categorical"),
    ("cvopt-l2", ("group_attrs",), ["v"], "group_attrs: expected distinct categorical"),
    ("cvopt-l2", ("group_attrs",), ["zzz"], "group_attrs: expected distinct categorical"),
    ("cvopt-l2", ("strata",), {}, "strata: expected a list"),
    ("cvopt-l2", ("strata", 0), ["a"], "strata[0]: expected an object"),
    ("cvopt-l2", ("strata", 0, "key"), "a", "strata[0].key: expected a list of 1 strings"),
    ("cvopt-l2", ("strata", 0, "key"), ["a", "b"], "strata[0].key: expected a list of 1"),
    ("cvopt-l2", ("strata", 1, "key"), ["a"], "strata[1].key: repeats stratum ['a']"),
    ("cvopt-l2", ("strata", 0, "n"), 3.9, "strata[0].n: expected an integer"),
    ("cvopt-l2", ("strata", 0, "n"), 2**70, "strata[0].n: expected an integer in the int64"),
    ("cvopt-l2", ("strata", 0, "n"), -(2**70), "strata[0].n: expected an integer in the int64"),
    ("cvopt-l2", ("strata", 0, "n"), None, "strata[0].n: missing"),
    ("cvopt-l2", ("strata", 1, "s"), -1, "strata[1].s: expected a non-negative integer"),
    ("cvopt-l2", ("strata", 1, "s"), "2", "strata[1].s: expected a non-negative integer"),
    ("cvopt-individual", ("expected_size",), None, "expected_size: missing"),
    ("cvopt-individual", ("expected_size",), 8.0, "expected_size: expected a non-negative"),
    ("cvopt-individual", ("expected_size",), "x", "expected_size: expected a non-negative"),
    ("cvopt-individual", ("expected_size",), "-1", "expected_size: expected a non-negative"),
    ("cvopt-individual", ("rows",), "7", "rows: expected a non-negative integer"),
    ("cvopt-individual", ("rows",), -1, "rows: expected a non-negative integer"),
    ("cvopt-individual", ("seed",), 1.5, "seed: expected a non-negative integer"),
]


@pytest.mark.parametrize(
    "method, path, value, field",
    SAMPLE_MUTATIONS,
    ids=[f"{m[0]}: {m[3]}" for m in SAMPLE_MUTATIONS],
)
def test_malformed_sample_header_is_a_user_error(
    tmp_path, fix_a_csv, capsys, method, path, value, field
):
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "count", "column": None}}),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, fix_a_csv, method=method, query=str(query_path))
    for command in ("stats", "plan", "sample"):
        assert _run(command, "--config", str(cfg)) == 0
    out = tmp_path / "out"
    sample = out / "sample.txt"
    first, body = sample.read_text(encoding="utf-8").split("\n", 1)
    header = json.loads(first)
    if not path:
        header = value
    elif value is None:
        _drop(header, path)
    else:
        _put(header, path, value)
    sample.write_text(json.dumps(header) + "\n" + body, encoding="utf-8")
    capsys.readouterr()
    for command, written in (("query", "estimates.json"), ("evaluate", "report.json")):
        assert _run(command, "--config", str(cfg)) == 1, command
        assert f"{sample}: {field}" in capsys.readouterr().err
        assert not (out / written).exists()


def test_sample_rows_must_hold_their_stratum_key(tmp_path, fix_a_csv, capsys):
    """Swapping the two strata's key and n in the header leaves every count
    consistent, but each row then sits in the stratum of the other group:
    loading names the first such row and its stratum instead of answering
    with the groups' counts exchanged."""
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "count", "column": None}}),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, fix_a_csv, query=str(query_path))
    for command in ("stats", "plan", "sample", "query"):
        assert _run(command, "--config", str(cfg)) == 0
    out = tmp_path / "out"
    counts = json.loads((out / "estimates.json").read_text(encoding="utf-8"))["estimates"]
    assert [(e["key"], e["value"]) for e in counts] == [(["a"], 8.0), (["b"], 8.0)]
    (out / "estimates.json").unlink()

    sample = out / "sample.txt"
    first, body = sample.read_text(encoding="utf-8").split("\n", 1)
    header = json.loads(first)
    a, b = header["strata"]
    a["key"], b["key"], a["n"], b["n"] = b["key"], a["key"], b["n"], a["n"]
    sample.write_text(json.dumps(header) + "\n" + body, encoding="utf-8")
    capsys.readouterr()
    for command, written in (("query", "estimates.json"), ("evaluate", "report.json")):
        assert _run(command, "--config", str(cfg)) == 1, command
        err = capsys.readouterr().err
        assert f"{sample}: data row 0 has grp = 'a', but its stratum 0 is (grp=b)" in err
        assert not (out / written).exists()


def _not_utf8(path):
    """Append a byte that no UTF-8 text holds to the file at ``path``."""
    path.write_bytes(path.read_bytes() + b"\xff\n")


#: per case: the command, the commands run before it and the input file
#: it then reads that gets a byte no UTF-8 text holds
NOT_UTF8 = [
    ("stats", (), "data"),
    ("stats", (), "config"),
    ("plan", ("stats",), "catalog.json"),
    ("plan", ("stats",), "workload"),
    ("plan", ("stats",), "weights"),
    ("sample", ("stats", "plan"), "plan.json"),
    ("query", ("stats", "plan", "sample"), "query"),
    ("query", ("stats", "plan", "sample"), "sample.txt"),
]


def _input_after(tmp_path, fix_a_csv, command, upstream, name):
    """The path of the input file ``name`` that ``command`` reads, after a
    config for it is written and the commands ``upstream`` have run."""
    data = tmp_path / "data.csv"
    data.write_bytes(fix_a_csv.read_bytes())
    query = tmp_path / "query.json"
    query.write_text(json.dumps(_count_where()), encoding="utf-8")
    workload = tmp_path / "workload.json"
    workload.write_text(json.dumps([{"group_by": ["grp"], "aggregates": ["v"]}]))
    weights = tmp_path / "weights.json"
    weights.write_text("[]", encoding="utf-8")
    extra = {"workload": str(workload), "weights": str(weights)} if command == "plan" else {}
    cfg = _write_config(tmp_path, data, query=str(query), **extra)
    for step in upstream:
        assert _run(step, "--config", str(cfg)) == 0, step
    return cfg, {"data": data, "config": cfg, "query": query, "workload": workload,
                 "weights": weights}.get(name, tmp_path / "out" / name)


@pytest.mark.parametrize(
    "command, upstream, spoilt", NOT_UTF8, ids=[f"{c}: {f}" for c, _, f in NOT_UTF8]
)
def test_an_input_file_that_is_not_utf8_is_a_user_error(
    tmp_path, fix_a_csv, capsys, command, upstream, spoilt
):
    cfg, path = _input_after(tmp_path, fix_a_csv, command, upstream, spoilt)
    _not_utf8(path)
    capsys.readouterr()
    assert _run(command, "--config", str(cfg)) == 1
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


def test_a_csv_field_beyond_the_csv_limit_is_a_user_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("grp,v\na,1\n" + "b" * 131073 + ",2\n", encoding="utf-8")
    cfg = _write_config(tmp_path, data)
    assert _run("stats", "--config", str(cfg)) == 1
    assert f"error: {data}: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["directory", "through a file"])
def test_a_data_path_that_is_no_file_is_a_user_error(tmp_path, fix_a_csv, capsys, where):
    data = tmp_path if where == "directory" else fix_a_csv / "data.csv"
    cfg = _write_config(tmp_path, data)
    assert _run("stats", "--config", str(cfg)) == 1
    reason = "Is a directory" if where == "directory" else "Not a directory"
    assert f"error: {data}: {reason}" in capsys.readouterr().err


#: per case: the command, the commands run before it and the JSON input
#: file it then reads, cut short
BROKEN_JSON = [
    ("stats", (), "config"),
    ("plan", ("stats",), "weights"),
    ("plan", ("stats",), "workload"),
    ("plan", ("stats",), "catalog.json"),
    ("sample", ("stats", "plan"), "plan.json"),
    ("query", ("stats", "plan", "sample"), "query"),
]


@pytest.mark.parametrize(
    "command, upstream, broken", BROKEN_JSON, ids=[f"{c}: {f}" for c, _, f in BROKEN_JSON]
)
def test_a_json_syntax_error_names_the_file(
    tmp_path, fix_a_csv, capsys, command, upstream, broken
):
    cfg, path = _input_after(tmp_path, fix_a_csv, command, upstream, broken)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    capsys.readouterr()
    assert _run(command, "--config", str(cfg)) == 1
    assert f"error: {path}: not valid JSON: " in capsys.readouterr().err


def test_json_nested_beyond_the_recursion_limit_is_a_user_error(tmp_path, fix_a_csv, capsys):
    cfg, path = _input_after(tmp_path, fix_a_csv, "query", ("stats", "plan", "sample"), "query")
    path.write_text("[" * 100_000, encoding="utf-8")
    capsys.readouterr()
    assert _run("query", "--config", str(cfg)) == 1
    assert f"error: {path}: JSON nested too deeply to read" in capsys.readouterr().err


#: per command, the output file it writes that is made a directory
BLOCKED_OUTPUTS = {
    "stats": "catalog.json",
    "plan": "plan.json",
    "sample": "sample.txt",
    "query": "estimates.json",
    "evaluate": "report.csv",
    "compare": "compare.json",
    "stream-sim": "stream_metrics.jsonl",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_an_output_name_taken_by_a_directory_is_a_user_error(
    tmp_path, fix_a_csv, capsys, command
):
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "avg", "column": "v"}}),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, fix_a_csv, query=str(query_path))
    for upstream in ("stats", "plan", "sample"):
        if upstream == command:
            break
        assert _run(upstream, "--config", str(cfg)) == 0
    blocked = tmp_path / "out" / BLOCKED_OUTPUTS[command]
    if blocked.exists():
        blocked.unlink()
    blocked.mkdir(parents=True)
    capsys.readouterr()
    assert _run(command, "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocked) in err
    assert "Traceback" not in err
    assert not [p.name for p in blocked.parent.iterdir() if p.name.endswith(".partial")]


@pytest.mark.parametrize("command, name", [("evaluate", "report"), ("compare", "compare")])
def test_a_blocked_csv_name_leaves_no_fresh_json(tmp_path, fix_a_csv, capsys, command, name):
    """``evaluate`` and ``compare`` write a JSON and a CSV file; when the CSV
    name is taken by a directory the command fails and the JSON file it
    wrote first is gone again."""
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "avg", "column": "v"}}),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, fix_a_csv, query=str(query_path))
    if command == "evaluate":
        for upstream in ("stats", "plan", "sample"):
            assert _run(upstream, "--config", str(cfg)) == 0
    out = tmp_path / "out"
    (out / f"{name}.csv").mkdir(parents=True)
    capsys.readouterr()
    assert _run(command, "--config", str(cfg)) == 1
    assert str(out / f"{name}.csv") in capsys.readouterr().err
    assert not (out / f"{name}.json").exists()


@pytest.mark.parametrize("command", ["query", "evaluate"])
def test_a_missing_sample_names_the_command_to_run(tmp_path, fix_a_csv, capsys, command):
    query_path = tmp_path / "query.json"
    query_path.write_text(
        json.dumps({"group_by": ["grp"], "aggregate": {"fn": "avg", "column": "v"}}),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, fix_a_csv, query=str(query_path))
    assert _run(command, "--config", str(cfg)) == 1
    sample = tmp_path / "out" / "sample.txt"
    assert capsys.readouterr().err == f"error: {sample} not found; run the sample command first\n"
