import csv
import json

import pytest

from gbsample.cli import RunConfig, UsageError, batch_seed, main

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


def test_batch_seed_deterministic():
    assert batch_seed(5, 0) == batch_seed(5, 0)
    assert batch_seed(5, 0) != batch_seed(5, 1)
    assert batch_seed(5, 1) != batch_seed(6, 1)


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
