#!/usr/bin/env python3
"""Benchmark gbsample on one seeded synthetic workload.

    python3 benchmark/run.py --workload {build,plan_cube,serve} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source tree: gbsample is imported from ``src/``
there and nowhere else, so the command fails without printing a result
when ``src/gbsample`` is absent.  ``gbsample.stream`` and ``gbsample.cli``
are never imported (see ``UNMEASURED``).

One run generates the workload's table from the seed (in a child
process), measures the program's set-up, then repeats passes of the timed
phase for ``--seconds``, checking every output.  Every pass makes the same
calls in the same order, and each call is reported at its median over the
passes (see :func:`typical`).  End-to-end times are scaled to the speed of
a reference host (see ``hostspeed.py``).  The last line of standard output
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the calls into gbsample, ``failed`` those that raised
or whose output failed a check.  With ``--trace 0`` the metrics are the
end-to-end ones named in ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer ones, taken from spans the benchmark records around each
call.  The line before it is a JSON record of the environment, inputs,
failures and the bases of every ratio.  Work files go to
``benchmark/_work`` and are removed at exit, except the span file of a
traced run.  ``benchmark/README.md`` describes every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

#: how many times set-up runs; each set-up call counts at its median
SETUP_ROUNDS = 3
IMPORT_PROBES = 7
LAYERS = ("dataset", "stats", "alloc", "workload", "baselines", "sampler", "query")
UNMEASURED = {
    "stream": "importing gbsample.stream raises `ValueError: mutable default "
    "<class 'gbsample.alloc.WeightSpec'>` on Python 3.11 and later",
    "cli": "gbsample.cli imports gbsample.stream",
}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    + "import " + ", ".join(f"gbsample.{m}" for m in LAYERS)
    + "; print(time.perf_counter() - t)"
)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: per-layer metrics that sum spans of several names within a round
SPAN_GROUPS = {
    "baselines.alloc.s": (
        "baselines.alloc_uniform",
        "baselines.alloc_senate",
        "baselines.alloc_congress",
    ),
}
PER_CALL = ("query.estimate.stratified", "query.estimate.poisson")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "plan_cube", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the measured layers."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it,
    or the maximum when there are fewer than twenty samples."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g}", float(np.percentile(latencies, p))
    return "max", max(latencies)


def timed_phase(wl, state, ledger, seconds) -> list[list[float]]:
    """Passes for ``seconds``: at least one, and another only while one as
    long as the last still ends in time.  Returns the duration of each call
    of each pass."""
    passes = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        ledger.times = []
        with ledger.tracer.span("pass"):
            wl.run_pass(state, ledger)
        passes.append(ledger.times)
        now = time.perf_counter()
        if now + (now - start) > end:
            return passes


def typical(rounds: list[list[float]]) -> list[float]:
    """Each call's median duration over rounds that make the same calls."""
    if len({len(r) for r in rounds}) != 1:
        raise RuntimeError("rounds made different numbers of calls")
    return [statistics.median(ts) for ts in zip(*rounds)]


def host_scale(reference: list[float]) -> float:
    """Factor that turns times measured alongside ``reference`` into times
    at the reference host's speed (1 when nothing was measured)."""
    return REFERENCE_S / statistics.median(reference) if reference else 1.0


def layer_metrics(names, spans, wl, traced_passes, untraced_passes, rows) -> dict:
    """The per-layer metrics ``names`` from the spans of a traced run.

    A call's time is its span's self time.  ``<span>.s`` is the median over
    rounds (set-up rounds and passes) that make the call of its summed time
    in the round, except for :data:`PER_CALL` spans, whose median is per
    call; ``<layer>.self_s`` is the median over traced passes of the
    layer's summed self time (``bench`` being the benchmark's own share).
    A call the workload never makes reads 0.
    """
    from tracing import self_times

    selfs = self_times(spans)
    root = {}
    for s in spans:
        root[s["id"]] = s["id"] if s["parent"] is None else root[s["parent"]]
    per_round: dict[str, dict[int, float]] = {}
    per_call: dict[str, list[float]] = {}
    pass_ids = [s["id"] for s in spans if s["parent"] is None and s["name"] == "pass"]
    by_layer = {pid: {} for pid in pass_ids}
    for s, st in zip(spans, selfs):
        rid = root[s["id"]]
        if rid in by_layer:
            layer = "bench" if s["parent"] is None else s["name"].split(".")[0]
            by_layer[rid][layer] = by_layer[rid].get(layer, 0.0) + st
        if s["parent"] is not None:
            r = per_round.setdefault(s["name"], {})
            r[rid] = r.get(rid, 0.0) + st
            per_call.setdefault(s["name"], []).append(st)

    def median_round(group) -> float:
        rounds: dict[int, float] = {}
        for name in group:
            for rid, v in per_round.get(name, {}).items():
                rounds[rid] = rounds.get(rid, 0.0) + v
        return statistics.median(rounds.values()) if rounds else 0.0

    q = wl.quality
    m = {
        "alloc.integral_over_fractional": q["l2_objective"] / q["l2_objective_fractional"],
        "trace.wall_s": sum(typical(traced_passes)),
        "trace.overhead_s": sum(typical(traced_passes)) - sum(typical(untraced_passes)),
    }
    for name in names:
        if name in m:
            continue
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            m[name] = statistics.median(by_layer[p].get(layer, 0.0) for p in pass_ids)
        elif name.endswith(".s"):
            span = name[: -len(".s")]
            if span in PER_CALL:
                m[name] = statistics.median(per_call[span]) if span in per_call else 0.0
            else:
                m[name] = median_round(SPAN_GROUPS.get(name, (span,)))
        elif name == "dataset.load_csv.rows_per_s":
            load = median_round(("dataset.load_csv",))
            m[name] = rows / load if load > 0 else 0.0
        else:
            m[name] = wl.counts.get(name, 0)
    return m


def environment(args, spec, csv_sha) -> dict:
    import gbsample

    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = out.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gbsample": gbsample.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "seed": args.seed,
        "size": args.size,
        "inputs": spec,
        "input_sha256": csv_sha,
        "unmeasured_layers": UNMEASURED,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gbsample" / "__init__.py").is_file():
        print(f"benchmark: no gbsample sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind: subprocess.run stops its child and work files go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import datagen
    from tracing import Tracer
    from workloads import WORKLOADS, Ledger, OpError

    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "datagen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--out", str(workdir)],
            check=True,
            timeout=170,
        )
        csv_path = str(workdir / "data.csv")
        with np.load(workdir / "truth.npz") as npz:
            truth = {k: npz[k] for k in npz.files}
        spec = datagen.spec(args.workload, args.size)
        wl = WORKLOADS[args.workload](csv_path, truth, spec["rows"], args.seed, str(workdir))
        spec["budget"] = wl.budget
        record = environment(args, spec, datagen.sha256_of(csv_path))

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = declared["per_layer" if args.trace else "end_to_end"]
        tracer = Tracer(f"{args.workload}-s{args.seed}-p{os.getpid()}", bool(args.trace))
        ledger = Ledger(tracer)
        metrics: dict = {}
        try:
            setup_rounds, state = [], None
            for _ in range(SETUP_ROUNDS):
                state = None  # release the previous round before the next
                ledger.times = []
                with tracer.span("setup"):
                    state = wl.setup(ledger)
                setup_rounds.append(ledger.times)
            if args.trace:
                tracer.enabled = False
                untraced = timed_phase(wl, state, ledger, args.seconds / 2)
                tracer.enabled = True
                traced = timed_phase(wl, state, ledger, args.seconds / 2)
                trace_file = WORK / f"trace-{args.workload}-s{args.seed}.jsonl"
                tracer.write(str(trace_file))
                record.update(
                    untraced_passes_s=[sum(p) for p in untraced],
                    traced_passes_s=[sum(p) for p in traced],
                    trace_file=str(trace_file.relative_to(ROOT)),
                )
                names = [m["name"] for m in declared]
                metrics = layer_metrics(names, tracer.spans, wl, traced, untraced, spec["rows"])
            else:
                # a fresh interpreter's import time is steady unscaled, and
                # the kernel reads unsteadily right after waiting on a child
                imports = import_seconds()
                setup_scale = host_scale(ledger.reference)
                setup_calls = sum(typical(setup_rounds))
                ledger.reference = []
                passes = timed_phase(wl, state, ledger, args.seconds)
                scale = host_scale(ledger.reference)
                calls = [scale * t for t in typical(passes)]
                latencies = calls if wl.call_is_request else [sum(calls)]
                tail_name, tail_s = tail(latencies)
                metrics = {
                    "setup_s": imports + setup_scale * setup_calls,
                    "wall_s": sum(calls),
                    "queries_per_s": len(latencies) / sum(latencies),
                    "query_p50_ms": 1e3 * statistics.median(latencies),
                    "query_tail_ms": 1e3 * tail_s,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "l2_objective": wl.quality["l2_objective"],
                    "linf_max_cv": wl.quality["linf_max_cv"],
                    "mean_rel_error": wl.quality["mean_rel_error"],
                }
                record.update(
                    host_scale_setup=setup_scale,
                    host_scale=scale,
                    unscaled_setup_s=imports + setup_calls,
                    unscaled_wall_s=sum(calls) / scale,
                    import_s=imports,
                    setup_rounds_s=[sum(r) for r in setup_rounds],
                    passes_s=[sum(p) for p in passes],
                    typical_calls_s=calls,
                    queries=len(latencies),
                    query_tail=f"{tail_name} of {len(latencies)} requests",
                )
        except OpError:
            import traceback

            traceback.print_exc()
        correct = ledger.failed == 0
        record.update(
            quality=wl.quality,
            counts=wl.counts,
            gbsample_modules=sorted(m for m in sys.modules if m.startswith("gbsample")),
            failed_frac=ledger.failed / max(ledger.attempted, 1),
            failures=ledger.failures,
        )
        if metrics and sorted(metrics) != sorted(m["name"] for m in declared):
            raise RuntimeError("emitted metrics differ from those BENCHMARK.json declares")
        print(json.dumps({"record": record}))
        result = {
            "correct": correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in declared
                if m["name"] in metrics
            },
        }
        print(json.dumps(result))
        return 0 if metrics else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
