#!/usr/bin/env python3
"""Demonstrate the one-pass sampler's blind spot on an adversarial stream.

The stream has r groups whose values sit in [1, 2).  Every group first
sends many copies of 1.0 and a single 1 + eps, so all CVs are tiny and
nearly equal, and the sampler spreads its budget evenly.  Then one group
receives a single 2 - eps outlier: its CV jumps, so the ideal allocation
shifts sharply toward that group.  A two-pass (offline) sampler re-draws
under the new allocation; the one-pass sampler cannot recover discarded
rows and can only shrink other strata, so its objective stays worse.  The
script prints both objectives before and after the spike; there is no
pass/fail condition, it just makes the gap visible.
"""

import argparse
import sys

from gbsample.alloc import cv2_costs, l2_objective
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, Relation
from gbsample.stats import compute_catalog
from gbsample.stream import ingest_batch, make_state, offline_plan

SCHEMA = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))


def objective_of_sizes(rel, group_attrs, column, sizes) -> float:
    """F = sum cv_i^2 / s_i from the exact statistics of the data so far."""
    catalog = compute_catalog(rel, group_attrs, [column])
    costs, _ = cv2_costs(catalog, [column])
    return l2_objective(costs, [sizes.get(values[0], 0) for values in catalog.keys])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--groups", type=int, default=8)
    parser.add_argument("--copies", type=int, default=400, help="rows per group before the spike")
    parser.add_argument("--budget", type=int, default=80)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    r = args.groups
    eps = 1.0 / (r - 1)
    rows = []
    for i in range(r):
        rows.extend((f"g{i}", 1.0) for _ in range(args.copies - 1))
        rows.append((f"g{i}", 1.0 + eps))
    spike = ("g0", 2.0 - eps)
    stream = Relation.from_records(SCHEMA, rows + [spike])

    state = make_state(SCHEMA, ("g",), ("v",), args.budget, args.seed)
    ingest_batch(state, stream, range(len(rows)))

    def streaming_sizes():
        return {k[0]: size for k, size in zip(state.ids, state.sizes().tolist())}

    def offline_sizes(all_rows):
        rel = Relation.from_records(SCHEMA, all_rows)
        plan = offline_plan(rel, ("g",), ("v",), args.budget)
        return rel, {k.values[0]: int(s) for k, s in zip(plan.keys, plan.sizes)}

    rel_pre, off_pre = offline_sizes(rows)
    print(f"before spike: one-pass sizes {streaming_sizes()}")
    print(
        "  objective one-pass={:.6f} two-pass={:.6f}".format(
            objective_of_sizes(rel_pre, ["g"], "v", streaming_sizes()),
            objective_of_sizes(rel_pre, ["g"], "v", off_pre),
        )
    )

    ingest_batch(state, stream, [len(rows)])
    all_rows = rows + [spike]
    rel_post, off_post = offline_sizes(all_rows)
    one_pass = objective_of_sizes(rel_post, ["g"], "v", streaming_sizes())
    two_pass = objective_of_sizes(rel_post, ["g"], "v", off_post)
    print(f"after spike:  one-pass sizes {streaming_sizes()}")
    print(f"              two-pass sizes {off_post}")
    print(f"  objective one-pass={one_pass:.6f} two-pass={two_pass:.6f}")
    print(f"  ratio one-pass / two-pass = {one_pass / two_pass:.2f}")
    print(
        "the spiked group's ideal allocation jumps, but a single pass cannot"
        " recover rows it already discarded"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
