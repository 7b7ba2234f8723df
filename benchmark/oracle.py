"""Exact answers computed by the benchmark itself from the generated arrays.

These never call gbsample, so the program's outputs are checked against an
independent source.  Group keys are tuples of the label strings the CSV
holds (``a17``, ``c0``, ...), matching ``GroupKey.values``.
"""

from __future__ import annotations

import numpy as np

#: predicates used by the workloads, by name: (description, row test)
PREDICATES = {
    None: None,
    "c!=c0": lambda t: t["c"] != 0,
    "x_between_10_40": lambda t: (t["x"] >= 10.0) & (t["x"] <= 40.0),
}


def _group_ids(truth, attrs):
    gid = np.zeros(truth["x"].shape[0], dtype=np.int64)
    cards = []
    for a in attrs:
        card = int(truth[a].max()) + 1
        gid = gid * card + truth[a]
        cards.append(card)
    return gid, cards


def _key(attrs, cards, g):
    out = []
    for a, card in zip(reversed(attrs), reversed(cards)):
        out.append(f"{a}{g % card}")
        g //= card
    return tuple(reversed(out))


def group_stats(truth, attrs, predicate=None) -> dict[tuple, tuple[int, float]]:
    """(row count, sum of x) per non-empty group of the matching rows."""
    attrs = tuple(attrs)
    gid, cards = _group_ids(truth, attrs)
    x = truth["x"]
    test = PREDICATES[predicate]
    if test is not None:
        mask = test(truth)
        gid, x = gid[mask], x[mask]
    size = int(np.prod(cards)) if cards else 1
    counts = np.bincount(gid, minlength=size)
    sums = np.bincount(gid, weights=x, minlength=size)
    return {
        _key(attrs, cards, int(g)): (int(counts[g]), float(sums[g]))
        for g in np.flatnonzero(counts)
    }


def exact(truth, attrs, fn, predicate=None) -> dict[tuple, float]:
    """Exact AVG, SUM or COUNT of x per group."""
    out = {}
    for key, (n, s) in group_stats(truth, attrs, predicate).items():
        out[key] = {"avg": s / n, "sum": s, "count": float(n)}[fn]
    return out


def sizes(truth, attrs, predicate=None) -> dict[tuple, int]:
    """Row count per non-empty group of the matching rows."""
    return {k: n for k, (n, _) in group_stats(truth, attrs, predicate).items()}
