"""Seeded synthetic inputs for the gbsample benchmark.

Every workload reads one table with categorical attributes ``a``, ``b``,
``c`` and numeric columns ``x``, ``y``.  The table is stratified by the
workload's *stratum attributes*; any other attribute is drawn uniformly per
row.  Following ``scripts/run_compare.build_population``, the generator
makes

* skewed stratum sizes: Zipf-like over ``a`` (exponent 1.2) times Zipf-like
  over the remaining stratum attributes (exponent 1.0), so many strata hold
  only a few rows and are smaller than their ideal allocation, which runs
  the cap and pin paths of the allocators;
* a spread of coefficients of variation: each stratum gets a CV for ``x``
  from a shuffled even grid over [0.05, 1.0], and 1.05 minus that for
  ``y``.  Every stratum is thus spread out in at least one column, so a
  two-column l2 plan rounds few strata to zero rows and its min-one repair
  stays a small part of ``build``; the cube plans of ``plan_cube`` weigh
  ``x`` alone and get the full spread;
* varying means: 10 * (1 + k mod 5) for ``x`` and 20 * (1 + k mod 7) for
  ``y`` over the shuffled stratum index k.

Values are gamma distributed (always positive, so no stratum has a zero
mean) and rounded to four decimals, so the CSV text parses back to exactly
the values the oracle uses.  The same seed gives byte-identical files.

Run as a script, it writes ``data.csv`` and ``truth.npz`` (attribute codes
and ``x`` as arrays, for the benchmark's independent oracle) into
``--out``; the benchmark starts it in its own process so that the
generator's memory never counts towards the program's peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

ATTRS = ("a", "b", "c")

#: per workload and size: row count, stratum attributes with their
#: cardinalities, and the remaining attributes drawn uniformly per row
SPECS = {
    "full": {
        "build": (200_000, (("a", 100), ("b", 25)), (("c", 10),)),
        "plan_cube": (100_000, (("a", 50), ("b", 10), ("c", 5)), ()),
        "serve": (200_000, (("a", 60), ("b", 40)), (("c", 10),)),
    },
    "tiny": {
        "build": (3_000, (("a", 10), ("b", 5)), (("c", 4),)),
        "plan_cube": (3_000, (("a", 6), ("b", 4), ("c", 3)), ()),
        "serve": (3_000, (("a", 10), ("b", 5)), (("c", 4),)),
    },
}


def spec(workload: str, size: str) -> dict:
    rows, strata, extra = SPECS[size][workload]
    return {
        "rows": rows,
        "strata_attrs": [name for name, _ in strata],
        "cardinalities": dict(strata + extra),
    }


def stratum_sizes(rows: int, cards: list[int]) -> np.ndarray:
    """Zipf-like sizes, at least one row each, summing to ``rows``; laid out
    with the first attribute varying slowest."""
    wa = 1.0 / np.arange(1, cards[0] + 1) ** 1.2
    rest = int(np.prod(cards[1:])) if len(cards) > 1 else 1
    wr = 1.0 / np.arange(1, rest + 1) ** 1.0
    w = np.outer(wa, wr).ravel()
    sizes = np.maximum(1, np.round(w / w.sum() * rows)).astype(np.int64)
    sizes[0] += rows - int(sizes.sum())
    return sizes


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """Columns of the table as arrays: integer codes per attribute, x, y."""
    sp = spec(workload, size)
    rng = np.random.default_rng([seed, sorted(SPECS[size]).index(workload)])
    strata_attrs = sp["strata_attrs"]
    cards = [sp["cardinalities"][a] for a in strata_attrs]
    r = int(np.prod(cards))
    sizes = stratum_sizes(sp["rows"], cards)
    # which attribute values get the large strata is up to the seed
    label_perm = [rng.permutation(card) for card in cards]
    cvx = rng.permutation(np.linspace(0.05, 1.0, r))
    cvy = 1.05 - cvx
    k = rng.permutation(r)
    mux = 10.0 * (1 + k % 5)
    muy = 20.0 * (1 + k % 7)

    stratum = np.repeat(np.arange(r), sizes)
    stratum = stratum[rng.permutation(stratum.size)]
    cols: dict[str, np.ndarray] = {}
    rem = stratum
    for attr, card, perm in reversed(list(zip(strata_attrs, cards, label_perm))):
        cols[attr] = perm[rem % card].astype(np.int16)
        rem = rem // card
    for attr in ATTRS:
        if attr not in cols:
            card = sp["cardinalities"][attr]
            cols[attr] = rng.integers(0, card, stratum.size).astype(np.int16)
    for name, cv, mu in (("x", cvx, mux), ("y", cvy, muy)):
        shape = 1.0 / cv[stratum] ** 2
        v = rng.gamma(shape, mu[stratum] / shape)
        cols[name] = np.maximum(np.round(v, 4), 1e-4)
    return cols


def write_csv(path: str, cols: dict) -> None:
    labels = [np.array([f"{a}{i}" for i in range(int(cols[a].max()) + 1)]) for a in ATTRS]
    text = [labels[j][cols[a]].tolist() for j, a in enumerate(ATTRS)]
    xs = [repr(v) for v in cols["x"].tolist()]
    ys = [repr(v) for v in cols["y"].tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("a,b,c,x,y\n")
        fh.write("\n".join(",".join(row) for row in zip(*text, xs, ys)))
        fh.write("\n")


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SPECS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    cols = generate(args.workload, args.seed, args.size)
    write_csv(os.path.join(args.out, "data.csv"), cols)
    np.savez(os.path.join(args.out, "truth.npz"), **{k: cols[k] for k in (*ATTRS, "x")})
    return 0


if __name__ == "__main__":
    sys.exit(main())
