"""Materialize samples from an allocation plan.

Stratified samples draw, per stratum, a uniform without-replacement subset
of the stratum's rows, using an independent RNG substream derived from
(seed, stratum index) so draws are order-independent across strata.
Poisson samples include each row independently with a row-specific
probability and carry the inverse-inclusion weight needed for unbiased
estimation.  Sampled rows keep the full record so the sample can serve new
groupings and query-time predicates.

Sample file format (documented here; see also README): the first line is a
JSON header with the schema, method tag, seed and per-stratum metadata;
the remaining lines are CSV.  For stratified samples the CSV columns are
``stratum,row_id,<schema columns>`` (stratum is the ordinal into the
header's strata list); for Poisson samples they are
``row_id,p,<schema columns>``.  Floats are written with 17 significant
digits so round-trips are exact.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .alloc import AllocationPlan
from .dataset import CATEGORICAL, ColumnSchema, GroupKey, Relation, partition
from .errors import (
    CorruptSampleFile,
    InvalidArgument,
    PlanMismatch,
    RateOutOfRange,
    SchemaMismatch,
)

_FLOAT = ".17g"


def _substream(seed: int, index: int) -> np.random.Generator:
    # independent, reproducible per-stratum stream
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


@dataclass
class StratumSample:
    key: GroupKey
    n: int
    size: int
    row_ids: list[int]
    rows: list[tuple]

    @property
    def missing(self) -> bool:
        return self.size == 0


@dataclass
class StratifiedSample:
    schema: tuple[ColumnSchema, ...]
    group_attrs: tuple[str, ...]
    method: str
    seed: int
    strata: list[StratumSample] = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        return sum(s.size for s in self.strata)

    @property
    def population(self) -> int:
        return sum(s.n for s in self.strata)


@dataclass
class PoissonSample:
    schema: tuple[ColumnSchema, ...]
    seed: int
    expected_size: float
    row_ids: list[int]
    rows: list[tuple]
    p: list[float]

    @property
    def total_rows(self) -> int:
        return len(self.row_ids)

    def weights(self) -> list[float]:
        """Inverse-inclusion row weights, 1 / p_r."""
        return [1.0 / pr for pr in self.p]


def draw_stratified(rel: Relation, plan: AllocationPlan, seed: int) -> StratifiedSample:
    """Draw the per-stratum uniform subsets prescribed by a plan.

    Deterministic given (relation, plan, seed); raises PlanMismatch when
    the plan's strata do not exactly cover the relation's partition.
    """
    if seed < 0:
        raise InvalidArgument(f"seed must be a non-negative integer, got {seed}")
    buckets = partition(rel, plan.group_attrs)
    if set(buckets) != set(plan.keys):
        raise PlanMismatch(
            "plan strata do not match the relation's partition "
            f"({len(plan.keys)} plan strata, {len(buckets)} in relation)"
        )
    sample = StratifiedSample(rel.schema, plan.group_attrs, plan.method, seed)
    for idx, key in enumerate(plan.keys):
        rows = buckets[key]
        s_i = int(plan.sizes[idx])
        if s_i > len(rows):
            raise PlanMismatch(
                f"stratum {key} allocates {s_i} rows but holds only {len(rows)}"
            )
        if s_i == 0:
            chosen: list[int] = []
        elif s_i == len(rows):
            chosen = list(rows)
        else:
            rng = _substream(seed, idx)
            chosen = sorted(
                rng.choice(np.asarray(rows, dtype=np.int64), size=s_i, replace=False)
                .tolist()
            )
        sample.strata.append(
            StratumSample(key, len(rows), s_i, chosen, [rel.record(r) for r in chosen])
        )
    return sample


def draw_poisson(rel: Relation, p: np.ndarray, seed: int) -> PoissonSample:
    """Include each row independently with probability p[row]."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[0] != rel.n_rows:
        raise RateOutOfRange("one inclusion probability per row is required")
    if np.any(p < 0) or np.any(p > 1):
        raise RateOutOfRange("inclusion probabilities must lie in [0, 1]")
    if seed < 0:
        raise InvalidArgument(f"seed must be a non-negative integer, got {seed}")
    rng = _substream(seed, 0)
    u = rng.random(rel.n_rows)
    taken = np.flatnonzero(u < p)
    return PoissonSample(
        schema=rel.schema,
        seed=seed,
        expected_size=float(p.sum()),
        row_ids=taken.tolist(),
        rows=[rel.record(int(r)) for r in taken],
        p=[float(p[r]) for r in taken],
    )


# ---------------------------------------------------------------------------
# persistence


def _schema_doc(schema: Sequence[ColumnSchema]) -> list[dict]:
    return [{"name": c.name, "kind": c.kind} for c in schema]


def _schema_from_doc(doc) -> tuple[ColumnSchema, ...]:
    return tuple(ColumnSchema(item["name"], item["kind"]) for item in doc)


def _format_record(schema: Sequence[ColumnSchema], record: tuple) -> list[str]:
    out = []
    for col, v in zip(schema, record):
        out.append(v if col.kind == CATEGORICAL else format(v, _FLOAT))
    return out


def _parse_record(schema: Sequence[ColumnSchema], cells: list[str]) -> tuple:
    return tuple(
        c if col.kind == CATEGORICAL else float(c) for col, c in zip(schema, cells)
    )


def save_sample(sample: StratifiedSample | PoissonSample, path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(sample, StratifiedSample):
        header = {
            "kind": "stratified",
            "method": sample.method,
            "seed": sample.seed,
            "schema": _schema_doc(sample.schema),
            "group_attrs": list(sample.group_attrs),
            "strata": [
                {"key": list(s.key.values), "n": s.n, "s": s.size}
                for s in sample.strata
            ],
        }
        writer.writerow(["stratum", "row_id"] + [c.name for c in sample.schema])
        for ordinal, stratum in enumerate(sample.strata):
            for row_id, record in zip(stratum.row_ids, stratum.rows):
                writer.writerow(
                    [ordinal, row_id] + _format_record(sample.schema, record)
                )
    else:
        header = {
            "kind": "poisson",
            "method": "individual",
            "seed": sample.seed,
            "schema": _schema_doc(sample.schema),
            "expected_size": format(sample.expected_size, _FLOAT),
            "rows": len(sample.row_ids),
        }
        writer.writerow(["row_id", "p"] + [c.name for c in sample.schema])
        for row_id, pr, record in zip(sample.row_ids, sample.p, sample.rows):
            writer.writerow(
                [row_id, format(pr, _FLOAT)] + _format_record(sample.schema, record)
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(buf.getvalue())


def load_sample(path, expect_schema: Sequence[ColumnSchema] | None = None):
    """Load a sample file; returns a StratifiedSample or PoissonSample.

    Raises CorruptSampleFile on malformed or truncated input, and
    SchemaMismatch when ``expect_schema`` is given and differs from the
    stored schema.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        try:
            header = json.loads(first)
            kind = header["kind"]
            schema = _schema_from_doc(header["schema"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CorruptSampleFile(f"{path}: bad header ({exc})") from None
        if expect_schema is not None and tuple(expect_schema) != schema:
            raise SchemaMismatch(f"{path}: stored schema differs from expected schema")
        reader = csv.reader(fh)
        try:
            next(reader)  # CSV column header
        except StopIteration:
            raise CorruptSampleFile(f"{path}: missing CSV body") from None
        try:
            if kind == "stratified":
                return _load_stratified(header, schema, reader, path)
            if kind == "poisson":
                return _load_poisson(header, schema, reader, path)
        except (ValueError, IndexError, KeyError) as exc:
            raise CorruptSampleFile(f"{path}: malformed row ({exc})") from None
    raise CorruptSampleFile(f"{path}: unknown sample kind {kind!r}")


def _load_stratified(header, schema, reader, path) -> StratifiedSample:
    group_attrs = tuple(header["group_attrs"])
    sample = StratifiedSample(
        schema, group_attrs, header["method"], int(header["seed"])
    )
    for meta in header["strata"]:
        key = GroupKey(group_attrs, tuple(meta["key"]))
        sample.strata.append(
            StratumSample(key, int(meta["n"]), int(meta["s"]), [], [])
        )
    for cells in reader:
        ordinal = int(cells[0])
        stratum = sample.strata[ordinal]
        stratum.row_ids.append(int(cells[1]))
        stratum.rows.append(_parse_record(schema, cells[2:]))
    for stratum in sample.strata:
        if len(stratum.row_ids) != stratum.size:
            raise CorruptSampleFile(
                f"{path}: stratum {stratum.key} has {len(stratum.row_ids)} rows, "
                f"header declares {stratum.size}"
            )
    return sample


def _load_poisson(header, schema, reader, path) -> PoissonSample:
    sample = PoissonSample(
        schema=schema,
        seed=int(header["seed"]),
        expected_size=float(header["expected_size"]),
        row_ids=[],
        rows=[],
        p=[],
    )
    for cells in reader:
        pr = float(cells[1])
        if not 0.0 < pr <= 1.0:  # NaN fails too
            raise CorruptSampleFile(
                f"{path}: row {cells[0]} has inclusion probability {cells[1]}, "
                "outside (0, 1]"
            )
        sample.row_ids.append(int(cells[0]))
        sample.p.append(pr)
        sample.rows.append(_parse_record(schema, cells[2:]))
    declared = int(header.get("rows", len(sample.row_ids)))
    if len(sample.row_ids) != declared:
        raise CorruptSampleFile(
            f"{path}: {len(sample.row_ids)} rows read, header declares {declared}"
        )
    return sample
