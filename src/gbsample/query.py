"""Answer group-by queries from samples and score them against exact answers.

Estimation from a stratified sample expands each stratum's matching rows by
the factor n_c / s_c (population over sample size):

* COUNT  = sum_c (n_c / s_c) * m_c          (m_c matching sampled rows in c)
* SUM    = sum_c (n_c / s_c) * sum(values)
* AVG    = SUM / COUNT                       (ratio of expansions)

so the average of a coarse group is the population-weighted combination of
stratum means, and AVG, SUM and COUNT are mutually consistent by
construction.  A query grouping must be a subset of the sample's
stratification attributes, so that every query group is a union of strata.

An AVG group with no matching sampled rows has an undefined ratio and is
reported as missing.  SUM and COUNT estimate 0 in that case (the expansion
of zero matches), and are missing only when none of the group's strata
holds any sampled row at all.

Estimation from a Poisson sample weights each matching row by 1 / p_r
(inverse inclusion probability).

Evaluation scores per-group relative error |estimate - exact| / |exact|
against the exact answers computed from the full relation; groups present
in the truth but missing from the sample score 1.0 by default.  Reported
predicted-CV norms always describe the AVG estimator of the queried
column, whatever the aggregate, and ignore the predicate (they measure
plan quality, not a per-predicate guarantee).
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .alloc import predicted_group_cv
from .dataset import CATEGORICAL, NUMERIC, ColumnSchema, GroupKey, Relation, partition
from .errors import (
    GbsampleError,
    IncompatibleGrouping,
    InvalidArgument,
    UnknownColumn,
)
from .sampler import PoissonSample, StratifiedSample
from .stats import compute_catalog

AVG = "avg"
SUM = "sum"
COUNT = "count"

_NUMERIC_OPS = {"<", "<=", ">", ">=", "between"}
_ALL_OPS = {"=", "!=", "<", "<=", ">", ">=", "between"}


@dataclass(frozen=True)
class Atom:
    column: str
    op: str
    value: object = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.op not in _ALL_OPS:
            raise InvalidArgument(f"unknown predicate operator {self.op!r}")
        if self.op == "between":
            if self.lo is None or self.hi is None or self.lo > self.hi:
                raise InvalidArgument(
                    f"between requires lo <= hi, got lo={self.lo} hi={self.hi}"
                )


@dataclass(frozen=True)
class Predicate:
    """A conjunction of per-column comparison atoms."""

    atoms: tuple[Atom, ...]

    def mask(self, rel: Relation) -> np.ndarray:
        """Vectorized evaluation over a relation: one bool per row."""
        out = np.ones(rel.n_rows, dtype=bool)
        for atom in self.atoms:
            kind = rel.kind_of(atom.column)
            if kind is None:
                raise UnknownColumn(atom.column)
            if kind == CATEGORICAL:
                if atom.op not in ("=", "!="):
                    raise InvalidArgument(
                        f"operator {atom.op!r} not valid for categorical column"
                    )
                col = rel.categorical(atom.column)
                hit = np.fromiter(
                    (v == atom.value for v in col), dtype=bool, count=rel.n_rows
                )
                out &= hit if atom.op == "=" else ~hit
            else:
                _check_number(atom)
                out &= _numeric_test(atom, rel.numeric(atom.column))
        return out

    def row_matcher(self, schema: Sequence[ColumnSchema]) -> Callable[[tuple], bool]:
        """Compile a per-record matcher for rows stored as schema-order tuples."""
        pos = {c.name: i for i, c in enumerate(schema)}
        kinds = {c.name: c.kind for c in schema}
        compiled = []
        for atom in self.atoms:
            if atom.column not in pos:
                raise UnknownColumn(atom.column)
            if kinds[atom.column] == NUMERIC:
                _check_number(atom)
            compiled.append((pos[atom.column], atom))

        def matches(record: tuple) -> bool:
            for i, atom in compiled:
                if not _scalar_test(atom, record[i]):
                    return False
            return True

        return matches

    def to_json(self) -> list[dict]:
        out = []
        for a in self.atoms:
            if a.op == "between":
                out.append({"column": a.column, "op": a.op, "lo": a.lo, "hi": a.hi})
            else:
                out.append({"column": a.column, "op": a.op, "value": a.value})
        return out

    @classmethod
    def from_json(cls, doc) -> "Predicate":
        atoms = []
        for item in doc:
            op = item["op"]
            if op == "between":
                atoms.append(
                    Atom(item["column"], op, lo=float(item["lo"]), hi=float(item["hi"]))
                )
            else:
                atoms.append(Atom(item["column"], op, value=item["value"]))
        return cls(tuple(atoms))


def _check_number(atom: Atom) -> None:
    """A numeric column compares only with real numbers (bool excluded)."""
    operands = (atom.lo, atom.hi) if atom.op == "between" else (atom.value,)
    for v in operands:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise InvalidArgument(
                f"column {atom.column!r} is numeric; operator {atom.op!r} "
                f"needs a number, got {v!r}"
            )


def _numeric_test(atom: Atom, col: np.ndarray) -> np.ndarray:
    if atom.op == "=":
        return col == atom.value
    if atom.op == "!=":
        return col != atom.value
    if atom.op == "<":
        return col < atom.value
    if atom.op == "<=":
        return col <= atom.value
    if atom.op == ">":
        return col > atom.value
    if atom.op == ">=":
        return col >= atom.value
    return (col >= atom.lo) & (col <= atom.hi)


def _scalar_test(atom: Atom, v) -> bool:
    if atom.op == "=":
        return v == atom.value
    if atom.op == "!=":
        return v != atom.value
    if atom.op == "<":
        return v < atom.value
    if atom.op == "<=":
        return v <= atom.value
    if atom.op == ">":
        return v > atom.value
    if atom.op == ">=":
        return v >= atom.value
    return atom.lo <= v <= atom.hi


@dataclass
class Estimate:
    group: GroupKey
    value: float | None
    support: int
    missing: bool
    predicted_cv: float | None = None


@dataclass(frozen=True)
class QueryRequest:
    group_attrs: tuple[str, ...]
    fn: str
    column: str | None = None
    predicate: Predicate | None = None

    def __post_init__(self):
        if self.fn not in (AVG, SUM, COUNT):
            raise InvalidArgument(f"unsupported aggregate {self.fn!r}")
        if self.fn != COUNT and self.column is None:
            raise InvalidArgument(f"{self.fn} requires an aggregation column")

    def to_json(self) -> dict:
        return {
            "group_by": list(self.group_attrs),
            "aggregate": {"fn": self.fn, "column": self.column},
            "predicate": self.predicate.to_json() if self.predicate else None,
        }

    @classmethod
    def from_json(cls, doc) -> "QueryRequest":
        pred = doc.get("predicate")
        return cls(
            group_attrs=tuple(doc["group_by"]),
            fn=doc["aggregate"]["fn"],
            column=doc["aggregate"].get("column"),
            predicate=Predicate.from_json(pred) if pred else None,
        )


# ---------------------------------------------------------------------------
# estimation from a stratified sample


def _column_position(schema: Sequence[ColumnSchema], column: str | None) -> int | None:
    if column is None:
        return None
    for i, c in enumerate(schema):
        if c.name == column:
            if c.kind == CATEGORICAL:
                raise UnknownColumn(column)
            return i
    raise UnknownColumn(column)


def _expansions(
    sample: StratifiedSample,
    group_attrs: Sequence[str],
    column: str | None,
    predicate: Predicate | None,
):
    """Per coarse group: expanded sum, expanded count, support and whether
    any member stratum holds sampled rows."""
    group_attrs = tuple(group_attrs)
    if not set(group_attrs) <= set(sample.group_attrs):
        raise IncompatibleGrouping(
            f"grouping {group_attrs} is not a subset of the sample's "
            f"stratification {sample.group_attrs}"
        )
    col_pos = _column_position(sample.schema, column)
    matcher = predicate.row_matcher(sample.schema) if predicate else None

    groups: dict[GroupKey, dict] = {}
    for stratum in sample.strata:
        coarse = stratum.key.project(group_attrs)
        g = groups.setdefault(
            coarse, {"sum": 0.0, "count": 0.0, "support": 0, "sampled": False}
        )
        if stratum.size == 0:
            continue
        g["sampled"] = True
        rows = stratum.rows
        if matcher is not None:
            rows = [r for r in rows if matcher(r)]
        m = len(rows)
        if m == 0:
            continue
        factor = stratum.n / stratum.size
        if col_pos is not None:
            g["sum"] += factor * sum(r[col_pos] for r in rows)
        g["count"] += factor * m
        g["support"] += m
    return groups


def estimate_avg(
    sample: StratifiedSample,
    group_attrs: Sequence[str],
    column: str,
    predicate: Predicate | None = None,
) -> list[Estimate]:
    out = []
    for key, g in _expansions(sample, group_attrs, column, predicate).items():
        if g["count"] > 0:
            out.append(Estimate(key, g["sum"] / g["count"], g["support"], False))
        else:
            out.append(Estimate(key, None, 0, True))
    return out


def estimate_sum(
    sample: StratifiedSample,
    group_attrs: Sequence[str],
    column: str,
    predicate: Predicate | None = None,
) -> list[Estimate]:
    out = []
    for key, g in _expansions(sample, group_attrs, column, predicate).items():
        if g["sampled"]:
            out.append(Estimate(key, g["sum"], g["support"], False))
        else:
            out.append(Estimate(key, None, 0, True))
    return out


def estimate_count(
    sample: StratifiedSample,
    group_attrs: Sequence[str],
    predicate: Predicate | None = None,
) -> list[Estimate]:
    out = []
    for key, g in _expansions(sample, group_attrs, None, predicate).items():
        if g["sampled"]:
            out.append(Estimate(key, g["count"], g["support"], False))
        else:
            out.append(Estimate(key, None, 0, True))
    return out


def estimate(sample, request: QueryRequest) -> list[Estimate]:
    """Dispatch a query request against a stratified or Poisson sample."""
    if isinstance(sample, PoissonSample):
        return estimate_poisson(
            sample, request.group_attrs, request.fn, request.column, request.predicate
        )
    if request.fn == AVG:
        return estimate_avg(
            sample, request.group_attrs, request.column, request.predicate
        )
    if request.fn == SUM:
        return estimate_sum(
            sample, request.group_attrs, request.column, request.predicate
        )
    return estimate_count(sample, request.group_attrs, request.predicate)


# ---------------------------------------------------------------------------
# estimation from a Poisson sample


def estimate_poisson(
    sample: PoissonSample,
    group_attrs: Sequence[str],
    fn: str,
    column: str | None = None,
    predicate: Predicate | None = None,
) -> list[Estimate]:
    """Inverse-inclusion-weighted estimates: each sampled row contributes
    1 / p_r to COUNT and value / p_r to SUM; AVG is their ratio."""
    pos = {c.name: i for i, c in enumerate(sample.schema)}
    kinds = {c.name: c.kind for c in sample.schema}
    for a in group_attrs:
        if a not in pos or kinds[a] != CATEGORICAL:
            raise IncompatibleGrouping(f"{a!r} is not a categorical column of the sample")
    col_pos = _column_position(sample.schema, column) if fn != COUNT else None
    matcher = predicate.row_matcher(sample.schema) if predicate else None
    group_attrs = tuple(group_attrs)

    groups: dict[GroupKey, dict] = {}
    for record, pr in zip(sample.rows, sample.p):
        if matcher is not None and not matcher(record):
            continue
        key = GroupKey(group_attrs, tuple(record[pos[a]] for a in group_attrs))
        g = groups.setdefault(key, {"sum": 0.0, "count": 0.0, "support": 0})
        w = 1.0 / pr
        g["count"] += w
        if col_pos is not None:
            g["sum"] += w * record[col_pos]
        g["support"] += 1
    out = []
    for key, g in groups.items():
        if fn == COUNT:
            value = g["count"]
        elif fn == SUM:
            value = g["sum"]
        else:
            value = g["sum"] / g["count"]
        out.append(Estimate(key, value, g["support"], False))
    return out


# ---------------------------------------------------------------------------
# exact answers


def exact_answer(
    rel: Relation,
    group_attrs: Sequence[str],
    column: str | None,
    fn: str,
    predicate: Predicate | None = None,
) -> dict[GroupKey, float]:
    """Exact per-group aggregates from the full relation.

    Groups with no matching rows are absent from the result.  Sums run in
    ascending row order so that a same-grouping full sample reproduces
    them bit for bit.
    """
    if fn not in (AVG, SUM, COUNT):
        raise InvalidArgument(f"unsupported aggregate {fn!r}")
    values = None
    if fn != COUNT:
        if column is None:
            raise InvalidArgument(f"{fn} requires a column")
        values = rel.numeric(column)
    mask = predicate.mask(rel) if predicate else None
    out: dict[GroupKey, float] = {}
    for key, rows in partition(rel, group_attrs).items():
        if mask is not None:
            rows = [r for r in rows if mask[r]]
        if not rows:
            continue
        if fn == COUNT:
            out[key] = float(len(rows))
        else:
            total = sum(float(values[r]) for r in rows)
            out[key] = total / len(rows) if fn == AVG else total
    return out


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class GroupScore:
    group: GroupKey
    exact: float
    estimate: float | None
    rel_error: float | None
    predicted_cv: float | None
    missing: bool


@dataclass
class EvaluationReport:
    request: QueryRequest
    scores: list[GroupScore]
    summary: dict
    cv_l2: float | None
    cv_linf: float | None
    missing_groups: int
    warnings: list[str] = field(default_factory=list)

    @property
    def errors(self) -> list[float]:
        return [s.rel_error for s in self.scores if s.rel_error is not None]


def evaluate(
    rel: Relation,
    sample: StratifiedSample | PoissonSample,
    request: QueryRequest,
    missing_policy: str = "score_one",
) -> EvaluationReport:
    """Score a sample's answers against exact answers from the relation.

    ``missing_policy`` is "score_one" (a truth group absent from the sample
    counts as relative error 1.0) or "exclude".
    """
    if missing_policy not in ("score_one", "exclude"):
        raise InvalidArgument(f"unknown missing policy {missing_policy!r}")
    exact = exact_answer(rel, request.group_attrs, request.column, request.fn, request.predicate)
    estimates = {e.group: e for e in estimate(sample, request)}
    predicted = _predicted_cvs(rel, sample, request)

    scores: list[GroupScore] = []
    warnings: list[str] = []
    missing_count = 0
    for key, truth in exact.items():
        cv = predicted.get(key)
        if truth == 0.0:
            warnings.append(f"ZeroTruth: group {key} has exact value 0, excluded")
            continue
        est = estimates.get(key)
        if est is None or est.missing or est.value is None:
            missing_count += 1
            if missing_policy == "score_one":
                scores.append(GroupScore(key, truth, None, 1.0, cv, True))
            continue
        err = abs(est.value - truth) / abs(truth)
        scores.append(GroupScore(key, truth, est.value, err, cv, False))

    errors = [s.rel_error for s in scores if s.rel_error is not None]
    if errors:
        arr = np.asarray(errors)
        summary = {
            "mean": float(arr.mean()),
            "max": float(arr.max()),
            "p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
            "p99": float(np.percentile(arr, 99)),
        }
    else:
        summary = {"mean": None, "max": None, "p50": None, "p90": None, "p99": None}
        warnings.append("NoScoredGroups: nothing to evaluate")

    cvs = [c for c in predicted.values() if c is not None and math.isfinite(c)]
    cv_l2 = math.sqrt(sum(c * c for c in cvs)) if cvs else None
    cv_linf = max(cvs) if cvs else None
    return EvaluationReport(
        request, scores, summary, cv_l2, cv_linf, missing_count, warnings
    )


def _predicted_cvs(rel, sample, request) -> dict[GroupKey, float | None]:
    """Predicted CVs of the AVG estimator per query group (predicate ignored)."""
    if request.column is None or not isinstance(sample, StratifiedSample):
        return {}
    catalog = compute_catalog(rel, sample.group_attrs, (request.column,))
    by_coarse: dict[GroupKey, list] = {}
    means: dict[GroupKey, object] = {}
    for stratum in sample.strata:
        st = catalog.entries.get(stratum.key)
        if st is None:
            continue
        coarse = stratum.key.project(request.group_attrs)
        s = st.per_column[request.column]
        by_coarse.setdefault(coarse, []).append((st.n, stratum.size, s.std))
    pooled = compute_catalog(rel, request.group_attrs, (request.column,))
    out: dict[GroupKey, float | None] = {}
    for coarse, parts in by_coarse.items():
        group_stats = pooled.entries.get(coarse)
        if group_stats is None:
            out[coarse] = None
            continue
        mu = group_stats.per_column[request.column].mean
        if mu == 0.0:
            out[coarse] = None
            continue
        try:
            out[coarse] = predicted_group_cv(parts, mu)
        except GbsampleError:
            out[coarse] = None
    return out


# ---------------------------------------------------------------------------
# report files


def report_to_json(report: EvaluationReport) -> str:
    doc = {
        "query": report.request.to_json(),
        "summary": report.summary,
        "cv_norms": {"l2": _jf(report.cv_l2), "linf": _jf(report.cv_linf)},
        "missing_groups": report.missing_groups,
        "groups": [
            {
                "key": list(s.group.values),
                "exact": s.exact,
                "estimate": s.estimate,
                "rel_error": s.rel_error,
                "predicted_cv": _jf(s.predicted_cv),
                "missing": s.missing,
            }
            for s in report.scores
        ],
        "warnings": report.warnings,
    }
    return json.dumps(doc, indent=2)


def report_to_csv(report: EvaluationReport) -> str:
    """One row per group: key values, then exact, estimate, rel_error,
    predicted_cv (empty when absent or infinite) and missing (0/1)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        list(report.request.group_attrs)
        + ["exact", "estimate", "rel_error", "predicted_cv", "missing"]
    )
    for s in report.scores:
        cv = s.predicted_cv
        writer.writerow(
            list(s.group.values)
            + [
                float(s.exact),
                "" if s.estimate is None else float(s.estimate),
                "" if s.rel_error is None else float(s.rel_error),
                "" if cv is None or not math.isfinite(cv) else float(cv),
                1 if s.missing else 0,
            ]
        )
    return out.getvalue()


def _jf(x):
    if x is None:
        return None
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "inf"
    return x


def estimates_to_json(estimates: list[Estimate], request: QueryRequest) -> str:
    doc = {
        "query": request.to_json(),
        "estimates": [
            {
                "key": list(e.group.values),
                "value": e.value,
                "support": e.support,
                "missing": e.missing,
            }
            for e in estimates
        ],
    }
    return json.dumps(doc, indent=2)
