"""Answer group-by queries from samples and score them against exact answers.

Every answer here is one weighted group-by sum.  Estimation from a
stratified sample expands each stratum's matching rows by the factor
n_c / s_c (population over sample size):

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
(inverse inclusion probability, Horvitz-Thompson); the exact answer
weights every row of the relation by 1.

Predicates are conjunctions of atoms.  An atom on a categorical column
takes only ``=`` or ``!=``; an atom on a numeric column needs real-number
operands.  :meth:`Predicate.mask` is the one evaluator: samples apply it to
a view of the columns a request touches, so a relation and either kind of
sample reject the same atoms with :class:`InvalidArgument`.

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
from typing import Sequence

import numpy as np

from .alloc import predicted_group_cv
from .dataset import (
    CATEGORICAL,
    ColumnSchema,
    GroupKey,
    Relation,
    number_keys,
    stratum_ids,
)
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
                if atom.op in _NUMERIC_OPS:
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


@dataclass
class Estimate:
    group: GroupKey
    value: float | None
    support: int
    missing: bool


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
# the aggregation kernel


def _group_by(fn, cells, values, keep, factor, group_of_cell, n_groups):
    """AVG, SUM or COUNT per group, with the expanded row count and the
    support, over the rows ``keep`` selects.

    Row r lies in cell ``cells[r]`` and cell c in group ``group_of_cell[c]``;
    cell c expands each of its rows by ``factor[c]``.  With m_c the kept rows
    of cell c, SUM_g = sum_c f_c * (sum of x over them), COUNT_g =
    sum_c f_c * m_c and AVG_g = SUM_g / COUNT_g (NaN where COUNT_g is 0).
    ``np.bincount`` adds in index order, rows in row order within a cell and
    then cells in cell order within a group, so a full sample of one
    stratum per group reproduces the exact answer bit for bit.
    """
    cells = cells[keep]
    rows = np.bincount(cells, minlength=len(factor))
    count = np.bincount(group_of_cell, factor * rows, n_groups)
    support = np.bincount(group_of_cell[cells], minlength=n_groups)
    if fn == COUNT:
        return count, count, support
    cell_sums = np.bincount(cells, values[keep], len(factor))
    total = np.bincount(group_of_cell, factor * cell_sums, n_groups)
    if fn == SUM:
        return total, count, support
    avg = np.divide(total, count, out=np.full(n_groups, np.nan), where=count > 0)
    return avg, count, support


def _inputs(rel: Relation, request: QueryRequest):
    """The aggregated column (None for COUNT) and the predicate's row mask
    (a full slice when there is none)."""
    values = rel.numeric(request.column) if request.fn != COUNT else None
    predicate = request.predicate
    if predicate is None or not predicate.atoms:
        return values, slice(None)
    return values, predicate.mask(rel)


def _view(
    schema: Sequence[ColumnSchema], records: list[tuple], request: QueryRequest
) -> Relation:
    """The columns of ``records`` that ``request`` aggregates or filters on."""
    names = {a.column for a in request.predicate.atoms} if request.predicate else set()
    if request.fn != COUNT:
        names.add(request.column)
    touched = [(i, c) for i, c in enumerate(schema) if c.name in names]
    return Relation(
        [c for _, c in touched], {c.name: [r[i] for r in records] for i, c in touched}
    )


def _key_ids(records: Sequence[tuple], positions: Sequence[int]):
    """First-occurrence ids of the value tuples ``records`` hold at
    ``positions``, and those tuples in id order."""
    columns = [[r[i] for r in records] for i in positions]
    keys = zip(*columns) if columns else (() for _ in records)
    return number_keys(keys, len(records))


# ---------------------------------------------------------------------------
# estimation


def estimate(sample, request: QueryRequest) -> list[Estimate]:
    """Answer a query request from a stratified or Poisson sample.

    Groups come in first-occurrence order: of the strata for a stratified
    sample (every group, missing ones flagged), of the matching rows for a
    Poisson sample (only groups with a matching row).
    """
    if isinstance(sample, PoissonSample):
        return _estimate_poisson(sample, request)
    attrs = tuple(request.group_attrs)
    if not set(attrs) <= set(sample.group_attrs):
        raise IncompatibleGrouping(
            f"grouping {attrs} is not a subset of the sample's "
            f"stratification {sample.group_attrs}"
        )
    strata = sample.strata
    group_of_cell, keys = _key_ids(
        [s.key.values for s in strata], [sample.group_attrs.index(a) for a in attrs]
    )
    n = np.array([s.n for s in strata], dtype=np.float64)
    size = np.array([s.size for s in strata], dtype=np.float64)
    factor = np.divide(n, size, out=np.zeros(len(strata)), where=size > 0)
    held = np.fromiter((len(s.rows) for s in strata), dtype=np.intp, count=len(strata))
    cells = np.repeat(np.arange(len(strata)), held)
    view = _view(sample.schema, [r for s in strata for r in s.rows], request)
    value, count, support = _group_by(
        request.fn, cells, *_inputs(view, request), factor, group_of_cell, len(keys)
    )
    if request.fn == AVG:
        present = count > 0
    else:  # SUM and COUNT are missing only where no member stratum holds a row
        present = np.bincount(group_of_cell, size > 0, len(keys)) > 0
    out = []
    for key, v, m, ok in zip(keys, value.tolist(), support.tolist(), present.tolist()):
        key = GroupKey(attrs, key)
        out.append(Estimate(key, v, m, False) if ok else Estimate(key, None, 0, True))
    return out


def _estimate_poisson(sample: PoissonSample, request: QueryRequest) -> list[Estimate]:
    """Inverse-inclusion-weighted estimates: each sampled row contributes
    1 / p_r to COUNT and value / p_r to SUM; AVG is their ratio."""
    attrs = tuple(request.group_attrs)
    pos = {c.name: i for i, c in enumerate(sample.schema) if c.kind == CATEGORICAL}
    for a in attrs:
        if a not in pos:
            raise IncompatibleGrouping(
                f"{a!r} is not a categorical column of the sample"
            )
    values, keep = _inputs(_view(sample.schema, sample.rows, request), request)
    ids, keys = _key_ids(sample.rows, [pos[a] for a in attrs])
    weight = 1.0 / np.asarray(sample.p, dtype=np.float64)
    value, _, support = _group_by(
        request.fn, np.arange(len(ids)), values, keep, weight, ids, len(keys)
    )
    seen, first = np.unique(ids[keep], return_index=True)
    value, support = value.tolist(), support.tolist()
    return [
        Estimate(GroupKey(attrs, keys[g]), value[g], support[g], False)
        for g in seen[np.argsort(first)].tolist()
    ]


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

    Groups with no matching rows are absent from the result; the others
    come in first-occurrence order.  Sums run in ascending row order so
    that a same-grouping full sample reproduces them bit for bit.
    """
    request = QueryRequest(tuple(group_attrs), fn, column, predicate)
    values, keep = _inputs(rel, request)
    ids, keys = stratum_ids(rel, request.group_attrs)
    value, _, support = _group_by(
        fn, np.arange(rel.n_rows), values, keep, np.ones(rel.n_rows), ids, len(keys)
    )
    return {
        GroupKey(request.group_attrs, key): v
        for key, v, m in zip(keys, value.tolist(), support.tolist())
        if m
    }


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
