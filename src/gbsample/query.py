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
weights every row of the relation by 1.  The expansion factors, n_c / s_c
per stratum (:attr:`StratifiedSample.expansion`) or 1 / p_r per row
(:attr:`PoissonSample.expansion`), the stratum of every stratified row
(:attr:`StratifiedSample.row_strata`) and which strata hold a row
(:attr:`StratifiedSample.held`) are computed once per sample and kept.

Each path has its own group order: a stratified estimate answers every
group, in first-occurrence order of the strata; a Poisson estimate answers
the groups with a kept row, ordered by their first kept row (with a
predicate, :func:`dataset.first_occurrence_ids` of the kept rows' groups);
an exact answer holds the groups with a matching row, in the relation's
first-occurrence order.

Both estimation and the exact answer return an :class:`Answer`: the
groups' value tuples ``keys`` and, aligned with them, float64 ``value``
(NaN exactly where the group is missing), int64 ``support`` (matching
sampled rows) and a bool ``missing`` mask.  No per-group object is built
to answer a request.  Iterating an answer yields the per-group
:class:`Estimate` records (``value`` None where missing), built on demand,
and :func:`dataset.key_relation` turns ``attrs`` and ``keys`` into an
encoded relation for a caller that wants one.

Predicates are conjunctions of atoms.  An atom on a categorical column
takes only ``=`` or ``!=``; an atom on a numeric column needs finite
real-number operands, and in a document every operand is a string or a
finite number.  :meth:`Predicate.mask` is the one evaluator, and
:meth:`Relation.strata` the one group numbering: both run on a relation,
whether the full one or a sample's encoded columns, so a relation and
either kind of sample reject the same atoms with :class:`InvalidArgument`
and number their groups the same way.  A relation keeps each grouping's
strata, so answering many requests from one sample, or evaluating a
sample against the relation it was drawn from, stratifies each grouping
once.

Evaluation scores per-group relative error |estimate - exact| / |exact|
against the exact answers computed from the full relation; groups present
in the truth but missing from the sample score 1.0 by default.  Reported
predicted-CV norms always describe the AVG estimator of the queried
column, whatever the aggregate, and ignore the predicate (they measure
plan quality, not a per-predicate guarantee).  They read each sample
stratum's population and std from :func:`stats.compute_catalog` of the
relation on the sample's grouping, and each query group's mean from its
catalog on the query's grouping (one catalog when the two are equal), and
:func:`alloc.predicted_group_cvs` combines them for all groups at once.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .alloc import json_float, ordered_sum, predicted_group_cvs
from .dataset import (
    CATEGORICAL,
    GroupKey,
    Relation,
    csv_writer,
    first_occurrence_ids,
    key_relation,
    stratum_ids,
)
from .errors import (
    LIST,
    NUMBER,
    STRING,
    STRINGS,
    IncompatibleGrouping,
    InvalidArgument,
    UnknownColumn,
    expect,
    finite,
    member,
)
from .sampler import PoissonSample, StratifiedSample
from .stats import compute_catalog

AVG = "avg"
SUM = "sum"
COUNT = "count"
#: the ``missing_policy`` values of :func:`evaluate`
MISSING_POLICIES = ("score_one", "exclude")

_COMPARISONS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_NUMERIC_OPS = {"<", "<=", ">", ">=", "between"}
_ALL_OPS = set(_COMPARISONS) | {"between"}
_OPERAND = (lambda v: STRING[0](v) or NUMBER[0](v)), "a string or a finite number"


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
                # compare each distinct value once, then look rows up by code
                codes, levels = rel.encoded(atom.column)
                equal = [v == atom.value for v in levels]
                hit = np.array(equal, dtype=bool)[codes]
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
    def from_json(
        cls, doc, source: str = "predicate", path: str = "predicate"
    ) -> "Predicate":
        """Parse a list of atoms; ``source`` and ``path`` name the document
        and the field in errors."""
        atoms = []
        for i, item in enumerate(expect(source, doc, path, LIST[0], "a list of atoms")):
            get = partial(member, source, item, f"{path}[{i}]")
            op, column = get("op", *STRING), get("column", *STRING)
            if op == "between":
                lo, hi = get("lo", *NUMBER), get("hi", *NUMBER)
                atoms.append(Atom(column, op, lo=float(lo), hi=float(hi)))
            else:
                atoms.append(Atom(column, op, value=get("value", *_OPERAND)))
        return cls(tuple(atoms))


def _check_number(atom: Atom) -> None:
    """A numeric column compares only with finite real numbers (bool
    excluded)."""
    operands = (atom.lo, atom.hi) if atom.op == "between" else (atom.value,)
    for v in operands:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not finite(v):
            raise InvalidArgument(
                f"column {atom.column!r} is numeric; operator {atom.op!r} "
                f"needs a finite number, got {v!r}"
            )


def _numeric_test(atom: Atom, col: np.ndarray) -> np.ndarray:
    if atom.op == "between":
        return (col >= atom.lo) & (col <= atom.hi)
    return _COMPARISONS[atom.op](col, atom.value)


@dataclass
class Estimate:
    """One group of an :class:`Answer` as an object."""

    group: GroupKey
    value: float | None
    support: int
    missing: bool


@dataclass(frozen=True, eq=False)
class Answer:
    """Per-group answers to one query as arrays aligned with ``keys``, the
    groups' value tuples under ``attrs``: float64 ``value`` (NaN exactly
    where ``missing``), int64 ``support`` and bool ``missing``, all
    read-only."""

    attrs: tuple[str, ...]
    keys: tuple[tuple, ...]
    value: np.ndarray
    support: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        # np.bincount counts in integers when it has nothing to add
        for name, dtype in (("value", np.float64), ("support", np.int64), ("missing", bool)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        """The groups as :class:`Estimate` records, in order."""
        attrs = self.attrs
        return iter([
            Estimate(GroupKey(attrs, key), None if miss else v, m, miss)
            for key, v, m, miss in zip(
                self.keys, self.value.tolist(), self.support.tolist(), self.missing.tolist()
            )
        ])


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
    def from_json(cls, doc, source: str = "query") -> "QueryRequest":
        """Parse a query document; ``source`` names it in errors."""
        group_attrs = tuple(member(source, doc, "", "group_by", *STRINGS))
        aggregate = member(source, doc, "", "aggregate")
        pred = doc.get("predicate")
        return cls(
            group_attrs=group_attrs,
            fn=member(source, aggregate, "aggregate", "fn"),
            column=aggregate.get("column"),
            predicate=Predicate.from_json(pred, source) if pred else None,
        )


# ---------------------------------------------------------------------------
# the aggregation kernel


def _group_by(fn, cells, values, keep, factor, group_of_cell, n_groups):
    """AVG, SUM or COUNT per group, with the expanded row count and the
    support, over the rows the bool mask ``keep`` selects (all when None).

    Row r lies in cell ``cells[r]`` and cell c in group ``group_of_cell[c]``;
    when ``cells`` is None each row is its own cell, as in an exact answer
    or a Poisson estimate.  Cell c expands each of its rows by ``factor[c]``
    (by 1 when ``factor`` is None).  With m_c the kept rows of cell c,
    SUM_g = sum_c f_c * (sum of x over them), COUNT_g = sum_c f_c * m_c and
    AVG_g = SUM_g / COUNT_g (NaN where COUNT_g is 0).

    ``keep`` weighs rows instead of gathering them: a dropped row adds 0 to
    its cell's count and +0.0 to its cell's sum.  ``np.bincount`` adds in
    index order starting from +0.0, and in round-to-nearest such a sum is
    never -0.0, so an added +0.0 changes nothing.  Values are masked before
    they are expanded, so a dropped inf or NaN enters no sum and a dropped
    row's product cannot overflow.  Rows add in row order within a cell and
    then cells in cell order within a group, so a full sample of one stratum
    per group reproduces the exact answer bit for bit.
    """
    rows = keep if cells is None else np.bincount(cells, keep, len(group_of_cell))
    support = np.bincount(group_of_cell, rows, n_groups).astype(np.int64)
    if factor is None:
        count = support
    else:
        count = np.bincount(group_of_cell, factor if rows is None else factor * rows, n_groups)
    if fn == COUNT:
        return count, count, support
    sums = values if keep is None else np.where(keep, values, 0.0)
    if cells is not None:
        sums = np.bincount(cells, sums, len(group_of_cell))
    total = np.bincount(group_of_cell, sums if factor is None else factor * sums, n_groups)
    if fn == SUM:
        return total, count, support
    avg = np.divide(total, count, out=np.full(n_groups, np.nan), where=count > 0)
    return avg, count, support


def _inputs(rel: Relation, request: QueryRequest):
    """The aggregated column (None for COUNT) and the predicate's row mask
    (None when there is none)."""
    values = rel.numeric(request.column) if request.fn != COUNT else None
    predicate = request.predicate
    if predicate is None or not predicate.atoms:
        return values, None
    return values, predicate.mask(rel)


# ---------------------------------------------------------------------------
# estimation


def estimate(sample, request: QueryRequest) -> Answer:
    """Answer a query request from a stratified or Poisson sample.

    A stratified sample answers every group, in first-occurrence order of
    the strata, missing ones flagged; a Poisson sample answers the groups
    with a matching row, in order of their first matching row.
    """
    if isinstance(sample, PoissonSample):
        return _estimate_poisson(sample, request)
    attrs = tuple(request.group_attrs)
    if not set(attrs) <= set(sample.group_attrs):
        raise IncompatibleGrouping(
            f"grouping {attrs} is not a subset of the sample's "
            f"stratification {sample.group_attrs}"
        )
    group_of_cell, keys, _, _ = sample.key_columns.strata(attrs)
    value, count, support = _group_by(
        request.fn,
        sample.row_strata,
        *_inputs(sample.columns, request),
        sample.expansion,
        group_of_cell,
        len(keys),
    )
    if request.fn == AVG:
        missing = count == 0
    else:  # SUM and COUNT are missing only where no member stratum holds a row
        missing = np.bincount(group_of_cell, sample.held, len(keys)) == 0
    return Answer(attrs, keys, np.where(missing, np.nan, value), support, missing)


def _estimate_poisson(sample: PoissonSample, request: QueryRequest) -> Answer:
    """Inverse-inclusion-weighted estimates: each sampled row contributes
    1 / p_r to COUNT and value / p_r to SUM; AVG is their ratio."""
    attrs = tuple(request.group_attrs)
    for a in attrs:
        if sample.columns.kind_of(a) != CATEGORICAL:
            raise IncompatibleGrouping(
                f"{a!r} is not a categorical column of the sample"
            )
    values, keep = _inputs(sample.columns, request)
    ids, keys, _, _ = sample.columns.strata(attrs)
    value, _, support = _group_by(request.fn, None, values, keep, sample.expansion, ids, len(keys))
    if keep is None:  # every group is kept, in first-occurrence order
        groups = np.flatnonzero(support)
    else:  # the groups of the kept rows, in order of their first kept row
        kept = ids[keep]
        groups = kept[first_occurrence_ids(kept)[1]]
    return _matched(attrs, keys, value, support, groups)


def _matched(attrs, keys, value, support, groups: np.ndarray) -> Answer:
    """The answer of the groups ``groups`` (each with a matching row), in
    that order."""
    if np.array_equal(groups, np.arange(len(keys))):
        gathered = keys
    else:
        gathered = tuple(map(keys.__getitem__, groups.tolist()))
    return Answer(
        attrs,
        gathered,
        value[groups],
        support[groups],
        np.zeros(len(groups), dtype=bool),
    )


# ---------------------------------------------------------------------------
# exact answers


def exact_answer(
    rel: Relation,
    group_attrs: Sequence[str],
    column: str | None,
    fn: str,
    predicate: Predicate | None = None,
) -> Answer:
    """Exact per-group aggregates from the full relation.

    Groups with no matching rows are absent from the result, so no group
    is missing; the others come in first-occurrence order.  Sums run in
    ascending row order so that a same-grouping full sample reproduces
    them bit for bit.
    """
    request = QueryRequest(tuple(group_attrs), fn, column, predicate)
    values, keep = _inputs(rel, request)
    ids, keys, _, _ = rel.strata(request.group_attrs)
    value, _, support = _group_by(fn, None, values, keep, None, ids, len(keys))
    return _matched(request.group_attrs, keys, value, support, np.flatnonzero(support))


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class GroupScore:
    """One scored group: ``key`` is its value tuple under the request's
    grouping."""

    key: tuple
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
    if missing_policy not in MISSING_POLICIES:
        raise InvalidArgument(f"unknown missing policy {missing_policy!r}")
    exact = exact_answer(rel, request.group_attrs, request.column, request.fn, request.predicate)
    answer = estimate(sample, request)
    predicted = _predicted_cvs(rel, sample, request)

    # the estimated groups by value tuple; a missing one joins as absent
    found = {
        key: v
        for key, v, miss in zip(answer.keys, answer.value.tolist(), answer.missing.tolist())
        if not miss
    }
    scores: list[GroupScore] = []
    warnings: list[str] = []
    missing_count = 0
    for key, truth in zip(exact.keys, exact.value.tolist()):
        cv = predicted.get(key)
        if truth == 0.0:
            group = GroupKey(exact.attrs, key)
            warnings.append(f"ZeroTruth: group {group} has exact value 0, excluded")
            continue
        est = found.get(key)
        if est is None:
            missing_count += 1
            if missing_policy == "score_one":
                scores.append(GroupScore(key, truth, None, 1.0, cv, True))
            continue
        err = abs(est - truth) / abs(truth)
        scores.append(GroupScore(key, truth, est, err, cv, False))

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
    cv_l2 = math.sqrt(ordered_sum([c * c for c in cvs])) if cvs else None
    cv_linf = max(cvs) if cvs else None
    return EvaluationReport(
        request, scores, summary, cv_l2, cv_linf, missing_count, warnings
    )


def _predicted_cvs(rel, sample, request) -> dict[tuple, float | None]:
    """Predicted CVs of the AVG estimator per query group (predicate
    ignored), keyed by value tuple in the order of each group's first
    sample stratum that the relation holds."""
    if request.column is None or not isinstance(sample, StratifiedSample):
        return {}
    attrs, col = tuple(request.group_attrs), request.column
    fine = compute_catalog(rel, sample.group_attrs, (col,))
    groups = compute_catalog(rel, attrs, (col,))
    # the relation's strata, then the sample's, as the rows of one key
    # relation: numbered by first occurrence, a sample stratum the relation
    # holds gets its number in ``fine`` and its group its number in ``groups``
    both = key_relation(sample.group_attrs, [*fine.keys, *sample.keys])
    stratum = stratum_ids(both, sample.group_attrs)[0][len(fine):]
    held = stratum < len(fine)
    k = stratum[held]
    coarse = stratum_ids(both, attrs)[0][len(fine):][held]
    group, first = first_occurrence_ids(coarse)
    g = coarse[first]
    mean = groups.mean[col][g]
    cvs = predicted_group_cvs(fine.n[k], sample.size[held], fine.std[col][k], group, mean)
    return dict(zip([groups.keys[i] for i in g.tolist()], cvs))


# ---------------------------------------------------------------------------
# report files


def report_to_json(report: EvaluationReport) -> str:
    doc = {
        "query": report.request.to_json(),
        "summary": report.summary,
        "cv_norms": {"l2": json_float(report.cv_l2), "linf": json_float(report.cv_linf)},
        "missing_groups": report.missing_groups,
        "groups": [
            {
                "key": list(s.key),
                "exact": s.exact,
                "estimate": s.estimate,
                "rel_error": s.rel_error,
                "predicted_cv": json_float(s.predicted_cv),
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
    writer = csv_writer(out)
    writer.writerow(
        list(report.request.group_attrs)
        + ["exact", "estimate", "rel_error", "predicted_cv", "missing"]
    )
    for s in report.scores:
        cv = s.predicted_cv
        writer.writerow(
            list(s.key)
            + [
                float(s.exact),
                "" if s.estimate is None else float(s.estimate),
                "" if s.rel_error is None else float(s.rel_error),
                "" if cv is None or not math.isfinite(cv) else float(cv),
                1 if s.missing else 0,
            ]
        )
    return out.getvalue()


def estimates_to_json(answer: Answer, request: QueryRequest) -> str:
    doc = {
        "query": request.to_json(),
        "estimates": [
            {"key": list(key), "value": None if miss else v, "support": m, "missing": miss}
            for key, v, m, miss in zip(
                answer.keys,
                answer.value.tolist(),
                answer.support.tolist(),
                answer.missing.tolist(),
            )
        ],
    }
    return json.dumps(doc, indent=2)
