"""Comparison allocators: proportional, equal-split and their max-hybrid.

All three share the :class:`~gbsample.alloc.AllocationPlan` contract, so
the sampler and the evaluation pipeline treat them interchangeably with
the CV-driven allocators.  None of them looks at variances, which is
exactly the weakness the CV-driven allocators address: two groups with
equal sizes and means but very different spreads receive identical
budgets here.

The equal split is :func:`~gbsample.alloc.resolve_caps` at unit costs.
Proportional shares are computed in float64, as an int64 ``budget * caps``
wraps near the int64 limit; below 2**53 both agree wherever it does not.
Every allocator rounds by largest remainder (:func:`_round`), and a
budget below one row raises :class:`~gbsample.errors.InvalidArgument`.
"""

from __future__ import annotations

import numpy as np

from .alloc import AllocationPlan, check_budget, resolve_caps
from .stats import StatsCatalog

UNIFORM = "uniform"
SENATE = "senate"
CONGRESS = "congress"


def _round(fractional, caps, budget):
    """Largest-remainder rounding under per-stratum caps.

    The result sums to min(budget, sum(caps)) and never exceeds a cap;
    fractional mass above a cap is redistributed proportionally among the
    uncapped strata, and each open stratum then takes at most one leftover
    row, by largest remainder with ties in stratum order.  Strata may round
    to zero rows, which a warning reports.
    """
    shares = np.asarray(fractional, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.int64)
    r = shares.size
    target = int(min(budget, int(caps.sum())))
    frozen = np.zeros(r, dtype=bool)
    scaled = shares.copy()
    while True:
        remaining = target - int(caps[frozen].sum())
        active = ~frozen
        mass = scaled[active].sum()
        if mass <= 0:
            scaled[active] = remaining / max(active.sum(), 1)
        else:
            scaled[active] = scaled[active] * (remaining / mass)
        over = active & (scaled > caps)
        if not over.any():
            break
        frozen |= over
    scaled[frozen] = caps[frozen]

    sizes = np.floor(scaled).astype(np.int64)
    sizes[frozen] = caps[frozen]
    leftover = target - int(sizes.sum())
    if leftover > 0:
        remainders = scaled - np.floor(scaled)
        order = np.lexsort((np.arange(r), -remainders))
        open_ = ~frozen & (sizes < caps)
        sizes[order[open_[order]][:leftover]] += 1
    missing = int((sizes == 0).sum())
    warnings = [f"MissingGroups: {missing} strata rounded to zero rows"] if missing else []
    return sizes, warnings


def _plan(method, catalog, budget, shares):
    """The plan of ``method`` with the fractional sizes ``shares(caps,
    budget)`` of the catalog's populations, rounded by :func:`_round`."""
    check_budget(budget)
    caps = np.array(catalog.n)
    fractional = shares(caps, budget)
    sizes, warnings = _round(fractional, caps, budget)
    return AllocationPlan(
        method=method,
        group_attrs=catalog.group_attrs,
        keys=tuple(catalog.group_keys()),
        populations=caps,
        fractional=fractional,
        sizes=sizes,
        budget=budget,
        capped=fractional >= caps,
        costs=None,
        warnings=warnings,
    )


def _house(caps, budget):
    return np.minimum(float(budget) * caps / caps.sum(), caps)


def _senate(caps, budget):
    return resolve_caps(np.ones(caps.size), caps, budget)[0]


def _congress(caps, budget):
    total = caps.sum()
    raw = np.maximum(float(budget) * caps / total, _senate(caps, budget))
    # the rescale may round a share at its cap to just above it
    return np.minimum(raw * (min(budget, int(total)) / raw.sum()), caps)


def alloc_uniform(catalog: StatsCatalog, budget: int) -> AllocationPlan:
    """Proportional-to-size allocation (what a plain uniform row sample
    yields in expectation).  Small groups may round to zero rows."""
    return _plan(UNIFORM, catalog, budget, _house)


def alloc_senate(catalog: StatsCatalog, budget: int) -> AllocationPlan:
    """Equal budget per stratum regardless of size or spread."""
    return _plan(SENATE, catalog, budget, _senate)


def alloc_congress(catalog: StatsCatalog, budget: int) -> AllocationPlan:
    """Hybrid of the proportional and equal-split allocations.

    Each stratum's raw share is the larger of its proportional share and
    its (cap-respecting) equal share; raw shares are rescaled to the
    budget and clipped at the populations with proportional
    redistribution.
    """
    return _plan(CONGRESS, catalog, budget, _congress)


#: the comparison allocators by method name
ALLOCATORS = {UNIFORM: alloc_uniform, SENATE: alloc_senate, CONGRESS: alloc_congress}
