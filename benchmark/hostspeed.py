"""A fixed reference kernel that tracks how fast the host runs right now.

The shared 2-vCPU host the benchmark was tuned on changes speed by up to a
third for tens of seconds at a time, so the median duration of the same
call moved by up to 39 % (quartile spread over the median) between 35 s
runs.  The benchmark runs :func:`reference_seconds` before every call into
gbsample and scales the times of the set-up calls and of the timed phase
each by ``REFERENCE_S`` over the kernel's median in that phase.  The program's own cost is unchanged by
this; only the host's drift between runs cancels.  In a trial of eight
35 s runs of ``build`` (with the kernel not yet warmed first) the spread
fell from 39 % to 10 %; over ten runs of
each workload in a calmer hour, from 9-12 % to 4-6 %.

The kernel mixes interpreter work (dict updates, string split and join)
with numpy work (sort, unique), as the program does.  It is the
benchmark's own code, so no change to gbsample can alter it.
"""

from __future__ import annotations

import time

import numpy as np

#: about the kernel's median duration on the host the benchmark was tuned on
REFERENCE_S = 0.001

_KEYS = [f"k{i}" for i in range(3000)]
_VALUES = np.random.default_rng(0).random(50_000)


def _kernel() -> None:
    counts: dict[str, int] = {}
    for i, key in enumerate(_KEYS):
        counts[key] = counts.get(key, 0) + i
    ",".join(_KEYS).split(",")
    np.sort(_VALUES)
    np.unique(_VALUES[:20_000])


def reference_seconds() -> float:
    """Duration of one run of the reference kernel.  A first, untimed run
    warms the caches, so that what the program did just before (and how
    much memory it touched) does not reach the time."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
