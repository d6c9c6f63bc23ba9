"""The step-up rule, the BH procedure built on it, and refinement of an
already-followed-up set before computing r-values.

Every claim in the package, by BH, max-p BH or a step-up set, goes
through the one step-up rule, :func:`_step_up_mask`. BH is
:func:`_bh_mask`, and :func:`bh_reject` is its index view of one row.

The r-values of :mod:`repval.rvalue` assume the follow-up set was chosen by
a *stable* selection rule: changing one selected feature's primary p-value,
in any way that keeps it selected, leaves the selected set as a whole
unchanged. BH at a fixed level qualifies, and it is the rule used here to
refine a follow-up set (:func:`refine_for_replicability`) and to select in
the simulation harness; adaptive rules do not qualify.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .model import AnalysisConfig, ValidatedDataset, _check_unit

__all__ = ["bh_reject", "refine_for_replicability"]


def _step_up_mask(x: np.ndarray, step: float,
                  rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The step-up rule: per row of ``rows`` (nondecreasing row numbers;
    all one row when None), the x at most the cap x_(k), k the largest
    count with x_(k) <= k * step: the row's k smallest, since a tie with
    x_(k) would pass at k + 1. The rows are sorted as one table, padded
    with inf; x_(k) is the largest passing entry, -inf when none passes."""
    if rows is None:
        rows = np.zeros(len(x), dtype=np.intp)
    counts = np.bincount(rows)
    table = np.full((len(counts), counts.max(initial=0)), np.inf)
    table[rows, np.arange(len(x)) - (np.cumsum(counts) - counts)[rows]] = x
    table.sort(axis=1)
    rank = np.arange(1, table.shape[1] + 1)
    caps = table.max(axis=1, where=table <= rank * step, initial=-np.inf)
    return x <= caps[rows]


def _bh_mask(p: np.ndarray, level: float, n: int,
             rows: Optional[np.ndarray] = None) -> np.ndarray:
    """BH at ``level`` among n hypotheses, per row of ``rows`` as in
    :func:`_step_up_mask`, for p in [0, 1]: the k smallest p of a row for
    the largest k with p_(k) <= k * level / n. The entries missing from a
    row of n are p = 1, never materialised: they pass only at the last
    step, when n * (level / n) >= 1, and then so does every p. Otherwise
    no 1 passes and the step-up rule runs on the row alone."""
    step = level / n
    if n * step >= 1.0:  # every p <= 1 passes at count n
        return np.ones(len(p), dtype=bool)
    return _step_up_mask(p, step, rows)


def bh_reject(pvalues: Sequence[float], level: float, *,
              n: Optional[int] = None) -> np.ndarray:
    """Indices BH at the given level rejects, as a sorted array (possibly
    empty): :func:`_bh_mask` on one row. ``n`` (default ``len(pvalues)``)
    is the number of hypotheses; the n - len(pvalues) not given are taken
    as p = 1.

    ``level`` must be positive and finite (1 or more is valid), and every
    p-value in [0, 1], for every ``n``; :class:`ValueError` otherwise,
    naming the first p-value outside, NaN included.
    """
    if not 0.0 < level < np.inf:
        raise ValueError(f"level must be positive and finite, got {level!r}")
    p = np.asarray(pvalues, dtype=float)
    outside = np.flatnonzero(~((0.0 <= p) & (p <= 1.0)))
    if len(outside):
        raise ValueError(f"p-value {float(p[outside[0]])!r} at index "
                         f"{outside[0]} is not in [0, 1]")
    if n is None:
        n = len(p)
    if n < len(p):
        raise ValueError(f"n={n} is below the {len(p)} p-values given")
    if n == 0:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(_bh_mask(p, level, n))


def refine_for_replicability(dataset: ValidatedDataset,
                             config: AnalysisConfig,
                             q: float) -> ValidatedDataset:
    """Shrink the followed-up set to the features a BH pass at level q on
    the primary p-values would reject, before computing r-values at level q.

    Fewer selected features means a smaller multiplicity burden on the
    follow-up side, so r-values computed on the refined set are no larger;
    the suite checks that nothing significant at q is lost.

    The primary p-values of the m - R1 features that were not followed up
    are unavailable in a follow-up table and are taken as 1 (BH with
    n = m). That can only shrink the refined set, so it is conservative for
    this screening step.
    """
    _check_unit("q", q)
    return dataset.subset(bh_reject(dataset.p1, q, n=config.m))
