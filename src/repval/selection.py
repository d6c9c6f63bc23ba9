"""The step-up rule, the BH procedure built on it, and refinement of an
already-followed-up set before computing r-values.

Every claim in the package, by BH, max-p BH or a step-up set, goes
through the one step-up rule, :func:`_step_up_caps`.

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


def _step_up_caps(table: np.ndarray, step: float) -> np.ndarray:
    """The step-up rule on each row of ``table``, sorted row by row and
    padded with inf: the cap x_(k), k the largest count with
    x_(k) <= k * step, or -inf when no count passes. The rule claims the
    row's x <= x_(k), its k smallest, since a tie with x_(k) would pass at
    k + 1. x_(k) is the largest of the passing entries."""
    rank = np.arange(1, table.shape[1] + 1)
    return table.max(axis=1, where=table <= rank * step, initial=-np.inf)


def _step_up_mask(x: np.ndarray, step: float,
                  rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Which x the step-up rule claims, per row of ``rows`` (nondecreasing
    row numbers; all one row when None). The rows are sorted as one
    table, padded with inf."""
    if rows is None:
        return x <= _step_up_caps(np.sort(x)[None], step)[0]
    counts = np.bincount(rows)
    table = np.full((len(counts), counts.max(initial=0)), np.inf)
    table[rows, np.arange(len(x)) - (np.cumsum(counts) - counts)[rows]] = x
    table.sort(axis=1)
    return x <= _step_up_caps(table, step)[rows]


def _bh_mask(p: np.ndarray, level: float, n: int,
             rows: Optional[np.ndarray] = None) -> np.ndarray:
    """bh_reject(p[rows == i], level, n=n) for every row i, as one mask
    (all of p one row when ``rows`` is None), for p in [0, 1]: the entries
    missing from a row of n are p = 1, and then all of them pass at the
    last step or none of them does."""
    step = level / n
    if n * step >= 1.0:  # every p <= 1 passes at count n
        return np.ones(len(p), dtype=bool)
    return _step_up_mask(p, step, rows)


def bh_reject(pvalues: Sequence[float], level: float, *,
              n: Optional[int] = None) -> np.ndarray:
    """Indices rejected by the BH step-up procedure at the given level:
    the k smallest p-values for the largest k with p_(k) <= k * level / n.
    Returns a sorted index array (possibly empty). The rule itself is
    :func:`_step_up_caps`, which every claim in the package goes through.

    ``n`` (default ``len(pvalues)``) is the number of hypotheses. The
    n - len(pvalues) not given are taken as p = 1, without being
    materialised, and only indices into ``pvalues`` are returned; the given
    p-values must then lie in [0, 1]. A padded 1 can pass only at the last
    step, when n * (level / n) >= 1, and then every hypothesis is rejected.
    Otherwise no value 1 passes, the given p-values fill the first sorted
    positions, and BH runs on them alone with denominator n.

    ``level`` must be positive and finite (:class:`ValueError` otherwise);
    a level of 1 or more is valid.
    """
    if not 0.0 < level < np.inf:
        raise ValueError(f"level must be positive and finite, got {level!r}")
    p = np.asarray(pvalues, dtype=float)
    if n is None:
        n = len(p)
    if n < len(p):
        raise ValueError(f"n={n} is below the {len(p)} p-values given")
    if n == 0:
        return np.zeros(0, dtype=int)
    step = level / n
    if n > len(p) and n * step >= 1.0:
        return np.arange(len(p))
    # Only p <= len(p) * step can pass at any count, so only their indices
    # are kept and only they are sorted.
    candidates = np.flatnonzero(p <= len(p) * step)
    return candidates[_step_up_mask(p[candidates], step)]


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
