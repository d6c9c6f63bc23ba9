"""The BH step-up procedure, and refinement of an already-followed-up set
before computing r-values.

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

from .model import AnalysisConfig, ValidatedDataset

__all__ = ["bh_reject", "refine_for_replicability"]


def bh_reject(pvalues: Sequence[float], level: float, *,
              n: Optional[int] = None) -> np.ndarray:
    """Indices rejected by the BH step-up procedure at the given level:
    the k smallest p-values for the largest k with p_(k) <= k * level / n.
    Returns a sorted index array (possibly empty).

    ``n`` (default ``len(pvalues)``) is the number of hypotheses. The
    n - len(pvalues) not given are taken as p = 1, without being
    materialised, and only indices into ``pvalues`` are returned; the given
    p-values must then lie in [0, 1]. A padded 1 can pass only at the last
    step, when n * (level / n) >= 1, and then every hypothesis is rejected.
    Otherwise no value 1 passes, the given p-values fill the first sorted
    positions, and BH runs on them alone with denominator n.
    """
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
    # Only p <= len(p) * step can pass at any count. Those p-values fill the
    # first sorted positions, in the same stable order, so only they are
    # sorted.
    candidates = np.nonzero(p <= len(p) * step)[0]
    order = candidates[np.argsort(p[candidates], kind="stable")]
    passing = np.nonzero(p[order] <= np.arange(1, len(order) + 1) * step)[0]
    if len(passing) == 0:
        return np.zeros(0, dtype=int)
    k = int(passing[-1]) + 1
    return np.sort(order[:k])


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
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    return dataset.subset(bh_reject(dataset.p1, q, n=config.m))
