"""Comparator procedures: BH on the maximum of the two p-values, and
classical meta-analysis combiners for table completeness.

A meta-analysis p-value tests "no signal in either study" and is therefore
weaker evidence than replication; it is provided because results tables
customarily carry one, not as a substitute for r-values. The combined
column is labelled by its combiner (meta_p_fisher / meta_p_stouffer) to
avoid implying it matches any externally published meta-analysis, which may
have pooled more cohorts.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .model import AnalysisConfig, ValidatedDataset, _check_unit
from .normal import normal_quantile, normal_sf
from .selection import _bh_mask
# not called here: the perfbench tracer wraps it under this module's name
from .selection import bh_reject  # noqa: F401

__all__ = ["max_p_bh", "meta_p"]


def _max_p_bh_mask(p1: np.ndarray, p2: np.ndarray, config: AnalysisConfig,
                   q: float, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Which features BH claims at level q / (1 - l00) on max(p1, p2), with
    the maximum set to 1 for the m - R1 features that were not followed
    up; per row of ``rows`` as in :func:`repval.selection._bh_mask`, for
    the simulation's blocks of repetitions. The l00 inflation keeps the
    comparison with the r-value procedure fair."""
    return _bh_mask(np.maximum(p1, p2), q / (1.0 - config.l00), config.m,
                    rows)


def max_p_bh(dataset: ValidatedDataset, config: AnalysisConfig,
             q: float) -> frozenset[str]:
    """Ids of the features BH on max(p1, p2) claims at level q / (1 - l00);
    see :func:`_max_p_bh_mask`."""
    _check_unit("q", q)
    mask = _max_p_bh_mask(dataset.p1, dataset.p2, config, q)
    return frozenset(fid for fid, hit in zip(dataset.ids, mask) if hit)


def _chi2_sf_4(x: float) -> float:
    """Survival of chi-square with 4 degrees of freedom (Erlang-2), x >= 0."""
    return math.exp(-0.5 * x) * (1.0 + 0.5 * x)


def meta_p(p1, p2, combiner: str = "fisher"):
    """Two-study combined p-value, element by element: a float for two
    scalars, else a float64 array of their broadcast shape.

    fisher   -- chi-square(4) survival at -2 (ln p1 + ln p2)
    stouffer -- standard-normal survival of (z1 + z2)/sqrt(2),
                z = Phi^-1(1 - p)
    """
    a, b = np.broadcast_arrays(np.asarray(p1, dtype=float),
                               np.asarray(p2, dtype=float))
    if not ((0.0 < a) & (a <= 1.0) & (0.0 < b) & (b <= 1.0)).all():
        raise ValueError("meta_p needs p-values in (0, 1]")
    if combiner == "fisher":
        # math.log per element: the same bits for a row as for a table
        out = [min(1.0, _chi2_sf_4(-2.0 * (math.log(x) + math.log(y))))
               for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
        return out[0] if a.ndim == 0 else np.reshape(out, a.shape)
    if combiner == "stouffer":
        # Phi^-1(1-p) computed as -Phi^-1(p) to keep tiny p exact
        z1 = -normal_quantile(a)
        z2 = -normal_quantile(b)
        return normal_sf((z1 + z2) / math.sqrt(2.0))
    raise ValueError(f"unknown combiner {combiner!r}")
