"""Bonferroni-based FWER r-values.

The FWER r-value is the lowest family-wise error level at which a feature
can be called replicated. It is the smallest x in (0, 1) with f(x) <= x for

    f_j(x) = max(m * p1_j / c1(x),  R1 * p2_j / c2),
    c1(x) = (1 - c2) / (1 - l00 * (1 - c2 * x)),

and 1 when no such x exists. The primary branch m * p1_j / c1(x) is affine
in x, a + b x with a = m p1_j (1 - l00) / (1 - c2) and
b = m p1_j l00 c2 / (1 - c2), so the r-value has the closed form
max(R1 p2_j / c2, a / (1 - b)) when b < 1, capped at 1.
"""

from __future__ import annotations

import numpy as np

from .model import AnalysisConfig, Method, RValueReport, ValidatedDataset

__all__ = ["bonferroni_rvalues_all"]


def bonferroni_rvalues_all(dataset: ValidatedDataset,
                           config: AnalysisConfig) -> RValueReport:
    """FWER r-values for every followed-up feature."""
    follow = len(dataset) * dataset.p2 / config.c2
    scale = config.m * dataset.p1 / (1.0 - config.c2)
    slope = scale * config.l00 * config.c2
    with np.errstate(divide="ignore"):
        primary = np.where(slope < 1.0,
                           scale * (1.0 - config.l00) / (1.0 - slope), np.inf)
    values = np.minimum(np.maximum(follow, primary), 1.0)
    entries = tuple(zip(dataset.ids, (float(v) for v in values)))
    return RValueReport(Method.FWER_BONFERRONI, entries, config)
