"""Bonferroni-based FWER r-values.

The FWER r-value is the lowest family-wise error level at which a feature
can be called replicated. Bonferroni is the count-1 case of the claim
predicate of :mod:`repval.rvalue`, with no order statistic: feature j is
claimed at level q iff its entry level max(p1_j * m, G(p2_j * R1 / c2)) is
at most G(q), with G(x) = x * c1(x). Its r-value is the smallest double x
with G(x) at least that entry level (1 when no x below 1 reaches it), so
r_j <= q holds exactly when feature j is claimed at q. r-values come back
as a float64 array in ``dataset.ids`` order.
"""

from __future__ import annotations

import numpy as np

from .model import AnalysisConfig, ValidatedDataset
from .rvalue import _fdr_procedure, _scaled, _smallest_reaching

__all__ = ["bonferroni_rvalues_all"]


def bonferroni_rvalues_all(dataset: ValidatedDataset,
                           config: AnalysisConfig) -> np.ndarray:
    """FWER r-values for every followed-up feature."""
    proc = _fdr_procedure(config, float(config.m))
    u, v = _scaled(proc, dataset.p1, dataset.p2, len(dataset))
    return _smallest_reaching(proc, proc.level(v, u))
