"""Bonferroni-based FWER r-values.

The FWER r-value is the lowest family-wise error level at which a feature
can be called replicated. Bonferroni is the count-1 case of the claim
predicate of :mod:`repval.rvalue`, with no order statistic: feature j is
claimed at level q iff its entry level max(p1_j * m, G(p2_j * R1 / c2)) is
at most G(q), with G(x) = x * c1(x). Its r-value is the smallest double x
with G(x) at least that entry level (1 when no x below 1 reaches it), so
r_j <= q holds exactly when feature j is claimed at q.
"""

from __future__ import annotations

from .model import AnalysisConfig, Method, RValueReport, ValidatedDataset
from .rvalue import _fdr_procedure, _report, _scaled, _smallest_reaching

__all__ = ["bonferroni_rvalues_all"]


def bonferroni_rvalues_all(dataset: ValidatedDataset,
                           config: AnalysisConfig) -> RValueReport:
    """FWER r-values for every followed-up feature."""
    proc = _fdr_procedure(config, float(config.m))
    u, v = _scaled(proc, dataset.p1, dataset.p2)
    values = _smallest_reaching(proc.level, proc.level(v, u), proc.floor)
    return _report(dataset, config, Method.FWER_BONFERRONI, values)
