"""FDR r-values for two-study replication, and the equivalent step-up rule.

The r-value of a followed-up feature is the lowest FDR level at which that
feature can be declared replicated. Declaring the features with r-value <= q
is the direct step-up rule at level q (:func:`step_up_set`): among the R1
followed-up features, reject those passing both

    p1_j <= r * c1(q) * q / m    and    p2_j <= r * c2 * q / R1

at the largest count r for which at least r features pass both. Here
c1(x) = (1 - c2) / (1 - l00 * (1 - c2 * x)) spends the error budget saved
by the null-in-both fraction bound l00.

The r-value is the smallest q at which the rule rejects the feature, and it
is computed in closed form. The level function G(x) = x * c1(x) strictly
increases on [0, 1); take G(x) = inf for x >= 1. With u_j = p1_j * m and
v_j = p2_j * R1 / c2, feature j passes both thresholds at count r exactly
when A_j(r) <= G(q), where

    A_j(r) = max(u_j / r, G(v_j / r)).

Let T(r) be the r-th smallest of A_1(r), ..., A_R1(r). Feature i is rejected
at q exactly when some count r has T(r) <= G(q) (at least r features pass)
and A_i(r) <= G(q). As G^-1 is monotone,

    r_i = G^-1( min over r = 1..R1 of max(A_i(r), T(r)) ),  capped at 1,

with G^-1(a) = a (1 - l00) / ((1 - c2) - a l00 c2), or inf when the
denominator is not positive. :func:`_exact_rvalues` evaluates this in blocks
of counts, in O(R1^2) time and O(R1) memory. The dependence variants in
:mod:`repval.dependence` reuse it with m or c1 replaced.

All functions are pure; r-values are bitwise reproducible and do not depend
on the order of the records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import AnalysisConfig, Method, RValueReport, ValidatedDataset

__all__ = ["c1", "fdr_rvalues_all", "StepUpResult", "step_up_set"]

# Elements per block of counts in the exact engine: 512 KiB of float64.
# Smaller blocks stay in cache; at R1 = 1000 to 10000 they ran faster than
# 2^19 and peaked 15-50 MB lower.
_BLOCK = 2**16


def c1(x: float, l00: float, c2: float) -> float:
    """Primary-study budget multiplier; increasing in x when l00 > 0 and
    constant 1 - c2 when l00 = 0. The denominator is bounded below by
    1 - l00 > 0 on the valid domain, so this never degenerates."""
    return (1.0 - c2) / (1.0 - l00 * (1.0 - c2 * x))


def _level(x, l00: float, c2: float):
    """Level function G(x) = x * c1(x): the primary-study threshold scale at
    FDR level x. Strictly increasing on [0, 1); works elementwise on arrays."""
    return x * c1(x, l00, c2)


def _level_inverse(a: np.ndarray, l00: float, c2: float) -> np.ndarray:
    """G^-1(a) = a (1 - l00) / ((1 - c2) - a l00 c2) elementwise; inf where
    the denominator is not positive (no level reaches a)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = (1.0 - c2) - a * l00 * c2
        x = a * (1.0 - l00) / denom
    return np.where(denom > 0.0, x, np.inf)


def _exact_rvalues(p1: np.ndarray, p2: np.ndarray, *, m_eff: float,
                   c2: float, entry: Callable, inverse: Callable) -> np.ndarray:
    """r-values of all features by the min-max formula of the module
    docstring, capped at 1.

    ``entry(x, y)`` returns max(y, G(x)) elementwise, with G(x) = inf for
    x >= 1; ``inverse(a)`` returns G^-1(a), at least 1 when no level below 1
    reaches a. Counts are taken in blocks of at most _BLOCK elements, so
    memory stays O(R1) while time is O(R1^2).
    """
    r1 = len(p1)
    u = p1 * m_eff
    v = p2 * r1 / c2
    best = np.full(r1, np.inf)
    rows = max(1, _BLOCK // max(r1, 1))
    for first in range(1, r1 + 1, rows):
        counts = np.arange(first, min(first + rows, r1 + 1),
                           dtype=float)[:, None]
        a = entry(v / counts, u / counts)
        # T(r): the r-th smallest entry level at count r
        t = np.array([np.partition(row, k)[k]
                      for k, row in enumerate(a, start=first - 1)])
        np.minimum(best, np.maximum(a, t[:, None]).min(axis=0), out=best)
    return np.minimum(inverse(best), 1.0)


def _fdr_rvalues(p1: np.ndarray, p2: np.ndarray, *, m_eff: float,
                 l00: float, c2: float) -> np.ndarray:
    def entry(x, y):
        return np.maximum(y, np.where(x < 1.0, _level(x, l00, c2), np.inf))

    return _exact_rvalues(p1, p2, m_eff=m_eff, c2=c2, entry=entry,
                          inverse=lambda a: _level_inverse(a, l00, c2))


def fdr_rvalues_all(dataset: ValidatedDataset,
                    config: AnalysisConfig) -> RValueReport:
    """FDR r-values for every followed-up feature (independence variant)."""
    values = _fdr_rvalues(dataset.p1, dataset.p2, m_eff=float(config.m),
                          l00=config.l00, c2=config.c2)
    entries = tuple(zip(dataset.ids, (float(v) for v in values)))
    return RValueReport(Method.FDR_INDEPENDENT, entries, config)


@dataclass(frozen=True)
class StepUpResult:
    """Largest self-consistent rejection count at target level q, and the
    features passing both thresholds at that count."""

    q: float
    r2_count: int
    replicated_ids: frozenset[str]


def _minimal_counts(p1: np.ndarray, p2: np.ndarray, *, m_eff: float,
                    r1: int, c2: float, c1_at_q: float, q: float) -> np.ndarray:
    """Per feature, the smallest rejection count r at which it passes both
    thresholds p1 <= r*c1(q)*q/m and p2 <= r*c2*q/R1."""
    unit1 = c1_at_q * q / m_eff
    unit2 = c2 * q / r1
    need1 = np.ceil(p1 / unit1)
    need2 = np.ceil(p2 / unit2)
    return np.maximum(need1, need2)


def _step_up_mask(p1: np.ndarray, p2: np.ndarray, *, m_eff: float, c2: float,
                  c1_at_q: float, q: float) -> np.ndarray:
    r1 = len(p1)
    if r1 == 0:
        return np.zeros(0, dtype=bool)
    need = _minimal_counts(p1, p2, m_eff=m_eff, r1=r1, c2=c2,
                           c1_at_q=c1_at_q, q=q)
    # count(r) = #{need <= r} is nondecreasing and at most R1, so the
    # largest r with count(r) >= r has count(r) = r: that r is R2
    counts = np.arange(1, r1 + 1)
    passing = np.searchsorted(np.sort(need), counts, side="right") >= counts
    r2 = int(counts[passing][-1]) if passing.any() else 0
    return need <= r2


def _step_up(dataset: ValidatedDataset, config: AnalysisConfig, q: float, *,
             m_eff: float, c1_at: Callable[[float], float]) -> StepUpResult:
    """Step-up set at level q with the primary multiplicity m_eff and the
    budget multiplier c1_at(q); the dependence variants replace one each."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    mask = _step_up_mask(dataset.p1, dataset.p2, m_eff=m_eff, c2=config.c2,
                         c1_at_q=c1_at(q), q=q)
    ids = frozenset(fid for fid, hit in zip(dataset.ids, mask) if hit)
    return StepUpResult(q, int(mask.sum()), ids)


def step_up_set(dataset: ValidatedDataset, config: AnalysisConfig,
                q: float) -> StepUpResult:
    """Direct step-up procedure at level q; equivalent to thresholding the
    r-values at q."""
    return _step_up(dataset, config, q, m_eff=float(config.m),
                    c1_at=lambda x: c1(x, config.l00, config.c2))
