"""FDR r-values for two-study replication, and the equivalent step-up rule.

The r-value of a followed-up feature is the lowest FDR level at which that
feature can be declared replicated. Declaring the features with r-value <= q
is the direct step-up rule at level q (:func:`step_up_set`, a frozenset of
the claimed ids): among the R1 followed-up features, reject those passing
both

    p1_j <= r * c1(q) * q / m    and    p2_j <= r * c2 * q / R1

at the largest count r for which at least r features pass both. Here
c1(x) = (1 - c2) / (1 - l00 * (1 - c2 * x)) spends the error budget saved
by the null-in-both fraction bound l00.

Every claim in the package is one predicate. A procedure is its primary
multiplicity m_eff (m here) and its level function G (x * c1(x) here, inf
for x >= 1). With u_j = p1_j * m_eff and v_j = p2_j * R1 / c2, feature j
passes at count r and level q iff its entry level
A_j(r) = max(u_j / r, G(v_j / r)) is at most G(q). G is nondecreasing on
doubles, so the second half is v_j / r <= q*, q* the largest double with
G(q*) <= G(q). The step-up set at q holds the features whose need count,
the smallest r at which they pass, is at most R2, the largest r with at
least r need counts <= r. With T(r) the r-th smallest A(r), feature i is in
it iff b_i = min over r of max(A_i(r), T(r)) <= G(q), so its r-value is the
smallest double x with G(x) >= b_i (1 when no x below 1 reaches it), and
r_i <= q holds exactly when feature i is in the step-up set at q.

:func:`_exact_rvalues` finds every b_i in blocks of counts, in O(R1^2) time
and O(R1) memory, and inverts G by bisection over doubles. All functions
are pure; r-values are bitwise reproducible and do not depend on the order
of the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import AnalysisConfig, Method, RValueReport, ValidatedDataset

__all__ = ["c1", "fdr_rvalues_all", "step_up_set"]

# Elements per block of counts in the exact engine: 512 KiB of float64.
# Smaller blocks stay in cache; at R1 = 1000 to 10000 they ran faster than
# 2^19 and peaked 15-50 MB lower.
_BLOCK = 2**16


def c1(x: float, l00: float, c2: float) -> float:
    """Primary-study budget multiplier; decreasing in x when l00 > 0 and
    constant 1 - c2 when l00 = 0. The denominator is bounded below by
    1 - l00 > 0 on the valid domain, so this never degenerates."""
    return (1.0 - c2) / (1.0 - l00 * (1.0 - c2 * x))


def _level(x, l00: float, c2: float) -> np.ndarray:
    """G(x) = x * c1(x) elementwise, inf for x >= 1. Evaluated as
    (1 - c2) / ((1 - l00) / x + l00 * c2), in which every rounded step is
    monotone, so G is nondecreasing on doubles; x * c1(x) is not, as c1
    falls while x rises. Every term is scaled by 2^-64, which rounds alike
    and keeps (1 - l00) / x finite for subnormal x."""
    s = 2.0**-64
    with np.errstate(divide="ignore"):
        g = (1.0 - c2) * s / ((1.0 - l00) * s / x + l00 * c2 * s)
    np.putmask(g, x >= 1.0, np.inf)  # in place: cheaper than np.where
    return g


@dataclass(frozen=True)
class _Procedure:
    """A procedure as the claim predicate sees it: ``level(x, y)`` is
    max(y, G(x)) elementwise (G for y = 0), and no claim is made below
    ``floor``, under which G is constant."""

    m_eff: float
    c2: float
    level: Callable
    floor: float = 0.0


def _fdr_procedure(config: AnalysisConfig, m_eff: float) -> _Procedure:
    l00, c2 = config.l00, config.c2
    return _Procedure(m_eff, c2,
                      lambda x, y=0.0: np.maximum(y, _level(x, l00, c2)))


def _scaled(proc: _Procedure, p1: np.ndarray, p2: np.ndarray):
    """u = p1 * m_eff and v = p2 * R1 / c2: feature j's entry level at
    count r is level(v_j / r, u_j / r)."""
    return p1 * proc.m_eff, p2 * len(p2) / proc.c2


def _smallest_reaching(level, a: np.ndarray, floor: float,
                       ceiling: float = 1.0) -> np.ndarray:
    """Elementwise the smallest double x in [floor, ceiling) with
    level(x) >= a, and ceiling where there is none. Bisection over the bit
    patterns of nonnegative doubles, which order like their values, so it
    ends on adjacent doubles after at most 64 halvings. Taking the upper
    middle leaves an element that has converged where it is."""
    lo = np.full(len(a), np.float64(floor).view(np.int64) - 1)
    hi = np.full(len(a), np.float64(ceiling).view(np.int64))
    while (hi - lo > 1).any():
        mid = (lo + hi + 1) // 2
        reached = level(mid.view(np.float64)) >= a
        hi, lo = np.where(reached, mid, hi), np.where(reached, lo, mid)
    return hi.view(np.float64)


def _exact_rvalues(proc: _Procedure, p1: np.ndarray,
                   p2: np.ndarray) -> np.ndarray:
    """r-values of all features by the min-max formula of the module
    docstring. Counts are taken in blocks of at most _BLOCK elements, so
    memory stays O(R1) while time is O(R1^2)."""
    r1 = len(p1)
    u, v = _scaled(proc, p1, p2)
    best = np.full(r1, np.inf)
    rows = max(1, _BLOCK // max(r1, 1))
    for first in range(1, r1 + 1, rows):
        counts = np.arange(first, min(first + rows, r1 + 1),
                           dtype=float)[:, None]
        a = proc.level(v / counts, u / counts)
        # T(r): the r-th smallest entry level at count r
        t = np.array([np.partition(row, k)[k]
                      for k, row in enumerate(a, start=first - 1)])
        np.minimum(best, np.maximum(a, t[:, None]).min(axis=0), out=best)
    return _smallest_reaching(proc.level, best, proc.floor)


def _report(dataset: ValidatedDataset, config: AnalysisConfig, method: Method,
            values: np.ndarray) -> RValueReport:
    return RValueReport(method, tuple(zip(dataset.ids, map(float, values))),
                        config)


def fdr_rvalues_all(dataset: ValidatedDataset,
                    config: AnalysisConfig) -> RValueReport:
    """FDR r-values for every followed-up feature (independence variant)."""
    proc = _fdr_procedure(config, float(config.m))
    return _report(dataset, config, Method.FDR_INDEPENDENT,
                   _exact_rvalues(proc, dataset.p1, dataset.p2))


def _claim_levels(proc: _Procedure,
                  q: float) -> Optional[tuple[float, float]]:
    """(G(q), q*), q* the largest double where G(q*) <= G(q); None below the
    floor, where every r-value is larger than q. q* is bracketed by doubling
    a step in ulps above q, then bisected."""
    if q < proc.floor:
        return None
    g = proc.level(np.array([q]))[0]
    bits, step = np.float64(q).view(np.int64), 1
    while proc.level(np.array([bits + step]).view(np.float64))[0] <= g:
        bits, step = bits + step, 2 * step
    start, stop = np.array([bits, bits + step]).view(np.float64)
    first = _smallest_reaching(proc.level, np.array([np.nextafter(g, np.inf)]),
                               start, stop)[0]
    return float(g), float(np.nextafter(first, 0.0))


def _need_counts(proc: _Procedure, p1: np.ndarray, p2: np.ndarray,
                 levels: tuple[float, float]) -> np.ndarray:
    """Per feature, the smallest count r with u_j / r <= G(q) and
    v_j / r <= q* as rounded, ``levels`` being (G(q), q*); more than R1 when
    there is none. Dividing by the next doubles up gives counts never above
    that and, for normal levels, at most one below, so the loop ends after
    one check or two."""
    g, q_star = levels
    u, v = _scaled(proc, p1, p2)

    def passes(r):
        return (u / r <= g) & (v / r <= q_star)

    with np.errstate(over="ignore"):
        need = np.maximum(np.ceil(u / math.nextafter(g, math.inf)),
                          np.ceil(v / math.nextafter(q_star, math.inf)))
    np.maximum(need, 1.0, out=need)
    while (short := (need <= len(u)) & ~passes(need)).any():
        need += short
    return need


def _step_up_mask(proc: _Procedure, p1: np.ndarray, p2: np.ndarray,
                  levels: Optional[tuple[float, float]]) -> np.ndarray:
    if levels is None:
        return np.zeros(len(p1), dtype=bool)
    need = _need_counts(proc, p1, p2, levels)
    # at least r features need at most r exactly when the r-th smallest
    # need is at most r; R2 is the largest such r
    enough = np.flatnonzero(np.sort(need) <= np.arange(1, len(p1) + 1))
    return need <= (enough[-1] + 1 if enough.size else 0)


def _step_up(dataset: ValidatedDataset, q: float,
             proc: _Procedure) -> frozenset[str]:
    """Ids of the step-up set at level q of the procedure ``proc``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    mask = _step_up_mask(proc, dataset.p1, dataset.p2, _claim_levels(proc, q))
    return frozenset(fid for fid, hit in zip(dataset.ids, mask) if hit)


def step_up_set(dataset: ValidatedDataset, config: AnalysisConfig,
                q: float) -> frozenset[str]:
    """Ids of the features the direct step-up procedure claims at level q;
    the same set as the features with r-value <= q. Its size is R2."""
    return _step_up(dataset, q, _fdr_procedure(config, float(config.m)))
