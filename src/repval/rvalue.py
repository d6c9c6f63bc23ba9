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

:func:`_exact_rvalues` takes T(r) over blocks of counts, in O(R1^2) time
and O(R1) memory. An entry level is inf exactly where v_j / r rounds to 1
or more, so with the features sorted by v only a prefix of them has finite
entries at count r, and counts with fewer than r finite entries, where
T(r) is inf, are skipped. b_i is also the minimum over r of
max(A_i(r), S(r)), S(r) the minimum of T over the counts from r up, as
A_i(r) falls with r; S rises, so b_i = S(r*), r* the first count with
S(r*) >= A_i(r*) (proof at :func:`_exact_rvalues`), which one bisection
over counts finds for all features. G is inverted by a search over
doubles that starts from a closed-form guess of the inverse, gallops to a
bracket a few ulps wide and bisects it; the smallest double reaching b_i
is unique, so the start does not change it. A level that is dear to evaluate
(threshold-dependent selection) comes with cheap brackets; one rule,
:func:`_make_exact`, makes it exact only where a bracket cannot decide a
comparison with T(r), S(r) or b_i. All functions are pure. r-values come
back as a float64 array in ``dataset.ids`` order; they are bitwise
reproducible and do not depend on the order of the records.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .model import AnalysisConfig, ValidatedDataset, _check_unit, _Frozen

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


def _inverse_level(b, l00: float, c2: float) -> np.ndarray:
    """The x with G(x) = b in closed form, x = (1 - l00) / ((1 - c2) / b -
    l00 * c2), within a few ulps of the smallest double reaching b; 1 or
    more where no x below 1 does, inf where the denominator is not
    positive. Scaled like :func:`_level`, so a subnormal b gives a finite
    guess."""
    s = 2.0**-64
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (1.0 - l00) * s / ((1.0 - c2) * s / b - l00 * c2 * s)
    return np.where(x < 0.0, np.inf, x)


class _Procedure(_Frozen):
    """A procedure as the claim predicate sees it: ``level(x, y)`` is
    max(y, G(x)) elementwise (G for y = 0), ``guess(b)`` a closed-form
    estimate of the smallest x with G(x) >= b, and no claim is made below
    ``floor``, under which G is constant. ``bounds(x, y)``, for a level
    that is dear to evaluate, gives cheap elementwise brackets lo <= level
    <= hi, equal where exact; elsewhere only :func:`_make_exact` calls it."""

    __slots__ = _fields = ("m_eff", "c2", "level", "guess", "floor", "bounds")

    def __init__(self, m_eff: float, c2: float, level: Callable,
                 guess: Callable, floor: float = 0.0,
                 bounds: Optional[Callable] = None):
        self._set(m_eff=m_eff, c2=c2, level=level, guess=guess, floor=floor,
                  bounds=bounds)


def _fdr_procedure(config: AnalysisConfig, m_eff: float) -> _Procedure:
    l00, c2 = config.l00, config.c2
    return _Procedure(m_eff, c2,
                      lambda x, y=0.0: np.maximum(y, _level(x, l00, c2)),
                      lambda b: _inverse_level(b, l00, c2))


def _scaled(proc: _Procedure, p1: np.ndarray, p2: np.ndarray, r1):
    """u = p1 * m_eff and v = p2 * R1 / c2: feature j's entry level at
    count r is level(v_j / r, u_j / r). R1 is a scalar (one follow-up
    set) or per feature (features of several follow-up sets)."""
    return p1 * proc.m_eff, p2 * r1 / proc.c2


def _smallest_reaching(proc: _Procedure, a: np.ndarray) -> np.ndarray:
    """Elementwise the smallest double x in [floor, 1) with G(x) >= a, and
    1 where there is none: one bit pattern, as the patterns of nonnegative
    doubles order like their values and G is nondecreasing on them. The
    search gallops from ``proc.guess(a)`` (any doubles, clipped into the
    range) in steps of 1, 2, 4, ... ulps until a probe crosses, then
    bisects: a guess within a few ulps costs a few probes, a useless one
    about 2 * 62. A probe is decided by the bracket of G there, made exact
    only where it holds a: lo < a <= hi."""
    below = np.float64(proc.floor).view(np.int64) - 1  # stands for G < a
    above = np.float64(1.0).view(np.int64)             # stands for G >= a

    def reaches(bits, a):
        return _entries(proc, bits.view(np.float64), np.zeros(len(bits)),
                        lambda lo, hi: (lo < a) & (a <= hi))[1] >= a

    x = np.clip(proc.guess(a).view(np.int64), below + 1, above - 1)
    down = reaches(x, a)
    lo, hi = np.where(down, below, x), np.where(down, x, above)
    todo, step = np.flatnonzero(hi - lo > 1), 1
    while todo.size:
        d, at_lo, at_hi = down[todo], lo[todo], hi[todo]
        probe = np.where(d, np.maximum(at_hi - step, at_lo + 1),
                         np.minimum(at_lo + step, at_hi - 1))
        hit = reaches(probe, a[todo])
        hi[todo], lo[todo] = np.where(hit, probe, at_hi), np.where(hit, at_lo,
                                                                   probe)
        todo = todo[(hit == d) & (hi[todo] - lo[todo] > 1)]
        step = min(2 * step, 2**62)
    todo = np.flatnonzero(hi - lo > 1)
    while todo.size:
        mid = (lo[todo] + hi[todo]) // 2
        hit = reaches(mid, a[todo])
        hi[todo], lo[todo] = (np.where(hit, mid, hi[todo]),
                              np.where(hit, lo[todo], mid))
        todo = todo[hi[todo] - lo[todo] > 1]
    return hi.view(np.float64)


def _live_counts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For v sorted ascending, the counts r (as floats) at which T(r) can be
    finite, and the number of finite entry levels at each. An entry level
    is inf exactly where v_j / r rounds to 1 or more, so at count r the
    finite ones are a prefix of the features, and T(r), with every
    candidate at r, is inf where that prefix is shorter than r. That
    prefix is the v_j < r: for doubles v < r, the exact quotient v / r is
    at most 1 - 2^-53, itself a double, so it never rounds up to 1."""
    counts = np.arange(1.0, len(v) + 1.0)
    finite = np.searchsorted(v, counts)
    live = finite >= counts
    return counts[live], finite[live]


def _block_rows(finite: np.ndarray, budget: int) -> int:
    """How many counts the next block takes: the most whose rows, as wide
    as the last one's ``finite``, fit in ``budget`` elements; one at least.
    ``finite`` does not decrease, so rows * width only grows."""
    head = finite[:max(1, budget // finite[0])]
    size = np.arange(1, len(head) + 1) * head
    return max(1, int(np.searchsorted(size, budget, side="right")))


def _kth_smallest(a: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Per row of a, the entry of 0-based rank ``ranks[row]``."""
    part = a.copy()
    for row, k in zip(part, ranks.tolist()):
        row.partition(k)
    return part[np.arange(len(part)), ranks]


def _bracketed_kth(proc: _Procedure, x: np.ndarray, y: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray,
                   ranks: np.ndarray) -> np.ndarray:
    """T(r) exactly from brackets lo <= A <= hi of a block's entry levels
    A = level(x, y). T(r) is at least t, the r-th smallest lo, and at most
    any u with at least r of the hi at or below it: t * (1 + 2^-8) in most
    rows, as brackets are narrower, else the r-th smallest hi. Only the
    entries whose brackets meet [t, u] are made exact, in place. Every other
    entry lies strictly below or above that range, so T(r) is the
    (r - below)-th smallest of the exact ones, ``below`` counting the
    entries under it."""
    t = _kth_smallest(lo, ranks)
    u = t * (1.0 + 2.0**-8)
    short = np.flatnonzero(
        np.count_nonzero(hi <= u[:, None], axis=1) <= ranks)
    u[short] = _kth_smallest(hi[short], ranks[short])
    reach = hi >= t[:, None]
    below = lo.shape[1] - np.count_nonzero(reach, axis=1)
    # flat indices in row-major order, so grouped by row
    at = np.flatnonzero(reach & (lo <= u[:, None]))
    _make_exact(proc, x, y, lo, hi, at)
    r, exact = at // lo.shape[1], np.take(lo, at)
    exact = exact[np.lexsort((exact, r))]
    return exact[np.searchsorted(r, np.arange(len(lo))) + ranks - below]


def _make_exact(proc: _Procedure, x: np.ndarray, y: np.ndarray,
                lo: np.ndarray, hi: np.ndarray, at: np.ndarray) -> None:
    """Sets the open brackets lo < hi of A = level(x, y) at the flat indices
    ``at`` to A, in place: the one place a bracketed level is evaluated."""
    at = at[np.take(lo, at) < np.take(hi, at)]
    exact = proc.level(np.take(x, at), np.take(y, at))
    np.put(lo, at, exact)
    np.put(hi, at, exact)


def _entries(proc: _Procedure, x: np.ndarray, y: np.ndarray,
             exact_where: Optional[Callable] = None):
    """Brackets lo <= A <= hi of the entry levels A = level(x, y), made
    exact where ``exact_where(lo, hi)`` holds; A itself, twice, for a
    procedure without bounds."""
    if proc.bounds is None:
        a = proc.level(x, y)
        return a, a
    lo, hi = proc.bounds(x, y)
    if exact_where is not None:
        _make_exact(proc, x, y, lo, hi, np.flatnonzero(exact_where(lo, hi)))
    return lo, hi


def _exact_rvalues(proc: _Procedure, p1: np.ndarray,
                   p2: np.ndarray) -> np.ndarray:
    """r-values by the min-max formula of the module docstring, with T(r)
    from blocks of at most _BLOCK elements (or one wider row): O(R1)
    memory, O(R1^2) time. b_i = S(r*), S(R1 + 1) = inf: r* attains it,
    no max(A_i(r), S(r)) above r* is below S(r*), and none below r* is
    below A_i(p) >= S(r*), p = r* - 1. As p is no crossing, S(p) < A_i(p),
    so S(p) = S(r*), or S(p) = T(p) and T(r*) <= A_i(p): the p features j
    with A_j(p) <= T(p) and i give r* entries at r* no larger than A_i(p),
    as A_j(r) falls with r. This holds on doubles, T(r) being exact for
    bracketed levels too (:func:`_bracketed_kth`)."""
    r1 = len(p1)
    u, v = _scaled(proc, p1, p2, r1)
    order = np.argsort(v, kind="stable")
    u, v = u[order], v[order]
    live, finite = _live_counts(v)
    s = np.full(r1 + 1, np.inf)  # T(r), then S(r), at r - 1
    first = 0
    while first < len(live):
        stop = first + _block_rows(finite[first:], _BLOCK)
        counts, width = live[first:stop, None], finite[stop - 1]
        ranks = counts[:, 0].astype(np.int64) - 1
        # the entries past the last row's finite prefix are all inf
        x, y = v[:width] / counts, u[:width] / counts
        first = stop
        # lo and hi stay bound into the next block: freed here, the heap
        # top went back to the system and was faulted in again each block
        lo, hi = _entries(proc, x, y)
        s[ranks] = (_kth_smallest(lo, ranks) if proc.bounds is None else
                    _bracketed_kth(proc, x, y, lo, hi, ranks))
    s = np.minimum.accumulate(s[::-1])[::-1]
    # r* - 1, the last count with S(r) < A_i(r), bit by bit from the top;
    # that test is monotone in r, so a probe may be clipped to R1
    below = np.zeros(r1, dtype=np.int64)
    for step in (1 << k for k in reversed(range(r1.bit_length()))):
        probe = np.minimum(below + step, r1)
        cap = s[probe - 1]
        _, top = _entries(proc, v / probe, u / probe,
                          lambda lo, hi: (lo <= cap) & (cap < hi))
        below = np.where(top <= cap, below, probe)
    values = np.empty(r1)
    values[order] = _smallest_reaching(proc, s[below])
    return values


def fdr_rvalues_all(dataset: ValidatedDataset,
                    config: AnalysisConfig) -> np.ndarray:
    """FDR r-values for every followed-up feature (independence variant),
    as a float64 array in ``dataset.ids`` order."""
    proc = _fdr_procedure(config, float(config.m))
    return _exact_rvalues(proc, dataset.p1, dataset.p2)


def _claim_levels(proc: _Procedure,
                  q: float) -> Optional[tuple[float, float]]:
    """(G(q), q*), q* the largest double where G(q*) <= G(q); None below the
    floor, where every r-value is larger than q. q* is one double below the
    smallest x reaching the next double above G(q)."""
    if q < proc.floor:
        return None
    g = proc.level(np.array([q]))[0]
    first = _smallest_reaching(proc, np.array([np.nextafter(g, np.inf)]))[0]
    return float(g), float(np.nextafter(first, 0.0))


def _need_counts(proc: _Procedure, p1: np.ndarray, p2: np.ndarray,
                 levels: tuple[float, float], r1) -> np.ndarray:
    """Per feature, the smallest count r with u_j / r <= G(q) and
    v_j / r <= q* as rounded, ``levels`` being (G(q), q*); more than R1 when
    there is none. R1 is as in :func:`_scaled`. Dividing by the next
    doubles up gives counts never above that and, for normal levels, at
    most one below, so the loop ends after one check or two."""
    g, q_star = levels
    u, v = _scaled(proc, p1, p2, r1)

    def passes(r):
        return (u / r <= g) & (v / r <= q_star)

    with np.errstate(over="ignore"):
        need = np.maximum(np.ceil(u / math.nextafter(g, math.inf)),
                          np.ceil(v / math.nextafter(q_star, math.inf)))
    np.maximum(need, 1.0, out=need)
    while (short := (need <= r1) & ~passes(need)).any():
        need += short
    return need


def _step_up(dataset: ValidatedDataset, q: float,
             proc: _Procedure) -> frozenset[str]:
    """Ids of the step-up set at level q of the procedure ``proc``: the
    features whose need count is at most R2, the largest r with at least r
    need counts <= r, i.e. the step-up rule at step 1 on the need counts."""
    # imported here, so that a call that only computes r-values (the CLI's)
    # does not load repval.selection
    from .selection import _step_up_mask

    _check_unit("q", q)
    levels = _claim_levels(proc, q)
    if levels is None:
        return frozenset()
    need = _need_counts(proc, dataset.p1, dataset.p2, levels, len(dataset))
    mask = _step_up_mask(need, 1)
    return frozenset(fid for fid, hit in zip(dataset.ids, mask) if hit)


def step_up_set(dataset: ValidatedDataset, config: AnalysisConfig,
                q: float) -> frozenset[str]:
    """Ids of the features the direct step-up procedure claims at level q;
    the same set as the features with r-value <= q. Its size is R2."""
    return _step_up(dataset, q, _fdr_procedure(config, float(config.m)))
