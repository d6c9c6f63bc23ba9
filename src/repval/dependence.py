"""Conservative r-value variants valid under arbitrary dependence among the
primary-study p-values.

Both reuse the exact engine of :mod:`repval.rvalue`, which computes
r_i = G^-1(min over r of max(A_i(r), T(r))) from the level function G:

* general dependence: m is replaced by m* = m * H_m (H_m the m-th harmonic
  number) in the primary threshold, u_j = p1_j * m*. The m in the
  follow-up threshold never enters, so the net effect is the harmonic
  inflation of the primary-study multiplicity only. G and its closed-form
  inverse are unchanged.

* threshold-dependent selection: when every followed-up feature passed a
  fixed primary-study cutoff t, c1(x) is replaced by the smaller
      c1~(x) = max{a : a * (1 + sum_{i=1}^{ceil(t*m/(a*x)) - 1} 1/i) = c1(x)}
  G(x) = x * c1~(x) still strictly increases (it jumps up where the regime
  changes and is right-continuous), but has no closed-form inverse, so
  G^-1(a) = min{x : G(x) >= a} is found by bisection over doubles, for all
  features at once. c1~ has no consistent regime below about x = 1e-16 at
  m = 1e6, t = 1e-4, so G is never evaluated below 1e-12: arguments are
  floored there, and the reported r-value is max(r_i, 1e-12).

Both produce r-values no smaller than the baseline, and both have exact
step-up equivalents checked by the test suite.
"""

from __future__ import annotations

import numpy as np

from .model import AnalysisConfig, Method, RValueReport, ValidatedDataset
from .rvalue import (StepUpResult, _exact_rvalues, _fdr_rvalues, _level,
                     _step_up, c1)

__all__ = [
    "harmonic_number", "m_star", "c1_tilde", "NoConsistentRegime",
    "SelectionThresholdViolated", "MissingThreshold",
    "fdr_rvalues_all_general_dep", "step_up_set_general_dep",
    "fdr_rvalues_all_threshold_dep", "step_up_set_threshold_dep",
]

_EULER_GAMMA = 0.5772156649015329
_EXACT_TABLE_SIZE = 1024
# c1~ regimes are int64; none is searched beyond this count
_REGIME_LIMIT = 2**62
# Smallest argument of the threshold-dependent level function: c1~ has no
# consistent regime below about 1e-16 at m = 1e6, t = 1e-4.
_FLOOR = 1e-12

# prefix[k] = H_k, exact for the small values the regime search probes often
_PREFIX = np.concatenate(
    [[0.0], np.cumsum(1.0 / np.arange(1, _EXACT_TABLE_SIZE + 1))])


def _harmonic_tail(n):
    """Asymptotic expansion of H_n for a float or float array n; relative
    error < 1e-14 past the exact table."""
    return (np.log(n) + _EULER_GAMMA + 1.0 / (2.0 * n)
            - 1.0 / (12.0 * n * n) + 1.0 / (120.0 * n**4))


def harmonic_number(n: int) -> float:
    """H_n = sum_{i=1}^{n} 1/i. Exact table lookup for small n, asymptotic
    expansion above."""
    if n < 0:
        raise ValueError("harmonic_number needs n >= 0")
    if n <= _EXACT_TABLE_SIZE:
        return float(_PREFIX[n])
    return float(_harmonic_tail(float(n)))


def _harmonic_array(k: np.ndarray) -> np.ndarray:
    """H_k elementwise for an int64 array of counts k >= 1."""
    out = _harmonic_tail(k.astype(float))
    small = k <= _EXACT_TABLE_SIZE
    out[small] = _PREFIX[k[small]]
    return out


def m_star(m: int) -> float:
    """Harmonic-inflated multiplicity m * H_m."""
    if m < 1:
        raise ValueError("m must be positive")
    return m * harmonic_number(m)


class NoConsistentRegime(RuntimeError):
    """Regime enumeration found no k with ceil(t*m/(a_k*x) - 1) = k. The
    defining equation always has a solution (the integer excess walks down
    in unit steps), so hitting this indicates a numerical corner worth a
    look rather than something to paper over."""


class MissingThreshold(ValueError):
    """Threshold-dependent variant requested without config.t."""


class SelectionThresholdViolated(ValueError):
    """Some primary p-value exceeds the declared selection threshold t."""


def _to_regime(k: np.ndarray, t: float, m: int) -> np.ndarray:
    """Regime counts (integral floats) as int64; none may pass 2^62."""
    if (k > _REGIME_LIMIT).any():
        raise NoConsistentRegime(
            f"no consistent regime below 2^62 for t={t}, m={m}")
    return k.astype(np.int64)


def _c1_tilde_array(x: np.ndarray, t: float, m: int, l00: float,
                    c2: float) -> np.ndarray:
    """c1~ elementwise for x in (0, 1); see :func:`c1_tilde`."""
    base = c1(x, l00, c2)
    big_c = t * m / (base * x)
    idx = np.flatnonzero(big_c > 1.0)
    c = big_c[idx]
    # walk k <- g(k); the first step sets k to the start
    g = _to_regime(np.maximum(1.0, np.ceil(c) - 1.0), t, m)
    k = np.zeros_like(g)
    h = np.zeros(len(c))
    moving = np.arange(len(c))
    while moving.size:
        k[moving] = g[moving]
        h[moving] = _harmonic_array(k[moving])
        g[moving] = _to_regime(
            np.ceil(c[moving] * (1.0 + h[moving]) - 1.0), t, m)
        moving = moving[g[moving] > k[moving]]
    if (g != k).any():
        bad = int(np.argmax(g != k))
        raise NoConsistentRegime(
            f"regime walk skipped zero at k={k[bad]} for x={x[idx[bad]]}, "
            f"t={t}, m={m}")
    base[idx] /= 1.0 + h
    return base


def c1_tilde(x: float, t: float, m: int, l00: float, c2: float) -> float:
    """Largest a with a * (1 + H_k) = c1(x) where k = ceil(t*m/(a*x) - 1).

    Solved exactly by locating the consistent integer regime: candidates are
    a_k = c1(x) / (1 + H_k), and the largest accepted candidate is the one
    with the smallest consistent k. With C = t*m/(c1(x)*x) and
    g(k) = ceil(C*(1+H_k) - 1), the consistent k are the fixed points of g.
    g is nondecreasing, so the walk k <- g(k) from k = max(1, ceil(C) - 1),
    where g(k) > k, rises to the smallest fixed point and stops there; for
    k >= C the excess g(k) - k steps down by at most 1, so it hits 0 exactly.
    When C <= 1 the empty-sum regime k = 0 applies and c1~ = c1.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x!r}")
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t!r}")
    return float(_c1_tilde_array(np.array([x]), t, m, l00, c2)[0])


# --- general dependence (harmonic inflation) -------------------------------

def fdr_rvalues_all_general_dep(dataset: ValidatedDataset,
                                config: AnalysisConfig) -> RValueReport:
    """r-values valid under arbitrary primary-study dependence."""
    values = _fdr_rvalues(dataset.p1, dataset.p2, m_eff=m_star(config.m),
                          l00=config.l00, c2=config.c2)
    entries = tuple(zip(dataset.ids, (float(v) for v in values)))
    return RValueReport(Method.FDR_GENERAL_DEP, entries, config)


def step_up_set_general_dep(dataset: ValidatedDataset, config: AnalysisConfig,
                            q: float) -> StepUpResult:
    return _step_up(dataset, config, q, m_eff=m_star(config.m),
                    c1_at=lambda x: c1(x, config.l00, config.c2))


# --- threshold-dependent selection ------------------------------------------

def _require_threshold(dataset: ValidatedDataset,
                       config: AnalysisConfig) -> float:
    if config.t is None:
        raise MissingThreshold(
            "threshold-dependent variant needs config.t (the selection "
            "cutoff on primary p-values)")
    if len(dataset) and float(dataset.p1.max()) > config.t:
        worst = int(dataset.p1.argmax())
        raise SelectionThresholdViolated(
            f"feature {dataset.ids[worst]!r} has p1={dataset.p1[worst]} "
            f"above the selection threshold t={config.t}")
    return config.t


def _smallest_reaching(level, a: np.ndarray) -> np.ndarray:
    """Elementwise the smallest double x in [_FLOOR, 1) with level(x) >= a,
    and 1 where there is none. Bisection over the bit patterns of positive
    doubles, which order like their values, so it ends on adjacent doubles
    after at most 62 halvings."""
    out = np.ones(len(a))
    idx = np.flatnonzero(a < np.inf)
    if not idx.size:
        return out
    target = a[idx]
    lo = np.full(len(idx), np.float64(_FLOOR).view(np.int64))
    hi = np.full(len(idx), np.float64(1.0).view(np.int64))
    at_floor = level(np.array([_FLOOR]))[0] >= target
    hi[at_floor] = lo[at_floor]
    todo = np.flatnonzero(hi - lo > 1)
    while todo.size:
        mid = lo[todo] + (hi[todo] - lo[todo]) // 2
        reached = level(mid.view(np.float64)) >= target[todo]
        hi[todo[reached]] = mid[reached]
        lo[todo[~reached]] = mid[~reached]
        todo = todo[hi[todo] - lo[todo] > 1]
    out[idx] = hi.view(np.float64)
    return out


def fdr_rvalues_all_threshold_dep(dataset: ValidatedDataset,
                                  config: AnalysisConfig) -> RValueReport:
    """r-values valid under arbitrary primary-study dependence when the
    follow-up set was everything below a fixed primary cutoff t. Never below
    1e-12 (see the module docstring)."""
    t = _require_threshold(dataset, config)
    m, l00, c2 = config.m, config.l00, config.c2

    def level(x):
        return x * _c1_tilde_array(x, t, m, l00, c2)

    def entry(x, y):
        x = np.maximum(x, _FLOOR)
        below = x < 1.0
        bound = np.where(below, _level(x, l00, c2), np.inf)
        out = np.maximum(y, bound)
        # c1~ <= c1, so G(x) can bind only where x * c1(x) exceeds y
        need = below & (bound > y)
        out[need] = np.maximum(y[need], level(x[need]))
        return out

    values = _exact_rvalues(dataset.p1, dataset.p2, m_eff=float(m), c2=c2,
                            entry=entry,
                            inverse=lambda a: _smallest_reaching(level, a))
    entries = tuple(zip(dataset.ids, (float(v) for v in values)))
    return RValueReport(Method.FDR_THRESHOLD_DEP, entries, config)


def step_up_set_threshold_dep(dataset: ValidatedDataset,
                              config: AnalysisConfig, q: float) -> StepUpResult:
    t = _require_threshold(dataset, config)
    return _step_up(dataset, config, q, m_eff=float(config.m),
                    c1_at=lambda x: c1_tilde(x, t, config.m, config.l00,
                                             config.c2))
