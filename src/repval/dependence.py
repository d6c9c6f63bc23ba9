"""Conservative r-value variants valid under arbitrary dependence among the
primary-study p-values.

Both are procedures of :mod:`repval.rvalue`, a primary multiplicity m_eff
and a level function G read by the one claim predicate there, so their
r-values (the smallest doubles x with G(x) >= b_i) and their step-up sets
agree bit for bit, as in the independent case:

* general dependence: m_eff = m* = m * H_m (H_m the m-th harmonic number),
  the harmonic inflation of the primary-study multiplicity only, and the
  plain G(x) = x * c1(x).

* threshold-dependent selection: when every followed-up feature passed a
  fixed primary-study cutoff t, m_eff = m and G(x) = x * c1~(x), with
      c1~(x) = max{a : a * (1 + sum_{i=1}^{ceil(t*m/(a*x)) - 1} 1/i) = c1(x)}.
  Once the regime k is known, G(x) = x * c1(x) / (1 + H_k), and k depends
  on x only through C = t*m / (x * c1(x)); k falls as x rises, so G stays
  nondecreasing on doubles. c1~ has no consistent regime below about
  x = 1e-16 at m = 1e6, t = 1e-4, so G's argument is floored at 1e-12: the
  reported r-value is max(r_i, 1e-12), and nothing is claimed below 1e-12.

Both produce r-values no smaller than the baseline. The threshold variant
raises ValueError without config.t, DatasetError when a primary p-value is
above t, and NoConsistentRegime on a numerical defect of the regime walk.
"""

from __future__ import annotations

import numpy as np

from .model import (AnalysisConfig, DatasetError, Method, RValueReport,
                    ValidatedDataset)
from .rvalue import (_exact_rvalues, _fdr_procedure, _level, _Procedure,
                     _report, _step_up, c1)

__all__ = [
    "m_star", "c1_tilde", "NoConsistentRegime",
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


def _harmonic(k: np.ndarray) -> np.ndarray:
    """H_k = sum_{i=1}^{k} 1/i elementwise for an array of integral counts
    k >= 1 (int64, or float for counts past int64): exact table lookup up to
    1024, asymptotic expansion above."""
    out = _harmonic_tail(k.astype(float))
    small = k <= _EXACT_TABLE_SIZE
    out[small] = _PREFIX[k[small].astype(np.int64, copy=False)]
    return out


def m_star(m: int) -> float:
    """Harmonic-inflated multiplicity m * H_m."""
    if m < 1:
        raise ValueError("m must be positive")
    return m * float(_harmonic(np.array([float(m)]))[0])


class NoConsistentRegime(RuntimeError):
    """Regime enumeration found no k with ceil(t*m/(a_k*x) - 1) = k. The
    defining equation always has a solution (the integer excess walks down
    in unit steps), so hitting this indicates a numerical corner worth a
    look rather than something to paper over."""


def _to_regime(k: np.ndarray, t: float, m: int) -> np.ndarray:
    """Regime counts (integral floats) as int64; none may pass 2^62."""
    if (k > _REGIME_LIMIT).any():
        raise NoConsistentRegime(
            f"no consistent regime below 2^62 for t={t}, m={m}")
    return k.astype(np.int64)


def _regime_factor(g: np.ndarray, t: float, m: int) -> np.ndarray:
    """1 + H_k elementwise, k the consistent regime of c1~ at the plain
    level g = x * c1(x); see :func:`c1_tilde`. 1 in the empty-sum regime."""
    big_c = t * m / g
    out = np.ones(len(g))
    idx = np.flatnonzero(big_c > 1.0)
    c = big_c[idx]
    # walk k <- g(k); the first step sets k to the start
    walk = _to_regime(np.maximum(1.0, np.ceil(c) - 1.0), t, m)
    k = np.zeros_like(walk)
    h = np.zeros(len(c))
    moving = np.arange(len(c))
    while moving.size:
        k[moving] = walk[moving]
        h[moving] = _harmonic(k[moving])
        walk[moving] = _to_regime(
            np.ceil(c[moving] * (1.0 + h[moving]) - 1.0), t, m)
        moving = moving[walk[moving] > k[moving]]
    if (walk != k).any():
        bad = int(np.argmax(walk != k))
        raise NoConsistentRegime(
            f"regime walk skipped zero at k={k[bad]} for x*c1(x)="
            f"{g[idx[bad]]}, t={t}, m={m}")
    out[idx] += h
    return out


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
    base = c1(x, l00, c2)
    return float(base / _regime_factor(np.array([base * x]), t, m)[0])


# --- general dependence (harmonic inflation) -------------------------------

def fdr_rvalues_all_general_dep(dataset: ValidatedDataset,
                                config: AnalysisConfig) -> RValueReport:
    """r-values valid under arbitrary primary-study dependence."""
    proc = _fdr_procedure(config, m_star(config.m))
    return _report(dataset, config, Method.FDR_GENERAL_DEP,
                   _exact_rvalues(proc, dataset.p1, dataset.p2))


def step_up_set_general_dep(dataset: ValidatedDataset, config: AnalysisConfig,
                            q: float) -> frozenset[str]:
    """Ids claimed at level q under arbitrary primary-study dependence."""
    return _step_up(dataset, q, _fdr_procedure(config, m_star(config.m)))


# --- threshold-dependent selection ------------------------------------------

def _threshold_procedure(dataset: ValidatedDataset,
                         config: AnalysisConfig) -> _Procedure:
    if config.t is None:
        raise ValueError(
            "threshold-dependent variant needs config.t (the selection "
            "cutoff on primary p-values)")
    if len(dataset) and float(dataset.p1.max()) > config.t:
        worst = int(dataset.p1.argmax())
        raise DatasetError(
            f"feature {dataset.ids[worst]!r} has p1={dataset.p1[worst]} "
            f"above the selection threshold t={config.t}")
    t, m, l00, c2 = config.t, config.m, config.l00, config.c2

    def level(x, y=0.0):
        g = _level(np.maximum(x, _FLOOR), l00, c2)
        # G(x) <= x * c1(x), so the regime matters only where that exceeds y
        need = g > y
        g[need] /= _regime_factor(g[need], t, m)
        return np.maximum(y, g)

    return _Procedure(float(m), c2, level, _FLOOR)


def fdr_rvalues_all_threshold_dep(dataset: ValidatedDataset,
                                  config: AnalysisConfig) -> RValueReport:
    """r-values valid under arbitrary primary-study dependence when the
    follow-up set was everything below a fixed primary cutoff t. Never below
    1e-12 (see the module docstring)."""
    proc = _threshold_procedure(dataset, config)
    return _report(dataset, config, Method.FDR_THRESHOLD_DEP,
                   _exact_rvalues(proc, dataset.p1, dataset.p2))


def step_up_set_threshold_dep(dataset: ValidatedDataset,
                              config: AnalysisConfig,
                              q: float) -> frozenset[str]:
    """Ids claimed at level q under threshold-dependent selection; nothing
    is claimed below 1e-12."""
    return _step_up(dataset, q, _threshold_procedure(dataset, config))
