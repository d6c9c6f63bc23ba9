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
  nondecreasing on doubles. k grows like C * (1 + H_k) as x falls, and the
  walk that finds it counts in doubles, exact up to 2^53; past that it
  raises NoConsistentRegime (below about x = 1.7e-13 at m = 1e6,
  t = 1e-4, l00 = 0.8, c2 = 0.5). So G's argument is floored at 1e-12, or
  higher where t*m is so large that a count would pass 2^53 there: above
  t*m = 117.5 at l00 = 0, c2 = 0.5 (587 at l00 = 0.8), and at t*m = 1e5
  the floor is 8.5e-10. The reported r-value is max(r_i, floor), and
  nothing is claimed below the floor.

  The walk is dear, so the r-value engine, its inverse and the claim
  levels evaluate G exactly only where a bracket cannot decide, all by
  the one rule of :func:`repval.rvalue._make_exact`. The factor 1 + H_k
  depends on x only through g = x * c1(x) and does not increase with g,
  so its exact values at the doubles that keep the top 6 mantissa bits of
  g bracket G(x) to about 1 / (64 * (1 + H_k)) relative; at or below the
  floor the bracket is G(floor), built with the table and the procedure.

Both return r-values as a float64 array in ``dataset.ids`` order, no
smaller than the baseline's. The threshold variant raises ValueError
without config.t, and NoConsistentRegime when t*m is too large for any x
below 1 or on a numerical defect of the regime walk. That every primary
p-value is at most t is a rule of the table, checked by
:func:`repval.model.validate_dataset`.
"""

from __future__ import annotations

import numpy as np

from .model import AnalysisConfig, ValidatedDataset, _check_unit
from .rvalue import (_exact_rvalues, _fdr_procedure, _inverse_level, _level,
                     _Procedure, _step_up, c1)

__all__ = [
    "m_star", "c1_tilde", "NoConsistentRegime",
    "fdr_rvalues_all_general_dep", "step_up_set_general_dep",
    "fdr_rvalues_all_threshold_dep", "step_up_set_threshold_dep",
]

_EULER_GAMMA = 0.5772156649015329
_EXACT_TABLE_SIZE = 1024
# Regime counts are integral doubles, exact up to this count; the walk
# stops with NoConsistentRegime past it
_EXACT_COUNT = 2.0**53
# Smallest argument of the threshold-dependent level function at any t*m;
# higher where a regime count would pass 2^53 there (_threshold_floor)
_FLOOR = 1e-12
# The regime factor is tabled on the doubles that keep the top 6 mantissa
# bits: a plain level g lies in cell g.view(int64) >> _CELL_SHIFT
_CELL_SHIFT = 46
# Relative widening of the tabled factors, so that the brackets hold even
# where the computed H_k is not monotone in its last bits
_WIDEN = 2.0**-40

# prefix[k] = H_k, exact for the small values the regime search probes often
_PREFIX = np.concatenate(
    [[0.0], np.cumsum(1.0 / np.arange(1, _EXACT_TABLE_SIZE + 1))])


def _harmonic(k: np.ndarray) -> np.ndarray:
    """H_k = sum_{i=1}^{k} 1/i elementwise for an array of integral doubles
    k >= 0: exact table lookup up to 1024, and only above it the asymptotic
    expansion, with relative error < 1e-14."""
    out = np.empty(k.shape)
    small = k <= _EXACT_TABLE_SIZE
    out[small] = _PREFIX[k[small].astype(np.int64)]
    n = k[~small]
    out[~small] = (np.log(n) + _EULER_GAMMA + 1.0 / (2.0 * n)
                   - 1.0 / (12.0 * n * n) + 1.0 / (120.0 * n**4))
    return out


def m_star(m: int) -> float:
    """Harmonic-inflated multiplicity m * H_m."""
    if m < 1:
        raise ValueError("m must be positive")
    return m * float(_harmonic(np.array([float(m)]))[0])


class NoConsistentRegime(RuntimeError):
    """Regime enumeration found no k with ceil(t*m/(a_k*x) - 1) = k among
    the counts that doubles hold exactly, up to 2^53. The defining equation
    always has a solution (the integer excess walks down in unit steps), so
    this means t*m / x is too large, or a numerical corner worth a look
    rather than something to paper over."""


def _regime_factor(g: np.ndarray, t: float, m: int) -> np.ndarray:
    """1 + H_k elementwise, k the consistent regime of c1~ at the plain
    level g = x * c1(x); see :func:`c1_tilde`. 1 in the empty-sum regime."""
    big_c = t * m / g
    out = np.ones(g.shape)
    live = big_c > 1.0
    c = big_c[live]
    # walk k <- g(k) until no k rises; a stopped k recomputes its h and walk
    k = np.maximum(1.0, np.ceil(c) - 1.0)
    while True:
        if (k > _EXACT_COUNT).any():
            raise NoConsistentRegime(
                f"no consistent regime below 2^53 for t={t}, m={m}")
        h = _harmonic(k)
        walk = np.ceil(c * (1.0 + h) - 1.0)
        if not (walk > k).any():
            break
        k = np.maximum(k, walk)
    if (walk != k).any():
        bad = int(np.argmax(walk != k))
        raise NoConsistentRegime(
            f"regime walk skipped zero at k={k[bad]} for x*c1(x)="
            f"{g[live][bad]}, t={t}, m={m}")
    out[live] += h
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
    NoConsistentRegime when the walk passes 2^53, where counts in doubles
    stop being exact.
    """
    _check_unit("x", x)
    _check_unit("t", t)
    base = c1(x, l00, c2)
    return float(base / _regime_factor(np.array([base * x]), t, m)[0])


# --- general dependence (harmonic inflation) -------------------------------

def fdr_rvalues_all_general_dep(dataset: ValidatedDataset,
                                config: AnalysisConfig) -> np.ndarray:
    """r-values valid under arbitrary primary-study dependence."""
    proc = _fdr_procedure(config, m_star(config.m))
    return _exact_rvalues(proc, dataset.p1, dataset.p2)


def step_up_set_general_dep(dataset: ValidatedDataset, config: AnalysisConfig,
                            q: float) -> frozenset[str]:
    """Ids claimed at level q under arbitrary primary-study dependence."""
    return _step_up(dataset, q, _fdr_procedure(config, m_star(config.m)))


# --- threshold-dependent selection ------------------------------------------

def _threshold_floor(t: float, m: int, l00: float, c2: float) -> float:
    """Smallest argument of the threshold level: 1e-12, or higher where t*m
    is so large that a regime count of the walk would pass 2^53 there. The
    walk rises to the smallest fixed point, which is below 2^53 when
    C = t*m/g <= 2^53 / (1 + H_(2^53)); a 2^-20 margin covers the rounding
    of C and g. NoConsistentRegime when no x below 1 is that large."""
    c_max = (_EXACT_COUNT * (1.0 - 2.0**-20)
             / (1.0 + _harmonic(np.array([_EXACT_COUNT]))[0]))
    x = _inverse_level(np.array([t * m / c_max]), l00, c2)[0]
    if not x < 1.0:
        raise NoConsistentRegime(
            f"no consistent regime below 2^53 for any x below 1 at t={t}, "
            f"m={m}")
    return max(_FLOOR, float(x))


def _factor_table(t: float, m: int, g_floor: float):
    """(first cell, lower, upper): per cell of plain levels from g_floor up
    to t*m, bounds on 1 / (1 + H_k), the reciprocal of the regime factor.
    The factor does not increase with g, so its exact values at a cell's
    two edges bound it, widened by _WIDEN. A cell whose lower edge has
    factor 1 has C <= 1 throughout, so its bounds are exactly 1; the last
    entry serves every g above t*m."""
    first = np.float64(g_floor).view(np.int64) >> _CELL_SHIFT
    last = np.float64(t * m).view(np.int64) >> _CELL_SHIFT
    edges = np.arange(first, max(last + 2, first + 1)) << _CELL_SHIFT
    edges = edges.view(np.float64)
    edges[0] = g_floor  # no level lies below it
    factor = _regime_factor(edges, t, m)
    lower = np.where(factor[:-1] == 1.0, 1.0, (1.0 - _WIDEN) / factor[:-1])
    upper = np.minimum(1.0, (1.0 + _WIDEN) / factor[1:])
    lower, upper = np.append(lower, 1.0), np.append(upper, 1.0)
    return int(first), lower, upper


def _threshold_procedure(config: AnalysisConfig) -> _Procedure:
    """The threshold-dependent procedure, from the config alone, with its
    bracket table built; that every p1 is at most t is a table rule,
    checked by ``validate_dataset``."""
    if config.t is None:
        raise ValueError(
            "threshold-dependent variant needs config.t (the selection "
            "cutoff on primary p-values)")
    t, m, l00, c2 = config.t, config.m, config.l00, config.c2
    floor = _threshold_floor(t, m, l00, c2)
    g_floor = float(_level(np.array([floor]), l00, c2)[0])

    def level(x, y=0.0):
        g = _level(np.maximum(x, floor), l00, c2)
        return np.maximum(y, g / _regime_factor(g, t, m))

    first, lower, upper = _factor_table(t, m, g_floor)
    at_floor = level(np.array([floor]))[0]

    def bounds(x, y):
        # g * lower <= g / F <= g * upper in reals, so also as rounded; at
        # or below the floor the level is G(floor) exactly
        g = _level(np.maximum(x, floor), l00, c2)
        cell = (g.view(np.int64) >> _CELL_SHIFT) - first
        lo = np.take(lower, cell, mode="clip") * g
        hi = np.take(upper, cell, mode="clip") * g
        low = x <= floor
        lo[low] = hi[low] = at_floor
        return np.maximum(lo, y, out=lo), np.maximum(hi, y, out=hi)

    def guess(b):
        # Regime k holds the plain levels g from t*m*F_k/(k+1) up to
        # t*m*F_(k-1)/k (F_k = 1 + H_k), so G = g / F_k runs there from
        # t*m/(k+1) to t*m*F_(k-1)/(k*F_k), and regime k - 1 starts at
        # G = t*m/k. With k = ceil(t*m/b) - 1, b is first reached at
        # g = b * F_k in regime k, or at the start of regime k - 1,
        # whichever is smaller.
        # k = 0 (b >= t*m) divides by 0; a tiny b overflows t*m/b or the
        # expansion of H_k, and k = inf makes inf/inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = np.maximum(np.ceil(t * m / b), 1.0) - 1.0
            f_k = 1.0 + _harmonic(k)
            f_prev = 1.0 + _harmonic(np.maximum(k - 1.0, 0.0))
            return _inverse_level(np.minimum(b * f_k, t * m * f_prev / k),
                                  l00, c2)

    return _Procedure(float(m), c2, level, guess, floor, bounds)


def fdr_rvalues_all_threshold_dep(dataset: ValidatedDataset,
                                  config: AnalysisConfig) -> np.ndarray:
    """r-values valid under arbitrary primary-study dependence when the
    follow-up set was everything below a fixed primary cutoff t. Never below
    the floor of the level function (see the module docstring)."""
    proc = _threshold_procedure(config)
    return _exact_rvalues(proc, dataset.p1, dataset.p2)


def step_up_set_threshold_dep(dataset: ValidatedDataset,
                              config: AnalysisConfig,
                              q: float) -> frozenset[str]:
    """Ids claimed at level q under threshold-dependent selection; nothing
    is claimed below the floor of the level function."""
    return _step_up(dataset, q, _threshold_procedure(config))
