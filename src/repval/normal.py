"""Standard-normal survival and quantile functions.

The survival function is vectorised numpy in double precision, so the
simulation harness does not pull in an external numerics stack: a
Hart-style rational approximation for the central region and a deep Gauss
continued fraction for the tail. The quantile is the standard library's
``statistics.NormalDist().inv_cdf`` (Wichura's AS 241), imported on first
use and applied element by element to arrays. Both accept plain floats;
the test suite checks them against ``math.erfc`` and mpmath references
(relative error within 5e-13 for the survival function and 1e-15 for the
quantile, far inside the 1e-9 the rest of the package assumes).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["normal_sf", "normal_quantile"]

_SQRT_TWO_PI = 2.5066282746310002
_TAIL_SPLIT = 3.5
_CF_DEPTH = 48


def _mills_denom(z: np.ndarray) -> np.ndarray:
    """z + R(z) where sf(z) = pdf(z) / (z + R(z)), via the Gauss continued
    fraction R(z) = 1/(z + 2/(z + 3/(z + ...))) evaluated backward at fixed
    depth. Accurate to ~1e-15 relative for z >= 3."""
    r = np.zeros_like(z)
    for k in range(_CF_DEPTH, 0, -1):
        r = k / (z + r)
    return z + r


def _upper_tail(z: np.ndarray) -> np.ndarray:
    """P(Z > z) for z >= 0."""
    out = np.empty_like(z)
    core = z < _TAIL_SPLIT
    if np.any(core):
        zc = z[core]
        ex = np.exp(-0.5 * zc * zc)
        num = 3.52624965998911e-2
        for c in (0.700383064443688, 6.37396220353165, 33.912866078383,
                  112.079291497871, 221.213596169931, 220.206867912376):
            num = num * zc + c
        den = 8.83883476483184e-2
        for c in (1.75566716318264, 16.064177579207, 86.7807322029461,
                  296.564248779674, 637.333633378831, 793.826512519948,
                  440.413735824752):
            den = den * zc + c
        out[core] = ex * num / den
    tail = ~core
    if np.any(tail):
        zt = np.minimum(z[tail], 40.0)
        out[tail] = np.exp(-0.5 * zt * zt) / (_mills_denom(zt) * _SQRT_TWO_PI)
    return out


def normal_sf(x):
    """Upper-tail probability P(Z > x); accurate relatively in the far tail."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    upper = _upper_tail(np.abs(arr))
    out = np.where(arr >= 0.0, upper, 1.0 - upper)
    return float(out[0]) if np.ndim(x) == 0 else out


_EDGES = {0.0: -math.inf, 1.0: math.inf}  # inv_cdf raises on these


def _inv_cdf(p: float) -> float:
    """Rebinds itself to NormalDist().inv_cdf; statistics is slow to import."""
    global _inv_cdf
    from statistics import NormalDist
    _inv_cdf = NormalDist().inv_cdf
    return _inv_cdf(p)


def _quantile(p: float) -> float:
    return _inv_cdf(p) if 0.0 < p < 1.0 else _EDGES.get(p, math.nan)


def normal_quantile(p):
    """x with P(Z <= x) = p, so normal_sf(-x) = p. Returns -inf/+inf at
    p = 0/1, NaN outside [0, 1] or for NaN. A scalar gives a float; an
    array is mapped element by element and keeps its shape."""
    if isinstance(p, float):  # the simulation's scalar calls skip asarray,
        return _quantile(p)   # which costs more than inv_cdf itself
    arr = np.asarray(p, dtype=float)
    out = [_quantile(v) for v in arr.ravel().tolist()]
    return out[0] if arr.ndim == 0 else np.reshape(out, arr.shape)
