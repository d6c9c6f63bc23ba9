"""Standard-normal survival and quantile functions.

The survival function is vectorised numpy in double precision, so the
simulation harness does not pull in an external numerics stack: a
Hart-style rational approximation for |x| below 3.5, and in the tail the
standard library's ``math.erfc``, one Python call per value. The
simulation's tail values are few per call, and there that costs less than
numpy's per-call overhead over the steps of a deep continued fraction.
Rounding x / sqrt(2) bounds the tail's relative error, about 2e-13 near
x = 37. The quantile is the standard library's
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

_SQRT_TWO = math.sqrt(2.0)
_TAIL_SPLIT = 3.5
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _upper_tail(z: np.ndarray) -> np.ndarray:
    """P(Z > z) for z >= 0."""
    out = np.empty_like(z)
    core = z < _TAIL_SPLIT
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
    out[tail] = 0.5 * _ERFC(z[tail] / _SQRT_TWO).astype(float)
    return out


def normal_sf(x):
    """Upper-tail probability P(Z > x); accurate relatively in the far tail."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    upper = _upper_tail(np.abs(arr))
    out = np.where(arr >= 0.0, upper, 1.0 - upper)
    return float(out[0]) if np.ndim(x) == 0 else out


_EDGES = {0.0: -math.inf, 1.0: math.inf}  # inv_cdf raises on these


def _quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        return _EDGES.get(p, math.nan)
    import statistics  # slow to import, so only on the first call
    return statistics.NormalDist().inv_cdf(p)


def normal_quantile(p):
    """x with P(Z <= x) = p, so normal_sf(-x) = p. Returns -inf/+inf at
    p = 0/1, NaN outside [0, 1] or for NaN. Every input is mapped element
    by element as an array: a scalar gives a float, and an array keeps its
    shape."""
    arr = np.asarray(p, dtype=float)
    out = [_quantile(v) for v in arr.ravel().tolist()]
    return out[0] if arr.ndim == 0 else np.reshape(out, arr.shape)
