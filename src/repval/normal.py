"""Standard-normal survival and quantile functions.

Self-contained double precision so the simulation harness does not pull in
an external numerics stack: a Hart-style rational approximation for the
central region, a deep Gauss continued fraction for the tail, and Wichura's
rational quantile polished by log-space Newton steps in the far tail. All
routines are vectorised over numpy arrays and accept plain floats; the test
suite checks them against ``math.erfc`` and high-precision references
(relative error well below 1e-12, far inside the 1e-9 the rest of the
package assumes).
"""

from __future__ import annotations

import numpy as np

__all__ = ["normal_sf", "normal_quantile"]

_SQRT_TWO_PI = 2.5066282746310002
_LOG_TWO_PI = 1.8378770664093453
_LOG_SQRT_TWO_PI = 0.9189385332046727
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


# Wichura-style quantile coefficients (central and intermediate regions; the
# far tail is handled by Newton polish against the survival function).
_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
      1.9715909503065514427e3, 1.3731693765509461125e4,
      4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4,
      3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
      5.76949722146069140550e0, 3.64784832476320460504e0,
      1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1,
      1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)


def _ratio(r: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    n = np.full_like(r, num[-1])
    for c in reversed(num[:-1]):
        n = n * r + c
    d = np.full_like(r, den[-1])
    for c in reversed(den[:-1]):
        d = d * r + c
    return n / d


def _tail_quantile(pm: np.ndarray) -> np.ndarray:
    """x > 0 with P(Z > x) = pm, for pm < ~1.4e-11. Seeded from the leading
    asymptotic inversion of log sf(x) = -x^2/2 - log x - log sqrt(2*pi),
    then polished by log-space Newton against the continued-fraction
    survival function; everything stays in log space, so there is no
    underflow down to the smallest subnormal pm."""
    target = np.log(pm)
    v = -2.0 * target
    x = np.sqrt(v - np.log(v) - _LOG_TWO_PI)
    for _ in range(4):
        denom = _mills_denom(x)  # = pdf(x)/sf(x)
        log_sf = -0.5 * x * x - _LOG_SQRT_TWO_PI - np.log(denom)
        x = x + (log_sf - target) / denom
    return x


def normal_quantile(p):
    """x with P(Z <= x) = p, so normal_sf(-x) = p. Returns -inf/+inf at
    p = 0/1, NaN outside [0, 1]."""
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    out = np.full_like(arr, np.nan)
    q = arr - 0.5

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _ratio(r, _A, _B)

    pm = np.where(q < 0.0, arr, 1.0 - arr)  # min(p, 1-p)
    mid = ~central & (pm > 1.39e-11) & (pm > 0.0)
    if np.any(mid):
        r = np.sqrt(-np.log(pm[mid])) - 1.6
        x = _ratio(r, _C, _D)
        # polish the rational seed against the survival function; x is
        # in [1.44, 6.8] here so neither sf nor pdf can underflow
        for _ in range(2):
            pdf = np.exp(-0.5 * x * x) / _SQRT_TWO_PI
            x = x + (_upper_tail(x) - pm[mid]) / pdf
        out[mid] = np.sign(q[mid]) * x

    far = ~central & (pm <= 1.39e-11) & (pm > 0.0)
    if np.any(far):
        out[far] = np.sign(q[far]) * _tail_quantile(pm[far])

    out[(arr == 0.0)] = -np.inf
    out[(arr == 1.0)] = np.inf
    out[(arr < 0.0) | (arr > 1.0)] = np.nan
    return float(out[0]) if np.ndim(p) == 0 else out
