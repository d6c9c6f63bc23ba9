import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repval import normal
from repval.normal import normal_quantile, normal_sf

# reference quantiles (60-digit root-finding, truncated to double)
QUANTILE_REFERENCE = {
    0.5: 0.0,
    0.9: 1.2815515655446006,
    0.95: 1.6448536269514723,
    0.975: 1.9599639845400539,
    0.99: 2.3263478740408408,
    0.999: 3.0902323061678133,
    0.0000001: -5.1993375821928169,
    0.00001: -4.2648907939228246,
    0.001: -3.0902323061678135,
    0.25: -0.67448975019608174,
}


def test_quantile_matches_reference_constants():
    for p, ref in QUANTILE_REFERENCE.items():
        assert normal_quantile(p) == pytest.approx(ref, abs=1e-12)


def test_quantile_absolute_error_bound():
    mp = pytest.importorskip("mpmath")
    probs = [1e-300, 1e-100, 1e-40, 1e-15, 1.39e-11, 1.4e-11, 1e-9, 1e-6,
             1e-3, 0.07, 0.08, 0.3, 0.5, 0.77, 0.97, 1 - 1e-7, 1 - 1e-12]
    for p in probs:
        seed = normal_quantile(p)
        start = seed if abs(seed) > 1e-8 else 1e-3
        with mp.workdps(50):
            ref = float(mp.findroot(lambda x: mp.ncdf(x) - mp.mpf(p), start))
        assert abs(normal_quantile(p) - ref) < 1e-9
        assert abs(normal_quantile(p) - ref) < 5e-12  # actual headroom


def test_quantile_relative_error_against_mpmath():
    mp = pytest.importorskip("mpmath")
    # log grid over the lower half, down to the smallest subnormal, and its
    # mirror 1 - p wherever that is below 1
    lower = np.geomspace(5e-324, 0.5, 600, endpoint=False)
    upper = 1.0 - lower[1.0 - lower < 1.0]

    def lower_root(tail):  # x with P(Z <= x) = tail <= 1/2, in log space
        target = mp.log(tail)
        return float(mp.findroot(lambda x: mp.log(mp.ncdf(x)) - target,
                                 normal_quantile(float(tail))))

    with mp.workdps(40):
        cases = [(p, lower_root(mp.mpf(p))) for p in lower.tolist()]
        cases += [(p, -lower_root(1 - mp.mpf(p))) for p in upper.tolist()]
    for p, ref in cases:
        assert abs(normal_quantile(p) - ref) <= 1e-15 * abs(ref), p


def test_cdf_and_sf_match_erfc():
    for x in np.linspace(-36.0, 36.0, 4001):
        x = float(x)
        ref_upper = 0.5 * math.erfc(x / math.sqrt(2.0))
        if ref_upper > 1e-300:
            assert normal_sf(x) == pytest.approx(ref_upper, rel=5e-13)
        ref_lower = 0.5 * math.erfc(-x / math.sqrt(2.0))
        if ref_lower > 1e-300:
            assert normal_sf(-x) == pytest.approx(ref_lower, rel=5e-13)


@pytest.mark.parametrize("fn", [normal_sf, normal_quantile])
def test_empty_array_maps_to_an_empty_float_array(fn):
    out = fn(np.array([]))
    assert out.dtype == np.float64 and out.shape == (0,)


@pytest.mark.parametrize("x", [np.linspace(-3.49, 3.49, 51),
                               np.linspace(3.5, 36.0, 51),
                               np.linspace(-36.0, -3.5, 51)],
                         ids=["core-only", "upper-tail-only",
                              "lower-tail-only"])
def test_sf_of_an_array_on_one_side_of_the_split_matches_erfc(x):
    # |x| below 3.5 takes the rational approximation, at or above it erfc;
    # an array wholly on one side leaves the other side's selection empty
    ref = [0.5 * math.erfc(v / math.sqrt(2.0)) for v in x.tolist()]
    np.testing.assert_allclose(normal_sf(x), ref, rtol=5e-13, atol=0.0)
    if x[0] >= 3.5:  # the upper tail is erfc's value, from 3.5 itself on
        assert normal_sf(x).tolist() == ref


def test_tail_roundtrip():
    for x in np.linspace(-37.0, 0.0, 500):
        p = normal_sf(-float(x))
        assert normal_quantile(p) == pytest.approx(float(x), abs=1e-8)


def test_vectorised_and_scalar_forms_agree():
    xs = np.array([-3.0, -0.5, 0.0, 1.7, 9.0])
    vec = normal_sf(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert normal_sf(float(x)) == v
    assert isinstance(normal_sf(0.3), float)
    assert isinstance(normal_quantile(0.3), float)


def test_edge_probabilities():
    assert normal_quantile(0.0) == -math.inf
    assert normal_quantile(1.0) == math.inf
    assert math.isnan(normal_quantile(-0.1))
    assert math.isnan(normal_quantile(1.1))
    assert normal_sf(-math.inf) == 1.0
    assert normal_sf(math.inf) == 0.0


def test_subnormal_probabilities_stay_finite():
    x = normal_quantile(5e-324)
    assert -40.0 < x < -38.0
    assert math.isfinite(x)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_cdf_sf_complement(x):
    # P(Z <= x) = normal_sf(-x)
    assert normal_sf(-x) + normal_sf(x) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
       st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_quantile_monotone(p, q):
    lo, hi = sorted((p, q))
    assert normal_quantile(lo) <= normal_quantile(hi)


@pytest.mark.parametrize("fn", [normal_sf, normal_quantile])
def test_two_dimensional_input_matches_rows(fn):
    rows = np.random.default_rng(3).standard_normal((4, 257)) * 4.0
    rows[1, :5] = (0.0, -0.0, 3.5, -3.5, 40.0)
    if fn is normal_quantile:  # probabilities, both ends and outside [0, 1]
        rows = normal_sf(rows)
        rows[2, :4] = (0.0, 1.0, 1.5, np.nan)
    out = fn(rows)
    assert out.shape == rows.shape
    for row, got in zip(rows, out):
        assert np.array_equal(got, fn(row), equal_nan=True)


def test_cli_import_leaves_statistics_unloaded():
    # the quantile imports statistics on its first call; a run that needs
    # no quantile (rvalues without --meta stouffer) never pays for it
    check = ("import sys, repval.cli; "
             "assert 'statistics' not in sys.modules, 'loaded at import'")
    env = {**os.environ, "PYTHONPATH": str(Path(normal.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", check], env=env, timeout=60,
                   check=True)
