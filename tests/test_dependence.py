import math

import numpy as np
import pytest

from repval import (AnalysisConfig, DatasetError, FeatureRecord,
                    NoConsistentRegime, c1_tilde, fdr_rvalues_all,
                    fdr_rvalues_all_general_dep,
                    fdr_rvalues_all_threshold_dep, m_star, step_up_set,
                    step_up_set_general_dep, step_up_set_threshold_dep,
                    validate_dataset)
from repval.dependence import _harmonic
from repval.rvalue import c1

from conftest import dataset_from_arrays, make_random_dataset
from _oracles import oracle_c1_tilde, oracle_harmonic, oracle_step_up


def _threshold_instance(rng, t=None):
    """Random instance whose primary p-values all sit below a cutoff t."""
    r1 = int(rng.integers(1, 15))
    m = int(rng.integers(r1, 41))
    t = float(rng.uniform(0.01, 0.6)) if t is None else t
    p1 = t * 10.0 ** rng.uniform(-6, 0, r1)
    p2 = np.where(rng.random(r1) < 0.5,
                  10.0 ** rng.uniform(-6, 0, r1), rng.uniform(1e-4, 1.0, r1))
    return dataset_from_arrays(p1, p2, m=m, l00=float(rng.uniform(0, 0.9)),
                               c2=float(rng.uniform(0.2, 0.8)), t=t)


# --- harmonic machinery -----------------------------------------------------

def test_m_star_small_values():
    assert m_star(1) == 1.0
    assert m_star(3) == pytest.approx(5.5, rel=1e-15)


def test_harmonic_against_direct_summation():
    ns = (1, 2, 10, 500, 1024, 1025, 4000, 100000)
    # int64 counts, as the regime walk passes them, and integral floats
    for k in (np.array(ns), np.array(ns, dtype=float)):
        for n, h in zip(ns, _harmonic(k)):
            assert h == pytest.approx(oracle_harmonic(n), rel=1e-12)


def test_m_star_matches_direct_summation_at_scan_sizes():
    # the asymptotic expansion replaces direct summation from m = 1025 on
    for m in (1025, 68 * 7919, 444882, 10**6):
        assert m_star(m) == pytest.approx(m * oracle_harmonic(m), rel=1e-15)


def test_m_star_regimes_consistent():
    # direct summation just below the asymptotic switch, asymptotic above
    below, above = 10**6, 10**6 + 1
    ratio_below = m_star(below) / below
    ratio_above = m_star(above) / above
    assert ratio_above == pytest.approx(ratio_below + 1.0 / above, rel=1e-9)
    assert m_star(10) >= 10


def test_m_star_rejects_nonpositive():
    with pytest.raises(ValueError):
        m_star(0)


# --- c1 tilde ---------------------------------------------------------------

def test_c1_tilde_hand_example():
    # m=100, t=0.001, x=0.05, l00=0 -> c1=0.5; consistent regime k=17
    got = c1_tilde(0.05, 0.001, 100, 0.0, 0.5)
    assert got == pytest.approx(0.5 / (1.0 + oracle_harmonic(17)), rel=1e-12)
    assert got == pytest.approx(0.112624, abs=5e-7)
    # consistency: k recomputed from the returned value is 17
    assert math.ceil(0.001 * 100 / (got * 0.05) - 1.0) == 17


def test_c1_tilde_empty_sum_regime():
    # t <= c1(x) x / m leaves c1 untouched
    x, m, l00, c2 = 0.05, 100, 0.0, 0.5
    t = c1(x, l00, c2) * x / m * 0.5
    assert c1_tilde(x, t, m, l00, c2) == c1(x, l00, c2)


def test_c1_tilde_never_exceeds_c1():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = float(rng.uniform(1e-4, 0.999))
        t = float(rng.uniform(1e-6, 0.999))
        m = int(rng.integers(1, 10**6))
        l00 = float(rng.uniform(0, 0.99))
        c2 = float(rng.uniform(0.05, 0.95))
        assert c1_tilde(x, t, m, l00, c2) <= c1(x, l00, c2) + 1e-15


def test_c1_tilde_satisfies_defining_equation():
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = float(rng.uniform(0.001, 0.99))
        t = float(rng.uniform(1e-5, 0.9))
        m = int(rng.integers(1, 5000))
        l00 = float(rng.uniform(0, 0.95))
        c2 = float(rng.uniform(0.1, 0.9))
        a = c1_tilde(x, t, m, l00, c2)
        k = math.ceil(t * m / (a * x) - 1.0)
        k = max(k, 0)
        h = _harmonic(np.array([k]))[0] if k else 0.0
        assert a * (1.0 + h) == pytest.approx(
            c1(x, l00, c2), rel=1e-10)


def test_c1_tilde_matches_bruteforce_scan():
    rng = np.random.default_rng(21)
    for _ in range(40):
        x = float(rng.uniform(0.01, 0.9))
        t = float(rng.uniform(1e-4, 0.5))
        m = int(rng.integers(1, 300))
        l00 = float(rng.uniform(0, 0.9))
        c2 = float(rng.uniform(0.2, 0.8))
        ref = oracle_c1_tilde(x, t, m, l00, c2)
        assert ref is not None
        assert c1_tilde(x, t, m, l00, c2) == pytest.approx(ref, rel=1e-12)


def test_c1_tilde_handles_tiny_x():
    # bisection probes x near 1e-12 where the consistent regime is huge
    val = c1_tilde(1e-12, 0.5, 50, 0.8, 0.5)
    assert 0.0 < val < c1(1e-12, 0.8, 0.5)


def test_c1_tilde_domain_checks():
    with pytest.raises(ValueError):
        c1_tilde(0.0, 0.5, 10, 0.0, 0.5)
    with pytest.raises(ValueError):
        c1_tilde(0.5, 1.0, 10, 0.0, 0.5)


# --- general-dependence variant ---------------------------------------------

def test_general_dep_single_feature_equals_plain():
    ds, config = dataset_from_arrays([0.01], [0.02], m=1, l00=0.3, c2=0.5)
    assert fdr_rvalues_all_general_dep(ds, config).r_value("f0") == (
        fdr_rvalues_all(ds, config).r_value("f0"))


def test_general_dep_is_more_conservative():
    rng = np.random.default_rng(31)
    for _ in range(20):
        records, m = make_random_dataset(rng)
        ds, config = dataset_from_arrays(
            [r.p1 for r in records], [r.p2 for r in records], m=m,
            l00=float(rng.uniform(0, 0.9)), c2=float(rng.uniform(0.2, 0.8)))
        plain = fdr_rvalues_all(ds, config).values
        conservative = fdr_rvalues_all_general_dep(ds, config).values
        assert (conservative >= plain - 1e-12).all()


def test_general_dep_step_up_equivalence():
    rng = np.random.default_rng(37)
    qs = [round(0.01 * k, 2) for k in range(1, 21)]
    for _ in range(40):
        records, m = make_random_dataset(rng)
        ds, config = dataset_from_arrays(
            [r.p1 for r in records], [r.p2 for r in records], m=m,
            l00=float(rng.uniform(0, 0.9)), c2=float(rng.uniform(0.2, 0.8)))
        values = dict(fdr_rvalues_all_general_dep(ds, config).entries)
        for q in qs:
            via_r = {fid for fid, r in values.items() if r <= q}
            assert via_r == step_up_set_general_dep(ds, config, q)


def test_general_dep_step_up_matches_oracle():
    rng = np.random.default_rng(41)
    for _ in range(30):
        records, m = make_random_dataset(rng)
        l00 = float(rng.uniform(0, 0.9))
        c2 = float(rng.uniform(0.2, 0.8))
        q = float(rng.uniform(0.01, 0.25))
        ds, config = dataset_from_arrays(
            [r.p1 for r in records], [r.p2 for r in records], m=m,
            l00=l00, c2=c2)
        got = step_up_set_general_dep(ds, config, q)
        ref = oracle_step_up(list(ds.p1), list(ds.p2), m, l00, c2, q,
                             m_eff=m_star(m))
        assert got == frozenset(f"f{j}" for j in ref)


# --- threshold-dependent variant --------------------------------------------

def test_threshold_dep_requires_t():
    ds, config = dataset_from_arrays([0.01], [0.02], m=5)
    with pytest.raises(ValueError, match="needs config.t"):
        fdr_rvalues_all_threshold_dep(ds, config)


def test_threshold_dep_rejects_violations():
    records = [FeatureRecord("a", 0.4, 0.1)]
    config = AnalysisConfig(m=5, t=0.1)
    ds = validate_dataset(records, config)
    with pytest.raises(DatasetError, match="p1=0.4 above the selection "
                       "threshold t=0.1"):
        fdr_rvalues_all_threshold_dep(ds, config)


def test_threshold_dep_is_more_conservative():
    rng = np.random.default_rng(43)
    for _ in range(20):
        ds, config = _threshold_instance(rng)
        plain = fdr_rvalues_all(ds, config).values
        conservative = fdr_rvalues_all_threshold_dep(ds, config).values
        assert (conservative >= plain - 1e-12).all()


def test_threshold_dep_tiny_t_leaves_procedure_unchanged():
    # when t <= c1(q) q / m, the level-q claim set needs no modification
    rng = np.random.default_rng(47)
    q = 0.05
    for _ in range(20):
        records, m = make_random_dataset(rng, r1=8)
        l00 = float(rng.uniform(0, 0.9))
        c2 = float(rng.uniform(0.2, 0.8))
        t = c1(q, l00, c2) * q / m * 0.99
        p1 = np.array([r.p1 for r in records])
        p1 = p1 * (t / p1.max()) * 0.99  # legal cutoff: every p1 below t
        ds, config = dataset_from_arrays(p1, [r.p2 for r in records], m=m,
                                         l00=l00, c2=c2, t=t)
        assert (step_up_set_threshold_dep(ds, config, q)
                == step_up_set(ds, config, q))
        plain = fdr_rvalues_all(ds, config).values
        cons = fdr_rvalues_all_threshold_dep(ds, config).values
        assert ({i for i in range(len(ds)) if cons[i] <= q}
                == {i for i in range(len(ds)) if plain[i] <= q})


def test_threshold_dep_rvalue_equal_when_regime_never_bites():
    # post-hoc check: whenever t <= c1(r_i) r_i / m at a feature's own
    # fixed point, the modified r-value coincides with the plain one
    rng = np.random.default_rng(61)
    asserted = 0
    for trial in range(40):
        t = float(10.0 ** rng.uniform(-5, -3)) if trial % 2 else None
        ds, config = _threshold_instance(rng, t=t)
        plain = fdr_rvalues_all(ds, config).values
        cons = fdr_rvalues_all_threshold_dep(ds, config).values
        for i in range(len(ds)):
            r = plain[i]
            if r < 1.0 and config.t <= c1(r, config.l00, config.c2) * r / config.m:
                assert cons[i] == pytest.approx(r, abs=1e-10)
                asserted += 1
    assert asserted >= 3


def test_threshold_dep_floor_is_1e12():
    # c1~ has no consistent regime near x = 1e-17 at m = 1e6, t = 1e-4, so
    # the level function is never taken below 1e-12 and the r-value
    # reported is max(r, 1e-12)
    with pytest.raises(NoConsistentRegime):
        c1_tilde(1e-17, 1e-4, 10**6, 0.8, 0.5)
    ds, config = dataset_from_arrays([1e-30, 1e-9], [1e-20, 1e-3], m=10**6,
                                     l00=0.8, c2=0.5, t=1e-4)
    values = fdr_rvalues_all_threshold_dep(ds, config).values
    assert values[0] == 1e-12
    assert fdr_rvalues_all(ds, config).values[0] < 1e-12
    assert 1e-12 < values[1] < 1.0
    assert "f0" in step_up_set_threshold_dep(ds, config, 1e-9)


def test_threshold_dep_step_up_equivalence():
    rng = np.random.default_rng(53)
    qs = [round(0.01 * k, 2) for k in range(1, 21)]
    for _ in range(30):
        ds, config = _threshold_instance(rng)
        values = dict(fdr_rvalues_all_threshold_dep(ds, config).entries)
        for q in qs:
            via_r = {fid for fid, r in values.items() if r <= q}
            assert via_r == step_up_set_threshold_dep(ds, config, q)


def test_item3_beats_item2_only_below_bound():
    # more rejections from the threshold variant than from the harmonic
    # variant can only happen when t < c1(q) q / (1 + H_{m-1}); instances
    # mix wide and very tight cutoffs so both sides of the bound occur
    rng = np.random.default_rng(59)
    q = 0.05
    observed_beats = 0
    for trial in range(120):
        tight = trial % 2 == 0
        t = float(10.0 ** rng.uniform(-5, -2)) if tight else None
        ds, config = _threshold_instance(rng, t=t)
        n3 = len(step_up_set_threshold_dep(ds, config, q))
        n2 = len(step_up_set_general_dep(ds, config, q))
        if n3 > n2:
            observed_beats += 1
            bound = (c1(q, config.l00, config.c2) * q
                     / (1.0 + oracle_harmonic(config.m - 1)))
            assert config.t < bound
    assert observed_beats >= 1  # the comparison is exercised, not vacuous
