import numpy as np
import pytest

from repval import (AnalysisConfig, fdr_rvalues_all, max_p_bh, meta_p,
                    validate_dataset)
from repval.selection import bh_reject

from conftest import IGA_M, dataset_from_arrays, make_random_dataset
from _oracles import oracle_chi2_sf_4, signif, spearman


def test_max_p_single_feature():
    ds, config = dataset_from_arrays([0.03], [0.04], m=1, l00=0.0)
    assert max_p_bh(ds, config, 0.05) == frozenset({"f0"})
    ds2, config2 = dataset_from_arrays([0.03], [0.06], m=1, l00=0.0)
    assert max_p_bh(ds2, config2, 0.05) == frozenset()


def test_max_p_empty_dataset():
    ds, config = dataset_from_arrays([], [], m=100, l00=0.0)
    assert max_p_bh(ds, config, 0.05) == frozenset()


def test_max_p_reduces_to_plain_bh_at_l00_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p1, p2, m = make_random_dataset(rng)
        ds, config = dataset_from_arrays(p1, p2, m=m, l00=0.0)
        got = max_p_bh(ds, config, 0.05)
        padded = list(np.maximum(ds.p1, ds.p2)) + [1.0] * (m - len(ds))
        ref = {i for i in bh_reject(padded, 0.05) if i < len(ds)}
        assert got == frozenset(ds.ids[i] for i in ref)


def test_max_p_padding_both_regimes():
    # q / (1 - l00) exceeds 1 for q = 0.3, l00 = 0.8: a padded 1 then
    # passes, and so does every followed-up feature
    rng = np.random.default_rng(13)
    for q, l00 in ((0.05, 0.8), (0.3, 0.8), (0.2, 0.8), (0.3, 0.5)):
        for _ in range(10):
            p1, p2, m = make_random_dataset(rng, max_m=200)
            ds, config = dataset_from_arrays(p1, p2, m=m, l00=l00)
            padded = list(np.maximum(ds.p1, ds.p2)) + [1.0] * (m - len(ds))
            ref = {i for i in bh_reject(padded, q / (1.0 - l00))
                   if i < len(ds)}
            got = max_p_bh(ds, config, q)
            assert got == frozenset(ds.ids[i] for i in ref)
            if q / (1.0 - l00) >= 1.0:
                assert got == frozenset(ds.ids)


def test_max_p_rejects_q_outside_the_unit_interval(t2d_table):
    config = AnalysisConfig(m=68, l00=0.0)
    ds = validate_dataset(t2d_table, config)
    for q in (1.5, float("nan"), -0.1, 0.0, 1.0):
        with pytest.raises(ValueError, match="q must lie in \\(0, 1\\)"):
            max_p_bh(ds, config, q)


def test_max_p_level_inflation_monotone():
    rng = np.random.default_rng(9)
    p1, p2, m = make_random_dataset(rng, r1=15)
    prev = frozenset()
    for l00 in (0.0, 0.5, 0.8):
        ds, config = dataset_from_arrays(p1, p2, m=m, l00=l00)
        got = max_p_bh(ds, config, 0.05)
        assert prev <= got
        prev = got


def test_fisher_trivials():
    assert meta_p(1.0, 1.0, "fisher") == 1.0
    assert meta_p(0.5, 0.5, "stouffer") == pytest.approx(0.5, abs=1e-12)


def test_fisher_against_quadrature():
    got = meta_p(0.05, 0.05, "fisher")
    stat = -2.0 * (np.log(0.05) + np.log(0.05))
    assert got == pytest.approx(oracle_chi2_sf_4(float(stat)), rel=1e-9)
    assert signif(got, 3) == 0.0175


def test_fisher_monotone_and_symmetric():
    assert meta_p(0.01, 0.2) == pytest.approx(meta_p(0.2, 0.01), rel=1e-14)
    grid = [0.001, 0.01, 0.1, 0.5, 1.0]
    vals = [meta_p(p, 0.3) for p in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_stouffer_tiny_inputs_stay_in_range():
    v = meta_p(8.57e-14, 1e-16, "stouffer")
    assert 0.0 < v < 1e-12
    assert meta_p(1.0, 0.2, "stouffer") == pytest.approx(1.0)


def test_stouffer_against_mpmath():
    # Phi-bar((Phi-bar^-1(p1) + Phi-bar^-1(p2)) / sqrt(2)) at 40 digits, at
    # moderate and at tiny p
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        def z(p):  # Phi-bar^-1(p)
            return mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(p))

        for p1, p2 in ((0.01, 0.01), (8.57e-14, 1e-16)):
            ref = mp.erfc((z(p1) + z(p2)) / 2) / 2
            assert meta_p(p1, p2, "stouffer") == pytest.approx(float(ref),
                                                               rel=1e-12)


def test_meta_p_of_arrays_is_the_per_row_value():
    # one call on the columns gives each row's scalar value, bit for bit
    rng = np.random.default_rng(32)
    p1 = np.append(10.0 ** rng.uniform(-300, 0, 500), [1.0, 5e-324])
    p2 = np.append(10.0 ** rng.uniform(-20, 0, 500), [1.0, 1.0])
    for combiner in ("fisher", "stouffer"):
        rows = [meta_p(a, b, combiner) for a, b in zip(p1.tolist(),
                                                       p2.tolist())]
        assert all(type(value) is float for value in rows)
        got = meta_p(p1, p2, combiner)
        assert got.dtype == np.float64 and got.shape == p1.shape
        assert got.tolist() == rows
        assert meta_p(p1[:0], p2[:0], combiner).shape == (0,)


def test_meta_p_domain():
    for combiner in ("fisher", "stouffer"):
        for p1, p2 in ((0.0, 0.5), (0.5, 0.0),
                       (np.array([0.5, 0.0]), np.array([0.5, 0.5]))):
            with pytest.raises(ValueError,
                               match=r"meta_p needs p-values in \(0, 1\]"):
                meta_p(p1, p2, combiner)
    with pytest.raises(ValueError):
        meta_p(0.5, 1.2)
    with pytest.raises(ValueError):
        meta_p(0.5, 0.5, "tippett")


def test_rvalue_and_meta_rankings_differ(iga_table):
    config = AnalysisConfig(m=IGA_M, l00=0.8, c2=0.5)
    ds = validate_dataset(iga_table, config)
    rvalues = list(fdr_rvalues_all(ds, config))
    meta = [meta_p(r.p1, r.p2, "fisher") for r in ds.records]
    rho = spearman(rvalues, meta)
    assert rho < 0.999
