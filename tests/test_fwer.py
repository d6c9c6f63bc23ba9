import numpy as np
import pytest

from repval import AnalysisConfig, bonferroni_rvalues_all, validate_dataset
from repval.rvalue import c1

from conftest import TPP_M, TPP_PRINTED, dataset_from_arrays, \
    make_random_dataset
from _oracles import oracle_bonferroni, signif


def test_single_feature_closed_form():
    ds, config = dataset_from_arrays([0.025], [0.025], m=1, l00=0.0, c2=0.5)
    assert bonferroni_rvalues_all(ds, config)[0] == pytest.approx(
        0.05, abs=1e-12)


def test_tpp_rows(tpp_table):
    config = AnalysisConfig(m=TPP_M, l00=0.8, c2=0.5)
    ds = validate_dataset(tpp_table.records, config)
    values = bonferroni_rvalues_all(ds, config)
    # the published table carries two significant digits at five decimals
    printed = tuple(f"{signif(v, 2):.5f}" for v in values)
    assert printed == TPP_PRINTED
    assert values[0] == pytest.approx(0.00012231, abs=1e-8)
    assert values[3] == pytest.approx(0.00360857, abs=1e-8)
    assert (values < 0.05).all()


def test_all_ones_give_one():
    ds, config = dataset_from_arrays([1.0] * 3, [1.0] * 3, m=5)
    assert (bonferroni_rvalues_all(ds, config) == 1.0).all()


def test_bisection_matches_closed_form():
    rng = np.random.default_rng(19)
    for _ in range(40):
        records, m = make_random_dataset(rng)
        l00 = float(rng.uniform(0, 0.95))
        c2 = float(rng.uniform(0.1, 0.9))
        ds, config = dataset_from_arrays(
            [r.p1 for r in records], [r.p2 for r in records], m=m,
            l00=l00, c2=c2)
        got = bonferroni_rvalues_all(ds, config)
        for i in range(len(ds)):
            ref = oracle_bonferroni(ds.p1[i], ds.p2[i], m, len(ds), l00, c2)
            if ref < 1.0:
                assert got[i] == pytest.approx(ref, abs=1e-10)
            else:
                assert got[i] == 1.0


def test_monotone_in_l00():
    rng = np.random.default_rng(23)
    for _ in range(10):
        records, m = make_random_dataset(rng)
        p1 = [r.p1 for r in records]
        p2 = [r.p2 for r in records]
        prev = None
        for l00 in (0.0, 0.4, 0.8, 0.95):
            ds, config = dataset_from_arrays(p1, p2, m=m, l00=l00)
            values = bonferroni_rvalues_all(ds, config)
            if prev is not None:
                assert (values <= prev + 1e-12).all()
            prev = values


def test_threshold_equivalence():
    # r_j <= alpha exactly when f_j(alpha) <= alpha
    rng = np.random.default_rng(29)
    for _ in range(25):
        records, m = make_random_dataset(rng)
        l00 = float(rng.uniform(0, 0.9))
        ds, config = dataset_from_arrays(
            [r.p1 for r in records], [r.p2 for r in records], m=m, l00=l00)
        values = bonferroni_rvalues_all(ds, config)
        for alpha in (0.01, 0.05, 0.1, 0.3):
            c1_a = c1(alpha, config.l00, config.c2)
            f_alpha = np.maximum(m * ds.p1 / c1_a,
                                 len(ds) * ds.p2 / config.c2)
            assert ((values <= alpha) == (f_alpha <= alpha)).all()
