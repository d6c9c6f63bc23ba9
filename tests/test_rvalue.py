import numpy as np
import pytest

from repval import (AnalysisConfig, bonferroni_rvalues_all, fdr_rvalues_all,
                    fdr_rvalues_all_general_dep,
                    fdr_rvalues_all_threshold_dep, step_up_set,
                    step_up_set_general_dep, validate_dataset)
from repval.rvalue import c1

from conftest import IGA_M, IGA_SIGNIFICANT, dataset_from_arrays, \
    make_random_dataset
from _oracles import (oracle_adjusted_capped, oracle_e_values, oracle_f,
                      oracle_max_ranks, oracle_step_up)


def _f(ds, config, x, i):
    """The paper's step-up-adjusted value f_i(x), by the reference."""
    return oracle_f(list(ds.p1), list(ds.p2), config.m, config.l00,
                    config.c2, x, i)


# --- c1 ---------------------------------------------------------------------

def test_c1_collapses_without_null_fraction():
    assert c1(0.05, 0.0, 0.5) == 0.5


def test_c1_hand_evaluation():
    assert c1(0.05, 0.8, 0.5) == pytest.approx(0.5 / 0.22, rel=1e-15)


def test_c1_limit_at_zero():
    assert c1(1e-15, 0.8, 0.5) == pytest.approx(2.5, rel=1e-12)


def test_c1_shape_in_x():
    # c1 itself decreases in x (for l00 > 0), but the budget product
    # x * c1(x) strictly increases; that is the monotonicity the fixed
    # point computation rests on. At l00 = 0 c1 is the constant 1 - c2.
    xs = np.linspace(0.01, 0.99, 50)
    vals = [c1(float(x), 0.8, 0.5) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    products = [x * v for x, v in zip(xs, vals)]
    assert all(a < b for a, b in zip(products, products[1:]))
    flat = [c1(float(x), 0.0, 0.5) for x in xs]
    assert all(v == 0.5 for v in flat)


# --- e-values and f_i (the reference the fixed-point checks rest on) -------

def test_single_symmetric_feature():
    e = oracle_e_values([0.05], [0.05], 1, 0.0, 0.5, 0.3)
    assert e[0] == pytest.approx(0.1, rel=1e-15)
    assert oracle_max_ranks(e) == [1]


def test_iga_evalue_hand_check(iga_dataset):
    ds, _ = iga_dataset
    e = oracle_e_values(list(ds.p1), list(ds.p2), IGA_M, 0.0, 0.5, 0.05)
    idx = ds.ids.index("chr6:32779226")  # p1=3.28e-8, p2=3.57e-6
    expected = max(3.28e-8 / 0.5, 61 * 3.57e-6 / (IGA_M * 0.5))
    assert e[idx] == pytest.approx(expected, rel=1e-15)
    assert e[idx] == pytest.approx(6.56e-8, rel=1e-12)


def test_tied_features_share_maximum_rank():
    e = oracle_e_values([0.01, 0.01], [0.2, 0.2], 10, 0.0, 0.5, 0.1)
    assert e[0] == e[1]
    assert oracle_max_ranks(e) == [2, 2]


def test_f_single_feature_constant():
    ds, config = dataset_from_arrays([0.05], [0.05], m=1, l00=0.0, c2=0.5)
    for x in (0.01, 0.3, 0.9):
        assert _f(ds, config, x, 0) == pytest.approx(0.1, rel=1e-15)


def test_f_iga_minimiser_is_second_ranked_feature(iga_dataset):
    ds, _ = iga_dataset
    config = AnalysisConfig(m=IGA_M, l00=0.0, c2=0.5)
    got = _f(ds, config, 0.02, ds.ids.index("chr6:32779226"))
    # f is constant in x at l00 = 0, so it is the r-value itself
    expected = fdr_rvalues_all(ds, config)[ds.ids.index("chr6:32779226")]
    assert got == pytest.approx(expected, rel=1e-12)
    assert round(got, 4) == 0.0224


def test_f_over_x_strictly_decreasing():
    rng = np.random.default_rng(7)
    xs = np.linspace(0.01, 0.99, 50)
    for _ in range(10):
        p1, p2, m = make_random_dataset(rng)
        ds, config = dataset_from_arrays(
            p1, p2, m=m, l00=float(rng.uniform(0, 0.95)),
            c2=float(rng.uniform(0.1, 0.9)))
        ratios = np.array([[_f(ds, config, float(x), i) / x
                            for i in range(len(ds))] for x in xs])
        assert (np.diff(ratios, axis=0) < 0).all()


# --- r-values ---------------------------------------------------------------

def test_rvalue_single_feature_fixed_point():
    ds, config = dataset_from_arrays([0.05], [0.05], m=1, l00=0.0, c2=0.5)
    assert fdr_rvalues_all(ds, config)[0] == pytest.approx(
        0.1, abs=1e-12)


def test_rvalue_iga_headline_row(iga_dataset):
    ds, _ = iga_dataset
    for l00, expected in ((0.0, 0.0243), (0.5, 0.0150), (0.8, 0.0074)):
        config = AnalysisConfig(m=IGA_M, l00=l00, c2=0.5)
        got = fdr_rvalues_all(ds, config)[ds.ids.index("chr6:32685358")]
        assert round(got, 4) == expected


def test_rvalue_t2d_first_row(t2d_table):
    config = AnalysisConfig(m=68, l00=0.0, c2=0.5)
    ds = validate_dataset(t2d_table, config)
    values = fdr_rvalues_all(ds, config)
    assert round(values[ds.ids.index("chr7:27953796")], 4) == 0.0055


def test_iga_significant_counts(iga_table):
    from repval import read_pvalue_table  # noqa: F401  (fixture supplies table)
    for l00, expected in IGA_SIGNIFICANT.items():
        config = AnalysisConfig(m=IGA_M, l00=l00, c2=0.5)
        ds = validate_dataset(iga_table, config)
        values = fdr_rvalues_all(ds, config)
        assert tuple(round(v, 4) for v in values[:7]) == expected
        assert (values[7:] == 1.0).all()


def test_t2d_five_replicated(t2d_table):
    config = AnalysisConfig(m=68, l00=0.0, c2=0.5)
    ds = validate_dataset(t2d_table, config)
    values = fdr_rvalues_all(ds, config)
    assert int((values <= 0.05).sum()) == 5


def test_empty_dataset_empty_report():
    ds, config = dataset_from_arrays([], [], m=5)
    assert fdr_rvalues_all(ds, config).shape == (0,)
    assert step_up_set(ds, config, 0.05) == frozenset()


def test_fixed_point_residual(iga_dataset):
    ds, _ = iga_dataset
    rng = np.random.default_rng(3)
    cases = [(ds, AnalysisConfig(m=IGA_M, l00=l, c2=0.5))
             for l in (0.0, 0.5, 0.8)]
    for _ in range(10):
        p1, p2, m = make_random_dataset(rng)
        cases.append(dataset_from_arrays(
            p1, p2, m=m, l00=float(rng.uniform(0, 0.95)),
            c2=float(rng.uniform(0.1, 0.9))))
    for data, config in cases:
        for i, r in enumerate(fdr_rvalues_all(data, config)):
            if r < 1.0:
                assert abs(_f(data, config, r, i) - r) <= 1e-9


def test_l00_zero_reduces_to_adjusted_evalues():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p1, p2, m = make_random_dataset(rng)
        c2 = float(rng.uniform(0.1, 0.9))
        ds, config = dataset_from_arrays(p1, p2, m=m, l00=0.0, c2=c2)
        got = fdr_rvalues_all(ds, config)
        ref = oracle_adjusted_capped(list(ds.p1), list(ds.p2), m, c2)
        assert np.allclose(got, ref, rtol=0, atol=1e-10)


def test_rvalues_monotone_in_l00():
    rng = np.random.default_rng(13)
    grid = (0.0, 0.3, 0.6, 0.9)
    for _ in range(15):
        p1, p2, m = make_random_dataset(rng)
        prev = None
        for l00 in grid:
            ds, config = dataset_from_arrays(p1, p2, m=m, l00=l00, c2=0.5)
            values = fdr_rvalues_all(ds, config)
            if prev is not None:
                assert (values <= prev + 1e-12).all()
            prev = values


@pytest.mark.parametrize("rvalues_fn", [
    fdr_rvalues_all, fdr_rvalues_all_general_dep,
    fdr_rvalues_all_threshold_dep, bonferroni_rvalues_all],
    ids=["fdr", "fdr-general-dep", "fdr-threshold-dep", "fwer-bonferroni"])
def test_record_order_never_matters(rvalues_fn):
    rng = np.random.default_rng(17)
    p1, p2, m = make_random_dataset(rng, r1=40, spread=(-8.0, -0.5))
    # f0 and f1 tie in both p-values; the eight next strongest follow-up
    # p-values tie in pairs, so their v = p2 * R1 / c2 tie too
    p1[:2], p2[:2] = 1e-7, 1e-4
    strong = np.argsort(p2[2:], kind="stable")[:8] + 2
    p2[strong[1::2]] = p2[strong[::2]]
    # t = 0.5 lies above every p1 (at most 10^-0.5)
    ds, config = dataset_from_arrays(p1, p2, m=m, l00=0.7, t=0.5)
    base = rvalues_fn(ds, config)
    assert (base[:2] < 1.0).all() and (base[strong] < 1.0).all()
    for _ in range(3):
        perm = rng.permutation(len(ds))
        shuffled = validate_dataset([ds.records[i] for i in perm], config)
        # record i of the shuffled set is record perm[i] of the original
        assert (rvalues_fn(shuffled, config).view(np.int64)
                == base[perm].view(np.int64)).all()


# --- step-up ----------------------------------------------------------------

def test_step_up_hand_example():
    ds, config = dataset_from_arrays(
        [1e-5, 2e-4, 6e-4], [1e-3, 5e-3, 0.9], m=100, l00=0.0, c2=0.5)
    assert step_up_set(ds, config, 0.05) == frozenset({"f0", "f1"})


def test_step_up_all_ones_rejects_nothing():
    ds, config = dataset_from_arrays([1.0] * 4, [1.0] * 4, m=10)
    assert step_up_set(ds, config, 0.05) == frozenset()


def test_step_up_iga_matches_table(iga_dataset):
    ds, config = iga_dataset
    assert step_up_set(ds, config, 0.05) == frozenset(ds.ids[:7])


def test_step_up_matches_oracle_on_random_data():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p1, p2, m = make_random_dataset(rng, with_ties=bool(rng.integers(2)))
        l00 = float(rng.uniform(0, 0.95))
        c2 = float(rng.uniform(0.1, 0.9))
        q = float(rng.uniform(0.01, 0.3))
        ds, config = dataset_from_arrays(p1, p2, m=m, l00=l00, c2=c2)
        got = step_up_set(ds, config, q)
        ref = oracle_step_up(list(ds.p1), list(ds.p2), m, l00, c2, q)
        assert got == frozenset(f"f{j}" for j in ref)


def test_threshold_and_rvalue_routes_agree():
    rng = np.random.default_rng(29)
    qs = [round(0.01 * k, 2) for k in range(1, 21)]
    for _ in range(60):
        p1, p2, m = make_random_dataset(rng, with_ties=bool(rng.integers(2)))
        ds, config = dataset_from_arrays(
            p1, p2, m=m, l00=float(rng.uniform(0, 0.95)),
            c2=float(rng.uniform(0.1, 0.9)))
        values = dict(zip(ds.ids, fdr_rvalues_all(ds, config)))
        for q in qs:
            via_rvalues = {fid for fid, r in values.items() if r <= q}
            assert via_rvalues == step_up_set(ds, config, q)


def test_rvalue_far_below_1e12_matches_step_up():
    # a search floored at 1e-12 reported 1e-12 here, yet the step-up rule
    # already rejects the feature at q = 1e-13
    ds, config = dataset_from_arrays([1e-30], [1e-20], m=10**6)
    q = 1e-13
    assert "f0" in step_up_set(ds, config, q)
    assert "f0" in step_up_set_general_dep(ds, config, q)
    for rvalues_fn in (fdr_rvalues_all, fdr_rvalues_all_general_dep,
                       bonferroni_rvalues_all):
        r = rvalues_fn(ds, config)[0]
        assert r == pytest.approx(2e-20, rel=1e-12)  # p2 * R1 / c2 binds


def test_report_shape(iga_dataset):
    ds, config = iga_dataset
    values = fdr_rvalues_all(ds, config)
    assert values.dtype == np.float64 and values.shape == (len(ds),)
    assert ((values > 0) & (values <= 1.0)).all()
