import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repval import (AnalysisConfig, fdr_rvalues_all, refine_for_replicability,
                    step_up_set, validate_dataset)
from repval.rvalue import c1
from repval.selection import bh_reject

from conftest import (IGA_M, REFINED_IGA_SIGNIFICANT, dataset_from_arrays,
                      make_random_dataset)
from _oracles import oracle_bh


def test_bh_hand_example():
    assert set(bh_reject([0.01, 0.04, 0.9], 0.05)) == {0}


def test_bh_degenerate_vectors():
    assert len(bh_reject([1.0, 1.0, 1.0], 0.05)) == 0
    assert set(bh_reject([0.0, 0.0], 0.05)) == {0, 1}
    assert len(bh_reject([], 0.05)) == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=0, max_size=25),
       st.floats(min_value=0.001, max_value=0.999))
def test_bh_matches_bruteforce(pvalues, level):
    n = len(pvalues)
    # a p-value exactly on a step boundary flips with float association
    # order; such knife-edge ties are out of scope for the comparison
    assume(all(abs(p - k * level / n) > 1e-9
               for p in pvalues for k in range(1, n + 1)))
    assert set(bh_reject(pvalues, level)) == oracle_bh(pvalues, level)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=0, max_size=12),
       st.integers(min_value=0, max_value=60),
       st.sampled_from((0.01, 0.05, 0.3, 0.999, 1.0, 1.2, 5.0)))
def test_bh_padding_matches_materialised_ones(pvalues, extra, level):
    # at level >= 1 a padded 1 passes and everything is rejected; below 1
    # no value 1 ever passes
    padded = bh_reject(pvalues + [1.0] * extra, level)
    got = bh_reject(pvalues, level, n=len(pvalues) + extra)
    assert list(got) == [int(i) for i in padded if i < len(pvalues)]


def _bh_sorting_all(p, level, n):
    """BH that sorts every p-value, with the same float expressions."""
    step = level / n
    order = np.argsort(p, kind="stable")
    passing = np.nonzero(p[order] <= np.arange(1, len(p) + 1) * step)[0]
    if len(passing) == 0:
        return np.zeros(0, dtype=int)
    return np.sort(order[:passing[-1] + 1])


@st.composite
def _step_edge_inputs(draw):
    """p-values on, and one ulp either side of, the BH step thresholds,
    with ties, mixed with arbitrary ones."""
    size = draw(st.integers(min_value=1, max_value=20))
    n = size + draw(st.integers(min_value=0, max_value=10))
    level = draw(st.sampled_from((0.05, 0.1, 0.3, 0.999)))
    step = level / n
    edge = st.integers(min_value=1, max_value=size).map(lambda k: k * step)
    nudged = edge.flatmap(lambda v: st.sampled_from(
        (v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, 1.0)))))
    p = draw(st.lists(st.one_of(nudged, st.floats(0.0, 1.0)),
                      min_size=size, max_size=size))
    return np.array(p), level, n


@settings(max_examples=300, deadline=None)
@given(_step_edge_inputs())
def test_bh_sorts_only_candidates_without_changing_the_result(inputs):
    p, level, n = inputs
    assert np.array_equal(bh_reject(p, level, n=n),
                          _bh_sorting_all(p, level, n))


def test_bh_padding_at_level_one_follows_float_rounding():
    # 49 * (1 / 49) rounds below 1, so at level 1 and n = 49 the padded
    # ones just fail; at n = 50 they pass
    p = [0.5, 0.9]
    for n in (49, 50):
        padded = bh_reject(p + [1.0] * (n - 2), 1.0)
        assert list(bh_reject(p, 1.0, n=n)) == [i for i in padded if i < 2]
    assert list(bh_reject(p, 1.0, n=49)) == []
    assert list(bh_reject(p, 1.0, n=50)) == [0, 1]
    with pytest.raises(ValueError):
        bh_reject(p, 0.05, n=1)


def test_bh_rejects_a_level_not_positive_and_finite():
    for level in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ValueError, match="level must be positive and "
                                             "finite"):
            bh_reject([0.01, 0.5], level)
    assert list(bh_reject([0.01, 0.5], 1.5)) == [0, 1]  # above 1 is valid


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
def test_bh_rejects_a_pvalue_outside_the_unit_interval(bad):
    # at a level of 1.5 every p-value in [0, 1] passes, padded or not
    for n in (None, 5):
        with pytest.raises(ValueError, match=re.escape(
                f"p-value {bad!r} at index 1 is not in [0, 1]")):
            bh_reject([0.01, bad, 0.5], 1.5, n=n)
    with pytest.raises(ValueError, match="level"):  # the level comes first
        bh_reject([bad], 0.0)


def test_step_up_and_refinement_reject_q_outside_the_unit_interval(
        t2d_table):
    config = AnalysisConfig(m=68, l00=0.0)
    ds = validate_dataset(t2d_table, config)
    for fn in (step_up_set, refine_for_replicability):
        for q in (1.5, float("nan"), -0.1, 0.0, 1.0):
            with pytest.raises(ValueError, match="q must lie in \\(0, 1\\)"):
                fn(ds, config, q)


def test_bh_level_agrees_with_realised_cutoff():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = np.array(10.0 ** rng.uniform(-6, 0, int(rng.integers(1, 30))))
        alpha = float(rng.uniform(0.01, 0.4))
        selected = bh_reject(p, alpha)
        if len(selected) == 0:
            continue
        cutoff = p[selected].max()
        assert list(np.nonzero(p <= cutoff)[0]) == list(selected)


def test_stability_by_perturbation():
    # BH at a fixed level is a stable rule: changing one selected feature's
    # p-value, keeping it below the realised cutoff, leaves the selected
    # set unchanged
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(0, 0.2, 12)
        base = list(bh_reject(p, 0.3))
        if not base:
            continue
        cutoff = p[base].max()
        j = base[rng.integers(len(base))]
        for _ in range(5):
            perturbed = p.copy()
            perturbed[j] = rng.uniform(0, cutoff)
            assert list(bh_reject(perturbed, 0.3)) == base


def test_refine_iga_keeps_fourteen(iga_dataset):
    ds, config = iga_dataset
    reduced = refine_for_replicability(ds, config, 0.05)
    assert len(reduced) == 14
    report = fdr_rvalues_all(reduced, config)
    values = dict(zip(reduced.ids, report))
    headline = ["chr6:32685358", "chr8:6810195", "chr6:32779226",
                "chr22:28753460", "chr6:30049922", "chr17:7403693",
                "chr17:7431901"]
    got = tuple(round(values[fid], 3) for fid in headline)
    assert got == REFINED_IGA_SIGNIFICANT


def test_refine_never_loses_claims(iga_dataset):
    ds, config = iga_dataset
    full = {fid for fid, r in zip(ds.ids, fdr_rvalues_all(ds, config))
            if r <= 0.05}
    reduced = refine_for_replicability(ds, config, 0.05)
    refined = {fid for fid, r in zip(reduced.ids,
                                     fdr_rvalues_all(reduced, config))
               if r <= 0.05}
    assert full <= refined


def test_refine_shrinks_rvalues(iga_dataset):
    ds, config = iga_dataset
    full = dict(zip(ds.ids, fdr_rvalues_all(ds, config)))
    reduced = refine_for_replicability(ds, config, 0.05)
    for fid, r in zip(reduced.ids, fdr_rvalues_all(reduced, config)):
        assert r <= full[fid] + 1e-12


def test_refine_monotone_with_theoretical_level():
    # a BH screen at level c1(q) q, padded like refinement, provably keeps
    # every feature able to reach q
    rng = np.random.default_rng(17)
    q = 0.05
    for _ in range(20):
        p1, p2, m = make_random_dataset(rng)
        l00 = float(rng.uniform(0, 0.9))
        ds, config = dataset_from_arrays(p1, p2, m=m, l00=l00)
        full = {fid for fid, r in zip(ds.ids, fdr_rvalues_all(ds, config))
                if r <= q}
        level = c1(q, config.l00, config.c2) * q
        reduced = ds.subset(bh_reject(ds.p1, level, n=m))
        refined_report = dict(zip(reduced.ids,
                                  fdr_rvalues_all(reduced, config)))
        refined = {fid for fid, r in refined_report.items() if r <= q}
        assert full <= refined


def test_refine_padding_matches_materialised_ones():
    rng = np.random.default_rng(19)
    for q in (0.05, 0.5, 0.95):
        for _ in range(10):
            p1, p2, m = make_random_dataset(rng, max_m=200)
            ds, config = dataset_from_arrays(p1, p2, m=m)
            got = refine_for_replicability(ds, config, q)
            padded = bh_reject(np.concatenate(
                [ds.p1, np.ones(m - len(ds))]), q)
            assert got.ids == tuple(ds.ids[i] for i in padded)


def test_refine_hand_example():
    # m = 4, two p-values not followed up taken as 1: BH at 0.05 rejects
    # 1e-6 <= 0.0125 but not 0.04 > 0.025
    ds, config = dataset_from_arrays([1e-6, 0.04], [0.01, 0.02], m=4)
    reduced = refine_for_replicability(ds, config, 0.05)
    assert [r.id for r in reduced.records] == ["f0"]


def test_refine_can_empty_the_set():
    ds, config = dataset_from_arrays([0.4, 0.6], [0.01, 0.02], m=1000,
                                     l00=0.0)
    reduced = refine_for_replicability(ds, config, 0.05)
    assert len(reduced) == 0


def test_refined_dataset_still_validates(iga_dataset):
    ds, config = iga_dataset
    reduced = refine_for_replicability(ds, config, 0.05)
    assert validate_dataset(reduced.records, config) == reduced
