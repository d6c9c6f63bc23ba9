"""The exact r-value engine against plain bisection and the step-up rules,
for all four procedures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repval import rvalue
from repval import (bonferroni_rvalues_all, c1_tilde, fdr_rvalues_all,
                    fdr_rvalues_all_general_dep,
                    fdr_rvalues_all_threshold_dep, m_star, step_up_set,
                    step_up_set_general_dep, step_up_set_threshold_dep)

from conftest import dataset_from_arrays
from _oracles import (oracle_bonferroni, oracle_bonferroni_bisect, oracle_c1,
                      oracle_rvalues_bisect)

QS = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9)
METHODS = ("fdr", "fdr-general-dep", "fdr-threshold-dep", "fwer-bonferroni")
ENGINE = {"fdr": fdr_rvalues_all,
          "fdr-general-dep": fdr_rvalues_all_general_dep,
          "fdr-threshold-dep": fdr_rvalues_all_threshold_dep,
          "fwer-bonferroni": bonferroni_rvalues_all}
STEP_UP = {"fdr": step_up_set,
           "fdr-general-dep": step_up_set_general_dep,
           "fdr-threshold-dep": step_up_set_threshold_dep}


def _bisected(method, ds, config):
    p1, p2 = list(ds.p1), list(ds.p2)
    m, l00, c2 = config.m, config.l00, config.c2
    if method == "fwer-bonferroni":
        return oracle_bonferroni_bisect(p1, p2, m, l00, c2)
    if method == "fdr-threshold-dep":
        # c1_tilde itself is pinned against a brute-force regime scan
        return oracle_rvalues_bisect(
            p1, p2, m, c2, lambda x: c1_tilde(x, config.t, m, l00, c2))
    m_eff = m_star(m) if method == "fdr-general-dep" else m
    return oracle_rvalues_bisect(p1, p2, m_eff, c2,
                                 lambda x: oracle_c1(x, l00, c2))


@st.composite
def instances(draw):
    method = draw(st.sampled_from(METHODS))
    # every p1 must pass the selection cutoff t of the threshold variant
    t = (draw(st.sampled_from((1e-4, 0.01, 0.3)))
         if method == "fdr-threshold-dep" else None)
    r1 = draw(st.integers(1, 6))
    exponents = st.floats(-9.0, 0.0, allow_nan=False)
    p1 = [(t or 1.0) * 10.0 ** draw(exponents) for _ in range(r1)]
    p2 = [10.0 ** draw(exponents) for _ in range(r1)]
    if r1 >= 2 and draw(st.booleans()):
        p1[1], p2[1] = p1[0], p2[0]
    ds, config = dataset_from_arrays(
        p1, p2, m=draw(st.integers(r1, 60)),
        l00=draw(st.sampled_from((0.0, 0.5, 0.8, 0.95))),
        c2=draw(st.floats(0.1, 0.9)), t=t)
    return method, ds, config


@settings(max_examples=150, deadline=2000)
@given(instances())
def test_engine_matches_bisection_and_step_up(instance):
    method, ds, config = instance
    got = ENGINE[method](ds, config).values
    ref = _bisected(method, ds, config)
    for r, b in zip(got, ref):
        # the oracle's search starts at 1e-12 and stops at 1 - 1e-12
        assert max(r, 1e-12) == pytest.approx(b, rel=1e-9, abs=1e-15)
    if len(ds) >= 2 and ds.p1[1] == ds.p1[0] and ds.p2[1] == ds.p2[0]:
        assert got[1] == got[0]
    for q in QS:
        if method == "fwer-bonferroni":
            c1_q = oracle_c1(q, config.l00, config.c2)
            claimed = {fid for fid, a, b in zip(ds.ids, ds.p1, ds.p2)
                       if max(config.m * a / c1_q,
                              len(ds) * b / config.c2) <= q}
        else:
            claimed = STEP_UP[method](ds, config, q).replicated_ids
        for fid, r in zip(ds.ids, got):
            if abs(r - q) > 1e-9 * q:  # knife-edge ties are out of scope
                assert (r <= q) == (fid in claimed)


def test_bonferroni_engine_is_the_closed_form():
    rng = np.random.default_rng(67)
    for _ in range(20):
        r1 = int(rng.integers(1, 30))
        p1 = 10.0 ** rng.uniform(-12, 0, r1)
        p2 = 10.0 ** rng.uniform(-12, 0, r1)
        l00 = float(rng.choice([0.0, 0.5, 0.8, 0.95]))
        ds, config = dataset_from_arrays(p1, p2, m=int(rng.integers(r1, 10**6)),
                                         l00=l00, c2=0.5)
        got = bonferroni_rvalues_all(ds, config).values
        ref = [oracle_bonferroni(a, b, config.m, r1, l00, 0.5)
               for a, b in zip(p1, p2)]
        assert np.allclose(got, ref, rtol=1e-14, atol=0)


def test_block_split_never_changes_results(monkeypatch):
    # R1 = 1500 spans several blocks of counts at the default block size;
    # blocks of 7 counts, or of one, must give the same bits
    rng = np.random.default_rng(71)
    r1 = 1500
    p1 = 10.0 ** rng.uniform(-10, -4, r1)
    p2 = np.where(rng.random(r1) < 0.4, 10.0 ** rng.uniform(-10, -1, r1),
                  rng.uniform(1e-6, 1.0, r1))
    ds, config = dataset_from_arrays(p1, p2, m=10**6, l00=0.8)
    values = fdr_rvalues_all(ds, config).values
    for q in (0.01, 0.05):
        via_r = {fid for fid, r in zip(ds.ids, values) if r <= q}
        assert via_r == step_up_set(ds, config, q).replicated_ids
    for block in (7 * r1, 1):
        monkeypatch.setattr(rvalue, "_BLOCK", block)
        assert np.array_equal(fdr_rvalues_all(ds, config).values, values)


def _step_up_count_by_scan(need):
    """R2 by scanning r downward for #{need <= r} == r, one count at a
    time: the form the vectorised count in ``_step_up_mask`` replaced."""
    sorted_need = np.sort(need)
    for r in range(len(need), 0, -1):
        if np.searchsorted(sorted_need, r, side="right") == r:
            return r
    return 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                min_size=1, max_size=12),
       st.sampled_from((0.01, 0.05, 0.3)))
def test_step_up_count_matches_downward_scan(units, q):
    # p-values on whole multiples of the threshold units give many tied
    # and boundary minimal counts
    m, c2 = 1000, 0.5
    c1_at_q = rvalue.c1(q, 0.8, c2)
    r1 = len(units)
    p1 = np.array([a for a, _ in units]) * (c1_at_q * q / m)
    p2 = np.minimum(np.array([b for _, b in units]) * (c2 * q / r1), 1.0)
    kw = dict(m_eff=float(m), c2=c2, c1_at_q=c1_at_q, q=q)
    need = rvalue._minimal_counts(p1, p2, r1=r1, **kw)
    assert np.array_equal(rvalue._step_up_mask(p1, p2, **kw),
                          need <= _step_up_count_by_scan(need))
