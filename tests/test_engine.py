"""The exact r-value engine against plain bisection and the step-up rules,
for all four procedures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repval import dependence, rvalue, simulate
from repval import (AnalysisConfig, SimulationScenario,
                    bonferroni_rvalues_all, c1_tilde, fdr_rvalues_all,
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


def _claimed(method, ds, config, q):
    """Ids claimed at level q: the step-up set, or for Bonferroni the
    simulation's claim rule on a design with the same m, l00, c2 and q."""
    if method != "fwer-bonferroni":
        return STEP_UP[method](ds, config, q)
    design = simulate._Design(SimulationScenario(
        pi1=0.5, pi2=0.5, seed=0, m=config.m, f00=1.0, f01=0.0, f10=0.0,
        f11=0.0, l00=config.l00, c2=config.c2, q=q))
    mask = simulate._CLAIMS["bonferroni"](design, ds.p1, ds.p2)
    return {fid for fid, hit in zip(ds.ids, mask) if hit}


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
        claimed = _claimed(method, ds, config, q)
        for fid, r in zip(ds.ids, got):
            assert (r <= q) == (fid in claimed)


@pytest.mark.parametrize("method", METHODS)
def test_claimed_exactly_from_the_rvalue_on(method):
    # the knife edge: every sampled feature is claimed at q = r_i and not
    # one double below, with p-values down to 1e-300 (threshold-dep: R1 =
    # 1000 and r-values above its 1e-12 floor)
    rng = np.random.default_rng(7)
    threshold = method == "fdr-threshold-dep"
    r1 = 1000 if threshold else 4000
    low = 12 if threshold else 300
    deep = rng.random(r1) < 0.3
    p1 = 10.0 ** np.where(deep, rng.uniform(-low, -4, r1),
                          rng.uniform(-12, -4, r1))
    p2 = 10.0 ** np.where(rng.random(r1) < 0.3, rng.uniform(-low, 0, r1),
                          rng.uniform(-12, 0, r1))
    ds, config = dataset_from_arrays(p1, p2, m=10**7, l00=0.8, c2=0.5,
                                     t=1e-4 if threshold else None)
    values = ENGINE[method](ds, config).values
    inside = np.flatnonzero((values < 1.0) & (values > 1e-12 * threshold))
    sample = rng.choice(inside, 200, replace=False)
    for i in sample:
        r = float(values[i])
        assert ds.ids[i] in _claimed(method, ds, config, r)
        assert ds.ids[i] not in _claimed(method, ds, config,
                                         float(np.nextafter(r, 0.0)))


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
        assert via_r == step_up_set(ds, config, q)
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
       st.sampled_from((1e-310, 0.01, 0.05, 0.3)),
       st.sampled_from(("fdr", "fdr-threshold-dep")))
def test_step_up_count_matches_downward_scan(units, q, method):
    # p-values on whole multiples of the threshold units G(q) / m and
    # c2 q / R1 give many tied and boundary need counts; each must be the
    # smallest r with A_j(r) = level(v_j / r, u_j / r) <= G(q), by scan
    m, c2 = 1000, 0.5
    r1 = len(units)
    config = AnalysisConfig(m=m, l00=0.8, c2=c2, t=0.05)
    if method == "fdr":
        proc = rvalue._fdr_procedure(config, float(m))
    else:
        ds, _ = dataset_from_arrays([0.05], [0.5], m=m)
        proc = dependence._threshold_procedure(ds, config)
    levels = rvalue._claim_levels(proc, q)
    if levels is None:  # below the threshold-dep floor nothing is claimed
        assert method == "fdr-threshold-dep" and q < 1e-12
        return
    g = levels[0]
    p1 = np.array([a for a, _ in units]) * (g / m)
    p2 = np.minimum(np.array([b for _, b in units]) * (c2 * q / r1), 1.0)
    need = rvalue._need_counts(proc, p1, p2, levels)
    u, v = rvalue._scaled(proc, p1, p2)
    counts = np.arange(1.0, r1 + 1.0)[:, None]
    entry = proc.level(v / counts, u / counts)
    scanned = [next((r for r in range(1, r1 + 1) if entry[r - 1, j] <= g),
                    r1 + 1) for j in range(r1)]
    assert np.array_equal(np.minimum(need, r1 + 1), scanned)
    assert np.array_equal(rvalue._step_up_mask(proc, p1, p2, levels),
                          need <= _step_up_count_by_scan(need))
