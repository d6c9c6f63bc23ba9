"""The exact r-value engine against plain bisection and the step-up rules,
for all four procedures."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repval import dependence, fwer, rvalue, selection, simulate
from repval import (AnalysisConfig, bonferroni_rvalues_all, fdr_rvalues_all,
                    fdr_rvalues_all_general_dep,
                    fdr_rvalues_all_threshold_dep, step_up_set,
                    step_up_set_general_dep, step_up_set_threshold_dep)
from repval.dependence import c1_tilde, m_star
from repval.simulate import SimulationScenario

from conftest import dataset_from_arrays
from _oracles import (oracle_bonferroni, oracle_bonferroni_bisect,
                      oracle_bonferroni_rvalues_rational, oracle_c1,
                      oracle_exact_rvalues, oracle_fdr_rvalues_rational,
                      oracle_rvalues_bisect, oracle_smallest_reaching,
                      oracle_step_up_count)

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
    simulation's claim rule at a point with the same m, l00, c2 and q."""
    if method != "fwer-bonferroni":
        return STEP_UP[method](ds, config, q)
    point = simulate._Point(SimulationScenario(
        pi1=0.5, pi2=0.5, seed=0, m=config.m, f00=1.0, f01=0.0, f10=0.0,
        f11=0.0, l00=config.l00, q=q), config.c2)
    mask = simulate._CLAIMS["bonferroni"](point, ds.p1, ds.p2, None,
                                           len(ds))
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
    got = ENGINE[method](ds, config)
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


@st.composite
def raised_tables(draw):
    """A table of up to 40 features, some tied with the first, and the same
    table with one feature's p1 (at most t) or p2 (at most 1) raised by one
    ulp or by a factor."""
    method = draw(st.sampled_from(METHODS))
    t = (draw(st.sampled_from((1e-4, 0.01, 0.3)))
         if method == "fdr-threshold-dep" else None)
    r1 = draw(st.integers(1, 40))
    exponents = st.lists(st.floats(-16.0, 0.0), min_size=r1, max_size=r1)
    p1 = (t or 1.0) * 10.0 ** np.array(draw(exponents))
    p2 = 10.0 ** np.array(draw(exponents))
    tied = draw(st.lists(st.integers(0, r1 - 1), max_size=r1))
    p1[tied], p2[tied] = p1[0], p2[0]
    raised = [p1.copy(), p2.copy()]
    column, j = draw(st.integers(0, 1)), draw(st.integers(0, r1 - 1))
    factor = draw(st.sampled_from((None, 1.01, 2.0, 1e3)))
    x = raised[column][j]
    x = np.nextafter(x, np.inf) if factor is None else x * factor
    raised[column][j] = min(x, 1.0 if column else t or 1.0)
    kw = dict(m=max(r1, draw(st.sampled_from((1, 50, 10**3, 10**6, 10**8)))),
              l00=draw(st.sampled_from((0.0, 0.5, 0.8, 0.95))),
              c2=draw(st.sampled_from((0.2, 0.5, 0.8))), t=t)
    ds, config = dataset_from_arrays(p1, p2, **kw)
    return method, config, ds, dataset_from_arrays(*raised, **kw)[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raised_tables())
def test_no_rvalue_falls_when_one_pvalue_rises(instance):
    # raising one entry level cannot lower T(r) or any b_i in the min-max
    # formula, so this holds exactly on doubles, ties and floors included
    method, config, ds, raised = instance
    before = ENGINE[method](ds, config)
    after = ENGINE[method](raised, config)
    assert (after >= before).all(), np.flatnonzero(after < before)


@st.composite
def random_tables(draw, methods=METHODS):
    """A table of up to 39 features, some tied with the first, at random m
    up to 1e7, l00, c2 and, for the threshold variant, t."""
    method = draw(st.sampled_from(methods))
    t = (draw(st.floats(1e-6, 0.5)) if method == "fdr-threshold-dep"
         else None)
    r1 = draw(st.integers(1, 39))
    exponents = st.lists(st.floats(-16.0, 0.0), min_size=r1, max_size=r1)
    p1 = (t or 1.0) * 10.0 ** np.array(draw(exponents))
    p2 = 10.0 ** np.array(draw(exponents))
    tied = draw(st.lists(st.integers(0, r1 - 1), max_size=r1))
    p1[tied], p2[tied] = p1[0], p2[0]
    ds, config = dataset_from_arrays(
        p1, p2, m=max(r1, draw(st.integers(1, 10**7))),
        l00=draw(st.floats(0.0, 0.95)), c2=draw(st.floats(0.05, 0.95)), t=t)
    return method, config, ds


@st.composite
def permuted_tables(draw):
    """A random table and the same records in another order."""
    method, config, ds = draw(random_tables())
    return method, config, ds, draw(st.permutations(range(len(ds))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(permuted_tables())
def test_rvalues_do_not_depend_on_record_order(instance):
    # each feature keeps its r-value bit for bit
    method, config, ds, order = instance
    before = ENGINE[method](ds, config)
    after = ENGINE[method](ds.subset(order), config)
    assert after.tobytes() == before[order].tobytes()


def _claimed_by_rule(method, ds, config, q):
    """Ids claimed at level q: the step-up set, or for Bonferroni the
    features that enter at count 1."""
    if method != "fwer-bonferroni":
        return _claimed(method, ds, config, q)
    proc = rvalue._fdr_procedure(config, float(config.m))
    need = rvalue._need_counts(proc, ds.p1, ds.p2,
                               rvalue._claim_levels(proc, q), len(ds))
    return {fid for fid, count in zip(ds.ids, need) if count <= 1}


# v = p2 * R1 / c2 = 1 for the second feature: its entry level at count 1
# is G(1) = inf. A finite G(1) would give it an r-value just below 1 at
# which the step-up rule does not claim it.
_V_AT_ONE = dataset_from_arrays([0.5, 1e-6], [0.125, 0.25], m=10, l00=0.8,
                                c2=0.5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_tables(), st.lists(st.integers(0, 38), min_size=1, max_size=3))
@example(("fdr", _V_AT_ONE[1], _V_AT_ONE[0]), [1])
def test_claimed_exactly_from_the_rvalue_on_random_tables(instance, picks):
    # the knife edge on a few features of each table: claimed at q = r_i
    # and not one double below
    method, config, ds = instance
    values = ENGINE[method](ds, config)
    for i in {j % len(ds) for j in picks}:
        r = float(values[i])
        if 0.0 < r < 1.0:
            assert ds.ids[i] in _claimed_by_rule(method, ds, config, r)
            assert ds.ids[i] not in _claimed_by_rule(
                method, ds, config, float(np.nextafter(r, 0.0)))


# Not fdr-threshold-dep: there doubling m lowered r-values by up to 5e-16
# relative in 1 500 random tables (ROADMAP item 6).
@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_tables(("fdr", "fdr-general-dep", "fwer-bonferroni")))
def test_no_rvalue_falls_when_m_doubles(instance):
    method, config, ds = instance
    before = ENGINE[method](ds, config)
    after = ENGINE[method](ds, config._replace(m=2 * config.m))
    assert (after >= before).all(), np.flatnonzero(after < before)


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
    values = ENGINE[method](ds, config)
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
        got = bonferroni_rvalues_all(ds, config)
        ref = [oracle_bonferroni(a, b, config.m, r1, l00, 0.5)
               for a, b in zip(p1, p2)]
        assert np.allclose(got, ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("method", METHODS)
def test_block_split_never_changes_results(method, monkeypatch):
    # R1 = 1500 spans several blocks of counts at the default block size;
    # blocks of 7 counts, or of one, must give the same bits, and for the
    # FDR methods so must the exact level on every cell, at a size where
    # the crossing search takes about 11 steps
    rng = np.random.default_rng(71)
    r1 = 1500
    p1 = 10.0 ** rng.uniform(-10, -4, r1)
    p2 = np.where(rng.random(r1) < 0.4, 10.0 ** rng.uniform(-10, -1, r1),
                  rng.uniform(1e-6, 1.0, r1))
    ds, config = dataset_from_arrays(
        p1, p2, m=10**6, l00=0.8,
        t=1e-4 if method == "fdr-threshold-dep" else None)
    values = ENGINE[method](ds, config)
    for q in (0.01, 0.05):
        via_r = {fid for fid, r in zip(ds.ids, values) if r <= q}
        assert via_r == _claimed(method, ds, config, q)
    if method != "fwer-bonferroni":
        proc = _procedure(method, config)
        assert np.array_equal(values,
                              oracle_exact_rvalues(proc, ds.p1, ds.p2))
    for block in (7 * r1, 1):
        monkeypatch.setattr(rvalue, "_BLOCK", block)
        assert np.array_equal(ENGINE[method](ds, config), values)


def _ulps_from_rational(engine, oracle, m_eff=lambda m: m):
    """Every r-value's distance in ulps from the exact one rounded up to a
    double, over 200 seeded tables (R1 <= 12, m < 60, p-values over five
    decades), and the share of exact r-values below 1."""
    rng = np.random.default_rng(3)
    ulps, below_one, total = [], 0, 0
    for _ in range(200):
        r1 = int(rng.integers(1, 13))
        m = int(rng.integers(r1, 60))
        l00 = float(rng.choice([0.0, 0.5, 0.8, rng.uniform(0.0, 0.95)]))
        c2 = float(rng.uniform(0.05, 0.95))
        ds, config = dataset_from_arrays(10.0 ** rng.uniform(-5, 0, r1),
                                         10.0 ** rng.uniform(-5, 0, r1),
                                         m=m, l00=l00, c2=c2)
        exact = np.array(oracle(ds.p1.tolist(), ds.p2.tolist(), m_eff(m),
                                l00, c2))
        got = engine(ds, config)
        ulps += (got.view(np.int64) - exact.view(np.int64)).tolist()
        below_one += int((exact < 1.0).sum())
        total += r1
    return ulps, below_one / total


def test_fdr_rvalues_are_near_the_rational_ones():
    # every r-value within 8 ulps of the exact one rounded up to a double
    # (ROADMAP item 9 tightens this to equality); most lie below 1
    ulps, below_one = _ulps_from_rational(fdr_rvalues_all,
                                          oracle_fdr_rvalues_rational)
    assert max(map(abs, ulps)) <= 8
    assert below_one > 0.5


@pytest.mark.parametrize("method", ["fdr-general-dep", "fwer-bonferroni"])
def test_rvalues_are_near_the_rational_ones(method):
    # general-dep is fdr at m_eff = m * H_m, the engine's double taken
    # exactly; Bonferroni is the count-1 case. Same tables and bound as
    # the fdr test
    if method == "fdr-general-dep":
        ulps, below_one = _ulps_from_rational(
            ENGINE[method], oracle_fdr_rvalues_rational,
            lambda m: Fraction(m_star(m)))
    else:
        ulps, below_one = _ulps_from_rational(
            ENGINE[method], oracle_bonferroni_rvalues_rational)
    assert max(map(abs, ulps)) <= 8
    assert below_one > 0.4


def test_live_prefix_is_the_values_below_the_count():
    # _live_counts takes the finite entries at count r to be the v_j < r,
    # which needs v / r < 1 after rounding for every double v below r;
    # the largest such v is the hardest case
    r = np.concatenate([np.arange(1.0, 2.0**20), np.floor(
        np.random.default_rng(5).uniform(1.0, 2.0**40, 10**6))])
    assert (np.nextafter(r, 0.0) / r < 1.0).all()
    # values on the counts and one double either side, plus a tail no
    # count reaches, against a direct count of the v_j with v_j / r < 1
    whole = np.arange(1.0, 201.0)
    v = np.sort(np.concatenate([whole, np.nextafter(whole, 0.0),
                                np.nextafter(whole, np.inf),
                                np.full(300, 1e3)]))
    all_counts = np.arange(1.0, len(v) + 1.0)
    below = (v[None, :] / all_counts[:, None] < 1.0).sum(axis=1)
    counts, finite = rvalue._live_counts(v)
    assert np.array_equal(counts, all_counts[below >= all_counts])
    assert np.array_equal(finite, below[below >= all_counts])


def test_bracketed_kth_is_the_kth_smallest_level():
    # a stub procedure whose level is x itself (y = 0): T(r) from the
    # brackets lo <= A <= hi must be the (r-1)-th entry of the sorted A
    proc = rvalue._Procedure(1.0, 0.5, lambda x, y=0.0: np.maximum(x, y),
                             lambda b: b)

    def kth(a, lo, hi, ranks):
        return rvalue._bracketed_kth(proc, a, np.zeros_like(a), lo, hi,
                                     ranks)

    # one hi at or below t * (1 + 2^-8) is too few for rank 1: the upper
    # end must come from the second smallest hi
    a = np.array([[1.0, 1.3, 1.5]])
    assert kth(a, np.array([[1.0, 1.2, 1.1]]), np.array([[1.0, 2.0, 2.0]]),
               np.array([1])).tolist() == [1.3]
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows, width = rng.integers(1, 9), rng.integers(1, 40)
        # few distinct values, so ties are common
        a = 1.0 + rng.integers(0, 6, (rows, width)) / 4.0
        # widths from exact to far wider than 2^-8
        scale = rng.choice([0.0, 1e-6, 2.0**-9, 2.0**-6, 0.1, 0.9],
                           (2, rows, width))
        lo = a * (1.0 - scale[0] * rng.random((rows, width)))
        hi = a * (1.0 + scale[1] * rng.random((rows, width)))
        ranks = rng.integers(0, width, rows)
        want = [np.partition(row, k)[k] for row, k in zip(a, ranks)]
        assert kth(a, lo, hi, ranks).tolist() == want


@pytest.mark.parametrize("method", METHODS[:3])
def test_blocks_stay_within_budget_on_a_skewed_table(method, monkeypatch):
    # one very strong follow-up p-value makes the first live count's row
    # one feature wide while every later row holds nearly all of them; a
    # block sized by its first row would hold R1 rows of R1 entries
    r1, block = 600, 2**12
    p2 = np.full(r1, 1e-3)
    p2[0] = 1e-9
    ds, config = dataset_from_arrays(np.full(r1, 1e-6), p2, m=10**6,
                                     l00=0.8, t=1e-4)
    values = ENGINE[method](ds, config)
    sizes = []
    kth = rvalue._kth_smallest
    monkeypatch.setattr(rvalue, "_BLOCK", block)
    monkeypatch.setattr(
        rvalue, "_kth_smallest",
        lambda a, ranks: sizes.append(a.shape) or kth(a, ranks))
    assert np.array_equal(ENGINE[method](ds, config), values)
    assert len(sizes) > 1
    assert all(rows * width <= max(block, width) for rows, width in sizes)


def _procedure(method, config):
    if method == "fdr-threshold-dep":
        return dependence._threshold_procedure(config)
    m_eff = m_star(config.m) if method == "fdr-general-dep" else config.m
    return rvalue._fdr_procedure(config, float(m_eff))


@st.composite
def oracle_instances(draw):
    """Up to 200 features, p-values down to 1e-16 with primary p-values at
    t (or 1), follow-up p-values at 1, tied rows, and entry levels at the
    level function's floor, which for the threshold variant rises with
    t*m."""
    method = draw(st.sampled_from(METHODS[:3]))
    t = (draw(st.sampled_from((1e-4, 0.01, 0.3)))
         if method == "fdr-threshold-dep" else None)
    r1 = draw(st.integers(1, 200))
    m = max(r1, draw(st.sampled_from((1, 10**3, 10**6, 10**7))))
    l00 = draw(st.sampled_from((0.0, 0.5, 0.8, 0.95)))
    c2 = draw(st.sampled_from((0.2, 0.5, 0.8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = t or 1.0
    floor = dependence._threshold_floor(t, m, l00, c2) if t else 1e-12
    p1 = top * 10.0 ** -rng.uniform(0, 16, r1)
    p2 = np.where(rng.random(r1) < 0.5, 10.0 ** -rng.uniform(0, 16, r1),
                  1.0 - rng.random(r1))
    kind = rng.integers(0, 6, r1)
    count = rng.integers(1, r1 + 1, r1)
    at_floor = kind == 3  # v_j / count at the floor, u_j / count below it
    p1 = np.where(kind == 1, top, p1)
    p2 = np.where(kind == 2, 1.0, p2)
    p2 = np.where(at_floor, floor * c2 * count / r1, p2)
    p1 = np.where(at_floor, np.minimum(top, floor * count / (2.0 * m)), p1)
    tied = np.flatnonzero(kind == 4)
    p1[tied], p2[tied] = p1[0], p2[0]
    ds, config = dataset_from_arrays(p1, p2, m=m, l00=l00, c2=c2, t=t)
    return method, ds, config


@settings(max_examples=60, deadline=None)
@given(oracle_instances(), st.sampled_from((1, 97, 2**16)))
def test_engine_matches_exact_oracle_bitwise(instance, block):
    # the bracketed threshold engine, the sorted live-count blocks and the
    # guess-started inverse against the exact level on every cell
    method, ds, config = instance
    ref = oracle_exact_rvalues(_procedure(method, config), ds.p1, ds.p2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rvalue, "_BLOCK", block)
        assert np.array_equal(ENGINE[method](ds, config), ref)


def test_crossing_where_the_primary_term_binds_inside_an_open_bracket():
    # threshold-dep, one feature: u = p1 * m lies strictly inside the open
    # bracket of its follow-up level, so its entry is lo = u = S(1) < hi.
    # The crossing search must make an entry exact where its lo equals
    # S(r), or it sees no crossing and returns 1
    design = dict(m=10**6, l00=0.8, c2=0.5, t=1e-4)
    proc = dependence._threshold_procedure(AnalysisConfig(**design))
    p2 = 1e-6
    v = np.array([p2 / 0.5])
    _, hi = proc.bounds(v, np.zeros(1))
    p1 = (proc.level(v)[0] + hi[0]) / 2.0 / 10**6
    ds, config = dataset_from_arrays([p1], [p2], **design)
    u = ds.p1 * 10**6
    lo, hi = proc.bounds(v, u)
    assert lo[0] == u[0] == proc.level(v, u)[0] < hi[0]
    values = fdr_rvalues_all_threshold_dep(ds, config)
    assert values.tolist() == oracle_exact_rvalues(proc, ds.p1,
                                                   ds.p2).tolist()
    assert values[0] < 1.0


@pytest.mark.parametrize("l00", (0.0, 0.8, 0.95))
@pytest.mark.parametrize("method", METHODS[:3])
def test_guess_started_search_matches_full_range(method, l00):
    ds, config = dataset_from_arrays([1e-5], [0.5], m=10**6, l00=l00,
                                     t=1e-4)
    proc = _procedure(method, config)
    rng = np.random.default_rng(83)
    g_floor = proc.level(np.array([proc.floor]))[0]
    b = np.concatenate([
        10.0 ** rng.uniform(-20, 0.5, 400),
        [np.inf, 5e-324, 1e-310, 2.2e-308, g_floor / 2, g_floor,
         np.nextafter(g_floor, np.inf), 0.5, 1.0, 7.0]])
    ref = oracle_smallest_reaching(proc.level, b, proc.floor)
    assert ref[np.isinf(b)] == 1.0
    assert (ref[b <= g_floor] == proc.floor).all()
    for guess in (proc.guess(b), np.full(len(b), np.nan), np.zeros(len(b)),
                  np.full(len(b), np.inf), np.full(len(b), -1.0), b):
        started = proc._replace(guess=lambda _: guess)
        assert np.array_equal(rvalue._smallest_reaching(started, b), ref)
    if proc.bounds is not None:
        # started where the upper end of the level's bracket is the target
        # itself, the first probe must be evaluated exactly
        x = 10.0 ** rng.uniform(np.log10(proc.floor), 0.0, 400)
        _, hi = proc.bounds(x, np.zeros(len(x)))
        ref = oracle_smallest_reaching(proc.level, hi, proc.floor)
        started = proc._replace(guess=lambda _: x)
        assert np.array_equal(rvalue._smallest_reaching(started, hi), ref)


def _seeded_table(r1=1000, t=1e-4):
    """Like the benchmark's tables: p1 log-uniform over eight decades below
    t; 35% of p2 log-uniform in [1e-10, 1e-1], the rest uniform."""
    rng = np.random.default_rng(1)
    p1 = t * 10.0 ** (-8.0 * rng.random(r1))
    p2 = np.where(rng.random(r1) < 0.35, 10.0 ** rng.uniform(-10, -1, r1),
                  1.0 - rng.random(r1))
    return dataset_from_arrays(p1, p2, m=10**6, l00=0.8, t=t)


@pytest.mark.parametrize("method", METHODS)
def test_inverse_takes_few_level_evaluations(method, monkeypatch):
    # the closed-form guess lands within a few ulps; a search over the
    # whole range took 62 probes. A probe evaluates the procedure's
    # brackets once, or its level where it has none
    ds, config = _seeded_table()
    calls = []
    search = rvalue._smallest_reaching

    def counted(proc, a):
        name = "level" if proc.bounds is None else "bounds"
        probe = getattr(proc, name)
        counting = proc._replace(
            **{name: lambda *args: calls.append(args) or probe(*args)})
        return search(counting, a)

    monkeypatch.setattr(rvalue, "_smallest_reaching", counted)
    monkeypatch.setattr(fwer, "_smallest_reaching", counted)
    ENGINE[method](ds, config)
    assert 1 <= len(calls) <= 12


def _wide_table(r1, low, t=1e-4, m=10**7):
    """p1 and 35% of p2 log-uniform from 10^low up to t, the rest of p2
    uniform. At low = -300 many entries sit at or below the threshold-dep
    floor, where every level is G(floor)."""
    rng = np.random.default_rng(2)
    p1 = 10.0 ** rng.uniform(low, np.log10(t), r1)
    p2 = np.where(rng.random(r1) < 0.35,
                  10.0 ** rng.uniform(low, np.log10(t), r1),
                  1.0 - rng.random(r1))
    return dataset_from_arrays(p1, p2, m=m, l00=0.8, t=t)


@pytest.mark.parametrize("method", METHODS)
def test_invariants_hold_at_the_north_star_scale(method):
    # R1 = 1e4 and m = 1e8, with p-values down to 1e-300: each of 40
    # sampled features is claimed at q = r_i and not one double below, and
    # the records in another order give the same r-values bit for bit
    ds, config = _wide_table(10**4, -300, m=10**8)
    values = ENGINE[method](ds, config)
    rng = np.random.default_rng(19)
    order = rng.permutation(len(ds))
    permuted = ENGINE[method](ds.subset(order), config)
    assert permuted.tobytes() == values[order].tobytes()
    for i in rng.choice(np.flatnonzero(values < 1.0), 40, replace=False):
        r = float(values[i])
        assert ds.ids[i] in _claimed_by_rule(method, ds, config, r)
        assert ds.ids[i] not in _claimed_by_rule(
            method, ds, config, float(np.nextafter(r, 0.0)))


def _walked(monkeypatch, ds, config):
    """Regime-factor evaluations of one threshold-dep engine call."""
    walked = []
    walk = dependence._regime_factor
    monkeypatch.setattr(dependence, "_regime_factor",
                        lambda g, t, m: walked.append(len(g)) or walk(g, t, m))
    fdr_rvalues_all_threshold_dep(ds, config)
    return sum(walked)


def test_threshold_engine_walks_few_cells(monkeypatch):
    # the regime walk runs only on the edges of the factor table, on the
    # cells whose brackets straddle T(r), and on the crossing search's
    # probes whose brackets straddle S(r): <= 1% of the R1^2 cells (every
    # cell with x * c1(x) above u / r before)
    ds, config = _seeded_table()
    assert 0 < _walked(monkeypatch, ds, config) <= 0.01 * len(ds) ** 2


@pytest.mark.parametrize("low", [-30, -300])
def test_threshold_engine_walks_few_cells_on_wide_tables(monkeypatch, low):
    # brackets at or below the floor are exact, so the entries tied there
    # are never walked; with cell-wide brackets these tables walked 1.4%
    # and 10% of R1^2
    ds, config = _wide_table(1000, low)
    assert 0 < _walked(monkeypatch, ds, config) <= 0.01 * len(ds) ** 2


@pytest.mark.parametrize("low", [-30, -300])
def test_threshold_brackets_never_change_rvalues(low):
    # the bracketed engine against the one that evaluates every level
    # exactly, bit for bit, on tables that reach the floor
    ds, config = _wide_table(300, low)
    proc = dependence._threshold_procedure(config)
    exact = rvalue._exact_rvalues(proc._replace(bounds=None), ds.p1, ds.p2)
    assert np.array_equal(fdr_rvalues_all_threshold_dep(ds, config), exact)
    assert (exact == proc.floor).any()


@pytest.mark.parametrize("method, wide", [
    pytest.param("fdr", False, id="fdr"),
    pytest.param("fdr-threshold-dep", False, id="fdr-threshold-dep"),
    pytest.param("fdr-threshold-dep", True, id="fdr-threshold-dep-wide")])
def test_engine_memory_stays_linear(method, wide):
    # O(R1) memory: one R1^2 array of float64 at R1 = 3000 would be 69 MB
    ds, config = _wide_table(3000, -300) if wide else _seeded_table(r1=3000)
    ds.p1, ds.p2  # cached on the dataset, so not counted below
    tracemalloc.start()
    try:
        ENGINE[method](ds, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


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
        proc = dependence._threshold_procedure(config)
    levels = rvalue._claim_levels(proc, q)
    if levels is None:  # below the threshold-dep floor nothing is claimed
        assert method == "fdr-threshold-dep" and q < 1e-12
        return
    g = levels[0]
    p1 = np.array([a for a, _ in units]) * (g / m)
    p2 = np.minimum(np.array([b for _, b in units]) * (c2 * q / r1), 1.0)
    need = rvalue._need_counts(proc, p1, p2, levels, r1)
    u, v = rvalue._scaled(proc, p1, p2, r1)
    counts = np.arange(1.0, r1 + 1.0)[:, None]
    entry = proc.level(v / counts, u / counts)
    scanned = [next((r for r in range(1, r1 + 1) if entry[r - 1, j] <= g),
                    r1 + 1) for j in range(r1)]
    assert np.array_equal(np.minimum(need, r1 + 1), scanned)
    # the step-up rule on the need counts, as one row alone (the step-up
    # set) and as a row of a padded table (the simulation's claims)
    expected = need <= oracle_step_up_count(need.tolist())
    assert np.array_equal(selection._step_up_mask(need, 1), expected)
    assert np.array_equal(
        selection._step_up_mask(need, 1, np.zeros(r1, dtype=int)), expected)
