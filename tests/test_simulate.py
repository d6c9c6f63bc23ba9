import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repval import simulate
from repval.normal import normal_quantile, normal_sf
from repval.rvalue import _need_counts, c1
from repval.selection import _bh_mask, bh_reject
from repval.simulate import (METRICS_CSV_HEADER, SimulationMetrics,
                             SimulationScenario, compare_baseline, estimate,
                             metrics_csv_row, scenario_from_mapping,
                             simulate_rep, sweep_c2)

from _oracles import oracle_bh, oracle_step_up_count

DEFAULT_BLOCK = simulate._BLOCK

# The paper's simulation design (l00 = 0.8, c2 = 0.5 and q = 0.05 are the
# defaults).
PAPER = dict(pi1=0.8, pi2=0.8, m=1000, f00=0.9, f01=0.025, f10=0.025,
             f11=0.05)

# compare_baseline at the paper design, reps = 30, seed 3, as computed by
# the release that ran one repetition at a time (repr round-trips floats).
PINNED_BASELINE = {
    "step-up": SimulationMetrics(
        reps=30, fdr_hat=0.010156968461143324, se_fdr=0.0028591638714652,
        avg_power=0.9566666666666669, se_power=0.004897415066083526,
        p_at_least_one=1.0, se_palo=0.0, fwer_hat=0.36666666666666664,
        se_fwer=0.08948554539839962, mean_claims=48.333333333333336,
        mean_r1=83.63333333333334),
    "max-p-bh": SimulationMetrics(
        reps=30, fdr_hat=0.012769180012430508, se_fdr=0.0028122198014138328,
        avg_power=0.9593333333333335, se_power=0.005465320832372632,
        p_at_least_one=1.0, se_palo=0.0, fwer_hat=0.4666666666666667,
        se_fwer=0.09264111117062017, mean_claims=48.6,
        mean_r1=83.63333333333334),
}


def _scenario(**kw):
    base = dict(pi1=0.1, pi2=0.8, seed=123, reps=50)
    base.update(kw)
    return SimulationScenario(**base)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(f00=0.95)  # fractions no longer sum to one
    with pytest.raises(ValueError):
        _scenario(m=999)  # 999 * 0.9 is not an integer count
    with pytest.raises(ValueError):
        _scenario(pi1=0.0)
    with pytest.raises(ValueError):
        _scenario(reps=0)
    with pytest.raises(ValueError):
        _scenario(rho=1.0)
    with pytest.raises(ValueError, match="seed"):
        _scenario(seed=-1)
    with pytest.raises(ValueError, match="m must be"):
        _scenario(m=-40)
    for frac in (math.nan, -0.1, 1.5, math.inf):
        with pytest.raises(ValueError, match=r"f00 must lie in \[0, 1\]"):
            _scenario(f00=frac)
    for bad_id in ("a,b", 'a"b', "a\rb", "a\nb"):
        with pytest.raises(ValueError, match="scenario_id"):
            _scenario(scenario_id=bad_id)
    sc = _scenario()
    assert sc.counts == (900, 25, 25, 50)
    assert sc.analysis_config.m == 1000


def test_same_seed_same_metrics():
    a = estimate(_scenario(reps=40))
    b = estimate(_scenario(reps=40))
    assert a == b


def test_rep_streams_are_independent_of_history():
    sc = _scenario(reps=10)
    alone = simulate_rep(sc, 7)
    within = [simulate_rep(sc, i) for i in range(10)][7]
    assert alone == within


def test_different_seeds_differ():
    a = estimate(_scenario(seed=1, reps=60))
    b = estimate(_scenario(seed=2, reps=60))
    assert a != b


def test_single_rep_metrics_equal_that_rep():
    sc = _scenario(reps=1)
    _, n_claims, n_true = simulate_rep(sc, 0)
    metrics = estimate(sc)
    n11 = sc.counts[3]
    assert metrics.fdr_hat == (n_claims - n_true) / max(n_claims, 1)
    assert metrics.avg_power == n_true / n11
    assert metrics.p_at_least_one == float(n_true > 0)
    assert metrics.se_fdr == 0.0


def test_pure_null_everything_false():
    sc = _scenario(f00=1.0, f01=0.0, f10=0.0, f11=0.0, reps=400, seed=5)
    metrics = estimate(sc)
    assert metrics.avg_power == 0.0
    assert metrics.p_at_least_one == 0.0
    assert metrics.fdr_hat <= sc.q
    assert metrics.fwer_hat == metrics.fdr_hat  # every claim is false here


def test_mu_calibration_identities():
    # the shifts are defined by Bonferroni power pi at level 0.05
    sc = _scenario()
    mu1 = (normal_quantile(1 - 0.05 / sc.m)
           - normal_quantile(1 - sc.pi1))
    attained = normal_sf(normal_quantile(1 - 0.05 / sc.m) - mu1)
    assert attained == pytest.approx(sc.pi1, rel=1e-10)
    assert simulate._shift(sc.pi1, sc.m) == mu1  # one rule for mu1 and mu2
    for r1 in (1, 7, 87, 1000):
        mu2 = simulate._shift(sc.pi2, r1)
        attained = normal_sf(normal_quantile(1 - 0.05 / r1) - mu2)
        assert attained == pytest.approx(sc.pi2, rel=1e-10)


@pytest.mark.parametrize("rho, block_size", [(0.0, 1), (0.5, 50), (0.9, 1000)])
def test_selection_at_the_global_null_is_the_bh_level(rho, block_size):
    # BH at level a on independent uniform p-values selects something with
    # probability exactly a (Simes 1986), and at most a under the positive
    # dependence of equicorrelated blocks (Sarkar 1998). Here a = c1(q) * q
    # = 0.1136, and the SE of the share over 20 000 repetitions is
    # sqrt(a * (1 - a) / 20 000) = 0.0022
    sc = SimulationScenario(pi1=0.8, pi2=0.8, seed=11, m=1000, f00=1.0,
                            f01=0.0, f10=0.0, f11=0.0, reps=20000, rho=rho,
                            block_size=block_size)
    r1 = simulate._outcomes(sc, [sc.c2], ["step-up"], range(sc.reps))[
        0, 0, :, 0]
    share = float(np.mean(r1 >= 1))
    level = c1(sc.q, sc.l00, sc.c2) * sc.q
    se = math.sqrt(level * (1.0 - level) / sc.reps)
    assert round(level, 4) == 0.1136 and round(se, 4) == 0.0022
    if rho == 0.0:
        assert abs(share - level) <= 3.0 * se
    else:
        assert share <= level + 3.0 * se


@pytest.mark.parametrize("m, f01, f11, reps, selected, se", [
    (1000, 0.9, 0.1, 100, 11110, 0.0047),
    # one feature, without primary signal: selected when p1 <= c1(q) * q
    (1, 1.0, 0.0, 2000, 240, 0.0323),
], ids=["m-1000", "m-1"])
def test_follow_up_power_is_pi2_at_the_realised_r1(m, f01, f11, reps,
                                                   selected, se, monkeypatch):
    # the follow-up p-values, read through a normal_sf stub, of features
    # that all have follow-up signal: each selected one has p2 <= 0.05/R1
    # with probability pi2 = 0.5 exactly, since its follow-up draw does not
    # depend on selection. The SE of the share over the N selected
    # features is sqrt(pi2 * (1 - pi2) / N)
    sc = SimulationScenario(pi1=0.8, pi2=0.5, seed=7, m=m, f00=0.0, f01=f01,
                            f10=0.0, f11=f11, reps=reps)
    calls, real = [], simulate.normal_sf

    def recorded(x):
        calls.append(real(x))
        return calls[-1]

    monkeypatch.setattr(simulate, "normal_sf", recorded)
    monkeypatch.setattr(simulate, "_BLOCK", 10 * sc.m)
    r1 = simulate._outcomes(sc, [sc.c2], ["step-up"], range(sc.reps))[
        0, 0, :, 0]
    # per block of 10 repetitions one call for the primary candidates,
    # then one for the follow-up p-values of the one point
    assert len(calls) == 2 * reps // 10
    p2 = np.concatenate(calls[1::2])
    assert len(p2) == r1.sum() == selected
    share = float(np.mean(p2 <= 0.05 / np.repeat(r1, r1)))
    assert round(math.sqrt(sc.pi2 * (1.0 - sc.pi2) / selected), 4) == se
    assert abs(share - sc.pi2) <= 3.0 * se


def test_claims_never_exceed_selection():
    sc = _scenario(reps=30, seed=17)
    for rep in range(sc.reps):
        r1, n_claims, n_true = simulate_rep(sc, rep)
        assert 0 <= n_true <= n_claims <= r1


def test_sweep_matches_pointwise_estimate():
    sc = _scenario(reps=25)
    rows = sweep_c2(sc, [0.3, 0.5])
    assert len(rows) == 2
    assert rows[1][1] == estimate(sc._replace(c2=0.5))
    assert sweep_c2(sc, []) == []


def test_equicorrelated_blocks_smoke():
    sc = _scenario(rho=0.3, block_size=10, reps=300, seed=29)
    metrics = estimate(sc)
    assert metrics.fdr_hat < sc.q + 3 * max(metrics.se_fdr, 1e-3)


def test_compare_baseline_direction_sparse_regime():
    # GWAS-like sparsity: the step-up procedure claims at least as much as
    # BH on maximum p-values, and both keep the FDR under q
    sc = SimulationScenario(pi1=0.1, pi2=0.8, seed=31, m=1000, f00=0.996,
                            f01=0.001, f10=0.001, f11=0.002, l00=0.8,
                            reps=600)
    result = compare_baseline(sc)
    stepup, baseline = result["step-up"], result["max-p-bh"]
    assert stepup.mean_claims >= baseline.mean_claims
    assert stepup.fdr_hat < sc.q
    assert baseline.fdr_hat < sc.q


def test_both_procedures_gain_from_l00():
    base = SimulationScenario(pi1=0.1, pi2=0.8, seed=37, m=1000, f00=0.996,
                              f01=0.001, f10=0.001, f11=0.002, reps=400)
    claims = {"step-up": [], "max-p-bh": []}
    for l00 in (0.0, 0.8, 0.9):
        result = compare_baseline(base._replace(l00=l00))
        for key in claims:
            claims[key].append(result[key].mean_claims)
    for key, series in claims.items():
        assert series[0] <= series[1] <= series[2] + 1e-9


def test_scenario_mapping_errors():
    with pytest.raises(ValueError):
        scenario_from_mapping({"pi1": 0.1, "pi2": 0.5})  # seed missing
    with pytest.raises(ValueError):
        scenario_from_mapping({"pi1": 0.1, "pi2": 0.5, "seed": 1,
                               "bogus": 2})
    # a number that is not whole is refused, as its text is, not truncated
    for key, value in (("seed", 1.5), ("reps", 2.7)):
        with pytest.raises(ValueError, match=rf"^{key} must be int, got "
                                             rf"{value}$"):
            scenario_from_mapping({"pi1": 0.8, "pi2": 0.8, "seed": 1,
                                   key: value})
    with pytest.raises(ValueError, match=r"^seed must be int, got '1\.5'$"):
        scenario_from_mapping({"pi1": 0.8, "pi2": 0.8, "seed": "1.5"})
    whole = scenario_from_mapping({"pi1": 0.8, "pi2": 0.8, "seed": 1,
                                   "m": 1000.0})
    assert whole.m == 1000 and type(whole.m) is int


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("reps", 2.5), ("block_size", 2.5), ("seed", 3.0),
    ("reps", "4")])
def test_a_count_that_is_not_an_integer_is_refused(field, value):
    # estimate would otherwise fail inside numpy with an unrelated error
    match = rf"^{field} must be an integer, got {value!r}$"
    with pytest.raises(ValueError, match=match):
        _scenario(rho=0.5, **{field: value})
    with pytest.raises(ValueError, match=match):
        _scenario(rho=0.5)._replace(**{field: value})


def test_a_numpy_integer_seed_still_runs():
    kw = dict(pi1=0.8, pi2=0.8, m=100, f00=0.9, f01=0.0, f10=0.0, f11=0.1,
              reps=3, block_size=4, rho=0.5)
    scenario = SimulationScenario(seed=np.int64(7), **kw)
    assert scenario._replace(reps=np.int32(3)) == scenario
    assert estimate(scenario) == estimate(SimulationScenario(seed=7, **kw))


def test_a_count_at_the_whole_number_tolerance_is_accepted():
    # f00 * m is the tolerance, 1e-9, exactly; f11 * m lies a little less
    # than 1e-9 below 1
    sc = SimulationScenario(pi1=0.8, pi2=0.8, seed=1, m=1, f00=1e-9,
                            f01=0.0, f10=0.0, f11=1.0 - 1e-9)
    assert sc.counts == (0, 0, 0, 1)
    with pytest.raises(ValueError, match=r"f00 \* m = 1\.1e-09"):
        sc._replace(f00=1.1e-9, f11=1.0 - 1.1e-9)


def test_metrics_need_every_field_and_no_other():
    fields = estimate(_scenario(reps=3))._fields
    values = dict.fromkeys(fields, 0.0)
    assert SimulationMetrics(**values)._fields == fields
    with pytest.raises(TypeError, match="mean_r1"):
        SimulationMetrics(**{k: v for k, v in values.items()
                             if k != "mean_r1"})
    with pytest.raises(TypeError, match="bogus"):
        SimulationMetrics(**values, bogus=1.0)


def test_metrics_csv_layout():
    sc = _scenario(reps=5, scenario_id="cell-a")
    metrics = estimate(sc)
    row = metrics_csv_row(sc, metrics)
    assert row.startswith("cell-a,0.5,0.8,0.1,0.8,")
    assert len(row.split(",")) == len(METRICS_CSV_HEADER.split(","))


def test_power_at_stated_optimum_c2():
    # published optimum for the high-power cell at l00=0.5 sits at c2=0.2
    # with average power about 0.298
    sc = SimulationScenario(pi1=0.1, pi2=0.8, seed=20260809, l00=0.5,
                            c2=0.2, reps=2000)
    metrics = estimate(sc)
    assert metrics.avg_power == pytest.approx(0.2980, abs=0.012)


def test_at_least_one_power_flat_near_half_c2():
    base = SimulationScenario(pi1=0.1, pi2=0.2, seed=41, l00=0.0, reps=1200)
    values = [m.p_at_least_one for _, m in sweep_c2(base, [0.45, 0.5, 0.55])]
    assert max(values) - min(values) <= 0.06


def test_fwer_procedure_controls_pure_null():
    sc = _scenario(f00=1.0, f01=0.0, f10=0.0, f11=0.0, reps=1500, seed=43)
    metrics = estimate(sc, procedure="bonferroni")
    assert metrics.fwer_hat <= 0.05 + 3 * max(metrics.se_fwer, 1e-3)


def test_unknown_procedure():
    with pytest.raises(ValueError):
        estimate(_scenario(reps=2), procedure="magic")


def test_compare_baseline_is_pinned():
    sc = SimulationScenario(seed=3, reps=30, **PAPER)
    assert compare_baseline(sc) == PINNED_BASELINE


def _rep_by_rep(sc, procedure):
    return simulate._aggregate(
        sc, np.array([simulate_rep(sc, rep, procedure)
                      for rep in range(sc.reps)]))


# reps not a multiple of the block; one rep per block (m = 1e5); pure null
# (R1 = 0 in some reps); equicorrelated blocks that do not divide m
BLOCK_CASES = {
    "paper": SimulationScenario(seed=7, reps=11, **PAPER),
    "one-rep-blocks": SimulationScenario(seed=8, reps=3,
                                         **{**PAPER, "m": 100_000}),
    "pure-null": _scenario(f00=1.0, f01=0.0, f10=0.0, f11=0.0, reps=30,
                           seed=9),
    "rho": SimulationScenario(seed=10, reps=9, rho=0.4, block_size=7,
                              **PAPER),
}


@pytest.mark.parametrize("procedure", ["step-up", "bonferroni"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_estimate_equals_rep_by_rep(case, procedure):
    sc = BLOCK_CASES[case]
    assert estimate(sc, procedure) == _rep_by_rep(sc, procedure)


def test_pure_null_case_has_empty_and_nonempty_selections():
    sc = BLOCK_CASES["pure-null"]
    r1s = [simulate_rep(sc, rep)[0] for rep in range(sc.reps)]
    assert 0 in r1s and max(r1s) > 0


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_compare_baseline_equals_rep_by_rep(case):
    sc = BLOCK_CASES[case]
    assert compare_baseline(sc) == {
        proc: _rep_by_rep(sc, proc) for proc in ("step-up", "max-p-bh")}


@pytest.mark.parametrize("procedure", ["step-up", "bonferroni"])
def test_sweep_equals_rep_by_rep(procedure):
    sc = BLOCK_CASES["paper"]
    for c2v, metrics in sweep_c2(sc, [0.2, 0.6], procedure):
        assert metrics == _rep_by_rep(sc._replace(c2=c2v), procedure)


def test_outcomes_of_a_range_that_starts_mid_block():
    # repetitions 5 to 39 at m = 1000 run in blocks of 16 from repetition
    # 5, so each block writes its rows at an offset from the range's start
    sc = SimulationScenario(seed=13, reps=40, rho=0.5, block_size=7, **PAPER)
    procedures = ("step-up", "max-p-bh")
    outcomes = simulate._outcomes(sc, [0.2, sc.c2], procedures, range(5, 40))
    assert outcomes.shape == (2, 2, 35, 3)
    for proc, rows in zip(procedures, outcomes[1]):
        assert [tuple(row) for row in rows.tolist()] == [
            simulate_rep(sc, 5 + i, proc) for i in range(35)]


# the paper's grid 0.1:0.9:0.1, out of order: the loosest and the
# strictest cut are neither first nor last
GRID9 = [0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6]


@pytest.mark.parametrize("procedure", ["step-up", "bonferroni"])
@pytest.mark.parametrize("case", ["rho", "one-rep-blocks"])
def test_sweep_equals_pointwise_estimate_across_passes(case, procedure):
    # nine points, more than the eight a pass of draws once held: one pass
    # serves them all, and the grid may be an iterator
    sc = BLOCK_CASES[case]
    rows = sweep_c2(sc, iter(GRID9), procedure)
    assert [c2v for c2v, _ in rows] == GRID9
    for c2v, metrics in rows:
        assert metrics == estimate(sc._replace(c2=c2v), procedure)


def test_every_point_of_a_sweep_shares_one_design(monkeypatch):
    # one _outcomes call serves every point, each a c2 of the one scenario,
    # and each repetition's generator is made once
    generators = []
    real_generator = simulate._rep_generator

    def generator(seed, rep):
        generators.append(rep)
        return real_generator(seed, rep)

    monkeypatch.setattr(simulate, "_rep_generator", generator)
    sc = SimulationScenario(seed=5, reps=20, **PAPER)
    seen = []
    real_outcomes = simulate._outcomes

    def outcomes(scenario, c2s, procedures, reps):
        seen.append((scenario, list(c2s)))
        return real_outcomes(scenario, c2s, procedures, reps)

    monkeypatch.setattr(simulate, "_outcomes", outcomes)
    rows = sweep_c2(sc, GRID9)
    assert len(rows) == 9
    assert seen == [(sc, GRID9)]
    assert generators == list(range(sc.reps))


def test_block_size_never_changes_results(monkeypatch):
    # against one repetition per block; 40 repetitions at m = 1000 make
    # 3 blocks at the default size
    for sc in (BLOCK_CASES["rho"], BLOCK_CASES["paper"]._replace(reps=40)):
        monkeypatch.setattr(simulate, "_BLOCK", 1)
        expected = (compare_baseline(sc), estimate(sc, "step-up"),
                    estimate(sc, "bonferroni"))
        for block in (999, 1001, DEFAULT_BLOCK, 2**20):
            monkeypatch.setattr(simulate, "_BLOCK", block)
            assert (compare_baseline(sc), estimate(sc, "step-up"),
                    estimate(sc, "bonferroni")) == expected, block


@pytest.mark.parametrize("block", [1000, 2**12, DEFAULT_BLOCK, 2**20])
def test_normal_sf_is_called_at_most_twice_per_block(monkeypatch, block):
    # one call for the block's primary candidates, one for its follow-up
    # draws, however many repetitions the block holds; in a sweep, still
    # one for the candidates and one per point
    calls = []
    real = simulate.normal_sf

    def counted(x):
        calls.append(np.size(x))
        return real(x)

    monkeypatch.setattr(simulate, "normal_sf", counted)
    monkeypatch.setattr(simulate, "_BLOCK", block)
    sc = SimulationScenario(seed=5, reps=40, **PAPER)
    compare_baseline(sc)
    blocks = -(-sc.reps // max(1, block // sc.m))
    assert 0 < len(calls) <= 2 * blocks
    calls.clear()
    sweep_c2(sc, GRID9)
    assert 0 < len(calls) <= (1 + len(GRID9)) * blocks


def _point(m, l00, c2, q):
    return simulate._Point(SimulationScenario(
        pi1=0.5, pi2=0.5, seed=0, m=m, f00=1.0, f01=0.0, f10=0.0, f11=0.0,
        l00=l00, q=q), c2)


def _by_row(rows, values, nrows):
    return [values[rows == i] for i in range(nrows)]


@st.composite
def bh_blocks(draw):
    """(rows, p, level, n): rows of at most n p-values in [0, 1], empty or
    all-null ones among them, with ties and values exactly on or next to
    the BH bounds k * level / n."""
    n = draw(st.integers(1, 12))
    level = draw(st.sampled_from([1e-3, 0.05, 0.11, 0.5, 0.95, 1.0, 3.0]))
    bounds = [min(k * (level / n), 1.0) for k in range(1, n + 1)]
    pool = st.one_of(
        st.sampled_from(bounds),
        st.sampled_from(bounds).map(
            lambda b: min(float(np.nextafter(b, 2.0)), 1.0)),
        st.sampled_from(bounds).map(lambda b: float(np.nextafter(b, -1.0))),
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, 1.0))
    null = st.floats(0.9, 1.0)
    rows = draw(st.lists(st.tuples(st.integers(0, n), st.booleans()),
                         min_size=1, max_size=5))
    p = [draw(st.lists(null if is_null else pool, min_size=size,
                       max_size=size)) for size, is_null in rows]
    lengths = [len(row) for row in p]
    return (np.repeat(np.arange(len(p)), lengths),
            np.array([v for row in p for v in row], dtype=float), level, n)


@settings(max_examples=300, deadline=None)
@given(bh_blocks())
def test_block_bh_equals_oracle_row_by_row(block):
    # the whole block as one padded table, and each row alone
    rows, p, level, n = block
    mask = _bh_mask(p, level, n, rows)
    nrows = rows.max(initial=-1) + 1
    for row_p, row_mask in zip(_by_row(rows, p, nrows),
                               _by_row(rows, mask, nrows)):
        expected = sorted(oracle_bh(row_p.tolist(), level, n))
        assert np.flatnonzero(row_mask).tolist() == expected
        assert np.flatnonzero(_bh_mask(row_p, level, n)).tolist() == expected


@st.composite
def primary_blocks(draw):
    """(points of a sweep, rows of primary z-scores): ties, z-scores
    within 1e-6 of each point's candidate cut, and z-scores whose p-values
    sit near each point's BH bounds."""
    m = draw(st.integers(1, 20))
    l00 = draw(st.sampled_from([0.0, 0.8]))
    q = draw(st.sampled_from([0.01, 0.05, 0.3]))
    points = [_point(m, l00, c2, q) for c2 in draw(st.lists(
        st.sampled_from([0.1, 0.3, 0.5, 0.9]), min_size=1, max_size=3))]
    near_cut, on_bounds = [], []
    for point in points:
        near_cut += [point.cut + d for d in (-2e-6, -1e-6, -5e-7, 0.0, 5e-7,
                                             1e-6, 2e-6)]
        near_cut += [float(np.nextafter(point.cut, v))
                     for v in (-np.inf, np.inf)]
        on_bounds += [-normal_quantile(min(k * point.bh_level / m, 1.0))
                      for k in range(1, m + 1)]
    pool = st.one_of(st.sampled_from(near_cut), st.sampled_from(on_bounds),
                     st.floats(-4.0, 12.0), st.sampled_from([40.0, -40.0]))
    reps = draw(st.integers(1, 4))
    return points, [np.array(draw(st.lists(pool, min_size=m, max_size=m)))
                    for _ in range(reps)]


@settings(max_examples=300, deadline=None)
@given(primary_blocks())
def test_block_selection_equals_bh_reject_row_by_row(block):
    points, x1 = block
    candidates, selections = simulate._select(points, iter(x1))
    assert len(selections) == len(points)
    for point, selected in zip(points, selections):
        rep, col, p1 = (a[selected] for a in candidates)
        for i, x in enumerate(x1):
            p = normal_sf(x)
            expected = bh_reject(p, point.bh_level)
            assert np.array_equal(col[rep == i], expected)
            assert np.array_equal(p1[rep == i], p[expected])


@st.composite
def claim_blocks(draw):
    """(point, rows, p1, p2): the followed-up features of a few
    repetitions, with ties and p-values exactly on the claim bounds."""
    m = draw(st.sampled_from([20, 1000]))
    point = _point(m, draw(st.sampled_from([0.0, 0.8])),
                   draw(st.sampled_from([0.3, 0.5])),
                   draw(st.sampled_from([0.01, 0.05])))
    g, q_star = point.levels
    c2 = point.config.c2
    sizes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=5))
    p1, p2 = [], []
    for r1 in sizes:
        on_p1 = [min(r * g / m, 1.0) for r in range(1, r1 + 1)]
        on_p2 = [min(r * q_star * c2 / r1, 1.0) for r in range(1, r1 + 1)]
        for pool, out in ((on_p1, p1), (on_p2, p2)):
            values = st.one_of(st.floats(1e-12, 1.0), st.sampled_from(
                pool + [1e-9, 0.5]))
            out.extend(draw(st.lists(values, min_size=r1, max_size=r1)))
    return (point, np.repeat(np.arange(len(sizes)), sizes),
            np.array(p1, dtype=float), np.array(p2, dtype=float))


@settings(max_examples=300, deadline=None)
@given(claim_blocks())
def test_block_claims_equal_oracles_row_by_row(block):
    point, rows, p1, p2 = block
    r1 = np.bincount(rows)[rows]
    nrows = rows.max(initial=-1) + 1
    per_rep = list(zip(_by_row(rows, p1, nrows), _by_row(rows, p2, nrows)))
    needs = [_need_counts(point.procedure, a, b, point.levels, len(a))
             for a, b in per_rep]
    max_p_level = point.scenario.q / (1.0 - point.config.l00)

    def max_p_bh(a, b):
        mask = np.zeros(len(a), dtype=bool)
        mask[list(oracle_bh(np.maximum(a, b).tolist(), max_p_level,
                            point.config.m))] = True
        return mask

    expected = {
        "step-up": [need <= oracle_step_up_count(need.tolist())
                    for need in needs],
        "bonferroni": [need <= 1.0 for need in needs],
        "max-p-bh": [max_p_bh(a, b) for a, b in per_rep],
    }
    for proc, masks in expected.items():
        got = simulate._CLAIMS[proc](point, p1, p2, rows, r1)
        assert np.array_equal(got, np.concatenate(masks + [[]]).astype(bool))


def test_estimate_memory_is_bounded_by_block_not_reps():
    # an unblocked (reps x m) matrix would need ~400 MB here
    sc = _scenario(m=100_000, reps=50, seed=11)
    tracemalloc.start()
    try:
        estimate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("rho, block_size, bound",
                         [(0.0, 1, 2.5), (0.5, 1000, 2.5), (0.5, 7, 2.5)])
def test_estimate_keeps_one_repetitions_noise_at_a_time(rho, block_size,
                                                        bound):
    # at m = 1e6 a block is one repetition. Its m z-scores (and, for
    # rho > 0, the arrays that make them) are the only m-sized arrays: no
    # shift or block mask is stored, and a repetition's z-scores are freed
    # before the next repetition draws. The rest is R1-sized.
    sc = SimulationScenario(seed=12, reps=2, rho=rho, block_size=block_size,
                            **{**PAPER, "m": 10**6})
    tracemalloc.start()
    try:
        estimate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * sc.m
