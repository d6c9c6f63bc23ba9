"""Monte Carlo harness: generate two-study normal data, run the full
selection + r-value pipeline, and estimate FDR, FWER and power.

Generative model per repetition: the m features split into four blocks
(null in both studies, signal in follow-up only, signal in primary only,
signal in both). Primary z-scores get a mean shift mu1 on primary-signal
features, chosen so a Bonferroni test at 0.05/m has power pi1; features are
selected for follow-up by BH at level c1(q)*q on the primary p-values;
follow-up z-scores for the R1 selected features get a mean shift mu2 chosen
so a Bonferroni test at 0.05/R1 has power pi2 (R1 is the realised selection
count, so mu2 varies across repetitions). P-values are one-sided upper-tail.

A claim is true iff the feature has signal in both studies. Estimated FDR
is the mean false discovery proportion; average power is the mean count of
true claims divided by m*f11; "power for at least one" is the fraction of
repetitions with any true claim; FWER is the fraction with any false claim.

Every repetition draws from its own counter-derived stream
(seed, rep_index), so results are bitwise reproducible no matter how
repetitions are scheduled, and paired procedure comparisons see identical
data.

The features run through the four blocks in column order, so a scenario's
blocks are its three counts n00, n01 and n10, and mu1 is computed once per
run. What a c2 point fixes (c1(q), the BH level and candidate cut, the
claim thresholds) is computed once per point; mu2 is two scalar quantiles,
computed once per R1 that a block holds. Repetitions run in blocks of at
most 2^14 primary values, and each block makes a few numpy calls, not a few
per repetition. Every BH bound is at most the level c1(q)*q, so below a
level of 1/2 only primary z-scores at or above its upper quantile (less a
1e-6 margin) can be selected; only these candidates get a p-value, from one
``normal_sf`` call per block. BH then runs on all of the block's candidates
in one pass, one row per repetition of a padded table sorted row by row,
and the follow-up p-values come from one more call on the concatenated
draws. The claim rules also take the whole block at once, with R1 per
feature: the step-up set's R2 per repetition comes from one such table of
the need counts. BH, max-p BH and the step-up set all claim through the one
step-up rule of :mod:`repval.selection`, on one row per repetition. Each
repetition keeps its own stream and draw order, and a row's claims depend
on that row alone, so every result is the same as running the repetitions
one at a time.

A c2 sweep makes one pass of draws for its whole grid: the primary noise
is the same at every c2, so each block's generators, primary z-scores and
candidates (cut at the grid's loosest point) are made once, and each point
runs BH on the candidates at or above its own cut. A repetition's
follow-up noise is one draw as long as its largest R1 over the points;
each point reads the prefix it would have drawn alone, and gets its
follow-up p-values from one ``normal_sf`` call. Every number is the one
:func:`estimate` gives at that point. A block keeps its candidates and,
per point, the indices of those selected. Its repetitions draw one at a
time, and each one's m z-scores are freed once its candidates are taken,
so what is live is one repetition's m values (for rho > 0, the two arrays
that make them) plus the candidates, not O(reps * m); and the outcome
array: 24 bytes per repetition, point and procedure.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .baselines import _max_p_bh_mask
from .model import AnalysisConfig, _check_unit, _Frozen, _read_text
from .normal import normal_quantile, normal_sf
from .rvalue import _claim_levels, _fdr_procedure, _need_counts, c1
from .selection import _bh_mask, _step_up_mask
# not called here: the perfbench tracer wraps it under this module's name
from .selection import bh_reject  # noqa: F401

__all__ = [
    "SimulationScenario", "SimulationMetrics", "simulate_rep", "estimate",
    "sweep_c2", "compare_baseline", "scenario_from_mapping",
    "SCENARIO_FIELDS", "METRICS_CSV_HEADER", "metrics_csv_row",
]

_POWER_CALIBRATION_ALPHA = 0.05  # Bonferroni level defining pi1/pi2


class SimulationScenario(_Frozen):
    """Generative model plus analysis parameters for one simulation cell;
    ``rho`` is the equicorrelation within primary-study blocks of
    ``block_size`` features. Every value is checked on construction, and so
    on every copy (``_replace``, :mod:`pickle`, :mod:`copy`); ``seed``,
    ``reps``, ``block_size`` and ``m`` must be ``int`` or numpy integers.
    The constructor's annotations give :data:`SCENARIO_FIELDS`."""

    __slots__ = _fields = ("pi1", "pi2", "seed", "m", "f00", "f01", "f10",
                           "f11", "l00", "c2", "q", "reps", "rho",
                           "block_size", "scenario_id")

    def __init__(self, pi1: float, pi2: float, seed: int, m: int = 1000,
                 f00: float = 0.9, f01: float = 0.025, f10: float = 0.025,
                 f11: float = 0.05, l00: float = 0.8, c2: float = 0.5,
                 q: float = 0.05, reps: int = 10000, rho: float = 0.0,
                 block_size: int = 1, scenario_id: str = ""):
        self._set(pi1=pi1, pi2=pi2, seed=seed, m=m, f00=f00, f01=f01,
                  f10=f10, f11=f11, l00=l00, c2=c2, q=q, reps=reps, rho=rho,
                  block_size=block_size, scenario_id=scenario_id)
        for name in ("seed", "reps", "block_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed!r}")
        self.analysis_config  # checks m, l00 and c2
        for name in ("f00", "f01", "f10", "f11"):
            frac = getattr(self, name)
            if not 0.0 <= frac <= 1.0:  # NaN too, before round() sees it
                raise ValueError(f"{name} must lie in [0, 1], got {frac!r}")
            count = frac * m
            if abs(count - round(count)) > 1e-9:
                raise ValueError(f"{name} * m = {count} is not an integer")
        total = f00 + f01 + f10 + f11
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"fractions sum to {total!r}, not 1")
        for name in ("pi1", "pi2", "q"):
            _check_unit(name, getattr(self, name))
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps!r}")
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {rho!r}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size!r}")
        # the id is written unquoted as the first metrics CSV cell
        if any(ch in scenario_id for ch in ',"\r\n'):
            raise ValueError(f"scenario_id {scenario_id!r} contains a "
                             "comma, quote or line break")

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (round(self.f00 * self.m), round(self.f01 * self.m),
                round(self.f10 * self.m), round(self.f11 * self.m))

    @property
    def analysis_config(self) -> AnalysisConfig:
        return AnalysisConfig(m=self.m, l00=self.l00, c2=self.c2)


class SimulationMetrics(_Frozen):
    """Aggregated estimates (all required); SE = sample SD / sqrt(reps)."""

    __slots__ = _fields = ("reps", "fdr_hat", "se_fdr", "avg_power",
                           "se_power", "p_at_least_one", "se_palo",
                           "fwer_hat", "se_fwer", "mean_claims", "mean_r1")

    def __init__(self, reps: int, fdr_hat: float, se_fdr: float,
                 avg_power: float, se_power: float, p_at_least_one: float,
                 se_palo: float, fwer_hat: float, se_fwer: float,
                 mean_claims: float, mean_r1: float):
        self._set(reps=reps, fdr_hat=fdr_hat, se_fdr=se_fdr,
                  avg_power=avg_power, se_power=se_power,
                  p_at_least_one=p_at_least_one, se_palo=se_palo,
                  fwer_hat=fwer_hat, se_fwer=se_fwer,
                  mean_claims=mean_claims, mean_r1=mean_r1)


def _rep_generator(seed: int, rep_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep_index,))
    return np.random.Generator(np.random.Philox(ss))


def _primary_z(scenario: SimulationScenario, rng: np.random.Generator,
               start: int, mu1: float) -> np.ndarray:
    """One repetition's primary z-scores: fresh noise, with ``mu1`` added
    in place to the primary-signal columns, ``start`` on."""
    m = scenario.m
    if scenario.rho == 0.0 or scenario.block_size == 1:
        x = rng.standard_normal(m)
    else:
        # a block longer than m is one block of m; no more cells are made
        block = min(scenario.block_size, m)
        x = np.repeat(rng.standard_normal(-(-m // block)), block)[:m]
        own = rng.standard_normal(m)
        x *= math.sqrt(scenario.rho)
        own *= math.sqrt(1.0 - scenario.rho)
        x += own
    x[start:] += mu1
    return x


def _shift(power: float, n: int) -> float:
    """Mean shift giving a Bonferroni test at 0.05/n power ``power``: mu1
    with n = m, mu2 with n = R1."""
    return (normal_quantile(1.0 - _POWER_CALIBRATION_ALPHA / n)
            - normal_quantile(1.0 - power))


class _Point:
    """What ``scenario`` at one c2 of its grid fixes: the BH level and
    candidate cut, and the claim thresholds."""

    def __init__(self, scenario: SimulationScenario, c2: float):
        q = scenario.q
        self.scenario = scenario
        self.config = AnalysisConfig(m=scenario.m, l00=scenario.l00, c2=c2)
        self.bh_level = c1(q, scenario.l00, c2) * q
        # only p1 <= bh_level can pass BH. Below a level of 1/2 that needs
        # x1 at or above the level's upper quantile, and the margin is far
        # wider than the error of either function; the floor of 1e-300
        # keeps a level that rounds to 0 (p1 = 0 passes) finite.
        self.cut = (-normal_quantile(max(self.bh_level, 1e-300)) - 1e-6
                    if self.bh_level < 0.5 else -math.inf)
        # both claim rules read G(q) and q* at level q (Bonferroni runs at
        # alpha = q)
        self.procedure = _fdr_procedure(self.config, float(scenario.m))
        self.levels = _claim_levels(self.procedure, q)


# procedure -> claim mask over a block's followed-up features at one point,
# given each one's repetition (rows, nondecreasing) and that repetition's
# R1. Bonferroni is the count-1 case of the step-up predicate.
def _step_up_claims(point, p1, p2, rows, r1):
    need = _need_counts(point.procedure, p1, p2, point.levels, r1)
    return _step_up_mask(need, 1, rows)


def _bonferroni_claims(point, p1, p2, rows, r1):
    return _need_counts(point.procedure, p1, p2, point.levels, r1) <= 1.0


def _max_p_bh_claims(point, p1, p2, rows, r1):
    """max_p_bh in every repetition, with n = m."""
    return _max_p_bh_mask(p1, p2, point.config, point.scenario.q, rows)


_CLAIMS = {"step-up": _step_up_claims, "bonferroni": _bonferroni_claims,
           "max-p-bh": _max_p_bh_claims}

# Primary values per block of repetitions: 16 repetitions at m = 1000, of
# which a block keeps only the candidates (about 18% at the paper design).
# On the paper-design sweep over 5 c2 points (in-process, 2 vCPU, medians
# of 21 and 7 alternating rounds) 2^12 took 31.1 ms, 2^14 18.5 ms and 2^15
# 17.2 ms at 100 reps, and 306, 172 and 160 ms at 1 000 reps. A process
# running the simulate CLI on the 100-rep sweep peaked at 36.4-36.5 MB RSS
# at 2^12, 36.8 MB at 2^14 and 37.1 MB at 2^15.
_BLOCK = 2**14


def _select(points: Sequence[_Point], x1: Iterable[np.ndarray]):
    """BH at each point's level in each repetition of a block, given its
    primary z-scores one repetition at a time. Only the candidates at the
    loosest point's cut get a p-value, from one ``normal_sf`` call, and
    only they are kept from each repetition's m z-scores: (repetition,
    feature, p1) of the candidates, by repetition in feature order, and
    per point the indices of those it selects. Each point runs BH on the
    candidates at or above its own cut."""
    cut = min(point.cut for point in points)
    cols, z = [], []
    for x in x1:
        cols.append(np.flatnonzero(x >= cut))
        z.append(x[cols[-1]])
        del x  # so one repetition's m values are live at a time
    rep = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
    col = np.concatenate(cols)
    z = np.concatenate(z)
    p1 = normal_sf(z)
    selected = []
    for point in points:
        own = np.flatnonzero(z >= point.cut)
        selected.append(own[_bh_mask(p1[own], point.bh_level,
                                     point.scenario.m, rep[own])])
    return (rep, col, p1), selected


def _outcomes(scenario: SimulationScenario, c2s: Sequence[float],
              procedures: Sequence[str], reps: range) -> np.ndarray:
    """Outcomes of the given repetitions at each c2 in ``c2s`` (``scenario``
    with that c2) under each procedure, on the same draws: an int64 array
    indexed [point, procedure, repetition] whose last axis holds R1, claims
    and true claims. Repetitions run in blocks of at most _BLOCK primary
    values; each draws from its own (seed, rep) stream in a fixed order
    (primary noise, then follow-up noise), so results do not depend on the
    block size or on the other points."""
    for proc in procedures:
        if proc not in _CLAIMS:
            raise ValueError(f"unknown procedure {proc!r}")
    points = [_Point(scenario, c2) for c2 in c2s]
    out = np.empty((len(points), len(procedures), len(reps), 3),
                   dtype=np.int64)
    mu1 = _shift(scenario.pi1, scenario.m)
    mu2 = {0: 0.0}  # by R1
    rows = max(1, _BLOCK // scenario.m)
    for first in range(reps.start, reps.stop, rows):
        block = range(first, min(first + rows, reps.stop))
        _block(scenario, points, procedures, block, mu1, mu2,
               out[:, :, first - reps.start:block.stop - reps.start])
    return out


def _block(scenario: SimulationScenario, points: Sequence[_Point],
           procedures: Sequence[str], block: range, mu1: float,
           mu2: dict[int, float], out: np.ndarray) -> None:
    """Write the outcomes of one block of repetitions into ``out``, its
    slice of the array of :func:`_outcomes`; ``mu2`` holds the follow-up
    shift by R1, filled as counts occur. What a block holds is freed when
    it returns. A repetition draws its follow-up noise once, as long as its
    largest R1 over the points, and each point reads the prefix of it that
    it would draw alone."""
    n00, n01, n10, _ = scenario.counts
    n = len(block)
    rngs = [_rep_generator(scenario.seed, rep) for rep in block]
    candidates, selections = _select(points, (
        _primary_z(scenario, rng, n00 + n01, mu1) for rng in rngs))
    # R1 per point and repetition
    r1 = np.array([np.bincount(candidates[0][sel], minlength=n)
                   for sel in selections])
    for k in set(r1.ravel().tolist()) - mu2.keys():
        mu2[k] = _shift(scenario.pi2, k)

    longest = r1.max(axis=0)
    draws = np.concatenate([rng.standard_normal(k)
                            for rng, k in zip(rngs, longest.tolist())])
    starts = np.cumsum(longest) - longest
    for point, selected, own, at_point in zip(points, selections, r1, out):
        rep, col, p1 = (a[selected] for a in candidates)
        # each selected feature's place among its repetition's draws
        offset = np.arange(len(rep)) - (np.cumsum(own) - own)[rep]
        shift = np.array([mu2[k] for k in own.tolist()])
        # signal in both studies, and in the follow-up study
        true = col >= n00 + n01 + n10
        signal2 = true | ((col >= n00) & (col < n00 + n01))
        p2 = normal_sf(draws[starts[rep] + offset]
                       + np.where(signal2, shift[rep], 0.0))
        for proc, at in zip(procedures, at_point):
            claimed = _CLAIMS[proc](point, p1, p2, rep, own[rep])
            at[:, 0] = own
            at[:, 1] = np.bincount(rep[claimed], minlength=n)
            at[:, 2] = np.bincount(rep[claimed & true], minlength=n)


def simulate_rep(scenario: SimulationScenario, rep_index: int,
                 procedure: str = "step-up") -> tuple[int, int, int]:
    """(R1, claims, true claims) of a single repetition; deterministic in
    (seed, rep_index)."""
    reps = range(rep_index, rep_index + 1)
    return tuple(_outcomes(scenario, [scenario.c2], (procedure,),
                           reps)[0, 0, 0].tolist())


def _aggregate(scenario: SimulationScenario,
               outcomes: np.ndarray) -> SimulationMetrics:
    """Metrics from one point and procedure's (reps, 3) rows of
    :func:`_outcomes`."""
    reps = len(outcomes)
    n11 = scenario.counts[3]
    r1s, claims, true = outcomes.T
    false = claims - true
    fdp = false / np.maximum(claims, 1)
    power = true / n11 if n11 else np.zeros(reps)
    palo = (true > 0).astype(float)
    fwer = (false > 0).astype(float)

    def se(v: np.ndarray) -> float:
        return float(v.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0

    return SimulationMetrics(
        reps=reps,
        fdr_hat=float(fdp.mean()), se_fdr=se(fdp),
        avg_power=float(power.mean()), se_power=se(power),
        p_at_least_one=float(palo.mean()), se_palo=se(palo),
        fwer_hat=float(fwer.mean()), se_fwer=se(fwer),
        mean_claims=float(claims.mean()), mean_r1=float(r1s.mean()),
    )


def estimate(scenario: SimulationScenario,
             procedure: str = "step-up") -> SimulationMetrics:
    """Run all repetitions, in blocks that keep each repetition's own
    stream, and aggregate; equal to aggregating :func:`simulate_rep` over
    the repetitions one by one."""
    return sweep_c2(scenario, [scenario.c2], procedure)[0][1]


def sweep_c2(scenario: SimulationScenario, c2_grid: Iterable[float],
             procedure: str = "step-up"
             ) -> list[tuple[float, SimulationMetrics]]:
    """One (c2, metrics) row per grid point, holding everything else
    fixed; each equal to :func:`estimate` at that point. One pass of draws
    serves the whole grid."""
    c2s = [float(c2v) for c2v in c2_grid]
    if not c2s:
        return []
    outcomes = _outcomes(scenario, c2s, (procedure,), range(scenario.reps))
    return [(c2v, _aggregate(scenario, rows))
            for c2v, rows in zip(c2s, outcomes[:, 0])]


def compare_baseline(scenario: SimulationScenario) -> dict[str, SimulationMetrics]:
    """Step-up r-value procedure vs BH on maximum p-values, on identical
    draws (paired repetition by repetition)."""
    procedures = ("step-up", "max-p-bh")
    outcomes = _outcomes(scenario, [scenario.c2], procedures,
                         range(scenario.reps))
    return {proc: _aggregate(scenario, rows)
            for proc, rows in zip(procedures, outcomes[0])}


# --- scenario files and metrics CSV ----------------------------------------

# field name -> type, in the constructor's order: the keys of scenario
# files and the inline flags of ``repval simulate``
SCENARIO_FIELDS = get_type_hints(SimulationScenario.__init__)


def scenario_from_mapping(mapping: dict) -> SimulationScenario:
    kwargs = {}
    for key, raw in mapping.items():
        if key not in SCENARIO_FIELDS:
            raise ValueError(f"unknown scenario field {key!r}")
        kind = SCENARIO_FIELDS[key]
        try:
            kwargs[key] = kind(raw)
            # int() truncates a number; one that is not whole is refused,
            # as its text is
            if kind is int and not isinstance(raw, str) and kwargs[key] != raw:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{key} must be {kind.__name__}, got "
                             f"{raw!r}") from None
    for required in ("pi1", "pi2", "seed"):
        if required not in kwargs:
            raise ValueError(f"scenario is missing required field {required!r}")
    return SimulationScenario(**kwargs)


def _scenario_keys(source) -> dict[str, str]:
    """The ``key = value`` lines of a scenario file, values as written, for
    :func:`scenario_from_mapping`. ``source`` is a path or an open text
    stream. The text must be UTF-8, and one leading byte-order mark is
    skipped, as in :func:`repval.model.read_pvalue_table`; ``#`` starts a
    comment. A key given twice is an error (:class:`ValueError`), not a
    silent override."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(source).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in mapping:
            raise ValueError(f"line {lineno}: key {key!r} appears twice")
        mapping[key] = value
    return mapping


# metrics CSV columns after scenario_id: scenario fields, written %.6g,
# then every SimulationMetrics field after reps, in order, written %.6f
_SCENARIO_COLUMNS = ("c2", "l00", "pi1", "pi2")
_METRIC_COLUMNS = SimulationMetrics._fields[1:]
METRICS_CSV_HEADER = ",".join(("scenario_id", *_SCENARIO_COLUMNS,
                               *_METRIC_COLUMNS))


def metrics_csv_row(scenario: SimulationScenario,
                    metrics: SimulationMetrics) -> str:
    return ",".join(
        [scenario.scenario_id]
        + [f"{getattr(scenario, name):.6g}" for name in _SCENARIO_COLUMNS]
        + [f"{getattr(metrics, name):.6f}" for name in _METRIC_COLUMNS])
