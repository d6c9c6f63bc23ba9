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

What a scenario fixes (block masks, the mu1 shifts, c1(q) and the BH
candidate cut) is computed once per scenario; mu2 is two scalar quantiles,
computed per repetition. Repetitions then run in blocks of at most 2^14
primary values, and each block makes a few numpy calls, not a few per
repetition. Every BH bound is at most the level c1(q)*q, so below a level
of 1/2 only primary z-scores at or above its upper quantile (less a 1e-6
margin) can be selected; only these candidates get a p-value, from one
``normal_sf`` call per block. BH then runs on all of the block's
candidates in one pass, one row per repetition of a padded table sorted
row by row, and the follow-up p-values come from one more call on the
concatenated draws. The claim rules also take the whole block at once,
with R1 per feature: the step-up set's R2 per repetition comes from one
such table of the need counts. BH, max-p BH and the step-up set all
claim through the one step-up rule of :mod:`repval.selection`, on one row
per repetition. Each repetition keeps its own stream and draw order, and
a row's claims depend on that row alone, so every result is the same as
running the repetitions one at a time.
A block keeps only its candidates, so memory is O(block + m), not
O(reps * m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from .baselines import _max_p_bh_mask
from .model import AnalysisConfig, _check_unit, _read_text
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


@dataclass(frozen=True)
class SimulationScenario:
    """Generative model plus analysis parameters for one simulation cell."""

    pi1: float
    pi2: float
    seed: int
    m: int = 1000
    f00: float = 0.9
    f01: float = 0.025
    f10: float = 0.025
    f11: float = 0.05
    l00: float = 0.8
    c2: float = 0.5
    q: float = 0.05
    reps: int = 10000
    rho: float = 0.0       # equicorrelation within primary-study blocks
    block_size: int = 1
    scenario_id: str = ""

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        self.analysis_config  # checks m, l00 and c2
        for name in ("f00", "f01", "f10", "f11"):
            frac = getattr(self, name)
            if not 0.0 <= frac <= 1.0:  # NaN too, before round() sees it
                raise ValueError(f"{name} must lie in [0, 1], got {frac!r}")
            count = frac * self.m
            if abs(count - round(count)) > 1e-9:
                raise ValueError(f"{name} * m = {count} is not an integer")
        total = self.f00 + self.f01 + self.f10 + self.f11
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"fractions sum to {total!r}, not 1")
        for name in ("pi1", "pi2", "q"):
            _check_unit(name, getattr(self, name))
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho!r}")
        if self.block_size < 1:
            raise ValueError(
                f"block_size must be >= 1, got {self.block_size!r}")
        # the id is written unquoted as the first metrics CSV cell
        if any(ch in self.scenario_id for ch in ',"\r\n'):
            raise ValueError(f"scenario_id {self.scenario_id!r} contains a "
                             "comma, quote or line break")

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (round(self.f00 * self.m), round(self.f01 * self.m),
                round(self.f10 * self.m), round(self.f11 * self.m))

    @property
    def analysis_config(self) -> AnalysisConfig:
        return AnalysisConfig(m=self.m, l00=self.l00, c2=self.c2)


@dataclass(frozen=True)
class SimulationMetrics:
    """Aggregated estimates; SE = sample SD / sqrt(reps)."""

    reps: int
    fdr_hat: float
    se_fdr: float
    avg_power: float
    se_power: float
    p_at_least_one: float
    se_palo: float
    fwer_hat: float
    se_fwer: float
    mean_claims: float
    mean_r1: float


def _rep_generator(seed: int, rep_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep_index,))
    return np.random.Generator(np.random.Philox(ss))


def _primary_noise(scenario: SimulationScenario,
                   rng: np.random.Generator) -> np.ndarray:
    m = scenario.m
    if scenario.rho == 0.0 or scenario.block_size == 1:
        return rng.standard_normal(m)
    # a block longer than m is one block of m; no more cells are made
    block = min(scenario.block_size, m)
    shared = rng.standard_normal(-(-m // block))[np.arange(m) // block]
    own = rng.standard_normal(m)
    return math.sqrt(scenario.rho) * shared + math.sqrt(1.0 - scenario.rho) * own


def _shift(power: float, n: int) -> float:
    """Mean shift giving a Bonferroni test at 0.05/n power ``power``: mu1
    with n = m, mu2 with n = R1."""
    return (normal_quantile(1.0 - _POWER_CALIBRATION_ALPHA / n)
            - normal_quantile(1.0 - power))


class _Design:
    """What a scenario fixes for all of its repetitions: the block masks,
    the primary mean shifts and the claim thresholds."""

    def __init__(self, scenario: SimulationScenario):
        n00, n01, n10, _ = scenario.counts
        m, q = scenario.m, scenario.q
        self.scenario = scenario
        self.signal2 = np.zeros(m, dtype=bool)
        self.signal2[n00:n00 + n01] = True          # follow-up-only block
        self.signal2[n00 + n01 + n10:] = True       # both-studies block
        self.truth11 = np.zeros(m, dtype=bool)
        self.truth11[n00 + n01 + n10:] = True
        self.shift1 = None
        if n00 + n01 < m:                           # primary-signal block
            self.shift1 = np.where(np.arange(m) >= n00 + n01,
                                   _shift(scenario.pi1, m), 0.0)
        self.bh_level = c1(q, scenario.l00, scenario.c2) * q
        # only p1 <= bh_level can pass BH. Below a level of 1/2 that needs
        # x1 at or above the level's upper quantile, and the margin is far
        # wider than the error of either function; the floor of 1e-300
        # keeps a level that rounds to 0 (p1 = 0 passes) finite.
        self.cut = (-normal_quantile(max(self.bh_level, 1e-300)) - 1e-6
                    if self.bh_level < 0.5 else -math.inf)
        self.config = scenario.analysis_config
        # both claim rules read G(q) and q* at level q (Bonferroni runs at
        # alpha = q)
        self.procedure = _fdr_procedure(self.config, float(m))
        self.levels = _claim_levels(self.procedure, q)


# procedure -> claim mask over a block's followed-up features, given each
# one's repetition (rows, nondecreasing) and that repetition's R1.
# Bonferroni is the count-1 case of the step-up predicate; it claims
# feature by feature, so it also takes one repetition's features alone.
def _step_up_claims(design, p1, p2, rows, r1):
    need = _need_counts(design.procedure, p1, p2, design.levels, r1)
    return _step_up_mask(need, 1, rows)


def _bonferroni_claims(design, p1, p2, rows=None, r1=None):
    return _need_counts(design.procedure, p1, p2, design.levels, r1) <= 1.0


def _max_p_bh_claims(design, p1, p2, rows, r1):
    """max_p_bh in every repetition, with n = m."""
    return _max_p_bh_mask(p1, p2, design.config, design.scenario.q, rows)


_CLAIMS = {"step-up": _step_up_claims, "bonferroni": _bonferroni_claims,
           "max-p-bh": _max_p_bh_claims}

# Primary values per block of repetitions: 16 repetitions at m = 1000, of
# which a block keeps only the candidates (about 18% at the paper design).
# On the paper-design sweep (5 points x 100 reps, in-process, 2 vCPU) 2^14
# took 68-71 ms, 2^12 81-108 ms and 2^15 63-68 ms; the release that ran
# each repetition's BH and claims apart took 162-169 ms. The simulate CLI
# child's peak RSS was 36.6-36.7 MB at 2^14 and 37.1-37.2 MB at 2^15,
# against 36.9 MB for that release.
_BLOCK = 2**14


def _select(design: _Design, x1: Iterable[np.ndarray]):
    """BH at the design's level in each repetition of a block, given its
    primary z-scores one repetition at a time: (repetition, feature, p1)
    of the selected features, by repetition in feature order. Only the
    candidates (z at or above ``design.cut``) get a p-value, and only they
    are kept from each repetition's m z-scores."""
    cols, z = [], []
    for x in x1:
        cols.append(np.flatnonzero(x >= design.cut))
        z.append(x[cols[-1]])
    rep = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
    col = np.concatenate(cols)
    p1 = normal_sf(np.concatenate(z))
    selected = _bh_mask(p1, design.bh_level, design.scenario.m, rep)
    return rep[selected], col[selected], p1[selected]


def _outcomes(scenario: SimulationScenario, reps: range,
              procedures: Sequence[str]) -> dict[str, np.ndarray]:
    """Outcomes of the given repetitions under each procedure, on the same
    draws: per procedure an int64 array with one row per repetition and
    columns R1, claims and true claims. Repetitions run in blocks of at
    most _BLOCK primary values; each draws from its own (seed, rep) stream
    in a fixed order (primary noise, then follow-up noise), so results do
    not depend on the block size."""
    for proc in procedures:
        if proc not in _CLAIMS:
            raise ValueError(f"unknown procedure {proc!r}")
    design = _Design(scenario)
    out = {proc: np.empty((len(reps), 3), dtype=np.int64)
           for proc in procedures}
    rows = max(1, _BLOCK // scenario.m)
    for first in range(reps.start, reps.stop, rows):
        block = range(first, min(first + rows, reps.stop))
        n = len(block)
        rngs = [_rep_generator(scenario.seed, rep) for rep in block]
        x1 = (_primary_noise(scenario, rng) for rng in rngs)
        if design.shift1 is not None:
            x1 = (x + design.shift1 for x in x1)
        rep, col, p1 = _select(design, x1)
        r1 = np.bincount(rep, minlength=n)

        x2 = np.concatenate([rng.standard_normal(k)
                             for rng, k in zip(rngs, r1.tolist())])
        mu2 = np.array([_shift(scenario.pi2, k) if k else 0.0
                        for k in r1.tolist()])
        x2 += np.where(design.signal2[col], mu2[rep], 0.0)
        p2 = normal_sf(x2)

        true = design.truth11[col]
        at = slice(first - reps.start, first - reps.start + n)
        for proc in procedures:
            claimed = _CLAIMS[proc](design, p1, p2, rep, r1[rep])
            out[proc][at] = np.column_stack((
                r1, np.bincount(rep[claimed], minlength=n),
                np.bincount(rep[claimed & true], minlength=n)))
    return out


def simulate_rep(scenario: SimulationScenario, rep_index: int,
                 procedure: str = "step-up") -> tuple[int, int, int]:
    """(R1, claims, true claims) of a single repetition; deterministic in
    (seed, rep_index)."""
    reps = range(rep_index, rep_index + 1)
    row = _outcomes(scenario, reps, (procedure,))[procedure][0]
    return tuple(row.tolist())


def _aggregate(scenario: SimulationScenario,
               outcomes: np.ndarray) -> SimulationMetrics:
    """Metrics from the (reps, 3) outcome array of :func:`_outcomes`."""
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
    outcomes = _outcomes(scenario, range(scenario.reps), (procedure,))
    return _aggregate(scenario, outcomes[procedure])


def sweep_c2(scenario: SimulationScenario, c2_grid: Iterable[float],
             procedure: str = "step-up"
             ) -> Iterator[tuple[float, SimulationMetrics]]:
    """One metrics row per grid point, holding everything else fixed.
    Rows are yielded as each point finishes, so the grid may be lazy."""
    for c2v in c2_grid:
        yield float(c2v), estimate(replace(scenario, c2=float(c2v)), procedure)


def compare_baseline(scenario: SimulationScenario) -> dict[str, SimulationMetrics]:
    """Step-up r-value procedure vs BH on maximum p-values, on identical
    draws (paired repetition by repetition)."""
    outcomes = _outcomes(scenario, range(scenario.reps),
                         ("step-up", "max-p-bh"))
    return {proc: _aggregate(scenario, per_rep)
            for proc, per_rep in outcomes.items()}


# --- scenario files and metrics CSV ----------------------------------------

# field name -> type, in declaration order: the keys of scenario files and
# the inline flags of ``repval simulate``
SCENARIO_FIELDS = get_type_hints(SimulationScenario)


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
# then metrics, written %.6f
_SCENARIO_COLUMNS = ("c2", "l00", "pi1", "pi2")
_METRIC_COLUMNS = ("fdr_hat", "se_fdr", "avg_power", "se_power",
                   "p_at_least_one", "se_palo")
METRICS_CSV_HEADER = ",".join(("scenario_id", *_SCENARIO_COLUMNS,
                               *_METRIC_COLUMNS))


def metrics_csv_row(scenario: SimulationScenario,
                    metrics: SimulationMetrics) -> str:
    return ",".join(
        [scenario.scenario_id]
        + [f"{getattr(scenario, name):.6g}" for name in _SCENARIO_COLUMNS]
        + [f"{getattr(metrics, name):.6f}" for name in _METRIC_COLUMNS])
