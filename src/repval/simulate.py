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

What a scenario fixes (block masks, the mu1 shifts, c1(q)) is computed
once per scenario; mu2 is two scalar quantiles, computed per repetition.
Repetitions then run in blocks of at most 2^12 primary values: the block's
primary p-values come from one ``normal_sf`` call on a (reps x m) matrix,
and its follow-up p-values from one call on the concatenated draws.
``normal_sf`` works element by element and each repetition keeps its own
stream and draw order, so every result is the same as running the
repetitions one at a time; memory is O(block + m), not O(reps * m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from .baselines import _max_p_bh_mask
from .model import AnalysisConfig
from .normal import normal_quantile, normal_sf
from .rvalue import (_claim_levels, _fdr_procedure, _need_counts,
                     _step_up_mask, c1)
from .selection import bh_reject

__all__ = [
    "SimulationScenario", "SimulationMetrics", "simulate_rep", "estimate",
    "sweep_c2", "compare_baseline",
    "parse_scenario_file", "scenario_from_mapping", "SCENARIO_FIELDS",
    "METRICS_CSV_HEADER", "metrics_csv_row",
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
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m!r}")
        total = self.f00 + self.f01 + self.f10 + self.f11
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"fractions sum to {total!r}, not 1")
        for name in ("f00", "f01", "f10", "f11"):
            frac = getattr(self, name)
            if frac < 0.0:
                raise ValueError(f"{name} must be nonnegative")
            count = frac * self.m
            if abs(count - round(count)) > 1e-9:
                raise ValueError(f"{name} * m = {count} is not an integer")
        for name in ("pi1", "pi2"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v!r}")
        if not 0.0 <= self.l00 < 1.0:
            raise ValueError("l00 must lie in [0, 1)")
        if not 0.0 < self.c2 < 1.0:
            raise ValueError("c2 must lie in (0, 1)")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
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


def _mu2(pi2: float, r1: int) -> float:
    """Follow-up shift giving a Bonferroni test at 0.05/R1 power pi2."""
    return (normal_quantile(1.0 - _POWER_CALIBRATION_ALPHA / r1)
            - normal_quantile(1.0 - pi2))


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
            mu1 = (normal_quantile(1.0 - _POWER_CALIBRATION_ALPHA / m)
                   - normal_quantile(1.0 - scenario.pi1))
            self.shift1 = np.where(np.arange(m) >= n00 + n01, mu1, 0.0)
        self.bh_level = c1(q, scenario.l00, scenario.c2) * q
        self.config = scenario.analysis_config
        # both claim rules read G(q) and q* at level q (Bonferroni runs at
        # alpha = q)
        self.procedure = _fdr_procedure(self.config, float(m))
        self.levels = _claim_levels(self.procedure, q)


# procedure -> claim mask; Bonferroni is the count-1 case of the step-up
# predicate
_CLAIMS = {
    "step-up": lambda design, p1, p2: _step_up_mask(
        design.procedure, p1, p2, design.levels),
    "bonferroni": lambda design, p1, p2: _need_counts(
        design.procedure, p1, p2, design.levels) <= 1.0,
    "max-p-bh": lambda design, p1, p2: _max_p_bh_mask(
        p1, p2, design.config, design.scenario.q)}

# Primary values per block of repetitions: 32 KiB of float64. At m = 1000,
# against one repetition per block, the paper-design sweep ran ~1.7x faster
# and the simulate CLI child's peak RSS rose 0.3 MB; 2^16 ran ~2x faster but
# rose 4.7 MB.
_BLOCK = 2**12


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
        rngs = [_rep_generator(scenario.seed, rep) for rep in block]
        x1 = np.stack([_primary_noise(scenario, rng) for rng in rngs])
        if design.shift1 is not None:
            x1 += design.shift1
        p1 = normal_sf(x1)

        selected = [bh_reject(row, design.bh_level) for row in p1]
        x2 = []
        for rng, sel in zip(rngs, selected):
            draws = rng.standard_normal(len(sel))
            sel_signal2 = design.signal2[sel]
            if sel_signal2.any():
                draws = draws + np.where(
                    sel_signal2, _mu2(scenario.pi2, len(sel)), 0.0)
            x2.append(draws)
        p2_all = normal_sf(np.concatenate(x2))

        end = 0
        for i, (row, sel) in enumerate(zip(p1, selected),
                                       first - reps.start):
            r1 = len(sel)
            p2 = p2_all[end:end + r1]
            end += r1
            p1_sel = row[sel]
            sel_truth = design.truth11[sel]
            for proc in procedures:
                mask = _CLAIMS[proc](design, p1_sel, p2)
                out[proc][i] = r1, mask.sum(), (mask & sel_truth).sum()
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
        kwargs[key] = SCENARIO_FIELDS[key](raw)
    for required in ("pi1", "pi2", "seed"):
        if required not in kwargs:
            raise ValueError(f"scenario is missing required field {required!r}")
    return SimulationScenario(**kwargs)


def parse_scenario_file(source) -> SimulationScenario:
    """Plain key = value lines mirroring the scenario fields; # comments."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return scenario_from_mapping(mapping)


METRICS_CSV_HEADER = ("scenario_id,c2,l00,pi1,pi2,fdr_hat,se_fdr,"
                      "avg_power,se_power,p_at_least_one,se_palo")


def metrics_csv_row(scenario: SimulationScenario,
                    metrics: SimulationMetrics) -> str:
    return ",".join([
        scenario.scenario_id,
        f"{scenario.c2:.6g}", f"{scenario.l00:.6g}",
        f"{scenario.pi1:.6g}", f"{scenario.pi2:.6g}",
        f"{metrics.fdr_hat:.6f}", f"{metrics.se_fdr:.6f}",
        f"{metrics.avg_power:.6f}", f"{metrics.se_power:.6f}",
        f"{metrics.p_at_least_one:.6f}", f"{metrics.se_palo:.6f}",
    ])
