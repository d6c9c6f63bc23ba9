"""Stable selection rules for the follow-up set, the BH step-up procedure,
and refinement of an already-followed-up set before computing r-values.

A selection rule is *stable* when changing one selected feature's primary
p-value, in any way that keeps it selected, leaves the selected set as a
whole unchanged. Fixed thresholds, top-k, an explicit list, and BH at a
fixed level all qualify; adaptive rules do not and are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .model import AnalysisConfig, ValidatedDataset

__all__ = [
    "Threshold", "BHLevel", "TopK", "Explicit", "SelectionRule",
    "bh_reject", "apply_selection", "refine_for_replicability",
    "MissingPrimaryVector",
]


@dataclass(frozen=True)
class Threshold:
    """Select features with primary p-value at or below a fixed cutoff."""

    t: float


@dataclass(frozen=True)
class BHLevel:
    """Select the BH rejections at a fixed level on the primary p-values."""

    alpha: float


@dataclass(frozen=True)
class TopK:
    """Select the k smallest primary p-values (ties: input order)."""

    k: int


@dataclass(frozen=True)
class Explicit:
    """Select a pre-registered index set."""

    indices: frozenset[int]


SelectionRule = Union[Threshold, BHLevel, TopK, Explicit]


def bh_reject(pvalues: Sequence[float], level: float, *,
              n: Optional[int] = None) -> np.ndarray:
    """Indices rejected by the BH step-up procedure at the given level:
    the k smallest p-values for the largest k with p_(k) <= k * level / n.
    Returns a sorted index array (possibly empty).

    ``n`` (default ``len(pvalues)``) is the number of hypotheses. The
    n - len(pvalues) not given are taken as p = 1, without being
    materialised, and only indices into ``pvalues`` are returned; the given
    p-values must then lie in [0, 1]. A padded 1 can pass only at the last
    step, when n * (level / n) >= 1, and then every hypothesis is rejected.
    Otherwise no value 1 passes, the given p-values fill the first sorted
    positions, and BH runs on them alone with denominator n.
    """
    p = np.asarray(pvalues, dtype=float)
    if n is None:
        n = len(p)
    if n < len(p):
        raise ValueError(f"n={n} is below the {len(p)} p-values given")
    if n == 0:
        return np.zeros(0, dtype=int)
    step = level / n
    if n > len(p) and n * step >= 1.0:
        return np.arange(len(p))
    # Only p <= len(p) * step can pass at any count. Those p-values fill the
    # first sorted positions, in the same stable order, so only they are
    # sorted.
    candidates = np.nonzero(p <= len(p) * step)[0]
    order = candidates[np.argsort(p[candidates], kind="stable")]
    passing = np.nonzero(p[order] <= np.arange(1, len(order) + 1) * step)[0]
    if len(passing) == 0:
        return np.zeros(0, dtype=int)
    k = int(passing[-1]) + 1
    return np.sort(order[:k])


def apply_selection(primary_pvalues: Sequence[float],
                    rule: SelectionRule) -> np.ndarray:
    """Apply a stable selection rule to the full primary p-value vector;
    returns the selected indices, sorted."""
    p = np.asarray(primary_pvalues, dtype=float)
    if isinstance(rule, Threshold):
        return np.nonzero(p <= rule.t)[0]
    if isinstance(rule, BHLevel):
        return bh_reject(p, rule.alpha)
    if isinstance(rule, TopK):
        if rule.k < 0:
            raise ValueError("TopK needs k >= 0")
        return np.sort(np.argsort(p, kind="stable")[:rule.k])
    if isinstance(rule, Explicit):
        return np.array(sorted(i for i in rule.indices if 0 <= i < len(p)),
                        dtype=int)
    raise TypeError(f"unknown selection rule {rule!r}")


class MissingPrimaryVector(ValueError):
    """Refinement needs the non-followed primary p-values, or an explicit
    opt-in to padding them with 1.0."""


def refine_for_replicability(
    dataset: ValidatedDataset,
    config: AnalysisConfig,
    q: float,
    *,
    other_primary_pvalues: Optional[Sequence[float]] = None,
    pad_missing: bool = False,
    bh_level: Optional[float] = None,
) -> ValidatedDataset:
    """Shrink the followed-up set to the features a BH pass on the primary
    p-values would reject, before computing r-values at level q.

    Fewer selected features means a smaller multiplicity burden on the
    follow-up side, so r-values computed on the refined set are no larger;
    the suite checks that nothing significant at q is lost.

    ``other_primary_pvalues`` are the primary p-values of the m - R1
    features that were *not* followed up. When they are unavailable (the
    usual case with published tables), ``pad_missing=True`` substitutes 1.0
    for them, which can only shrink the refined set further and is therefore
    conservative for this screening step.

    ``bh_level`` defaults to q itself, which reproduces the reference
    behaviour on the bundled data; pass ``c1(q, l00, c2) * q`` for the
    widest screen that provably keeps every feature capable of an r-value
    at or below q.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    r1 = len(dataset)
    if other_primary_pvalues is None:
        if not pad_missing:
            raise MissingPrimaryVector(
                "supply other_primary_pvalues or set pad_missing=True to "
                "pad the unavailable primary p-values with 1.0")
        others = np.zeros(0)
    else:
        others = np.asarray(other_primary_pvalues, dtype=float)
        if len(others) != config.m - r1:
            raise ValueError(
                f"expected {config.m - r1} non-followed p-values, "
                f"got {len(others)}")
    level = q if bh_level is None else bh_level
    rejected = bh_reject(np.concatenate([dataset.p1, others]), level,
                         n=config.m)
    keep = [int(i) for i in rejected if i < r1]
    return dataset.subset(keep)
