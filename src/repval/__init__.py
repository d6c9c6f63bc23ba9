"""Replication r-values for two-stage follow-up designs.

The r-value of a followed-up feature is the lowest error-rate level (FDR or
FWER) at which it can be declared replicated across the primary and
follow-up studies; it is read against a target level exactly like a
p-value. The package computes r-values for tables of p-value pairs, whose
rows are the follow-up set as already chosen by a stable selection rule,
and returns them as a float64 array in ``dataset.ids`` order. It provides
the equivalent step-up claim rule, conservative variants for dependent
primary-study p-values, an optional BH refinement of the follow-up set, the
usual comparison baselines, and a seeded Monte Carlo harness for verifying
error control and power.
"""

from .baselines import max_p_bh, meta_p
from .dependence import (NoConsistentRegime, c1_tilde,
                         fdr_rvalues_all_general_dep,
                         fdr_rvalues_all_threshold_dep, m_star,
                         step_up_set_general_dep, step_up_set_threshold_dep)
from .fwer import bonferroni_rvalues_all
from .model import (AnalysisConfig, DatasetError, FeatureRecord,
                    PValueTable, ValidatedDataset, read_pvalue_table,
                    validate_dataset)
from .normal import normal_quantile, normal_sf
from .rvalue import c1, fdr_rvalues_all, step_up_set
from .selection import bh_reject, refine_for_replicability

# The simulation harness loads on first use of one of its names: the CLI
# imports this package for every call, and only ``repval simulate`` needs it.
_SIMULATION = ("SimulationMetrics", "SimulationScenario", "compare_baseline",
               "estimate", "parse_scenario_file", "simulate_rep", "sweep_c2")


def __getattr__(name: str):
    if name in _SIMULATION:
        from . import simulate
        value = globals()[name] = getattr(simulate, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "DatasetError", "FeatureRecord", "NoConsistentRegime",
    "PValueTable", "SimulationMetrics", "SimulationScenario",
    "ValidatedDataset", "bh_reject", "bonferroni_rvalues_all", "c1",
    "c1_tilde", "compare_baseline", "estimate", "fdr_rvalues_all",
    "fdr_rvalues_all_general_dep", "fdr_rvalues_all_threshold_dep",
    "m_star", "max_p_bh", "meta_p", "normal_quantile", "normal_sf",
    "parse_scenario_file", "read_pvalue_table", "refine_for_replicability",
    "simulate_rep", "step_up_set", "step_up_set_general_dep",
    "step_up_set_threshold_dep", "sweep_c2", "validate_dataset",
]
