"""Every exported name resolves, in the package and in each module, and the
package exports exactly the public surface listed here."""

import importlib
import pkgutil

import repval

# Adding or dropping a public name means editing this set.
PUBLIC = {
    "AnalysisConfig", "DatasetError", "FeatureRecord", "NoConsistentRegime",
    "PValueTable", "SimulationMetrics", "SimulationScenario",
    "ValidatedDataset", "bh_reject", "bonferroni_rvalues_all", "c1",
    "c1_tilde", "compare_baseline", "estimate", "fdr_rvalues_all",
    "fdr_rvalues_all_general_dep", "fdr_rvalues_all_threshold_dep", "m_star",
    "max_p_bh", "meta_p", "normal_quantile", "normal_sf",
    "parse_scenario_file", "read_pvalue_table", "refine_for_replicability",
    "simulate_rep", "step_up_set", "step_up_set_general_dep",
    "step_up_set_threshold_dep", "sweep_c2", "validate_dataset",
}


def test_every_exported_name_resolves():
    modules = [repval] + [
        importlib.import_module(f"repval.{info.name}")
        for info in pkgutil.iter_modules(repval.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_public_surface_is_pinned():
    assert len(repval.__all__) == len(PUBLIC) == 31
    assert set(repval.__all__) == PUBLIC
