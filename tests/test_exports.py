"""Every exported name resolves, in the package and in each module, and the
package exports exactly the public surface listed here."""

import importlib
import pkgutil

import repval

# Adding or dropping a public name means editing this set.
PUBLIC = {
    "AnalysisConfig", "DatasetError", "FeatureRecord", "NoConsistentRegime",
    "PValueTable", "ValidatedDataset", "bh_reject", "bonferroni_rvalues_all",
    "c1", "c1_tilde", "fdr_rvalues_all", "fdr_rvalues_all_general_dep",
    "fdr_rvalues_all_threshold_dep", "m_star", "max_p_bh", "meta_p",
    "normal_quantile", "normal_sf", "read_pvalue_table",
    "refine_for_replicability", "step_up_set", "step_up_set_general_dep",
    "step_up_set_threshold_dep", "validate_dataset",
}
# The simulation harness is public through its own module only.
SIMULATE = {
    "SimulationScenario", "SimulationMetrics", "simulate_rep", "estimate",
    "sweep_c2", "compare_baseline", "scenario_from_mapping",
    "SCENARIO_FIELDS", "METRICS_CSV_HEADER", "metrics_csv_row",
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
    assert len(repval.__all__) == len(PUBLIC) == 24
    assert set(repval.__all__) == PUBLIC
    assert not hasattr(repval, "__getattr__")


def test_simulation_surface_is_pinned():
    from repval import simulate
    assert len(simulate.__all__) == len(SIMULATE) == 10
    assert set(simulate.__all__) == SIMULATE
    assert not SIMULATE & set(repval.__all__)
