"""Every exported name resolves, in the package and in each module, and the
package exports exactly the public surface listed here."""

import importlib
import pkgutil
import sys

import pytest

import repval

# Adding or dropping a public name means editing this set.
PUBLIC = {
    "AnalysisConfig", "DatasetError", "NoConsistentRegime", "ValidatedDataset",
    "bonferroni_rvalues_all", "fdr_rvalues_all", "fdr_rvalues_all_general_dep",
    "fdr_rvalues_all_threshold_dep", "max_p_bh", "meta_p",
    "read_pvalue_table", "refine_for_replicability", "step_up_set",
    "step_up_set_general_dep", "step_up_set_threshold_dep",
    "validate_dataset",
}
# Building blocks of the procedures, and the table type and the row view,
# public through their modules only.
HELPERS = {
    "normal": {"normal_sf", "normal_quantile"}, "rvalue": {"c1"},
    "dependence": {"m_star", "c1_tilde"}, "selection": {"bh_reject"},
    "model": {"FeatureRecord", "PValueTable"},
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
    assert len(repval.__all__) == len(PUBLIC) == 16
    assert set(repval.__all__) == PUBLIC
    assert PUBLIC <= set(dir(repval))
    star: dict = {}
    exec("from repval import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC


def test_package_names_are_their_modules_objects():
    # the package resolves each name on first use; what it hands out is the
    # defining module's own object, listed in that module's __all__
    for name in PUBLIC:
        value = getattr(repval, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("repval.") and name in home.__all__
        assert getattr(home, name) is value


def test_package_does_not_mirror_the_harness():
    for name in ("estimate", "simulate_rep", "sweep_c2"):
        assert not hasattr(repval, name), name


def test_building_blocks_are_public_in_their_modules_only():
    # each stays the defining module's own public name; the package does
    # not resolve it
    for module, names in HELPERS.items():
        home = importlib.import_module(f"repval.{module}")
        assert names <= set(home.__all__), module
        for name in names:
            with pytest.raises(AttributeError):
                getattr(repval, name)


def test_simulation_surface_is_pinned():
    from repval import simulate
    assert len(simulate.__all__) == len(SIMULATE) == 10
    assert set(simulate.__all__) == SIMULATE
    assert not SIMULATE & set(repval.__all__)
