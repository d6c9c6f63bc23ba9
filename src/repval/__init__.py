"""Replication r-values for two-stage follow-up designs.

The r-value of a followed-up feature is the lowest error-rate level (FDR or
FWER) at which it can be declared replicated across the primary and
follow-up studies; it is read against a target level exactly like a
p-value. The package computes r-values for tables of p-value pairs, whose
rows are the follow-up set as already chosen by a stable selection rule,
and returns them as a float64 array in ``dataset.ids`` order. It provides
the equivalent step-up claim rule, conservative variants for dependent
primary-study p-values, an optional BH refinement of the follow-up set and
the usual comparison baselines.

Importing the package loads none of its modules. Each public name resolves
on first use, from the module that defines it (``_HOME``), and stays bound
here after that (:pep:`562`); ``from repval import *`` loads every module
that defines one. The ``repval`` command resolves its names through the
same table and loads only what its call runs; :mod:`repval.cli` says
which modules each call loads.

The seeded Monte Carlo harness for verifying error control and power is
its own module, :mod:`repval.simulate`, with its own ``__all__``. None of
its names resolve here: only ``repval simulate`` needs it. The same holds
for the building blocks of the procedures and the table's classes, each
public in the module that defines it: ``normal_sf`` and
``normal_quantile`` in :mod:`repval.normal`, ``c1`` in
:mod:`repval.rvalue`, ``m_star`` and ``c1_tilde`` in
:mod:`repval.dependence`, ``bh_reject`` in :mod:`repval.selection`, and
``PValueTable`` and its row view ``FeatureRecord`` in :mod:`repval.model`.
The row view is kept only for ``perfbench/tracing.py`` and the
record-path tests, until ROADMAP item 5 deletes it.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_SOURCES = {
    "baselines": ("max_p_bh", "meta_p"),
    "dependence": ("NoConsistentRegime", "fdr_rvalues_all_general_dep",
                   "fdr_rvalues_all_threshold_dep",
                   "step_up_set_general_dep", "step_up_set_threshold_dep"),
    "fwer": ("bonferroni_rvalues_all",),
    "model": ("AnalysisConfig", "DatasetError", "ValidatedDataset",
              "read_pvalue_table", "validate_dataset"),
    "rvalue": ("fdr_rvalues_all", "step_up_set"),
    "selection": ("refine_for_replicability",),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_HOME)


def _resolve(namespace: dict, name: str, module: str | None = None):
    """``name`` from ``module`` of this package, by default the one
    ``_HOME`` maps it to, imported now if it is not yet, and bound in
    ``namespace`` so that the next lookup finds it there."""
    module = module or _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {namespace['__name__']!r} has no "
                             f"attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    namespace[name] = value
    return value


def __getattr__(name: str):
    return _resolve(globals(), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
