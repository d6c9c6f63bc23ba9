"""Traced pass: per-layer spans around the package's functions.

The pass runs each of the workload's CLI calls in-process through
``repval.cli.main``, with the package functions the CLI reaches replaced,
for the length of the pass, by wrappers that record a span around every
call. Nothing in the package changes; the wrappers live here. Each span
holds its name (``<module>.<function>``), start, end, parent span id,
workload and run; they are kept in memory and written out when the pass
ends.

Layers the workload's CLI calls never reach are then called once each on
the workload's own table (``coverage``), so every layer has a figure on
every workload. A few hot primitives are timed in fixed-size loops
(``micro``). tracemalloc runs only inside the two spans whose peak memory
is reported.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

# Bindings replaced by traced wrappers: a module's name for a function, so
# the spans follow the calls that module makes.
WRAPPED = {
    "repval.cli": ("read_pvalue_table", "validate_dataset",
                   "refine_for_replicability", "fdr_rvalues_all",
                   "step_up_set", "fdr_rvalues_all_general_dep",
                   "step_up_set_general_dep", "fdr_rvalues_all_threshold_dep",
                   "step_up_set_threshold_dep", "bonferroni_rvalues_all",
                   "meta_p", "sweep_c2"),
    "repval.simulate": ("estimate", "simulate_rep", "bh_reject", "normal_sf",
                        "normal_quantile"),
    "repval.selection": ("bh_reject",),
    "repval.baselines": ("bh_reject",),
}
MEMORY_LAYERS = ("selection.refine_for_replicability", "baselines.max_p_bh")
COVERAGE_SIM_REPS = 50
MICRO_REPEATS = 7

# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "model.read_pvalue_table.s": "s",
    "model.validate_dataset.s": "s",
    "rvalue.fdr_rvalues_all.s": "s",
    "rvalue.step_up_set.s": "s",
    "rvalue.us_per_feature": "us",
    "dependence.fdr_rvalues_all_general_dep.s": "s",
    "dependence.step_up_set_general_dep.s": "s",
    "dependence.fdr_rvalues_all_threshold_dep.s": "s",
    "dependence.step_up_set_threshold_dep.s": "s",
    "dependence.c1_tilde.us": "us",
    "fwer.bonferroni_rvalues_all.s": "s",
    "selection.refine_for_replicability.s": "s",
    "selection.refine_for_replicability.peak_mb": "MB",
    "selection.kept_frac": "fraction",
    "selection.bh_reject.s": "s",
    "baselines.meta_p.s": "s",
    "baselines.max_p_bh.s": "s",
    "baselines.max_p_bh.peak_mb": "MB",
    "normal.normal_sf.ns_per_value": "ns",
    "normal.normal_quantile.us_per_call": "us",
    "simulate.simulate_rep.us": "us",
    "simulate.estimate.s": "s",
    "simulate.mean_r1": "count",
    "import.numpy.s": "s",
    "import.repval.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
}


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _size(value):
    if isinstance(value, (str, bytes, os.PathLike)) or not hasattr(
            value, "__len__"):
        return None
    return len(value)


class Tracer:
    """Collects spans; the innermost open span is the parent of a new one."""

    def __init__(self, workload: str, run: str):
        self.workload = workload
        self.run = run
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, n=None):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload, "run": self.run, "n": n}
        self.spans.append(record)
        self._open.append(record["id"])
        memory = name in MEMORY_LAYERS
        if memory:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
        record["start"] = time.perf_counter() - self._t0
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                record["peak_mb"] = (peak - base) / 2**20
            self._open.pop()

    def wrap(self, fn):
        name = layer_name(fn)

        def traced(*args, **kwargs):
            with self.span(name, _size(args[0]) if args else None) as record:
                result = fn(*args, **kwargs)
                record["result_n"] = _size(result)
                if hasattr(result, "mean_r1"):
                    record["mean_r1"] = result.mean_r1
                return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap the WRAPPED bindings for traced wrappers; restore on exit."""
    wrappers, saved = {}, []
    try:
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                if fn not in wrappers:
                    wrappers[fn] = tracer.wrap(fn)
                saved.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def replay(tracer: Tracer, calls,
           workdir: Path) -> dict[str, tuple[int, Path]]:
    """Run each CLI call in-process under a ``cli.main`` span."""
    from repval import cli

    results = {}
    for call in calls:
        out = workdir / f"{call.name}.traced.out"
        with tracer.span("cli.main"), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(call.argv) + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        results[call.name] = (code, out)
    return results


def cover(tracer: Tracer, table, seed: int, q: float, l00: float) -> None:
    """Call each layer the replay did not reach once on ``table``."""
    from repval import (baselines, dependence, fwer, model, rvalue, selection,
                        simulate)
    from repval.model import AnalysisConfig
    from repval.simulate import SimulationScenario

    reached = {record["name"] for record in tracer.spans}

    def unreached(fn):
        fn = getattr(fn, "__wrapped__", fn)
        return None if layer_name(fn) in reached else tracer.wrap(fn)

    def traced_or_raw(fn):
        return unreached(fn) or getattr(fn, "__wrapped__", fn)

    with tracer.span("coverage"):
        config = AnalysisConfig(m=table.m, l00=l00, t=table.t)
        parsed = traced_or_raw(model.read_pvalue_table)(table.path)
        ds = traced_or_raw(model.validate_dataset)(
            parsed.records, config, source_lines=parsed.source_lines)
        calls = [(fn, (ds, config)) for fn in (
            rvalue.fdr_rvalues_all, dependence.fdr_rvalues_all_general_dep,
            dependence.fdr_rvalues_all_threshold_dep,
            fwer.bonferroni_rvalues_all)]
        calls += [(fn, (ds, config, q)) for fn in (
            rvalue.step_up_set, dependence.step_up_set_general_dep,
            dependence.step_up_set_threshold_dep, baselines.max_p_bh)]
        calls.append((simulate.estimate, (SimulationScenario(
            pi1=0.8, pi2=0.8, seed=seed, l00=l00, q=q,
            reps=COVERAGE_SIM_REPS),)))
        for fn, args in calls:
            run = unreached(fn)
            if run:
                run(*args)
        refine = unreached(selection.refine_for_replicability)
        if refine:
            refine(ds, config, q, pad_missing=True)
        meta = unreached(baselines.meta_p)
        if meta:
            for record in ds.records:
                meta(record.p1, record.p2, "fisher")


def _per_call(fn, args_list, repeats=MICRO_REPEATS) -> float:
    """Median over repeats of the mean time of one call, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(times)


def micro(tracer: Tracer, seed: int) -> dict[str, float]:
    """Fixed-size loops over the simulation's hot primitives."""
    from repval.dependence import c1_tilde
    from repval.normal import normal_quantile, normal_sf

    x = np.random.default_rng(seed).standard_normal(1000)
    grid = np.geomspace(1e-4, 0.5, 64).tolist()
    with tracer.span("micro"):
        sf = _per_call(normal_sf, [(x,)] * 200)
        # the two levels simulate's mean-shift calibration asks for
        quantile = _per_call(normal_quantile,
                             [(1.0 - 0.05 / 1000,), (1.0 - 0.8,)] * 50)
        tilde = _per_call(c1_tilde, [(v, 1e-4, 1_000_000, 0.8, 0.5)
                                     for v in grid])
    return {"normal.normal_sf.ns_per_value": sf / len(x) * 1e9,
            "normal.normal_quantile.us_per_call": quantile * 1e6,
            "dependence.c1_tilde.us": tilde * 1e6}


def span_cost(calls: int = 2000) -> float:
    """Seconds one traced wrapper adds to a call, from a no-op loop."""
    noop = Tracer("probe", "probe").wrap(_size)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(None)
    return (time.perf_counter() - t0) / calls


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl": 0.0,
                                                "self": 0.0})
    for record in spans:
        duration = record["end"] - record["start"]
        entry = out[record["name"]]
        entry["calls"] += 1
        entry["incl"] += duration
        entry["self"] += duration
        if record["parent"] is not None:
            out[spans[record["parent"]]["name"]]["self"] -= duration
    return dict(out)


def layer_metrics(spans, micro_values, imports) -> tuple[dict, list[str]]:
    """The PER_LAYER figures, and the names of layers with no span."""
    summary = summarize(spans)
    by_name = defaultdict(list)
    for record in spans:
        by_name[record["name"]].append(record)
    timed = [name for name in PER_LAYER
             if name.endswith(".s") and not name.startswith("import.")]
    missing = [name[:-2] for name in timed if name[:-2] not in summary]

    def incl(layer):
        return summary[layer]["incl"] if layer in summary else 0.0

    def total(layer, key):
        return sum(r.get(key) or 0 for r in by_name[layer])

    rep_times = [r["end"] - r["start"]
                 for r in by_name["simulate.simulate_rep"]]
    values = {name: incl(name[:-2]) for name in timed}
    values.update(micro_values)
    values.update(imports)
    values.update({
        "rvalue.us_per_feature": incl("rvalue.fdr_rvalues_all")
        / max(total("rvalue.fdr_rvalues_all", "n"), 1) * 1e6,
        "selection.refine_for_replicability.peak_mb": max(
            (r["peak_mb"]
             for r in by_name["selection.refine_for_replicability"]),
            default=0.0),
        "selection.kept_frac": total("selection.refine_for_replicability",
                                     "result_n")
        / max(total("selection.refine_for_replicability", "n"), 1),
        "baselines.max_p_bh.peak_mb": max(
            (r["peak_mb"] for r in by_name["baselines.max_p_bh"]),
            default=0.0),
        "simulate.simulate_rep.us": statistics.median(rep_times) * 1e6
        if rep_times else 0.0,
        "simulate.mean_r1": statistics.fmean(
            r["mean_r1"] for r in by_name["simulate.estimate"])
        if by_name["simulate.estimate"] else 0.0,
        "cli.self_s": summary["cli.main"]["self"] if "cli.main" in summary
        else 0.0,
    })
    return {name: values[name] for name in PER_LAYER}, missing
