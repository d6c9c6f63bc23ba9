"""The two benchmark workloads: which ``repval`` CLI calls one round makes,
on which inputs, and how each call's output is checked.

Inputs come from the workload seed alone; the program only ever sees the
generated files. The bundled tables under ``data/`` do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import check
import gen

Q = 0.05
L00 = 0.8
SYNTH_R1, SYNTH_M, SYNTH_T = 1000, 1_000_000, 1e-4
LARGE_R1, LARGE_M, LARGE_T = 300, 10_000_000, 1e-4
SIM_REPS = 100
SIM_GRID = "0.1:0.9:0.2"
SIM_GRID_POINTS = 5
# The paper's simulation design.
SIM_ARGS = ("--m", "1000", "--f00", "0.9", "--f01", "0.025", "--f10", "0.025",
            "--f11", "0.05", "--pi1", "0.8", "--pi2", "0.8", "--l00", "0.8",
            "--q", "0.05")

NAMES = ("rvalues-synth", "published-simulate")


@dataclass(frozen=True)
class Call:
    """One CLI invocation. ``metric`` names the report line its wall time
    adds to; ``check`` returns errors for its parsed output rows."""

    name: str
    metric: str
    argv: tuple[str, ...]
    check: Callable[[list], list[str]]
    delimiter: str = "\t"
    key: str = "id"
    # whether the input depends on the workload seed
    seeded: bool = True


@dataclass(frozen=True)
class Table:
    """A p-value table and the analysis settings it is meant for."""

    path: Path
    m: int
    t: Optional[float] = None


@dataclass
class Plan:
    calls: list[Call]
    # (low call, high call): per feature, r in low is at most r in high
    ordered: list[tuple[str, str]] = field(default_factory=list)
    # the table the traced pass uses for layers the CLI calls do not reach
    table: Optional[Table] = None
    sim_reps: int = 0


def _rvalues(name, metric, table: Table, *extra, l00=L00, published=None):
    argv = ("rvalues", str(table.path), "--m", str(table.m), "--l00",
            str(l00), "--q", str(Q)) + extra

    def run_checks(rows):
        errors = check.check_rvalues(rows, Q)
        return errors + (published(rows) if published and not errors else [])

    return Call(name, metric, argv, run_checks)


def build(workload: str, seed: int, root: Path, workdir: Path) -> Plan:
    if workload == "rvalues-synth":
        table = Table(workdir / "synth.tsv", SYNTH_M, SYNTH_T)
        gen.write_table(table.path, SYNTH_R1, SYNTH_T, seed)
        large = Table(workdir / "large.tsv", LARGE_M, LARGE_T)
        gen.write_table(large.path, LARGE_R1, LARGE_T, seed)
        calls = [
            _rvalues("fdr", "rvalues_fdr_s", table, "--method", "fdr"),
            _rvalues("general-dep", "rvalues_general_dep_s", table,
                     "--method", "fdr-general-dep"),
            _rvalues("threshold-dep", "rvalues_threshold_dep_s", table,
                     "--method", "fdr-threshold-dep", "--t", str(SYNTH_T)),
            _rvalues("bonferroni", "rvalues_bonferroni_s", table,
                     "--method", "fwer-bonferroni"),
            # the only O(m) memory path: refinement pads m - R1 ones
            _rvalues("refine-large-m", "refine_s", large, "--refine-q",
                     str(Q)),
        ]
        ordered = [("fdr", c) for c in ("general-dep", "threshold-dep",
                                        "bonferroni")]
        return Plan(calls, ordered, large)

    if workload == "published-simulate":
        data = root / "data"
        iga = Table(data / "iga_nephropathy.tsv", 444882, 2e-4)
        t2d = Table(data / "t2d.tsv", 68)
        tpp = Table(data / "tpp.tsv", 486782)
        meta = ("--meta", "fisher")
        calls = [
            _rvalues(f"iga-fdr-l00-{l00}", "rvalues_fdr_s", iga, *meta,
                     l00=l00, published=lambda rows, l00=l00:
                     check.check_iga(rows, l00))
            for l00 in (0.0, 0.5, 0.8)
        ] + [
            _rvalues("iga-general-dep", "rvalues_general_dep_s", iga, *meta,
                     "--method", "fdr-general-dep"),
            _rvalues("iga-threshold-dep", "rvalues_threshold_dep_s", iga,
                     *meta, "--method", "fdr-threshold-dep", "--t",
                     str(iga.t)),
            _rvalues("iga-refine", "refine_s", iga, *meta, "--refine-q",
                     str(Q), published=check.check_iga_refined),
            _rvalues("t2d-fdr", "rvalues_fdr_s", t2d, l00=0.0,
                     published=check.check_t2d),
            _rvalues("tpp-bonferroni", "rvalues_bonferroni_s", tpp,
                     "--method", "fwer-bonferroni",
                     published=check.check_tpp),
        ]
        calls = [replace(c, seeded=False) for c in calls]
        calls.append(Call(
            "simulate", "sim_s",
            ("simulate",) + SIM_ARGS + ("--c2-grid", SIM_GRID, "--reps",
                                        str(SIM_REPS), "--seed", str(seed)),
            lambda rows: check.check_simulation(rows, Q),
            delimiter=",", key="c2"))
        ordered = [("iga-fdr-l00-0.8", "iga-general-dep"),
                   ("iga-fdr-l00-0.8", "iga-threshold-dep")]
        return Plan(calls, ordered, iga, SIM_REPS * SIM_GRID_POINTS)

    raise ValueError(f"unknown workload {workload!r}")
