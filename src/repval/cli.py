"""Command-line front end.

Two subcommands:

* ``rvalues``  -- read a p-value table (TSV/CSV with id, p1, p2), compute
  r-values by any method, and echo the table back with an ``r_value``
  column appended (plus optional meta-analysis and replicated columns).
* ``simulate`` -- run the Monte Carlo harness from a scenario file or
  inline flags, one per :data:`repval.simulate.SCENARIO_FIELDS` entry
  (``block_size`` is ``--block-size``), and emit a metrics CSV with one
  row per c2 point, at most 10 001 of them. Every point of the grid runs
  on one pass of draws (:mod:`repval.simulate`), and the CSV is written
  once the sweep is done, so a sweep that fails leaves no partial table.

Exit codes: 0 success, 1 output that cannot be written (one line on stderr,
say on a full disk; none when the reader closed the pipe), 2 invalid input
data or scenario, 3 bad flags, including an ``--out`` path that cannot be
opened for writing and ``fdr-threshold-dep`` flags whose t*m is too large
for the level at any r-value below 1. Each message on stderr is one line,
``PROG: MESSAGE``, PROG being ``repval`` or ``repval SUBCOMMAND``
(:func:`_report`). Output is byte-stable across runs: r-values print as
fixed %.4f, input columns are echoed verbatim, and simulation metrics
use fixed formats.

A CLI process (:func:`entry`: ``python -m repval.cli`` and the ``repval``
script) runs with the garbage collector off until it exits, from before
this module's first import under ``python -m``: a call leaves a constant
~140 cyclic objects (~240 for ``simulate``) whatever the table size, so a
pass has nothing to free. A plain ``import repval.cli`` leaves the
collector as it is. Once its output is written and its exit handlers have
run, the process ends with :func:`os._exit`: a normal exit would then free
the whole heap object by object, which takes ~6 ms a call and leaves
nothing behind that the process has not already closed. :func:`main`
leaves the collector and the interpreter's exit as they are, for callers
in a long-lived process.

A call loads only the modules it runs. ``import repval.cli`` loads
:mod:`repval.model` and this module. ``rvalues --method fdr`` adds
``rvalue``; the two dependence methods add ``dependence``,
``fwer-bonferroni`` adds ``fwer``, ``--refine-q`` adds ``selection``, and
``--meta`` adds ``baselines``, ``normal`` and ``selection``. ``simulate``
adds :mod:`repval.simulate` and what it imports, never ``dependence`` or
``fwer``. No call imports :mod:`dataclasses`, whose class factory costs
about 1 ms a class: every value class of the package is a plain
``__slots__`` class (:class:`repval.model._Frozen`). The names this
module uses from those modules resolve on first use (:pep:`562`), through
the package's own table of where each public name lives; the one name
here that the package does not export, ``sweep_c2``, comes from
:mod:`repval.simulate`. All but the step-up functions are called here.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # ``python -m repval.cli``: the collector is off from here to the exit
    # (see entry)
    gc.disable()

import argparse
import atexit
import contextlib
import csv
import math
import os
import sys
from collections.abc import Sequence
from typing import Callable, ContextManager, Optional, TextIO

import numpy as np

from . import _resolve
from .model import (AnalysisConfig, DatasetError, _check_unit,
                    read_pvalue_table, validate_dataset)


def __getattr__(name: str):
    # every name of repval.__all__, and the harness's sweep_c2, which the
    # package does not export. The step-up functions are not called here:
    # the perfbench tracer wraps them under this module's name.
    return _resolve(globals(), name,
                    "simulate" if name == "sweep_c2" else None)


# The names resolved on first use are read as attributes of this module
# object, never as bare globals: the first read imports their module, and
# whatever is bound to the name when it is read (a test's stub, the tracer's
# wrapper) is called.
_module = sys.modules[__name__]

EXIT_OK = 0
EXIT_DATA = 2
EXIT_FLAGS = 3

_SCENARIO_HELP = {
    "seed": "RNG seed (required here or in the scenario file)",
    "rho": "equicorrelation within primary-study blocks",
}


# --method name -> the name of its r-value function, read from _module; the
# first entry is the default. A feature is replicated at q iff its r-value is
# at most q, which is the method's claim rule at q bit for bit.
_METHODS = {
    "fdr": "fdr_rvalues_all",
    "fdr-general-dep": "fdr_rvalues_all_general_dep",
    "fdr-threshold-dep": "fdr_rvalues_all_threshold_dep",
    "fwer-bonferroni": "bonferroni_rvalues_all",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; this tool reserves 2 for data
    errors, so flag problems exit 3 instead. ``fill(parser)``, when set,
    adds the arguments when the parser first parses (``--help`` included),
    so a subcommand that is not run costs nothing to build."""

    fill: Optional[Callable[[argparse.ArgumentParser], None]] = None

    def parse_known_args(self, args=None, namespace=None):
        if self.fill is not None:
            fill, self.fill = self.fill, None
            fill(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_report(self.prog, f"error: {message}", EXIT_FLAGS))


def build_parser() -> _Parser:
    parser = _Parser(prog="repval",
                     description="Replication r-values and their simulation "
                                 "harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    rv = sub.add_parser("rvalues", help="compute r-values for a p-value "
                        "table")
    rv.add_argument("input", help="TSV/CSV file with header id, p1, p2")
    rv.add_argument("--m", type=int, required=True,
                    help="number of features examined in the primary study")
    rv.add_argument("--l00", type=float, default=0.8,
                    help="lower bound on the null-in-both fraction "
                         "(default 0.8)")
    rv.add_argument("--c2", type=float, default=0.5,
                    help="emphasis on the follow-up study (default 0.5)")
    methods = list(_METHODS)
    rv.add_argument("--method", default=methods[0], choices=methods,
                    help=f"r-value procedure (default {methods[0]})")
    rv.add_argument("--t", type=float, default=None,
                    help="selection threshold on primary p-values "
                         "(required for --method fdr-threshold-dep)")
    rv.add_argument("--q", type=float, default=None,
                    help="also emit a replicated yes/no column at this level")
    rv.add_argument("--meta", default="none",
                    choices=["fisher", "stouffer", "none"],
                    help="append a combined-p column (default none)")
    rv.add_argument("--clamp-zero", type=float, default=None, metavar="EPS",
                    help="replace p-values equal to 0 by EPS instead of "
                         "rejecting them")
    rv.add_argument("--refine-q", type=float, default=None, metavar="Q",
                    help="pre-screen the follow-up set by a BH pass at "
                         "level Q on the primary p-values (non-followed "
                         "p-values padded with 1.0) and report r-values on "
                         "the reduced set")
    rv.add_argument("--out", default=None, help="output file (default stdout)")
    rv.add_argument("--format", default=None, choices=["tsv", "csv"],
                    help="output delimiter (default: mirror the input)")

    sim = sub.add_parser("simulate", help="estimate error rates and power "
                         "by Monte Carlo")
    sim.fill = _simulate_arguments
    return parser


def _simulate_arguments(sim: argparse.ArgumentParser) -> None:
    from .simulate import SCENARIO_FIELDS  # only simulate needs the harness
    sim.add_argument("--scenario", default=None,
                     help="key = value scenario file; inline flags override")
    for name, kind in SCENARIO_FIELDS.items():
        sim.add_argument("--" + name.replace("_", "-"), type=kind,
                         default=None, help=_SCENARIO_HELP.get(name))
    sim.add_argument("--c2-grid", default=None, metavar="LO:HI:STEP",
                     help="sweep c2 over an inclusive grid, one CSV row per "
                          "point")
    sim.add_argument("--procedure", default="step-up",
                     choices=["step-up", "bonferroni"],
                     help="claim rule whose error rates are estimated")
    sim.add_argument("--out", default=None, help="output file (default stdout)")


def _report(prog: str, message: str, code: Optional[int] = None):
    """Every stderr line of this tool: ``PROG: MESSAGE``. Returns ``code``."""
    print(f"{prog}: {message}", file=sys.stderr)
    return code


def _open_output(prog: str,
                 out_path: Optional[str]) -> Optional[ContextManager[TextIO]]:
    """The output file opened for writing, or stdout (left open) when no
    path is given; None, after saying why on stderr, when it cannot be
    opened."""
    if not out_path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out_path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        return _report(prog, f"--out: {exc}")


def cmd_rvalues(args) -> int:
    try:
        if args.method == "fdr-threshold-dep" and args.t is None:
            raise ValueError("--t is required for --method fdr-threshold-dep")
        config = AnalysisConfig(m=args.m, l00=args.l00, c2=args.c2, t=args.t)
        if args.method == "fdr-threshold-dep":
            # NoConsistentRegime when t*m is too large for the level at any
            # x below 1: a fault of these flags, whatever the table
            from .dependence import _threshold_floor
            _threshold_floor(args.t, args.m, args.l00, args.c2)
        for flag, q in (("--q", args.q), ("--refine-q", args.refine_q)):
            if q is not None:
                _check_unit(flag, q)
        eps = args.clamp_zero
        if eps is not None and not 0.0 < eps <= 1.0:
            raise ValueError(f"--clamp-zero must lie in (0, 1], got {eps!r}")
    except ValueError as exc:
        return _report("repval rvalues", f"error: {exc}", EXIT_FLAGS)
    except _module.NoConsistentRegime as exc:  # loaded only by the check
        return _report("repval rvalues", f"error: {exc}", EXIT_FLAGS)

    try:
        table = read_pvalue_table(args.input, clamp_zero=args.clamp_zero)
        dataset = validate_dataset(table, config)
    except DatasetError as exc:
        return _report("repval rvalues", f"{args.input}: {exc}", EXIT_DATA)
    except OSError as exc:
        return _report("repval rvalues", str(exc), EXIT_DATA)

    if args.refine_q is not None:
        before = len(dataset)
        dataset = _module.refine_for_replicability(dataset, config,
                                                   args.refine_q)

    rvalues_fn = getattr(_module, _METHODS[args.method])
    # the except clause is evaluated only when an exception arrives, so only
    # then does NoConsistentRegime load its module; past the flag check, it
    # only reports a defect of the regime walk
    try:
        rvals = dict(zip(dataset.ids, rvalues_fn(dataset, config).tolist()))
    except _module.NoConsistentRegime as exc:
        return _report("repval rvalues", f"{args.input}: {exc}", EXIT_DATA)

    delim = {"tsv": "\t", "csv": ","}.get(args.format or "", table.delimiter)

    header = list(table.fieldnames) + ["r_value"]
    metas = [None] * len(table)
    if args.meta != "none":
        header.append(f"meta_p_{args.meta}")
        metas = _module.meta_p(table.p1, table.p2, args.meta).tolist()
    if args.q is not None:
        header.append("replicated")
    output = _open_output("repval rvalues", args.out)
    if output is None:
        return EXIT_FLAGS
    with output as out:
        # quotes a cell only when it holds the delimiter, a quote or a
        # line break
        writer = csv.writer(out, delimiter=delim, lineterminator="\n")
        writer.writerow(header)
        # each row's cells as read; the writer writes the None of a cell
        # a short row lacks as an empty cell
        for fid, cells, meta in zip(table.ids, table.cells, metas):
            rval = rvals.get(fid)
            if rval is None:  # dropped by --refine-q
                continue
            cells = [*cells, f"{rval:.4f}"]
            if meta is not None:
                cells.append(f"{meta:.6g}")
            if args.q is not None:
                cells.append("yes" if rval <= args.q else "no")
            writer.writerow(cells)
    # last, so that a call that fails writes its one line only
    if args.refine_q is not None:
        _report("repval rvalues", f"refinement kept {len(dataset)} of "
                f"{before} features (non-followed primary p-values padded "
                "with 1.0; padding can only shrink this set)")
    return EXIT_OK


# A sweep point costs ~0.3 ms and ~1.9 KB even at one repetition (2 vCPU),
# so a grid this long costs ~3 s and ~19 MB per repetition
_MAX_GRID_POINTS = 10_001


def _parse_grid(spec: str) -> np.ndarray:
    """LO, LO + STEP, ... up to HI (within 1e-12), as float64: the doubles
    lo + i * step; at most _MAX_GRID_POINTS of them."""
    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise ValueError(f"bad grid {spec!r}, expected LO:HI:STEP") from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ValueError(f"bad grid {spec!r}")
    try:
        n = int(round((hi - lo) / step)) + 1
    except OverflowError:
        raise ValueError(f"bad grid {spec!r}, STEP is too small") from None
    # the points increase with i, so only a tail can lie above HI
    while lo + (n - 1) * step > hi + 1e-12:
        n -= 1
    if n > _MAX_GRID_POINTS:
        raise ValueError(f"bad grid {spec!r}, too many points ({n:.3g})")
    return lo + np.arange(n) * step


def cmd_simulate(args) -> int:
    from . import simulate  # only simulate needs the harness
    try:
        # inline flags override the file's keys before any value is checked
        keys = simulate._scenario_keys(args.scenario) if args.scenario else {}
        keys.update((name, getattr(args, name))
                    for name in simulate.SCENARIO_FIELDS
                    if getattr(args, name) is not None)
        scenario = simulate.scenario_from_mapping(keys)
    except (ValueError, OSError) as exc:
        return _report("repval simulate", f"bad scenario: {exc}", EXIT_DATA)

    grid = [scenario.c2]
    if args.c2_grid:
        try:
            grid = _parse_grid(args.c2_grid)
            for c2v in grid[[0, -1]].tolist():  # monotone: the ends bound it
                _check_unit("c2", c2v)
        except ValueError as exc:
            return _report("repval simulate", f"--c2-grid: {exc}", EXIT_FLAGS)
    output = _open_output("repval simulate", args.out)
    if output is None:
        return EXIT_FLAGS
    with output as out:
        try:
            rows = _module.sweep_c2(scenario, grid, args.procedure)
        except MemoryError:
            return _report("repval simulate", f"bad scenario: m = "
                           f"{scenario.m} with reps = {scenario.reps} at "
                           f"{len(grid)} c2 points does not fit in memory",
                           EXIT_DATA)
        out.write(simulate.METRICS_CSV_HEADER + "\n")
        for c2v, metrics in rows:
            out.write(simulate.metrics_csv_row(scenario._replace(c2=c2v),
                                               metrics) + "\n")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rvalues":
        return cmd_rvalues(args)
    return cmd_simulate(args)


def entry() -> None:
    # a call leaves a few hundred cyclic objects whatever its input, so a
    # collector pass has nothing to free before the exit
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # the output could not be written. A reader that stopped early
        # (``| head``) needs no message. Point stdout at devnull so the
        # flush below does not fail again.
        if not isinstance(exc, BrokenPipeError):
            _report("repval", f"cannot write output: {exc}")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # what a normal exit would still do, less freeing the heap
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
