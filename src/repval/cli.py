"""Command-line front end.

Two subcommands:

* ``rvalues``  -- read a p-value table (TSV/CSV with id, p1, p2), compute
  r-values by any method, and echo the table back with an ``r_value``
  column appended (plus optional meta-analysis and replicated columns).
* ``simulate`` -- run the Monte Carlo harness from a scenario file or
  inline flags, one per :data:`repval.simulate.SCENARIO_FIELDS` entry
  (``block_size`` is ``--block-size``), and emit a metrics CSV with one
  row per c2 point. Every point of the grid runs on one pass of draws
  (:mod:`repval.simulate`), and the CSV is written once the sweep is done,
  so a sweep that fails leaves no partial table.

Exit codes: 0 success, 1 output that cannot be written (one line on stderr,
say on a full disk; none when the reader closed the pipe), 2 invalid input
data or scenario, 3 bad flags, including an ``--out`` path that cannot be
opened for writing.
Output is byte-stable across runs: r-values print as fixed %.4f, input
columns are echoed verbatim, and simulation metrics use fixed formats.

A CLI process (:func:`entry`: ``python -m repval.cli`` and the ``repval``
script) freezes its import-time heap before it runs, so the garbage
collector's passes skip the ~22 000 objects that importing numpy and this
module creates. They live until exit, so those passes could free none of
them; skipping them saves about 15-25 ms a call (2 vCPU, Python 3.11,
numpy 2.4). Under ``python -m`` the collector is also off while this
module loads, from before its first import until :func:`entry` has frozen
the heap. That skips the passes the imports would make, about 7 ms a
call (paired, on the t2d table), and keeps the ~0.2 MB they would have
freed. A plain ``import repval.cli`` leaves the collector as it is. Once its output is written
and its exit handlers have run, it ends with :func:`os._exit`: a normal
exit would then free the whole heap object by object, which takes ~6 ms a
call and leaves nothing behind that the process has not already closed.
:func:`main` leaves the collector and the interpreter's exit as they are,
for callers in a long-lived process.

A call loads only the modules it runs. ``import repval.cli`` loads
:mod:`repval.model` and this module. ``rvalues --method fdr`` adds
``rvalue`` and ``selection``; the two dependence methods add
``dependence``, ``fwer-bonferroni`` adds ``fwer``, and ``--meta`` adds
``baselines`` and ``normal``. ``simulate`` adds :mod:`repval.simulate` and
what it imports, never ``dependence`` or ``fwer``. The names this module
uses from those modules resolve on first use (:pep:`562`), through the
package's own table of where each public name lives; the one name here
that the package does not export, ``sweep_c2``, comes from
:mod:`repval.simulate`. Modules loaded that way arrive after :func:`entry`
has frozen the heap, so the freeze does not cover their objects.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # ``python -m repval.cli``: what the imports below create lives until
    # exit, so a collector pass over it frees next to nothing. The
    # collector stays off until entry() has frozen that heap.
    gc.disable()

import argparse
import atexit
import contextlib
import csv
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import replace
from typing import Callable, ContextManager, Optional, TextIO

import numpy as np

from . import _resolve
from .model import (AnalysisConfig, DatasetError, _check_unit,
                    read_pvalue_table, validate_dataset)


def __getattr__(name: str):
    # every name of repval.__all__, and the harness's sweep_c2, which the
    # package does not export. The step-up functions and sweep_c2 are not
    # called here: the perfbench tracer wraps them under this module's name.
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
        self.exit(EXIT_FLAGS, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="repval",
                     description="Replication r-values and their simulation "
                                 "harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    rv = sub.add_parser("rvalues", parents=[], help="compute r-values for a "
                        "p-value table", add_help=True)
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
        print(f"repval {prog}: --out: {exc}", file=sys.stderr)
        return None


def cmd_rvalues(args) -> int:
    if args.method == "fdr-threshold-dep" and args.t is None:
        print("repval rvalues: error: --t is required for "
              "--method fdr-threshold-dep", file=sys.stderr)
        return EXIT_FLAGS
    try:
        config = AnalysisConfig(m=args.m, l00=args.l00, c2=args.c2, t=args.t)
        for flag, q in (("--q", args.q), ("--refine-q", args.refine_q)):
            if q is not None:
                _check_unit(flag, q)
        eps = args.clamp_zero
        if eps is not None and not 0.0 < eps <= 1.0:
            raise ValueError(f"--clamp-zero must lie in (0, 1], got {eps!r}")
    except ValueError as exc:
        print(f"repval rvalues: error: {exc}", file=sys.stderr)
        return EXIT_FLAGS

    try:
        table = read_pvalue_table(args.input, clamp_zero=args.clamp_zero)
        dataset = validate_dataset(table.records, config,
                                   source_lines=table.source_lines)
    except DatasetError as exc:
        print(f"repval rvalues: {args.input}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"repval rvalues: {exc}", file=sys.stderr)
        return EXIT_DATA

    if args.refine_q is not None:
        before = len(dataset)
        dataset = _module.refine_for_replicability(dataset, config,
                                                   args.refine_q)
        print(f"repval rvalues: refinement kept {len(dataset)} of {before} "
              "features (non-followed primary p-values padded with 1.0; "
              "padding can only shrink this set)", file=sys.stderr)

    rvalues_fn = getattr(_module, _METHODS[args.method])
    # the except tuple is evaluated only when an exception arrives, so only
    # then does NoConsistentRegime load its module
    try:
        rvals = dict(zip(dataset.ids, rvalues_fn(dataset, config).tolist()))
    except (ValueError, _module.NoConsistentRegime) as exc:
        print(f"repval rvalues: {args.input}: {exc}", file=sys.stderr)
        return EXIT_DATA

    delim = {"tsv": "\t", "csv": ","}.get(args.format or "", table.delimiter)

    header = list(table.fieldnames) + ["r_value"]
    if args.meta != "none":
        header.append(f"meta_p_{args.meta}")
    if args.q is not None:
        header.append("replicated")
    output = _open_output("rvalues", args.out)
    if output is None:
        return EXIT_FLAGS
    with output as out:
        # quotes a cell only when it holds the delimiter, a quote or a
        # line break
        writer = csv.writer(out, delimiter=delim, lineterminator="\n")
        writer.writerow(header)
        for row, rec in zip(table.rows, table.records):
            if rec.id not in rvals:  # dropped by --refine-q
                continue
            cells = [row.get(col, "") or "" for col in table.fieldnames]
            cells.append(f"{rvals[rec.id]:.4f}")
            if args.meta != "none":
                meta = _module.meta_p(rec.p1, rec.p2, args.meta)
                cells.append(f"{meta:.6g}")
            if args.q is not None:
                cells.append("yes" if rvals[rec.id] <= args.q else "no")
            writer.writerow(cells)
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    """LO, LO + STEP, ... up to HI (within 1e-12), as float64: the doubles
    lo + i * step."""
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
    try:
        return lo + np.arange(n) * step
    except (MemoryError, ValueError):
        raise ValueError(f"bad grid {spec!r}, too many points "
                         f"({n:.3g})") from None


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
        print(f"repval simulate: bad scenario: {exc}", file=sys.stderr)
        return EXIT_DATA

    grid = [scenario.c2]
    if args.c2_grid:
        try:
            grid = _parse_grid(args.c2_grid)
            for c2v in grid[[0, -1]].tolist():  # monotone: the ends bound it
                _check_unit("c2", c2v)
        except ValueError as exc:
            print(f"repval simulate: --c2-grid: {exc}", file=sys.stderr)
            return EXIT_FLAGS
    output = _open_output("simulate", args.out)
    if output is None:
        return EXIT_FLAGS
    with output as out:
        try:
            rows = simulate.sweep_c2(scenario, grid, args.procedure)
        except MemoryError:
            print(f"repval simulate: bad scenario: m = {scenario.m} with "
                  f"reps = {scenario.reps} at {len(grid)} c2 points does "
                  "not fit in memory", file=sys.stderr)
            return EXIT_DATA
        out.write(simulate.METRICS_CSV_HEADER + "\n")
        for c2v, metrics in rows:
            out.write(simulate.metrics_csv_row(replace(scenario, c2=c2v),
                                               metrics) + "\n")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rvalues":
        return cmd_rvalues(args)
    return cmd_simulate(args)


def entry() -> None:
    # everything imported so far lives until the process exits, so the
    # collector's passes over it during the run have nothing to free: move
    # it out of their reach, then let the collector run (it is off while a
    # ``-m`` process loads)
    gc.freeze()
    gc.enable()
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # the output could not be written. A reader that stopped early
        # (``| head``) needs no message. Point stdout at devnull so the
        # flush below does not fail again.
        if not isinstance(exc, BrokenPipeError):
            print(f"repval: cannot write output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # what a normal exit would still do, less freeing the heap
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
