"""Benchmark of the ``repval`` CLI on two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/repval`` and ``data/`` must be
there). Every CLI call is a child process ``python -m repval.cli ...`` with
``PYTHONPATH=src``, started one at a time (closed loop, one caller).

``--trace 0`` measures end to end. It times bare
``python -c "import repval.cli"`` children (``setup_s``), then runs rounds
of the workload's calls until the next round would end past ``--seconds``
(at least one round). Reference children that do not touch ``repval`` run
next to the timed ones, and ``setup_s`` and ``wall_norm_s`` are rescaled by
them to the baseline host's speed. Each call's output is checked; a call
that exits non-zero or fails a check counts as failed. Peak RSS comes from
``os.wait4`` for each child.

``--trace 1`` runs one untraced round for reference, then the traced pass
(see ``tracing.py``), and reports the per-layer figures.

The last line of standard output is the JSON result; lines before it are a
readable report. Work files go to ``.perfbench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
PINNED_SEED = 1
SETUP_SAMPLES = 12
# Children get one BLAS/OpenMP thread. Otherwise numpy's OpenBLAS starts a
# pool at import whose threads spin on the second vCPU, and each call's
# time then depends on whether that vCPU happens to be free.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
# Reference children: numpy's import (the start-up side of a call) and a
# loop of numpy calls on 1000-element arrays, shaped like the r-value
# engine's inner step (the compute side). Neither imports repval, so a
# change to the program cannot move them; a slower host moves them as it
# moves the calls. Each has its median wall time on the baseline host
# (perfbench/README.md), the speed that setup_s and wall_norm_s are
# rescaled to.
NUMPY_LOOP = """import numpy as np
a = np.random.default_rng(0).random(1000)
for _ in range(6000):
    o = np.sort(a)
    r = np.searchsorted(o, o, side="right")
    s = np.minimum.accumulate((o / r)[::-1])
"""
REFERENCE = {"import": (("-c", "import numpy"), 0.18),
             "numpy": (("-I", "-c", NUMPY_LOOP), 0.44)}
CALL_TIMEOUT_S = 150
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy; "
                "t1 = time.perf_counter(); import repval.cli; "
                "print(t1 - t0, time.perf_counter() - t1)")

E2E_UNITS = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}


@dataclass
class CallResult:
    name: str
    metric: str
    wall_s: float
    rss_mb: float
    rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_child(cmd, stdout_path: Path, stderr_path: Path, root: Path):
    """Run one child to completion; return (exit code, wall s, max RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **CHILD_ENV)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def golden_rows(workload: str, call, seed: int):
    """The seed commit's output for this call, when the inputs match it."""
    path = GOLDEN / workload / f"{call.name}.txt"
    if not path.exists() or (call.seeded and seed != PINNED_SEED):
        return None
    return check.parse_rows(path.read_text(encoding="utf-8"), call.delimiter)


class Runner:
    def __init__(self, workload: str, seed: int, root: Path):
        self.workload, self.seed, self.root = workload, seed, root
        self.workdir = root / ".perfbench_out" / workload / f"seed{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.plan = workloads.build(workload, seed, root, self.workdir)
        self.first_round: dict[str, list] = {}

    def check_output(self, call, rows) -> list[str]:
        errors = call.check(rows)
        golden = golden_rows(self.workload, call, self.seed)
        if golden is not None:
            errors += check.check_same(rows, golden, call.key,
                                       "seed-commit output")
        if call.name in self.first_round:
            errors += check.check_same(rows, self.first_round[call.name],
                                       call.key, "same-seed first round")
        else:
            self.first_round[call.name] = rows
        return errors

    def run_call(self, call) -> CallResult:
        out = self.workdir / f"{call.name}.out"
        err = self.workdir / f"{call.name}.err"
        cmd = [sys.executable, "-m", "repval.cli", *call.argv]
        code, wall, rss = run_child(cmd, out, err, self.root)
        result = CallResult(call.name, call.metric, wall, rss)
        if code != 0:
            tail = err.read_text(encoding="utf-8", errors="replace")[-300:]
            result.errors.append(f"exit {code}: {tail.strip()}")
            return result
        result.rows = check.parse_rows(out.read_text(encoding="utf-8"),
                                       call.delimiter)
        result.errors += self.check_output(call, result.rows)
        return result

    def cross_check(self, results: dict[str, CallResult]) -> None:
        for low, high in self.plan.ordered:
            if not (results[low].errors or results[high].errors):
                results[high].errors += check.check_not_above(
                    results[low].rows, results[high].rows, high)

    def run_round(self, after_call=None) -> dict[str, CallResult]:
        results = {}
        for call in self.plan.calls:
            results[call.name] = self.run_call(call)
            if after_call:
                after_call()
        self.cross_check(results)
        return results

    def slowness(self, names=tuple(REFERENCE)) -> float:
        """Wall time of one child of each named reference, over their time
        on the baseline host: 1 at baseline speed, 1.2 when 20% slower."""
        measured = baseline = 0.0
        for name in names:
            args, baseline_s = REFERENCE[name]
            err = self.workdir / f"reference-{name}.err"
            code, wall, _ = run_child([sys.executable, *args],
                                      self.workdir / f"reference-{name}.out",
                                      err, self.root)
            if code != 0:
                sys.exit(f"perfbench: reference child {name!r} failed: "
                         + err.read_text(encoding="utf-8")[-300:])
            measured += wall
            baseline += baseline_s
        return measured / baseline

    def import_samples(self, count: int,
                       warm: bool = True) -> list[tuple[float, float, float]]:
        """(wall s, numpy import s, repval.cli import s) per bare child;
        with ``warm``, one unmeasured child first fills bytecode caches."""
        cmd = [sys.executable, "-c", IMPORT_PROBE]
        out = self.workdir / "import.out"
        err = self.workdir / "import.err"
        samples = []
        for _ in range(count + warm):
            code, wall, _ = run_child(cmd, out, err, self.root)
            if code != 0:
                sys.exit("perfbench: cannot import repval.cli: "
                         + err.read_text(encoding="utf-8")[-300:])
            numpy_s, repval_s = map(float, out.read_text().split())
            samples.append((wall, numpy_s, repval_s))
        return samples[warm:]


def _round_total(rounds, metric=None, stat=statistics.median) -> float:
    """Summed wall time of a round's calls (those adding to ``metric``, or
    all), each call's time taken as ``stat`` over the rounds."""
    names = [n for n, r in rounds[0].items() if metric in (None, r.metric)]
    return sum(stat(results[n].wall_s for results in rounds) for n in names)


def report_lines(runner: Runner, rounds, setup, slowness,
                 wall_norm) -> list[str]:
    """Readable end-to-end report: the raw wall times, split per method,
    and the failure count, which the JSON result does not carry."""
    calls = [r for results in rounds for r in results.values()]
    failed = sum(1 for r in calls if r.errors)
    lines = [f"workload {runner.workload} seed {runner.seed}: "
             f"{len(rounds)} round(s) of {len(runner.plan.calls)} call(s)",
             f"  {'setup_s':<24}{statistics.median(s[1] for s in setup):.4f}"
             f" s  (median of {len(setup)} bare imports, rescaled; raw "
             f"{statistics.median(s[0] for s in setup):.4f} s)",
             f"  {'host slowness':<24}{statistics.median(slowness):.4f}  "
             "(median over rounds; reference time / baseline reference time)",
             f"  {'wall_norm_s':<24}{wall_norm:.4f} s  (median over rounds "
             "of round wall time / host slowness)",
             f"  {'raw wall time':<24}{'fastest':>9}{'median':>9}  (per call, "
             "over rounds)"]
    for metric in [None] + list(dict.fromkeys(c.metric
                                              for c in runner.plan.calls)):
        fast, med = (_round_total(rounds, metric, stat)
                     for stat in (min, statistics.median))
        lines.append(f"  {metric or 'wall_s':<24}{fast:>9.4f}{med:>9.4f} s")
        if metric == "sim_s":
            lines.append(f"  {'sim_reps_per_s':<24}"
                         f"{runner.plan.sim_reps / fast:>9.1f}"
                         f"{runner.plan.sim_reps / med:>9.1f} 1/s")
    lines.append(f"  {'failed_frac':<24}{failed / len(calls):.4f}  "
                 f"({failed} of {len(calls)} calls)")
    for r in calls:
        for error in r.errors[:5]:
            lines.append(f"  FAILED {r.name}: {error}")
    return lines


def setup_samples(runner: Runner, count: int,
                  warm: bool) -> list[tuple[float, float]]:
    """(raw, rescaled) wall time of bare-import children, each divided by
    the slowness of an "import" reference child run right after it."""
    samples = []
    for i in range(count):
        (wall, _, _), = runner.import_samples(1, warm=warm and i == 0)
        samples.append((wall, wall / runner.slowness(["import"])))
    return samples


def measure(runner: Runner, seconds: float) -> dict:
    """Half the set-up samples before the rounds and half after, so their
    median sees the same machine as the rounds.

    The speed of the shared host drifts by tens of percent over minutes,
    and a slow phase can outlast a whole run. So each timed child is
    divided by the slowness of reference children run next to it: per bare
    import for ``setup_s``, per round for ``wall_norm_s``. Each metric is
    the median of these."""
    deadline = time.perf_counter() + seconds
    half = SETUP_SAMPLES // 2
    start = time.perf_counter()
    setup = setup_samples(runner, half, warm=True)
    setup_half_s = time.perf_counter() - start
    rounds, slowness, normalised, elapsed = [], [], [], []
    while True:
        start = time.perf_counter()
        per_call = []
        results = runner.run_round(lambda: per_call.append(runner.slowness()))
        elapsed.append(time.perf_counter() - start)
        rounds.append(results)
        slowness.append(statistics.fmean(per_call))
        normalised.append(sum(r.wall_s for r in results.values())
                          / slowness[-1])
        if (time.perf_counter() + statistics.median(elapsed) + setup_half_s
                > deadline):
            break
    setup += setup_samples(runner, half, warm=False)
    calls = [r for results in rounds for r in results.values()]
    failed = sum(1 for r in calls if r.errors)
    wall_norm = statistics.median(normalised)
    print("\n".join(report_lines(runner, rounds, setup, slowness,
                                 wall_norm)))
    metrics = {"setup_s": statistics.median(s[1] for s in setup),
               "wall_norm_s": wall_norm,
               "peak_rss_mb": max(r.rss_mb for r in calls)}
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in metrics.items()}}


def measure_traced(runner: Runner) -> dict:
    import tracing

    samples = runner.import_samples(SETUP_SAMPLES)
    reference = runner.run_round()
    run_id = f"seed{runner.seed}-pid{os.getpid()}"
    sys.path.insert(0, str(runner.root / "src"))
    # the same calls in-process without wrappers: the base of the overhead
    plain = tracing.Tracer(runner.workload, run_id)
    tracing.replay(plain, runner.plan.calls, runner.workdir)
    tracer = tracing.Tracer(runner.workload, run_id)
    with tracing.instrumented(tracer):
        outputs = tracing.replay(tracer, runner.plan.calls, runner.workdir)
        tracing.cover(tracer, runner.plan.table, runner.seed, workloads.Q,
                    workloads.L00)
    micro = tracing.micro(tracer, runner.seed)
    span_path = runner.workdir / "spans.jsonl"
    tracer.write(span_path)

    errors = {name: list(r.errors) for name, r in reference.items()}
    for call in runner.plan.calls:
        code, out = outputs[call.name]
        traced_errors = [f"in-process exit {code}"] if code != 0 else \
            runner.check_output(call, check.parse_rows(
                out.read_text(encoding="utf-8"), call.delimiter))
        errors[f"traced {call.name}"] = traced_errors
    imports = {"import.numpy.s": statistics.median(s[1] for s in samples),
               "import.repval.s": statistics.median(s[2] for s in samples)}
    values, missing = tracing.layer_metrics(tracer.spans, micro, imports)
    if missing:
        errors["layers"] = [f"no span for {name}" for name in missing]

    summary = tracing.summarize(tracer.spans)
    traced_cli = summary["cli.main"]["incl"]
    plain_cli = tracing.summarize(plain.spans)["cli.main"]["incl"]
    lines = [f"workload {runner.workload} seed {runner.seed}: traced pass, "
             f"{len(tracer.spans)} spans written to {span_path.name}",
             f"  {'span':<44}{'calls':>7}{'incl s':>11}{'self s':>11}"]
    for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(f"  {name:<44}{entry['calls']:>7}"
                     f"{entry['incl']:>11.4f}{entry['self']:>11.4f}")
    lines.append(f"  tracing overhead: traced cli.main {traced_cli:.4f} s - "
                 f"untraced in-process cli.main {plain_cli:.4f} s = "
                 f"{traced_cli - plain_cli:+.4f} s; span count x cost "
                 f"{len(tracer.spans) * tracing.span_cost():.4f} s")
    lines += attribution(tracer.spans, reference)
    lines += [f"  {name:<44}{value:.6g} {tracing.PER_LAYER[name]}"
              for name, value in values.items()]
    for name, errs in errors.items():
        lines += [f"  FAILED {name}: {e}" for e in errs[:5]]
    print("\n".join(lines))
    failed = sum(1 for errs in errors.values() if errs)
    return {"correct": failed == 0, "attempted": len(errors), "failed": failed,
            "metrics": {k: {"value": v, "unit": tracing.PER_LAYER[k]}
                        for k, v in values.items()}}


def attribution(spans, reference: dict[str, CallResult]) -> list[str]:
    """Per call: the layer with the most time inside its cli.main span, as
    a share of the call's untraced wall time; and the largest traced peak
    memory against the call's peak RSS."""
    lines = []
    mains = [s for s in spans if s["name"] == "cli.main"]
    for main, result in zip(mains, reference.values()):
        children = [s for s in spans if s["parent"] == main["id"]]
        if not children:
            continue
        top = max(children, key=lambda s: s["end"] - s["start"])
        took = top["end"] - top["start"]
        lines.append(f"  {result.name}: {top['name']} {took:.4f} s = "
                     f"{took / result.wall_s:.1%} of untraced {result.metric} "
                     f"{result.wall_s:.4f} s")
        peaks = [s["peak_mb"] for s in spans if "peak_mb" in s
                 and main["start"] <= s["start"] <= main["end"]]
        if peaks:
            lines.append(f"  {result.name}: traced peak {max(peaks):.1f} MB = "
                         f"{max(peaks) / result.rss_mb:.1%} of child peak RSS "
                         f"{result.rss_mb:.1f} MB")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repval" / "cli.py").is_file() or \
            not (root / "data").is_dir():
        print("perfbench: run from the root of a repval source checkout "
              "(src/repval and data/ not found)", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, root)
    result = measure_traced(runner) if args.trace else \
        measure(runner, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
