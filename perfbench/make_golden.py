"""Write the reference outputs the benchmark compares against.

    python3 perfbench/make_golden.py

Run from the root of a checkout of the commit whose outputs are the
reference. For every workload at the pinned seed it runs one round of the
CLI calls and stores, per call, the key column and the computed columns
(r-values, combined p-values, replicated flags; every simulation column)
under ``perfbench/golden/<workload>/<call>.txt``. Existing files are
replaced.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run
import workloads


def reduced(rows, call) -> str:
    columns = [c for c in rows[0] if call.key == "c2" or c in (
        "id", "r_value", "replicated") or c.startswith("meta_p_")]
    lines = [call.delimiter.join(columns)]
    lines += [call.delimiter.join(row[c] for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def main() -> int:
    shutil.rmtree(run.GOLDEN, ignore_errors=True)
    for workload in workloads.NAMES:
        runner = run.Runner(workload, run.PINNED_SEED, Path.cwd())
        out_dir = run.GOLDEN / workload
        out_dir.mkdir(parents=True)
        for name, result in runner.run_round().items():
            if result.errors:
                print(f"{workload} {name}: {result.errors[:3]}",
                      file=sys.stderr)
                return 1
            call = next(c for c in runner.plan.calls if c.name == name)
            (out_dir / f"{name}.txt").write_text(reduced(result.rows, call),
                                                 encoding="utf-8")
        print(f"{workload}: {len(runner.plan.calls)} reference output(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
