"""Operator-swap mutation audit of repval functions.

Every comparison and arithmetic operator inside the named functions
(nested functions included) is swapped, one site at a time:
< with <=, > with >=, == with !=, + with -, * with /, and back. Each
mutant module is written into its own copy of a snapshot of the
repository taken under WORKDIR (which must lie outside it) when the audit
starts, and the given tests run against it with ``pytest -x``, one mutant
after another, each capped at TIMEOUT seconds. The unchanged snapshot must
pass them first, or the audit stops. A mutant is killed when the tests
fail, survives when they pass, and is reported as a timeout when the cap
ends the run (a hang, which the tests also catch, but slowly). Survivors
are printed with the mutated line, for a reader to judge whether they
change any output.

Usage:
    python tools/mutate.py WORKDIR MODULE FUNC[,FUNC...] TEST [TEST ...]

MODULE is a module of ``src/repval`` (``rvalue``), FUNC a top-level
function (``_entries``) or a method of a top-level class
(``SimulationScenario.__init__``), TEST a pytest path relative to the
repository root (``tests/test_engine.py``). Examples:

    python tools/mutate.py /tmp/mut rvalue _entries,_bracketed_kth \\
        tests/test_engine.py
    python tools/mutate.py /tmp/mut model _Frozen.__eq__ tests/test_model.py
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Seconds a mutant's test run may take before it is counted as a hang
TIMEOUT = 90.0
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub,
         ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-",
          ast.Mult: "*", ast.Div: "/"}


def functions(tree: ast.Module, names: set[str]) -> dict[str, ast.AST]:
    """The named functions of a module by name: ``func`` for a top-level
    function, ``Class.method`` for a method of a top-level class."""
    found = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            found[top.name] = top
        elif isinstance(top, ast.ClassDef):
            found.update((f"{top.name}.{node.name}", node)
                         for node in top.body
                         if isinstance(node, ast.FunctionDef))
    return {name: node for name, node in found.items() if name in names}


def sites(tree: ast.Module, names: set[str]):
    """(node, slot) for each swappable operator inside the named functions:
    slot is an index into a Compare's ops, or None for the op of a BinOp or
    AugAssign."""
    found = []
    for function in functions(tree, names).values():
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                found += [(node, i) for i, op in enumerate(node.ops)
                          if type(op) in SWAPS]
            elif (isinstance(node, (ast.BinOp, ast.AugAssign))
                  and type(node.op) in SWAPS):
                found.append((node, None))
    return found


def mutant(source: str, names: set[str], index: int) -> tuple[str, str]:
    """The module source with operator site ``index`` swapped, and a label
    giving the line and the swap."""
    tree = ast.parse(source)
    node, slot = sites(tree, names)[index]
    old = node.ops[slot] if slot is not None else node.op
    new = SWAPS[type(old)]()
    if slot is None:
        node.op = new
    else:
        node.ops[slot] = new
    line = source.splitlines()[node.lineno - 1].strip()
    label = (f"line {node.lineno}: {SYMBOL[type(old)]} -> "
             f"{SYMBOL[type(new)]}   {line}")
    return ast.unparse(tree) + "\n", label


def copy(source: Path, target: Path) -> None:
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target, ignore=shutil.ignore_patterns(
        ".git", ".hypothesis", ".pytest_cache", "__pycache__",
        ".perfbench_out", ".benchmarks"))


def run(tree: Path, tests: list[str]) -> str:
    """Run the tests on a copy of the repository, in their own process
    group, so that a timeout or an interrupt ends every process they
    started."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code is None:
        return "timeout"
    return "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("module")
    parser.add_argument("functions")
    parser.add_argument("tests", nargs="+")
    args = parser.parse_args(argv)
    workdir = args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        parser.error("WORKDIR must lie outside the repository")
    names = set(args.functions.split(","))
    base = workdir / "base"
    copy(ROOT, base)
    path = Path("src", "repval", f"{args.module}.py")
    source = (base / path).read_text()
    missing = names - functions(ast.parse(source), names).keys()
    if missing:
        parser.error(f"no function {', '.join(sorted(missing))} in {path}")
    count = len(sites(ast.parse(source), names))
    if not count:
        parser.error(f"no operator sites in {sorted(names)}")
    baseline = run(base, args.tests)
    if baseline != "survived":
        parser.error(f"the unchanged snapshot does not pass: {baseline}")
    tally = {"killed": 0, "survived": 0, "timeout": 0}
    for index in range(count):
        text, label = mutant(source, names, index)
        tree = workdir / "mutant"
        copy(base, tree)
        (tree / path).write_text(text)
        outcome = run(tree, args.tests)
        shutil.rmtree(tree)
        tally[outcome] += 1
        print(f"{outcome:8s} {label}", flush=True)
    print(f"{count} mutants: " + ", ".join(f"{n} {k}"
                                          for k, n in tally.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
