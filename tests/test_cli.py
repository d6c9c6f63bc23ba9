"""The command-line front end: documented exit codes and byte-stable output
on the bundled published tables."""

import contextlib
import gc
import importlib
import io
import os
import random
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repval import (AnalysisConfig, cli, dependence,
                    fdr_rvalues_all_threshold_dep, read_pvalue_table,
                    simulate, step_up_set_threshold_dep,
                    validate_dataset)

from _oracles import oracle_read_pvalue_table
from conftest import DATA_DIR, REPO_ROOT

GOLDEN_DIR = Path(__file__).parent / "golden"

# The published-settings calls; each golden file is the output of the
# release before the exact r-value engine, kept byte for byte, except
# t2d-stouffer, the output of 48bbbe3, the release before that golden.
PUBLISHED = {
    "iga-fdr-l00-0.0": ("iga_nephropathy.tsv", "--m", "444882", "--l00", "0.0"),
    "iga-fdr-l00-0.5": ("iga_nephropathy.tsv", "--m", "444882", "--l00", "0.5"),
    "iga-fdr-l00-0.8": ("iga_nephropathy.tsv", "--m", "444882", "--l00", "0.8"),
    "iga-general-dep": ("iga_nephropathy.tsv", "--m", "444882", "--method",
                        "fdr-general-dep"),
    "iga-threshold-dep": ("iga_nephropathy.tsv", "--m", "444882", "--method",
                          "fdr-threshold-dep", "--t", "2e-4"),
    "iga-refine": ("iga_nephropathy.tsv", "--m", "444882", "--refine-q",
                   "0.05"),
    "t2d-fdr": ("t2d.tsv", "--m", "68", "--l00", "0.0"),
    "t2d-stouffer": ("t2d.tsv", "--m", "68", "--l00", "0.0", "--meta",
                     "stouffer"),
    "tpp-bonferroni": ("tpp.tsv", "--m", "486782", "--method",
                       "fwer-bonferroni"),
}
SIM_DESIGN = ("simulate", "--m", "1000", "--f00", "0.9", "--f01", "0.025",
              "--f10", "0.025", "--f11", "0.05", "--pi1", "0.8", "--pi2",
              "0.8", "--seed", "1", "--reps", "2")
# a child python finds this checkout's package
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def run_cli(via: str, argv: list) -> int:
    """The exit code of ``repval argv``, run in-process through
    ``cli.main`` or as a child ``python -m repval.cli``, which goes through
    ``cli.entry`` as the ``repval`` script does."""
    if via == "main":
        return cli.main(argv)
    return subprocess.run([sys.executable, "-m", "repval.cli", *argv],
                          env=CHILD_ENV, timeout=60).returncode


@pytest.mark.parametrize("name, via", [
    param for name in sorted(PUBLISHED)
    for param in (pytest.param(name, "main", id=name),
                  pytest.param(name, "child", id=f"{name}-child"))])
def test_published_output_is_byte_identical(name, via, tmp_path):
    table, *flags = PUBLISHED[name]
    meta = ["--meta", "fisher"] if table.startswith("iga") else []
    out = tmp_path / "out.tsv"
    code = run_cli(via, ["rvalues", str(DATA_DIR / table), *flags, "--q",
                         "0.05", *meta, "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.tsv").read_bytes()


def check_simulate_paper_design(via, tmp_path):
    # the golden file is the output of the release that spelled out each
    # scenario flag by hand
    out = tmp_path / "out.csv"
    # a later --reps overrides the one in SIM_DESIGN
    code = run_cli(via, [*SIM_DESIGN, "--reps", "20", "--c2-grid",
                         "0.1:0.9:0.2", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / "simulate-paper.csv").read_bytes()


def test_simulate_paper_design_is_byte_identical(tmp_path):
    check_simulate_paper_design("main", tmp_path)


def test_simulate_paper_design_is_byte_identical_in_a_child(tmp_path):
    check_simulate_paper_design("child", tmp_path)


def test_simulate_bonferroni_is_byte_identical(tmp_path):
    # the golden file is the output of the release that ran one
    # repetition at a time
    out = tmp_path / "out.csv"
    code = cli.main([*SIM_DESIGN, "--procedure", "bonferroni", "--rho", "0.3",
                     "--block-size", "2", "--reps", "20", "--seed", "1",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    golden = GOLDEN_DIR / "simulate-bonferroni.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_block_size_beyond_m_makes_one_block():
    # in a child capped at 512 MB of address space: a block of 1e12 cells
    # per repetition (7.3 TiB) must not be allocated, nor 1e30 overflow
    check = textwrap.dedent("""
        import contextlib, io, resource
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
        from repval import cli
        outputs = set()
        for size in ("1000", "1500", "1000000000000", "1" + "0" * 30):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["simulate", "--pi1", ".8", "--pi2", ".8",
                                 "--seed", "1", "--reps", "2", "--rho",
                                 "0.5", "--block-size", size])
            assert code == 0, size
            outputs.add(out.getvalue())
        assert len(outputs) == 1, outputs
    """)
    subprocess.run([sys.executable, "-c", check], env=CHILD_ENV, timeout=60,
                   check=True)


def test_absurd_c2_grid_exits_3_with_one_line():
    # in a child capped at 512 MB of address space: the grid's ~8e11
    # points fail their allocation at once instead of filling the host
    check = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
        from repval import cli
        sys.argv = ["repval", "simulate", "--pi1", ".8", "--pi2", ".8",
                    "--seed", "1", "--c2-grid", "0.1:0.9:1e-12"]
        cli.entry()
    """)
    result = subprocess.run([sys.executable, "-c", check], env=CHILD_ENV,
                            timeout=60, capture_output=True)
    assert result.returncode == cli.EXIT_FLAGS
    assert result.stdout == b""
    assert result.stderr.decode().splitlines() == [
        "repval simulate: --c2-grid: bad grid '0.1:0.9:1e-12', too many "
        "points (8e+11)"]


def test_c2_grid_over_the_point_cap_exits_3_before_any_draw():
    # 800 001 points would fit in memory but take minutes to sweep; capped
    # at 512 MB of address space, as above, should the cap be missing
    check = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
        from repval import cli
        sys.argv = ["repval", "simulate", "--pi1", ".8", "--pi2", ".8",
                    "--seed", "1", "--reps", "1", "--c2-grid",
                    "0.1:0.9:1e-6"]
        cli.entry()
    """)
    result = subprocess.run([sys.executable, "-c", check], env=CHILD_ENV,
                            timeout=60, capture_output=True)
    assert result.returncode == cli.EXIT_FLAGS
    assert result.stdout == b""
    assert result.stderr.decode().splitlines() == [
        "repval simulate: --c2-grid: bad grid '0.1:0.9:1e-6', too many "
        "points (8e+05)"]
    assert len(cli._parse_grid("0:1:1e-4")) == cli._MAX_GRID_POINTS == 10_001
    with pytest.raises(ValueError, match="too many points"):
        cli._parse_grid("0:1.0001:1e-4")


@pytest.mark.parametrize("flag", ["--m", "--reps"])
def test_scenario_too_large_for_memory_exits_2(flag):
    # in a child capped at 512 MB of address space, so that no run can fill
    # the host: the sweep fails before the CSV header is written
    check = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
        from repval import cli
        sys.argv = ["repval", "simulate", "--pi1", ".8", "--pi2", ".8",
                    "--seed", "1", "{flag}", "1000000000000"]
        cli.entry()
    """)
    result = subprocess.run([sys.executable, "-c", check], env=CHILD_ENV,
                            timeout=60, capture_output=True)
    assert result.returncode == cli.EXIT_DATA
    assert result.stdout == b""
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("repval simulate: bad scenario: ")
    assert "does not fit in memory" in lines[0]


def test_sweep_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    # in-process, with the sweep stubbed on the name the CLI resolves
    def sweep(scenario, grid, procedure):
        raise MemoryError

    monkeypatch.setattr(cli, "sweep_c2", sweep)
    code = cli.main([*SIM_DESIGN, "--c2-grid", "0.3:0.5:0.2"])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr() == (
        "", "repval simulate: bad scenario: m = 1000 with reps = 2 at 2 c2 "
        "points does not fit in memory\n")


def test_c2_grid_matches_listed_points():
    # 0.1:0.9:0.3 rounds to 4 points, and the last, 1.0, lies above HI;
    # the last point of 0:1:1.000000000001 is HI + 1e-12 exactly, kept
    for spec in ("0.1:0.9:0.2", "0.1:0.95:0.2", "0.3:0.3:0.1",
                 "0.05:0.95:0.15", "0.1:0.9:0.3", "0:1:1.000000000001"):
        lo, hi, step = map(float, spec.split(":"))
        n = round((hi - lo) / step) + 1
        listed = [lo + i * step for i in range(n)
                  if lo + i * step <= hi + 1e-12]
        assert cli._parse_grid(spec).tolist() == listed


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_failing_sweep_writes_no_rows(to_file, tmp_path, monkeypatch,
                                      capsys):
    # the last of nine points fails: the CSV is written only once the
    # whole sweep is done, so not even the header appears
    real, calls = simulate._aggregate, []

    def aggregate(scenario, outcomes):
        calls.append(scenario.c2)
        if len(calls) == 9:
            raise RuntimeError("sweep failed")
        return real(scenario, outcomes)

    monkeypatch.setattr(simulate, "_aggregate", aggregate)
    out = tmp_path / "out.csv"
    argv = [*SIM_DESIGN, "--c2-grid", "0.1:0.9:0.1"]
    with pytest.raises(RuntimeError):
        cli.main(argv + (["--out", str(out)] if to_file else []))
    assert len(calls) == 9
    assert (out.read_text() if to_file else capsys.readouterr().out) == ""


def test_simulate_sweeps_through_the_name_the_cli_resolves(monkeypatch,
                                                           capsys):
    # a stub or the benchmark tracer's wrapper bound to cli.sweep_c2 sees
    # the one sweep of a simulate call
    real, calls = cli.sweep_c2, []

    def sweep(scenario, grid, procedure):
        calls.append((scenario, list(grid), procedure))
        return real(scenario, grid, procedure)

    monkeypatch.setattr(cli, "sweep_c2", sweep)
    code = cli.main([*SIM_DESIGN, "--c2-grid", "0.3:0.5:0.2", "--procedure",
                     "bonferroni"])
    assert code == cli.EXIT_OK
    scenario = simulate.SimulationScenario(
        pi1=0.8, pi2=0.8, seed=1, m=1000, f00=0.9, f01=0.025, f10=0.025,
        f11=0.05, reps=2)
    assert calls == [(scenario, [0.3, 0.5], "bonferroni")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == simulate.METRICS_CSV_HEADER and len(lines) == 3


def test_reader_closing_the_pipe_stops_without_traceback():
    # 1 999 rows, ~220 KB: more than a pipe and both ends' buffers hold, so
    # the child is still writing when the reader closes
    child = subprocess.Popen(
        [sys.executable, "-m", "repval.cli", *SIM_DESIGN, "--reps", "1",
         "--c2-grid", "0.0005:0.9995:0.0005"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    assert child.stdout.readline().startswith(b"scenario_id,")
    child.stdout.close()
    with child.stderr:
        err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 1
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("argv, to_stdout", [
    (["rvalues", str(DATA_DIR / "t2d.tsv"), "--m", "68", "--out",
      "/dev/full"], False),
    (["rvalues", str(DATA_DIR / "t2d.tsv"), "--m", "68"], True),
    ([*SIM_DESIGN, "--out", "/dev/full"], False),
], ids=["rvalues-out", "rvalues-stdout", "simulate-out"])
def test_full_disk_exits_1_with_one_line(argv, to_stdout):
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "repval.cli", *argv],
            stdout=full if to_stdout else subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=CHILD_ENV, timeout=60)
    err = result.stderr.decode()
    assert result.returncode == 1 and err.count("\n") == 1
    assert err.startswith("repval: cannot write output: [Errno 28] ")


def test_q_out_of_range_exits_3_before_computing(monkeypatch, capsys):
    def computed(*args):
        raise AssertionError("r-values computed despite a bad --q")

    monkeypatch.setattr(cli, "fdr_rvalues_all", computed)
    for flag in ("--q", "--refine-q"):
        code = cli.main(["rvalues", str(DATA_DIR / "t2d.tsv"), "--m", "68",
                         flag, "1.5"])
        assert code == cli.EXIT_FLAGS
        assert f"{flag} must lie in (0, 1)" in capsys.readouterr().err


def test_clamp_zero_out_of_range_exits_3_before_reading(capsys):
    for eps in ("-1", "0", "2", "nan"):
        code = cli.main(["rvalues", "no-such-file.tsv", "--m", "68",
                         "--clamp-zero", eps])
        assert code == cli.EXIT_FLAGS
        assert "--clamp-zero must lie in (0, 1]" in capsys.readouterr().err
    # the top of the range is in it
    assert cli.main(["rvalues", str(DATA_DIR / "t2d.tsv"), "--m", "68",
                     "--clamp-zero", "1"]) == cli.EXIT_OK


def test_threshold_dep_without_t_exits_3_before_reading(capsys):
    code = cli.main(["rvalues", "no-such-file.tsv", "--m", "68", "--method",
                     "fdr-threshold-dep"])
    assert code == cli.EXIT_FLAGS
    assert capsys.readouterr().err == (
        "repval rvalues: error: --t is required for --method "
        "fdr-threshold-dep\n")


def test_c2_grid_outside_unit_interval_exits_3(capsys):
    for grid, message in (("0:1:0.5", "c2 must lie in (0, 1)"),
                          ("0.1:0.9", "expected LO:HI:STEP"),
                          ("0.1:0.9:0", "bad grid"),
                          ("0.1:inf:0.1", "bad grid"),
                          ("0.1:0.9:5e-324", "STEP is too small")):
        code = cli.main([*SIM_DESIGN, "--c2-grid", grid])
        assert code == cli.EXIT_FLAGS
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be >= 0"),
    ("--m", "-40", "m must be a positive integer, got -40"),
    ("--scenario-id", "a,b", "contains a comma"),
    ("--f00", "nan", "f00 must lie in [0, 1], got nan"),
    ("--q", "1.5", "q must lie in (0, 1), got 1.5"),
    ("--reps", "0", "reps must be >= 1, got 0"),
    ("--rho", "1", "rho must lie in [0, 1), got 1.0"),
    ("--block-size", "0", "block_size must be >= 1, got 0"),
], ids=["seed", "m", "scenario-id", "f00-nan", "q", "reps", "rho",
        "block-size"])
def test_bad_scenario_exits_2_with_one_line(flag, value, message, capsys):
    code = cli.main([*SIM_DESIGN, flag, value])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "bad scenario: " in err and message in err


# SIM_DESIGN's flags as the lines of a scenario file
DESIGN_FILE = "".join(f"{flag[2:]} = {value}\n" for flag, value
                      in zip(SIM_DESIGN[1::2], SIM_DESIGN[2::2]))


@pytest.mark.parametrize("text, flags", [
    (DESIGN_FILE, []),
    ("\ufeff" + DESIGN_FILE, []),
    (DESIGN_FILE.replace("seed = 1\n", ""), ["--seed", "1"]),
    (DESIGN_FILE + "c2 = 1.5\n", ["--c2", "0.5"]),
    ("# the paper design\n"
     + DESIGN_FILE.replace("seed = 1\n", "seed = 1  # trailing comment\n"),
     []),
], ids=["file-only", "bom", "seed-inline", "flag-overrides-bad-value",
        "comments"])
def test_scenario_file_run_equals_inline_flags(text, flags, tmp_path,
                                               capsys):
    path = tmp_path / "design.cfg"
    path.write_text(text, encoding="utf-8")
    assert cli.main(list(SIM_DESIGN)) == cli.EXIT_OK
    inline = capsys.readouterr()
    assert inline.out.startswith("scenario_id,") and inline.err == ""
    code = cli.main(["simulate", "--scenario", str(path), *flags])
    assert code == cli.EXIT_OK
    assert capsys.readouterr() == inline


@pytest.mark.parametrize("data, message", [
    (b"pi1 = 0.8\npi2 = 0.8\nseed = 1\n# caf\xe9\n",
     "not UTF-8 text: byte 0xe9"),
    (b"pi1 = 0.8\npi2 = 0.8\nseed = 1\npi2 = 0.5\n",
     "line 4: key 'pi2' appears twice"),
    (b"pi1 = 0.8\npi2 = 0.8\nseed = 1.5\n", "seed must be int, got '1.5'"),
    (b"pi1 = 0.8\npi2 = 0.8\nseed = 1\nm = 1e3\n",
     "m must be int, got '1e3'"),
    (b"pi1 0.1\n", "line 1: expected 'key = value'"),
], ids=["non-utf8", "repeated-key", "seed-not-int", "m-not-int",
        "no-equals"])
def test_bad_scenario_file_exits_2_with_one_line(data, message, tmp_path,
                                                 capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(data)
    assert cli.main(["simulate", "--scenario", str(path)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"bad scenario: {message}" in err


# --method -> the step-up function whose set the replicated column is, at
# every q, for the three FDR methods
STEP_UP_NAMES = {"fdr": "step_up_set",
                 "fdr-general-dep": "step_up_set_general_dep",
                 "fdr-threshold-dep": "step_up_set_threshold_dep",
                 "fwer-bonferroni": None}


def _replicated(argv, out):
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert rows[0][-1] == "replicated"
    return {row[0]: row[-1] for row in rows[1:]}


@pytest.mark.parametrize("method", sorted(STEP_UP_NAMES))
def test_replicated_column_reads_the_exact_rvalue(method, tmp_path):
    # at q equal to a feature's r-value the feature is replicated, one
    # double below it is not; the column is the method's step-up set
    table = DATA_DIR / "iga_nephropathy.tsv"
    config = AnalysisConfig(m=444882, l00=0.8, c2=0.5, t=2e-4)
    ds = validate_dataset(read_pvalue_table(table), config)
    rvals = getattr(cli, cli._METHODS[method])(ds, config)
    below_one = np.flatnonzero(rvals < 1.0)
    pick = below_one[np.argsort(rvals[below_one])[len(below_one) // 2]]
    r = float(rvals[pick])
    argv = ["rvalues", str(table), "--m", "444882", "--method", method,
            "--t", "2e-4"]
    for q, hit in ((r, "yes"), (float(np.nextafter(r, 0.0)), "no")):
        column = _replicated(argv + ["--q", repr(q)], tmp_path / "out.tsv")
        assert column[ds.ids[pick]] == hit
        assert {fid for fid, v in column.items() if v == "yes"} == {
            fid for fid, rv in zip(ds.ids, rvals.tolist()) if rv <= q}
        if STEP_UP_NAMES[method]:
            step_up = getattr(cli, STEP_UP_NAMES[method])
            assert {fid for fid, v in column.items() if v == "yes"} == (
                step_up(ds, config, q))


def test_replicated_column_calls_no_step_up_function(monkeypatch, tmp_path):
    def called(*args):
        raise AssertionError("a step-up function was called")

    for name in filter(None, STEP_UP_NAMES.values()):
        monkeypatch.setattr(cli, name, called)
    for method in STEP_UP_NAMES:
        column = _replicated(
            ["rvalues", str(DATA_DIR / "iga_nephropathy.tsv"), "--m",
             "444882", "--method", method, "--t", "2e-4", "--q", "0.05"],
            tmp_path / "out.tsv")
        assert "yes" in column.values()


def test_no_consistent_regime_exits_3_before_reading(capsys):
    # at t*m = 5e14 a regime count passes 2^53 at every x below 1: the
    # flags alone decide that, so no table is opened
    code = cli.main(["rvalues", "no-such-file.tsv", "--m", str(10**15),
                     "--method", "fdr-threshold-dep", "--t", "0.5"])
    assert code == cli.EXIT_FLAGS
    assert capsys.readouterr().err == (
        "repval rvalues: error: no consistent regime below 2^53 for any x "
        "below 1 at t=0.5, m=1000000000000000\n")


def test_no_consistent_regime_past_the_flag_check_exits_2(monkeypatch,
                                                          capsys):
    # past the flag check, NoConsistentRegime from the regime walk is
    # reported as a data error on the input
    def walk(dataset, config):
        raise dependence.NoConsistentRegime("the walk failed")

    monkeypatch.setattr(cli, cli._METHODS["fdr-threshold-dep"], walk)
    table = DATA_DIR / "t2d.tsv"
    code = cli.main(["rvalues", str(table), "--m", "68", "--method",
                     "fdr-threshold-dep", "--t", "0.5"])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr() == (
        "", f"repval rvalues: {table}: the walk failed\n")


@pytest.mark.parametrize("l00", ["0", "0.8", "0.95"])
@pytest.mark.parametrize("m", ["1000000", "100000000"])
def test_large_t_m_threshold_dep_exits_0_at_its_floor(l00, m, tmp_path,
                                                      capsys):
    # t*m from 1e5 to 1e7: the regime walk at x = 1e-12 would pass 2^53,
    # so the level's floor rises with t*m and the r-values stop there
    table = tmp_path / "big.tsv"
    table.write_text("id\tp1\tp2\na\t1e-25\t1e-25\nb\t0.05\t0.5\n")
    argv = ["rvalues", str(table), "--m", m, "--l00", l00, "--method",
            "fdr-threshold-dep", "--t", "0.1"]
    assert cli.main(argv) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == ["a\t1e-25\t1e-25\t0.0000", "b\t0.05\t0.5\t1.0000"]
    ds = read_pvalue_table(table)
    config = AnalysisConfig(m=int(m), l00=float(l00), t=0.1)
    ds = validate_dataset(ds, config)
    floor = dependence._threshold_procedure(config).floor
    values = fdr_rvalues_all_threshold_dep(ds, config)
    assert 1e-12 < floor < 1e-5
    assert values[0] == floor and values[1] == 1.0
    assert "a" in step_up_set_threshold_dep(ds, config, floor)
    assert not step_up_set_threshold_dep(ds, config, 0.99 * floor)
    # at the other end, t*m = 1e-309: the floor's argument underflows to
    # 0, every regime count is 0 there, the floor is 1e-12, and the call
    # prints the plain r-values
    t = repr(1e-309 / int(m))
    table.write_text(f"id\tp1\tp2\na\t{t}\t0.01\n")
    printed = []
    for method in ("fdr", "fdr-threshold-dep"):
        assert cli.main(["rvalues", str(table), "--m", m, "--l00", l00,
                         "--method", method, "--t", t]) == cli.EXIT_OK
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].out.endswith("\t0.01\t0.0200\n")


@pytest.mark.parametrize("text, flags, message", [
    ("id,p1,p2\na,0.1,0.2\nb,0,0.2\n", [],
     "{table}: line 3: feature 'b': p1=0.0 is not positive"),
    ("id,p1,p2\na,0.1,0.2\nb,0.1,1e-400\n", [],
     "{table}: line 3: feature 'b': p2 '1e-400' is below the smallest "
     "positive double"),
    ("id,p1,p2\na,0.1,0.2\nb,0.1,1.5\n", [],
     "{table}: line 3: feature 'b': p2=1.5 exceeds 1"),
    ("id,p1,p2\na,0.1,0.2\n\na,0.1,0.3\n", [],
     "{table}: line 4: feature id 'a' appears twice"),
    ("id,p1,p2\na,0.1,0.2\nb,0.1,0.3\nc,0.1,0.3\n", ["--m", "2"],
     "{table}: 3 features followed up but m=2"),
    *(("id,p1,p2\na,0.4,0.1\nb,0.01,0.2\n", ["--t", "0.1", *flags],
       "{table}: line 2: feature 'a' has p1=0.4 above the selection "
       "threshold t=0.1")
      # checked with the other table rules: whatever the method, and before
      # refinement, which keeps 'a' at m = 2 (this --m overrides the
      # test's) and drops it at m = 10
      for flags in (["--method", "fdr-threshold-dep"],
                    ["--method", "fdr-threshold-dep", "--m", "2",
                     "--refine-q", "0.9"],
                    ["--method", "fdr-threshold-dep", "--refine-q", "0.5"],
                    ["--method", "fdr"])),
    ("id,p1,p2,p1\na,0.01,0.2,0.9\n", [],
     "{table}: line 1: repeated column(s) 'p1'; header was "
     "['id', 'p1', 'p2', 'p1']"),
    ("id,p1,p2\na,0.1,0.2\n,0.1,0.3\n", [],
     "{table}: line 3: empty feature id"),
    ("id,p1,p2\na,0.1,0.2\n\nf1,0.1\n", [],
     "{table}: line 4: could not parse p1/p2 for feature 'f1'"),
], ids=["zero", "underflow", "above-one", "duplicate-id", "r1-above-m",
        "above-t", "above-t-refine-r1-2", "above-t-refine-r1-10",
        "above-t-fdr", "column-twice", "empty-id", "short-row"])
def test_invalid_data_exits_2_with_a_pinned_line(text, flags, message,
                                                 tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text(text)
    code = cli.main(["rvalues", str(table), "--m", "10", *flags])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr() == (
        "", f"repval rvalues: {message.format(table=table)}\n")


def test_nan_pvalue_exits_2(tmp_path, capsys):
    table = tmp_path / "nan.tsv"
    table.write_text("id\tp1\tp2\na\tnan\t0.1\n")
    assert cli.main(["rvalues", str(table), "--m", "5"]) == cli.EXIT_DATA
    assert "p1 is NaN" in capsys.readouterr().err


def test_rvalues_output_round_trips_quoted_cells(tmp_path):
    # a cell holding the output delimiter is quoted, so reading the output
    # back gives the input cells: a quoted CSV field, and a TSV id with a
    # comma written as CSV
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('id,p1,p2,gene\na,1e-6,1e-4,"HLA-A, HLA-B"\n'
                      'b,0.3,0.5,TNF\n')
    comma = tmp_path / "comma.tsv"
    comma.write_text("id\tp1\tp2\nrs1,chr6\t1e-6\t1e-4\n")
    for table, extra in ((quoted, []), (comma, ["--format", "csv"])):
        out = tmp_path / "out.csv"
        code = cli.main(["rvalues", str(table), "--m", "100", "--out",
                         str(out), *extra])
        assert code == cli.EXIT_OK
        given, echoed = read_pvalue_table(table), read_pvalue_table(out)
        assert echoed.fieldnames == given.fieldnames + ["r_value"]
        assert [row[:-1] for row in echoed.cells] == given.cells


def test_missing_input_exits_2_with_one_line(tmp_path, capsys):
    table = tmp_path / "no-such-file.tsv"
    assert cli.main(["rvalues", str(table), "--m", "5"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(table) in err


def test_non_utf8_input_exits_2_with_one_line(tmp_path, capsys):
    table = tmp_path / "latin1.tsv"
    table.write_bytes(b"id\tp1\tp2\ncaf\xe9\t0.1\t0.2\n")
    assert cli.main(["rvalues", str(table), "--m", "5"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not UTF-8 text: byte 0xe9" in err


@pytest.mark.parametrize("argv", [
    ["rvalues", str(DATA_DIR / "t2d.tsv"), "--m", "68"], list(SIM_DESIGN),
], ids=["rvalues", "simulate"])
def test_unopenable_out_exits_3_with_one_line(argv, tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "out.txt"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_FLAGS
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--out: " in err and "Errno" in err


@pytest.mark.parametrize("command", ["", "rvalues", "simulate"])
def test_help_is_byte_identical(command, monkeypatch, capsys):
    # the golden files are the help of the release that built every
    # subcommand's arguments at start-up, at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    golden = GOLDEN_DIR / f"help-{command or 'repval'}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_rvalues_run_leaves_simulation_unloaded(tmp_path):
    # only ``repval simulate`` needs the harness and numpy's random
    # generators; an r-value run never imports them
    check = textwrap.dedent(f"""
        import sys, repval.cli
        assert "repval.simulate" not in sys.modules, "loaded at import"
        code = repval.cli.main(["rvalues", {str(DATA_DIR / "t2d.tsv")!r},
                                "--m", "68", "--l00", "0.0", "--q", "0.05",
                                "--out", {str(tmp_path / "out.tsv")!r}])
        assert code == 0
        for name in ("repval.simulate", "numpy.random"):
            assert name not in sys.modules, name
    """)
    subprocess.run([sys.executable, "-c", check], env=CHILD_ENV, timeout=60,
                   check=True)
    assert (tmp_path / "out.tsv").read_bytes() == (
        GOLDEN_DIR / "t2d-fdr.tsv").read_bytes()


IGA_CALL = ("rvalues", str(DATA_DIR / "iga_nephropathy.tsv"), "--m", "444882",
            "--t", "2e-4")
CLI_MODULES = {"repval", "repval.model", "repval.cli"}
# an r-value call loads the step-up rule only to refine or to claim
ENGINE_MODULES = {"repval.rvalue"}
CLAIM_MODULES = ENGINE_MODULES | {"repval.selection"}


# "dataclasses" is listed when loaded, and no call may load it: every
# value class of the package is a plain class (numpy imports inspect, so
# that is not checked)
@pytest.mark.parametrize("argv, loaded", [
    (None, {"repval"}),
    ((), CLI_MODULES),
    (IGA_CALL, CLI_MODULES | ENGINE_MODULES),
    ((*IGA_CALL, "--method", "fdr-general-dep"),
     CLI_MODULES | ENGINE_MODULES | {"repval.dependence"}),
    ((*IGA_CALL, "--method", "fdr-threshold-dep"),
     CLI_MODULES | ENGINE_MODULES | {"repval.dependence"}),
    ((*IGA_CALL, "--method", "fwer-bonferroni"),
     CLI_MODULES | ENGINE_MODULES | {"repval.fwer"}),
    ((*IGA_CALL, "--refine-q", "0.05"), CLI_MODULES | CLAIM_MODULES),
    ((*IGA_CALL, "--meta", "fisher"),
     CLI_MODULES | CLAIM_MODULES | {"repval.baselines", "repval.normal"}),
    (SIM_DESIGN, CLI_MODULES | CLAIM_MODULES | {
        "repval.baselines", "repval.normal", "repval.simulate"}),
], ids=["import-repval", "import-cli", "fdr", "general-dep", "threshold-dep",
        "bonferroni", "refine", "meta-fisher", "simulate"])
def test_each_call_loads_only_what_it_runs(argv, loaded, tmp_path):
    # in a child with the benchmark's environment, where a module that is
    # loaded is also compiled from source
    check = "import repval\n" if argv is None else "import repval.cli\n"
    if argv:
        out = str(tmp_path / "out.txt")
        check += f"assert repval.cli.main({[*argv, '--out', out]!r}) == 0\n"
    check += textwrap.dedent("""
        import sys
        print(" ".join(name for name in sys.modules
                       if name.split(".")[0] == "repval"
                       or name == "dataclasses"))
    """)
    env = {**CHILD_ENV, "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", check], env=env,
                            capture_output=True, text=True, timeout=60)
    err = result.stderr
    if argv and "--refine-q" in argv:  # one line says what refinement kept
        note, _, err = err.partition("\n")
        assert note.startswith("repval rvalues: refinement kept ")
    assert (result.returncode, err) == (0, "")
    assert set(result.stdout.split()) == loaded


def test_simulation_names_resolve_on_first_use():
    # the CLI resolves the package's names and sweep_c2 when first asked
    # for, each to its defining module's own object; the package does not
    # mirror the harness's names
    import repval
    from repval import simulate as module
    assert cli.sweep_c2 is module.sweep_c2
    for name in repval.__all__:
        home = importlib.import_module(f"repval.{repval._HOME[name]}")
        assert getattr(cli, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        cli.no_such_name
    with pytest.raises(AttributeError):
        repval.estimate
    with pytest.raises(AttributeError):
        repval.sweep_c2


T2D_CALL = ("rvalues", str(DATA_DIR / "t2d.tsv"), "--m", "68", "--l00", "0.0",
            "--q", "0.05")


def test_main_leaves_the_collector_alone(tmp_path):
    # tests, the benchmark's tracer and library callers run main() in a
    # long-lived process, whose heap is not theirs to freeze and whose
    # collector is not theirs to switch on or off
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            frozen = gc.get_freeze_count()
            out = tmp_path / "out.tsv"
            assert cli.main([*T2D_CALL, "--out", str(out)]) == cli.EXIT_OK
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_process_entry_runs_with_the_collector_off(tmp_path):
    # the ``repval`` script imports with the collector on; from entry() to
    # the exit no collection starts
    out = tmp_path / "out.tsv"
    check = textwrap.dedent(f"""
        import atexit, gc, sys
        import repval.cli
        log = []

        def on_collect(phase, info):
            if phase == "start" and log:
                log.append("collect")

        gc.callbacks.append(on_collect)
        atexit.register(lambda: print(*log, gc.isenabled()))
        sys.argv = ["repval", *{T2D_CALL!r}, "--out", {str(out)!r}]
        log.append("entry")
        repval.cli.entry()
    """)
    result = subprocess.run([sys.executable, "-c", check], env=CHILD_ENV,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.split() == ["entry", "False"]
    assert out.read_bytes() == (GOLDEN_DIR / "t2d-fdr.tsv").read_bytes()


def test_module_process_collects_nothing_from_its_first_import(tmp_path):
    # ``python -m repval.cli`` turns the collector off before its first
    # import (repval.model, which loads numpy): from there to the exit no
    # collection starts
    out = tmp_path / "out.tsv"
    check = textwrap.dedent(f"""
        import atexit, gc, runpy, sys
        import repval  # loads no module
        log = []

        def on_collect(phase, info):
            if phase == "start" and "repval.model" in sys.modules:
                log.append("collect")

        gc.callbacks.append(on_collect)
        atexit.register(lambda: print(*log, gc.isenabled()))
        sys.argv = ["repval", *{T2D_CALL!r}, "--out", {str(out)!r}]
        runpy.run_module("repval.cli", run_name="__main__", alter_sys=True)
    """)
    result = subprocess.run([sys.executable, "-c", check], env=CHILD_ENV,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.split() == ["False"]
    assert out.read_bytes() == (GOLDEN_DIR / "t2d-fdr.tsv").read_bytes()


@pytest.mark.parametrize("enabled", [True, False])
def test_import_leaves_the_collector_as_it_was(enabled):
    check = textwrap.dedent(f"""
        import gc
        if not {enabled}:
            gc.disable()
        import repval.cli
        print(gc.isenabled())
    """)
    result = subprocess.run([sys.executable, "-c", check], env=CHILD_ENV,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{enabled}\n"


def test_process_entry_writes_everything_and_skips_freeing_the_heap():
    # an object that the run makes and that announces being freed, which a
    # normal exit would do
    check = textwrap.dedent(f"""
        import os, sys
        import repval.cli

        class Held:
            def __del__(self):
                os.write(1, b"freed")

        def main(real=repval.cli.main):
            repval.cli.held = Held()
            return real()

        repval.cli.main = main
        sys.argv = ["repval", *{T2D_CALL!r}]
        repval.cli.entry()
    """)
    result = subprocess.run([sys.executable, "-c", check], env=CHILD_ENV,
                            capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (GOLDEN_DIR / "t2d-fdr.tsv").read_bytes()


def malformed_rvalues_calls(seed: int, count: int):
    """``count`` seeded (file bytes, flags) pairs for ``repval rvalues``:
    broken headers, ids and cells, mixed line endings, a BOM, and flags
    outside their ranges. Some are valid, so every exit code shows. Then
    ``count`` byte mutations of ``data/t2d.tsv`` with such flags; these
    need not be UTF-8."""
    rng = random.Random(seed)
    cells = ["0.01", "3e-6", "0.2", "1", "0", "-0.2", "1.5", "nan", "NaN",
             "inf", "abc", "", '"', "1e-400"]
    # flag -> (values in range, values outside it)
    ranges = {"--m": (["3", "10", "1000"], ["0", "-5"]),
              "--l00": (["0.0", "0.5"], ["-0.1", "1", "nan"]),
              "--c2": (["0.3"], ["0", "1", "nan"]),
              "--q": (["0.05"], ["0", "1.5", "nan"]),
              "--clamp-zero": (["1e-10"], ["0", "2", "nan"]),
              "--t": (["0.5", "1e-3"], ["0", "2", "nan"])}

    def flags():
        method = rng.choice(list(cli._METHODS))
        drawn = ["--method", method,
                 "--meta", rng.choice(["none", "fisher", "stouffer"])]
        for flag, (valid, invalid) in ranges.items():
            # --m is required; without --t fdr-threshold-dep stops at once
            if flag == "--m" or rng.random() < (
                    0.95 if flag == "--t" and method == "fdr-threshold-dep"
                    else 0.3):
                bad = rng.random() < 0.1
                drawn += [flag, rng.choice(invalid if bad else valid)]
        return drawn

    for _ in range(count):
        header = ["id", "p1", "p2"]
        edit = rng.choice(["none", "none", "repeat", "drop", "extra", "empty",
                           "shuffle"])
        if edit == "repeat":
            header.append(rng.choice(header))
        elif edit == "drop":
            header.remove(rng.choice(header))
        elif edit == "extra":
            header.append("gene")
        elif edit == "empty":
            header.append("")
        elif edit == "shuffle":
            rng.shuffle(header)
        rows = [header]
        for _ in range(rng.randint(0, 5)):
            row = [rng.choice(["a", "b", "c", "", "rs 7"])]
            row += [rng.choice(cells) if rng.random() < 0.3
                    else rng.choice(["0.01", "3e-6", "0.2"])
                    for _ in range(2)]
            if rng.random() < 0.2:
                row.append(rng.choice(["x", ""]))
            elif rng.random() < 0.1:
                row.pop()
            rows.append(row)
        delim = rng.choice([",", "\t"])
        text = "".join(delim.join(row) + rng.choice(["\n", "\r\n", "\r"])
                       for row in rows)
        if rng.random() < 0.2:
            text = "\ufeff" + text
        yield text.encode("utf-8"), flags()
    t2d = (DATA_DIR / "t2d.tsv").read_bytes()
    for _ in range(count):
        data = bytearray(t2d)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(data) + 1)
            edit = rng.choice(["bom", "nul", "quote", "delimiter", "cell",
                               "bytes"])
            if edit == "bom":
                data[:0] = "\ufeff".encode("utf-8")
            elif edit == "cell":
                cell = rng.choice(list(re.finditer(rb"\d\.\d+e-\d+", data)))
                data[cell.start():cell.end()] = rng.choice(
                    [b"nan", b"1e-400"])
            elif edit == "bytes":  # in place of up to two
                data[at:at + rng.randint(0, 2)] = rng.randbytes(
                    rng.randint(1, 4))
            else:
                data[at:at] = rng.choice({"nul": [b"\0"], "quote": [b'"'],
                                          "delimiter": [b"\t", b","]}[edit])
        extra = []
        # m from below R1 = 11 to 2^62, and a refinement pass
        if rng.random() < 0.7:
            extra += ["--m", rng.choice(["5", "68", str(2**62)])]
        if rng.random() < 0.2:
            extra += ["--refine-q", rng.choice(["0.05", "0.5", "0", "nan"])]
        yield bytes(data), flags() + extra


def test_malformed_input_exits_with_one_line(tmp_path, capsys):
    table = tmp_path / "table.txt"
    codes = set()
    for data, flags in malformed_rvalues_calls(seed=1, count=200):
        table.write_bytes(data)
        try:
            code = cli.main(["rvalues", str(table), *flags])
        except (Exception, SystemExit) as exc:  # argparse exits on flags
            pytest.fail(f"{data!r} {flags}: {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (data, flags, code)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (data, flags)
            assert out == "", (data, flags)
        elif "--refine-q" in flags:  # one line says what refinement kept
            assert err.startswith("repval rvalues: refinement kept ")
            assert err.count("\n") == 1 and err.endswith("\n"), (data, flags)
        else:
            assert err == "", (data, flags)
        codes.add(code)
    assert codes == {0, 2, 3}


# tables the seeded calls above seldom or never write
READER_EDGES = [
    "id,p1,p2,gene\na,0.1,0.2\n",
    "id,p1,p2,gene\na,0.1,0.2,TNF\nf1,0.1\n",
    "id,p1,p2\n\na,0.1,0.2\n\n\nb,x,0.3\n",
    "id,p1,p2\na,0.1,0.2\n\n\n",
    'id,p1,p2,note\na,0.1,0.2,"two\nlines"\n"b\nc",0.3,0.4\n\n"d\ne",1,x\n',
    "\ufeffid\tp1\tp2\na\t0.1\t0.2\n",
    "id,p1,p2\r\na,0.1,0.2\r\n\r\nb,1e-3,0.5\r\nc,0,x\r\n",
    "id, p1 ,p2\n a , 0.1 ,0.2 \n",
    "id,p1,p2\na,0.1,0.2,x\n",
    "id,p1,p2\n",
    "",
    "id,p1,p2\na,nan,0\n",
]


def _read_table(source, *, clamp_zero):
    table = read_pvalue_table(source, clamp_zero=clamp_zero)
    rows = [dict(zip(table.fieldnames, row)) for row in table.cells]
    return (table.fieldnames, rows, table.records, table.delimiter,
            table.source_lines)


def _read_outcome(read, source, clamp_zero):
    try:
        # repr: a NaN p-value is unequal to itself
        return repr(read(source, clamp_zero=clamp_zero))
    except Exception as exc:
        return repr((type(exc), str(exc), getattr(exc, "line", None)))


def test_reader_matches_the_dictreader_reader(tmp_path):
    table = tmp_path / "table.txt"
    texts = []
    for data, _ in malformed_rvalues_calls(seed=1, count=200):
        # the readers are compared on text; bytes that are not UTF-8 go
        # only to the exit-code test above
        with contextlib.suppress(UnicodeDecodeError):
            texts.append(data.decode("utf-8"))
    for text in texts + READER_EDGES:
        table.write_text(text, encoding="utf-8", newline="")
        # from a path, line endings arrive as "\n"; from a stream, as given
        for source in (lambda: table, lambda: io.StringIO(text, newline="")):
            for clamp_zero in (None, 1e-10):
                assert _read_outcome(_read_table, source(), clamp_zero) \
                    == _read_outcome(oracle_read_pvalue_table, source(),
                                     clamp_zero), text


def readme_examples():
    """(command, shown lines) for each ``$ `` line in the fenced blocks of
    README.md: the lines under it up to the next command or the fence."""
    examples, current, fenced = [], None, False
    for line in (REPO_ROOT / "README.md").read_text(
            encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif fenced and line.startswith("$ "):
            current = (line[2:], [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return examples


@pytest.mark.parametrize("command, shown", [
    pytest.param(*example, id=f"example{i}")
    for i, example in enumerate(readme_examples(), 1)])
def test_readme_example_prints_what_it_shows(command, shown):
    # run as the README says, from the repository root; stdout, stderr
    # (every stderr line starts "repval") and the exit code of the shell's
    # echo are compared each on its own, as the two streams interleave
    call = re.fullmatch(r'PYTHONPATH=src python -m repval\.cli (.*?)'
                        r'(?: \| head -(\d+))?(; echo "exit \$\?")?', command)
    assert call, command
    argv, head, echo = call.groups()
    code = 0
    if echo:
        *shown, last = shown
        code = int(last.removeprefix("exit "))
    result = subprocess.run(
        [sys.executable, "-m", "repval.cli", *shlex.split(argv)],
        cwd=REPO_ROOT, env={**CHILD_ENV, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=60)
    stdout = result.stdout.splitlines()[:int(head) if head else None]
    assert result.returncode == code
    assert stdout == [line for line in shown if not line.startswith("repval")]
    assert result.stderr.splitlines() == [
        line for line in shown if line.startswith("repval")]
