"""The command-line front end: documented exit codes and byte-stable output
on the bundled published tables."""

import os
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

from conftest import DATA_DIR

GOLDEN_DIR = Path(__file__).parent / "golden"

# The published-settings calls; each golden file is the output of the
# release before the exact r-value engine, kept byte for byte.
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
    "tpp-bonferroni": ("tpp.tsv", "--m", "486782", "--method",
                       "fwer-bonferroni"),
}
SIM_DESIGN = ("simulate", "--m", "1000", "--f00", "0.9", "--f01", "0.025",
              "--f10", "0.025", "--f11", "0.05", "--pi1", "0.8", "--pi2",
              "0.8", "--seed", "1", "--reps", "2")


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_published_output_is_byte_identical(name, tmp_path):
    table, *flags = PUBLISHED[name]
    meta = ["--meta", "fisher"] if table.startswith("iga") else []
    out = tmp_path / "out.tsv"
    code = cli.main(["rvalues", str(DATA_DIR / table), *flags, "--q", "0.05",
                     *meta, "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.tsv").read_bytes()


def test_simulate_paper_design_is_byte_identical(tmp_path):
    # the golden file is the output of the release that spelled out each
    # scenario flag by hand
    out = tmp_path / "out.csv"
    # a later --reps overrides the one in SIM_DESIGN
    code = cli.main([*SIM_DESIGN, "--reps", "20", "--c2-grid", "0.1:0.9:0.2",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / "simulate-paper.csv").read_bytes()


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
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", check], env=env, timeout=60,
                   check=True)


def test_c2_grid_is_lazy():
    # in a child capped at 512 MB of address space, so that a materialised
    # grid (~8e11 floats) fails with MemoryError instead of filling the host
    check = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
        from repval import cli
        grid = cli._parse_grid("0.1:0.9:1e-12")
        assert len(grid) == 800_000_000_001
        assert grid[0] == 0.1
        assert grid[-1] == 0.1 + 800_000_000_000 * 1e-12
    """)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", check], env=env, timeout=60,
                   check=True)


@pytest.mark.parametrize("flag", ["--m", "--reps"])
def test_scenario_too_large_for_memory_exits_2(flag):
    # in a child capped at 512 MB of address space, so that no run can fill
    # the host: the first grid point fails before the CSV header is written
    check = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
        from repval import cli
        sys.argv = ["repval", "simulate", "--pi1", ".8", "--pi2", ".8",
                    "--seed", "1", "{flag}", "1000000000000"]
        cli.entry()
    """)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", check], env=env,
                            timeout=60, capture_output=True)
    assert result.returncode == cli.EXIT_DATA
    assert result.stdout == b""
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("repval simulate: bad scenario: ")
    assert "does not fit in memory" in lines[0]


def test_c2_grid_matches_listed_points():
    # 0.1:0.9:0.3 rounds to 4 points, and the last, 1.0, lies above HI
    for spec in ("0.1:0.9:0.2", "0.1:0.95:0.2", "0.3:0.3:0.1",
                 "0.05:0.95:0.15", "0.1:0.9:0.3"):
        lo, hi, step = map(float, spec.split(":"))
        n = round((hi - lo) / step) + 1
        listed = [lo + i * step for i in range(n)
                  if lo + i * step <= hi + 1e-12]
        assert list(cli._parse_grid(spec)) == listed


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_grid_rows_are_written_as_they_finish(to_file, tmp_path,
                                              monkeypatch, capsys):
    real = simulate.estimate
    calls = []

    def estimate(scenario, procedure="step-up"):
        calls.append(scenario.c2)
        if len(calls) == 3:
            raise RuntimeError("third point failed")
        return real(scenario, procedure)

    monkeypatch.setattr(simulate, "estimate", estimate)
    out = tmp_path / "out.csv"
    argv = [*SIM_DESIGN, "--c2-grid", "0.1:0.9:0.2"]
    with pytest.raises(RuntimeError):
        cli.main(argv + (["--out", str(out)] if to_file else []))
    text = out.read_text() if to_file else capsys.readouterr().out
    golden = (GOLDEN_DIR / "simulate-paper.csv").read_text().splitlines()
    lines = text.splitlines()
    assert len(lines) == 3 and lines[0] == golden[0]
    assert [line.split(",")[1] for line in lines[1:]] == ["0.1", "0.3"]


def test_reader_closing_the_pipe_stops_without_traceback():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "repval.cli", *SIM_DESIGN, "--reps", "1",
         "--c2-grid", "0.01:0.99:0.01"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
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
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "repval.cli", *argv],
            stdout=full if to_stdout else subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env, timeout=60)
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


def test_threshold_dep_without_t_exits_3_before_reading(capsys):
    code = cli.main(["rvalues", "no-such-file.tsv", "--m", "68", "--method",
                     "fdr-threshold-dep"])
    assert code == cli.EXIT_FLAGS
    assert "--t is required" in capsys.readouterr().err


def test_c2_grid_outside_unit_interval_exits_3(capsys):
    for grid, message in (("0:1:0.5", "c2 must lie in (0, 1)"),
                          ("0.1:0.9", "expected LO:HI:STEP"),
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
], ids=["file-only", "bom", "seed-inline", "flag-overrides-bad-value"])
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
], ids=["non-utf8", "repeated-key", "seed-not-int", "m-not-int"])
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
    ds = validate_dataset(read_pvalue_table(table).records, config)
    rvals = cli._methods()[method](ds, config)
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


def test_no_consistent_regime_exits_2_with_one_line(tmp_path, capsys):
    # at t*m = 5e14 a regime count passes 2^53 at every x below 1
    table = tmp_path / "big.tsv"
    table.write_text("id\tp1\tp2\na\t1e-20\t1e-20\nb\t0.3\t0.5\n")
    code = cli.main(["rvalues", str(table), "--m", str(10**15), "--method",
                     "fdr-threshold-dep", "--t", "0.5"])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no consistent regime" in err


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
    ds = validate_dataset(ds.records, config)
    floor = dependence._threshold_procedure(ds, config).floor
    values = fdr_rvalues_all_threshold_dep(ds, config)
    assert 1e-12 < floor < 1e-5
    assert values[0] == floor and values[1] == 1.0
    assert "a" in step_up_set_threshold_dep(ds, config, floor)
    assert not step_up_set_threshold_dep(ds, config, 0.99 * floor)


@pytest.mark.parametrize("text, flags, message", [
    ("id,p1,p2\na,0.1,0.2\nb,0,0.2\n", [],
     "{table}: line 3: feature 'b': p1=0.0 is not positive"),
    ("id,p1,p2\na,0.1,0.2\nb,0.1,1.5\n", [],
     "{table}: line 3: feature 'b': p2=1.5 exceeds 1"),
    ("id,p1,p2\na,0.1,0.2\n\na,0.1,0.3\n", [],
     "{table}: line 4: feature id 'a' appears twice"),
    ("id,p1,p2\na,0.1,0.2\nb,0.1,0.3\nc,0.1,0.3\n", ["--m", "2"],
     "{table}: 3 features followed up but m=2"),
    ("id,p1,p2\na,0.4,0.1\nb,0.01,0.2\n",
     ["--method", "fdr-threshold-dep", "--t", "0.1"],
     "{table}: feature 'a' has p1=0.4 above the selection threshold t=0.1"),
    ("id,p1,p2,p1\na,0.01,0.2,0.9\n", [],
     "{table}: line 1: repeated column(s) 'p1'; header was "
     "['id', 'p1', 'p2', 'p1']"),
    ("id,p1,p2\na,0.1,0.2\n,0.1,0.3\n", [],
     "{table}: line 3: empty feature id"),
], ids=["zero", "above-one", "duplicate-id", "r1-above-m", "above-t",
        "column-twice", "empty-id"])
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
        assert [{k: row[k] for k in given.fieldnames} for row in echoed.rows] \
            == given.rows


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
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", check], env=env, timeout=60,
                   check=True)
    assert (tmp_path / "out.tsv").read_bytes() == (
        GOLDEN_DIR / "t2d-fdr.tsv").read_bytes()


def test_simulation_names_resolve_on_first_use():
    # the CLI resolves sweep_c2 when first asked for; the package does not
    # mirror the harness's names
    from repval import simulate as module
    assert cli.sweep_c2 is module.sweep_c2
    import repval
    with pytest.raises(AttributeError):
        cli.no_such_name
    with pytest.raises(AttributeError):
        repval.estimate
