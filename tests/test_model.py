import copy
import io
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repval import (AnalysisConfig, DatasetError, read_pvalue_table,
                    validate_dataset)
from repval.cli import main
from repval.model import FeatureRecord
from repval.simulate import (SimulationMetrics, SimulationScenario,
                             estimate)

from _oracles import oracle_validate_dataset
from conftest import IGA_M, dataset_from_arrays, make_random_dataset


def _records(pairs):
    return [FeatureRecord(f"f{i}", a, b) for i, (a, b) in enumerate(pairs)]


def test_iga_dataset_validates(iga_table):
    config = AnalysisConfig(m=IGA_M)
    ds = validate_dataset(iga_table.records, config)
    assert len(ds) == 61


def test_zero_pvalue_rejected():
    config = AnalysisConfig(m=10)
    with pytest.raises(DatasetError, match="p1=0.0 is not positive"):
        validate_dataset(_records([(0.0, 0.5)]), config)
    with pytest.raises(DatasetError, match="p2=0.0 is not positive"):
        validate_dataset(_records([(0.5, 0.0)]), config)
    # from a table, a zero numeral keeps that message, and a cell that
    # underflowed to 0 is quoted as written; records hold no cells
    for cell, message in (("0", "p2=0.0 is not positive"),
                          ("-0e5", "p2=-0.0 is not positive"),
                          ("1e-400", "p2 '1e-400' is below the smallest "
                                     "positive double"),
                          ("2.5E-999", "p2 '2.5E-999' is below the smallest "
                                       "positive double")):
        table = read_pvalue_table(io.StringIO(f"id,p1,p2\na,0.5,{cell}\n"))
        with pytest.raises(DatasetError) as info:
            validate_dataset(table, config)
        assert str(info.value) == f"line 2: feature 'a': {message}"
        with pytest.raises(DatasetError, match="is not positive"):
            validate_dataset(table.records, config)


def test_nan_pvalue_has_its_own_message():
    config = AnalysisConfig(m=10)
    with pytest.raises(DatasetError, match="p2 is NaN") as info:
        validate_dataset(_records([(0.5, float("nan"))]), config)
    assert "not positive" not in str(info.value)


def test_clamp_zero_opt_in():
    # a zero and a cell that underflows to 0 alike
    for cell in ("0", "1e-400"):
        text = f"id\tp1\tp2\na\t{cell}\t0.5\n"
        table = read_pvalue_table(io.StringIO(text), clamp_zero=1e-300)
        ds = validate_dataset(table.records, AnalysisConfig(m=10))
        assert ds.records[0].p1 == 1e-300
        assert ds.records[0].p2 == 0.5


def test_r1_exceeds_m():
    config = AnalysisConfig(m=3)
    with pytest.raises(DatasetError,
                       match="^5 features followed up but m=3$"):
        validate_dataset(_records([(0.1, 0.1)] * 5), config)


def test_pvalue_above_one_and_duplicates():
    config = AnalysisConfig(m=10)
    with pytest.raises(DatasetError, match="p1=1.2 exceeds 1"):
        validate_dataset(_records([(1.2, 0.1)]), config)
    recs = [FeatureRecord("same", 0.1, 0.1), FeatureRecord("same", 0.2, 0.2)]
    with pytest.raises(DatasetError, match="id 'same' appears twice"):
        validate_dataset(recs, config)


def test_validation_is_idempotent():
    config = AnalysisConfig(m=10)
    ds = validate_dataset(_records([(0.1, 0.2), (0.3, 0.4)]), config)
    assert validate_dataset(ds.records, config) == ds
    # the table path and the record path give equal datasets
    p1, p2, m = make_random_dataset(np.random.default_rng(5))
    ds, config = dataset_from_arrays(p1, p2, m)
    assert validate_dataset(_records(zip(p1.tolist(), p2.tolist())),
                            config) == ds


def test_validated_dataset_is_immutable():
    config = AnalysisConfig(m=10)
    ds = validate_dataset(_records([(0.1, 0.2)]), config)
    # a field of a value class cannot be set: AttributeError
    with pytest.raises(AttributeError):
        ds.records = ()
    with pytest.raises(AttributeError):
        ds.records[0].p1 = 0.5


def test_dataset_columns_cannot_change():
    ds = validate_dataset(_records([(0.1, 0.2)]), AnalysisConfig(m=10))
    for name in ("ids", "p1", "p2"):
        with pytest.raises(AttributeError):
            setattr(ds, name, None)
        with pytest.raises(AttributeError):
            delattr(ds, name)
    with pytest.raises(ValueError, match="read-only"):
        ds.p1[0] = 0.5
    assert ds.p1[0] == 0.1 and ds.ids == ("f0",)


def test_a_copied_config_is_checked_too():
    config = AnalysisConfig(m=10, l00=0.5, t=0.25)
    assert config._replace(m=20) == AnalysisConfig(m=20, l00=0.5, t=0.25)
    assert config._replace(m=20) != config
    with pytest.raises(ValueError, match="l00 must lie in"):
        config._replace(l00=1.0)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        config._replace(m=0)
    with pytest.raises(AttributeError):
        config.l00 = 1.0


def _values():
    """One value of each value class whose fields all pickle (not
    ``rvalue._Procedure``, whose fields are closures)."""
    table = read_pvalue_table(io.StringIO("id,p1,p2,note\na,0.01,0.2,x\n"
                                          "b,0.02,0.3\n"))
    scenario = SimulationScenario(pi1=0.8, pi2=0.8, seed=3, reps=4,
                                  scenario_id="cell")
    return {
        "config": AnalysisConfig(m=10, l00=0.5, c2=0.25, t=0.5),
        "record": FeatureRecord("f0", 0.1, 0.2),
        "dataset": validate_dataset(table, AnalysisConfig(m=10)),
        "table": table,
        "scenario": scenario,
        "metrics": estimate(scenario),
    }


@pytest.mark.parametrize("name", list(_values()))
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_every_value_class_pickles_and_copies(name, how):
    value = _values()[name]
    copied = {"pickle": lambda v: pickle.loads(pickle.dumps(v)),
              "copy": copy.copy, "deepcopy": copy.deepcopy}[how](value)
    assert type(copied) is type(value)
    assert copied == value
    assert repr(copied) == repr(value)
    # a copy hashes as its original does; a table has no hash
    if name == "table":
        with pytest.raises(TypeError, match="unhashable"):
            hash(copied)
    else:
        assert hash(copied) == hash(value)
    # a value of another type is never equal
    assert not value == object() and value != object()
    # rebuilt through the constructor: the columns are read-only again
    for column in ("p1", "p2"):
        if isinstance(getattr(value, column, None), np.ndarray):
            assert not getattr(copied, column).flags.writeable


def test_a_copy_that_breaks_a_check_raises_the_constructors_error():
    scenario = _values()["scenario"]
    with pytest.raises(ValueError, match="reps must be >= 1, got 0"):
        scenario._replace(reps=0)
    with pytest.raises(ValueError, match="scenario_id"):
        scenario._replace(scenario_id="a,b")
    with pytest.raises(AttributeError):
        scenario.reps = 0


def test_config_bounds():
    with pytest.raises(ValueError):
        AnalysisConfig(m=0)
    with pytest.raises(ValueError):
        AnalysisConfig(m=10, l00=1.0)
    with pytest.raises(ValueError):
        AnalysisConfig(m=10, l00=-0.1)
    with pytest.raises(ValueError):
        AnalysisConfig(m=10, c2=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(m=10, c2=1.0)
    with pytest.raises(ValueError):
        AnalysisConfig(m=10, t=0.0)
    AnalysisConfig(m=10, l00=0.0, c2=0.5, t=0.25)


def test_read_tsv_and_csv_with_scientific_notation(tmp_path):
    tsv = tmp_path / "x.tsv"
    tsv.write_text("id\tp1\tp2\textra\na\t8.19e-08\t8.57e-14\tkeepme\n")
    table = read_pvalue_table(tsv)
    assert table.delimiter == "\t"
    assert table.records[0].p1 == 8.19e-08
    assert table.cells[0][table.fieldnames.index("extra")] == "keepme"

    csvfile = tmp_path / "x.csv"
    csvfile.write_text("id,p1,p2\na,0.5,1\n")
    table = read_pvalue_table(csvfile)
    assert table.delimiter == ","
    assert table.records[0].p2 == 1.0
    # the columns a short row lacks read as None, and no more cells
    table = read_pvalue_table(io.StringIO("id,p1,p2,gene,note\na,0.5,1\n"
                                          "b,0.1,0.2,TNF\n"))
    assert table.cells == [["a", "0.5", "1", None, None],
                           ["b", "0.1", "0.2", "TNF", None]]


def test_read_reports_line_numbers():
    stream = io.StringIO("id\tp1\tp2\na\t0.1\t0.2\nb\tnot-a-number\t0.2\n")
    with pytest.raises(DatasetError) as exc:
        read_pvalue_table(stream)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)
    # blank lines and quoted line breaks count as lines
    stream = io.StringIO('id,p1,p2\n\n"a\nb",0.1,0.2\n\nc,x,0.2\n')
    with pytest.raises(DatasetError) as exc:
        read_pvalue_table(stream)
    assert exc.value.line == 6


def test_read_rejects_rows_longer_than_the_header(tmp_path, capsys):
    with pytest.raises(DatasetError) as exc:
        read_pvalue_table(
            io.StringIO("id,p1,p2\na,0.1,0.2\nb,0.1,0.2,extra\n"))
    assert exc.value.line == 3
    assert "1 cell(s) more than the header" in str(exc.value)
    path = tmp_path / "long.csv"
    path.write_text("id,p1,p2\n\na,0.1,0.2,extra\n")
    assert main(["rvalues", str(path), "--m", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "line 3: row has 1 cell(s) more" in err


def test_rows_the_csv_module_cannot_parse_are_data_errors(tmp_path, capsys):
    # a cell over the csv module's field size limit, on line 3
    path = tmp_path / "big.csv"
    path.write_text("id,p1,p2\na,0.1,0.2\n" + "x" * 200_000 + ",0.1,0.2\n")
    with pytest.raises(DatasetError) as exc:
        read_pvalue_table(path)
    assert exc.value.line == 3
    assert main(["rvalues", str(path), "--m", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == (f"repval rvalues: {path}: line 3: malformed row: field "
                   "larger than field limit (131072)\n")
    # a bare carriage return inside a row of a stream passed in (a file is
    # read with universal newlines, which turn it into a line break)
    stream = io.StringIO("id,p1,p2\na,0.1,0.2\nb\rc,0.1,0.2\n", newline="")
    with pytest.raises(DatasetError, match="line 3: malformed row: "
                                           "new-line character") as exc:
        read_pvalue_table(stream)
    assert exc.value.line == 3


def test_read_requires_columns():
    with pytest.raises(DatasetError):
        read_pvalue_table(io.StringIO("id\tpv1\tpv2\na\t0.1\t0.2\n"))
    with pytest.raises(DatasetError):
        read_pvalue_table(io.StringIO(""))


def test_read_rejects_a_column_named_twice():
    # DictReader would keep only the last cell of a repeated name, so p1
    # would be read from the fourth column and the first would be lost
    for header, named in (("id,p1,p2,p1", "'p1'"),
                          ("id,p1,p2,note,note", "'note'"),
                          ("id,p1,p2, note,p1,note", "'p1', 'note'"),
                          ("id,p1,p2,,", "''")):
        row = "a,0.01,0.2" + ",x" * (header.count(",") - 2)
        with pytest.raises(DatasetError) as exc:
            read_pvalue_table(io.StringIO(f"{header}\n{row}\n"))
        assert exc.value.line == 1
        assert f"line 1: repeated column(s) {named}; header was" in str(
            exc.value)


def test_header_spaces_tolerated():
    table = read_pvalue_table(io.StringIO("id, p1, p2\na, 0.1, 0.2\n"))
    assert table.records[0] == FeatureRecord("a", 0.1, 0.2)


def test_byte_order_mark_is_skipped(tmp_path):
    text = "\ufeffid\tp1\tp2\na\t0.1\t0.2\n"
    path = tmp_path / "bom.tsv"
    path.write_text(text, encoding="utf-8")
    for source in (path, io.StringIO(text)):
        table = read_pvalue_table(source)
        assert table.fieldnames == ["id", "p1", "p2"]
        assert table.records == [FeatureRecord("a", 0.1, 0.2)]


def test_validate_uses_source_lines():
    stream = io.StringIO("id\tp1\tp2\na\t0.1\t0.2\nb\t0.0\t0.2\n")
    table = read_pvalue_table(stream)
    config = AnalysisConfig(m=5)
    with pytest.raises(DatasetError, match="not positive") as exc:
        validate_dataset(table.records, config,
                         source_lines=table.source_lines)
    assert exc.value.line == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=1e-12, max_value=1.0),
    st.floats(min_value=1e-12, max_value=1.0)), min_size=0, max_size=12))
def test_validate_accepts_any_legal_pairs(pairs):
    config = AnalysisConfig(m=20)
    ds = validate_dataset(_records(pairs), config)
    assert len(ds) == len(pairs)
    assert np.all(ds.p1 > 0) and np.all(ds.p2 <= 1.0)


# p-values that fail (and two edges that pass) mixed into random tables
_ODD_PVALUES = (float("nan"), 0.0, -0.0, -0.1, 1.5, math.inf, 1.0, 5e-324)


def _random_records(rng):
    r1 = int(rng.integers(0, 10))
    pool = int(rng.integers(1, 4 * r1 + 2))  # small pools repeat ids

    def p():
        if rng.random() < 0.08:
            return float(rng.choice(_ODD_PVALUES))
        return float(rng.uniform(1e-6, 1.0))
    return [FeatureRecord(f"f{rng.integers(pool)}", p(), p())
            for _ in range(r1)]


_FAULTS = ("is NaN", "is not positive", "exceeds 1", "appears twice",
           "followed up but m", "above the selection threshold")


def _outcome(validate, records, config, **kw):
    """The validated records, or the error's text and line."""
    try:
        result = validate(records, config, **kw)
    except DatasetError as exc:
        return str(exc), exc.line
    return "valid", tuple(getattr(result, "records", result))


def test_validator_matches_the_record_loop():
    # record sequences with and without source lines, and the same rows
    # read from a table, against the reference's per-record loop
    rng = np.random.default_rng(25)
    kinds, two_faults = Counter(), 0
    for _ in range(300):
        records = _random_records(rng)
        r1 = len(records)
        # t is at times the largest p1 below 1: a p1 equal to t passes
        top = max((r.p1 for r in records if 0.0 < r.p1 < 1.0), default=0.5)
        config = AnalysisConfig(m=int(rng.integers(max(r1 - 2, 1), r1 + 4)),
                                t=[None, 0.5, 0.99, top][rng.integers(4)])
        lines = sorted(rng.choice(1000, r1, replace=False).tolist())
        for kw in ({}, {"source_lines": lines}):
            assert _outcome(validate_dataset, records, config, **kw) == \
                _outcome(oracle_validate_dataset, records, config, **kw), \
                (records, config, kw)
        # the same rows as a file, with blank lines between some
        text = "id,p1,p2\n" + "".join(
            "\n" * int(rng.integers(2)) + f"{r.id},{r.p1!r},{r.p2!r}\n"
            for r in records)
        table = read_pvalue_table(io.StringIO(text))
        want = _outcome(oracle_validate_dataset, table.records, config,
                        source_lines=table.source_lines)
        assert _outcome(validate_dataset, table, config) == want, text
        kinds[next((k for k in _FAULTS if k in want[0]), want[0])] += 1
        ids = [r.id for r in records]
        two_faults += any(
            (not 0.0 < r.p1 <= 1.0) + (not 0.0 < r.p2 <= 1.0)
            + (r.id in ids[:i]) >= 2 for i, r in enumerate(records))
    assert set(kinds) == {"valid", *_FAULTS}, kinds
    assert two_faults >= 10
