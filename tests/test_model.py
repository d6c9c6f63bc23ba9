import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repval import (AnalysisConfig, DatasetError, DuplicateId, FeatureRecord,
                    NonPositivePValue, PValueAboveOne, R1ExceedsM,
                    read_pvalue_table, validate_dataset)

from conftest import IGA_M


def _records(pairs):
    return [FeatureRecord(f"f{i}", a, b) for i, (a, b) in enumerate(pairs)]


def test_iga_dataset_validates(iga_table):
    config = AnalysisConfig(m=IGA_M)
    ds = validate_dataset(iga_table.records, config)
    assert len(ds) == 61


def test_zero_pvalue_rejected():
    config = AnalysisConfig(m=10)
    with pytest.raises(NonPositivePValue):
        validate_dataset(_records([(0.0, 0.5)]), config)
    with pytest.raises(NonPositivePValue):
        validate_dataset(_records([(0.5, 0.0)]), config)


def test_nan_pvalue_has_its_own_message():
    config = AnalysisConfig(m=10)
    with pytest.raises(DatasetError, match="p2 is NaN") as info:
        validate_dataset(_records([(0.5, float("nan"))]), config)
    assert "not positive" not in str(info.value)


def test_clamp_zero_opt_in():
    text = "id\tp1\tp2\na\t0\t0.5\n"
    table = read_pvalue_table(io.StringIO(text), clamp_zero=1e-300)
    ds = validate_dataset(table.records, AnalysisConfig(m=10))
    assert ds.records[0].p1 == 1e-300
    assert ds.records[0].p2 == 0.5


def test_r1_exceeds_m():
    config = AnalysisConfig(m=3)
    with pytest.raises(R1ExceedsM):
        validate_dataset(_records([(0.1, 0.1)] * 5), config)


def test_pvalue_above_one_and_duplicates():
    config = AnalysisConfig(m=10)
    with pytest.raises(PValueAboveOne):
        validate_dataset(_records([(1.2, 0.1)]), config)
    recs = [FeatureRecord("same", 0.1, 0.1), FeatureRecord("same", 0.2, 0.2)]
    with pytest.raises(DuplicateId):
        validate_dataset(recs, config)


def test_validation_is_idempotent():
    config = AnalysisConfig(m=10)
    ds = validate_dataset(_records([(0.1, 0.2), (0.3, 0.4)]), config)
    assert validate_dataset(ds.records, config) == ds


def test_validated_dataset_is_immutable():
    config = AnalysisConfig(m=10)
    ds = validate_dataset(_records([(0.1, 0.2)]), config)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.records = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.records[0].p1 = 0.5


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
    assert table.rows[0]["extra"] == "keepme"

    csvfile = tmp_path / "x.csv"
    csvfile.write_text("id,p1,p2\na,0.5,1\n")
    table = read_pvalue_table(csvfile)
    assert table.delimiter == ","
    assert table.records[0].p2 == 1.0


def test_read_reports_line_numbers():
    stream = io.StringIO("id\tp1\tp2\na\t0.1\t0.2\nb\tnot-a-number\t0.2\n")
    with pytest.raises(DatasetError) as exc:
        read_pvalue_table(stream)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_read_requires_columns():
    with pytest.raises(DatasetError):
        read_pvalue_table(io.StringIO("id\tpv1\tpv2\na\t0.1\t0.2\n"))
    with pytest.raises(DatasetError):
        read_pvalue_table(io.StringIO(""))


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
    with pytest.raises(NonPositivePValue) as exc:
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
