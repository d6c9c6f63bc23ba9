"""Domain types, validation and p-value table ingestion.

A dataset is the set of features carried into the follow-up study: one row
per feature with its primary-study and follow-up-study p-values. The number
of features screened in the primary study (m) is typically far larger than
the number followed up (R1) and enters through :class:`AnalysisConfig`.

Everything here is immutable after construction and safe to share across
threads; computations never mutate a dataset.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "FeatureRecord", "AnalysisConfig", "ValidatedDataset", "validate_dataset",
    "read_pvalue_table", "PValueTable", "DatasetError",
]


class DatasetError(ValueError):
    """Invalid input data: an unreadable table, a p-value outside (0, 1], a
    repeated feature id, more features followed up than m, or a primary
    p-value above the declared selection threshold. ``line`` is the 1-based
    line in the source file, or None when the records did not come with
    line numbers or no one line is at fault."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        base = super().__str__()
        return f"line {self.line}: {base}" if self.line is not None else base


def _check_unit(name: str, value: float) -> None:
    """ValueError unless 0 < value < 1; NaN fails too."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


@dataclass(frozen=True)
class FeatureRecord:
    """One followed-up feature: primary (p1) and follow-up (p2) p-values."""

    id: str
    p1: float
    p2: float


@dataclass(frozen=True)
class AnalysisConfig:
    """Global parameters of the analysis.

    m     -- number of features examined in the primary study
    l00   -- conservative lower bound on the fraction null in both studies
             (0.8 is a sensible default for whole-genome scans)
    c2    -- emphasis on the follow-up study; larger relaxes its threshold
    t     -- fixed selection threshold on primary p-values, needed by the
             threshold-dependent variant; when set, every p1 must be at
             most t (checked by :func:`validate_dataset`)
    """

    m: int
    l00: float = 0.8
    c2: float = 0.5
    t: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not 0.0 <= self.l00 < 1.0:
            raise ValueError(f"l00 must lie in [0, 1), got {self.l00!r}")
        _check_unit("c2", self.c2)
        if self.t is not None:
            _check_unit("t", self.t)


@dataclass(frozen=True)
class ValidatedDataset:
    """Records that passed :func:`validate_dataset`; R1 = len(dataset)."""

    records: tuple[FeatureRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.records)

    @cached_property
    def p1(self) -> np.ndarray:
        return np.array([r.p1 for r in self.records], dtype=float)

    @cached_property
    def p2(self) -> np.ndarray:
        return np.array([r.p2 for r in self.records], dtype=float)

    def subset(self, keep: Iterable[int]) -> "ValidatedDataset":
        return ValidatedDataset(tuple(self.records[i] for i in keep))


def validate_dataset(
    records: Sequence[FeatureRecord],
    config: AnalysisConfig,
    *,
    source_lines: Optional[Sequence[int]] = None,
) -> ValidatedDataset:
    """Check invariants and freeze the dataset.

    Raises :class:`DatasetError` for a NaN, a p-value not above 0 or above
    1, a repeated id, more records than ``config.m``, or, when ``config.t``
    is set, the first record whose p1 is above t. p-values of
    exactly 0 signal a corrupt export and are rejected, never clamped
    silently; ``read_pvalue_table(clamp_zero=)`` opts in to replacing them
    in dirty real-world exports.
    ``source_lines`` attaches file line numbers to error messages.
    """
    seen: set[str] = set()
    for idx, rec in enumerate(records):
        line = source_lines[idx] if source_lines is not None else None
        for name, p in (("p1", rec.p1), ("p2", rec.p2)):
            if math.isnan(p):
                raise DatasetError(
                    f"feature {rec.id!r}: {name} is NaN, not a p-value", line)
            if not p > 0.0:
                raise DatasetError(
                    f"feature {rec.id!r}: {name}={p} is not positive", line)
            if p > 1.0:
                raise DatasetError(
                    f"feature {rec.id!r}: {name}={p} exceeds 1", line)
        if rec.id in seen:
            raise DatasetError(f"feature id {rec.id!r} appears twice", line)
        seen.add(rec.id)

    if len(records) > config.m:
        raise DatasetError(
            f"{len(records)} features followed up but m={config.m}")
    dataset = ValidatedDataset(tuple(records))
    above = [] if config.t is None else np.flatnonzero(dataset.p1 > config.t)
    if len(above):
        rec, line = records[above[0]], None
        if source_lines is not None:
            line = source_lines[above[0]]
        raise DatasetError(f"feature {rec.id!r} has p1={rec.p1} above the "
                           f"selection threshold t={config.t}", line)
    return dataset


# --- file ingestion -------------------------------------------------------

_REQUIRED_COLUMNS = ("id", "p1", "p2")


@dataclass
class PValueTable:
    """Raw parsed table: original header/rows (for echoing extra columns
    through the CLI) plus typed records."""

    fieldnames: list[str]
    rows: list[dict[str, Optional[str]]]
    records: list[FeatureRecord]
    delimiter: str
    source_lines: list[int]


def _read_text(source) -> str:
    """The whole text of ``source``, a path to a UTF-8 file or an open text
    stream, without one leading byte-order mark. Undecodable bytes are a
    :class:`DatasetError`."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DatasetError(f"not UTF-8 text: byte 0x{byte:02x} cannot be "
                           "decoded") from None
    return text.removeprefix("\ufeff")


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def _cells(reader) -> Iterable[list[str]]:
    """The rows of a ``csv.reader``; a row it cannot parse (a cell over the
    csv module's field size limit, a bare carriage return in a stream
    passed in) is a :class:`DatasetError` at its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"malformed row: {exc}", reader.line_num) from None


def read_pvalue_table(source, *, clamp_zero: Optional[float] = None) -> PValueTable:
    """Parse a UTF-8 TSV/CSV with header ``id, p1, p2`` (extra columns kept).

    ``source`` is a path or an open text stream. One leading byte-order
    mark is skipped; a header that names a column twice, a row with more
    cells than the header, and a row the csv module cannot parse are
    errors (:class:`DatasetError`). The columns a shorter row lacks read
    as None. Blank lines are skipped.
    Scientific notation is accepted; numbers are stored as float64 while
    the original strings are retained for round-tripping.
    ``clamp_zero`` opts in to replacing p-values that are exactly 0 with the
    given epsilon, for dirty real-world exports.
    """
    stream = io.StringIO(_read_text(source))
    first = stream.readline()
    if not first.strip():
        raise DatasetError("empty input table", 1)
    delim = _sniff_delimiter(first)
    stream.seek(0)
    reader = csv.reader(stream, delimiter=delim, skipinitialspace=True)
    rows_in = _cells(reader)
    fieldnames = [name.strip() for name in next(rows_in, [])]
    counts = Counter(fieldnames)
    repeated = ", ".join(repr(c) for c in counts if counts[c] > 1)
    if repeated:  # a row's dict would keep only the last cell of each
        raise DatasetError(f"repeated column(s) {repeated}; header was "
                           f"{fieldnames}", 1)
    missing = [c for c in _REQUIRED_COLUMNS if c not in fieldnames]
    if missing:
        raise DatasetError(
            f"missing required column(s) {', '.join(missing)}; "
            f"header was {fieldnames}", 1)

    width = len(fieldnames)
    rows: list[dict[str, Optional[str]]] = []
    records: list[FeatureRecord] = []
    source_lines: list[int] = []
    for cells in rows_in:
        if not cells:  # a blank line
            continue
        lineno = reader.line_num  # the record's last line, blank lines counted
        if len(cells) > width:
            raise DatasetError(f"row has {len(cells) - width} cell(s) more "
                               "than the header", lineno)
        row = dict(zip(fieldnames, map(str.strip, cells)))
        if len(cells) < width:  # the columns a short row lacks hold None
            row.update(dict.fromkeys(fieldnames[len(cells):]))
        fid = row["id"] or ""
        if not fid:
            raise DatasetError("empty feature id", lineno)
        try:
            p1 = float(row["p1"])
            p2 = float(row["p2"])
        except (TypeError, ValueError):
            raise DatasetError(
                f"could not parse p1/p2 for feature {fid!r}", lineno) from None
        if clamp_zero is not None:
            p1 = clamp_zero if p1 == 0.0 else p1
            p2 = clamp_zero if p2 == 0.0 else p2
        rows.append(row)
        records.append(FeatureRecord(fid, p1, p2))
        source_lines.append(lineno)
    return PValueTable(fieldnames, rows, records, delim, source_lines)
