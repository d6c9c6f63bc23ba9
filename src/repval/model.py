"""Domain types, validation and p-value table ingestion.

A dataset is the set of features carried into the follow-up study, held as
columns: a tuple of ids and float64 arrays of their primary-study (p1) and
follow-up-study (p2) p-values, one entry per feature. The number of
features screened in the primary study (m) is typically far larger than
the number followed up (R1) and enters through :class:`AnalysisConfig`.
A table read from a file keeps the same columns, and each row's cells for
echoing them. The reader and the validator work on the columns and build
no object per row. ``records``, one :class:`FeatureRecord` per row, is
the only row view: it is built on each read and never stored. It and
:func:`validate_dataset`'s record sequences are kept only for
``perfbench/tracing.py`` and the record-path tests, until ROADMAP item 5
deletes them; both classes are public here, not in ``repval.__all__``.

Everything here is immutable after construction and safe to share across
threads: no field can be set after construction, and the p-value arrays
are read-only. Computations never mutate a dataset.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
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


class _Frozen:
    """Base of every value class of the package. The constructor sets the
    fields named in ``_fields``, and nothing can be set or deleted after
    it. Two values are equal when they are of one class with equal fields,
    arrays compared element by element, and are shown by their fields.
    ``_replace(**changes)``, :mod:`pickle` and :mod:`copy` (shallow or
    deep) rebuild a value through its constructor from its fields, so
    every copy is checked as the original was."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())),
                             **changes})

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(a is b or (np.array_equal(a, b)
                              if isinstance(a, np.ndarray) else a == b)
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class FeatureRecord(_Frozen):
    """One followed-up feature: primary (p1) and follow-up (p2) p-values."""

    __slots__ = _fields = ("id", "p1", "p2")

    def __init__(self, id: str, p1: float, p2: float):
        self._set(id=id, p1=p1, p2=p2)


class AnalysisConfig(_Frozen):
    """Global parameters of the analysis.

    m     -- number of features examined in the primary study
    l00   -- conservative lower bound on the fraction null in both studies
             (0.8 is a sensible default for whole-genome scans)
    c2    -- emphasis on the follow-up study; larger relaxes its threshold
    t     -- fixed selection threshold on primary p-values, needed by the
             threshold-dependent variant; when set, every p1 must be at
             most t (checked by :func:`validate_dataset`)

    Every value is checked on construction, and so on every copy made by
    ``_replace``, :mod:`pickle` or :mod:`copy`.
    """

    __slots__ = _fields = ("m", "l00", "c2", "t")

    def __init__(self, m: int, l00: float = 0.8, c2: float = 0.5,
                 t: Optional[float] = None):
        if not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"m must be a positive integer, got {m!r}")
        if not 0.0 <= l00 < 1.0:
            raise ValueError(f"l00 must lie in [0, 1), got {l00!r}")
        _check_unit("c2", c2)
        if t is not None:
            _check_unit("t", t)
        self._set(m=m, l00=l00, c2=c2, t=t)


def _read_only(p) -> np.ndarray:
    """``p`` as a float64 array (itself when it is one), made read-only."""
    p = np.asarray(p, dtype=float)
    p.flags.writeable = False
    return p


def _records(ids, p1: np.ndarray, p2: np.ndarray) -> list[FeatureRecord]:
    return list(map(FeatureRecord, ids, p1.tolist(), p2.tolist()))


class ValidatedDataset(_Frozen):
    """Columns that passed :func:`validate_dataset`: ``ids`` as a tuple and
    ``p1``, ``p2`` as float64 arrays, held as given and made read-only;
    R1 = len(dataset). ``records``, a tuple of one :class:`FeatureRecord`
    per feature, is built from the columns on each read."""

    __slots__ = _fields = ("ids", "p1", "p2")

    def __init__(self, ids: Iterable[str], p1, p2):
        self._set(ids=tuple(ids), p1=_read_only(p1), p2=_read_only(p2))

    def __len__(self) -> int:
        return len(self.ids)

    def __hash__(self) -> int:
        return hash(self.ids)

    @property
    def records(self) -> tuple[FeatureRecord, ...]:
        return tuple(_records(self.ids, self.p1, self.p2))

    def subset(self, keep) -> "ValidatedDataset":
        """The features at the indices ``keep``, an integer array, in its
        order."""
        keep = np.asarray(keep, dtype=np.intp)
        ids = self.ids
        return ValidatedDataset([ids[i] for i in keep.tolist()],
                                self.p1[keep], self.p2[keep])


def _row_fault(fid: str, p1: float, p2: float,
               written: Sequence[Optional[str]] = (None, None)) -> str:
    """Why the row (fid, p1, p2) fails, in the order the rows are checked:
    p1 (NaN, not above 0, above 1), then p2; a repeated id when neither
    p-value fails. ``written`` holds the p1 and p2 cells as read, when
    known: a 0.0 read from a cell with a nonzero digit before its exponent
    underflowed, and its message quotes the cell."""
    for name, p, cell in (("p1", p1, written[0]), ("p2", p2, written[1])):
        if math.isnan(p):
            return f"feature {fid!r}: {name} is NaN, not a p-value"
        if p == 0.0 and cell and any(
                c in "123456789" for c in cell.lower().partition("e")[0]):
            return (f"feature {fid!r}: {name} {cell!r} is below the "
                    "smallest positive double")
        if not p > 0.0:
            return f"feature {fid!r}: {name}={p} is not positive"
        if p > 1.0:
            return f"feature {fid!r}: {name}={p} exceeds 1"
    return f"feature id {fid!r} appears twice"


def validate_dataset(
    records: Sequence[FeatureRecord] | PValueTable,
    config: AnalysisConfig,
    *,
    source_lines: Optional[Sequence[int]] = None,
) -> ValidatedDataset:
    """Check invariants and freeze the dataset.

    ``records`` is a sequence of :class:`FeatureRecord`, or a
    :class:`PValueTable`, whose columns are checked as they were read and
    whose own source lines are used.
    Raises :class:`DatasetError` for the first row with a NaN, a p-value
    not above 0 or above 1, or an id seen in an earlier row (p1 is checked
    before p2, and both before the id); then for more rows than
    ``config.m``; then, when ``config.t`` is set, for the first row whose
    p1 is above t. p-values of exactly 0 signal a corrupt export and are
    rejected, never clamped silently; ``read_pvalue_table(clamp_zero=)``
    opts in to replacing them in dirty real-world exports.
    ``source_lines`` attaches file line numbers to error messages, which
    quote the p-values from the float64 columns; for a table, a p-value
    that underflowed to 0 is quoted as its cell was written.
    """
    if isinstance(records, PValueTable):
        ids, p1, p2 = records.ids, records.p1, records.p2
        source_lines = records.source_lines
    else:
        ids = tuple(rec.id for rec in records)
        p1 = np.array([rec.p1 for rec in records], dtype=float)
        p2 = np.array([rec.p2 for rec in records], dtype=float)
    lines = [None] * len(ids) if source_lines is None else source_lines

    # the first row with a p-value outside (0, 1] (NaN too) or a repeat
    valid = (p1 > 0.0) & (p1 <= 1.0) & (p2 > 0.0) & (p2 <= 1.0)
    first = len(ids) if valid.all() else int(valid.argmin())
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for i, fid in enumerate(ids[:first]):
            if fid in seen:
                first = i
                break
            seen.add(fid)
    if first < len(ids):
        written = (None, None)
        if isinstance(records, PValueTable):
            row = records.cells[first]
            written = [row[records.fieldnames.index(c)] for c in ("p1", "p2")]
        raise DatasetError(_row_fault(ids[first], p1[first], p2[first],
                                      written), lines[first])

    if len(ids) > config.m:
        raise DatasetError(f"{len(ids)} features followed up but m={config.m}")
    above = [] if config.t is None else np.flatnonzero(p1 > config.t)
    if len(above):
        i = above[0]
        raise DatasetError(f"feature {ids[i]!r} has p1={p1[i]} above the "
                           f"selection threshold t={config.t}", lines[i])
    return ValidatedDataset(ids, p1, p2)


# --- file ingestion -------------------------------------------------------

_REQUIRED_COLUMNS = ("id", "p1", "p2")


class PValueTable(_Frozen):
    """A parsed table as columns: the header (``fieldnames``), each data
    row's stripped ``cells`` (a list as wide as the header, None for the
    columns a short row lacks) for echoing every column through the CLI,
    the ``ids``, float64 ``p1`` and ``p2``, the delimiter and each row's
    line in the source. ``records``, a list of one :class:`FeatureRecord`
    per row, is built from the columns on each read; there is no other row
    view."""

    __slots__ = _fields = ("fieldnames", "cells", "ids", "p1", "p2",
                           "delimiter", "source_lines")
    __hash__ = None

    def __init__(self, fieldnames: list[str], cells: list[list],
                 ids: tuple[str, ...], p1, p2, delimiter: str,
                 source_lines: list[int]):
        self._set(fieldnames=fieldnames, cells=cells, ids=ids,
                  p1=_read_only(p1), p2=_read_only(p2), delimiter=delimiter,
                  source_lines=source_lines)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def records(self) -> list[FeatureRecord]:
        return _records(self.ids, self.p1, self.p2)


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
    ``clamp_zero`` opts in to replacing p-values that read as 0 with the
    given epsilon, for dirty real-world exports: a zero and a cell below
    the smallest positive double (``1e-400``) alike.
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
    at_id, at_p1, at_p2 = map(fieldnames.index, _REQUIRED_COLUMNS)
    cells: list[list] = []
    ids: list[str] = []
    p1: list[float] = []
    p2: list[float] = []
    source_lines: list[int] = []
    for row in rows_in:
        if not row:  # a blank line
            continue
        lineno = reader.line_num  # the record's last line, blank lines counted
        if len(row) > width:
            raise DatasetError(f"row has {len(row) - width} cell(s) more "
                               "than the header", lineno)
        row = list(map(str.strip, row))
        if len(row) < width:  # the columns a short row lacks hold None
            row += [None] * (width - len(row))
        fid = row[at_id] or ""
        if not fid:
            raise DatasetError("empty feature id", lineno)
        try:
            p1.append(float(row[at_p1]))
            p2.append(float(row[at_p2]))
        except (TypeError, ValueError):
            raise DatasetError(
                f"could not parse p1/p2 for feature {fid!r}", lineno) from None
        cells.append(row)
        ids.append(fid)
        source_lines.append(lineno)
    p1_col, p2_col = np.array(p1, dtype=float), np.array(p2, dtype=float)
    if clamp_zero is not None:
        for p in (p1_col, p2_col):
            p[p == 0.0] = clamp_zero
    return PValueTable(fieldnames, cells, tuple(ids), p1_col, p2_col, delim,
                       source_lines)
