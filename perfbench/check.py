"""Correctness checks on the text the ``repval`` CLI prints.

Every check takes parsed rows (one dict per data row, keyed by column name)
and returns a list of error strings; an empty list means the output passed.
Values are compared at the precision they were printed with, so a later
version that prints more digits or adds columns still passes.
"""

from __future__ import annotations

import math
from typing import Optional

# Published r-values of the bundled tables, as printed in the source papers
# (the same constants the unit tests pin). IgA: four decimals, by l00, for
# the seven headline SNPs; every other IgA row has r = 1.
IGA_HEADLINE = ("chr6:32685358", "chr8:6810195", "chr6:32779226",
                "chr22:28753460", "chr6:30049922", "chr17:7403693",
                "chr17:7431901")
IGA_PUBLISHED = {
    0.0: ("0.0243", "0.0409", "0.0224", "0.0409", "0.0224", "0.1907",
          "0.0819"),
    0.5: ("0.0150", "0.0207", "0.0147", "0.0207", "0.0150", "0.1001",
          "0.0418"),
    0.8: ("0.0074", "0.0090", "0.0059", "0.0090", "0.0090", "0.0413",
          "0.0169"),
}
# IgA after --refine-q 0.05 at l00 = 0.8, three decimals.
IGA_REFINED_PUBLISHED = ("0.005", "0.008", "0.005", "0.008", "0.005",
                         "0.041", "0.017")
# T2D at l00 = 0: three significant digits.
T2D_IDS = ("chr7:27953796", "chr10:12368016", "chr12:69949369",
           "chr2:43644474", "chr3:64686944", "chr1:120230001",
           "chr12:53385263", "chr3:12252845", "chr1:120149926",
           "chr6:43919740", "chr2:60581582")
T2D_PUBLISHED = ("0.0055", "0.0055", "0.1490", "0.0441", "0.0254", "0.0604",
                 "0.0604", "0.0765", "0.0431", "0.2090", "1.0000")
T2D_SIG_DIGITS = 3
# TPP Bonferroni at l00 = 0.8: two significant digits.
TPP_IDS = ("chr17:65837933", "chr17:65818432", "chr17:65799923",
           "chr17:65778654")
TPP_PUBLISHED = ("0.00012", "0.00059", "0.00058", "0.00360")
TPP_SIG_DIGITS = 2


def parse_rows(text: str, delimiter: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    if not lines:
        return []
    header = lines[0].split(delimiter)
    return [dict(zip(header, line.split(delimiter))) for line in lines[1:]]


def half_unit(printed: str) -> float:
    """Half a unit in the last place of a printed decimal number."""
    mantissa, _, exponent = printed.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 0.5 * 10.0 ** (-decimals + (int(exponent) if exponent else 0))


def half_unit_sig(value: float, digits: int) -> float:
    """Half a unit in the last of ``digits`` significant digits."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1)


def _number(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: str, b: str, extra: float = 0.0) -> bool:
    """Printed numbers a and b can stem from the same true value."""
    return (abs(float(a) - float(b))
            <= half_unit(a) + half_unit(b) + extra + 1e-12)


def check_rvalues(rows: list[dict[str, str]], q: float) -> list[str]:
    """r in [0, 1]; ``replicated`` is yes when r < q and no when r > q. A
    printed r that equals q at its precision is ambiguous and passes."""
    errors = []
    if not rows:
        return ["no data rows"]
    for row in rows:
        cell = row.get("r_value", "")
        r = _number(cell)
        if r is None or not 0.0 <= r <= 1.0:
            errors.append(f"{row.get('id')}: r_value {cell!r} not in [0, 1]")
            continue
        if "replicated" not in row:
            continue
        flag = row["replicated"]
        if flag not in ("yes", "no"):
            errors.append(f"{row['id']}: replicated {flag!r}")
        elif abs(r - q) <= half_unit(cell):
            continue
        elif (flag == "yes") != (r < q):
            errors.append(f"{row['id']}: r_value {cell} but replicated "
                          f"{flag} at q={q}")
    return errors


def check_not_above(low: list[dict[str, str]], high: list[dict[str, str]],
                    label: str) -> list[str]:
    """Per feature id, the r-value in ``low`` is no larger than in ``high``."""
    high_r = {row["id"]: row["r_value"] for row in high}
    errors = []
    for row in low:
        other = high_r.get(row["id"])
        if other is None:
            errors.append(f"{row['id']}: missing from {label}")
        elif float(row["r_value"]) > (float(other) + half_unit(other)
                                      + half_unit(row["r_value"])):
            errors.append(f"{row['id']}: r_value {row['r_value']} above "
                          f"{label} {other}")
    return errors


def _check_expected(rows, expected: dict[str, str],
                    sig_digits: Optional[int]) -> list[str]:
    got = {row["id"]: row["r_value"] for row in rows}
    errors = []
    for fid, published in expected.items():
        cell = got.get(fid)
        if cell is None:
            errors.append(f"{fid}: missing")
            continue
        extra = (half_unit_sig(float(published), sig_digits)
                 - half_unit(published) if sig_digits else 0.0)
        if not _close(cell, published, extra):
            errors.append(f"{fid}: r_value {cell}, published {published}")
    return errors


def check_iga(rows, l00: float) -> list[str]:
    expected = dict(zip(IGA_HEADLINE, IGA_PUBLISHED[l00]))
    errors = _check_expected(rows, expected, None)
    for row in rows:
        if row["id"] not in expected and not _close(row["r_value"], "1.0000"):
            errors.append(f"{row['id']}: r_value {row['r_value']}, "
                          "published 1")
    return errors


def check_iga_refined(rows) -> list[str]:
    return _check_expected(
        rows, dict(zip(IGA_HEADLINE, IGA_REFINED_PUBLISHED)), None)


def check_t2d(rows) -> list[str]:
    return _check_expected(rows, dict(zip(T2D_IDS, T2D_PUBLISHED)),
                           T2D_SIG_DIGITS)


def check_tpp(rows) -> list[str]:
    return _check_expected(rows, dict(zip(TPP_IDS, TPP_PUBLISHED)),
                           TPP_SIG_DIGITS)


def check_simulation(rows, q: float) -> list[str]:
    """Estimated FDR stays within three Monte Carlo standard errors of q."""
    if not rows:
        return ["no data rows"]
    errors = []
    for row in rows:
        fdr, se = float(row["fdr_hat"]), float(row["se_fdr"])
        if fdr > q + 3.0 * se + half_unit(row["fdr_hat"]):
            errors.append(f"c2={row['c2']}: fdr_hat {row['fdr_hat']} above "
                          f"q + 3 se = {q + 3.0 * se:.6f}")
    return errors


def check_same(rows, reference, key: str, label: str) -> list[str]:
    """Every column the two outputs share holds the same value, at the
    coarser of the two printed precisions, row by row under ``key``."""
    ref = {row[key]: row for row in reference}
    if len(ref) != len(rows):
        return [f"{len(rows)} rows, {label} has {len(ref)}"]
    errors = []
    for row in rows:
        other = ref.get(row[key])
        if other is None:
            errors.append(f"{key}={row[key]}: missing from {label}")
            continue
        for col in row.keys() & other.keys():
            a, b = row[col], other[col]
            same = (_close(a, b) if _number(a) is not None
                    and _number(b) is not None else a == b)
            if not same:
                errors.append(f"{key}={row[key]}: {col} {a}, {label} {b}")
    return errors
