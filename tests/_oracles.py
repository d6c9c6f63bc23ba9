"""Independent brute-force reference implementations used to pin expected
values. Deliberately naive (plain loops, no shared code paths with the
package) so a defect in the library cannot hide in its own oracle. Two
exceptions: the r-value engine's reference evaluates a procedure's own
level function exactly on every cell, so it pins the engine's shortcuts bit
for bit, not the level function; the table reader's reference parses
rows its own way (``csv.DictReader``) but reads text and builds results with
the package's helpers and types; and the validator's reference raises the
package's ``DatasetError``."""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from fractions import Fraction

import numpy as np


def oracle_c1(x, l00, c2):
    return (1.0 - c2) / (1.0 - l00 * (1.0 - c2 * x))


def oracle_e_values(p1, p2, m, l00, c2, x):
    r1 = len(p1)
    c1x = oracle_c1(x, l00, c2)
    return [max(a / c1x, r1 * b / (m * c2)) for a, b in zip(p1, p2)]


def oracle_max_ranks(e):
    return [sum(1 for other in e if other <= ei) for ei in e]


def oracle_f(p1, p2, m, l00, c2, x, i):
    """Step-up-adjusted value by direct enumeration of all candidates."""
    e = oracle_e_values(p1, p2, m, l00, c2, x)
    ranks = oracle_max_ranks(e)
    return min(e[j] * m / ranks[j] for j in range(len(e)) if e[j] >= e[i])


def oracle_adjusted_capped(p1, p2, m, c2):
    """For l00 = 0 the r-value has a closed form: the adjusted e-value
    capped at one (no bisection anywhere in this path)."""
    e = oracle_e_values(p1, p2, m, 0.0, c2, 0.5)  # x is irrelevant at l00=0
    ranks = oracle_max_ranks(e)
    out = []
    for i in range(len(e)):
        adj = min(e[j] * m / ranks[j] for j in range(len(e)) if e[j] >= e[i])
        out.append(min(1.0, adj))
    return out


def oracle_step_up(p1, p2, m, l00, c2, q, c1_at_q=None, m_eff=None):
    """Largest self-consistent count by scanning r downward with direct
    threshold comparisons."""
    r1 = len(p1)
    if c1_at_q is None:
        c1_at_q = oracle_c1(q, l00, c2)
    if m_eff is None:
        m_eff = m
    best = 0
    for r in range(r1, 0, -1):
        cnt = sum(1 for a, b in zip(p1, p2)
                  if a <= r * c1_at_q * q / m_eff and b <= r * c2 * q / r1)
        if cnt == r:
            best = r
            break
    return {j for j, (a, b) in enumerate(zip(p1, p2))
            if a <= best * c1_at_q * q / m_eff and b <= best * c2 * q / r1}


BISECT_LO = 1e-12
BISECT_HI = 1.0 - 1e-12
BISECT_ITERATIONS = 80


def oracle_bisect(predicate):
    """Smallest x (to within 2^-80) where a monotone predicate turns true:
    1.0 if it never does on (0, 1), BISECT_LO if it already holds there."""
    hi = BISECT_HI
    if not predicate(hi):
        return 1.0
    lo = BISECT_LO
    if predicate(lo):
        return lo
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def oracle_rvalues_bisect(p1, p2, m_eff, c2, c1_fn):
    """r-values by bisecting, feature by feature, the lowest level at which
    the brute-force step-up rule rejects the feature; c1_fn(x) is the
    primary budget multiplier at level x."""
    out = []
    for i in range(len(p1)):
        def rejected(x, _i=i):
            return _i in oracle_step_up(p1, p2, None, None, c2, x,
                                        c1_at_q=c1_fn(x), m_eff=m_eff)
        out.append(oracle_bisect(rejected))
    return out


def oracle_bonferroni_bisect(p1, p2, m, l00, c2):
    """FWER r-values by bisecting max(m p1 / c1(x), R1 p2 / c2) <= x."""
    r1 = len(p1)
    return [oracle_bisect(
        lambda x, a=a, b=b: max(m * a / oracle_c1(x, l00, c2),
                                r1 * b / c2) <= x)
        for a, b in zip(p1, p2)]


def oracle_bh(pvalues, level, n=None):
    """Step-up BH by scanning k downward, over n hypotheses (default
    len(pvalues)) of which the ones not given are p = 1, materialised;
    the indices into ``pvalues`` it rejects. The bounds are k * (level / n),
    rounded as the package rounds them."""
    n = len(pvalues) if n is None else n
    p = list(pvalues) + [1.0] * (n - len(pvalues))
    order = sorted(range(n), key=lambda i: p[i])
    for k in range(n, 0, -1):
        if p[order[k - 1]] <= k * (level / n):
            return {i for i in order[:k] if i < len(pvalues)}
    return set()


def oracle_step_up_count(need):
    """R2 from need counts by scanning r downward for #{need <= r} == r,
    one count at a time."""
    for r in range(len(need), 0, -1):
        if sum(1 for x in need if x <= r) == r:
            return r
    return 0


def oracle_bonferroni(p1, p2, m, r1, l00, c2):
    """Fixed point of max(affine branch, constant branch) in closed form."""
    follow = r1 * p2 / c2
    intercept = m * p1 * (1.0 - l00) / (1.0 - c2)
    slope = m * p1 * l00 * c2 / (1.0 - c2)
    if slope >= 1.0:
        return 1.0
    primary_fix = intercept / (1.0 - slope)
    r = max(follow, primary_fix)
    return r if r < 1.0 else 1.0


def oracle_c1_tilde(x, t, m, l00, c2, k_max=200000):
    """Scan every regime k and keep the largest consistent candidate."""
    base = oracle_c1(x, l00, c2)
    best = None
    if math.ceil(t * m / (base * x) - 1.0) <= 0:
        best = base
    h = 0.0
    for k in range(1, k_max + 1):
        h += 1.0 / k
        a = base / (1.0 + h)
        if math.ceil(t * m / (a * x) - 1.0) == k:
            best = a if best is None else max(best, a)
    return best


def oracle_harmonic(n):
    return math.fsum(1.0 / i for i in range(1, n + 1))


def oracle_chi2_sf_4(x, steps=200000):
    """Survival of chi-square(4) by Simpson quadrature of the density on
    [x, x + 400] (the remainder beyond is below double precision)."""
    if x <= 0:
        return 1.0
    hi = x + 400.0
    h = (hi - x) / steps

    def pdf(v):
        return 0.25 * v * math.exp(-0.5 * v)

    acc = pdf(x) + pdf(hi)
    for i in range(1, steps):
        acc += pdf(x + i * h) * (4 if i % 2 else 2)
    return acc * h / 3.0


def signif(x, digits):
    """Round to a number of significant digits (printed-table precision)."""
    if x == 0:
        return 0.0
    exponent = math.floor(math.log10(abs(x)))
    return round(x, -exponent + digits - 1)


def spearman(a, b):
    """Rank correlation with average ranks for ties; no external stats."""
    def avg_ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        ranks = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            mean_rank = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                ranks[order[k]] = mean_rank
            i = j + 1
        return ranks

    ra, rb = avg_ranks(a), avg_ranks(b)
    n = len(ra)
    ma = sum(ra) / n
    mb = sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = math.sqrt(sum((x - ma) ** 2 for x in ra))
    vb = math.sqrt(sum((y - mb) ** 2 for y in rb))
    return cov / (va * vb)


def oracle_smallest_reaching(level, a, floor):
    """Elementwise the smallest double x in [floor, 1) with level(x) >= a,
    and 1 where there is none, by bisecting the whole range of bit patterns
    of nonnegative doubles for every element."""
    lo = np.full(len(a), np.float64(floor).view(np.int64) - 1)
    hi = np.full(len(a), np.float64(1.0).view(np.int64))
    while (hi - lo > 1).any():
        mid = (lo + hi + 1) // 2
        reached = level(mid.view(np.float64)) >= a
        hi, lo = np.where(reached, mid, hi), np.where(reached, lo, mid)
    return hi.view(np.float64)


def oracle_exact_rvalues(proc, p1, p2):
    """r-values by the min-max formula, one count at a time with the exact
    entry level A_j(r) = proc.level(v_j / r, u_j / r) on every feature:
    b_j = min over r of max(A_j(r), T(r)), T(r) the r-th smallest A(r),
    inverted by full-range bisection."""
    r1 = len(p1)
    u, v = p1 * proc.m_eff, p2 * r1 / proc.c2
    best = np.full(r1, np.inf)
    for r in range(1, r1 + 1):
        a = proc.level(v / float(r), u / float(r))
        best = np.minimum(best, np.maximum(a, np.partition(a, r - 1)[r - 1]))
    return oracle_smallest_reaching(proc.level, best, proc.floor)


def _rational_level(l00, c2):
    """G(x) = (1 - c2) x / ((1 - l00) + l00 c2 x) below 1 in Fractions, and
    its inverse rounded up to a double (1 where no x below 1 reaches b)."""
    l00, c2 = Fraction(l00), Fraction(c2)

    def level(x):
        return (1 - c2) * x / ((1 - l00) + l00 * c2 * x)

    def rvalue(b):
        if b >= level(Fraction(1)):
            return 1.0
        x = (1 - l00) * b / ((1 - c2) - l00 * c2 * b)
        up = float(x)  # correctly rounded; step up where it fell below
        return up if Fraction(up) >= x else math.nextafter(up, 2.0)

    return level, rvalue


def oracle_fdr_rvalues_rational(p1, p2, m, l00, c2):
    """``fdr`` r-values in exact rational arithmetic on the given doubles,
    each rounded up to a double: with u = p1 * m, v = p2 * R1 / c2 and
    G(x) = (1 - c2) x / ((1 - l00) + l00 c2 x) below 1 (inf from 1 on),
    A_j(r) = max(u_j / r, G(v_j / r)), T(r) the r-th smallest A(r),
    b_i = min over r of max(A_i(r), T(r)) and r_i = G^-1(b_i); 1 where no
    x below 1 reaches b_i. O(R1^3) Fraction operations. General-dep is the
    same with m = m * H_m, given as the engine's double."""
    level, rvalue = _rational_level(l00, c2)
    r1 = len(p1)
    u = [Fraction(a) * m for a in p1]
    v = [Fraction(b) * r1 / Fraction(c2) for b in p2]
    entry = [[max(u[j] / r, level(v[j] / r) if v[j] < r else math.inf)
              for j in range(r1)] for r in range(1, r1 + 1)]
    kth = [sorted(row)[r] for r, row in enumerate(entry)]
    return [rvalue(min(max(row[i], t) for row, t in zip(entry, kth)))
            for i in range(r1)]


def oracle_bonferroni_rvalues_rational(p1, p2, m, l00, c2):
    """Bonferroni r-values in exact rational arithmetic, the count-1 case
    of :func:`oracle_fdr_rvalues_rational`: b_j = max(u_j, G(v_j)), each
    r_j = G^-1(b_j) rounded up to a double."""
    level, rvalue = _rational_level(l00, c2)
    r1 = len(p1)
    out = []
    for a, b in zip(p1, p2):
        v = Fraction(b) * r1 / Fraction(c2)
        out.append(rvalue(max(Fraction(a) * m, level(v) if v < 1
                              else math.inf)))
    return out


def oracle_read_pvalue_table(source, *, clamp_zero=None):
    """``model.read_pvalue_table`` as it was written on ``csv.DictReader``:
    the package's text reading and types, its own row parsing. A row the
    csv module cannot parse is a ``DatasetError`` at the reader's line.
    Returns the table's ``(fieldnames, rows, records, delimiter,
    source_lines)``."""
    from repval.model import DatasetError, _read_text, _sniff_delimiter

    stream = io.StringIO(_read_text(source))
    first = stream.readline()
    if not first.strip():
        raise DatasetError("empty input table", 1)
    delim = _sniff_delimiter(first)
    stream.seek(0)
    reader = csv.DictReader(stream, delimiter=delim, skipinitialspace=True)
    try:
        return _oracle_table(reader, delim, clamp_zero)
    except csv.Error as exc:  # DictReader counts only the rows it read
        raise DatasetError(f"malformed row: {exc}",
                           reader.reader.line_num) from None


def _oracle_table(reader, delim, clamp_zero):
    from repval.model import DatasetError, FeatureRecord

    fieldnames = [fn.strip() for fn in (reader.fieldnames or [])]
    counts = Counter(fieldnames)
    repeated = ", ".join(repr(c) for c in counts if counts[c] > 1)
    if repeated:
        raise DatasetError(f"repeated column(s) {repeated}; header was "
                           f"{fieldnames}", 1)
    missing = [c for c in ("id", "p1", "p2") if c not in fieldnames]
    if missing:
        raise DatasetError(
            f"missing required column(s) {', '.join(missing)}; "
            f"header was {fieldnames}", 1)

    rows, records, source_lines = [], [], []
    for raw in reader:
        lineno = reader.line_num
        if None in raw:
            raise DatasetError(f"row has {len(raw[None])} cell(s) more than "
                               "the header", lineno)
        row = {(k.strip() if k else k):
               (v.strip() if isinstance(v, str) else v)
               for k, v in raw.items()}
        fid = row.get("id") or ""
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
    return fieldnames, rows, records, delim, source_lines


def oracle_validate_dataset(records, config, *, source_lines=None):
    """``model.validate_dataset`` as it was written, one record at a time:
    the records, as a tuple, or the ``DatasetError`` of the first fault."""
    from repval.model import DatasetError

    seen = set()
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
    for idx, rec in enumerate(records):
        if config.t is not None and rec.p1 > config.t:
            line = source_lines[idx] if source_lines is not None else None
            raise DatasetError(f"feature {rec.id!r} has p1={rec.p1} above "
                               f"the selection threshold t={config.t}", line)
    return tuple(records)
