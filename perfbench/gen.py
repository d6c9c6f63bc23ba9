"""Seeded generator for the synthetic p-value tables the benchmark feeds to
``repval rvalues``.

A table has R1 rows of ``id, p1, p2`` and stands for the features followed
up out of m screened ones. Every p1 lies at or below the selection
threshold t (log-uniform over eight decades under t), so the same table is
valid input for ``--method fdr-threshold-dep --t <t>``. The follow-up
p-values mix strong signals (log-uniform in [1e-10, 1e-1]) with nulls
(uniform in (0, 1]), so step-up sets are neither empty nor everything.

Draws are stratified: a fixed share of the rows are strong signals, and
each batch of n uniforms has one value in each of n equal strata. The seed
moves values within their strata and pairs p1 with p2, so the r-values and
the bisection work they cost change little from seed to seed. With plain
draws, the number of features that need a full bisection ranged from 396 to
485 of 1000 over five seeds, and the benchmark's time followed it.

The output depends only on (r1, t, seed): the same arguments give the same
bytes. m is not an input to the table; it is passed to the CLI as ``--m``.

Usage: python3 perfbench/gen.py R1 T SEED OUT
"""

from __future__ import annotations

import sys

import numpy as np

STRONG_FRACTION = 0.35


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one in each of n equal strata, in random
    order."""
    return (rng.permutation(n) + rng.random(n)) / n


def table_text(r1: int, t: float, seed: int) -> str:
    rng = np.random.default_rng(seed)
    p1 = t * 10.0 ** (-8.0 * stratified(rng, r1))
    strong = rng.permutation(r1) < round(STRONG_FRACTION * r1)
    p2 = np.empty(r1)
    p2[strong] = 10.0 ** (-10.0 + 9.0 * stratified(rng, int(strong.sum())))
    p2[~strong] = 1.0 - stratified(rng, int((~strong).sum()))
    lines = ["id\tp1\tp2"]
    lines += [f"f{i:06d}\t{a:.6e}\t{b:.6e}" for i, (a, b) in
              enumerate(zip(p1.tolist(), p2.tolist()))]
    return "\n".join(lines) + "\n"


def write_table(path, r1: int, t: float, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table_text(r1, t, seed))


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__.rsplit("Usage: ", 1)[1])
    write_table(sys.argv[4], int(sys.argv[1]), float(sys.argv[2]),
                int(sys.argv[3]))
