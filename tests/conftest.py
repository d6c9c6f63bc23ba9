import io
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repval import AnalysisConfig, read_pvalue_table, validate_dataset

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"

# Published r-values for the bundled IgA table, by l00 column, at 4 decimals.
# Rows beyond the first seven are all exactly 1.
IGA_SIGNIFICANT = {
    0.0: (0.0243, 0.0409, 0.0224, 0.0409, 0.0224, 0.1907, 0.0819),
    0.5: (0.0150, 0.0207, 0.0147, 0.0207, 0.0150, 0.1001, 0.0418),
    0.8: (0.0074, 0.0090, 0.0059, 0.0090, 0.0090, 0.0413, 0.0169),
}
IGA_M = 444882

# Published T2D r-values carry three significant digits padded to four
# decimal places.
T2D_PRINTED = ("0.0055", "0.0055", "0.1490", "0.0441", "0.0254", "0.0604",
               "0.0604", "0.0765", "0.0431", "0.2090", "1.0000")
T2D_M = 68

# Published TPP Bonferroni r-values carry two significant digits padded to
# five decimal places.
TPP_PRINTED = ("0.00012", "0.00059", "0.00058", "0.00360")
TPP_M = 486782

REFINED_IGA_SIGNIFICANT = (0.005, 0.008, 0.005, 0.008, 0.005, 0.041, 0.017)

# Seconds a test call may run before it fails, so that a search loop that
# spins fails its test instead of hanging the run; the slowest test takes a
# few seconds
TIME_LIMIT_S = 60.0


class TimeLimitExceeded(BaseException):
    """A test call ran past TIME_LIMIT_S. Not an Exception, so neither the
    test nor Hypothesis takes it for a failing example to retry."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def iga_table():
    return read_pvalue_table(DATA_DIR / "iga_nephropathy.tsv")


@pytest.fixture(scope="session")
def t2d_table():
    return read_pvalue_table(DATA_DIR / "t2d.tsv")


@pytest.fixture(scope="session")
def tpp_table():
    return read_pvalue_table(DATA_DIR / "tpp.tsv")


@pytest.fixture
def iga_dataset(iga_table):
    config = AnalysisConfig(m=IGA_M, l00=0.8, c2=0.5)
    return validate_dataset(iga_table, config), config


def make_random_dataset(rng: np.random.Generator, r1=None, m=None,
                        max_m=50, spread=(-8.0, 0.0), with_ties=False):
    """A small random instance as columns ``(p1, p2, m)``: a mix of strong
    and null-ish p-values so rejection sets are nontrivial at usual q
    levels."""
    if r1 is None:
        r1 = int(rng.integers(1, 21))
    if m is None:
        m = int(rng.integers(r1, max_m + 1))
    p1 = 10.0 ** rng.uniform(spread[0], spread[1], r1)
    p2 = np.where(rng.random(r1) < 0.5,
                  10.0 ** rng.uniform(spread[0], spread[1], r1),
                  rng.uniform(1e-6, 1.0, r1))
    if with_ties and r1 >= 2:
        p1[1] = p1[0]
        p2[1] = p2[0]
    return p1, p2, m


def dataset_from_arrays(p1, p2, m, **config_kw):
    """The features ``f0``, ``f1``, ... with these p-values, read and
    validated as the CLI reads and validates a table. Each cell is written
    as ``repr(float(x))``, which reads back as the same double."""
    text = "id\tp1\tp2\n" + "".join(
        f"f{i}\t{float(a)!r}\t{float(b)!r}\n"
        for i, (a, b) in enumerate(zip(p1, p2)))
    config = AnalysisConfig(m=m, **config_kw)
    return validate_dataset(read_pvalue_table(io.StringIO(text)),
                            config), config
