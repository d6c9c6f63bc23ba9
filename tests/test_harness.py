"""The test run's own configuration: ``pyproject.toml``, and the time limit
per test call of ``conftest.py``."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
CONFTEST = Path(__file__).resolve().parent / "conftest.py"


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # every warning is an error, but a failing @given test must not stop
    # the run before the tests after it are reported
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(n):
            assert n != n


        def test_passes():
            pass
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_a_test_that_spins_fails_and_the_next_one_runs(tmp_path):
    # the run's own time limit, lowered to 1 s in a child pytest: the
    # spinning test fails, the next one runs, and each call leaves the
    # SIGALRM handler it found
    (tmp_path / "conftest.py").write_text(textwrap.dedent(f"""
        import importlib.util
        import signal

        spec = importlib.util.spec_from_file_location("limit", {str(CONFTEST)!r})
        limit = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(limit)
        limit.TIME_LIMIT_S = 1.0
        pytest_runtest_call = limit.pytest_runtest_call


        def before(signum, frame):
            pass


        signal.signal(signal.SIGALRM, before)
        kept = []


        def pytest_runtest_teardown(item):
            kept.append(signal.getsignal(signal.SIGALRM) is before)


        def pytest_sessionfinish(session):
            with open("kept.txt", "w") as out:
                out.write(" ".join(map(str, kept)))
    """))
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        def test_spins():
            while True:
                pass


        def test_passes():
            pass
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=50)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "test_spins ran past 1.0 s" in result.stdout
    assert (tmp_path / "kept.txt").read_text() == "True True"
