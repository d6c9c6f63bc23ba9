"""The test run's own configuration (``pyproject.toml``)."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
