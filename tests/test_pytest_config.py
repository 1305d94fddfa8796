"""The pytest configuration in pyproject.toml reports a failing hypothesis
test as a failure and still runs the rest of the file."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
"""


def test_failing_hypothesis_test_is_a_failure_not_an_internal_error(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.abspath(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
