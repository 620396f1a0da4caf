"""Checks on the test configuration itself."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    """A falsified ``@given`` test fails like any other, under the warning filters."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_negative(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
