"""The suite's own pytest settings."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """A failing property test reports its failure under the suite's
    warning filters.  Hypothesis then imports libcst, whose import of
    mypy_extensions warns; turned into an error, that warning ended the
    session with INTERNALERROR and hid every later result."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed" in out.stdout
    assert out.returncode == 1
