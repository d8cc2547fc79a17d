"""The warning filters of the repository's pytest configuration."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# A failing property test, then a test that warns on its own, then a plain
# one. Hypothesis imports libcst to report the first, and libcst warns a
# DeprecationWarning as it loads.
_SUITE = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 5


def test_its_own_deprecation_warning():
    warnings.warn("this call is deprecated", DeprecationWarning)


def test_plain():
    pass
'''


def test_a_failing_property_test_reports_its_example_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_suite.py").write_text(_SUITE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_suite.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    # the repository's own DeprecationWarning filter still fails a test
    assert "FAILED test_suite.py::test_its_own_deprecation_warning" in done.stdout
    assert "2 failed, 1 passed" in done.stdout
