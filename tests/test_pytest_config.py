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


def _run_suite(tmp_path, source):
    """pytest, under the repository's configuration, on a suite of one file
    holding ``source``."""
    (tmp_path / "test_suite.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_suite.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_a_failing_property_test_reports_its_example_and_the_run_goes_on(tmp_path):
    done = _run_suite(tmp_path, _SUITE)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    # the repository's own DeprecationWarning filter still fails a test
    assert "FAILED test_suite.py::test_its_own_deprecation_warning" in done.stdout
    assert "2 failed, 1 passed" in done.stdout


def test_a_misspelled_marker_is_a_collection_error(tmp_path):
    done = _run_suite(tmp_path,
                      "import pytest\n\n\n@pytest.mark.acceptence\ndef test_marked():\n    pass\n")
    assert done.returncode == 2, done.stdout + done.stderr
    assert "'acceptence' not found in `markers` configuration option" in done.stdout
    assert "1 error" in done.stdout


def test_a_repeated_parametrize_id_is_a_collection_error(tmp_path):
    # without strict_parametrization_ids pytest would run them as same0 and same1
    done = _run_suite(tmp_path, "import pytest\n\n\n"
                                "@pytest.mark.parametrize('n', [1, 2], ids=['same', 'same'])\n"
                                "def test_twice(n):\n    pass\n")
    assert done.returncode == 2, done.stdout + done.stderr
    assert "Duplicate parametrization IDs detected" in done.stdout
    assert "1 error" in done.stdout
