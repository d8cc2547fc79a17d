"""The package's public surface, and what importing it loads."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bibcarto

from conftest import RESEARCH_ALERT_SAMPLE

# Each public name, in __all__ order, with the submodule that defines it.
SURFACE = {
    "BibRecord": "records", "CaResult": "ca", "ContingencyTable": "corpus",
    "DataError": "errors", "Dendrogram": "ward", "DisciplineLexicon": "corpus",
    "Index": "search", "Partition": "ward", "PointSet": "ward",
    "ProfileCatalog": "corpus", "Query": "search", "RecordFormat": "records",
    "RecordParseError": "records", "build_index": "search", "build_table": "corpus",
    "ca_fit": "ca", "cut": "ward", "detect_format": "records",
    "embed_for_clustering": "ward", "export_dendrogram": "ward",
    "filter_records": "corpus", "inertia_report": "ca", "load_fixture": "corpus",
    "match_profiles": "corpus", "more_like_this": "search",
    "parse_query": "search", "parse_records": "records",
    "project_supplementary_col": "ca", "project_supplementary_row": "ca",
    "tag_disciplines": "corpus", "ward_hac": "ward",
}
SUBMODULES = ("errors", "records", "fixtures", "corpus", "ca", "ward", "search")


def _python(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(bibcarto.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_records_and_errors_import_without_numpy(tmp_path):
    done = _python(
        "import sys, bibcarto, bibcarto.errors, bibcarto.records\n"
        "(record,) = bibcarto.parse_records(sys.stdin.read())\n"
        "assert issubclass(bibcarto.DataError, ValueError)\n"
        "print(record.year, 'numpy' in sys.modules)\n",
        RESEARCH_ALERT_SAMPLE,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1998", "False"]
    # Only the commands that do the math load numpy: each runs in a fresh interpreter,
    # after which numpy is loaded exactly when the command needs it.
    alerts = tmp_path / "alerts.txt"
    alerts.write_text(RESEARCH_ALERT_SAMPLE, encoding="utf-8")
    out = str(tmp_path / "out.txt")
    for argv, loads in [
        (None, False),
        (["parse", str(alerts), "-o", out], False),
        (["tables", "--records", str(alerts), "--kind", "profiles", "-o", out], False),
        (["tables", "--fixture", "Table2", "-o", out], False),
        (["analyze", "--fixture", "Table2", "--outdir", str(tmp_path / "analysis")], True),
    ]:
        run = "" if argv is None else f"assert bibcarto.cli.main({argv!r}) == 0\n"
        done = _python(f"import sys, bibcarto.cli\n{run}print('numpy' in sys.modules)\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == str(loads), argv  # after what the command printed


def test_the_cli_imports_in_a_fresh_interpreter():
    done = _python("import bibcarto.cli")
    assert done.returncode == 0, done.stderr


def test_public_surface():
    assert len(SURFACE) == 31
    assert bibcarto.__all__ == list(SURFACE)
    for name, module in SURFACE.items():
        assert getattr(bibcarto, name) is getattr(importlib.import_module(f"bibcarto.{module}"),
                                                  name)
    for module in SUBMODULES:
        assert getattr(bibcarto, module) is importlib.import_module(f"bibcarto.{module}")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bibcarto.no_such_name
    # A bare import lists every name before any of them is loaded.
    done = _python("import bibcarto\nprint(*dir(bibcarto))")
    assert done.returncode == 0, done.stderr
    listed = set(done.stdout.split())
    assert {*SURFACE, *SUBMODULES, "__version__"} <= listed
    # and no private helper
    assert [name for name in listed if name.startswith("_") and not name.startswith("__")] == []


def test_dir_lists_every_public_name_and_submodule():
    assert {*bibcarto.__all__, *SUBMODULES} <= set(dir(bibcarto))
