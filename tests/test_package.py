"""The package's public surface, and what importing it loads."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


# ----------------------------------------------------------- bad input refused

def _fit():
    return bibcarto.ca_fit(bibcarto.load_fixture("Table2"))  # 14 rows, 18 years, 13 axes


def _dendrogram():
    return bibcarto.ward_hac(bibcarto.PointSet(("a", "b", "c"), [[0.0], [1.0], [10.0]],
                                               [1.0, 1.0, 1.0]))


def _index():
    return bibcarto.build_index([
        bibcarto.BibRecord(title, bibcarto.RecordFormat.RESEARCH_ALERT)
        for title in ("network one", "network two", "network three", "other")])


def _one_record():
    return [bibcarto.BibRecord("t", bibcarto.RecordFormat.RESEARCH_ALERT, year=1994)]


_NAN, _INF = float("nan"), float("inf")

# (public callable, a call with bad input, the class and message it raises):
# the library refuses each call itself, with the DataError subclass of its module.
REFUSED = [
    pytest.param("ContingencyTable",
                 lambda: bibcarto.ContingencyTable(("a", " \t"), (1994,), [[1], [2]]),
                 "EntryError", "blank row label", id="blank-row-label"),
    pytest.param("ContingencyTable",
                 lambda: bibcarto.ContingencyTable(("a\nb",), (1994,), [[1]]),
                 "EntryError", "row label 'a\\nb' holds a line break", id="line-break-row-label"),
    pytest.param("ContingencyTable",
                 lambda: bibcarto.ContingencyTable(("a", "b\u2028c"), (1994,), [[1], [2]]),
                 "EntryError", "row label 'b\\u2028c' holds a line break",
                 id="splitlines-break-row-label"),
    pytest.param("ContingencyTable",
                 lambda: bibcarto.ContingencyTable(("a",), ("19\n94", 1995), [[1, 2]]),
                 "DataError", "column label '19\\n94' holds a line break",
                 id="line-break-column-label"),
    pytest.param("build_table",
                 lambda: bibcarto.build_table(_one_record(), lambda r: {"a"}, ["a", ""],
                                              (1994, 1994)),
                 "EntryError", "blank row label", id="build-table-blank-label"),
    pytest.param("project_supplementary_row",
                 lambda: bibcarto.project_supplementary_row([-1] + [1] * 17, _fit()),
                 "SupplementaryError", "supplementary row counts must be finite and not negative",
                 id="negative-supplementary-row"),
    pytest.param("project_supplementary_row",
                 lambda: bibcarto.project_supplementary_row([_NAN] + [1] * 17, _fit()),
                 "SupplementaryError", "supplementary row counts must be finite and not negative",
                 id="nan-supplementary-row"),
    pytest.param("project_supplementary_row",
                 lambda: bibcarto.project_supplementary_row([_INF] + [1] * 17, _fit()),
                 "SupplementaryError", "supplementary row counts must be finite and not negative",
                 id="infinite-supplementary-row"),
    pytest.param("project_supplementary_col",
                 lambda: bibcarto.project_supplementary_col([1] * 13 + [-2], _fit()),
                 "SupplementaryError",
                 "supplementary column counts must be finite and not negative",
                 id="negative-supplementary-column"),
    pytest.param("cut", lambda: bibcarto.cut(_dendrogram(), 2.5),
                 "ClusterCountError", "k must be in 1..3, got 2.5", id="cut-fraction"),
    pytest.param("cut", lambda: bibcarto.cut(_dendrogram(), True),
                 "ClusterCountError", "k must be in 1..3, got True", id="cut-bool"),
    pytest.param("search.search",
                 lambda: bibcarto.search.search(_index(), bibcarto.parse_query("network"), 0),
                 "DataError", "page must be positive, got 0", id="page-zero"),
    pytest.param("search.search",
                 lambda: bibcarto.search.search(_index(), bibcarto.parse_query("network"), True),
                 "DataError", "page must be positive, got True", id="page-bool"),
    pytest.param("more_like_this", lambda: bibcarto.more_like_this(_index(), True),
                 "DataError", "no record with id True", id="mlt-bool"),
    pytest.param("more_like_this", lambda: bibcarto.more_like_this(_index(), 1.0),
                 "DataError", "no record with id 1.0", id="mlt-float"),
    pytest.param("more_like_this", lambda: bibcarto.more_like_this(_index(), np.True_),
                 "DataError", "no record with id np.True_", id="mlt-numpy-bool"),
    pytest.param("PointSet",
                 lambda: bibcarto.PointSet(("a", "b"), [0.0, 1.0], [1.0, 1.0]),
                 "DataError", "coords must be one row per label", id="pointset-misshapen-coords"),
    pytest.param("PointSet",
                 lambda: bibcarto.PointSet(("a", "b"), [[0.0], [1.0]], [1.0, 1.0, 1.0]),
                 "DataError", "one mass per label required", id="pointset-misshapen-masses"),
    pytest.param("PointSet",
                 lambda: bibcarto.PointSet(("a", "b"), [[0.0], [_NAN]], [1.0, 1.0]),
                 "DataError", "non-finite coordinates", id="pointset-non-finite"),
    pytest.param("PointSet",
                 lambda: bibcarto.PointSet(("a", "b"), [[0.0], [1.0]], [1.0, 2.0]),
                 "DataError", "points must be equiweighted", id="pointset-unequal-masses"),
    pytest.param("embed_for_clustering",
                 lambda: bibcarto.embed_for_clustering(_fit(), [("s", [_INF] * 13)]),
                 "DataError", "non-finite coordinates", id="embed-non-finite-supplementary"),
    pytest.param("ca.write_coordinates_csv",
                 lambda: bibcarto.ca.write_coordinates_csv(_fit(), (), -1),
                 "DataError", "axes must not be negative, got -1", id="negative-axes"),
]


@pytest.mark.parametrize("name, call, cls, message", REFUSED)
def test_bad_input_is_refused_with_its_data_error(name, call, cls, message):
    with pytest.raises(bibcarto.DataError) as err:
        call()
    assert type(err.value).__name__ == cls
    assert str(err.value) == message


@pytest.mark.parametrize("call", [
    lambda k: bibcarto.cut(_dendrogram(), k),
    lambda page: bibcarto.search.search(_index(), bibcarto.parse_query("network"), page),
    lambda doc_id: bibcarto.more_like_this(_index(), doc_id),
], ids=["cut", "search.search", "more_like_this"])
@pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint8])
def test_a_numpy_integer_argument_reads_as_its_int(call, numpy_int):
    # ids from np.flatnonzero or argsort, or a k from np.argmax(...) + 1
    assert call(numpy_int(2)) == call(2)


# Public names that take no input data of their own: types, exceptions, and
# functions whose arguments are objects the package built and checked.
TAKES_NO_INPUT = {"BibRecord", "CaResult", "DataError", "Dendrogram", "Index", "Partition",
                  "Query", "RecordFormat", "RecordParseError", "build_index",
                  "export_dendrogram", "filter_records", "inertia_report", "match_profiles",
                  "tag_disciplines"}
# Public names whose bad input was refused with its DataError already, each
# with a test (module, function) that pins it.
REFUSED_ALREADY = {
    "DisciplineLexicon": ("test_corpus", "test_vocabulary_names_its_first_bad_line"),
    "ProfileCatalog": ("test_corpus", "test_catalog_rejects_a_token_of_two_entries"),
    "ca_fit": ("test_ca", "test_too_small_table_rejected"),
    "detect_format": ("test_records", "test_detect_empty_is_ambiguous"),
    "load_fixture": ("test_corpus", "test_bad_tables_raise_a_data_error"),
    "parse_query": ("test_search", "test_parse_query_errors"),
    "parse_records": ("test_records", "test_unknown_tag_names_line"),
    "ward_hac": ("test_ward", "test_single_point_rejected"),
}


def test_every_public_name_has_its_bad_input_pinned():
    refused = {param.values[0] for param in REFUSED}
    groups = [refused & set(bibcarto.__all__), TAKES_NO_INPUT, set(REFUSED_ALREADY)]
    assert sorted(name for group in groups for name in group) == sorted(bibcarto.__all__)
    for module, test in REFUSED_ALREADY.values():
        assert callable(getattr(importlib.import_module(module), test))
