"""The row-format CSV writers against the csv.writer bodies they replaced."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibcarto import ca, ward
from bibcarto.cli import run_analysis
from bibcarto.corpus import ContingencyTable, csv_field, load_fixture

from helpers import (
    naive_coordinates_csv,
    naive_inertia_csv,
    naive_partition_csv,
    naive_table_csv,
)

# Labels with what csv quotes (comma, quote, line breaks), padding,
# non-ASCII text and the empty string, plus arbitrary text.
_labels = (
    st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a", "Z", "é", "中", " "]),
            max_size=5)
    | st.text(max_size=6)
)
# A table's labels hold no line end, and its row labels are not blank.
_unbroken_labels = _labels.filter(lambda s: s.splitlines() in ([], [s]))
_col_labels = st.integers(-5, 2100) | _unbroken_labels


@st.composite
def _tables(draw, min_side=0):
    rows = draw(st.lists(_unbroken_labels.filter(str.strip), min_size=min_side, max_size=6,
                         unique=True))
    cols = draw(st.lists(_col_labels, min_size=min_side, max_size=6, unique=True))
    weights = st.integers(1, 9)
    if draw(st.booleans()):  # at independence: a CA of it keeps zero axes
        counts = np.outer(draw(st.lists(weights, min_size=len(rows), max_size=len(rows))),
                          draw(st.lists(weights, min_size=len(cols), max_size=len(cols))))
    else:
        counts = np.array(draw(st.lists(
            st.lists(st.integers(1, 10**6), min_size=len(cols), max_size=len(cols)),
            min_size=len(rows), max_size=len(rows)))).reshape(len(rows), len(cols))
    return ContingencyTable(tuple(rows), tuple(cols), counts)


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_table_csv_equals_the_csv_writer(table):
    assert table.to_csv() == naive_table_csv(table)


@settings(max_examples=200, deadline=None)
@given(table=_tables(min_side=2), axes=st.none() | st.integers(1, 8),
       sup_labels=st.lists(_labels, max_size=3), data=st.data())
def test_ca_csvs_equal_the_csv_writer(table, axes, sup_labels, data):
    result = ca.ca_fit(table)
    floats = st.floats(allow_nan=True, allow_infinity=True)
    supplementary = [
        (label, np.array(data.draw(st.lists(floats, min_size=result.n_axes,
                                            max_size=result.n_axes)), dtype=float))
        for label in sup_labels
    ]
    assert (ca.write_coordinates_csv(result, supplementary, axes)
            == naive_coordinates_csv(result, supplementary, axes))
    assert ca.write_inertia_csv(result) == naive_inertia_csv(result)


def test_a_zero_axis_result_writes_label_and_kind_only():
    result = ca.ca_fit(ContingencyTable(("a", "b"), (1, 2), np.array([[1, 2], [2, 4]])))
    assert result.n_axes == 0
    text = ca.write_coordinates_csv(result, [("s", np.zeros(0))])
    assert text == naive_coordinates_csv(result, [("s", np.zeros(0))])
    assert text == "label,kind\na,row\nb,row\n1,col\n2,col\ns,sup\n"
    assert ca.write_inertia_csv(result) == naive_inertia_csv(result)


def test_negative_axes_is_a_value_error():
    result = ca.ca_fit(load_fixture("Table2"))
    with pytest.raises(ValueError, match=r"^axes must not be negative, got -1$"):
        ca.write_coordinates_csv(result, (), -1)
    text = ca.write_coordinates_csv(result, (), 0)
    assert text == naive_coordinates_csv(result, (), 0)
    assert text.startswith("label,kind\nMed,row\n")


@settings(max_examples=200, deadline=None)
@given(assignment=st.dictionaries(_labels, st.integers(1, 9), max_size=8))
def test_partition_csv_equals_the_csv_writer(assignment):
    partition = ward.Partition(max(assignment.values(), default=1), assignment)
    assert ward.write_partition_csv(partition) == naive_partition_csv(partition)


@pytest.mark.parametrize("x", [
    -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 9.999999999995e-5, 0.1 + 0.2,
    123456789012.5, math.inf, -math.inf, math.nan,
])
def test_percent_format_equals_format(x):
    assert "%.12g" % x == format(x, ".12g")


@pytest.mark.parametrize("value, alone, field", [
    ("a", False, "a"), ("", False, ""), ("", True, '""'), (" a ", False, " a "),
    ("a,b", False, '"a,b"'), ('a"b', False, '"a""b"'), ("a\nb", True, '"a\nb"'),
    (1994, False, "1994"),
])
def test_csv_field_quotes_like_the_csv_writer(value, alone, field):
    assert csv_field(value, alone) == field


def test_reference_artifacts_equal_the_csv_writer():
    table, sup = load_fixture("Table2"), load_fixture("Table1")
    artifacts = run_analysis(table, sup, k=5, axes=None)
    # the file names, in the order that `analyze` writes and prints them
    assert list(artifacts) == ["coordinates.csv", "inertia.csv", "dendrogram.nwk",
                               "partition.csv"]
    result = ca.ca_fit(table)
    projected = [(label, ca.project_supplementary_row(counts, result))
                 for label, counts in zip(sup.row_labels, sup.counts)]
    assert artifacts["coordinates.csv"] == naive_coordinates_csv(result, projected)
    assert artifacts["inertia.csv"] == naive_inertia_csv(result)
