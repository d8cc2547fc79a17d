import numpy as np
import pytest

from bibcarto.ca import (
    SupplementaryError,
    ca_fit,
    inertia_report,
    project_supplementary_col,
    project_supplementary_row,
    write_coordinates_csv,
    write_inertia_csv,
)
from bibcarto.corpus import ContingencyTable, load_fixture
from bibcarto.errors import DataError

from helpers import assert_axis_equal_up_to_sign, chi_squared, random_table

TOL = 1e-9


def _table(counts, rows=None, cols=None):
    counts = np.asarray(counts)
    rows = rows or tuple(f"r{i}" for i in range(counts.shape[0]))
    cols = cols or tuple(range(counts.shape[1]))
    return ContingencyTable(tuple(rows), tuple(cols), counts)


def assert_ca_properties(table):
    """The invariants every fit must satisfy, at 1e-9 absolute."""
    result = ca_fit(table)
    lam = result.eigenvalues
    psi, phi = result.row_coords, result.col_coords
    fi, fj = result.row_masses, result.col_masses

    # eigenvalues in [0, 1], nonincreasing
    assert (lam >= 0).all() and (lam <= 1 + TOL).all()
    assert (np.diff(lam) <= TOL).all()

    # weighted barycenters at the origin on every axis
    assert np.abs(fi @ psi).max() <= TOL if result.n_axes else True
    assert np.abs(fj @ phi).max() <= TOL if result.n_axes else True

    # eigenvalue sum = total inertia = chi-squared / N
    assert abs(lam.sum() - result.total_inertia) <= TOL
    assert abs(result.total_inertia - chi_squared(table.counts) / table.n) <= TOL

    # transition formulas hold between the fitted coordinate sets
    profiles_r = table.frequencies / fi[:, None]
    profiles_c = table.frequencies.T / fj[:, None]
    assert np.abs(profiles_r @ phi - psi * np.sqrt(lam)).max() <= TOL
    assert np.abs(profiles_c @ psi - phi * np.sqrt(lam)).max() <= TOL

    # an active row or column projected as supplementary reproduces itself
    for i in range(len(table.row_labels)):
        again = project_supplementary_row(table.counts[i], result)
        assert np.abs(again - psi[i]).max() <= TOL
    for j in range(len(table.col_labels)):
        again = project_supplementary_col(table.counts[:, j], result)
        assert np.abs(again - phi[j]).max() <= TOL

    # rescaling the counts changes nothing
    scaled = ca_fit(_table(table.counts * 7, table.row_labels, table.col_labels))
    assert np.abs(scaled.eigenvalues - lam).max() <= TOL
    assert np.abs(scaled.row_coords - psi).max() <= TOL
    assert np.abs(scaled.col_coords - phi).max() <= TOL

    return result


def test_identity_2x2():
    result = ca_fit(_table([[1, 0], [0, 1]], rows=("a", "b")))
    assert result.n_axes == 1
    assert abs(result.eigenvalues[0] - 1.0) <= TOL
    assert abs(result.total_inertia - 1.0) <= TOL
    # canonical orientation puts the first row negative
    assert np.allclose(result.row_coords[:, 0], [-1.0, 1.0], atol=TOL)


def test_independence_table_has_no_axes():
    rows = np.array([1, 2, 3])
    cols = np.array([2, 1, 4, 3])
    result = ca_fit(_table(np.outer(rows, cols)))
    assert result.n_axes == 0
    assert result.total_inertia <= TOL
    assert result.row_coords.shape == (3, 0)
    assert inertia_report(result) == []


def test_too_small_table_rejected():
    with pytest.raises(DataError, match="need at least a 2x2 table"):
        ca_fit(_table([[1, 2]]))


def test_zero_mass_rejected():
    with pytest.raises(DataError, match="^row 'dead' has zero mass$"):
        ca_fit(_table([[1, 2], [0, 0]], rows=("live", "dead")))
    with pytest.raises(DataError, match="^column 1 has zero mass$"):
        ca_fit(_table([[1, 0], [2, 0]]))


def test_table2_properties_and_axis_count():
    result = assert_ca_properties(load_fixture("Table2"))
    assert result.n_axes == 13


def test_random_table_properties():
    rng = np.random.default_rng(20130401)
    for _ in range(50):
        assert_ca_properties(random_table(rng))


def test_row_column_duality():
    table = load_fixture("Table2")
    direct = ca_fit(table)
    transposed = ContingencyTable(tuple(map(str, table.col_labels)), table.row_labels, table.counts.T)
    dual = ca_fit(transposed)
    assert np.abs(direct.eigenvalues - dual.eigenvalues).max() <= TOL
    assert_axis_equal_up_to_sign(direct.row_coords, dual.col_coords, TOL)
    assert_axis_equal_up_to_sign(direct.col_coords, dual.row_coords, TOL)


def test_supplementary_row_proportional_to_column_masses_is_origin():
    table = load_fixture("Table2")
    result = ca_fit(table)
    barycentric = table.counts.sum(axis=0)
    coords = project_supplementary_row(barycentric, result)
    assert np.abs(coords).max() <= TOL


def test_supplementary_col_proportional_to_row_masses_is_origin():
    table = load_fixture("Table2")
    result = ca_fit(table)
    coords = project_supplementary_col(table.counts.sum(axis=1), result)
    assert np.abs(coords).max() <= TOL


def test_duplicated_year_column_projects_onto_itself():
    table = load_fixture("Table2")
    result = ca_fit(table)
    j = table.col_labels.index(1994)
    coords = project_supplementary_col(table.counts[:, j], result)
    assert np.abs(coords - result.col_coords[j]).max() <= TOL


def test_supplementary_errors():
    result = ca_fit(load_fixture("Table2"))
    with pytest.raises(SupplementaryError, match="no incidences"):
        project_supplementary_row(np.zeros(18), result)
    with pytest.raises(SupplementaryError, match="expected 18 column counts"):
        project_supplementary_row(np.ones(17), result)
    with pytest.raises(SupplementaryError, match="no incidences"):
        project_supplementary_col(np.zeros(14), result)
    with pytest.raises(SupplementaryError, match="expected 14 row counts"):
        project_supplementary_col(np.ones(5), result)


def test_supplementary_error_messages_name_the_side():
    result = ca_fit(load_fixture("Table2"))
    cases = [
        (project_supplementary_row, np.zeros(18), "supplementary row has no incidences"),
        (project_supplementary_row, np.ones(17), "expected 18 column counts, got (17,)"),
        (project_supplementary_col, np.zeros(14), "supplementary column has no incidences"),
        (project_supplementary_col, np.ones(5), "expected 14 row counts, got (5,)"),
    ]
    for project, counts, message in cases:
        with pytest.raises(SupplementaryError) as err:
            project(counts, result)
        assert str(err.value) == message


def test_profile_rows_project_far_from_year_centroids():
    """The two retrieval-era outlier publications sit far outside both
    year groups; every projection stays finite."""
    t1, t2 = load_fixture("Table1"), load_fixture("Table2")
    result = ca_fit(t2)
    years = np.array(t2.col_labels)
    early = result.col_coords[years <= 2003]
    late = result.col_coords[years >= 2004]
    centroids = (early.mean(axis=0), late.mean(axis=0))
    radii = (
        max(np.linalg.norm(p - centroids[0]) for p in early),
        max(np.linalg.norm(p - centroids[1]) for p in late),
    )

    min_dist = {}
    for label, counts in zip(t1.row_labels, t1.counts):
        coords = project_supplementary_row(counts, result)
        assert np.isfinite(coords).all()
        min_dist[label] = min(
            np.linalg.norm(coords - c) / r for c, r in zip(centroids, radii)
        )
    for label in ("Bishop95", "VanRijsbergen79"):
        assert min_dist[label] > 5.0
    farthest = sorted(min_dist, key=min_dist.get, reverse=True)[:2]
    assert set(farthest) == {"Bishop95", "VanRijsbergen79"}


def test_inertia_report_identity_table():
    result = ca_fit(_table([[1, 0], [0, 1]]))
    ((axis, lam, pct, cum),) = inertia_report(result)
    assert axis == 1
    assert abs(pct - 100.0) <= TOL and abs(cum - 100.0) <= TOL


def test_inertia_report_table2_sums_to_100():
    report = inertia_report(ca_fit(load_fixture("Table2")))
    assert abs(sum(pct for _, _, pct, _ in report) - 100.0) <= TOL
    assert abs(report[-1][3] - 100.0) <= TOL
    cumulative = [cum for _, _, _, cum in report]
    assert cumulative == sorted(cumulative)


def test_axis1_dominates_and_hum_is_extreme():
    table = load_fixture("Table2")
    result = ca_fit(table)
    pct = result.inertia_percentages
    assert pct[0] > pct[1]
    axis1 = np.abs(result.row_coords[:, 0])
    assert table.row_labels[int(axis1.argmax())] == "Hum"
    hum = result.row_coords[table.row_labels.index("Hum")]
    assert hum[0] < 0


def test_coordinate_csv_exports():
    result = ca_fit(load_fixture("Table2"))
    sup = [("Extra", project_supplementary_row(np.ones(18), result))]
    text = write_coordinates_csv(result, sup)
    lines = text.splitlines()
    assert lines[0].startswith("label,kind,axis1")
    assert len(lines) == 1 + 14 + 18 + 1
    assert lines[-1].startswith("Extra,sup,")
    kinds = {ln.split(",")[1] for ln in lines[1:]}
    assert kinds == {"row", "col", "sup"}
    inertia = write_inertia_csv(result)
    assert inertia.splitlines()[0] == "axis,eigenvalue,percentage,cumulative"
    assert len(inertia.splitlines()) == 14
