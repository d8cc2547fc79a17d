import warnings

import numpy as np
import pytest

from bibcarto.ca import ca_fit, project_supplementary_row
from bibcarto.corpus import load_fixture
from bibcarto.errors import DataError
from bibcarto.ward import (
    Dendrogram,
    Merge,
    PointSet,
    cut,
    embed_for_clustering,
    export_dendrogram,
    ward_hac,
    write_partition_csv,
)

from helpers import dense_ward, exact_ward_minima, naive_ward


def _points(coords, labels=None):
    coords = np.asarray(coords, dtype=float)
    labels = tuple(labels) if labels else tuple(f"p{i}" for i in range(len(coords)))
    return PointSet(labels, coords, np.ones(len(coords)))


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(("a", "a"), np.zeros((2, 1)), np.ones(2))
    with pytest.raises(ValueError):
        PointSet(("a", "b"), np.array([[0.0], [np.inf]]), np.ones(2))
    with pytest.raises(ValueError):
        PointSet(("a", "b"), np.zeros((2, 1)), np.array([1.0, 2.0]))


def test_pointset_rejects_misshapen_coords_and_masses():
    for coords in (np.zeros(2), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="coords must be one row per label"):
            PointSet(("a", "b"), coords, np.ones(2))
    for masses in (np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="one mass per label required"):
            PointSet(("a", "b"), np.zeros((2, 1)), masses)


def test_embed_table2_has_32_points_in_13_dims():
    result = ca_fit(load_fixture("Table2"))
    points = embed_for_clustering(result)
    assert len(points) == 32
    assert points.coords.shape == (32, 13)
    assert set(points.labels[:14]) == set(load_fixture("Table2").row_labels)
    assert points.labels[14] == "1994"
    assert (points.masses == 1.0).all()


def test_embed_with_82_supplementary_points():
    t1, t2 = load_fixture("Table1"), load_fixture("Table2")
    result = ca_fit(t2)
    sup = [(label, project_supplementary_row(counts, result))
           for label, counts in zip(t1.row_labels, t1.counts)]
    points = embed_for_clustering(result, sup)
    assert len(points) == 114


def test_embed_dimension_mismatch():
    result = ca_fit(load_fixture("Table2"))
    with pytest.raises(DataError, match=r"^supplementary point 'bad' has \(2,\) coordinates, "
                                         r"expected \(13,\)$"):
        embed_for_clustering(result, [("bad", np.zeros(2))])


def test_two_points_merge_at_half_squared_distance():
    dendrogram = ward_hac(_points([[0.0], [3.0]], "AB"))
    (merge,) = dendrogram.merges
    assert (merge.a, merge.b, merge.new_id) == (0, 1, 2)
    assert merge.height == pytest.approx(4.5, abs=1e-12)


def test_three_collinear_points():
    dendrogram = ward_hac(_points([[0.0], [1.0], [10.0]], "ABC"))
    first, second = dendrogram.merges
    assert (first.a, first.b) == (0, 1)
    assert first.height == pytest.approx(0.5, abs=1e-12)
    assert (second.a, second.b) == (2, 3)
    assert second.height == pytest.approx(2.0 / 3.0 * 9.5**2, abs=1e-12)


def test_single_point_rejected():
    with pytest.raises(DataError, match="^need at least 2 points, got 1$"):
        ward_hac(_points([[1.0]]))


def test_matches_naive_oracle_on_random_instances():
    rng = np.random.default_rng(4242)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 6))
        coords = rng.normal(size=(n, d))
        points = _points(coords)
        merges = ward_hac(points).merges
        oracle = naive_ward(coords, np.ones(n))
        assert [(m.a, m.b, m.new_id) for m in merges] == [(a, b, i) for a, b, _, i, _ in oracle]
        got = np.array([m.height for m in merges])
        want = np.array([h for _, _, h, _, _ in oracle])
        assert np.abs(got - want).max() <= 1e-9
        assert (np.diff(got) >= -1e-12).all()


def test_matches_oracles_at_larger_n_with_ties():
    # Every third instance has integer coordinates, so exact ties occur
    # between leaves and between merged clusters. Rounding can split a tie
    # between merged clusters either way, and the float oracle rounds
    # differently from Lance-Williams, so those instances are checked in
    # exact arithmetic: each merge must attain the least increase, and
    # the least pair when the tie is between leaves (computed exactly).
    rng = np.random.default_rng(2040)
    merged_ties = 0
    for t in range(30):
        n = int(rng.integers(20, 41))
        d = int(rng.integers(1, 6))
        coords = rng.normal(size=(n, d))
        if t % 3 == 0:
            coords = np.round(coords * 2)
        merges = ward_hac(_points(coords)).merges
        if t % 3:
            oracle = naive_ward(coords, np.ones(n))
            assert [(m.a, m.b, m.new_id) for m in merges] == [(a, b, i) for a, b, _, i, _ in oracle]
            want = np.array([h for _, _, h, _, _ in oracle])
        else:
            minima = exact_ward_minima(coords, [(m.a, m.b) for m in merges])
            for m, (_, pairs) in zip(merges, minima):
                assert (m.a, m.b) in pairs
                if max(b for _, b in pairs) < n:
                    assert (m.a, m.b) == min(pairs)
            want = np.array([float(least) for least, _ in minima])
            merged_ties += sum(
                len(pairs) > 1 and max(b for _, b in pairs) >= n for _, pairs in minima
            )
        got = np.array([m.height for m in merges])
        assert np.abs(got - want).max() <= 1e-9
    assert merged_ties > 0


def _outcome(run):
    """Merges as (a, b, new_id, exact height), or the ArithmeticError text."""
    try:
        return [(a, b, new_id, float.hex(height)) for a, b, height, new_id in run()]
    except ArithmeticError as exc:
        return str(exc)


def test_equals_the_dense_ward_bit_for_bit():
    # The nearest-neighbour cache must pick the same pairs as a scan of the
    # whole matrix, and refill with the same arithmetic: equal heights
    # to the last bit, equal errors at the same merge.
    rng = np.random.default_rng(1109)
    cases = []
    for t in range(60):
        n = int(rng.integers(2, 61))
        coords = rng.normal(size=(n, int(rng.integers(1, 6))))
        cases.append((np.round(coords * 2) if t % 3 == 0 else coords, 1.0))
    cases.append((rng.normal(size=(400, 20)), 1.0))
    lattice = np.array([[x, y] for x in range(3) for y in range(3)], dtype=float)
    for mass in (1.0, 2.5, 0.0, -1.0):
        cases += [
            (np.zeros((7, 2)), mass),
            (lattice[rng.integers(0, 9, size=24)], mass),
            (lattice, mass),
            (lattice * 1e200, mass),
        ]
    errors = 0
    for coords, mass in cases:
        points = PointSet(tuple(f"p{i}" for i in range(len(coords))), coords,
                          np.full(len(coords), mass))
        with np.errstate(invalid="ignore"):  # masses of 0 fill in 0/0
            got = _outcome(lambda: ward_hac(points).merges)
            assert got == _outcome(lambda: dense_ward(points.coords, points.masses))
        errors += isinstance(got, str)
    assert 0 < errors < len(cases)


def test_equals_the_dense_ward_bit_for_bit_at_the_map_shape_and_every_row_offset():
    # The map workload's 300 points in 59 dimensions, and widths 1-9, so
    # that the rows of a difference buffer start at every 8-byte offset
    # modulo 64: the fill's sums must not depend on where a row starts.
    rng = np.random.default_rng(2378)
    clouds = [rng.normal(size=(300, 59))]
    clouds += [rng.normal(size=(int(rng.integers(2, 71)), d)) for d in range(1, 10)]
    for coords in clouds:
        got = [tuple(m) for m in ward_hac(_points(coords)).merges]
        assert got == dense_ward(coords, np.ones(len(coords)))


def test_scales_no_uninitialised_cell(monkeypatch):
    # np.empty may hand back any bits; a signalling NaN left on the diagonal
    # made the equal-mass scaling warn "invalid value encountered in multiply"
    empty = np.empty

    def snan_filled(shape, dtype=float, *args, **kwargs):
        array = empty(shape, dtype, *args, **kwargs)
        if array.dtype == np.float64:
            array.view(np.uint64).fill(0x7FF0000000000001)
        return array

    points = _points(np.random.default_rng(3).normal(size=(40, 5)))
    monkeypatch.setattr(np, "empty", snan_filled)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [tuple(m) for m in ward_hac(points).merges]
    monkeypatch.undo()
    assert got == [tuple(m) for m in ward_hac(points).merges]


def test_overflowing_criterion_rejected():
    with pytest.raises(ArithmeticError):
        ward_hac(_points([[0.0], [1e200], [-1e200]]))


def test_duplicate_points_merge_first_at_zero():
    dendrogram = ward_hac(_points([[1.0, 2.0], [5.0, 5.0], [1.0, 2.0]]))
    first = dendrogram.merges[0]
    assert (first.a, first.b) == (0, 2)
    assert first.height == 0.0


def test_tie_break_prefers_smallest_id_pair():
    # four corners of a square: all nearest pairs tie at the same height
    square = _points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    first = ward_hac(square).merges[0]
    assert (first.a, first.b) == (0, 1)


def test_tie_break_counts_ids_not_positions():
    # At height 0 every pair within {0, 1, 2, 3} and within {4, 5} ties.
    # Cluster 6 = {0, 1} takes the place of leaf 0, yet the least ids must
    # still win: (2, 3) before (2, 6), then (4, 5) before (6, 7).
    merges = ward_hac(_points([[0.0]] * 4 + [[5.0]] * 2)).merges
    assert [(m.a, m.b) for m in merges] == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    coords = rng.normal(size=(12, 4))
    labels = tuple(f"x{i}" for i in range(12))
    base = ward_hac(PointSet(labels, coords, np.ones(12)))
    perm = rng.permutation(12)
    shuffled = ward_hac(PointSet(
        tuple(labels[i] for i in perm), coords[perm], np.ones(12)
    ))
    heights = sorted(m.height for m in base.merges)
    heights_p = sorted(m.height for m in shuffled.merges)
    assert np.abs(np.array(heights) - np.array(heights_p)).max() <= 1e-9
    for k in (2, 3, 5):
        split_a = _cluster_sets(cut(base, k))
        split_b = _cluster_sets(cut(shuffled, k))
        assert split_a == split_b


def _cluster_sets(partition):
    clusters = {}
    for label, c in partition.assignment.items():
        clusters.setdefault(c, set()).add(label)
    return {frozenset(v) for v in clusters.values()}


def test_translation_invariance():
    rng = np.random.default_rng(11)
    coords = rng.normal(size=(9, 3))
    base = ward_hac(_points(coords))
    moved = ward_hac(_points(coords + np.array([3.5, -2.25, 10.0])))
    assert [(m.a, m.b) for m in base.merges] == [(m.a, m.b) for m in moved.merges]
    got = np.array([m.height for m in moved.merges])
    want = np.array([m.height for m in base.merges])
    assert np.abs(got - want).max() <= 1e-9


def test_cut_extremes_and_bad_k():
    dendrogram = ward_hac(_points([[0.0], [1.0], [10.0]], "ABC"))
    whole = cut(dendrogram, 1)
    assert set(whole.assignment.values()) == {1}
    singletons = cut(dendrogram, 3)
    assert sorted(singletons.assignment.values()) == [1, 2, 3]
    pair = cut(dendrogram, 2)
    assert pair.assignment["A"] == pair.assignment["B"] != pair.assignment["C"]
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            cut(dendrogram, bad)


def test_table2_two_cut_splits_year_ranges():
    result = ca_fit(load_fixture("Table2"))
    partition = cut(ward_hac(embed_for_clustering(result)), 2)
    early = {partition.assignment[str(y)] for y in range(1994, 2004)}
    late = {partition.assignment[str(y)] for y in range(2004, 2012)}
    assert len(early) == 1 and len(late) == 1
    assert early != late


def test_newick_two_leaves():
    dendrogram = ward_hac(_points([[0.0], [3.0]], "AB"))
    assert export_dendrogram(dendrogram) == "(A:2.25,B:2.25);"


def test_newick_three_leaves_nested_by_merge_order():
    dendrogram = ward_hac(_points([[0.0], [1.0], [10.0]], "ABC"))
    expected = "(C:30.0833333333,(A:0.25,B:0.25):29.8333333333);"
    assert export_dendrogram(dendrogram) == expected


def test_newick_quotes_awkward_labels():
    dendrogram = ward_hac(_points([[0.0], [3.0]], labels=("Kruskal64,78", "it's")))
    text = export_dendrogram(dendrogram)
    assert "'Kruskal64,78':2.25" in text
    assert "'it''s':2.25" in text


def test_newick_quotes_labels_holding_any_whitespace():
    dendrogram = ward_hac(_points([[0.0], [3.0], [9.0]], labels=("x\ny", "a\u00a0b", "c")))
    expected = "(c:18.75,('x\ny':2.25,'a\u00a0b':2.25):16.5);"
    assert export_dendrogram(dendrogram) == expected


def test_export_renders_a_chain_deeper_than_the_recursion_limit():
    # merge k joins the previous merge (height k) and leaf k + 1 at
    # height k + 1, so the tree is n - 1 levels deep
    n = 3000
    merges = tuple(Merge(n + k - 1 if k else 0, k + 1, float(k + 1), n + k) for k in range(n - 1))
    dendrogram = Dendrogram(tuple(f"p{i}" for i in range(n)), merges)
    newick = ("(" * (n - 1) + "p0:0.5,p1:0.5)"
              + "".join(f":0.5,p{k + 1}:{(k + 1) / 2:.12g})" for k in range(1, n - 1)) + ";")
    assert export_dendrogram(dendrogram) == newick


def test_partition_csv():
    dendrogram = ward_hac(_points([[0.0], [1.0], [10.0]], "ABC"))
    text = write_partition_csv(cut(dendrogram, 2))
    lines = text.splitlines()
    assert lines[0] == "label,cluster"
    assert lines[1:] == ["A,1", "B,1", "C,2"]
