"""End-to-end acceptance criteria, one test per criterion.

A PASS/FAIL line per criterion is printed in the terminal summary (see
conftest). Criterion 1 is expected to fail on the profile-by-year
table: its published grand total (135,088) equals both bundled tables
combined (111,091 + 23,997), while the table as printed sums to
111,091. The check asserts the published figure and is deliberately
left red rather than patching the data; the verbatim total is pinned by
the unit tests in test_corpus.py.
"""
import numpy as np
import pytest

from bibcarto import ca, corpus, records, search, ward
from bibcarto.cli import main

from conftest import PERSONAL_ALERT_SAMPLE, RESEARCH_ALERT_SAMPLE
from helpers import _doc_terms, linear_scan_search, naive_ward, random_table
from test_ca import assert_ca_properties

pytestmark = pytest.mark.acceptance

TOL = 1e-9


def test_c1_fixture_integrity():
    table2 = corpus.load_fixture("Table2")
    assert table2.n == 23_997
    table1 = corpus.load_fixture("Table1")
    assert table1.n == 135_088, (
        f"profile-by-year table sums to {table1.n}; the published figure "
        f"135,088 equals {table1.n} + 23,997, i.e. both tables combined"
    )


def test_c2_parser_goldens():
    (ra,) = records.parse_records(RESEARCH_ALERT_SAMPLE)
    assert ra.title == "Learning to Set-Up Numerical Optimizations of Engineering Designs"
    assert ra.authors == ["SCHWABAC.M", "ELLMAN T", "HIRSH H"]
    assert ra.keywords == ["MATHEMATICAL SCIENCES - Computer Science"]
    assert ra.source == "AI EDAM 12(2): 173-192,APR 1998"
    assert ra.profile_citations == ["BREIMAN L    84"]
    assert ra.year == 1998

    (pa,) = records.parse_records(PERSONAL_ALERT_SAMPLE)
    assert pa.title.startswith("Multiscale spatial variation of the bark beetle")
    assert pa.authors == ["Rossi, JP", "Samalens, JC", "Guyon, D", "van Halder, I",
                          "Jactel, H", "Menassieu, P", "Piou, D"]
    assert pa.search_terms == [("RIPLEY BD", "rauth"), ("DENSITY ESTIM*", "rwork"),
                               ("MULTI*", "rwork")]
    assert pa.year == 2009

    for parsed in ([ra], [pa]):
        assert records.load_records(records.dump_records(parsed)) == parsed


def test_c3_ca_property_suite():
    assert_ca_properties(corpus.load_fixture("Table2"))
    rng = np.random.default_rng(1994)
    for _ in range(50):
        assert_ca_properties(random_table(rng, 3, 20))


def test_c4_axis1_dominance_and_hum_extremity():
    table = corpus.load_fixture("Table2")
    result = ca.ca_fit(table)
    pct = result.inertia_percentages
    assert pct[0] > pct[1]
    axis1 = np.abs(result.row_coords[:, 0])
    assert table.row_labels[int(axis1.argmax())] == "Hum"
    hum = result.row_coords[table.row_labels.index("Hum")]
    print(f"\ncomputed Hum coordinates: ({hum[0]:+.3f}, {hum[1]:+.3f}); "
          f"published value for comparison only: (-1.168, 0.251)")


def test_c5_year_split_two_cut():
    result = ca.ca_fit(corpus.load_fixture("Table2"))
    dendrogram = ward.ward_hac(ward.embed_for_clustering(result))
    partition = ward.cut(dendrogram, 2)
    early = {partition.assignment[str(y)] for y in range(1994, 2004)}
    late = {partition.assignment[str(y)] for y in range(2004, 2012)}
    assert len(early) == 1, "1994-2003 must share one branch"
    assert len(late) == 1, "2004-2011 must share one branch"
    assert early != late


def test_c6_ward_matches_naive_oracle_on_200_instances():
    rng = np.random.default_rng(63)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 6))
        coords = rng.normal(size=(n, d))
        points = ward.PointSet(tuple(f"p{i}" for i in range(n)), coords, np.ones(n))
        merges = ward.ward_hac(points).merges
        oracle = naive_ward(coords, np.ones(n))
        assert [(m.a, m.b, m.new_id) for m in merges] == \
               [(a, b, i) for a, b, _, i, _ in oracle]
        heights = np.array([m.height for m in merges])
        assert np.abs(heights - np.array([h for _, _, h, _, _ in oracle])).max() <= TOL
        assert (np.diff(heights) >= -TOL).all()


def _synthetic_corpus(rng, size=100):
    vocab = [
        "cluster", "network", "analysis", "spatial", "bayes", "kernel",
        "survey", "pattern", "graph", "tree", "model", "density", "scaling",
        "fuzzy", "neural", "taxonomy", "genome", "market", "image", "speech",
    ]
    names = ["ARABIE P", "WARD JH", "RIPLEY BD", "SOKAL RR", "HARTIGAN JA"]
    journals = ["J CLASSIF", "PATTERN RECOGN", "SYST ZOOL", "PSYCHOMETRIKA"]
    out = []
    for i in range(size):
        title = " ".join(rng.choice(vocab, size=rng.integers(3, 8)))
        out.append(records.BibRecord(
            title=title,
            raw_format=records.RecordFormat.RESEARCH_ALERT,
            authors=list(rng.choice(names, size=rng.integers(1, 4), replace=False)),
            source=f"{rng.choice(journals)} {rng.integers(1, 40)} 19{rng.integers(80, 100)}",
            keywords=[" ".join(rng.choice(vocab, size=2)) for _ in range(rng.integers(0, 3))],
            address=f"institute {i % 7} building {rng.choice(vocab)}",
        ))
    return out


def test_c7_search_semantics_against_linear_scan():
    rng = np.random.default_rng(85020)
    corpus_records = _synthetic_corpus(rng)
    index = search.build_index(corpus_records)
    fields = _doc_terms(corpus_records)
    vocab = sorted({t for f in fields for c in f.values() for t in c})

    field_bound_queries = 0
    for _ in range(100):
        n_conjuncts = int(rng.integers(1, 4))
        parts = []
        for _ in range(n_conjuncts):
            term = str(rng.choice(vocab + ["absentterm"]))
            if rng.random() < 0.3:
                name = str(rng.choice(search.FIELDS))
                parts.append(f"{name}:{term}")
            else:
                parts.append(term)
        query = search.parse_query(" AND ".join(parts))
        got = search.ranked_matches(index, query)
        want = linear_scan_search(corpus_records, fields, query,
                                  search.DEFAULT_FIELD_WEIGHTS)
        assert got == want, f"query {parts} diverged from the linear scan"
        for conjunct in query.conjuncts:
            if conjunct.field:
                field_bound_queries += 1
                assert all(conjunct.term in fields[i][conjunct.field] for i in got)
    assert field_bound_queries > 10

    arabie = search.ranked_matches(index, search.parse_query("author:Arabie"))
    assert arabie
    assert all("arabie" in fields[i]["authors"] for i in arabie)

    for doc_id in rng.integers(0, len(corpus_records), size=20):
        assert len(search.more_like_this(index, int(doc_id))) == 3

    broad = search.parse_query(str(rng.choice(vocab)))
    while len(search.ranked_matches(index, broad)) < 25:
        broad = search.parse_query(str(rng.choice(vocab)))
    assert len(search.search(index, broad, 1)) == 10
    assert len(search.search(index, broad, 2)) == 10


def test_c8_end_to_end_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["analyze", "--fixture", "Table2", "--supplementary", "Table1", "--k", "5"]
    assert main(argv + ["--outdir", str(out_a)]) == 0
    assert main(argv + ["--outdir", str(out_b)]) == 0
    names = ["coordinates.csv", "inertia.csv", "dendrogram.nwk", "partition.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
