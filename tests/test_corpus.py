import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibcarto.corpus import (
    ContingencyTable,
    DisciplineLexicon,
    EntryError,
    LexiconEntry,
    ProfileCatalog,
    ProfileEntry,
    build_table,
    filter_records,
    load_fixture,
    match_profiles,
    tag_disciplines,
    tally,
)
from bibcarto.errors import DataError, InputFormatError
from bibcarto.records import BibRecord, RecordFormat, parse_records

from helpers import naive_author_matches, naive_disciplines

TABLE2_LABELS = ("Med", "Bio", "Phys", "Chem", "Astr", "Math", "Stat",
                 "Eng", "Psych", "Psy", "Lit", "Hum", "Eco", "Soc")


def _record(**kwargs):
    kwargs.setdefault("title", "untitled")
    kwargs.setdefault("raw_format", RecordFormat.RESEARCH_ALERT)
    return BibRecord(**kwargs)


# ---------------------------------------------------------------- fixtures

def test_table1_shape_and_verbatim_total():
    table = load_fixture("Table1")
    assert table.counts.shape == (82, 18)
    assert table.col_labels == tuple(range(1994, 2012))
    # The published caption claims 135,088 but that figure equals both
    # bundled tables combined; the table as printed sums to 111,091.
    assert table.n == 111_091


def test_table2_shape_and_total():
    table = load_fixture("Table2")
    assert table.counts.shape == (14, 18)
    assert table.row_labels == TABLE2_LABELS
    assert table.n == 23_997


def test_table2_spot_cells():
    table = load_fixture("Table2")
    assert table.counts[0, 0] == 1          # Med, 1994
    assert table.counts[table.row_labels.index("Bio")][0] == 334
    assert table.counts[table.row_labels.index("Soc")][-1] == 12


def test_table1_spot_cells():
    table = load_fixture("Table1")
    assert table.counts[table.row_labels.index("Adams72")][0] == 8
    assert table.counts[table.row_labels.index("Duda73")][-1] == 1316
    assert table.counts[table.row_labels.index("Bishop95")][8] == 262   # 2002


def test_fixtures_stable_across_loads():
    a, b = load_fixture("Table1"), load_fixture("Table1")
    assert a.row_labels == b.row_labels
    assert np.array_equal(a.counts, b.counts)
    assert a.to_csv() == b.to_csv()


def test_unknown_fixture():
    with pytest.raises(DataError):
        load_fixture("Table9")


def test_fixture_counts_read_only():
    table = load_fixture("Table2")
    with pytest.raises(ValueError):
        table.counts[0, 0] = 99


# ---------------------------------------------------------------- catalog

def test_default_catalog_has_82_unique_entries():
    catalog = ProfileCatalog.default()
    assert len(catalog.entries) == 82
    assert len(set(catalog.ids)) == 82
    assert catalog.ids == list(load_fixture("Table1").row_labels)


def test_merged_entries_list_constituents():
    catalog = ProfileCatalog.default()
    by_id = {e.id: e for e in catalog.entries}
    assert by_id["Kruskal64,78"].merged_ids == ("Kruskal64", "Kruskal78")
    assert by_id["Hubert7685"].merged_ids == ("Hubert76", "Hubert85")
    assert by_id["McLachlan88,92,97"].match_tokens == (
        "MCLACHLAN GJ 88", "MCLACHLAN GJ 92", "MCLACHLAN GJ 97"
    )
    assert by_id["Breiman84"].merged_ids == ()


def test_match_profiles_research_alert(research_alert_text):
    (rec,) = parse_records(research_alert_text)
    assert match_profiles(rec, ProfileCatalog.default()) == {"Breiman84"}


def test_match_profiles_personal_alert(personal_alert_text):
    (rec,) = parse_records(personal_alert_text)
    assert match_profiles(rec, ProfileCatalog.default()) == {"Ripley81"}


def test_match_profiles_whitespace_normalization():
    rec = _record(profile_citations=["BREIMAN  L     84"])
    assert match_profiles(rec, ProfileCatalog.default()) == {"Breiman84"}


def test_match_profiles_merged_id_reported():
    rec = _record(profile_citations=["KRUSKAL JB 64"])
    assert match_profiles(rec, ProfileCatalog.default()) == {"Kruskal64,78"}


def test_match_profiles_none_cited():
    rec = _record(profile_citations=["NOBODY X 00"])
    assert match_profiles(rec, ProfileCatalog.default()) == set()
    assert match_profiles(_record(), ProfileCatalog.default()) == set()


def test_match_profiles_rwork_terms_ignored():
    rec = _record(
        raw_format=RecordFormat.PERSONAL_ALERT,
        search_terms=[("BREIMAN L", "rwork")],
    )
    assert match_profiles(rec, ProfileCatalog.default()) == set()


def test_match_profiles_author_prefix_wildcard():
    rec = _record(
        raw_format=RecordFormat.PERSONAL_ALERT,
        search_terms=[("MCLACH*", "rauth")],
    )
    assert match_profiles(rec, ProfileCatalog.default()) == {"McLachlan88,92,97"}


def test_catalog_round_trips_through_text():
    catalog = ProfileCatalog.default()
    text = "\n".join(
        "\t".join(
            [e.id, ",".join(e.match_tokens)] + ([",".join(e.merged_ids)] if e.merged_ids else [])
        )
        for e in catalog.entries
    )
    again = ProfileCatalog.from_text(text)
    assert again.entries == catalog.entries


# ---------------------------------------------------------------- lexicon

def test_default_lexicon_labels():
    lexicon = DisciplineLexicon.default()
    assert len(lexicon.labels) == 16
    assert tuple(lexicon.labels[:14]) == TABLE2_LABELS
    assert lexicon.labels[14:] == ["Ecol", "Mgt"]


def test_tag_disciplines_source_only():
    rec = _record(source="FOREST ECOLOGY AND MANAGEMENT 257 (7). MAR 22 2009. "
                         "p.1551-1557 ELSEVIER SCIENCE BV, AMSTERDAM")
    assert tag_disciplines(rec, DisciplineLexicon.default()) == {"Ecol", "Mgt"}


def test_tag_disciplines_keyword_only():
    rec = _record(keywords=["MATHEMATICAL SCIENCES - Computer Science"])
    assert tag_disciplines(rec, DisciplineLexicon.default()) == {"Math"}


def test_tag_disciplines_full_sample_records(research_alert_text, personal_alert_text):
    lexicon = DisciplineLexicon.default()
    (ra,) = parse_records(research_alert_text)
    (pa,) = parse_records(personal_alert_text)
    # hand-checked: "Engineering Designs" in the title; "Ecology" and
    # "Management" in the source, "Spatial statistics" in the keywords
    assert tag_disciplines(ra, lexicon) == {"Math", "Eng"}
    assert tag_disciplines(pa, lexicon) == {"Ecol", "Mgt", "Stat"}


def test_tag_disciplines_no_hit():
    rec = _record(title="A theory of porridge", source="BREAKFAST QUARTERLY")
    assert tag_disciplines(rec, DisciplineLexicon.default()) == set()


def test_taggers_are_pure(research_alert_text):
    (rec,) = parse_records(research_alert_text)
    catalog, lexicon = ProfileCatalog.default(), DisciplineLexicon.default()
    assert match_profiles(rec, catalog) == match_profiles(rec, catalog)
    assert tag_disciplines(rec, lexicon) == tag_disciplines(rec, lexicon)


def test_tag_disciplines_case_insensitive():
    rec = _record(title="advances in psychiatry and psychology")
    assert tag_disciplines(rec, DisciplineLexicon.default()) == {"Psy", "Psych"}


def test_overlapping_terms_longest_wins_per_word():
    lexicon = DisciplineLexicon.from_text("Psy\tPsych\nPsych\tPsychology\n")
    one_word = _record(title="PSYCHOLOGY TODAY")
    assert tag_disciplines(one_word, lexicon) == {"Psych"}
    other_word = _record(title="PSYCHIC RESEARCH")
    assert tag_disciplines(other_word, lexicon) == {"Psy"}
    both = _record(title="PSYCHOLOGY AND PSYCHIC RESEARCH")
    assert tag_disciplines(both, lexicon) == {"Psy", "Psych"}


# ---------------------------------------------------------------- vocabulary text

def test_catalog_rejects_a_token_of_two_entries():
    text = "Ward63\tWARD JH 63\nWolfe70\tWOLFE JH 70\nWard\tSOKAL RR 63,  ward  jh 63\n"
    with pytest.raises(InputFormatError) as err:
        ProfileCatalog.from_text(text)
    assert err.value.line_no == 3
    assert "'WARD JH 63' already belongs to 'Ward63'" in str(err.value)
    with pytest.raises(EntryError) as err:
        ProfileCatalog([ProfileEntry("A", ("X 84",)), ProfileEntry("B", ("x  84",))])
    assert err.value.index == 1
    # the same token twice in one entry is one token
    assert ProfileCatalog.from_text("A\tX 84,X  84\n").match_citation("x 84") == "A"


@pytest.mark.parametrize("vocabulary, text, line_no, reason", [
    (ProfileCatalog, "A\tX 63\nA\tY 63\nB Z 63\n", 2, "duplicate id 'A'"),
    (ProfileCatalog, "A\tX 63\nB\tx  63\nC Z 63\n", 2, "token 'X 63' already belongs to 'A'"),
    (DisciplineLexicon, "Net\tnetwork\n# note\nNet\tnets\nMed medicine\n", 3,
     "duplicate label 'Net'"),
])
def test_vocabulary_names_its_first_bad_line(vocabulary, text, line_no, reason):
    # a duplicate before the line that has no tab is the error reported
    with pytest.raises(InputFormatError) as err:
        vocabulary.from_text(text)
    assert (err.value.line_no, err.value.reason) == (line_no, reason)


def test_bundled_catalog_tokens_are_distinct():
    tokens = [" ".join(t.split()).upper()
              for e in ProfileCatalog.default().entries for t in e.match_tokens]
    assert len(tokens) == len(set(tokens)) == 91


def test_lexicon_extra_columns_ignored():
    lexicon = DisciplineLexicon.from_text("Net\tnetwork, nets \textra\tmore\n")
    assert lexicon.entries == [LexiconEntry("Net", ("network", "nets"))]


# ---------------------------------------------------------------- matchers vs oracles

_fragments = st.sampled_from(["a", "b", "ab", "c++", "(", ".", "*", "İ", "i", "\u0307", " ",
                              "\n"])
_terms = st.lists(_fragments, min_size=1, max_size=4).map("".join)


@st.composite
def _lexicons(draw):
    """Lexicons over a tiny alphabet, so terms share prefixes and repeat;
    one term is copied under a second label on purpose."""
    labels = draw(st.lists(st.sampled_from("PQRST"), min_size=1, max_size=4, unique=True))
    terms = {label: draw(st.lists(_terms, min_size=1, max_size=3)) for label in labels}
    if len(labels) > 1 and draw(st.booleans()):
        terms[labels[1]].append(terms[labels[0]][0].upper())
    return [LexiconEntry(label, tuple(ts)) for label, ts in terms.items()]


_haystacks = st.lists(_fragments | st.sampled_from(["AB", "C++", "x", "; "]),
                      max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(entries=_lexicons(), title=_haystacks, source=_haystacks,
       keywords=st.lists(_haystacks, max_size=2))
def test_tag_disciplines_matches_the_shadowing_scan(entries, title, source, keywords):
    rec = _record(title=title, source=source, keywords=keywords, keywords_plus=keywords[::-1])
    assert tag_disciplines(rec, DisciplineLexicon(entries)) == naive_disciplines(rec, entries)


def test_tag_disciplines_shared_term_fires_every_label():
    entries = [LexiconEntry("A", ("C++", "c")), LexiconEntry("B", ("c++",)),
               LexiconEntry("C", ("c+",))]
    rec = _record(title="Programming in c++ (Cfront)")
    assert tag_disciplines(rec, DisciplineLexicon(entries)) == {"A", "B"}
    assert naive_disciplines(rec, entries) == {"A", "B"}


def test_a_term_with_a_line_break_never_spans_two_fields():
    # the tagger scans the fields joined by "\n" before it checks them one by one
    entries = [LexiconEntry("A", ("a\nb",))]
    lexicon = DisciplineLexicon(entries)
    split = _record(title="xa", source="by")
    assert tag_disciplines(split, lexicon) == naive_disciplines(split, entries) == set()
    whole = _record(title="xa\nby")
    assert tag_disciplines(whole, lexicon) == naive_disciplines(whole, entries) == {"A"}
    # nor does it shadow a shorter term across the join
    entries.append(LexiconEntry("B", ("a",)))
    lexicon = DisciplineLexicon(entries)
    assert tag_disciplines(split, lexicon) == naive_disciplines(split, entries) == {"B"}
    assert tag_disciplines(whole, lexicon) == naive_disciplines(whole, entries) == {"A"}


_authors = st.sampled_from(["WARD JH", "WARD J", "WARDLE", "WOLFE JH", "MC LACHLAN GJ", "SOKAL"])


@st.composite
def _catalogs(draw):
    """Catalogs with author parts that share prefixes, tokens with and
    without a two-digit year, and padded whitespace; tokens are distinct."""
    tokens = draw(st.lists(st.tuples(_authors, st.sampled_from(["", " 63", "  70", " 1999"])),
                           min_size=1, max_size=6,
                           unique_by=lambda t: " ".join((t[0] + t[1]).split())))
    ids = draw(st.lists(st.sampled_from("ABCD"), min_size=len(tokens), max_size=len(tokens)))
    by_id = {}
    for pid, (author, year) in zip(ids, tokens):
        by_id.setdefault(pid, []).append(author.replace(" ", "  ", 1) + year)
    return [ProfileEntry(pid, tuple(ts)) for pid, ts in by_id.items()]


# Exact author parts (any case), prefixes with "*", a bare "*" and unknown terms.
_rauth_terms = (
    _authors
    | _authors.map(str.lower)
    | st.tuples(_authors, st.integers(1, 6)).map(lambda t: t[0][: t[1]] + "*")
    | st.sampled_from(["*", "**", " * ", "", "NOBODY", "WARD*JH", "WARD JH 63"])
)


@settings(max_examples=300, deadline=None)
@given(entries=_catalogs(), terms=st.lists(_rauth_terms, min_size=1, max_size=4))
def test_match_author_term_matches_the_catalog_scan(entries, terms):
    catalog = ProfileCatalog(entries)
    for term in terms:
        assert catalog.match_author_term(term) == naive_author_matches(entries, term)
    default = ProfileCatalog.default()
    for term in terms:
        assert default.match_author_term(term) == naive_author_matches(default.entries, term)


# Author parts in sorted order: "WARD" < "WARD JH" < "WARD-SMITH" < "WARDE" <
# "WARE" < "ÅSTRÖM KJ"; a wildcard walks forward from where its prefix sorts.
_NEIGHBOURS = [ProfileEntry("Ward", ("WARD 63",)), ProfileEntry("WardJH", ("WARD JH 63",)),
               ProfileEntry("WardSmith", ("WARD-SMITH 70",)), ProfileEntry("Warde", ("WARDE 80",)),
               ProfileEntry("Ware", ("WARE 90",)), ProfileEntry("Astrom", ("ÅSTRÖM KJ 70",))]


@pytest.mark.parametrize("term, expected", [
    ("WARD*", {"Ward", "WardJH", "WardSmith", "Warde"}),
    ("ward *", {"Ward", "WardJH", "WardSmith", "Warde"}),
    ("WARD", {"Ward"}),
    ("WARD J*", {"WardJH"}),
    ("WARD-*", {"WardSmith"}),
    ("WARDE*", {"Warde"}),
    ("WAR*", {"Ward", "WardJH", "WardSmith", "Warde", "Ware"}),
    ("WARE*", {"Ware"}),
    ("WARF*", set()),          # sorts between WARE and ÅSTRÖM KJ
    ("åst*", {"Astrom"}),      # the last author part in sort order
    ("ÅSTRÖM KJ*", {"Astrom"}),
    ("ÅSTRÖM KJX*", set()),    # sorts after every author part
    ("Ö*", set()),
    ("A*", set()),             # sorts before every author part
])
def test_match_author_term_at_neighbouring_prefixes(term, expected):
    catalog = ProfileCatalog(_NEIGHBOURS)
    assert catalog.match_author_term(term) == naive_author_matches(_NEIGHBOURS, term) == expected
    reordered = _NEIGHBOURS[::-1]
    assert ProfileCatalog(reordered).match_author_term(term) == expected


# ---------------------------------------------------------------- filtering

def test_filter_excludes_by_title_phrase():
    hit = _record(title="Weighing the Galaxy Cluster Population")
    miss = _record(title="Clustering gene expression data")
    kept, excluded = filter_records([hit, miss])
    assert kept == [miss]
    assert excluded == [hit]


def test_filter_empty_exclusion_list_keeps_all():
    records = [_record(title="galaxy cluster counts")]
    kept, excluded = filter_records(records, ())
    assert kept == records and excluded == []


def test_filter_matches_after_continuation_join():
    text = "T   A survey of galaxy\nT   cluster cosmology\nW.  X Y 99\n"
    records = parse_records(text)
    kept, excluded = filter_records(records)
    assert kept == [] and len(excluded) == 1


# ---------------------------------------------------------------- tables

def _table(records, tagger, rows, year_range):
    """The table of one tally of ``records``."""
    return build_table([tally(records, tagger, rows, year_range)], rows, year_range)


def test_build_table_single_incidence():
    rec = _record(title="only", year=2000)
    table, skipped = _table([rec], lambda r: {"only-label"}, ["only-label"], (2000, 2000))
    assert table.counts.tolist() == [[1]]
    assert skipped == 0


def test_build_table_skips_out_of_range_years():
    records = [
        _record(title="in", year=2000),
        _record(title="early", year=1980),
        _record(title="none", year=None),
    ]
    table, skipped = _table(records, lambda r: {"x"}, ["x"], (1994, 2011))
    assert table.n == 1
    assert skipped == 2


def test_build_table_ignores_labels_outside_rows():
    rec = _record(title="t", year=2000)
    table, _ = _table([rec], lambda r: {"x", "unknown"}, ["x"], (2000, 2001))
    assert table.n == 1


def test_build_table_empty_raises():
    rec = _record(title="t", year=2000)
    assert tally([rec], lambda r: set(), ["x"], (2000, 2001)) == ([[0, 0]], 0)
    with pytest.raises(DataError,
                       match=r"^no \(record, label\) incidences in the year range$"):
        _table([rec], lambda r: set(), ["x"], (2000, 2001))
    with pytest.raises(DataError,
                       match=r"^no \(record, label\) incidences in the year range$"):
        build_table([], ["x"], (2000, 2001))


def test_build_table_empty_year_range_is_a_data_error():
    rec = _record(title="t", year=2000)
    with pytest.raises(DataError, match="^empty year range$"):
        tally([rec], lambda r: {"x"}, ["x"], (2001, 2000))
    with pytest.raises(DataError, match="^empty year range$"):
        build_table([], ["x"], (2001, 2000))


@pytest.mark.parametrize("counts", [[[1, 0]], [[1], [0]], [[1, 0], [0, 0], [0, 0]]])
def test_build_table_refuses_a_tally_of_another_shape(counts):
    with pytest.raises(DataError, match=r"^a tally must hold 2 row\(s\) of 2 count\(s\)$"):
        build_table([([[0, 1], [1, 0]], 0), (counts, 0)], ["x", "y"], (2000, 2001))


@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(min_value=1995, max_value=2010)),
            st.sets(st.sampled_from("abcde"), max_size=3),
        ),
        min_size=1,
        max_size=40,
    ),
    st.data(),
)
def test_build_table_matches_naive_recount(spec, data):
    records = [_record(title=f"r{i}", year=year) for i, (year, _) in enumerate(spec)]
    labels_for = {f"r{i}": labels for i, (_, labels) in enumerate(spec)}
    rows = list("abcde")
    year_range = (1998, 2008)
    expected = sum(
        1
        for year, labels in spec
        if year is not None and year_range[0] <= year <= year_range[1]
        for label in labels
    )
    # the records in batches, as tables tallies them one alert file at a time
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=3)))
    batches = [records[i:j] for i, j in zip([0, *cuts], [*cuts, len(records)])]
    tallies = [tally(batch, lambda r: labels_for[r.title], rows, year_range)
               for batch in batches]
    if expected == 0:
        with pytest.raises(DataError,
                           match=r"^no \(record, label\) incidences in the year range$"):
            build_table(tallies, rows, year_range)
        return
    table, skipped = build_table(tallies, rows, year_range)
    assert table.n == expected
    assert table == _table(records, lambda r: labels_for[r.title], rows, year_range)[0]
    assert skipped == sum(
        1 for year, _ in spec
        if year is None or not year_range[0] <= year <= year_range[1]
    )


def test_contingency_table_masses_sum_to_one():
    table = load_fixture("Table2")
    assert abs(table.frequencies.sum(axis=1).sum() - 1.0) < 1e-12
    assert abs(table.frequencies.sum(axis=0).sum() - 1.0) < 1e-12
    assert (table.counts >= 0).all()


def test_contingency_table_rejects_bad_input():
    with pytest.raises(ValueError):
        ContingencyTable(("a",), (1, 2), np.array([[1, -2]]))
    with pytest.raises(ValueError):
        ContingencyTable(("a", "a"), (1,), np.array([[1], [2]]))
    with pytest.raises(ValueError):
        ContingencyTable(("a",), (1,), np.array([[1, 2]]))


def test_contingency_table_rejects_duplicate_column_labels():
    with pytest.raises(ValueError, match="duplicate column labels"):
        ContingencyTable(("a",), (1, 1), np.array([[1, 2]]))


@pytest.mark.parametrize("seed", range(20))
def test_contingency_table_from_lists_equals_from_array(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(0, 8, size=2))
    array = rng.integers(0, 10**6, size=shape, dtype=np.int64)
    rows = tuple(f"r{i}" for i in range(shape[0]))
    cols = tuple(range(1994, 1994 + shape[1]))
    from_lists = ContingencyTable(rows, cols, array.tolist())
    from_array = ContingencyTable(rows, cols, array)
    assert from_lists == from_array
    assert np.array_equal(from_lists.counts, from_array.counts)
    assert from_lists.counts.shape == shape
    assert from_lists.n == from_array.n == int(array.sum())
    assert from_lists.to_csv() == from_array.to_csv()
    counts = from_lists.counts
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert from_lists.counts is counts


def test_contingency_table_total_at_the_int64_limit():
    limit = 2**63 - 1
    table = ContingencyTable(("a", "b"), (1994,), [[limit - 1], [1]])
    assert table.n == limit and table.counts.sum() == limit
    assert ContingencyTable.from_csv(table.to_csv()).n == limit
    for counts in ([[limit], [1]], [[2**64], [0]]):  # past int64, then past uint64
        with pytest.raises(ValueError, match="exceeds"):
            ContingencyTable(("a", "b"), (1994,), counts)
    with pytest.raises(ValueError, match="exceeds"):  # the first row's fault wins
        ContingencyTable(("a", "b"), (1994,), [[2**64], [-1]])


def test_contingency_table_rejects_non_integer_counts():
    with pytest.raises(ValueError, match="integers"):
        ContingencyTable(("a",), (1, 2), [[1, 0.5]])
    with pytest.raises(ValueError, match="integers"):
        ContingencyTable(("a",), (1,), np.array([[1.0]]))


def test_contingency_table_csv_round_trip():
    table = load_fixture("Table2")
    again = ContingencyTable.from_csv(table.to_csv())
    assert again.row_labels == table.row_labels
    assert again.col_labels == table.col_labels
    assert np.array_equal(again.counts, table.counts)


@pytest.mark.parametrize("text, line_no", [
    ("", 1),
    ("\n\nlabel,1994\n", 3),                       # header only, after blank lines
    ("label,1994,1994\nx,1,2\n", 1),                 # duplicate years
    ("label,1994,1995\nx,1,2\ny,3\n", 3),            # ragged
    ("label,1994\nx,1\n\nx,2\n", 4),                 # duplicate label
    ("label,1994\nx,1.5\n", 2),
    ("label,1994\nx,-1\n", 2),
    ("label,1994\nx,9223372036854775807\ny,1\n", 3),  # total overflows int64
    ('label,1994\nx,"1"2\n', 2),                     # text after a closing quote
    ('label,1994\n"a" ,1\n', 2),
    ('label,1994\nx,1\n"y,1\nz,2\n', 3),             # unclosed quote
    pytest.param(f'label,1994\n"a\n{"1" * 200_000}",1\n', 2,  # named where its record starts
                 id="field-limit-in-a-two-line-record"),
])
def test_from_csv_rejects_malformed_naming_line(text, line_no):
    with pytest.raises(InputFormatError) as err:
        ContingencyTable.from_csv(text)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: ")


@pytest.mark.parametrize("text, line_no, reason", [
    ("label,1994\n,1\n", 2, "blank row label"),
    ("label,1994\na,1\n \t,2\n", 3, "blank row label"),
    ('label,1994\n"a\nb",1\n', 2, "row label 'a\\nb' holds a line break"),
    ('label,1994\n"a\rb",1\n', 2, "row label 'a\\nb' holds a line break"),
    ("label,1994\na\x85b,1\n", 2, "expected 1 counts, got 0"),
    ("label,1994\na\u2028b,1\n", 2, "expected 1 counts, got 0"),
    ('\nlabel,"19\n94",1995\nx,1,2\n', 2, "column label '19\\n94' holds a line break"),
    ("label,1994,a\x0bb\nx,1,2\n", 2, "expected 2 counts, got 0"),
    # a label precedes its row's counts, so its fault is named first
    ("label,1994\n,q\n", 2, "blank row label"),
    ("label,1994\n,+1\n", 2, "blank row label"),
    ('label,1994\n"a\nb",q\n', 2, "row label 'a\\nb' holds a line break"),
    ("label,1994\nx,-1\n,q\n", 2, "negative count"),
    ("label,1994\nx,1\nx,q\n", 3, "counts must be integers"),
    # a header's line breaks are named before a year too long for int()
    pytest.param(f'label,"a\nb",{"9" * 5000}\nx,1,2\n', 1,
                 "column label 'a\\nb' holds a line break", id="header-break-then-long-year"),
    pytest.param(f'label,{"9" * 5000},"a\nb"\nx,1,2\n', 1,
                 "column label 'a\\nb' holds a line break", id="header-long-year-then-break"),
    pytest.param(f"label,a,a,{'9' * 5000}\nx,1,2,3\n", 1,
                 "column label too long for a year", id="header-long-year-and-repeat"),
])
def test_from_csv_rejects_blank_and_line_breaking_labels(text, line_no, reason):
    # the line named is the one where the offending record starts; a row
    # ends at every str.splitlines line end, and a quoted one reads as "\n"
    with pytest.raises(InputFormatError) as err:
        ContingencyTable.from_csv(text)
    assert (err.value.line_no, err.value.reason) == (line_no, reason)


@pytest.mark.parametrize("text, line_no, reason", [
    ("label,1994\nx,-1\ny,z\n", 2, "negative count"),
    ("label,1994\nx,-1\ny,2,3\n", 2, "negative count"),
    ("label,1994\nx,-1\nx,2\n", 2, "negative count"),
    ('label,1994\nx,-1\n"y,1\n', 2, "negative count"),
    ("label,1994\nx,9223372036854775807\ny,1\nz,q\n", 3, "counts total exceeds 2**63 - 1"),
    ("label,1994\nx,18446744073709551616\ny,-1\n", 2, "counts total exceeds 2**63 - 1"),
    ("label,1994\nx,1\ny,-1\nx,2\n", 3, "negative count"),
    ("label,1994\nx,1\nx,2\ny,-1\n", 3, "duplicate row label 'x'"),
    ("label,1994\nx,1\nx,2\ny,q\n", 3, "duplicate row label 'x'"),
    ("label,1994\nx,-1\n,2\n", 2, "negative count"),
    ("label,1994,1994\nx,1\n", 1, "duplicate column labels"),
    ("label,1994,1994\n", 1, "duplicate column labels"),
])
def test_from_csv_names_a_count_error_before_a_later_bad_line(text, line_no, reason):
    # a row the constructor rejects (a repeated label, a negative count or
    # an overflowing total) is found only once a row fails or all rows are
    # read, but its own line is the one named, and the first bad row wins;
    # repeated column labels are named on the header
    with pytest.raises(InputFormatError) as err:
        ContingencyTable.from_csv(text)
    assert (err.value.line_no, err.value.reason) == (line_no, reason)


@pytest.mark.parametrize("make, message, index", [
    (lambda: ContingencyTable(("a", "b", "a"), (1994,), [[1], [2], [3]]),
     "duplicate row label 'a'", 2),
    (lambda: ContingencyTable(("a",), (1994, 1994), [[1, 2]]), "duplicate column labels", None),
    (lambda: ContingencyTable(("a",), (1994, 1995), [[1, 0.5]]), "counts must be integers", None),
    (lambda: ContingencyTable(("a", "b"), (1994,), [[1], [-1]]), "negative count", 1),
    (lambda: ContingencyTable(("a", "b"), (1994,), [[2**63 - 1], [1]]),
     "counts total exceeds 2**63 - 1", 1),
    (lambda: ContingencyTable(("a", "b"), (1994,), [[2**64], [-1]]),
     "counts total exceeds 2**63 - 1", 0),
    (lambda: ContingencyTable(("a", "b"), (1994,), [[-1], [1]]), "negative count", 0),
    (lambda: ContingencyTable(("a", "a"), (1994,), [[1], [-1]]), "duplicate row label 'a'", 1),
    (lambda: ContingencyTable(("a",), (1994,), [[1], [2]]),
     "counts shape does not match labels", None),
    (lambda: load_fixture("Table9"), "unknown fixture 'Table9'; expected one of "
     "['Table1', 'Table2']", None),
], ids=["repeated-row-label", "repeated-column-label", "non-integer", "negative",
        "total-past-int64", "first-row-wins", "negative-first", "repeat-before-negative",
        "shape", "unknown-fixture"])
def test_bad_tables_raise_a_data_error(make, message, index):
    # the constructor alone decides a table's rules; a row's fault names the row
    with pytest.raises(DataError) as err:
        make()
    assert str(err.value) == message
    assert isinstance(err.value, EntryError) == (index is not None)
    assert getattr(err.value, "index", None) == index


@pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "+3", "\uff17", "- 3", "0x1", ""])
def test_from_csv_counts_follow_the_year_header_rule(cell):
    # int() alone reads "1_000", "+3" and non-ASCII digits; a count, like a
    # year header, is an optionally negative ASCII digit run
    with pytest.raises(InputFormatError) as err:
        ContingencyTable.from_csv(f"label,1994,1995\na,1,2\nb,4,{cell}\n")
    assert (err.value.line_no, err.value.reason) == (3, "counts must be integers")


@pytest.mark.parametrize("text", ["label,1994\na,1\n", "label,1994\n\u00e9,1\n",
                                  "label,1994\na_b,1\n", "label,1994\na+b,1\n"])
def test_from_csv_counts_keep_blanks_around_digits(text):
    # the cells are checked one by one only in text int() could misread
    table = ContingencyTable.from_csv(text.replace(",1", ", 7 "))
    assert table.rows == ((7,),)
    assert ContingencyTable.from_csv(text.replace(",1", ",\u00a0-0\t")).rows == ((0,),)


def test_from_csv_keeps_labels_with_inner_spaces_and_an_empty_column_label():
    table = ContingencyTable.from_csv("label,1994,\n a b ,1,2\n")
    assert table.row_labels == (" a b ",)
    assert table.col_labels == (1994, "")


def test_from_csv_year_headers_become_ints():
    table = ContingencyTable.from_csv("label,1994,-3,x1,\u0661\na,1,2,3,4\n")
    assert table.col_labels == (1994, -3, "x1", "\u0661")
