import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibcarto.errors import DataError
from bibcarto.records import BibRecord, RecordFormat
from bibcarto.search import (
    DEFAULT_FIELD_WEIGHTS,
    FIELDS,
    PAGE_SIZE,
    Postings,
    QueryError,
    _BLOCK,
    build_index,
    more_like_this,
    parse_query,
    ranked_matches,
    search,
    tokenize,
)

from helpers import (
    _doc_terms,
    linear_scan_search,
    naive_build_index,
    naive_more_like_this,
    naive_ranked_matches,
    naive_tokenize,
)


def _record(title, authors=(), source="", keywords=(), keywords_plus=(), address=""):
    return BibRecord(
        title=title,
        raw_format=RecordFormat.RESEARCH_ALERT,
        authors=list(authors),
        source=source,
        keywords=list(keywords),
        keywords_plus=list(keywords_plus),
        address=address,
    )


TOY = [
    _record("Computational methods for network analysis", authors=["ARABIE P"]),
    _record("Neural network training", keywords=["computational biology"]),
    _record("Social network surveys", source="J NETWORKS 2 1999"),
    _record("Computational geometry", address="Network House, Dublin"),
    _record("Pottery of the bronze age"),
]


def test_build_index_empty():
    index = build_index([])
    assert index.doc_count == 0
    assert len(index.postings) == 0
    assert index.postings.row("absent", "title")[0].size == 0


def test_title_tokens_posted_under_title():
    index = build_index([_record("Numerical Optimizations of Designs")])
    assert index.postings.row("numerical", "title")[0].tolist() == [0]
    assert index.postings.row("numerical", "source")[0].size == 0


def test_duplicate_records_get_distinct_ids():
    rec = _record("same thing twice")
    index = build_index([rec, rec])
    assert index.doc_count == 2
    assert index.postings.row("same", "title")[0].tolist() == [0, 1]


def test_parse_query_conjuncts():
    query = parse_query("computational AND network")
    assert [(c.field, c.term) for c in query.conjuncts] == [
        (None, "computational"),
        (None, "network"),
    ]


def test_parse_query_field_binding_and_alias():
    (conjunct,) = parse_query("author:Arabie").conjuncts
    assert conjunct.field == "authors"
    assert conjunct.term == "arabie"


def test_parse_query_lowercase_and_is_a_term():
    query = parse_query("salt and pepper")
    assert [c.term for c in query.conjuncts] == ["salt", "and", "pepper"]


def test_parse_query_errors():
    with pytest.raises(QueryError, match="^query has no search terms$"):
        parse_query("")
    with pytest.raises(QueryError, match="^query has no search terms$"):
        parse_query("AND")
    with pytest.raises(QueryError, match="^empty term in conjunct 'title:'$"):
        parse_query("title:")
    with pytest.raises(QueryError, match="^unknown field 'venue'$"):
        parse_query("venue:nature")


def test_conjunction_semantics():
    index = build_index(TOY)
    hits = ranked_matches(index, parse_query("computational AND network"))
    # 0 and 3 through their titles, 1 through keyword + title; 2 lacks
    # "computational" anywhere and must stay out
    assert set(hits) == {0, 1, 3}


def test_field_constraint_soundness():
    index = build_index(TOY)
    hits = ranked_matches(index, parse_query("author:Arabie"))
    assert hits == [0]
    assert all("arabie" in tokenize(" ".join(TOY[i].authors)) for i in hits)
    # doc 3 has "network" only in its address, so a title-bound query skips it
    assert ranked_matches(index, parse_query("title:network")) == [0, 1, 2]


def test_no_match_is_empty_page():
    index = build_index(TOY)
    assert search(index, parse_query("unobtainium")) == []


def test_title_weight_outranks_other_fields():
    index = build_index(TOY)
    ranked = ranked_matches(index, parse_query("computational"))
    assert ranked[0] == 0 or ranked[0] == 3
    # doc 1 matches only through a keyword (weight 2 < title weight 3)
    assert ranked.index(1) > ranked.index(0)


def test_matches_linear_scan_oracle_on_toy_corpus():
    index = build_index(TOY)
    fields = _doc_terms(TOY)
    for text in ("network", "computational AND network", "title:network",
                 "author:arabie", "the", "bronze AND age"):
        query = parse_query(text)
        assert ranked_matches(index, query) == linear_scan_search(
            TOY, fields, query, DEFAULT_FIELD_WEIGHTS
        )


@pytest.mark.parametrize("text, conjuncts_read", [
    ("network", 1),
    ("computational AND title:network", 2),
    ("author:arabie computational", 2),
    ("unobtainium AND network", 1),
    ("network title:unobtainium computational", 2),
    # pottery and network both match, but never in the same record
    ("pottery network computational", 2),
])
def test_ranked_matches_reads_each_row_once(text, conjuncts_read, monkeypatch):
    # one Postings.row call per (conjunct, field) it reads, scoring included,
    # and none after the first conjunct that leaves no match
    index = build_index(TOY)
    query = parse_query(text)
    calls = []
    real = Postings.row

    def row(self, term, name):
        calls.append((term, name))
        return real(self, term, name)

    monkeypatch.setattr(Postings, "row", row)
    ranked = ranked_matches(index, query)
    assert calls == [(conjunct.term, name) for conjunct in query.conjuncts[:conjuncts_read]
                     for name in ((conjunct.field,) if conjunct.field else FIELDS)]
    assert ranked == naive_ranked_matches(TOY, DEFAULT_FIELD_WEIGHTS, query)


def test_pagination_splits_ranked_results():
    records = [_record(f"shared term number {i}") for i in range(25)]
    index = build_index(records)
    query = parse_query("shared")
    pages = [search(index, query, p) for p in (1, 2, 3, 4)]
    assert [len(p) for p in pages] == [10, 10, 5, 0]
    assert pages[0] == list(range(10))
    assert PAGE_SIZE == 10
    with pytest.raises(ValueError):
        search(index, query, 0)


def test_more_like_this_singleton_corpus():
    index = build_index([_record("alone")])
    assert more_like_this(index, 0) == []


def test_more_like_this_identical_records_tie_by_id():
    rec = _record("all the same words", keywords=["match"])
    index = build_index([rec, rec, rec, rec])
    assert more_like_this(index, 1) == [0, 2, 3]


def test_more_like_this_hand_scored():
    records = [
        _record("spatial clustering of trees", keywords=["forests"]),
        _record("spatial clustering of beetles"),
        _record("random projections", keywords=["forests", "trees"]),
        _record("density estimation", source="journal of trees"),
        _record("clustering beetles near trees"),
    ]
    index = build_index(records)
    # shared with record 0: r1 three title words (9), r4 two title words (6),
    # r2 one keyword (2), r3 nothing field-for-field
    assert more_like_this(index, 0) == [1, 4, 2]


def test_more_like_this_never_self_never_more_than_three():
    index = build_index(TOY)
    for i in range(len(TOY)):
        result = more_like_this(index, i)
        assert i not in result
        assert len(result) == 3


def test_more_like_this_unknown_record():
    index = build_index(TOY)
    with pytest.raises(DataError, match="^no record with id 99$"):
        more_like_this(index, 99)


def test_ranking_deterministic_across_builds():
    a = build_index(TOY)
    b = build_index(list(TOY))
    query = parse_query("network")
    assert ranked_matches(a, query) == ranked_matches(b, query)


def test_scorers_return_python_ints():
    index = build_index(TOY)
    assert all(type(i) is int for i in ranked_matches(index, parse_query("network")))
    assert all(type(i) is int for i in more_like_this(index, 0))


# A tiny vocabulary, so that records share terms and scores tie often;
# "Net-work" gives two tokens, "\u00e9t\u00e9" one ("t").
_WORDS = st.sampled_from(["net", "Net", "work", "Net-work", "a1", "b", "c", "d", "\u00e9t\u00e9"])
_TEXT = st.lists(_WORDS, max_size=6).map(" ".join)
_RECORDS = st.builds(
    _record, title=_TEXT, authors=st.lists(_TEXT, max_size=2), source=_TEXT,
    keywords=st.lists(_TEXT, max_size=2), keywords_plus=st.lists(_TEXT, max_size=2),
    address=_TEXT,
)
# corpora of 1 to 10 records drawn from a pool of up to 6, so duplicates are common
_CORPORA = st.lists(_RECORDS, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)
)
_CONJUNCTS = st.tuples(
    st.sampled_from(["", "title:", "author:", "keyword:", "source:", "keywords_plus:", "address:"]),
    st.sampled_from(["net", "work", "a1", "b", "c", "t", "absent", "net-work"]),
).map("".join)
_QUERIES = st.lists(_CONJUNCTS, min_size=1, max_size=4).map(" AND ".join)


@settings(deadline=None, max_examples=300)
@given(corpus=_CORPORA, data=st.data())
def test_more_like_this_equals_the_scan(corpus, data):
    index = build_index(corpus)
    doc_id = data.draw(st.integers(0, len(corpus) - 1), label="doc_id")
    expected = naive_more_like_this(corpus, DEFAULT_FIELD_WEIGHTS, doc_id)
    assert more_like_this(index, doc_id) == expected


@settings(deadline=None, max_examples=300)
@given(corpus=_CORPORA, text=_QUERIES)
def test_ranked_matches_equals_the_scan(corpus, text):
    index = build_index(corpus)
    query = parse_query(text)
    expected = naive_ranked_matches(corpus, DEFAULT_FIELD_WEIGHTS, query)
    assert ranked_matches(index, query) == expected


@settings(deadline=None, max_examples=200)
@given(corpus=_CORPORA)
def test_postings_rows_equal_the_token_counts(corpus):
    postings = build_index(corpus).postings
    assert postings._ids.dtype == postings._tf.dtype == np.int32
    expected = defaultdict(list)  # (term, field) -> [(record id, tf), ...], ids ascending
    for doc_id, per_field in enumerate(_doc_terms(corpus)):
        for name, counts in per_field.items():
            for term, tf in counts.items():
                expected[term, name].append((doc_id, tf))
    terms = {term for term, _ in expected}
    assert set(postings._term_numbers) == terms and len(postings) == len(terms)
    assert len(postings._ids) == sum(map(len, expected.values()))
    for term in [*terms, "absent"]:
        for name in FIELDS:
            ids, tf = postings.row(term, name)
            assert ids.dtype == tf.dtype == np.int32
            assert list(zip(ids.tolist(), tf.tolist())) == expected.get((term, name), [])


# Characters whose lowercase is longer (İ), ASCII (the Kelvin sign K), or
# depends on context (final sigma), that fold to several (ß, ﬃ), a digit of
# another script, a lone surrogate and control characters.
_TRICKY = "\u0130\u212a\u03a3\u03c2\u00df\ufb03\u0663\ud800\x00\t\n"


@settings(max_examples=1000)
@given(text=st.text(st.characters(exclude_categories=()) | st.sampled_from(_TRICKY)))
@example(text=_TRICKY)
@example(text="A\u03a3 \u03a3b \u0130stanbul K9\ud800x")
def test_tokenize_equals_the_regex(text):
    assert tokenize(text) == naive_tokenize(text)


@pytest.mark.parametrize("text, tokens", [
    ("caf\u00e9", ["caf"]),
    ("na\u00efve", ["na", "ve"]),
    ("\u0130stanbul", ["i", "stanbul"]),
    ("\u0663", []),
])
def test_tokens_are_runs_of_ascii_letters_and_digits(text, tokens):
    assert tokenize(text) == tokens


def _assert_same_postings(got, want):
    assert list(got._term_numbers.items()) == list(want._term_numbers.items())
    for name in ("_starts", "_ids", "_tf"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype, name
        assert np.array_equal(got_array, want_array), name


def _random_corpus(count, rng):
    """``count`` records of words from a small vocabulary with tricky
    characters; about one field in three is empty and one record in five
    repeats an earlier one."""
    words = ["net", "Work", "net-work", "a1", "caf\u00e9", "\u0130stanbul", "K\u212a",
             "\u03a3\u03c3\u03c2", "stra\u00dfe", "\ufb03x", "\u0663", "\ud800z", "n\x00t", "tab\tnl\n"]

    def text():
        return " ".join(rng.choices(words, k=rng.randrange(5))) if rng.random() > 0.3 else ""

    records = []
    for _ in range(count):
        if records and rng.random() < 0.2:
            records.append(rng.choice(records))
            continue
        records.append(_record(text(), authors=[text() for _ in range(rng.randrange(3))],
                               source=text(), keywords=[text() for _ in range(rng.randrange(3))],
                               keywords_plus=[text() for _ in range(rng.randrange(2))],
                               address=text()))
    return records


@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_block_build_equals_the_per_field_build(count):
    records = _random_corpus(count, random.Random(count))
    _assert_same_postings(build_index(records).postings, naive_build_index(records))


@settings(deadline=None, max_examples=200)
@given(corpus=st.lists(st.builds(
    _record, title=st.text(_TRICKY + "aZ9 ;-", max_size=8),
    authors=st.lists(st.text(_TRICKY + "aZ9 ;-", max_size=6), max_size=2),
    address=st.text(_TRICKY + "aZ9 ;-", max_size=8)), max_size=8))
def test_build_index_equals_the_per_field_build_on_tricky_text(corpus):
    _assert_same_postings(build_index(corpus).postings, naive_build_index(corpus))


def _tie_heavy_corpus(n):
    """Record 0 has every field empty, so it scores 0 against every record;
    the other records repeat a pool of four, so nearly every score ties."""
    empty = _record("")
    pool = [
        empty,
        _record("network clustering", authors=["ARABIE P"], keywords=["ward"]),
        _record("network analysis", keywords=["ward", "trees"], source="J CLASSIF"),
        _record("clustering trees", address="Trinity College, Dublin"),
    ]
    rng = random.Random(0)
    return [empty, *(rng.choice(pool) for _ in range(n - 1))]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 300])
def test_more_like_this_on_a_tie_heavy_corpus(size):
    corpus = _tie_heavy_corpus(size)
    index = build_index(corpus)
    for doc_id in sorted({0, size // 2, size - 1}):
        expected = naive_more_like_this(corpus, DEFAULT_FIELD_WEIGHTS, doc_id)
        assert more_like_this(index, doc_id) == expected
    # record 0 scores 0 against every record, so its answer is the smallest
    # other ids, as many as the index holds up to three
    assert more_like_this(index, 0) == list(range(1, min(3, size - 1) + 1))


_EMPTY = _record("")


@pytest.mark.parametrize("corpus, doc_id", [
    ([_EMPTY] * 4, 2),
    ([*TOY, _record("xylophone quartet", keywords=["zither"])], len(TOY)),
    ([*TOY[:2], _EMPTY, *TOY[2:]], 2),
], ids=["every-field-empty", "no-term-shared", "no-token-among-tokens"])
def test_more_like_this_when_nothing_is_shared(corpus, doc_id):
    # Every other record scores 0, so the answer is the smallest other ids.
    # The first and third records gather no postings at all.
    expected = naive_more_like_this(corpus, DEFAULT_FIELD_WEIGHTS, doc_id)
    assert expected == [i for i in range(len(corpus)) if i != doc_id][:3]
    assert more_like_this(build_index(corpus), doc_id) == expected


def _zipf_corpus(count, rng):
    """``count`` records whose words follow Zipf's law over a vocabulary
    of 2,000, so that a term's postings run from one record to hundreds."""
    vocabulary = [f"w{rank}" for rank in range(2000)]
    weights = [1 / (rank + 1) for rank in range(2000)]

    def words(lo, hi):
        return " ".join(rng.choices(vocabulary, weights, k=rng.randint(lo, hi)))

    return [_record(words(3, 10), authors=[words(1, 2) for _ in range(rng.randint(1, 4))],
                    source=words(1, 4), keywords=[words(1, 3) for _ in range(rng.randint(0, 4))],
                    keywords_plus=[words(1, 3) for _ in range(rng.randint(0, 3))],
                    address=words(0, 5))
            for _ in range(count)]


def test_more_like_this_equals_the_scan_on_a_zipf_corpus():
    rng = random.Random(7)
    corpus = _zipf_corpus(3 * _BLOCK + 1, rng)
    index = build_index(corpus)
    spans = np.diff(index.postings._starts)
    assert spans[spans > 0].min() == 1 and spans.max() >= 300
    last = len(corpus) - 1
    for doc_id in sorted({0, last, *rng.sample(range(1, last), 28)}):
        expected = naive_more_like_this(corpus, DEFAULT_FIELD_WEIGHTS, doc_id)
        assert more_like_this(index, doc_id) == expected, doc_id
