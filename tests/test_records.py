import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibcarto import records
from bibcarto.records import (
    AmbiguousFormatError,
    BibRecord,
    MissingTitleError,
    RecordFormat,
    UnknownHeaderError,
    UnknownTagError,
    _squash,
    detect_format,
    dump_records,
    extract_year,
    from_json_line,
    load_records,
    parse_personal_alert,
    parse_records,
    parse_records_lenient,
    parse_research_alert,
    to_json_line,
)

from helpers import naive_extract_year, naive_parse_records_lenient


def test_detect_research_alert(research_alert_text):
    assert detect_format(research_alert_text) is RecordFormat.RESEARCH_ALERT


def test_detect_personal_alert(personal_alert_text):
    assert detect_format(personal_alert_text) is RecordFormat.PERSONAL_ALERT


def test_detect_empty_is_ambiguous():
    with pytest.raises(AmbiguousFormatError):
        detect_format("")
    with pytest.raises(AmbiguousFormatError):
        detect_format("   \n\n  \n")


def test_detect_garbage_names_offending_lines():
    with pytest.raises(AmbiguousFormatError, match="line 1"):
        detect_format("X not a tag\nY neither\n")


def test_research_alert_golden(research_alert_text):
    (rec,) = parse_research_alert(research_alert_text)
    assert rec.title == "Learning to Set-Up Numerical Optimizations of Engineering Designs"
    assert rec.authors == ["SCHWABAC.M", "ELLMAN T", "HIRSH H"]
    assert rec.keywords == ["MATHEMATICAL SCIENCES - Computer Science"]
    assert rec.source == "AI EDAM 12(2): 173-192,APR 1998"
    assert rec.profile_citations == ["BREIMAN L    84"]
    assert rec.address == "M Schwabacher, Natl Inst Stand & Technol, Gaithersburg, MD 20899"
    assert rec.year == 1998
    assert rec.raw_format is RecordFormat.RESEARCH_ALERT
    assert rec.search_terms == []
    assert rec.keywords_plus == []


def test_personal_alert_golden(personal_alert_text):
    (rec,) = parse_personal_alert(personal_alert_text)
    assert rec.title.startswith("Multiscale spatial variation of the bark beetle")
    assert rec.title.endswith("(Landes de Gascogne, Southwestern France) (Article, English)")
    assert rec.authors == [
        "Rossi, JP", "Samalens, JC", "Guyon, D", "van Halder, I",
        "Jactel, H", "Menassieu, P", "Piou, D",
    ]
    assert rec.search_terms == [
        ("RIPLEY BD", "rauth"),
        ("DENSITY ESTIM*", "rwork"),
        ("MULTI*", "rwork"),
    ]
    assert rec.keywords[0] == "Bark beetle"
    assert "Spatial statistics" in rec.keywords
    assert rec.keywords_plus[0] == "POINT PATTERN-ANALYSIS"
    assert len(rec.keywords_plus) == 10
    assert rec.year == 2009
    assert rec.raw_format is RecordFormat.PERSONAL_ALERT


def test_split_title_joins_byte_identical():
    split = "T       Learning to Set-Up Numerical Optimizations of\nT       Engineering Designs\nW.      X Y 99\n"
    joined = "T       Learning to Set-Up Numerical Optimizations of Engineering Designs\nW.      X Y 99\n"
    (a,) = parse_research_alert(split)
    (b,) = parse_research_alert(joined)
    assert a.title == b.title


@pytest.mark.parametrize("year, kept", [(1899, False), (1900, True), (2100, True), (2101, False)])
def test_extract_year_keeps_years_from_first_to_last_year(year, kept):
    assert (records.FIRST_YEAR, records.LAST_YEAR) == (1900, 2100)
    assert extract_year(f"J {year}") == (year if kept else None)


def test_missing_profile_citation_is_not_a_parse_error():
    text = "T      Some Title\nA      AUTHOR ONE\nA      AUTHOR TWO\n"
    (rec,) = parse_research_alert(text)
    assert rec.profile_citations == []
    assert rec.authors == ["AUTHOR ONE", "AUTHOR TWO"]


def test_multiple_cited_profile_lines():
    text = "T   Title\nW.  BREIMAN L 84\nW.  RIPLEY BD 81\n"
    (rec,) = parse_research_alert(text)
    assert rec.profile_citations == ["BREIMAN L 84", "RIPLEY BD 81"]


def test_unknown_tag_names_line():
    text = "T   ok title\nX   mystery\n"
    with pytest.raises(UnknownTagError) as err:
        parse_research_alert(text)
    assert err.value.line_no == 2
    assert err.value.tag == "X"


def test_indented_tag_line_rejected():
    with pytest.raises(UnknownTagError):
        parse_research_alert("T  fine\n  T  sneaky indent\n")


def test_missing_title_names_block():
    text = "T   first\n\nA   ORPHAN AUTHOR\n"
    with pytest.raises(MissingTitleError) as err:
        parse_research_alert(text)
    assert err.value.block_no == 2


def test_unknown_header_names_line():
    text = "TITLE:  ok\nFOO: mystery\n"
    with pytest.raises(UnknownHeaderError) as err:
        parse_personal_alert(text)
    assert err.value.line_no == 2
    assert err.value.header == "FOO"


def test_personal_alert_headers_before_title():
    with pytest.raises(MissingTitleError) as err:
        parse_personal_alert("AUTHOR: Orphan, A\n\nTITLE: real record\n")
    assert err.value.block_no == 1


def test_personal_alert_without_keywords_plus():
    text = "TITLE: something\nSOURCE: J STUFF 3 (1). JAN 5 2005. p.1-2\n"
    (rec,) = parse_personal_alert(text)
    assert rec.keywords_plus == []
    assert rec.year == 2005


def test_personal_alert_list_fields_with_empty_and_padded_parts():
    text = ("TITLE: t\n"
            "AUTHOR: ; Rossi, JP ; ;; Guyon, D\u2003;\u2003van Halder, I;\n"
            "KEYWORDS: ;;\u3000a\u2003 b ;\n"
            "   ; c\x1f;\n"
            "KEYWORDS+: \u2003;\u2003\n"
            "SEARCH TERM(S):  RIPLEY BD\u2003 rauth ;; ;MULTI*\u2003rwork;\n")
    got, got_errors = parse_records_lenient(text)
    want, want_errors = naive_parse_records_lenient(text)
    assert got_errors == want_errors == []
    assert [to_json_line(r) for r in got] == [to_json_line(r) for r in want]
    (rec,) = got
    assert rec.authors == ["Rossi, JP", "Guyon, D", "van Halder, I"]
    assert rec.keywords == ["a b", "c"]
    assert rec.keywords_plus == []
    assert rec.search_terms == [("RIPLEY BD", "rauth"), ("MULTI*", "rwork")]


def test_personal_alert_multiple_records():
    text = (
        "TITLE: first one\nSOURCE: A 2004.\n\n"
        "KEYWORDS: k1; k2\n\n"
        "TITLE: second one\nSOURCE: B 2005.\n"
    )
    records = parse_personal_alert(text)
    assert [r.title for r in records] == ["first one", "second one"]
    assert records[0].keywords == ["k1", "k2"]


def test_order_preserved_research_alert():
    text = "".join(f"T   title {i}\n\n" for i in range(7))
    titles = [r.title for r in parse_research_alert(text)]
    assert titles == [f"title {i}" for i in range(7)]


def test_year_extraction_rules():
    assert extract_year("AI EDAM 12(2): 173-192,APR 1998") == 1998
    assert extract_year("FOREST ECOLOGY AND MANAGEMENT 257 (7). MAR 22 2009. p.1551-1557") == 2009
    assert extract_year("VOL 23, 465-470") is None
    assert extract_year("published 1985, reprinted 1992") == 1992
    assert extract_year("token 2999 out of range") is None
    assert extract_year("") is None


def test_round_trip_golden(research_alert_text, personal_alert_text):
    for text in (research_alert_text, personal_alert_text):
        records = parse_records(text)
        again = load_records(dump_records(records))
        assert again == records


def test_lenient_collects_errors():
    text = "T   good record\n\nX   broken\n\nT   another good\n"
    records, errors = parse_records_lenient(text, RecordFormat.RESEARCH_ALERT)
    assert [r.title for r in records] == ["good record", "another good"]
    assert len(errors) == 1
    assert isinstance(errors[0], UnknownTagError)


@pytest.mark.parametrize("fmt, text, titles", [
    (RecordFormat.RESEARCH_ALERT,
     "T   first\nA   ok\nX   bad tag\n\nT   second\n\nT   third\nZ   bad\n\nT   fourth\n",
     ["second", "fourth"]),
    (RecordFormat.PERSONAL_ALERT,
     "TITLE: one\nFOO: bad\nTITLE: two\nAUTHOR: a\nTITLE: three\n\nBAR baz\nTITLE: four\n",
     ["two", "four"]),
])
def test_a_forced_format_still_finds_the_bad_lines(fmt, text, titles):
    with pytest.raises(AmbiguousFormatError):
        detect_format(text)
    assert [str(e) for e in parse_records_lenient(text)[1]] == \
        [str(e) for e in naive_parse_records_lenient(text)[1]]
    got, got_errors = parse_records_lenient(text, fmt)
    want, want_errors = naive_parse_records_lenient(text, fmt)
    assert [to_json_line(r) for r in got] == [to_json_line(r) for r in want]
    assert [r.title for r in got] == titles
    assert [(type(e), e.line_no) for e in got_errors] == \
        [(type(e), e.line_no) for e in want_errors]
    assert len(got_errors) == 2


def test_lenient_reports_an_undetectable_format_as_its_only_error():
    text = "T   a title\nTITLE: another\n"
    records, errors = parse_records_lenient(text)
    with pytest.raises(AmbiguousFormatError) as detected:
        detect_format(text)
    assert records == []
    assert [str(e) for e in errors] == [str(detected.value)]


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
def test_squash_idempotent(text):
    assert _squash(_squash(text)) == _squash(text)


_field_text = st.text(
    alphabet=st.characters(codec="ascii", categories=["L", "N", "P"], exclude_characters=";"),
    min_size=1,
    max_size=30,
).map(lambda s: s.strip()).filter(bool)


@given(
    title=_field_text,
    authors=st.lists(_field_text, max_size=3),
    keywords=st.lists(_field_text, max_size=3),
    cited=st.lists(_field_text, max_size=2),
)
def test_synthesized_research_alert_round_trips(title, authors, keywords, cited):
    lines = [f"T   {title}"]
    lines += [f"A   {a}" for a in authors]
    lines += [f"K   {k}" for k in keywords]
    lines += [f"W.  {w}" for w in cited]
    text = "\n".join(lines) + "\n"
    records = parse_research_alert(text)
    assert load_records(dump_records(records)) == records
    (rec,) = records
    assert rec.title == _squash(title)


def test_json_line_field_names():
    rec = BibRecord(title="t", raw_format=RecordFormat.RESEARCH_ALERT)
    line = to_json_line(rec)
    for name in ("title", "authors", "source", "keywords", "keywords_plus",
                 "search_terms", "profile_citations", "address", "year", "raw_format"):
        assert f'"{name}"' in line
    assert from_json_line(line) == rec


def test_every_field_round_trips_through_a_json_line():
    rec = BibRecord("t", RecordFormat.PERSONAL_ALERT, ["A, B"], "J 1999", ["k"], ["K+"],
                    [("RIPLEY BD", "rauth")], ["W X 99"], "addr", 1999)
    again = from_json_line(to_json_line(rec))
    assert again == rec
    assert again.search_terms == [("RIPLEY BD", "rauth")]
    assert not hasattr(again, "__dict__")
    again.year = 2000
    assert again != rec


# Line pieces for generated alert text: the tags and headers of each
# grammar, malformed ones, and the line boundaries str.splitlines honours
# beyond "\n" (a bare "\r", "\x0c", "\x1c", "\x85", "\u2028").
_RA_PREFIXES = ["T", "A", "K", "U", "W", "W."]
_PA_PREFIXES = ["TITLE:", "AUTHOR:", "SOURCE:", "SEARCH TERM(S):", "KEYWORDS:", "KEYWORDS+:",
                "AUTHOR ADDRESS:", "  ", "\t"]
_BAD_PREFIXES = ["W.x", "Wx", "  T", "FOO:", "TITLE:", "TITLE", "AUTHOR ADDRESS", "X", "\xa0T",
                 "", " ", "\xa0"]
_GAPS = [" ", "   ", "\t", "\xa0"]
_BAD_GAPS = ["", ":"]
_BOUNDARIES = ["\n", "\n", "\n\n", "\r\n", "\r", "\n  \n", "\n\xa0\n", "\x0c", "\x1c",
               "\x85", "\u2028"]
# "\u2003", "\u3000" and "\x1f" are whitespace to str.split but no line boundary
_VALUES = st.text(alphabet="aZ19 ;:()*\t\xa0\u2003\u3000\x1f", max_size=10) | st.sampled_from(
    ["RIPLEY BD  rauth; MULTI*  rwork", "J STUFF 3 (1). JAN 5 2005.", "BREIMAN L    84"])


@st.composite
def _alert_texts(draw):
    prefixes, gaps = draw(st.sampled_from([
        (_RA_PREFIXES, _GAPS), (_PA_PREFIXES, _GAPS),
        (_RA_PREFIXES + _BAD_PREFIXES, _GAPS + _BAD_GAPS),
        (_PA_PREFIXES + _BAD_PREFIXES, _GAPS + _BAD_GAPS),
        (_RA_PREFIXES + _PA_PREFIXES, _GAPS),
    ]))
    rest = st.tuples(st.sampled_from(gaps), _VALUES).map("".join) | st.just("")
    lines = draw(st.lists(
        st.tuples(st.sampled_from(prefixes), rest, st.sampled_from(_BOUNDARIES)).map("".join),
        max_size=12,
    ))
    return "".join(lines)


@settings(max_examples=600, deadline=None)
@given(text=_alert_texts(), fmt=st.sampled_from([None, *RecordFormat]))
def test_parser_equals_the_oracle(text, fmt):
    got, got_errors = parse_records_lenient(text, fmt)
    want, want_errors = naive_parse_records_lenient(text, fmt)
    assert [to_json_line(r) for r in got] == [to_json_line(r) for r in want]
    assert [(type(e), str(e)) for e in got_errors] == [(type(e), str(e)) for e in want_errors]


def test_lenient_parse_detects_through_the_module_attribute(research_alert_text, monkeypatch):
    # perfbench's --trace 1 wraps records.detect_format; a call bound
    # some other way would escape it
    real = records.detect_format
    calls = []

    def spy(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(records, "detect_format", spy)
    (rec,) = parse_records_lenient(research_alert_text)[0]
    assert calls == [research_alert_text]
    assert rec.raw_format is RecordFormat.RESEARCH_ALERT


_YEAR_PIECES = st.one_of(
    st.integers(0, 99999).map(str),
    st.integers(1890, 2110).map(str),
    st.sampled_from(list(string.punctuation)),
    st.sampled_from([" ", "  ", "\xa0", "\u2003", "\t"]),
    st.sampled_from(["1998-2001", "(1998).", "APR", "p.1551-1557", "\u0661\u0669\u0669\u0668",
                     "\uff11\uff19\uff19\uff18", "19\u0669\u0668", "2\u2003001", "x1999"]),
)


@settings(max_examples=500)
@given(source=st.lists(_YEAR_PIECES, max_size=10).map("".join))
def test_extract_year_equals_the_token_loop(source):
    assert extract_year(source) == naive_extract_year(source)


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.tuples(
    st.sampled_from(_RA_PREFIXES + _PA_PREFIXES + _BAD_PREFIXES),
    st.sampled_from(_GAPS + _BAD_GAPS),
    _VALUES,
    st.sampled_from(_BOUNDARIES),
), max_size=12))
def test_bad_line_search_flags_exactly_the_lines_the_rule_rejects(pieces):
    text = "".join("".join(piece) for piece in pieces)
    lines = text.splitlines()
    norm = records._norm(text)
    for fmt in RecordFormat:
        flagged = {norm.count("\n", 0, m.start() + 1): m[0][1:]
                   for m in records._BAD_LINE[fmt].finditer(norm)}
        rejected = {n: line for n, line in enumerate(lines, 1)
                    if line.strip() and not re.match(records._LINE_RULES[fmt], line)}
        assert flagged == rejected


def _big_alert_lines(fmt, rng):
    """About 2,000 records of one format as a list of lines, with the
    shapes that stress a whole-text scan: whitespace-only lines, blank
    lines inside Personal Alert records, a 200,000-character whitespace
    line and a field of 20,000 continuation lines."""
    gaps, blanks = _GAPS, ["", "  ", "\xa0", "\t \xa0"]

    def words(k):
        return " ".join(rng.choice(["Ward", "cluster", "analysis", "Bark", "beetle", "1998",
                                    "(2004).", "1998-2001", "a;b", "x"]) for _ in range(k))

    def source():
        year = rng.choice(["1994", "2004", "2011", "1899", "2101", "98", "(2009).", ""])
        return f"J STUFF {rng.randrange(1, 99)}({rng.randrange(1, 12)}): 1-9, APR {year}"

    lines = []
    if fmt is RecordFormat.PERSONAL_ALERT:
        lines += ["AUTHOR:  Orphan, A", "   before any title"]
    for i in range(2000):
        long_field = [words(2) for _ in range(20000)] if i == 3 else []
        if fmt is RecordFormat.RESEARCH_ALERT:
            record = [f"T{rng.choice(gaps)}{words(3)}"]
            record += [f"T{rng.choice(gaps)}{w}" for w in long_field]
            record += [f"A{rng.choice(gaps)}{words(2)}" for _ in range(rng.randrange(3))]
            record += [f"K{rng.choice(gaps)}{words(2)}" for _ in range(rng.randrange(2))]
            record += [f"U{rng.choice(gaps)}{source()}",
                       f"W{rng.choice(gaps)}{words(3)}", "W", f"W.   {words(2)}  "]
            if i % 97 == 5:
                record = record[1:]  # no title
            rng.shuffle(record)
            lines += record + [rng.choice(blanks)]
        else:
            record = [f"TITLE:{rng.choice(gaps)}{words(4)}", f"  {words(2)}"]
            record += [f"\t{w}" for w in long_field]
            record += [f"AUTHOR:  {words(2)}; {words(1)}", f"SOURCE: {source()}",
                       rng.choice(blanks), f"SEARCH TERM(S):  {words(2)}  rauth; X*  rwork",
                       rng.choice(blanks), f"KEYWORDS: {words(2)}; {words(1)}",
                       rng.choice(blanks), f"   {words(2)}", "KEYWORDS+:",
                       f"AUTHOR ADDRESS:{rng.choice(gaps)}{words(3)}"]
            if i % 89 == 7:
                record[:2] = ["TITLE:   ", "\xa0"]  # no title
            lines += record
        if i == 9:
            lines.append(" \xa0\t" * 66_667)
    return lines


@pytest.mark.parametrize("fmt", list(RecordFormat))
@pytest.mark.parametrize("damaged", [False, True])
def test_large_adversarial_text_equals_the_oracle(fmt, damaged):
    rng = random.Random(f"{fmt.value}-{damaged}")
    lines = _big_alert_lines(fmt, rng)
    assert len(lines) > 34_000
    if damaged:
        bad = ["X   mystery", "FOO: what", "\xa0T  nbsp", "W.x", "  T  indented", "TITLE  x",
               "T", "KEYWORDS+ x"]
        for at in sorted(rng.sample(range(30_001, len(lines)), 12), reverse=True):
            lines.insert(at, rng.choice(bad))
    text = "".join(line + rng.choice(["\n", "\n", "\n", "\r\n", "\x85", "\u2028"])
                   for line in lines)
    for mode in (None, *RecordFormat):
        got, got_errors = parse_records_lenient(text, mode)
        want, want_errors = naive_parse_records_lenient(text, mode)
        assert [to_json_line(r) for r in got] == [to_json_line(r) for r in want]
        assert [(type(e), str(e), getattr(e, "line_no", None)) for e in got_errors] == \
            [(type(e), str(e), getattr(e, "line_no", None)) for e in want_errors]
