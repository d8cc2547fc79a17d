"""Parsers for the two citation-alert record formats.

Lines are what ``str.splitlines`` yields, numbered from 1; a line that
is empty or all whitespace is blank. Each format has one line rule; a
bad line is a non-blank line it rejects. ``_norm`` puts a ``"\\n"``
before every line and the text is scanned whole: one search per format,
built from the rule's pattern text, finds the bad lines, a pattern cuts
the records and one ``findall`` reads a record's fields. A detected
format is one whose search found no bad line, so only a format the
caller names is searched again. Records are cut, and the search's hits
drawn, only as the parse reaches them, so a strict parse reads no
further than its first error. A record's error is its first bad line,
else, for a record with no title, its first non-blank line; it is
numbered by counting ``"\\n"`` on from the previous error. Personal
Alert text before the first ``TITLE:`` fails at its first non-blank
line when that line starts with a space or a tab, as it continues no
header.

Research Alert (tag-prefixed, used through 2003): a line is one of the
tags below at column 0, followed by whitespace or the end of the line.
A record ends at a blank line.

  T   title (repeatable; repeated lines are joined with single spaces)
  A   author (one line per author)
  K   keyword
  U   source (journal, volume, pages, date)
  W   author address (continuation lines repeat the tag)
  W.  cited profile item, kept verbatim apart from outer whitespace

Personal Alert (labeled blocks, used from 2004): a line is either a
header at column 0 followed by a colon (``TITLE``, ``AUTHOR``,
``SOURCE``, ``SEARCH TERM(S)``, ``KEYWORDS``, ``KEYWORDS+`` or
``AUTHOR ADDRESS``), or a continuation line that starts with a space or
a tab and adds to the header above it; the pieces are joined with
single spaces. A record may hold blank lines between header groups, so
it ends before the next ``TITLE:`` line rather than at a blank line.

Field values are whitespace-normalized, except ``profile_citations``
entries, whose interior padding is preserved (downstream matching
normalizes it). A record's ``findall`` pairs are gathered per tag or
header that is present: a list of lines per Research Alert tag, whose
title, source and address lines are joined and squashed once and whose
author and keyword lines are squashed one by one; one string per
Personal Alert header, squashed once. A Personal Alert list field is
split at ``";"`` after that squash, so dropping the single spaces next
to each ``";"`` strips every part. The publication year is the source
field's last standalone four-digit token in 1900..2100, found by walking
the tokens from the right, else ``None``.

Records serialize to one JSON object per line, keyed by the ``BibRecord``
field names; parsing those lines back yields equal records.
"""
from __future__ import annotations

import enum
import json
import re
import string
from dataclasses import dataclass, field
from itertools import chain, pairwise

from .errors import DataError, InputFormatError


# The years a record can carry: extract_year returns None outside them.
FIRST_YEAR, LAST_YEAR = 1900, 2100


class RecordFormat(enum.Enum):
    RESEARCH_ALERT = "ResearchAlert"
    PERSONAL_ALERT = "PersonalAlert"


class RecordParseError(DataError):
    """Base class for malformed alert text."""


class AmbiguousFormatError(RecordParseError):
    """Input matches neither alert grammar."""


class RecordLineError(RecordParseError, InputFormatError):
    """A record's bad line (an unknown tag or header), else, for a record
    with no title, its first non-blank line."""


@dataclass(slots=True)
class BibRecord:
    """One bibliographic citation record, unified across both formats."""

    title: str
    raw_format: RecordFormat
    authors: list[str] = field(default_factory=list)
    source: str = ""
    keywords: list[str] = field(default_factory=list)
    keywords_plus: list[str] = field(default_factory=list)
    search_terms: list[tuple[str, str]] = field(default_factory=list)
    profile_citations: list[str] = field(default_factory=list)
    address: str = ""
    year: int | None = None


_RA, _PA = RecordFormat.RESEARCH_ALERT, RecordFormat.PERSONAL_ALERT
_PA_HEADERS = (
    "TITLE",
    "AUTHOR",
    "SOURCE",
    "SEARCH TERM(S)",
    "KEYWORDS",
    "KEYWORDS+",
    "AUTHOR ADDRESS",
)
_RA_TAG = r"(T|A|K|U|W\.|W)"
_PA_HEADER = "(" + "|".join(map(re.escape, _PA_HEADERS)) + "):"
# One line rule per format: the pattern text a good line starts with.
_LINE_RULES = {_RA: _RA_TAG + r"(?:\s|$)", _PA: r"[ \t]|" + _PA_HEADER}

# The patterns below scan the output of _norm, in which "\n" opens
# every line (so the k-th "\n" opens line k) and is the only line
# boundary; "." stops at it.
_BAD_LINE = {fmt: re.compile(r"\n(?!(?:" + rule + r"))(?=[^\S\n]*\S).*", re.M)
             for fmt, rule in _LINE_RULES.items()}
_RA_RECORD = re.compile(r"\n[^\S\n]*\S.*(?:\n[^\S\n]*\S.*)*")
_RA_FIELD = re.compile(r"\n" + _RA_TAG + "(.*)")
# A header line with the continuation and blank lines after it.
_PA_FIELD = re.compile(r"\n" + _PA_HEADER + r"(.*(?:\n(?:[ \t].*|[^\S\n]*$))*)", re.M)
_PA_CUT = re.compile(r"\nTITLE:")
_SPACE = re.compile(r"\s*")
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # of str.splitlines


def _squash(text: str) -> str:
    """Collapse whitespace runs to single spaces and strip the ends."""
    return " ".join(text.split())


def _squash_each(lines) -> list[str]:
    """Each line squashed, the empty ones dropped."""
    return list(filter(None, map(" ".join, map(str.split, lines))))


_FIRST_YEAR_TEXT, _LAST_YEAR_TEXT = str(FIRST_YEAR), str(LAST_YEAR)


def extract_year(source: str) -> int | None:
    """Last standalone 4-digit token of the source field, in 1900..2100: a maximal
    non-whitespace run, four ASCII digits once stripped of ASCII punctuation."""
    for token in reversed(source.split()):
        token = token.strip(string.punctuation)
        # isdigit alone accepts other scripts' digits, such as "١٩٩٨"
        if (len(token) == 4 and token.isascii() and token.isdigit()
                and _FIRST_YEAR_TEXT <= token <= _LAST_YEAR_TEXT):
            return int(token)
    return None


def _norm(text: str) -> str:
    """``text`` with a "\\n" before each line and no other line boundary (text
    already split only at "\\n" is kept, so a final "\\n" adds a blank line)."""
    if any(brk in text for brk in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())
    return "\n" + text


def detect_format(text: str) -> RecordFormat:
    """Decide which alert grammar a block of text is written in.

    The text is in a grammar when that grammar's line rule accepts every
    non-blank line. No line is in both: a Personal Alert line starts with
    a space, a tab or a header word, never with a tag and whitespace.
    Raises AmbiguousFormatError, naming the first line each grammar
    rejects, when neither holds.
    """
    norm = _norm(text)
    if norm.isspace():
        raise AmbiguousFormatError("empty input matches no alert format")
    misses = []
    for fmt, bad_line in _BAD_LINE.items():
        bad = bad_line.search(norm)
        if bad is None:
            return fmt
        line_no = norm.count("\n", 0, bad.start() + 1)
        misses.append(f"not {fmt.value} (line {line_no}: {bad[0][1:]!r})")
    raise AmbiguousFormatError("input matches no alert format: " + "; ".join(misses))


def _parse_ra_record(norm: str, start: int, end: int) -> BibRecord | None:
    parts: dict[str, list[str]] = {}
    for tag, value in _RA_FIELD.findall(norm, start, end):
        parts.setdefault(tag, []).append(value)
    get = parts.get
    title = _squash(" ".join(get("T", ())))
    if not title:
        return None
    source = _squash(" ".join(get("U", ())))
    # positional, in field order: keyword arguments cost about twice as much
    return BibRecord(
        title,
        _RA,
        _squash_each(get("A", ())),
        source,
        _squash_each(get("K", ())),
        [],
        [],
        [w for w in map(str.strip, get("W.", ())) if w],
        _squash(" ".join(get("W", ()))),
        extract_year(source),
    )


def _parse_pa_record(norm: str, start: int, end: int) -> BibRecord | None:
    values: dict[str, str] = {}
    for header, value in _PA_FIELD.findall(norm, start, end):
        values[header] = f"{values[header]} {value}" if header in values else value
    get = values.get
    title = _squash(get("TITLE", ""))
    if not title:
        return None
    source = _squash(get("SOURCE", ""))
    return BibRecord(
        title,
        _PA,
        _split_list(get("AUTHOR", "")),
        source,
        _split_list(get("KEYWORDS", "")),
        _split_list(get("KEYWORDS+", "")),
        [_split_qualifier(t) for t in _split_list(get("SEARCH TERM(S)", ""))],
        [],
        _squash(get("AUTHOR ADDRESS", "")),
        extract_year(source),
    )


def _record_spans(fmt: RecordFormat, norm: str):
    """(start, end) of each record, cut as the caller draws it: a run of
    non-blank lines (Research Alert), or a ``TITLE:`` line to the next,
    plus any non-blank text before the first."""
    if fmt is _RA:
        return (m.span() for m in _RA_RECORD.finditer(norm))
    starts = chain((m.start() for m in _PA_CUT.finditer(norm)), (len(norm),))
    first = next(starts)
    return pairwise(chain((0, first) if norm[:first].strip() else (first,), starts))


def _split_list(value: str) -> list[str]:
    """The non-empty ";"-separated parts of ``value``, each squashed. Once
    squashed, the only whitespace left is single spaces inside the text, so
    dropping those next to a ";" strips every part."""
    return list(filter(None, _squash(value).replace("; ", ";").replace(" ;", ";").split(";")))


def _split_qualifier(entry: str) -> tuple[str, str]:
    """Split a search term on its final whitespace run: "RIPLEY BD rauth"
    becomes ("RIPLEY BD", "rauth"); entries without one get an empty
    qualifier."""
    head, _, tail = entry.rpartition(" ")
    if not head:
        return entry, ""
    return head, tail


def parse_records(text: str, fmt: RecordFormat | None = None) -> list[BibRecord]:
    """Parse alert text in the given (or auto-detected) format. Raises, as
    soon as it is found, the first error: AmbiguousFormatError when no
    format is given and the text is in neither grammar, else the
    RecordLineError of the first record that fails, whose ``line_no`` is
    the record's first bad line, or its first non-blank line when the
    record has no title; its ``reason`` names the unknown tag or header."""
    return _parse(text, fmt, strict=True)[0]


def parse_records_lenient(
    text: str, fmt: RecordFormat | None = None
) -> tuple[list[BibRecord], list[RecordParseError]]:
    """Parse record by record, collecting errors instead of raising.

    Text in neither grammar gives no records and its
    AmbiguousFormatError as the only error: there is no sound way to
    carve records out of text in an unknown grammar.
    """
    return _parse(text, fmt, strict=False)


def _parse(
    text: str, fmt: RecordFormat | None, strict: bool
) -> tuple[list[BibRecord], list[RecordParseError]]:
    """The records and errors of ``text``; a strict parse raises the first
    error instead, and reads no record past it."""
    norm = _norm(text)
    if fmt is None:
        try:
            fmt = detect_format(text)
        except AmbiguousFormatError as exc:
            if strict:
                raise
            return [], [exc]
        hits = ()  # detection found no bad line for this format
    else:
        hits = (m.start() for m in _BAD_LINE[fmt].finditer(norm))
    hits = chain(hits, (len(norm),))  # then a hit past every record
    hit = next(hits)  # the "\n" opening the first bad line not yet passed
    parse_one = _parse_ra_record if fmt is _RA else _parse_pa_record
    records: list[BibRecord] = []
    errors: list[RecordParseError] = []
    line_no = counted = 0  # norm[:counted] holds line_no "\n"s; counting resumes there
    for start, end in _record_spans(fmt, norm):
        while hit < start:
            hit = next(hits)
        if hit >= end and (record := parse_one(norm, start, end)) is not None:
            records.append(record)
            continue
        # The record fails at its first bad line, else, having no title, at its first
        # non-blank line. That line is bad too when it starts with a space or a tab:
        # Personal Alert text before the first TITLE: continues no header.
        first = norm.rfind("\n", start, _SPACE.match(norm, start, end).end())
        bad = first if norm[first + 1] in " \t" else hit
        at = bad if bad < end else first
        line_no += norm.count("\n", counted, at + 1)
        counted = at + 1
        if bad < end:
            stop = norm.find("\n", counted, end)
            line = norm[counted:end if stop < 0 else stop]
            word = (line.split(None, 1)[0] if fmt is _RA
                    else line.strip() if line[0] in " \t" else line.split(":")[0])
            reason = f"unknown {'tag' if fmt is _RA else 'header'} {word!r}"
        else:
            reason = "record has no title"
        exc = RecordLineError(line_no, reason)
        if strict:
            raise exc
        errors.append(exc)
    return records, errors


_JSON_FIELDS = (
    "title",
    "authors",
    "source",
    "keywords",
    "keywords_plus",
    "search_terms",
    "profile_citations",
    "address",
    "year",
    "raw_format",
)


def to_json_line(record: BibRecord) -> str:
    data = {name: getattr(record, name) for name in _JSON_FIELDS}
    data["raw_format"] = record.raw_format.value
    return json.dumps(data, ensure_ascii=False)


def from_json_line(line: str) -> BibRecord:
    data = json.loads(line)
    data["raw_format"] = RecordFormat(data["raw_format"])
    data["search_terms"] = [tuple(t) for t in data["search_terms"]]
    return BibRecord(**data)


def dump_records(records: list[BibRecord]) -> str:
    return "".join(to_json_line(r) + "\n" for r in records)


def load_records(text: str) -> list[BibRecord]:
    return [from_json_line(ln) for ln in text.splitlines() if ln.strip()]
