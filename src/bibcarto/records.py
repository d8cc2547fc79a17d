"""Parsers for the two citation-alert record formats.

Lines are what ``str.splitlines`` yields, numbered from 1; a line that
is empty or all whitespace is blank. Each format has one line rule,
which ``detect_format`` and the parser both apply to every non-blank
line.

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

All field values are whitespace-normalized, except ``profile_citations``
entries whose interior padding is preserved (downstream matching
normalizes it). The publication year is taken from the source field as
the last standalone four-digit token in 1900..2100; records without one
carry ``year = None``.

Records serialize to one JSON object per line with keys named exactly
after the ``BibRecord`` fields; parsing those lines back yields equal
records.
"""
from __future__ import annotations

import enum
import json
import re
import string
from dataclasses import dataclass, field

from .errors import DataError


class RecordFormat(enum.Enum):
    RESEARCH_ALERT = "ResearchAlert"
    PERSONAL_ALERT = "PersonalAlert"


class RecordParseError(DataError):
    """Base class for malformed alert text."""


class AmbiguousFormatError(RecordParseError):
    """Input matches neither alert grammar."""


class UnknownTagError(RecordParseError):
    def __init__(self, line_no: int, tag: str):
        super().__init__(f"line {line_no}: unknown tag {tag!r}")
        self.line_no = line_no
        self.tag = tag


class UnknownHeaderError(RecordParseError):
    def __init__(self, line_no: int, header: str):
        super().__init__(f"line {line_no}: unknown header {header!r}")
        self.line_no = line_no
        self.header = header


class MissingTitleError(RecordParseError):
    def __init__(self, block_no: int):
        super().__init__(f"block {block_no}: record has no title")
        self.block_no = block_no


@dataclass
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

    def validate(self) -> list[str]:
        """Return corpus-level invariant violations (empty list if clean).

        Parsing deliberately does not enforce these: a Research Alert
        record without a cited profile item is a data problem, not a
        syntax problem.
        """
        problems = []
        if not self.title:
            problems.append("empty title")
        if self.year is not None and not 1900 <= self.year <= 2100:
            problems.append(f"year {self.year} outside 1900..2100")
        if self.raw_format is RecordFormat.RESEARCH_ALERT and not self.profile_citations:
            problems.append("ResearchAlert record cites no profile item")
        if self.raw_format is RecordFormat.PERSONAL_ALERT and not self.search_terms:
            problems.append("PersonalAlert record has no search terms")
        return problems


_RA_TAGS = ("T", "A", "K", "U", "W", "W.")
_PA_HEADERS = (
    "TITLE",
    "AUTHOR",
    "SOURCE",
    "SEARCH TERM(S)",
    "KEYWORDS",
    "KEYWORDS+",
    "AUTHOR ADDRESS",
)
# One line rule per format; group 1 is the tag or header, and a Personal
# Alert continuation line has none.
_RA_LINE = re.compile(r"(T|A|K|U|W\.|W)(?:\s|$)")
_PA_LINE = re.compile(r"[ \t]|(" + "|".join(map(re.escape, _PA_HEADERS)) + "):")

_YEAR_TOKEN_RE = re.compile(r"[12][0-9]{3}")


def _squash(text: str) -> str:
    """Collapse whitespace runs to single spaces and strip the ends."""
    return " ".join(text.split())


def extract_year(source: str) -> int | None:
    """Last standalone 4-digit token of the source field, in 1900..2100."""
    year = None
    for token in source.split():
        token = token.strip(string.punctuation)
        if _YEAR_TOKEN_RE.fullmatch(token) and 1900 <= int(token) <= 2100:
            year = int(token)
    return year


def _lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of ``text`` as (line number, line) pairs."""
    return [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def detect_format(text: str) -> RecordFormat:
    """Decide which alert grammar a block of text is written in.

    The text is in a grammar when that grammar's line rule accepts every
    non-blank line. No line is in both: a Personal Alert line starts with
    a space, a tab or a header word, never with a tag and whitespace.
    Raises AmbiguousFormatError, naming the first line each grammar
    rejects, when neither holds.
    """
    lines = _lines(text)
    if not lines:
        raise AmbiguousFormatError("empty input matches no alert format")
    ra_bad, pa_bad = (
        next(((n, ln) for n, ln in lines if not pattern.match(ln)), None)
        for pattern in (_RA_LINE, _PA_LINE)
    )
    if ra_bad is None:
        return RecordFormat.RESEARCH_ALERT
    if pa_bad is None:
        return RecordFormat.PERSONAL_ALERT
    raise AmbiguousFormatError(
        "input matches no alert format: "
        f"not ResearchAlert (line {ra_bad[0]}: {ra_bad[1]!r}); "
        f"not PersonalAlert (line {pa_bad[0]}: {pa_bad[1]!r})"
    )


def _blocks(lines: list[tuple[int, str]], fmt: RecordFormat):
    """Cut non-blank lines into records: a Research Alert record ends at
    a blank line (a gap in the line numbers), a Personal Alert record
    before each ``TITLE:`` line."""
    ends_at_blank = fmt is RecordFormat.RESEARCH_ALERT
    block: list[tuple[int, str]] = []
    last = 0
    for n, ln in lines:
        if block and (n > last + 1 if ends_at_blank else ln.startswith("TITLE:")):
            yield block
            block = []
        block.append((n, ln))
        last = n
    if block:
        yield block


def parse_research_alert(text: str) -> list[BibRecord]:
    """Parse a stream of blank-line-separated Research Alert records."""
    return parse_records(text, RecordFormat.RESEARCH_ALERT)


def _parse_ra_block(block_no: int, block: list[tuple[int, str]]) -> BibRecord:
    parts: dict[str, list[str]] = {tag: [] for tag in _RA_TAGS}
    for n, ln in block:
        m = _RA_LINE.match(ln)
        if m is None:
            raise UnknownTagError(n, ln.split(None, 1)[0])
        tag = m[1]
        value = ln[len(tag):]
        parts[tag].append(value.strip() if tag == "W." else _squash(value))
    title = _squash(" ".join(parts["T"]))
    if not title:
        raise MissingTitleError(block_no)
    source = _squash(" ".join(parts["U"]))
    return BibRecord(
        title=title,
        raw_format=RecordFormat.RESEARCH_ALERT,
        authors=[a for a in parts["A"] if a],
        source=source,
        keywords=[k for k in parts["K"] if k],
        profile_citations=[w for w in parts["W."] if w],
        address=_squash(" ".join(parts["W"])),
        year=extract_year(source),
    )


def parse_personal_alert(text: str) -> list[BibRecord]:
    """Parse a stream of Personal Alert records (one per TITLE: header)."""
    return parse_records(text, RecordFormat.PERSONAL_ALERT)


def _parse_pa_block(block_no: int, block: list[tuple[int, str]]) -> BibRecord:
    values: dict[str, list[str]] = {h: [] for h in _PA_HEADERS}
    current = None
    for n, ln in block:
        m = _PA_LINE.match(ln)
        if m is None:
            raise UnknownHeaderError(n, ln.split(":")[0])
        current = m[1] or current
        if current is None:
            raise UnknownHeaderError(n, ln.strip())
        values[current].append(ln[m.end():])

    def joined(header: str) -> str:
        return _squash(" ".join(values[header]))

    title = joined("TITLE")
    if not title:
        raise MissingTitleError(block_no)
    source = joined("SOURCE")
    return BibRecord(
        title=title,
        raw_format=RecordFormat.PERSONAL_ALERT,
        authors=_split_list(joined("AUTHOR")),
        source=source,
        keywords=_split_list(joined("KEYWORDS")),
        keywords_plus=_split_list(joined("KEYWORDS+")),
        search_terms=[_split_qualifier(t) for t in _split_list(joined("SEARCH TERM(S)"))],
        address=joined("AUTHOR ADDRESS"),
        year=extract_year(source),
    )


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(";") if part.strip()]


def _split_qualifier(entry: str) -> tuple[str, str]:
    """Split a search term on its final whitespace run: "RIPLEY BD rauth"
    becomes ("RIPLEY BD", "rauth"); entries without one get an empty
    qualifier."""
    head, _, tail = entry.rpartition(" ")
    if not head:
        return entry, ""
    return head.strip(), tail


def parse_records(text: str, fmt: RecordFormat | None = None) -> list[BibRecord]:
    """Parse alert text in the given (or auto-detected) format, raising
    the first RecordParseError."""
    records, errors = parse_records_lenient(text, fmt)
    if errors:
        raise errors[0]
    return records


def parse_records_lenient(
    text: str, fmt: RecordFormat | None = None
) -> tuple[list[BibRecord], list[RecordParseError]]:
    """Parse record by record, collecting errors instead of raising.

    Text in neither grammar gives no records and its
    AmbiguousFormatError as the only error: there is no sound way to
    carve records out of text in an unknown grammar.
    """
    try:
        fmt = fmt or detect_format(text)
    except AmbiguousFormatError as exc:
        return [], [exc]
    parse_one = _parse_ra_block if fmt is RecordFormat.RESEARCH_ALERT else _parse_pa_block
    records: list[BibRecord] = []
    errors: list[RecordParseError] = []
    for block_no, block in enumerate(_blocks(_lines(text), fmt), 1):
        try:
            records.append(parse_one(block_no, block))
        except RecordParseError as exc:
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
