"""Corpus classification and contingency-table construction.

Records are matched against two controlled vocabularies, each indexed
once, when it is constructed:

* a profile catalog of canonical publications, matched through the
  cited-item lines of Research Alert records (exact token equality after
  whitespace normalization; a token belongs to one entry) and through the
  ``rauth`` search terms of Personal Alert records (author part of the
  token, before the two-digit year; a trailing ``*`` in the term acts as
  a prefix wildcard);
* a discipline lexicon of case-insensitive terms looked up in the title,
  source, keywords and keywords+ fields. At each position only the
  longest term starting there counts, for every label that lists it. A
  term that starts no longer term is a plain substring test; a term that
  does carries a guard pattern, the term followed by a negative lookahead
  over the rest of each longer term, which finds an occurrence where no
  longer term starts.

Tagged records are then cross-tabulated into label-by-year contingency
tables. The two bundled reference tables (profile-by-year and
discipline-by-year, 1994-2011) load through :func:`load_fixture`.

Catalogs, lexicons and table CSVs are read through
:func:`errors.read_file`, so a malformed line raises an
:class:`errors.InputFormatError` naming ``path:line``; every error here
subclasses :class:`errors.DataError`.
"""
from __future__ import annotations

import csv
import io
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import add
from typing import TYPE_CHECKING

from . import fixtures
from .errors import DataError, InputFormatError, read_file
from .records import BibRecord

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy as np

DEFAULT_EXCLUSION_TERMS = ("galaxy cluster",)

# The year that ends a match token: "BREIMAN L 84" has author part "BREIMAN L".
_TOKEN_YEAR_RE = re.compile(r"(?<=\S)\s+\d{2}$")


class EntryError(DataError):
    """Entry ``index`` of a catalog, lexicon or table breaks a rule."""

    def __init__(self, index: int, reason: str):
        super().__init__(reason)
        self.index = index


def _build(make, line_nos, error=None, header_line=None):
    """``make()``, or the error of the first bad line: an EntryError on its
    entry's line in ``line_nos``, another DataError on ``header_line``,
    then ``error``, the text error that stopped the reading."""
    try:
        built = make()
    except EntryError as exc:
        raise InputFormatError(line_nos[exc.index], str(exc)) from None
    except DataError as exc:  # a table's column labels
        raise InputFormatError(header_line, str(exc)) from None
    if error:
        raise error
    return built


def _normalize_token(token: str) -> str:
    return " ".join(token.split()).upper()


class _Vocabulary:
    """The loaders of ProfileCatalog (key: id; lists: match tokens, merged
    works) and DisciplineLexicon (key: label; list: terms). A subclass
    sets ``_ENTRY`` (its entry type, built from the key and the first
    ``_LISTS`` lists), ``_KEY`` and ``_DEFAULT`` (the bundled text)."""

    @classmethod
    def from_text(cls, text: str):
        """Load from lines of ``key<TAB>comma-list[<TAB>comma-list]``, skipping
        blank lines and ``#`` comments. Errors name the first bad line."""
        entries, line_nos, error = [], [], None
        for line_no, ln in enumerate(text.splitlines(), 1):
            if not ln.strip() or ln.lstrip().startswith("#"):
                continue
            key, tab, rest = ln.partition("\t")
            if not (tab and key.strip()):
                error = InputFormatError(
                    line_no, f"expected a non-empty {cls._KEY}, a tab, then terms: {ln!r}")
                break
            lists = [tuple(t.strip() for t in part.split(",") if t.strip())
                     for part in rest.split("\t")]
            entries.append(cls._ENTRY(key.strip(), *lists[: cls._LISTS]))
            line_nos.append(line_no)
        return _build(lambda: cls(entries), line_nos, error)

    @classmethod
    def from_file(cls, path):
        return read_file(path, cls.from_text)

    @classmethod
    def default(cls):
        return cls.from_text(cls._DEFAULT)

    def _check_keys(self, keys: list[str]) -> None:
        """Refuse, as an EntryError naming the entry, the first key that is
        blank, holds a line end (neither of which :meth:`from_text` reads)
        or repeats an earlier one."""
        first = {}
        for i, key in enumerate(keys):
            fault = _label_fault(key, self._KEY)
            if fault:
                raise EntryError(i, fault)
            if first.setdefault(key, i) != i:
                raise EntryError(i, f"duplicate {self._KEY} {key!r}")


@dataclass(frozen=True)
class ProfileEntry:
    id: str
    match_tokens: tuple[str, ...]
    merged_ids: tuple[str, ...] = ()


@dataclass
class ProfileCatalog(_Vocabulary):
    entries: list[ProfileEntry]

    _ENTRY, _KEY, _LISTS, _DEFAULT = ProfileEntry, "id", 2, fixtures.PROFILE_CATALOG

    def __post_init__(self):
        self._check_keys(self.ids)
        self._by_token = {}   # normalized token -> profile id
        self._by_author = {}  # author part of a normalized token -> profile ids
        for i, entry in enumerate(self.entries):
            for token in map(_normalize_token, entry.match_tokens):
                owner = self._by_token.setdefault(token, entry.id)
                if owner != entry.id:
                    raise EntryError(i, f"token {token!r} already belongs to {owner!r}")
                author = _TOKEN_YEAR_RE.sub("", token)
                self._by_author.setdefault(author, set()).add(entry.id)
        self._authors = sorted(self._by_author)  # the parts a prefix starts form a run

    @property
    def ids(self) -> list[str]:
        return [e.id for e in self.entries]

    def match_citation(self, cited: str) -> str | None:
        """Profile id whose token equals the whitespace-normalized cited line."""
        return self._by_token.get(_normalize_token(cited))

    def match_author_term(self, term: str) -> set[str]:
        """Profile ids whose author part equals a ``rauth`` term or, when the
        term ends in ``*``, starts with the rest of it."""
        term = _normalize_token(term)
        prefix = term.endswith("*")
        term = term.rstrip("*").strip()
        if not term:
            return set()
        if not prefix:
            return set(self._by_author.get(term, ()))
        found, i = set(), bisect_left(self._authors, term)
        while i < len(self._authors) and self._authors[i].startswith(term):
            found |= self._by_author[self._authors[i]]
            i += 1
        return found


@dataclass(frozen=True)
class LexiconEntry:
    label: str
    match_terms: tuple[str, ...]


@dataclass
class DisciplineLexicon(_Vocabulary):
    entries: list[LexiconEntry]

    _ENTRY, _KEY, _LISTS, _DEFAULT = LexiconEntry, "label", 1, fixtures.DISCIPLINE_LEXICON

    def __post_init__(self):
        self._check_keys(self.labels)
        labels_of = {}  # lowercased term -> labels that list it
        for entry in self.entries:
            for term in entry.match_terms:
                labels_of.setdefault(term.lower(), set()).add(entry.label)
        # One rule per term: (term, its labels, guard). The longer terms a
        # term starts follow it in sorted order; the guard finds the term
        # where none of them starts. A term that starts none is a plain
        # substring test, guarded only when it holds the "\n" that joins
        # the fields in tag_disciplines.
        terms = sorted(labels_of)
        self._rules = []
        for i, term in enumerate(terms):
            suffixes, j = [], i + 1
            while j < len(terms) and terms[j].startswith(term):
                suffixes.append(re.escape(terms[j][len(term):]))
                j += 1
            guard = re.escape(term) + (f"(?!{'|'.join(suffixes)})" if suffixes else "")
            self._rules.append((term, labels_of[term],
                                re.compile(guard).search if suffixes or "\n" in term else None))

    @property
    def labels(self) -> list[str]:
        return [e.label for e in self.entries]


def match_profiles(record: BibRecord, catalog: ProfileCatalog) -> set[str]:
    """Profile ids the record cites; empty set when it cites none."""
    found = set()
    for cited in record.profile_citations:
        hit = catalog.match_citation(cited)
        if hit is not None:
            found.add(hit)
    for term, qualifier in record.search_terms:
        if qualifier == "rauth":
            found |= catalog.match_author_term(term)
    return found


def tag_disciplines(record: BibRecord, lexicon: DisciplineLexicon) -> set[str]:
    """Discipline labels whose terms occur in the record's title, source,
    keywords or keywords+. Each position counts only for the longest term
    starting there, for every label listing it: with "Psych" under label A
    and "Psychology" under B, the word "PSYCHOLOGY" fires B alone."""
    fields = (record.title.lower(), record.source.lower(), "; ".join(record.keywords).lower(),
              "; ".join(record.keywords_plus).lower())
    text = "\n".join(fields)
    labels = set()
    for term, term_labels, guard in lexicon._rules:
        if term in text and (guard is None or any(map(guard, fields))):
            labels |= term_labels
    return labels


def filter_records(
    records: list[BibRecord],
    exclusion_terms: tuple[str, ...] = DEFAULT_EXCLUSION_TERMS,
) -> tuple[list[BibRecord], list[BibRecord]]:
    """Partition records into (kept, excluded) by title phrase matching."""
    phrases = [t.lower() for t in exclusion_terms]
    kept, excluded = [], []
    for record in records:
        title = record.title.lower()
        (excluded if any(p in title for p in phrases) else kept).append(record)
    return kept, excluded


@dataclass(frozen=True)
class ContingencyTable:
    """Labeled nonnegative count matrix, rows crossed by year columns.

    The counts are given as an array or as nested int sequences and kept
    in ``rows``, a tuple of int tuples, so that building, reading and
    writing a table needs no numpy. ``counts`` is the same matrix as a
    read-only int64 array, made (and numpy loaded) on first use over the
    packed bytes that the constructor checks the counts with. Only the
    constructor decides a table's rules: no label may hold a line end, as
    :meth:`str.splitlines` counts them, and no row label may be blank. The
    first bad row is an EntryError."""

    row_labels: tuple[str, ...]
    col_labels: tuple
    rows: tuple[tuple[int, ...], ...]
    n: int = field(init=False, repr=False, compare=False)
    _cells: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.rows.tolist() if hasattr(self.rows, "tolist") else self.rows
        rows = tuple(map(tuple, rows))
        if len(rows) != len(self.row_labels) or {*map(len, rows)} - {len(self.col_labels)}:
            raise DataError("counts shape does not match labels")
        for label in self.col_labels:
            if isinstance(label, str) and _breaks_line(label):
                raise DataError(f"column label {label!r} holds a line break")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise DataError("duplicate column labels")
        # exact on Python ints; a float or numpy scalar anywhere makes the total one too
        total = sum(map(sum, rows))
        if type(total) is not int:
            raise DataError("counts must be integers")
        try:
            # Packed as unsigned 64-bit ints, which no negative count fits. The
            # total caps every count at 2**63 - 1, so the bytes also read as int64.
            cells = array("Q", chain.from_iterable(rows)).tobytes()
        except OverflowError:
            cells = None
        if (cells is None or total > _MAX_TOTAL or len(set(self.row_labels)) != len(rows)
                or any(map(_label_fault, self.row_labels))):
            raise _row_error(self.row_labels, rows)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", total)
        object.__setattr__(self, "_cells", cells)

    @cached_property
    def counts(self) -> np.ndarray:
        import numpy as np

        # read-only, as the bytes it views are
        return np.frombuffer(self._cells, dtype=np.int64).reshape(len(self.rows),
                                                                 len(self.col_labels))

    @property
    def frequencies(self) -> np.ndarray:
        if self.n == 0:
            raise DataError("table has no incidences")
        return self.counts / self.n

    def to_csv(self) -> str:
        """The table as CSV, byte for byte what ``csv.writer`` writes: each
        row's counts go through one ``%d`` row format."""
        counts = ",%d" * len(self.col_labels)
        lines = ["label" + "".join("," + csv_field(c) for c in self.col_labels)]
        lines += [csv_field(label, alone=not counts) + counts % tuple(row)
                  for label, row in zip(self.row_labels, self.rows)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ContingencyTable":
        """Parse the CSV that :meth:`to_csv` writes: a header row (label
        column, then one column per year; integer headers become ints) and
        one row per label of counts that the constructor accepts, each,
        like a year header, an optionally negative ASCII digit run. Rows end
        at any ``str.splitlines`` line end; blank lines are skipped.
        Quoting is strict: a quoted field ends at its closing quote, then a
        comma or the row's end. Any other shape, and any table the
        constructor rejects (its labels among them), raises
        :class:`InputFormatError`, naming the line where the first
        offending record starts."""
        reader = csv.reader(io.StringIO("\n".join(text.splitlines())), strict=True)
        header, header_line, labels, rows, lines, error = None, 0, [], [], [], None
        # int() reads more than digit runs only in text holding "_", "+" or a
        # non-ASCII character, so only such text has its counts checked one by one
        checked = not text.isascii() or "_" in text or "+" in text
        try:
            end = 0
            for fields in reader:
                line, end = end + 1, reader.line_num
                if not fields:
                    continue
                if header is None:
                    header_line = line
                    try:
                        header = tuple(int(c) if _is_integer(c) else c for c in fields[1:])
                    except ValueError:  # a digit run longer than int() converts
                        # each label once: the constructor may name a line break,
                        # but not a repeat, before this error
                        header = tuple(dict.fromkeys(fields[1:]))
                        raise InputFormatError(line, "column label too long for a year") from None
                    continue
                if len(fields) != len(header) + 1:
                    raise InputFormatError(
                        line, f"expected {len(header)} counts, got {len(fields) - 1}")
                try:
                    if checked and not all(map(_is_integer, fields[1:])):
                        raise ValueError
                    rows.append(tuple(map(int, fields[1:])))
                except ValueError:  # not a digit run, or one longer than int() converts
                    # the row's label precedes its counts, so it is judged first
                    raise InputFormatError(
                        line, _label_fault(fields[0]) or "counts must be integers") from None
                labels.append(fields[0])
                lines.append(line)
        except InputFormatError as exc:
            error = exc
        except csv.Error as exc:  # its record starts after the last one read
            reason = str(exc)
            error = InputFormatError(
                end + 1, "unclosed quote" if reason == "unexpected end of data" else reason)
        if header is None:
            raise error or InputFormatError(1, "empty table")
        if not (rows or error):
            error = InputFormatError(header_line, "header but no rows")
        return _build(lambda: cls(labels, header, rows), lines, error, header_line)


def _row_error(labels, rows) -> EntryError:
    """The first row whose label is refused or repeated, or that holds a
    negative count or takes the running total past 2**63 - 1; sought only
    once a whole-table check fails."""
    seen, total = set(), 0
    for i, (label, row) in enumerate(zip(labels, rows)):
        fault = _label_fault(label)
        if fault:
            return EntryError(i, fault)
        if label in seen:
            return EntryError(i, f"duplicate row label {label!r}")
        seen.add(label)
        if min(row, default=0) < 0:
            return EntryError(i, "negative count")
        total += sum(row)
        if total > _MAX_TOTAL:
            return EntryError(i, "counts total exceeds 2**63 - 1")


_MAX_TOTAL = 2**63 - 1  # largest int64


def _label_fault(label, what: str = "row label") -> str | None:
    """Why ``label`` cannot name a row, or the ``what`` of a catalog or
    lexicon entry (it is blank or holds a line end), or None when it can."""
    text = str(label)
    if not text.strip():
        return f"blank {what}"
    if _breaks_line(text):
        return f"{what} {label!r} holds a line break"
    return None


def _breaks_line(text: str) -> bool:
    """Whether ``text`` holds a line end, as :meth:`str.splitlines` counts them."""
    return "".join(text.splitlines()) != text


_CSV_SPECIAL = frozenset(',"\r\n')


def csv_field(value, alone: bool = False) -> str:
    """``value`` as one CSV field, quoted exactly as ``csv.writer`` (with
    ``lineterminator="\\n"``) quotes it; ``alone`` marks a row's only
    field, which that writer also quotes when it is empty. Plain text is
    returned as is, and only text holding a comma, a quote or a line
    break goes through ``csv.writer``."""
    text = str(value)
    if _CSV_SPECIAL.isdisjoint(text) and (text or not alone):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text] if alone else [text, ""])
    return buf.getvalue()[: -1 if alone else -2]


def _is_integer(text: str) -> bool:
    """Whether a table cell reads as a year or a count: an optionally
    negative ASCII digit run, blanks around it allowed."""
    digits = text.strip().removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _year_columns(year_range: tuple[int, int]) -> range:
    """The years of the inclusive ``year_range``; an empty one raises."""
    first, last = year_range
    if last < first:
        raise DataError("empty year range")
    return range(first, last + 1)


def tally(
    records: Iterable[BibRecord],
    tagger,
    row_labels: list[str],
    year_range: tuple[int, int],
) -> tuple[list[list[int]], int]:
    """Count (record, label) incidences by publication year.

    Returns a row of counts per label of ``row_labels``, a column per year
    of the inclusive ``year_range``, and the count of records skipped for a
    year that is missing or outside the range. The counts may all be 0.
    ``records`` may be any iterable, a generator among them: it is read
    once, one record at a time, and none is kept. ``tagger`` maps a record
    to a set of labels; labels outside ``row_labels`` are ignored. A record
    tagged with k labels adds k incidences to its year column.
    """
    years = _year_columns(year_range)
    first, last = years[0], years[-1]
    row_index = {label: i for i, label in enumerate(row_labels)}
    counts = [[0] * len(years) for _ in row_labels]
    skipped = 0
    for record in records:
        if record.year is None or not first <= record.year <= last:
            skipped += 1
            continue
        j = record.year - first
        for label in tagger(record):
            i = row_index.get(label)
            if i is not None:
                counts[i][j] += 1
    return counts, skipped


def build_table(
    tallies: Iterable[tuple[list[list[int]], int]],
    row_labels: list[str],
    year_range: tuple[int, int],
) -> tuple[ContingencyTable, int]:
    """Cross-tabulate (record, label) incidences by publication year.

    The table is the sum of ``tallies``, the ``(counts, skipped)`` pairs
    that :func:`tally` returned for ``row_labels`` and ``year_range``, one
    per batch of records: an alert file, say, tallied in another process.
    A tally of another shape, or a sum with no incidence, raises a
    DataError. Returns the table and the count of records skipped for
    their year.
    """
    years = _year_columns(year_range)
    counts = [[0] * len(years) for _ in row_labels]
    skipped = 0
    for more, more_skipped in tallies:
        if len(more) != len(counts) or any(len(row) != len(years) for row in more):
            raise DataError(f"a tally must hold {len(counts)} row(s) of {len(years)} count(s)")
        counts = [list(map(add, row, more_row)) for row, more_row in zip(counts, more)]
        skipped += more_skipped
    if not any(map(any, counts)):
        raise DataError("no (record, label) incidences in the year range")
    return ContingencyTable(tuple(row_labels), tuple(years), counts), skipped


def _parse_fixture_table(text: str) -> ContingencyTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split()
    years = tuple(1900 + int(y) if int(y) >= 50 else 2000 + int(y) for y in header)
    labels = []
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        labels.append(parts[0])
        rows.append([int(v) for v in parts[1:]])
    return ContingencyTable(tuple(labels), years, rows)


def load_fixture(name: str) -> ContingencyTable:
    """Bundled reference table by name: "Table1" (profile-by-year, 82x18)
    or "Table2" (discipline-by-year, 14x18)."""
    texts = {
        "Table1": fixtures.PROFILE_YEAR_TABLE,
        "Table2": fixtures.DISCIPLINE_YEAR_TABLE,
    }
    if name not in texts:
        raise DataError(f"unknown fixture {name!r}; expected one of {sorted(texts)}")
    return _parse_fixture_table(texts[name])
