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


class DuplicateEntryError(DataError):
    """Entry ``index`` repeats the id, label or match token of an earlier one."""

    def __init__(self, index: int, reason: str):
        super().__init__(reason)
        self.index = index


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
            if not (tab and key.strip()):  # raised after a duplicate on an earlier line
                error = InputFormatError(
                    line_no, f"expected a non-empty {cls._KEY}, a tab, then terms: {ln!r}")
                break
            lists = [tuple(t.strip() for t in part.split(",") if t.strip())
                     for part in rest.split("\t")]
            entries.append(cls._ENTRY(key.strip(), *lists[: cls._LISTS]))
            line_nos.append(line_no)
        try:
            vocabulary = cls(entries)
        except DuplicateEntryError as exc:
            raise InputFormatError(line_nos[exc.index], str(exc)) from None
        if error:
            raise error
        return vocabulary

    @classmethod
    def from_file(cls, path):
        return read_file(path, cls.from_text)

    @classmethod
    def default(cls):
        return cls.from_text(cls._DEFAULT)

    def _check_unique(self, keys: list[str]) -> None:
        first = {}
        for i, key in enumerate(keys):
            if first.setdefault(key, i) != i:
                raise DuplicateEntryError(i, f"duplicate {self._KEY} {key!r}")


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
        self._check_unique(self.ids)
        self._by_token = {}   # normalized token -> profile id
        self._by_author = {}  # author part of a normalized token -> profile ids
        for i, entry in enumerate(self.entries):
            for token in map(_normalize_token, entry.match_tokens):
                owner = self._by_token.setdefault(token, entry.id)
                if owner != entry.id:
                    raise DuplicateEntryError(i, f"token {token!r} already belongs to {owner!r}")
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
        self._check_unique(self.labels)
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
    packed bytes that the constructor checks the counts with."""

    row_labels: tuple[str, ...]
    col_labels: tuple
    rows: tuple[tuple[int, ...], ...]
    n: int = field(init=False, repr=False, compare=False)
    _cells: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.rows.tolist() if hasattr(self.rows, "tolist") else self.rows
        rows = tuple(map(tuple, rows))
        if len(rows) != len(self.row_labels) or {*map(len, rows)} - {len(self.col_labels)}:
            raise ValueError("counts shape does not match labels")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("duplicate column labels")
        # exact on Python ints; a float or numpy scalar anywhere makes the total one too
        total = sum(map(sum, rows))
        if type(total) is not int:
            raise ValueError("counts must be integers")
        try:
            # Packed as unsigned 64-bit ints, which no negative count fits. The
            # total caps every count at 2**63 - 1, so the bytes also read as int64.
            cells = array("Q", chain.from_iterable(rows)).tobytes()
        except OverflowError:
            cells = None
        if cells is None and min(map(min, rows)) < 0:
            raise ValueError("negative counts")
        if total > _MAX_TOTAL:
            raise ValueError("counts total exceeds 2**63 - 1")
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
        one row per label of nonnegative integer counts summing to at most
        2**63 - 1. Rows end at any ``str.splitlines`` line end; blank lines
        are skipped. A row label must not be blank, and no label may hold a
        line break. Quoting is strict: a quoted field ends at its closing
        quote, then a comma or the row's end. Any other shape raises
        :class:`InputFormatError`, naming the line where the first
        offending record starts."""
        reader = csv.reader(io.StringIO("\n".join(text.splitlines())), strict=True)
        header, header_line, rows, lines = None, 0, {}, []
        try:
            end = 0
            for fields in reader:
                line, end = end + 1, reader.line_num
                if not fields:
                    continue
                if header is None:
                    for c in fields[1:]:
                        if "\n" in c:
                            raise InputFormatError(
                                line, f"column label {c!r} holds a line break")
                    try:
                        header = tuple(_column_label(c) for c in fields[1:])
                    except ValueError:  # a digit run longer than int() converts
                        raise InputFormatError(line, "column label too long for a year") from None
                    header_line = line
                    if len(set(header)) != len(header):
                        raise InputFormatError(line, "duplicate column labels")
                    continue
                if len(fields) != len(header) + 1:
                    raise InputFormatError(
                        line, f"expected {len(header)} counts, got {len(fields) - 1}")
                label = fields[0]
                if not label.strip():
                    raise InputFormatError(line, "blank row label")
                if "\n" in label:
                    raise InputFormatError(line, f"row label {label!r} holds a line break")
                if label in rows:
                    raise InputFormatError(line, f"duplicate row label {label!r}")
                try:
                    rows[label] = tuple(map(int, fields[1:]))
                except ValueError:
                    raise InputFormatError(line, "counts must be integers") from None
                lines.append(line)
        except (InputFormatError, csv.Error) as exc:
            if isinstance(exc, csv.Error):  # its record starts after the last one read
                reason = str(exc)
                exc = InputFormatError(
                    end + 1, "unclosed quote" if reason == "unexpected end of data" else reason)
            raise _count_error(lines, rows.values()) or exc from None  # the earlier line wins
        if header is None:
            raise InputFormatError(1, "empty table")
        if not rows:
            raise InputFormatError(header_line, "header but no rows")
        try:
            return cls(tuple(rows), header, tuple(rows.values()))
        except ValueError as exc:  # a negative count or too large a total: find its line
            raise _count_error(lines, rows.values()) or exc from None


def _count_error(lines, rows) -> InputFormatError | None:
    """The error of the first row, on its line, that holds a negative count
    or takes the running total past 2**63 - 1; None if no row does.

    :meth:`ContingencyTable.from_csv` calls this only once it has an error
    to report, so reading a good table pays nothing for it."""
    total = 0
    for line, row in zip(lines, rows):
        if min(row, default=0) < 0:
            return InputFormatError(line, "negative count")
        total += sum(row)
        if total > _MAX_TOTAL:
            return InputFormatError(line, "counts total exceeds 2**63 - 1")
    return None


_MAX_TOTAL = 2**63 - 1  # largest int64


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


def _column_label(text: str):
    """Header cell as a year (int) when it is an optionally negative
    ASCII digit run, else the text itself."""
    digits = text.strip().removeprefix("-")
    return int(text) if digits.isascii() and digits.isdigit() else text


def build_table(
    records: Iterable[BibRecord],
    tagger,
    row_labels: list[str],
    year_range: tuple[int, int],
) -> tuple[ContingencyTable, int]:
    """Cross-tabulate (record, label) incidences by publication year.

    ``records`` may be any iterable, a generator among them: it is read
    once, one record at a time, and none is kept. ``tagger`` maps a
    record to a set of labels; labels outside ``row_labels`` are ignored.
    A record tagged with k labels adds k incidences to its year column.
    Records whose year is missing or outside the inclusive range are
    skipped; the skip count is returned alongside the table.
    """
    first, last = year_range
    if last < first:
        raise DataError("empty year range")
    cols = tuple(range(first, last + 1))
    row_index = {label: i for i, label in enumerate(row_labels)}
    counts = [[0] * len(cols) for _ in row_labels]
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
    if not any(map(any, counts)):
        raise DataError("no (record, label) incidences in the year range")
    return ContingencyTable(tuple(row_labels), cols, counts), skipped


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
        raise KeyError(f"unknown fixture {name!r}; expected one of {sorted(texts)}")
    return _parse_fixture_table(texts[name])
