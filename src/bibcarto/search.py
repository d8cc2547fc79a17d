"""In-memory inverted index over bibliographic records.

A token is a maximal run of ASCII ``0-9a-z`` in the lowercased text;
every other character separates tokens, so ``café`` gives ``caf``,
``naïve`` gives ``na`` and ``ve``, ``İstanbul`` (whose lowercase is
``i`` plus a combining dot) gives ``i`` and ``stanbul``, and ``٣``
gives none. The rule is one 256-byte table that keeps ``0-9a-z`` and
maps every other byte to a space, applied to the text encoded as ASCII
with ``"replace"`` (one byte per character). Indexed fields are
title, authors, source, keywords, keywords_plus and address. Queries
are conjunctions: the (case-sensitive) keyword AND separates terms,
``field:term`` pins a term to one field, bare terms match in any field.
Matching is term-exact after lowercasing; there is no stemming and no
stop-word list.

Results are ranked by the sum over matched terms of field weight times
term frequency (ties broken by record id) and served in pages of 10.
"More like this" scores every other record by the field-weighted count
of distinct terms shared per field and returns the top three, ties to
the smaller id. It gathers the postings of all the record's distinct
(term, field) pairs into one array, scores every record with one
``bincount`` weighted by each posting's field weight, and selects the
top three rather than sorting every score.

The index keeps its postings in compressed-sparse-row (CSR) form: each
(term, field) key owns one span of a flat ``int32`` array of record ids,
ascending, and the same span of a flat array of term frequencies.
Ranking reads each (term, field) row once, to find the matches, then
scores the rows it read term at a time; more-like-this scores all of its
spans at once. Neither visits records one by one. The field weights are
small integers, so every score is an exact integer in float64 whatever
the order of its terms, and ties fall to the smaller record id.

``build_index`` tokenizes a block of 256 records at a time in one
pass through the token table, rather than each field on its own, and
reduces the block at once to one integer code per token. The block is
bounded to keep peak memory down (see ``build_index``).
"""
from __future__ import annotations

import itertools
import operator
import string
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, is_int
from .records import BibRecord

FIELDS = ("title", "authors", "source", "keywords", "keywords_plus", "address")
_FIELD_VALUES = operator.attrgetter(*FIELDS)
_FIELD_ALIASES = {"author": "authors", "keyword": "keywords"}
DEFAULT_FIELD_WEIGHTS = {
    "title": 3.0,
    "keywords": 2.0,
    "authors": 1.0,
    "source": 1.0,
    "keywords_plus": 1.0,
    "address": 1.0,
}
# DEFAULT_FIELD_WEIGHTS by field position
_WEIGHTS = np.array([DEFAULT_FIELD_WEIGHTS[name] for name in FIELDS])
PAGE_SIZE = 10
MLT_COUNT = 3

# The token rule: ASCII 0-9 and a-z are kept, every other byte becomes a space.
_TOKEN_TABLE = bytes(c if chr(c) in string.digits + string.ascii_lowercase else ord(" ")
                     for c in range(256))
# Records per block pass of build_index: a bound on its peak memory (see there).
_BLOCK = 256


class QueryError(DataError):
    """A query string with no search term, an empty term or an unknown field."""


def _token_bytes(lowered: str) -> bytes:
    """``lowered`` with every character outside ``0-9a-z`` made a space, as
    one byte per character, so offsets are those of ``lowered``."""
    return lowered.encode("ascii", "replace").translate(_TOKEN_TABLE)


def tokenize(text: str) -> list[str]:
    return _token_bytes(text.lower()).decode("ascii").split()


def _field_texts(record: BibRecord) -> list[str]:
    """The text of each of the record's ``FIELDS``, in order; a list field's
    items are joined with " ; "."""
    return [value if isinstance(value, str) else " ; ".join(value)
            for value in _FIELD_VALUES(record)]


class Conjunct(NamedTuple):
    field: str | None
    term: str


@dataclass(frozen=True)
class Query:
    conjuncts: tuple[Conjunct, ...]


class Postings:
    """For each term and field, the ascending ``int32`` ids of the records
    holding the term in the field, and its frequency in each of them.

    The postings are compressed sparse rows (CSR). The term numbered
    ``n`` in field position ``f`` has key ``k = n * len(FIELDS) + f``;
    its row is ``ids[starts[k]:starts[k + 1]]``, and ``tf`` over the same
    span holds the term's frequency in each of those records.
    """

    def __init__(self, term_numbers: dict[str, int], starts: np.ndarray,
                 ids: np.ndarray, tf: np.ndarray):
        self._term_numbers = term_numbers
        self._starts = starts
        self._ids = ids
        self._tf = tf

    def row(self, term: str, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the records holding ``term`` in field ``name`` and
        its frequency in each; empty arrays when there are none."""
        number = self._term_numbers.get(term)
        if number is None:
            return _NO_ROW
        key = number * len(FIELDS) + FIELDS.index(name)
        start, end = self._starts[key : key + 2].tolist()
        return self._ids[start:end], self._tf[start:end]

    def gather(self, keys, field_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the (term, field position) ``keys`` as one array of
        ids, and beside each id the ``field_weights`` entry of its field.
        Every term must be in the index."""
        numbers = self._term_numbers
        codes = np.array([numbers[term] * len(FIELDS) + position for term, position in keys],
                         np.int64)
        starts = self._starts[codes]
        lengths = self._starts[codes + 1] - starts
        # The i-th id gathered sits at its span's start plus i, less the
        # number of ids gathered from the spans before its own.
        places = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        return self._ids[places], np.repeat(field_weights[codes % len(FIELDS)], lengths)

    def __len__(self) -> int:
        """The number of distinct terms."""
        return len(self._term_numbers)


_NO_ROW = (np.empty(0, np.int32), np.empty(0, np.int32))


@dataclass
class Index:
    """The records and their postings.

    Ranking reads each (term, field) row once: it unions and intersects
    the rows to find the matches, then scores the rows it read, adding
    ``weight * tf`` per conjunct and field, each match's ``tf`` found by
    binary search. More-like-this gathers the rows of the
    record's distinct (term, field) pairs into one array of ids, each
    beside its field's weight, and one weighted ``bincount`` of those ids
    scores every record: the sum over fields of ``weight * count`` of the
    terms it shares in that field. The weights are integers, so the sum is
    exact in any order. It selects the top ``MLT_COUNT`` with one partition
    and sorts only the few records scoring above the cut; ties at the cut
    go to the smallest ids.
    """

    records: tuple[BibRecord, ...]
    postings: Postings = field(repr=False)

    @property
    def doc_count(self) -> int:
        return len(self.records)


def build_index(records: list[BibRecord]) -> Index:
    """Index ``records``; their ids are their positions.

    A block of records is tokenized in one pass. The lowercased texts of
    its (record, field) slots are joined with spaces, translated through
    the token table and split once; each token's slot is found by binary
    search of its start offset among the slots' ends (each character is
    one byte, so byte offsets are text offsets). The block becomes one int64
    (term, field, record) code per token before the next block starts,
    and one ``np.unique`` over all the codes gives the postings.

    Blocks bound the memory of the token strings. Freed at once, they
    still pin the allocator's arenas: on 10,000 records (in process, parse
    plus build), peak RSS was 87.5 MB with the whole corpus in one block,
    61.8 MB with 1,024-record blocks, 57.5 MB with 256-record blocks and
    59.7 MB when each field was tokenized on its own.
    """
    doc_count = max(len(records), 1)
    # Number each distinct term in order of first occurrence, and each
    # (record, field) slot of a block as its record's place in the block
    # * len(FIELDS) + field position. A token's code is
    # (term * len(FIELDS) + field position) * doc_count + record id.
    term_number = defaultdict(itertools.count().__next__)
    codes = [np.empty(0, np.int64)]
    for first in range(0, len(records), _BLOCK):
        texts = [text.lower() for record in records[first : first + _BLOCK]
                 for text in _field_texts(record)]
        # A space opens every slot's text, so slot s lies just before ends[s]
        # and a token starts at a non-space byte after a space.
        text = _token_bytes(" " + " ".join(texts))
        word = np.frombuffer(text, np.uint8) != ord(" ")
        ends = np.cumsum(np.fromiter(map(len, texts), np.int64, len(texts)) + 1)
        slots = np.searchsorted(ends, np.flatnonzero(word[1:] > word[:-1]) + 1, side="right")
        terms = np.fromiter(map(term_number.__getitem__, text.decode("ascii").split()),
                            np.int64, len(slots))
        codes.append((terms * len(FIELDS) + slots % len(FIELDS)) * doc_count
                     + first + slots // len(FIELDS))
    # One sort of the codes, by (key, record id); the run length of each
    # code is the term frequency.
    codes = np.concatenate(codes)
    pairs, tf = np.unique(codes, return_counts=True)
    # Free the per-token codes before allocating the arrays the index
    # keeps. Kept arrays allocated among them would pin the freed heap, and
    # the process would stay about 9 MB larger (at 10,000 records) for as
    # long as the index lives.
    del codes
    # pairs ascend, so the row of key k starts at the first pair >= k * doc_count
    starts = np.searchsorted(pairs, np.arange(len(term_number) * len(FIELDS) + 1) * doc_count)
    pairs %= doc_count
    postings = Postings(dict(term_number), starts, pairs.astype(np.int32), tf.astype(np.int32))
    return Index(tuple(records), postings)


def parse_query(text: str) -> Query:
    """Split a query string into conjuncts.

    Whitespace-separated terms all take part in the conjunction; the
    token AND (exactly uppercase) is an optional separator, lowercase
    "and" is an ordinary search term.
    """
    conjuncts = []
    for token in text.split():
        if token == "AND":
            continue
        if ":" in token:
            name, term = token.split(":", 1)
            name = _FIELD_ALIASES.get(name.lower(), name.lower())
            if name not in FIELDS:
                raise QueryError(f"unknown field {name!r}")
            if not term:
                raise QueryError(f"empty term in conjunct {token!r}")
            conjuncts.append(Conjunct(name, term.lower()))
        else:
            conjuncts.append(Conjunct(None, token.lower()))
    if not conjuncts:
        raise QueryError("query has no search terms")
    return Query(tuple(conjuncts))


def ranked_matches(index: Index, query: Query) -> list[int]:
    """All record ids satisfying every conjunct, best score first."""
    rows, candidates = [], None  # rows: (field weight, ids, tf), each read once
    for conjunct in query.conjuncts:
        names = (conjunct.field,) if conjunct.field else FIELDS
        found = [(DEFAULT_FIELD_WEIGHTS[name], ids, tf) for name in names
                 for ids, tf in [index.postings.row(conjunct.term, name)] if ids.size]
        # one row is already ascending and free of repeats; no row, no match
        matching = (found[0][1] if len(found) == 1
                    else np.unique(np.concatenate([_NO_ROW[0], *(ids for _, ids, _ in found)])))
        candidates = (matching if candidates is None
                      else np.intersect1d(candidates, matching, assume_unique=True))
        if not candidates.size:
            return []
        rows += found
    total = np.zeros(len(candidates))
    for weight, ids, tf in rows:
        at = np.minimum(np.searchsorted(ids, candidates), len(ids) - 1)
        total += weight * np.where(ids[at] == candidates, tf[at], 0)
    # a stable sort of ascending ids breaks score ties by id
    return candidates[np.argsort(-total, kind="stable")].tolist()


def search(index: Index, query: Query, page: int = 1) -> list[int]:
    """Page ``page`` (1-based, 10 per page) of the ranked matches.

    Pages beyond the last are empty, not an error.
    """
    if not (is_int(page) and page >= 1):
        raise DataError(f"page must be positive, got {page!r}")
    ranked = ranked_matches(index, query)
    start = PAGE_SIZE * (page - 1)
    return ranked[start : start + PAGE_SIZE]


def more_like_this(index: Index, doc_id: int) -> list[int]:
    """The ``MLT_COUNT`` records (fewer in a smaller index) sharing the most
    field-weighted terms with the given one, best first and ties to the
    smaller id; the record itself is excluded. ``doc_id`` is an integer,
    not a ``bool``, which numpy would read as a mask.

    Every record is scored at once: one gather of the postings of the
    record's distinct (term, field) pairs and one ``bincount`` of their ids
    weighted by field, exact because the weights are integers. The best
    are selected, not sorted: one partition finds the cut, and only the
    records scoring above it are sorted.
    """
    if not (is_int(doc_id) and 0 <= doc_id < index.doc_count):
        raise DataError(f"no record with id {doc_id!r}")
    limit = min(MLT_COUNT, index.doc_count - 1)
    if not limit:
        return []
    keys = [(term, position) for position, text in enumerate(_field_texts(index.records[doc_id]))
            for term in set(tokenize(text))]
    ids, weights = index.postings.gather(keys, _WEIGHTS)
    total = np.bincount(ids, weights, minlength=index.doc_count)
    # Every score is at least 0, so -1 puts the record itself last. (With no
    # ids, bincount gives int64 zeros, which cannot hold -inf.)
    total[doc_id] = -1
    # Select, don't sort: the cut is the limit-th largest score. Fewer than
    # limit ids score above it; a stable sort of those (ascending) ids ranks
    # them, ties by id, and the smallest ids scoring exactly the cut follow.
    cut = np.partition(total, -limit)[-limit]
    above = np.flatnonzero(total > cut)
    at_cut = np.flatnonzero(total == cut)[: limit - len(above)]
    return above[np.argsort(-total[above], kind="stable")].tolist() + at_cut.tolist()
