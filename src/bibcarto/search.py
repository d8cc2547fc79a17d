"""In-memory inverted index over bibliographic records.

Tokens are maximal alphanumeric runs, lowercased; indexed fields are
title, authors, source, keywords, keywords_plus and address. Queries
are conjunctions: the (case-sensitive) keyword AND separates terms,
``field:term`` pins a term to one field, bare terms match in any field.
Matching is term-exact after lowercasing; there is no stemming and no
stop-word list.

Results are ranked by the sum over matched terms of field weight times
term frequency (ties broken by record id) and served in pages of 10.
"More like this" scores every other record by the field-weighted count
of distinct terms shared per field and returns the top three.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DataError
from .records import BibRecord

FIELDS = ("title", "authors", "source", "keywords", "keywords_plus", "address")
_FIELD_ALIASES = {"author": "authors", "keyword": "keywords"}
DEFAULT_FIELD_WEIGHTS = {
    "title": 3.0,
    "keywords": 2.0,
    "authors": 1.0,
    "source": 1.0,
    "keywords_plus": 1.0,
    "address": 1.0,
}
PAGE_SIZE = 10

_TOKEN_RE = re.compile(r"[0-9a-z]+")


class QueryError(DataError):
    pass


class EmptyQueryError(QueryError):
    pass


class UnknownFieldError(QueryError):
    pass


class UnknownRecordError(DataError):
    pass


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _field_text(record: BibRecord, name: str) -> str:
    value = getattr(record, name)
    if isinstance(value, list):
        return " ; ".join(value)
    return value


class Conjunct(NamedTuple):
    field: str | None
    term: str


@dataclass(frozen=True)
class Query:
    conjuncts: tuple[Conjunct, ...]


@dataclass
class Index:
    """``postings`` maps term -> field -> ids of the records holding it;
    ``_doc_terms`` holds each record's per-field term counts, the one
    copy of term frequency."""

    records: tuple[BibRecord, ...]
    field_weights: dict[str, float]
    postings: dict[str, dict[str, list[int]]] = field(repr=False, default_factory=dict)
    _doc_terms: list[dict[str, Counter]] = field(repr=False, default_factory=list)

    @property
    def doc_count(self) -> int:
        return len(self.records)


def build_index(
    records: list[BibRecord], field_weights: dict[str, float] | None = None
) -> Index:
    weights = dict(DEFAULT_FIELD_WEIGHTS if field_weights is None else field_weights)
    if any(w <= 0 for w in weights.values()):
        raise ValueError("field weights must be strictly positive")
    index = Index(records=tuple(records), field_weights=weights)
    for doc_id, record in enumerate(records):
        per_field = {}
        for name in FIELDS:
            counts = Counter(tokenize(_field_text(record, name)))
            per_field[name] = counts
            for term in counts:
                index.postings.setdefault(term, {}).setdefault(name, []).append(doc_id)
        index._doc_terms.append(per_field)
    return index


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
                raise UnknownFieldError(f"unknown field {name!r}")
            if not term:
                raise EmptyQueryError(f"empty term in conjunct {token!r}")
            conjuncts.append(Conjunct(name, term.lower()))
        else:
            conjuncts.append(Conjunct(None, token.lower()))
    if not conjuncts:
        raise EmptyQueryError("query has no search terms")
    return Query(tuple(conjuncts))


def _tf(index: Index, doc_id: int, name: str, term: str) -> int:
    return index._doc_terms[doc_id][name].get(term, 0)


def ranked_matches(index: Index, query: Query) -> list[int]:
    """All record ids satisfying every conjunct, best score first."""
    candidates = None
    for conjunct in query.conjuncts:
        fields = (conjunct.field,) if conjunct.field else FIELDS
        matching = set()
        for name in fields:
            matching.update(index.postings.get(conjunct.term, {}).get(name, ()))
        candidates = matching if candidates is None else candidates & matching
        if not candidates:
            return []

    def score(doc_id: int) -> float:
        total = 0.0
        for conjunct in query.conjuncts:
            fields = (conjunct.field,) if conjunct.field else FIELDS
            for name in fields:
                total += index.field_weights[name] * _tf(index, doc_id, name, conjunct.term)
        return total

    return sorted(candidates, key=lambda doc_id: (-score(doc_id), doc_id))


def search(index: Index, query: Query, page: int = 1) -> list[int]:
    """Page ``page`` (1-based, 10 per page) of the ranked matches.

    Pages beyond the last are empty, not an error.
    """
    if page < 1:
        raise ValueError(f"page must be positive, got {page}")
    ranked = ranked_matches(index, query)
    start = PAGE_SIZE * (page - 1)
    return ranked[start : start + PAGE_SIZE]


def more_like_this(index: Index, doc_id: int, limit: int = 3) -> list[int]:
    """The ``limit`` records sharing the most field-weighted terms with
    the given one (ties by id); the record itself is excluded."""
    if not 0 <= doc_id < index.doc_count:
        raise UnknownRecordError(f"no record with id {doc_id}")
    own = index._doc_terms[doc_id]

    def score(other: int) -> float:
        total = 0.0
        for name in FIELDS:
            shared = own[name].keys() & index._doc_terms[other][name].keys()
            total += index.field_weights[name] * len(shared)
        return total

    others = [i for i in range(index.doc_count) if i != doc_id]
    others.sort(key=lambda i: (-score(i), i))
    return others[:limit]
