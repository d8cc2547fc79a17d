"""Shared test oracles, independent of the implementations they check."""
import csv
import io
import re
import itertools
import string
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

from bibcarto.ca import inertia_report
from bibcarto.corpus import ContingencyTable
from bibcarto.records import (
    AmbiguousFormatError,
    BibRecord,
    RecordFormat,
    RecordLineError,
    RecordParseError,
)
from bibcarto.search import FIELDS, Postings, tokenize


def random_table(rng, min_side=3, max_side=20) -> ContingencyTable:
    """Random integer table with no all-zero row or column."""
    i = int(rng.integers(min_side, max_side + 1))
    j = int(rng.integers(min_side, max_side + 1))
    counts = rng.integers(0, 40, size=(i, j))
    for r in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[r, rng.integers(0, j)] += 1
    for c in np.flatnonzero(counts.sum(axis=0) == 0):
        counts[rng.integers(0, i), c] += 1
    rows = tuple(f"r{k}" for k in range(i))
    cols = tuple(range(2000, 2000 + j))
    return ContingencyTable(rows, cols, counts)


def chi_squared(counts: np.ndarray) -> float:
    """Pearson chi-squared statistic from first principles."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n
    return float(((counts - expected) ** 2 / expected).sum())


def assert_axis_equal_up_to_sign(a: np.ndarray, b: np.ndarray, tol=1e-9):
    """Column-wise equality allowing an independent sign per axis."""
    assert a.shape == b.shape
    for k in range(a.shape[1]):
        direct = np.max(np.abs(a[:, k] - b[:, k]))
        flipped = np.max(np.abs(a[:, k] + b[:, k]))
        assert min(direct, flipped) <= tol, f"axis {k}: {direct}, {flipped}"


def naive_ward(coords: np.ndarray, masses: np.ndarray):
    """Agglomerate by recomputing every centroid pair at every step.

    Returns merges as (a, b, height, new_id, frozenset_of_leaves) with
    the same id numbering and tie-break as the production code, but no
    shared arithmetic: distances always come from fresh centroids.
    """
    n = len(coords)
    members = {i: frozenset([i]) for i in range(n)}
    centroid = {i: np.array(coords[i], dtype=float) for i in range(n)}
    mass = {i: float(masses[i]) for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        for a in sorted(centroid):
            for b in sorted(centroid):
                if b <= a:
                    continue
                diff = centroid[a] - centroid[b]
                delta = mass[a] * mass[b] / (mass[a] + mass[b]) * float(diff @ diff)
                key = (delta, (a, b))
                if best is None or key < best:
                    best = key
        delta, (a, b) = best
        new_id = n + step
        m = mass[a] + mass[b]
        centroid[new_id] = (mass[a] * centroid[a] + mass[b] * centroid[b]) / m
        mass[new_id] = m
        members[new_id] = members[a] | members[b]
        merges.append((a, b, delta, new_id, members[new_id]))
        for gone in (a, b):
            del centroid[gone], mass[gone]
    return merges


def dense_ward(coords: np.ndarray, masses: np.ndarray):
    """Ward by scanning the whole live matrix at every merge.

    The dense-matrix loop that ``ward.ward_hac`` replaced: one row and
    column per live cluster in ascending id order, merged at the first
    matrix minimum in row-major order, and compacted after each merge.
    Its full per-row fill is what ``ward_hac``'s once-per-pair fill must
    equal, and it shares ``ward_hac``'s Lance-Williams expression, so
    merges and heights must agree bit for bit. Returns merges as
    (a, b, height, new_id); raises ``ArithmeticError`` like ``ward_hac``.
    """
    n = len(coords)
    mass = np.array(masses, dtype=float)
    delta = np.empty((n, n))
    for i in range(n):
        diff = coords - coords[i]
        delta[i] = mass[i] * mass / (mass[i] + mass) * np.einsum("ij,ij->i", diff, diff)
    np.fill_diagonal(delta, np.inf)
    ids = list(range(n))

    merges = []
    for new_id in range(n, 2 * n - 1):
        m = len(ids)
        sa, sb = divmod(int(delta.argmin()), m)
        height = delta[sa, sb]
        if not np.isfinite(height):
            raise ArithmeticError(f"Ward criterion is not finite ({height})")
        m_new = mass[sa] + mass[sb]
        merged = (
            (mass[sa] + mass) * delta[sa]
            + (mass[sb] + mass) * delta[sb]
            - mass * height
        ) / (m_new + mass)
        merged[sa] = np.inf
        delta[sa] = delta[:, sa] = merged
        mass[sa] = m_new
        live = np.r_[0:sa, sa + 1 : sb, sb + 1 : m, sa]
        delta, mass = delta[np.ix_(live, live)], mass[live]
        merges.append((ids[sa], ids[sb], float(height), new_id))
        del ids[sb], ids[sa]
        ids.append(new_id)
    return merges


def exact_ward_minima(coords: np.ndarray, merges):
    """Replay ``merges`` ((a, b) id pairs) on unit-mass points with integer
    coordinates, in exact rational arithmetic.

    Before each merge, returns the least Ward increase over all current
    pairs (a Fraction) and the set of pairs attaining it. A cluster is
    kept as its coordinate sum S and size m, so the increase of (p, q) is
    ||m_q S_p - m_p S_q||^2 / (m_p m_q (m_p + m_q)), with no rounding.
    """
    n = len(coords)
    sums = {i: [int(x) for x in coords[i]] for i in range(n)}
    size = {i: 1 for i in range(n)}
    minima = []
    for step, (a, b) in enumerate(merges):
        ids = sorted(sums)
        heights = {}
        for i, p in enumerate(ids):
            for q in ids[i + 1:]:
                num = sum((size[q] * x - size[p] * y) ** 2 for x, y in zip(sums[p], sums[q]))
                heights[(p, q)] = Fraction(num, size[p] * size[q] * (size[p] + size[q]))
        least = min(heights.values())
        minima.append((least, {pair for pair, h in heights.items() if h == least}))
        sums[n + step] = [x + y for x, y in zip(sums[a], sums[b])]
        size[n + step] = size[a] + size[b]
        for gone in (a, b):
            del sums[gone], size[gone]
    return minima


def linear_scan_search(records, tokenized_fields, query, weights):
    """Rank matching record ids by scanning every record.

    ``tokenized_fields[i][field]`` is the token Counter of record i;
    built by the caller with its own tokenizer.
    """
    matches = []
    for i, fields in enumerate(tokenized_fields):
        ok = True
        for conj in query.conjuncts:
            names = (conj.field,) if conj.field else tuple(fields)
            if not any(conj.term in fields[name] for name in names):
                ok = False
                break
        if ok:
            matches.append(i)

    def score(i):
        total = 0.0
        for conj in query.conjuncts:
            names = (conj.field,) if conj.field else tuple(tokenized_fields[i])
            for name in names:
                total += weights[name] * tokenized_fields[i][name][conj.term]
        return total

    return sorted(matches, key=lambda i: (-score(i), i))


def _doc_terms(records):
    """Per record, per search field, the Counter of its tokens."""
    out = []
    for record in records:
        per_field = {}
        for name in FIELDS:
            value = getattr(record, name)
            text = " ; ".join(value) if isinstance(value, list) else value
            per_field[name] = Counter(tokenize(text))
        out.append(per_field)
    return out


def naive_tokenize(text):
    """The token rule as a regular expression: maximal runs of ASCII 0-9a-z
    in the lowercased text."""
    return re.findall("[0-9a-z]+", text.lower())


def naive_build_index(records):
    """The postings built by tokenizing every (record, field) slot on its
    own, with ``naive_tokenize``, and sorting all the tokens at once."""
    term_number = defaultdict(itertools.count().__next__)
    token_terms, slot_sizes = [], []
    for record in records:
        for name in FIELDS:
            value = getattr(record, name)
            tokens = naive_tokenize(" ; ".join(value) if isinstance(value, list) else value)
            token_terms += map(term_number.__getitem__, tokens)
            slot_sizes.append(len(tokens))
    slots = np.repeat(np.arange(len(slot_sizes)), slot_sizes)
    keys = np.array(token_terms, dtype=np.int64) * len(FIELDS) + slots % len(FIELDS)
    doc_count = max(len(records), 1)
    pairs, tf = np.unique(keys * doc_count + slots // len(FIELDS), return_counts=True)
    starts = np.searchsorted(pairs, np.arange(len(term_number) * len(FIELDS) + 1) * doc_count)
    pairs %= doc_count
    return Postings(dict(term_number), starts, pairs.astype(np.int32), tf.astype(np.int32))


def naive_ranked_matches(records, weights, query):
    """Ranked record ids for ``query`` by scoring each matching record in
    turn: the float sum, conjunct by conjunct and field by field, of
    ``weights[field] * tf``."""
    doc_terms = _doc_terms(records)
    candidates = None
    for conjunct in query.conjuncts:
        fields = (conjunct.field,) if conjunct.field else FIELDS
        matching = {i for i, terms in enumerate(doc_terms)
                    if any(conjunct.term in terms[name] for name in fields)}
        candidates = matching if candidates is None else candidates & matching
        if not candidates:
            return []

    def score(doc_id):
        total = 0.0
        for conjunct in query.conjuncts:
            fields = (conjunct.field,) if conjunct.field else FIELDS
            for name in fields:
                total += weights[name] * doc_terms[doc_id][name].get(conjunct.term, 0)
        return total

    return sorted(candidates, key=lambda doc_id: (-score(doc_id), doc_id))


def naive_more_like_this(records, weights, doc_id, limit=3):
    """The ``limit`` records most like record ``doc_id`` by scoring every
    other record in turn: the float sum, in FIELDS order, of
    ``weights[field]`` times the number of distinct terms shared in it."""
    doc_terms = _doc_terms(records)
    own = doc_terms[doc_id]

    def score(other):
        total = 0.0
        for name in FIELDS:
            shared = own[name].keys() & doc_terms[other][name].keys()
            total += weights[name] * len(shared)
        return total

    others = [i for i in range(len(records)) if i != doc_id]
    others.sort(key=lambda i: (-score(i), i))
    return others[:limit]


def naive_author_matches(entries, term) -> set:
    """Ids of catalog ``entries`` matching a ``rauth`` search term, by
    normalizing and splitting every match token of every entry for this
    one term. The author part is the token before its two-digit year; a
    trailing ``*`` on the term makes it a prefix match."""
    def normalize(token):
        return " ".join(token.split()).upper()

    def author(token):
        m = re.match(r"^(.*\S)\s+(\d{2})$", token)
        return m.group(1) if m else token

    term = normalize(term)
    prefix = term.endswith("*")
    term = term.rstrip("*").strip()
    if not term:
        return set()
    found = set()
    for entry in entries:
        for token in entry.match_tokens:
            name = author(normalize(token))
            if name == term or (prefix and name.startswith(term)):
                found.add(entry.id)
    return found


def naive_disciplines(record, entries) -> set:
    """Labels of lexicon ``entries`` a record fires, by finding every
    occurrence of every term in each lowercased field and checking it
    against every other term: an occurrence counts unless a longer term
    of another label starts at the same place."""
    terms = [(entry.label, t.lower()) for entry in entries for t in entry.match_terms]
    haystacks = [record.title, record.source, "; ".join(record.keywords),
                 "; ".join(record.keywords_plus)]
    labels = set()
    for text in haystacks:
        low = text.lower()
        for label, term in terms:
            if label in labels:
                continue
            start = 0
            while (pos := low.find(term, start)) >= 0:
                shadowed = any(
                    other != label and len(t2) > len(term) and low.startswith(t2, pos)
                    for other, t2 in terms
                )
                if not shadowed:
                    labels.add(label)
                    break
                start = pos + 1
    return labels


_NAIVE_RA_TAGS = ("T", "A", "K", "U", "W", "W.")
_NAIVE_RA_LINE_RE = re.compile(r"^(T|A|K|U|W\.|W)(\s|$)")
_NAIVE_PA_HEADERS = ("TITLE", "AUTHOR", "SOURCE", "SEARCH TERM(S)", "KEYWORDS", "KEYWORDS+",
                     "AUTHOR ADDRESS")
_NAIVE_PA_HEADER_RE = re.compile(r"^([A-Z][A-Z ()+]*):(.*)$")


def _naive_squash(text):
    return " ".join(text.split())


def naive_extract_year(source):
    year = None
    for token in source.split():
        token = token.strip(string.punctuation)
        if re.fullmatch(r"[12][0-9]{3}", token) and 1900 <= int(token) <= 2100:
            year = int(token)
    return year


def _naive_pa_line_ok(line):
    if line[:1] in (" ", "\t"):
        return True
    m = _NAIVE_PA_HEADER_RE.match(line)
    return bool(m) and m.group(1) in _NAIVE_PA_HEADERS


def _naive_detect_format(text):
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise AmbiguousFormatError("empty input matches no alert format")
    ra_bad = pa_bad = None
    for n, ln in lines:
        if ra_bad is None and not _NAIVE_RA_LINE_RE.match(ln):
            ra_bad = (n, ln)
        if pa_bad is None and not _naive_pa_line_ok(ln):
            pa_bad = (n, ln)
    if ra_bad is None and pa_bad is not None:
        return RecordFormat.RESEARCH_ALERT
    if pa_bad is None and ra_bad is not None:
        return RecordFormat.PERSONAL_ALERT
    if ra_bad is None and pa_bad is None:
        raise AmbiguousFormatError("input matches both alert formats")
    raise AmbiguousFormatError(
        "input matches no alert format: "
        f"not ResearchAlert (line {ra_bad[0]}: {ra_bad[1]!r}); "
        f"not PersonalAlert (line {pa_bad[0]}: {pa_bad[1]!r})"
    )


def _naive_blank_separated_blocks(text):
    block = []
    for n, ln in enumerate(text.splitlines(), 1):
        if ln.strip():
            block.append((n, ln))
        elif block:
            yield block
            block = []
    if block:
        yield block


def _naive_title_separated_blocks(text):
    block = []
    for n, ln in enumerate(text.splitlines(), 1):
        if not ln.strip():
            continue
        if ln.startswith("TITLE:") and block:
            yield block
            block = []
        block.append((n, ln))
    if block:
        yield block


def _naive_parse_ra_block(block):
    parts = {tag: [] for tag in _NAIVE_RA_TAGS}
    for n, ln in block:
        tag = ln.split(None, 1)[0]
        if tag not in _NAIVE_RA_TAGS or not ln.startswith(tag):
            raise RecordLineError(n, f"unknown tag {tag!r}")
        value = ln[len(tag):]
        parts[tag].append(value.strip() if tag == "W." else _naive_squash(value))
    title = _naive_squash(" ".join(parts["T"]))
    if not title:
        raise RecordLineError(block[0][0], "record has no title")  # the block's first line
    source = _naive_squash(" ".join(parts["U"]))
    return BibRecord(
        title=title,
        raw_format=RecordFormat.RESEARCH_ALERT,
        authors=[a for a in parts["A"] if a],
        source=source,
        keywords=[k for k in parts["K"] if k],
        profile_citations=[w for w in parts["W."] if w],
        address=_naive_squash(" ".join(parts["W"])),
        year=naive_extract_year(source),
    )


def _naive_split_list(value):
    return [part.strip() for part in value.split(";") if part.strip()]


def _naive_split_qualifier(entry):
    head, _, tail = entry.rpartition(" ")
    if not head:
        return entry, ""
    return head.strip(), tail


def _naive_parse_pa_block(block):
    values = {h: [] for h in _NAIVE_PA_HEADERS}
    current = None
    for n, ln in block:
        if ln[:1] in (" ", "\t"):
            if current is None:
                raise RecordLineError(n, f"unknown header {ln.strip()!r}")
            values[current].append(ln.strip())
            continue
        m = _NAIVE_PA_HEADER_RE.match(ln)
        if not m or m.group(1) not in _NAIVE_PA_HEADERS:
            raise RecordLineError(n, f"unknown header {ln.split(':')[0]!r}")
        current = m.group(1)
        values[current].append(m.group(2).strip())

    def joined(header):
        return _naive_squash(" ".join(values[header]))

    title = joined("TITLE")
    if not title:
        raise RecordLineError(block[0][0], "record has no title")  # the block's first line
    source = joined("SOURCE")
    return BibRecord(
        title=title,
        raw_format=RecordFormat.PERSONAL_ALERT,
        authors=_naive_split_list(joined("AUTHOR")),
        source=source,
        keywords=_naive_split_list(joined("KEYWORDS")),
        keywords_plus=_naive_split_list(joined("KEYWORDS+")),
        search_terms=[_naive_split_qualifier(t)
                      for t in _naive_split_list(joined("SEARCH TERM(S)"))],
        address=joined("AUTHOR ADDRESS"),
        year=naive_extract_year(source),
    )


def naive_parse_records_lenient(text, fmt=None):
    """Records and errors of alert ``text`` by the two-grammar parser that
    re-tests each line in its own way: detection walks every line with a
    tag regex and a header check, a generator per format cuts the blocks
    (blank lines for Research Alert, ``TITLE:`` lines for Personal Alert)
    from a second split of the text, and the block parsers split each
    line again to find its tag or header."""
    try:
        fmt = fmt or _naive_detect_format(text)
    except AmbiguousFormatError as exc:
        return [], [exc]
    if fmt is RecordFormat.RESEARCH_ALERT:
        chunks, parse_one = _naive_blank_separated_blocks(text), _naive_parse_ra_block
    else:
        chunks, parse_one = _naive_title_separated_blocks(text), _naive_parse_pa_block
    records, errors = [], []
    for block in chunks:
        try:
            records.append(parse_one(block))
        except RecordParseError as exc:
            errors.append(exc)
    return records, errors


def _fmt(x: float) -> str:
    return format(x, ".12g")


def naive_coordinates_csv(result, supplementary=(), axes=None) -> str:
    """``ca.write_coordinates_csv`` as ``csv.writer`` plus one ``format``
    call per cell, the way it was written before the row-format writer."""
    k = result.n_axes if axes is None else min(axes, result.n_axes)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "kind", *(f"axis{i}" for i in range(1, k + 1))])
    for label, coords in zip(result.row_labels, result.row_coords[:, :k].tolist()):
        writer.writerow([label, "row", *map(_fmt, coords)])
    for label, coords in zip(result.col_labels, result.col_coords[:, :k].tolist()):
        writer.writerow([label, "col", *map(_fmt, coords)])
    for label, coords in supplementary:
        writer.writerow([label, "sup", *map(_fmt, coords[:k].tolist())])
    return buf.getvalue()


def naive_inertia_csv(result) -> str:
    """``ca.write_inertia_csv`` through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["axis", "eigenvalue", "percentage", "cumulative"])
    for axis, lam, pct, cum in inertia_report(result):
        writer.writerow([axis, _fmt(lam), _fmt(pct), _fmt(cum)])
    return buf.getvalue()


def naive_table_csv(table) -> str:
    """``ContingencyTable.to_csv`` through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", *table.col_labels])
    for label, row in zip(table.row_labels, table.counts):
        writer.writerow([label, *(int(v) for v in row)])
    return buf.getvalue()


def naive_partition_csv(partition) -> str:
    """``ward.write_partition_csv`` through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "cluster"])
    for label, cluster in partition.assignment.items():
        writer.writerow([label, cluster])
    return buf.getvalue()
