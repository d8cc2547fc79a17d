"""Seeded inputs for the bibcarto benchmark, with what was planted in them.

Every generator takes a seed and an output directory, writes the input
files there and returns a manifest: the file names plus the counts the
program's outputs must reproduce. The counts come from the generator's
own bookkeeping and its own small oracles, never from bibcarto code;
only the bundled catalog and lexicon texts are read from the package,
because they are the data a user runs against.

ingest  10 alert files, 5 Research Alert and 5 Personal Alert, 1,000
        records each. Catalog citations carry padded whitespace; rauth
        terms are exact, wildcarded or unknown; the lexicon adds two
        overlapping terms (Psych inside Psychology, Eco inside Ecology);
        some titles mention a galaxy cluster; some years are missing or
        outside 1994..2011.
map     a 200-profile x 60-year table and 40 supplementary rows, both
        with smooth per-row year profiles plus Poisson noise.
search  10,000 records in 5 alert files over a 5,000-word vocabulary
        drawn Zipf-style, plus 1,000 queries and 100 more-like-this ids.
"""
from __future__ import annotations

import bisect
import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

YEARS = (1994, 2011)
_TOKEN_YEAR_RE = re.compile(r"^(.*\S)\s+(\d{2})$")
_SEARCH_TOKEN_RE = re.compile(r"[0-9a-z]+")
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"] + ["ar", "en", "ol", "ix", "um"]
_MONTHS = ["JAN", "FEB", "MAR", "APR", "MAY", "JUN", "JUL", "AUG", "SEP", "OCT", "NOV", "DEC"]
_PA_INDENT = " " * 16

# Overlapping terms added to the bundled lexicon: "Psych" is a prefix of
# Psychology (label Psych) and "Eco" of Ecology (label Ecol), so the
# longest-term rule decides which label a word fires.
_EXTRA_TERMS = {"Psy": ["Psych"], "Eco": ["Eco"]}


def _words(rng: random.Random, count: int, banned: tuple[str, ...], lo=2, hi=4) -> list[str]:
    """``count`` distinct pronounceable words none of which contains a banned substring."""
    seen: set[str] = set()
    out = []
    while len(out) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(lo, hi)))
        if word in seen or any(b in word for b in banned):
            continue
        seen.add(word)
        out.append(word)
    return out


def _wrap_pa(header: str, text: str, width: int = 64) -> list[str]:
    """A Personal Alert field: header line plus indented continuations."""
    lines, current = [], ""
    for word in text.split(" "):
        if current and len(current) + 1 + len(word) > width:
            lines.append(current)
            current = word
        else:
            current = f"{current} {word}" if current else word
    lines.append(current)
    first = f"{header}:".ljust(16) + lines[0]
    return [first] + [_PA_INDENT + ln for ln in lines[1:]]


def _source(rng: random.Random, journal: str, year: int | None) -> str:
    text = f"{journal} {rng.randint(1, 99)}({rng.randint(1, 12)}): {rng.randint(1, 400)}-{rng.randint(401, 999)}"
    if year is None:
        return text
    return f"{text}, {rng.choice(_MONTHS)} {year}"


# ---------------------------------------------------------------- ingest

def _parse_catalog(text: str) -> list[tuple[str, list[str], list[str]]]:
    """(id, match tokens, author parts) per catalog line."""
    out = []
    for ln in text.splitlines():
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        parts = ln.split("\t")
        tokens = [" ".join(t.split()).upper() for t in parts[1].split(",") if t.strip()]
        authors = []
        for tok in tokens:
            m = _TOKEN_YEAR_RE.match(tok)
            authors.append(m.group(1) if m else tok)
        out.append((parts[0].strip(), tokens, authors))
    return out


def _parse_lexicon(text: str) -> list[tuple[str, list[str]]]:
    out = []
    for ln in text.splitlines():
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        label, terms = ln.split("\t")[:2]
        out.append((label.strip(), [t.strip() for t in terms.split(",") if t.strip()]))
    return out


def _labels_in(word: str, lexicon: list[tuple[str, list[str]]]) -> set[str]:
    """Labels a single word fires: an occurrence counts unless a longer
    term of another label starts at the same place."""
    low = word.lower()
    terms = [(label, t.lower()) for label, ts in lexicon for t in ts]
    fired = set()
    for label, term in terms:
        for pos in range(len(low)):
            if low.startswith(term, pos) and not any(
                other != label and len(t2) > len(term) and low.startswith(t2, pos)
                for other, t2 in terms
            ):
                fired.add(label)
    return fired


def make_ingest(seed: int, outdir: Path, catalog_text: str, lexicon_text: str,
                files_per_format: int = 5, records_per_file: int = 1000) -> dict:
    rng = random.Random(seed)
    catalog = _parse_catalog(catalog_text)
    lexicon = _parse_lexicon(lexicon_text)
    for label, extra in _EXTRA_TERMS.items():
        lexicon = [(lb, ts + extra if lb == label else ts) for lb, ts in lexicon]
    lexicon_path = outdir / "lexicon.tsv"
    lexicon_path.write_text("".join(f"{lb}\t{','.join(ts)}\n" for lb, ts in lexicon))

    # Discipline words and the one label each must fire.
    disc_words = []
    for label, terms in lexicon:
        for term in terms:
            for word in (term, term.upper(), term.lower()):
                fired = _labels_in(word, lexicon)
                if fired != {label}:
                    raise AssertionError(f"lexicon word {word!r} fires {fired}")
                disc_words.append((word, label))
    banned = tuple(t.lower() for _, ts in lexicon for t in ts) + ("galaxy", "cluster")
    filler = _words(rng, 1500, banned)
    journals = [" ".join(w.upper() for w in rng.sample(filler, rng.randint(1, 3))) for _ in range(60)]
    known_authors = {a for _, _, authors in catalog for a in authors}
    surnames = [w.upper() for w in _words(rng, 400, banned, 3, 4)]
    surnames = [s for s in surnames if not any(a.startswith(s) or s.startswith(a.split()[0]) for a in known_authors)]
    tokens = [(cid, tok) for cid, toks, _ in catalog for tok in toks]
    token_ids = dict((tok, cid) for cid, tok in tokens)
    author_ids: dict[str, set[str]] = {}
    for cid, _, authors in catalog:
        for a in authors:
            author_ids.setdefault(a, set()).add(cid)
    author_list = sorted(author_ids)

    def prefix_ids(prefix: str) -> set[str]:
        return set().union(*(ids for a, ids in author_ids.items() if a.startswith(prefix)))

    def padded(token: str) -> str:
        parts = token.split(" ")
        text = "".join(p + " " * rng.choice((1, 1, 2, 4)) for p in parts[:-1]) + parts[-1]
        text = " " * rng.choice((0, 0, 1, 3)) + text + " " * rng.choice((0, 0, 2))
        return text.lower() if rng.random() < 0.1 else text

    def fake_author() -> str:
        return f"{rng.choice(surnames)} {rng.choice('ABCDEFGHJKLMNPRSTW')}{rng.choice(['', 'A', 'J', 'M'])}"

    def text_fields(with_plus: bool):
        """Title, keywords, keywords+, journal and the labels they plant."""
        labels: set[str] = set()

        def words(n):
            out = [rng.choice(filler) for _ in range(n)]
            if rng.random() < 0.35:
                word, label = rng.choice(disc_words)
                out.insert(rng.randrange(len(out) + 1), word)
                labels.add(label)
            return out

        title = words(rng.randint(4, 10))
        excluded = rng.random() < 0.03
        if excluded:
            phrase = rng.choice(["galaxy cluster", "Galaxy Cluster", "GALAXY CLUSTER"])
            title.insert(rng.randrange(len(title) + 1), phrase)
        title = " ".join(title)
        title = title[0].upper() + title[1:]
        keywords = [" ".join(words(rng.randint(1, 3))) for _ in range(rng.randint(0, 3))]
        keywords_plus = [" ".join(words(rng.randint(1, 2))).upper()
                         for _ in range(rng.randint(0, 3) if with_plus else 0)]
        journal = rng.choice(journals)
        if rng.random() < 0.3:
            word, label = rng.choice(disc_words)
            journal = f"{journal} {word.upper()}"
            labels.add(label)
        return title, keywords, keywords_plus, journal, labels, excluded

    def year():
        r = rng.random()
        if r < 0.04:
            return None, False
        if r < 0.08:
            return rng.choice([rng.randint(1975, YEARS[0] - 1), rng.randint(YEARS[1] + 1, 2030)]), False
        return rng.randint(*YEARS), True

    profiles: Counter = Counter()
    disciplines: Counter = Counter()
    excluded_count = skipped_count = 0
    files = []

    def plant(prof_ids, labels, excluded, yr, in_range):
        nonlocal excluded_count, skipped_count
        if excluded:
            excluded_count += 1
        elif not in_range:
            skipped_count += 1
        else:
            for cid in prof_ids:
                profiles[f"{cid}|{yr}"] += 1
            for label in labels:
                disciplines[f"{label}|{yr}"] += 1

    def ra_record():
        title, keywords, _, journal, labels, excluded = text_fields(with_plus=False)
        yr, in_range = year()
        ids = set()
        cites = []
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
            r = rng.random()
            if r < 0.7:
                cid, tok = rng.choice(tokens)
                cites.append(padded(tok))
                ids.add(cid)
            elif r < 0.85:
                _, tok = rng.choice(tokens)
                head, yy = tok.rsplit(" ", 1)
                near = f"{head} {(int(yy) + 1) % 100:02d}"  # a real token only for some authors
                cites.append(near)
                if near in token_ids:
                    ids.add(token_ids[near])
            else:
                cites.append(f"{fake_author()} {rng.randint(60, 99)}")
        plant(ids, labels, excluded, yr, in_range)
        cut = title.find(" ", len(title) // 2)
        lines = [f"T       {title}"] if cut < 0 else [f"T       {title[:cut]}", f"T       {title[cut + 1:]}"]
        lines += [f"A       {fake_author()}" for _ in range(rng.randint(1, 4))]
        lines += [f"K       {k.upper()}" for k in keywords]
        lines.append(f"U       {_source(rng, journal, yr)}")
        lines += [f"W         {' '.join(rng.sample(filler, 3)).title()}, {rng.choice(filler).title()}",
                  f"W         {rng.choice(filler).upper()} {rng.randint(10000, 99999)}"]
        lines += [f"W.      {c}" for c in cites]
        return "\n".join(lines) + "\n"

    def pa_record():
        title, keywords, keywords_plus, journal, labels, excluded = text_fields(with_plus=True)
        yr, in_range = year()
        ids = set()
        terms = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            author = rng.choice(author_list)
            if r < 0.45:
                term = author if rng.random() < 0.8 else author.title()
                ids |= author_ids[author]
            elif r < 0.75:
                surname = author.split()[0]
                prefix = author if rng.random() < 0.4 else surname[: rng.randint(min(4, len(surname)), len(surname))]
                term = f"{prefix}*"
                ids |= prefix_ids(prefix)
            else:
                term = fake_author()
            terms.append(f"{term}  rauth")
        for _ in range(rng.randint(0, 2)):
            terms.append(f"{rng.choice(filler).upper()}*  rwork")
        rng.shuffle(terms)
        plant(ids, labels, excluded, yr, in_range)
        authors = "; ".join(f"{rng.choice(surnames).title()}, {rng.choice('ABCDEFGHJKLMNPRSTW')}"
                            for _ in range(rng.randint(1, 5)))
        lines = _wrap_pa("TITLE", f"{title} (Article, English)")
        lines += _wrap_pa("AUTHOR", authors)
        lines += _wrap_pa("SOURCE", _source(rng, journal, yr))
        lines.append("")
        lines.append("SEARCH TERM(S):  " + "; ".join(terms))
        lines.append("")
        if keywords:
            lines += _wrap_pa("KEYWORDS", "; ".join(keywords))
        if keywords_plus:
            lines += _wrap_pa("KEYWORDS+", "; ".join(keywords_plus))
        lines += _wrap_pa("AUTHOR ADDRESS", f"{' '.join(rng.sample(filler, 4)).title()}, {rng.choice(filler).title()}")
        return "\n".join(lines) + "\n"

    for i in range(files_per_format):
        for kind, make in (("ra", ra_record), ("pa", pa_record)):
            path = outdir / f"alerts_{kind}_{i}.txt"
            path.write_text("\n".join(make() for _ in range(records_per_file)), encoding="utf-8")
            files.append(path.name)

    return {
        "files": files,
        "lexicon": lexicon_path.name,
        "records": 2 * files_per_format * records_per_file,
        "bytes": sum((outdir / f).stat().st_size for f in files),
        "excluded": excluded_count,
        "skipped": skipped_count,
        "profiles": dict(profiles),
        "disciplines": dict(disciplines),
    }


# ------------------------------------------------------------------- map

def make_map(seed: int, outdir: Path, rows: int = 200, years: int = 60, sup_rows: int = 40) -> dict:
    """Profile-by-year tables with a drifting peak year per row."""
    import numpy as np

    rng = np.random.default_rng(seed)
    cols = list(range(2012 - years, 2012))

    def table(n: int):
        peak = rng.uniform(-5, years + 5, size=n)
        width = rng.uniform(3, 15, size=n)
        scale = rng.lognormal(3.0, 0.8, size=n)
        t = np.arange(years)
        rate = scale[:, None] * np.exp(-0.5 * ((t[None, :] - peak[:, None]) / width[:, None]) ** 2) + 0.3
        counts = rng.poisson(rate)
        for r in np.flatnonzero(counts.sum(axis=1) == 0):
            counts[r, rng.integers(years)] += 1
        return counts

    counts = table(rows)
    for c in np.flatnonzero(counts.sum(axis=0) == 0):
        counts[rng.integers(rows), c] += 1
    sup = table(sup_rows)

    def write(name: str, labels, data) -> str:
        lines = ["label," + ",".join(map(str, cols))]
        lines += [f"{lb}," + ",".join(str(int(v)) for v in row) for lb, row in zip(labels, data)]
        (outdir / name).write_text("\n".join(lines) + "\n")
        return name

    # Pearson chi-squared over N, from first principles.
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n
    chi2_over_n = float(((counts - expected) ** 2 / expected).sum() / n)
    return {
        "table": write("table.csv", [f"P{i:03d}" for i in range(rows)], counts),
        "supplementary": write("supplementary.csv", [f"S{i:02d}" for i in range(sup_rows)], sup),
        "points": rows + years + sup_rows,
        "k": 5,
        "total_inertia": chi2_over_n,
    }


# ---------------------------------------------------------------- search

_WEIGHTS = {"title": 3.0, "authors": 1.0, "source": 1.0, "keywords": 2.0,
            "keywords_plus": 1.0, "address": 1.0}


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


def _stratified_zipf(rng: random.Random, items: list, s: float, n: int) -> list:
    """``n`` draws from ``items`` with weight 1/rank**s, one from each of
    ``n`` equal-probability strata, in random order."""
    cum = list(itertools.accumulate(1.0 / (r ** s) for r in range(1, len(items) + 1)))
    draws = [items[bisect.bisect_left(cum, (k + rng.random()) / n * cum[-1])] for k in range(n)]
    return _shuffled(rng, draws)


def _zipf_picker(rng: random.Random, items: list, s: float):
    cum = list(itertools.accumulate(1.0 / (r ** s) for r in range(1, len(items) + 1)))
    return lambda k=1: rng.choices(items, cum_weights=cum, k=k)


def make_search(seed: int, outdir: Path, files: int = 5, records_per_file: int = 2000,
                vocab_size: int = 5000, queries: int = 1000, checked: int = 100,
                mlt_ids: int = 100) -> dict:
    rng = random.Random(seed)
    vocab = _words(rng, vocab_size, (), 2, 5)
    surnames = _words(rng, 3000, (), 2, 4)
    journal_words = _words(rng, 300, (), 2, 3)
    word = _zipf_picker(rng, vocab, 1.0)
    surname = _zipf_picker(rng, surnames, 0.8)
    journals = [" ".join(rng.sample(journal_words, rng.randint(1, 3))).upper() for _ in range(200)]
    docs = []  # per record: field -> text, as the parser will return it

    def fields():
        initials = lambda: "".join(rng.choice("ABCDEFGHJKLMNPRSTW") for _ in range(rng.randint(1, 2)))
        return {
            "title": " ".join(word(rng.randint(5, 12))),
            "authors": [f"{s.upper()} {initials()}" for s in surname(rng.randint(1, 4))],
            "source": _source(rng, rng.choice(journals), rng.randint(1990, 2011)),
            "keywords": [" ".join(word(rng.randint(1, 2))) for _ in range(rng.randint(0, 4))],
            "keywords_plus": [],
            "address": " ".join(word(3)).title() + f", {rng.choice(vocab).title()}",
        }

    names = []
    for i in range(files):
        chunks = []
        for _ in range(records_per_file):
            f = fields()
            if i % 2 == 0:
                lines = [f"T       {f['title']}"]
                lines += [f"A       {a}" for a in f["authors"]]
                lines += [f"K       {k}" for k in f["keywords"]]
                lines += [f"U       {f['source']}", f"W         {f['address']}"]
            else:
                f["title"] += " (Article, English)"
                f["keywords_plus"] = [" ".join(word(rng.randint(1, 2))).upper() for _ in range(rng.randint(0, 3))]
                lines = _wrap_pa("TITLE", f["title"])
                lines += _wrap_pa("AUTHOR", "; ".join(f["authors"]))
                lines += _wrap_pa("SOURCE", f["source"])
                lines.append("SEARCH TERM(S):  " + f"{rng.choice(vocab).upper()}*  rwork")
                if f["keywords"]:
                    lines += _wrap_pa("KEYWORDS", "; ".join(f["keywords"]))
                if f["keywords_plus"]:
                    lines += _wrap_pa("KEYWORDS+", "; ".join(f["keywords_plus"]))
                lines += _wrap_pa("AUTHOR ADDRESS", f["address"])
            chunks.append("\n".join(lines) + "\n")
            docs.append(f)
        name = f"corpus_{i}.txt"
        (outdir / name).write_text("\n".join(chunks), encoding="utf-8")
        names.append(name)

    # Queries: 1-3 conjuncts (1/2, 1/3, 1/6 of queries), 30% of conjuncts
    # pinned to a field, 5% of queries carrying a term no record contains.
    # Proportions are exact and term ranks are drawn stratified, so every
    # seed gets the same mix of cheap and costly queries.
    sizes = _shuffled(rng, [1] * (queries // 2) + [2] * (queries // 3)
                      + [3] * (queries - queries // 2 - queries // 3))
    slots = sum(sizes)
    fields = _shuffled(rng, ["title", "author", "keywords", "source"] * (slots * 3 // 40)
                       + [""] * (slots - 4 * (slots * 3 // 40)))
    pools = {"": vocab, "title": vocab, "keywords": vocab, "author": surnames, "source": journal_words}
    exponents = {"": 1.0, "title": 1.0, "keywords": 1.0, "author": 0.8, "source": 0.0}
    terms = {name: iter(_stratified_zipf(rng, pools[name], exponents[name], fields.count(name)))
             for name in pools}
    absent = set(rng.sample(range(queries), queries // 20))
    query_texts = []
    slot = iter(fields)
    for q, size in enumerate(sizes):
        parts = []
        for _ in range(size):
            name = next(slot)
            term = next(terms[name])
            parts.append(f"{name}:{term}" if name else term.upper() if rng.random() < 0.1 else term)
        if q in absent:
            parts.insert(rng.randrange(len(parts) + 1), f"zq{rng.randint(100, 999)}x")
        query_texts.append(rng.choice((" AND ", " ")).join(parts))

    tokenized = [
        {name: Counter(_SEARCH_TOKEN_RE.findall((" ; ".join(v) if isinstance(v, list) else v).lower()))
         for name, v in doc.items()}
        for doc in docs
    ]
    expected = [_linear_scan(tokenized, q) for q in query_texts[:checked]]
    return {
        "files": names,
        "records": len(docs),
        "bytes": sum((outdir / n).stat().st_size for n in names),
        "queries": query_texts,
        "expected": [{"count": len(ids), "page1": ids[:10]} for ids in expected],
        "mlt_ids": [rng.randrange(len(docs)) for _ in range(mlt_ids)],
    }


def _linear_scan(tokenized: list[dict], query: str) -> list[int]:
    """Ranked ids for a conjunctive query, by scanning every record's
    per-field token counts."""
    conjuncts = []
    for token in query.split():
        if token == "AND":
            continue
        name, _, term = token.rpartition(":")
        name = {"author": "authors", "": None}.get(name, name)
        conjuncts.append((name, term.lower()))
    scored = []
    for i, counts in enumerate(tokenized):
        score = 0.0
        for name, term in conjuncts:
            names = (name,) if name else tuple(counts)
            hits = [counts[n][term] for n in names]
            if not any(hits):
                break
            score += sum(_WEIGHTS[n] * h for n, h in zip(names, hits))
        else:
            scored.append((-score, i))
    return [i for _, i in sorted(scored)]


def main(argv=None) -> None:
    """Write one workload's inputs: gen.py WORKLOAD SEED OUTDIR."""
    import sys

    workload, seed, outdir = (argv or sys.argv[1:])[:3]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "ingest":
        from bibcarto import fixtures

        manifest = make_ingest(int(seed), outdir, fixtures.PROFILE_CATALOG, fixtures.DISCIPLINE_LEXICON)
    elif workload == "map":
        manifest = make_map(int(seed), outdir)
    else:
        manifest = make_search(int(seed), outdir)
    (outdir / "manifest.json").write_text(json.dumps(manifest))


if __name__ == "__main__":
    main()
