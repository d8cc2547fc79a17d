"""Spans around bibcarto's public functions, recorded from outside the program.

A Tracer replaces module (or class) attributes with wrappers that record
one span per call: operation id, span id, parent span, name, start and
end. The CLI looks these functions up through their modules at call
time, so its calls are seen without any change to the program. Spans
stay in memory until ``dump``; ``layer_metrics`` turns one pass worth of
spans and counts into the per-layer metrics.
"""
from __future__ import annotations

import inspect
import json
from collections import Counter
from time import perf_counter

from bibcarto import ca, cli, corpus, records, search, ward

PER_LAYER = [
    "records.parse_s", "records.detect_s", "records.records_out", "records.bytes_in",
    "corpus.match_profiles_s", "corpus.match_profiles_calls",
    "corpus.tag_disciplines_s", "corpus.tag_disciplines_calls",
    "corpus.build_table_self_s", "corpus.filter_s", "corpus.incidences", "corpus.skipped",
    "corpus.tagged_ratio", "corpus.from_csv_s",
    "ca.fit_s", "ca.project_s", "ca.project_calls", "ca.write_s", "ca.axes",
    "ward.embed_s", "ward.hac_s", "ward.points", "ward.cut_s", "ward.export_s",
    "search.build_index_s", "search.terms", "search.parse_query_s", "search.ranked_matches_s",
    "search.ranked_calls_per_query", "search.matches_per_result", "search.page_s",
    "search.mlt_s", "search.mlt_docs_scored",
    "cli.self_s", "cli.commands",
    "trace.pass_s", "trace.overhead_s",
]

# Span name -> the per-layer metric its self time adds to.
_SELF_TIME = {
    "records.parse_records": "records.parse_s",
    "records.detect_format": "records.detect_s",
    "corpus.match_profiles": "corpus.match_profiles_s",
    "corpus.tag_disciplines": "corpus.tag_disciplines_s",
    "corpus.build_table": "corpus.build_table_self_s",
    "corpus.filter_records": "corpus.filter_s",
    "corpus.ContingencyTable.from_csv": "corpus.from_csv_s",
    "ca.ca_fit": "ca.fit_s",
    "ca.project_supplementary_row": "ca.project_s",
    "ca.write_coordinates_csv": "ca.write_s",
    "ca.write_inertia_csv": "ca.write_s",
    "ward.embed_for_clustering": "ward.embed_s",
    "ward.ward_hac": "ward.hac_s",
    "ward.cut": "ward.cut_s",
    "ward.export_dendrogram": "ward.export_s",
    "ward.write_partition_csv": "ward.export_s",
    "search.build_index": "search.build_index_s",
    "search.parse_query": "search.parse_query_s",
    "search.ranked_matches": "search.ranked_matches_s",
    "search.search": "search.page_s",
    "search.more_like_this": "search.mlt_s",
    "cli.main": "cli.self_s",
}


def _count_parse(counts, args, result):
    counts["records.records_out"] += len(result)
    counts["records.bytes_in"] += len(args[0].encode("utf-8"))


def _count_tagged(counts, args, result):
    counts["tagged"] += bool(result)


def _count_table(counts, args, result):
    table, skipped = result
    counts["corpus.incidences"] += table.n
    counts["corpus.skipped"] += skipped


def _count_index(counts, args, result):
    counts["search.terms"] += len(getattr(result, "postings", ()))


def _count_mlt(counts, args, result):
    doc_terms = getattr(args[0], "_doc_terms", None)
    if isinstance(doc_terms, TouchedList):
        counts["mlt_docs"] += len(doc_terms.touched - {args[1]})
        doc_terms.touched.clear()


_COUNTERS = {
    "records.parse_records": _count_parse,
    "corpus.match_profiles": _count_tagged,
    "corpus.tag_disciplines": _count_tagged,
    "corpus.build_table": _count_table,
    "ca.ca_fit": lambda c, a, r: c.__setitem__("ca.axes", r.n_axes),
    "ward.ward_hac": lambda c, a, r: c.__setitem__("ward.points", len(a[0])),
    "search.build_index": _count_index,
    "search.ranked_matches": lambda c, a, r: c.__setitem__("ranked_out", c["ranked_out"] + len(r)),
    "search.more_like_this": _count_mlt,
}
_MODULES = {"records": records, "corpus": corpus, "ca": ca, "ward": ward, "search": search, "cli": cli}


class Tracer:
    """Records spans for the functions in ``_SELF_TIME`` while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.op, sid, parent, name, start, end)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self):
        for name in _SELF_TIME:
            module, _, attr = name.partition(".")
            owner, _, leaf = attr.rpartition(".")
            owner = getattr(_MODULES[module], owner) if owner else _MODULES[module]
            self._saved.append((owner, leaf, inspect.getattr_static(owner, leaf)))
            wrapped = self._wrap(name, getattr(owner, leaf))
            setattr(owner, leaf, staticmethod(wrapped) if isinstance(owner, type) else wrapped)

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.op = 0

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children.
        Calls are synchronous, so children never overlap one another."""
        out = {s[1]: s[5] - s[4] for s in self.spans}
        for op, sid, parent, name, start, end in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def layer_metrics(self, queries: int, printed: int) -> dict[str, float]:
        """Per-layer totals for the spans and counts recorded since ``reset``.
        ``queries`` and ``printed`` are the query lines answered and the
        records the CLI printed for them, used by the search ratios."""
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        calls: Counter = Counter()
        for sid, self_s in self.self_times().items():
            name = self.spans[sid][3]
            metrics[_SELF_TIME[name]] += self_s
            calls[name] += 1
        for key in ("records.records_out", "records.bytes_in", "corpus.incidences",
                    "corpus.skipped", "ca.axes", "ward.points", "search.terms"):
            metrics[key] = float(self.counts[key])
        metrics["corpus.match_profiles_calls"] = float(calls["corpus.match_profiles"])
        metrics["corpus.tag_disciplines_calls"] = float(calls["corpus.tag_disciplines"])
        tagged_calls = calls["corpus.match_profiles"] + calls["corpus.tag_disciplines"]
        metrics["corpus.tagged_ratio"] = self.counts["tagged"] / tagged_calls if tagged_calls else 0.0
        metrics["ca.project_calls"] = float(calls["ca.project_supplementary_row"])
        metrics["cli.commands"] = float(calls["cli.main"])
        if queries:
            metrics["search.ranked_calls_per_query"] = calls["search.ranked_matches"] / queries
        if printed:
            metrics["search.matches_per_result"] = self.counts["ranked_out"] / printed
        if calls["search.more_like_this"]:
            metrics["search.mlt_docs_scored"] = self.counts["mlt_docs"] / calls["search.more_like_this"]
        return metrics

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "span": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


class TouchedList(list):
    """A list that remembers which indices were read, to count the
    documents more_like_this scores through ``Index._doc_terms``."""

    def __init__(self, items):
        super().__init__(items)
        self.touched: set[int] = set()

    def __getitem__(self, i):
        self.touched.add(i)
        return super().__getitem__(i)
