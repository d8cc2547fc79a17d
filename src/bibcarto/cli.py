"""Command-line pipeline: parse, tables, analyze, search.

Exit codes: 0 on success, 2 on usage errors, 1 on data errors. A data
error is an :class:`errors.DataError`, an OSError, or a UnicodeError
from the standard streams; :func:`main` prints it as ``bibcarto: error:
<file>[:<line>]: reason`` and lets any other exception propagate. The
standard streams are named ``<stdin>`` (with the line of an undecodable
byte) and ``<stdout>`` (for a character its encoding lacks). Input
files, the config among them, are read through :func:`errors.read_file`,
which names the file in their errors, and ``analyze`` sets the path of
an error from :func:`run_analysis` to the file it concerns. The environment
variable BIBCARTO_CONFIG may point to a JSON object whose keys are
RunConfig field names; it supplies defaults for ``tables`` and
``analyze``, and explicit flags win. :func:`run_tables` and
:func:`run_analysis` are their pipelines. ``tables`` reads the catalog or
lexicon first, then reads, filters and tallies each alert file in one
step that keeps no record: here, one file at a time, or, when there is
enough input to pay for them, in forked worker processes that send back
only counts (:mod:`bibcarto._workers`). ``parse`` and ``search`` read every
file before they write anything.
"""
from __future__ import annotations

import argparse
import errno
import io
import json
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import corpus, records
from .errors import DataError, InputFormatError, is_int, position, read_file

if TYPE_CHECKING:  # loaded by the command that uses it, as it loads numpy
    from . import search

FORMAT_NAMES = {
    "research-alert": records.RecordFormat.RESEARCH_ALERT,
    "personal-alert": records.RecordFormat.PERSONAL_ALERT,
}

CONFIG_ENV_VAR = "BIBCARTO_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    exclusion_terms: tuple[str, ...] = corpus.DEFAULT_EXCLUSION_TERMS
    year_range: tuple[int, int] = (1994, 2011)
    catalog_path: str | None = None
    lexicon_path: str | None = None
    output_dir: str = "bibcarto_out"
    k: int = 2
    axes: int | None = None


def _is_filled(value) -> bool:
    return isinstance(value, str) and value.strip() != ""


# RunConfig field -> (test of the JSON value, what the test expects).
_CONFIG_CHECKS = {
    "exclusion_terms": (
        lambda v: isinstance(v, list) and all(map(_is_filled, v)),
        "a list of non-empty strings",
    ),
    "year_range": (
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(is_int, v))
        and records.FIRST_YEAR <= v[0] <= v[1] <= records.LAST_YEAR,
        f"[FIRST, LAST] with integer years, "
        f"{records.FIRST_YEAR} <= FIRST <= LAST <= {records.LAST_YEAR}",
    ),
    "catalog_path": (lambda v: v is None or _is_filled(v), "a non-empty string or null"),
    "lexicon_path": (lambda v: v is None or _is_filled(v), "a non-empty string or null"),
    "output_dir": (_is_filled, "a non-empty string"),
    "k": (lambda v: is_int(v) and v >= 1, "a positive integer"),
    "axes": (lambda v: v is None or (is_int(v) and v >= 1), "a positive integer or null"),
}


def load_config() -> RunConfig:
    """The RunConfig from the BIBCARTO_CONFIG file, or the defaults when
    the variable is unset or empty. The file is read through
    :func:`errors.read_file`, so its DataError names the file, and the
    line for bad JSON syntax or bytes that are not UTF-8."""
    path = os.environ.get(CONFIG_ENV_VAR)
    return read_file(path, _parse_config) if path else RunConfig()


def _parse_config(text: str) -> RunConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        line, column = position(text[: exc.pos])
        raise InputFormatError(line, f"not a JSON file: {exc.msg} (column {column})") from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise DataError(f"not a JSON file: {exc}") from None
    if not isinstance(data, dict):
        raise DataError("config must be a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_CHECKS:
            raise DataError(f"unknown key {key!r} (accepted: {', '.join(_CONFIG_CHECKS)})")
        check, expected = _CONFIG_CHECKS[key]
        if not check(value):
            raise DataError(f"{key} must be {expected}, got {value!r}")
    return RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


def _settings(args) -> RunConfig:
    """The config's RunConfig, each field set from its flag (the flag's dest) if given."""
    given = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return replace(load_config(), **{k: tuple(v) if isinstance(v, list) else v
                                     for k, v in given.items() if v is not None})


def _integer(text: str) -> int | None:
    """``text`` as an int if it follows a table cell's rule
    (:func:`corpus._is_integer`, which refuses ``+3``, ``1_0`` and ``٥``)
    and int() converts it, else None."""
    try:
        return int(text) if corpus._is_integer(text) else None
    except ValueError:
        return None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _record_id(text: str) -> int:
    value = _integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _non_empty(text: str) -> str:
    if not text.strip():
        raise argparse.ArgumentTypeError("must be a non-empty string")
    return text


def _year_range(text: str) -> tuple[int, int]:
    first, colon, last = text.partition(":")
    if not (colon and corpus._is_integer(first) and corpus._is_integer(last)):
        raise argparse.ArgumentTypeError(f"expected FIRST:LAST, got {text!r}")
    outside = argparse.ArgumentTypeError(
        f"years must lie in {records.FIRST_YEAR}..{records.LAST_YEAR}, got {text!r}")
    try:
        lo, hi = int(first), int(last)
    except ValueError:  # a digit run longer than int() converts
        raise outside from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty year range {text!r}")
    # A wider range than the years a record can carry counts no more
    # records, it only adds empty columns.
    if lo < records.FIRST_YEAR or hi > records.LAST_YEAR:
        raise outside
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibcarto",
        description="Citation-alert bibliography cartography",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse alert files to JSON lines")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=sorted(FORMAT_NAMES),
                   help="read each file in this format instead of detecting it; with "
                        "--lenient, keep the good records of a file that detection rejects")
    p.add_argument("--lenient", action="store_true",
                   help="keep going on malformed records, report them at the end")
    p.add_argument("-o", "--output", type=_non_empty, help="write records here instead of stdout")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("tables", help="build or export label-by-year tables")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", choices=["Table1", "Table2"],
                     help="export a bundled reference table")
    src.add_argument("--records", nargs="+", help="alert files to tabulate")
    p.add_argument("--kind", choices=["profiles", "disciplines"],
                   help="what labels the rows of a --records table (default disciplines)")
    p.add_argument("--catalog", dest="catalog_path", type=_non_empty, metavar="CATALOG",
                   help="profile catalog file for --kind profiles (default: bundled)")
    p.add_argument("--lexicon", dest="lexicon_path", type=_non_empty, metavar="LEXICON",
                   help="discipline lexicon file for --kind disciplines (default: bundled)")
    first, last = RunConfig.year_range
    p.add_argument("--years", dest="year_range", type=_year_range, metavar="FIRST:LAST",
                   help=f"year columns, within {records.FIRST_YEAR}..{records.LAST_YEAR} "
                        f"(default {first}:{last})")
    p.add_argument("--exclude", dest="exclusion_terms", action="append", type=_non_empty,
                   metavar="PHRASE", help="title phrase to exclude (repeatable; default: "
                                          f"{', '.join(map(repr, RunConfig.exclusion_terms))})")
    p.add_argument("-o", "--output", type=_non_empty, help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("analyze", help="correspondence analysis plus Ward clustering")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", choices=["Table1", "Table2"])
    src.add_argument("--table", help="contingency table CSV (as written by 'tables')")
    sup = p.add_mutually_exclusive_group()
    sup.add_argument("--supplementary", choices=["Table1", "Table2"],
                     help="bundled table whose rows are projected post hoc")
    sup.add_argument("--supplementary-table", help="CSV of rows to project post hoc")
    p.add_argument("--k", type=_positive_int,
                   help=f"number of clusters for the partition (default {RunConfig.k})")
    p.add_argument("--axes", type=_positive_int,
                   help="number of axes in coordinates.csv (default: all retained)")
    p.add_argument("--outdir", dest="output_dir", type=_non_empty, metavar="OUTDIR",
                   help=f"output directory (default {RunConfig.output_dir})")
    p.set_defaults(func=cmd_analyze)

    # argparse cannot draw a required group that holds a positional, so the
    # usage line, which would show all three modes as optional, is written out
    p = sub.add_parser("search", help="query records or fetch similar ones",
                       usage="%(prog)s [-h] (QUERY | --mlt ID | --interactive) "
                             "--records FILE [FILE ...] [--page PAGE]")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("query", nargs="?", metavar="QUERY",
                      help="terms, AND-separated; field:term pins a field "
                           "(give the query before --records)")
    p.add_argument("--records", nargs="+", required=True, metavar="FILE",
                   help="alert files to index")
    mode.add_argument("--mlt", type=_record_id, metavar="ID",
                      help="show the three records most like this record id")
    p.add_argument("--page", type=_positive_int, help="page of QUERY's results (default 1)")
    mode.add_argument("--interactive", action="store_true",
                      help="read queries from stdin until EOF or 'q'")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnicodeEncodeError as exc:
        # files are written as UTF-8, so only standard output can refuse a character
        char = exc.object[exc.start]
        print(f"bibcarto: error: <stdout>: cannot encode U+{ord(char):04X} as {exc.encoding}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        # "[Errno 2] No such file or directory: 'x'" becomes "x: No such file or directory"
        reason = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"bibcarto: error: {reason}", file=sys.stderr)
        return 1
    except (DataError, UnicodeError) as exc:
        print(f"bibcarto: error: {exc}", file=sys.stderr)
        return 1


def cmd_parse(args) -> int:
    # every file is read before anything is written, so a bad one leaves no output
    fmt = FORMAT_NAMES[args.format] if args.format else None
    recs, errors = [], []
    for path in args.files:
        if args.lenient:
            file_recs, file_errors = read_file(
                path, lambda text: records.parse_records_lenient(text, fmt))
            for err in file_errors:  # returned, not raised, so read_file names no file
                err.path = path
            errors += file_errors
        else:
            file_recs = read_file(path, lambda text: records.parse_records(text, fmt))
        recs += file_recs
    _write_output(args.output, records.dump_records(recs))
    for err in errors:
        print(f"bibcarto: parse error: {err}", file=sys.stderr)
    if errors:
        # a file in neither format yields its AmbiguousFormatError, not records
        unread = sum(isinstance(err, records.AmbiguousFormatError) for err in errors)
        summary = f"bibcarto: {len(errors) - unread} record(s) dropped, {len(recs)} parsed"
        if unread:
            summary += f", {unread} file(s) in no alert format"
        print(summary, file=sys.stderr)
    return 0


def cmd_tables(args) -> int:
    if args.fixture:
        # a bundled table is exported as it is; a flag that builds a table would be ignored
        for flag, dest in (("kind", "kind"), ("catalog", "catalog_path"),
                           ("lexicon", "lexicon_path"), ("years", "year_range"),
                           ("exclude", "exclusion_terms")):
            if getattr(args, dest) is not None:
                print(f"bibcarto: --{flag} applies only to --records", file=sys.stderr)
                return 2
        table = corpus.load_fixture(args.fixture)
    else:
        kind = args.kind or "disciplines"
        # each kind reads one vocabulary; a flag for the other would be ignored
        flag, value, other = (("--lexicon", args.lexicon_path, "disciplines") if kind == "profiles"
                              else ("--catalog", args.catalog_path, "profiles"))
        if value is not None:
            print(f"bibcarto: {flag} applies only to --kind {other}", file=sys.stderr)
            return 2
        settings = _settings(args)
        table, excluded, skipped = run_tables(args.records, kind, settings)
        if excluded:
            print(f"bibcarto: excluded {excluded} record(s) by title phrase", file=sys.stderr)
        if skipped:
            print(f"bibcarto: skipped {skipped} record(s) with no year or a year outside "
                  f"{settings.year_range[0]}..{settings.year_range[1]}", file=sys.stderr)
    _write_output(args.output, table.to_csv())
    return 0


def _stream(name: str):
    """``sys.<name>``; an OSError naming ``<name>`` when it is None (closed at start)."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), f"<{name}>")
    return stream


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path`` (as UTF-8), else to standard output."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        _stream("stdout").write(text)


def _read_table(fixture: str | None, path: str | None) -> corpus.ContingencyTable | None:
    """The bundled table named ``fixture``, else the table CSV at ``path``,
    else None. CSV errors name ``path:line``."""
    if fixture:
        return corpus.load_fixture(fixture)
    if path is None:
        return None
    return read_file(path, corpus.ContingencyTable.from_csv)


def _vocabulary(kind: str, settings: RunConfig):
    """The tagger and the row labels of the catalog (``kind`` "profiles") or
    lexicon (``kind`` "disciplines") that ``settings`` names, else of the
    bundled one."""
    # the stages are read from their modules per call, so perfbench's tracer sees them
    if kind == "profiles":
        cls, path, tag = corpus.ProfileCatalog, settings.catalog_path, corpus.match_profiles
    else:
        cls, path, tag = corpus.DisciplineLexicon, settings.lexicon_path, corpus.tag_disciplines
    vocabulary = cls.default() if path is None else cls.from_file(path)
    labels = vocabulary.ids if kind == "profiles" else vocabulary.labels
    return (lambda record: tag(record, vocabulary)), labels


def run_tables(paths: list[str], kind: str,
               settings: RunConfig) -> tuple[corpus.ContingencyTable, int, int]:
    """Cross-tabulate the records of the alert files at ``paths`` by year, a
    row per profile (``kind`` "profiles") or discipline of the catalog or
    lexicon that ``settings`` names (default: the bundled one), after its
    exclusion terms. The catalog or lexicon is read first, then each file is
    read, filtered and tallied in one step that keeps no record, here or in
    worker processes (:func:`_workers.map_files`). Returns the table and the
    counts of records excluded by title phrase and skipped for their year;
    the DataError for a table with no incidence gives the count excluded."""
    tagger, labels = _vocabulary(kind, settings)

    def tally_file(path):
        """The tally of one alert file's records that no exclusion term
        excludes, and the count it excludes; the records go on return."""
        # through the module attribute, which perfbench's tracer wraps
        recs = read_file(path, records.parse_records)
        kept, dropped = corpus.filter_records(recs, settings.exclusion_terms)
        return (*corpus.tally(kept, tagger, labels, settings.year_range), len(dropped))

    from ._workers import map_files  # here, so that `import bibcarto.cli` compiles none of it

    tallies = map_files(tally_file, paths)
    excluded = sum(dropped for _, _, dropped in tallies)
    try:
        table, skipped = corpus.build_table([tally[:2] for tally in tallies], labels,
                                            settings.year_range)
    except DataError as exc:
        if excluded:  # the exclusions may be what left no incidence
            raise DataError(f"excluded {excluded} record(s) by title phrase; {exc}") from exc
        raise
    return table, excluded, skipped


def run_analysis(table: corpus.ContingencyTable, supplementary: corpus.ContingencyTable | None,
                 k: int, axes: int | None) -> dict[str, str]:
    """Fit the CA of ``table``, project the rows of ``supplementary`` (if
    any) into it, cluster every point with Ward, cut into ``k`` clusters
    and return the texts of coordinates.csv (``axes`` axes, default all
    retained), inertia.csv, dendrogram.nwk and partition.csv, by file name."""
    from . import ca, ward

    result = ca.ca_fit(table)
    projected = []
    if supplementary is not None:
        if supplementary.col_labels != table.col_labels:
            raise ca.SupplementaryError(
                "supplementary table columns differ from the fitted table's"
            )
        fitted = {*table.row_labels, *map(str, table.col_labels)}
        for label, counts in zip(supplementary.row_labels, supplementary.counts):
            if label in fitted:
                raise ca.SupplementaryError(f"supplementary row {label!r} repeats a fitted label")
            if not counts.any():
                raise ca.SupplementaryError(f"supplementary row {label!r} has no incidences")
            projected.append((label, ca.project_supplementary_row(counts, result)))

    points = ward.embed_for_clustering(result, projected)
    dendrogram = ward.ward_hac(points)
    partition = ward.cut(dendrogram, k)
    return {
        "coordinates.csv": ca.write_coordinates_csv(result, projected, axes),
        "inertia.csv": ca.write_inertia_csv(result),
        "dendrogram.nwk": ward.export_dendrogram(dendrogram) + "\n",
        "partition.csv": ward.write_partition_csv(partition),
    }


def cmd_analyze(args) -> int:
    settings = _settings(args)
    table = _read_table(args.fixture, args.table)
    supplementary = _read_table(args.supplementary, args.supplementary_table)
    try:
        artifacts = run_analysis(table, supplementary, settings.k, settings.axes)
    except DataError as exc:
        exc.path = _file_concerned(exc, args)
        raise
    outdir = Path(settings.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (outdir / name).write_text(text, encoding="utf-8")
    print(f"bibcarto: wrote {', '.join(artifacts)} to {outdir}")
    return 0


def _file_concerned(exc: DataError, args) -> str | None:
    """The file an error from :func:`run_analysis` is about (None for a
    bundled table or a flag): the supplementary table, the config for a
    ``k`` it gave, or the fitted table."""
    from . import ca, ward

    if isinstance(exc, ca.SupplementaryError):
        return args.supplementary_table
    if isinstance(exc, ward.ClusterCountError):
        return os.environ.get(CONFIG_ENV_VAR) if args.k is None else None
    return args.table


def _print_answer(index: search.Index, header: str, ids: list[int]) -> None:
    """Print ``header`` and a rule, then the records ``ids``, each followed by a rule."""
    out = _stream("stdout")
    print(header, "-" * 60, sep="\n", file=out)
    for doc_id in ids:
        record = index.records[doc_id]
        print(f"id: {doc_id}", f"title: {record.title}", sep="\n", file=out)
        if record.authors:
            print(f"authors: {'; '.join(record.authors)}", file=out)
        if record.source:
            print(f"source: {record.source}", file=out)
        if record.keywords:
            print(f"keywords: {'; '.join(record.keywords)}", file=out)
        print("-" * 60, file=out)


def _run_query(search, index: search.Index, query_text: str, page: int) -> int:
    """Print page ``page`` of the matches of ``query_text``. ``search`` is the
    module, imported once by :func:`cmd_search` rather than once per query."""
    try:
        query = search.parse_query(query_text)
    except search.QueryError as exc:
        print(f"bibcarto: bad query: {exc}", file=sys.stderr)
        print("usage: terms separated by AND; field:term pins a field "
              f"(fields: {', '.join(search.FIELDS)})", file=sys.stderr)
        return 2
    ranked = search.ranked_matches(index, query)
    start = search.PAGE_SIZE * (page - 1)
    ids = ranked[start : start + search.PAGE_SIZE]
    shown = f"{start + 1}-{start + len(ids)} shown" if ids else "empty"
    _print_answer(index, f"{len(ranked)} match(es); page {page} ({shown})", ids)
    return 0


_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")


def _stdin_lines():
    """The lines of standard input. A line holding bytes that are not in
    its encoding raises an InputFormatError that names ``<stdin>`` and the
    line; the lines before it are handed out first. A byte stream's error
    handler is left set to "surrogateescape"; one that has already decoded
    text keeps its handler, and a bad byte then raises UnicodeDecodeError."""
    stdin = _stream("stdin")
    if hasattr(stdin, "reconfigure") and stdin.errors != "surrogateescape":
        try:
            stdin.reconfigure(errors="surrogateescape")  # a bad byte reads as U+DC80..U+DCFF
        except io.UnsupportedOperation:
            pass
    # a stream of str, as io.StringIO, decodes no bytes and has no escapes to find
    escaped = getattr(stdin, "errors", None) == "surrogateescape"
    for line_no, line in enumerate(stdin, 1):
        bad = escaped and not line.isascii() and _ESCAPED_BYTE_RE.search(line)
        if bad:
            byte = ord(bad[0]) - 0xDC00
            raise InputFormatError(line_no, f"not {stdin.encoding.upper()}: byte 0x{byte:02x}",
                                   "<stdin>")
        yield line


def cmd_search(args) -> int:
    if args.page is not None and args.query is None:
        mode = "--mlt" if args.mlt is not None else "--interactive"
        print(f"bibcarto: --page applies only to a QUERY, not to {mode}", file=sys.stderr)
        return 2
    from . import search

    index = search.build_index([r for path in args.records
                                for r in read_file(path, records.parse_records)])
    if args.mlt is not None:
        _print_answer(index, f"records most like {args.mlt}:",
                      search.more_like_this(index, args.mlt))
        return 0
    if args.interactive:
        for line in _stdin_lines():
            line = line.strip()
            if line == "q":
                break
            if line:  # a blank line asks nothing and ends nothing
                _run_query(search, index, line, 1)
        return 0
    return _run_query(search, index, args.query, args.page or 1)


if __name__ == "__main__":
    sys.exit(main())
