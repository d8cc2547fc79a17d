import argparse
import codecs
import csv
import gc
import importlib
import inspect
import io
import json
import os
import pickle
import pkgutil
import random
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bibcarto
from bibcarto import DataError, ca, cli, corpus, records, search, ward
from bibcarto.cli import RunConfig, main
from bibcarto.errors import read_file

from conftest import PERSONAL_ALERT_SAMPLE, RESEARCH_ALERT_SAMPLE

CORRUPT_RESEARCH_ALERT = "T   a fine title\nZ   what is this\n"


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text(RESEARCH_ALERT_SAMPLE, encoding="utf-8")
    return path


@pytest.fixture
def toy_corpus_file(tmp_path):
    blocks = [
        "T   Computational methods for network analysis\nA   ARABIE P\nU   J THINGS 1999\nW.  X Y 99\n",
        "T   Neural network training\nK   computational biology\nU   J THINGS 2000\nW.  X Y 99\n",
        "T   Social network surveys\nU   J NETWORKS 2 2001\nW.  X Y 99\n",
        "T   Pottery of the bronze age\nU   CLAY REV 2002\nW.  X Y 99\n",
    ]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(blocks), encoding="utf-8")
    return path


@pytest.fixture
def cpus(monkeypatch):
    """Sets the count of CPUs that ``tables`` finds it may use."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return use


def test_parse_golden_file(sample_file, capsys):
    assert main(["parse", str(sample_file)]) == 0
    out = capsys.readouterr().out
    (record,) = records.load_records(out)
    assert record.title.startswith("Learning to Set-Up")
    assert record.year == 1998


def test_parse_personal_alert_autodetect(tmp_path, capsys):
    path = tmp_path / "pa.txt"
    path.write_text(PERSONAL_ALERT_SAMPLE, encoding="utf-8")
    assert main(["parse", str(path)]) == 0
    (record,) = records.load_records(capsys.readouterr().out)
    assert record.search_terms[0] == ("RIPLEY BD", "rauth")


def test_parse_corrupt_file_fails_naming_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(CORRUPT_RESEARCH_ALERT, encoding="utf-8")
    assert main(["parse", "--format", "research-alert", str(path)]) == 1
    assert capsys.readouterr().err == f"bibcarto: error: {path}:2: unknown tag 'Z'\n"


def test_parse_corrupt_autodetect_still_names_a_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(CORRUPT_RESEARCH_ALERT, encoding="utf-8")
    assert main(["parse", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_parse_lenient_partial_dump(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    path.write_text("T   good one\n\n" + CORRUPT_RESEARCH_ALERT + "\nT   good two\n",
                    encoding="utf-8")
    assert main(["parse", "--lenient", "--format", "research-alert", str(path)]) == 0
    captured = capsys.readouterr()
    titles = [r.title for r in records.load_records(captured.out)]
    assert titles == ["good one", "good two"]
    assert "1 record(s) dropped" in captured.err


def test_parse_lenient_counts_a_file_in_no_format_apart_from_records(tmp_path, capsys):
    neither, untitled = tmp_path / "neither.txt", tmp_path / "untitled.txt"
    neither.write_text("T   one\n\nT   two\n\n" + CORRUPT_RESEARCH_ALERT, encoding="utf-8")
    untitled.write_text("T   kept\n\nA   NOBODY J\n", encoding="utf-8")
    assert main(["parse", "--lenient", str(neither), str(untitled)]) == 0
    captured = capsys.readouterr()
    assert [r.title for r in records.load_records(captured.out)] == ["kept"]
    no_format, no_title, summary = captured.err.splitlines()
    assert no_format.startswith(f"bibcarto: parse error: {neither}: input matches no alert format")
    assert no_title == f"bibcarto: parse error: {untitled}:3: record has no title"
    assert summary == "bibcarto: 1 record(s) dropped, 1 parsed, 1 file(s) in no alert format"


def test_parse_output_file(sample_file, tmp_path):
    out = tmp_path / "dump.jsonl"
    assert main(["parse", str(sample_file), "-o", str(out)]) == 0
    assert len(records.load_records(out.read_text(encoding="utf-8"))) == 1


@pytest.mark.parametrize("argv, option", [
    (["parse", "{sample}", "-o", ""], "-o/--output"),
    (["tables", "--fixture", "Table2", "-o", ""], "-o/--output"),
    (["analyze", "--fixture", "Table2", "--outdir", ""], "--outdir"),
    (["tables", "--records", "{sample}", "--kind", "profiles", "--catalog", ""], "--catalog"),
    (["tables", "--records", "{sample}", "--lexicon", ""], "--lexicon"),
], ids=["parse", "tables", "analyze", "catalog", "lexicon"])
def test_an_empty_output_path_is_usage_error(argv, option, sample_file, tmp_path, capsys,
                                             monkeypatch):
    # "" would write to stdout or into the working directory, or read the
    # bundled catalog or lexicon
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(SystemExit) as err:
        main([arg.format(sample=sample_file) for arg in argv])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert f"argument {option}: must be a non-empty string" in err_text
    assert out == ""
    assert not any(work.iterdir())


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "nope.txt")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("path, argv, config", [
    ("nope.txt", ["tables", "--records", "nope.txt"], None),
    ("adir", ["analyze", "--table", "adir"], None),
    ("no/dump.jsonl", ["parse", "sample.txt", "-o", "no/dump.jsonl"], None),
    ("nope.json", ["analyze", "--fixture", "Table2"], "nope.json"),
])
def test_os_error_names_the_file(path, argv, config, sample_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    if config:
        monkeypatch.setenv("BIBCARTO_CONFIG", config)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"bibcarto: error: {path}: ")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_analyze_k_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--fixture", "Table2", "--k", "0"])
    assert err.value.code == 2


_HUGE = "1" * 5000  # more digits than int() converts


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--fixture", "Table2", "--k", "abc"],
     "argument --k: must be a positive integer, got abc"),
    (["analyze", "--fixture", "Table2", "--axes", "1.5"],
     "argument --axes: must be a positive integer, got 1.5"),
    (["analyze", "--fixture", "Table2", "--k", _HUGE],
     f"argument --k: must be a positive integer, got {_HUGE}"),
    (["search", "q", "--records", "unread.txt", "--page", "x"],
     "argument --page: must be a positive integer, got x"),
    # int() reads these; a flag's integer, like a table cell, is an ASCII digit run
    (["analyze", "--fixture", "Table2", "--k", "\u0665"],
     "argument --k: must be a positive integer, got \u0665"),
    (["analyze", "--fixture", "Table2", "--k", "1_0"],
     "argument --k: must be a positive integer, got 1_0"),
    (["analyze", "--fixture", "Table2", "--k", "+3"],
     "argument --k: must be a positive integer, got +3"),
    (["analyze", "--fixture", "Table2", "--axes", "\uff12"],
     "argument --axes: must be a positive integer, got \uff12"),
    (["search", "q", "--records", "unread.txt", "--page", "+1"],
     "argument --page: must be a positive integer, got +1"),
    (["search", "--mlt", "\u0661", "--records", "unread.txt"],
     "argument --mlt: invalid int value: '\u0661'"),
    (["search", "--mlt", "x", "--records", "unread.txt"], "argument --mlt: invalid int value: 'x'"),
], ids=["k-text", "axes-fraction", "k-too-long", "page-text", "k-arabic-indic", "k-underscore",
        "k-plus", "axes-fullwidth", "page-plus", "mlt-arabic-indic", "mlt-text"])
def test_a_bad_positive_integer_is_a_usage_error_in_its_own_words(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"bibcarto {argv[0]}: error: {message}"


@pytest.mark.parametrize("years", [
    "0:4000000000", "1899:2000", "2000:2101", "-5:2000",
    pytest.param(f"{_HUGE}:2000", id="first-too-long"),
    pytest.param(f"1994:-{_HUGE}", id="last-too-long"),
])
def test_tables_years_outside_1900_2100_is_usage_error(years, toy_corpus_file, capsys):
    # a range as wide as the first one once asked for tens of GB of table
    with pytest.raises(SystemExit) as err:
        main(["tables", "--records", str(toy_corpus_file), f"--years={years}"])
    assert err.value.code == 2
    assert f"--years: years must lie in 1900..2100, got {years!r}" in capsys.readouterr().err


def test_tables_years_may_span_1900_to_2100(toy_corpus_file, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["tables", "--records", str(toy_corpus_file), "--years", "1900:2100",
                 "-o", str(out)]) == 0
    table = corpus.ContingencyTable.from_csv(out.read_text(encoding="utf-8"))
    assert table.col_labels == tuple(range(1900, 2101))


def test_tables_empty_exclude_is_usage_error(toy_corpus_file, capsys):
    # a blank phrase would be found in every title that has two words
    for phrase in ("", " ", "\t "):
        with pytest.raises(SystemExit) as err:
            main(["tables", "--records", str(toy_corpus_file), "--exclude", phrase])
        assert err.value.code == 2
        assert "--exclude: must be a non-empty string" in capsys.readouterr().err


def test_tables_reports_exclusions_before_an_empty_table_error(tmp_path, capsys):
    path = _write(tmp_path / "one.txt", "T   Neural network training\n"
                  "K   computational biology\nU   J THINGS 2000\nW.  X Y 99\n")
    argv = ["tables", "--records", str(path), "--years", "1999:2002",
            "-o", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    assert main(argv + ["--exclude", "training"]) == 1
    assert capsys.readouterr().err == ("bibcarto: error: excluded 1 record(s) by title phrase; "
                                       "no (record, label) incidences in the year range\n")


def _live_records():  # BibRecord has slots, so it takes no weakref
    return sum(isinstance(obj, records.BibRecord) for obj in gc.get_objects())


def _five_alert_files(tmp_path, per_file):
    return [_write(tmp_path / f"alerts{i}.txt", "\n".join(
        f"T   Neural network {i}-{j}\nK   computational biology\nU   J THINGS {1995 + j % 10}\n"
        for j in range(per_file))) for i in range(5)]


def test_tables_holds_one_files_records_at_a_time(tmp_path, monkeypatch, capsys, cpus):
    cpus(1)  # one process reads every file
    per_file = 40
    paths = _five_alert_files(tmp_path, per_file)
    baseline = _live_records()
    real = records.parse_records
    live_at_parse = []

    def spy(*args, **kwargs):
        live_at_parse.append(_live_records() - baseline)
        return real(*args, **kwargs)

    monkeypatch.setattr(records, "parse_records", spy)
    assert main(["tables", "--records", *map(str, paths), "-o", str(tmp_path / "t.csv")]) == 0
    assert len(live_at_parse) == len(paths)
    assert max(live_at_parse) <= per_file


def _fresh_main(argv, cpus, before="", after=""):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in a fresh
    interpreter that finds ``cpus`` CPUs and pools files of any size, with
    the code ``before`` and ``after`` run around the call. Like the command,
    it has not loaded numpy, so it forks with one thread: from Python 3.12
    on, a fork in a process that runs numpy's threads is deprecated, which
    this suite makes an error. After the call, no worker may be left."""
    code = (f"import os, sys\nos.sched_getaffinity = lambda pid: set(range({cpus}))\n"
            "from bibcarto import _workers, cli\n_workers.BYTES_PER_WORKER = 1\n"
            f"{before}\ncode = cli.main({argv!r})\n{after}\n"
            "import multiprocessing\n"
            "assert multiprocessing.active_children() == [] and 'numpy' not in sys.modules\n"
            "sys.exit(code)\n")
    done = _fresh_python(code)
    return done.returncode, done.stdout, done.stderr


def _fresh_python(code, timeout=120) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(bibcarto.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=timeout)


def test_pooled_tables_builds_no_record_in_this_process(tmp_path):
    paths = _five_alert_files(tmp_path, 40)
    lexicon = corpus.DisciplineLexicon.default()
    kept, _ = corpus.filter_records([r for path in paths for r in
                                     records.parse_records(path.read_text(encoding="utf-8"))])
    expected = corpus.build_table(
        [corpus.tally(kept, lambda r: corpus.tag_disciplines(r, lexicon), lexicon.labels,
                      RunConfig.year_range)], lexicon.labels, RunConfig.year_range)[0].to_csv()
    parsed_in = tmp_path / "parsed_in.txt"
    # a forked worker inherits the spy; it notes the process id that parses
    spy = ("import gc\nfrom bibcarto import records\nreal = records.parse_records\n"
           "def spy(*args, **kwargs):\n"
           f"    with open({str(parsed_in)!r}, 'a', encoding='utf-8') as fh:\n"
           "        fh.write(f'{os.getpid()}\\n')\n"
           "    return real(*args, **kwargs)\n"
           "records.parse_records = spy\n")
    live = ("print(os.getpid(), sum(isinstance(obj, records.BibRecord) "
            "for obj in gc.get_objects()))\n")
    out = tmp_path / "t.csv"
    code, stdout, stderr = _fresh_main(["tables", "--records", *map(str, paths), "-o", str(out)],
                                       2, spy, live)
    assert code == 0, stderr
    pid, live_records = stdout.split()
    pids = parsed_in.read_text(encoding="utf-8").split()
    assert len(pids) == len(paths) and pid not in pids
    assert live_records == b"0"
    assert out.read_text(encoding="utf-8") == expected


def _mixed_corpus(tmp_path, files=6, per_file=30, seed=33):
    """Alert files in both formats, alternating, whose records cite bundled
    profiles, use bundled discipline terms, and now and then mention a
    galaxy cluster or carry no year or one outside 1994..2011."""
    rng = random.Random(seed)
    tokens = [t for e in corpus.ProfileCatalog.default().entries for t in e.match_tokens]
    terms = [t for e in corpus.DisciplineLexicon.default().entries for t in e.match_terms]

    def year():
        return "" if rng.random() < 0.1 else str(rng.randint(1990, 2014))

    def title(j):
        extra = " of a galaxy cluster" if rng.random() < 0.05 else ""
        return f"Study {j} in {rng.choice(terms)} and {rng.choice(terms).lower()}{extra}"

    paths = []
    for i in range(files):
        blocks = []
        for j in range(per_file):
            if i % 2 == 0:
                cited = "".join(f"W.  {rng.choice(tokens)}\n" for _ in range(rng.randint(0, 2)))
                blocks.append(f"T   {title(j)}\nA   AUTHOR {j}\nK   {rng.choice(terms)}\n"
                              f"U   J THINGS {j}: 1-9, {year()}\n{cited}")
            else:
                author = rng.choice(tokens).rsplit(" ", 1)[0]
                blocks.append(f"TITLE:  {title(j)}\nSOURCE: JOURNAL {j} (2). {year()}.\n"
                              f"SEARCH TERM(S): {author} rauth; {author[:3]}*  rauth\n"
                              f"KEYWORDS: {rng.choice(terms)}; x\n")
        paths.append(_write(tmp_path / f"mixed{i}.txt", "\n".join(blocks)))
    return paths


@pytest.mark.parametrize("kind", ["profiles", "disciplines"])
def test_tables_gives_the_same_results_in_one_process_and_in_a_pool(kind, tmp_path):
    paths = list(map(str, _mixed_corpus(tmp_path)))
    argv = ["tables", "--records", *paths, "--kind", kind]
    runs = {}
    for count in (1, 2):
        out = tmp_path / f"{count}.csv"
        runs[count, "-o"] = (*_fresh_main(argv + ["-o", str(out)], count), out.read_bytes())
        runs[count, "stdout"] = _fresh_main(argv, count)
    assert runs[1, "-o"] == runs[2, "-o"]
    assert runs[1, "stdout"] == runs[2, "stdout"]
    code, out, err, written = runs[1, "-o"]
    assert (code, out) == (0, b"") and written == runs[1, "stdout"][1]
    excluded, skipped = err.splitlines()
    assert excluded.startswith(b"bibcarto: excluded ") and skipped.startswith(b"bibcarto: skipped ")
    assert corpus.ContingencyTable.from_csv(written.decode("utf-8")).n > 0


@pytest.mark.parametrize("kind", ["profiles", "disciplines"])
def test_tables_piped_stdout_is_the_same_in_one_process_and_in_a_pool(kind, tmp_path):
    # standard output is a pipe, so block-buffered: text it holds when the
    # workers fork is written once
    paths = list(map(str, _mixed_corpus(tmp_path, files=3)))
    argv = ["tables", "--records", *paths, "--kind", kind]
    runs = [_fresh_main(argv, count, "sys.stdout.write('before\\n')") for count in (1, 2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 0 and out.startswith(b"before\nlabel,1994,")
    assert out.count(b"before") == 1 and err.count(b"\n") == 2


_BAD_FILES = {
    "missing": None,
    "not-utf-8": b"T   Neural network training\nU   J THINGS \xff 2000\n",
    "ambiguous": CORRUPT_RESEARCH_ALERT.encode("utf-8"),
    "no-title": b"T   Neural network training\nU   J THINGS 2000\n\nA   NOBODY J\n",
}
_BAD_FILE_ERRORS = {
    "missing": "{path}: No such file or directory",
    "not-utf-8": "{path}:2: not UTF-8: byte 0xff",
    "ambiguous": "{path}: input matches no alert format: ",
    "no-title": "{path}:4: record has no title",
}


@pytest.mark.parametrize("bad", list(_BAD_FILES))
@pytest.mark.parametrize("third", ["good", "also-bad"])
def test_tables_reports_the_first_bad_file_in_one_process_and_in_a_pool(bad, third, tmp_path):
    first, third_path = _mixed_corpus(tmp_path, files=2)
    if third == "also-bad":  # read, perhaps first, by a worker; the earlier file is reported
        third_path.write_bytes(_BAD_FILES["no-title"] if bad != "no-title"
                               else _BAD_FILES["not-utf-8"])
    path = tmp_path / f"{bad}.txt"
    if _BAD_FILES[bad] is not None:
        path.write_bytes(_BAD_FILES[bad])
    runs = []
    for count in (1, 2):
        out = tmp_path / f"{count}.csv"
        runs.append(_fresh_main(["tables", "--records", str(first), str(path), str(third_path),
                                 "-o", str(out)], count))
        assert not out.exists()
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, out) == (1, b"")
    err = err.decode("utf-8")
    assert err.startswith("bibcarto: error: " + _BAD_FILE_ERRORS[bad].format(path=path))
    assert err.count("\n") == 1


@pytest.mark.parametrize("fault", ["exit", "unpicklable"])
def test_a_worker_that_dies_or_sends_what_cannot_be_unpickled_breaks_the_pool(fault, tmp_path):
    # the pool must not wait for a result that never comes
    paths = [str(_write(tmp_path / name, "T   x\n")) for name in "abc"]
    code = ("import os, sys\nos.sched_getaffinity = lambda pid: {0, 1}\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from bibcarto import _workers\n_workers.BYTES_PER_WORKER = 1\n"
            "class Odd(Exception):  # pickles, but its __init__ takes more than its args\n"
            "    def __init__(self, a, b):\n"
            "        super().__init__(a)\n"
            "def step(path):\n"
            f"    if path == {paths[1]!r}:\n"
            f"        {'os._exit(3)' if fault == 'exit' else 'raise Odd(1, 2)'}\n"
            "    return path\n"
            "try:\n"
            f"    _workers.map_files(step, {paths!r})\n"
            "except ChildProcessError as exc:\n"
            "    import multiprocessing\n"
            "    assert isinstance(exc.__cause__, BrokenProcessPool)\n"
            "    print(multiprocessing.active_children())\n")
    done = _fresh_python(code, timeout=60)
    assert (done.returncode, done.stdout) == (0, b"[]\n"), done.stderr


def test_tables_reports_a_dead_worker_in_one_line(tmp_path):
    paths = [str(_write(tmp_path / f"{name}.txt", "T   x\nU   J THINGS 2000\n")) for name in "abc"]
    out = tmp_path / "t.csv"
    code, stdout, stderr = _fresh_main(["tables", "--records", *paths, "-o", str(out)], 2,
                                       "from bibcarto import records\n"
                                       "records.parse_records = lambda *args: os._exit(3)\n")
    assert (code, stdout) == (1, b"")
    assert stderr.startswith(b"bibcarto: error: worker pool broke: ") and stderr.count(b"\n") == 1
    assert not out.exists()


def test_tables_reads_the_lexicon_before_any_alert_file(tmp_path, capsys):
    alerts = _write(tmp_path / "bad.txt", CORRUPT_RESEARCH_ALERT)
    lexicon = _write(tmp_path / "lexicon.txt", "Net\tnetwork\nMed Medicine\n")
    assert main(["tables", "--records", str(alerts), "--lexicon", str(lexicon)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bibcarto: error: {lexicon}:2: ")
    assert err.count("\n") == 1


def test_tables_reports_no_exclusions_when_a_later_file_fails(tmp_path, capsys):
    first = _write(tmp_path / "one.txt", "T   Galaxy cluster survey\nU   J THINGS 2000\n\n"
                   "T   Neural network training\nK   computational biology\nU   J THINGS 2000\n")
    second = _write(tmp_path / "two.txt", CORRUPT_RESEARCH_ALERT)
    out = tmp_path / "t.csv"
    assert main(["tables", "--records", str(first), str(second), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bibcarto: error: {second}: input matches no alert format")
    assert err.count("\n") == 1
    assert not out.exists()


def test_tables_skip_message_counts_yearless_records(tmp_path, capsys):
    # build_table skips a record with no year as well as one outside the range
    path = _write(tmp_path / "three.txt", "T   Neural network training\n"
                  "K   computational biology\nU   J THINGS 2000\n\n"
                  "T   Neural network pruning\nU   J THINGS\n\n"
                  "T   Neural network theory\nU   J THINGS 2005\n")
    assert main(["tables", "--records", str(path), "--years", "1999:2000",
                 "-o", str(tmp_path / "t.csv")]) == 0
    assert ("bibcarto: skipped 2 record(s) with no year or a year outside 1999..2000\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("years, reason", [
    ("1999-2000", "expected FIRST:LAST, got"),
    ("2000:1999", "empty year range"),
    # a year, like a table cell, is an optionally negative ASCII digit run
    ("\u0661\u0669\u0669\u0664:\u0662\u0660\u0661\u0661", "expected FIRST:LAST, got"),
    ("+1994:2000", "expected FIRST:LAST, got"),
    ("1994:20_00", "expected FIRST:LAST, got"),
    ("1994:2000:2001", "expected FIRST:LAST, got"),
])
def test_tables_malformed_years_is_usage_error(years, reason, toy_corpus_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["tables", "--records", str(toy_corpus_file), "--years", years])
    assert err.value.code == 2
    assert f"--years: {reason} {years!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, shown", [
    ("tables", [f"(default {RunConfig.year_range[0]}:{RunConfig.year_range[1]})",
                *map(repr, RunConfig.exclusion_terms), "--catalog CATALOG", "--lexicon LEXICON"]),
    ("analyze", [f"(default {RunConfig.k})", f"(default {RunConfig.output_dir})",
                 "--outdir OUTDIR"]),
])
def test_help_names_each_run_config_default(command, shown, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    for default in shown:
        assert default in text


def _readme_synopsis() -> dict[str, str]:
    """Each command's lines in README's command synopsis block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = {}
    for line in block.splitlines():
        if line.startswith("bibcarto "):
            command = line.split()[1]
        if line.strip():
            lines[command] = lines.get(command, "") + line + "\n"
    return lines


def test_readme_synopsis_names_the_options_of_each_command():
    synopsis = _readme_synopsis()
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert sorted(synopsis) == sorted(commands)
    for command, parser in commands.items():
        named = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", synopsis[command]))
        options = [action.option_strings for action in parser._actions
                   if action.option_strings and not isinstance(action, argparse._HelpAction)]
        assert [o for o in options if not named & set(o)] == [], command
        assert named <= {o for strings in options for o in strings}, command


@pytest.mark.parametrize("name", ["Table1", "Table2"])
def test_tables_fixture_export(name, tmp_path):
    out = tmp_path / "table.csv"
    assert main(["tables", "--fixture", name, "-o", str(out)]) == 0
    assert out.read_bytes() == corpus.load_fixture(name).to_csv().encode("utf-8")


def test_readme_reference_commands_write_the_files_they_name(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("exporting the reference tables:", 1)[1].split("```")[1]
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(commands) == 4 and all(argv[0] == "bibcarto" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        if "-o" in argv:
            named = [argv[argv.index("-o") + 1]]
        else:
            named = [f"{argv[argv.index('--outdir') + 1]}/{name}" for name in ARTIFACTS]
        assert all((tmp_path / path).is_file() for path in named), argv


@pytest.mark.parametrize("flag, value", [
    ("--kind", "profiles"),
    ("--catalog", "/nonexistent/catalog.txt"),
    ("--lexicon", "/nonexistent/lexicon.txt"),
    ("--years", "2000:2001"),
    ("--exclude", "x"),
])
def test_tables_fixture_with_a_records_flag_is_usage_error(flag, value, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["tables", "--fixture", "Table2", flag, value, "-o", str(out)]) == 2
    assert f"{flag} applies only to --records" in capsys.readouterr().err
    assert not out.exists()


def test_tables_from_records(toy_corpus_file, tmp_path, capsys):
    out = tmp_path / "disc.csv"
    assert main([
        "tables", "--records", str(toy_corpus_file),
        "--kind", "disciplines", "--years", "1999:2002", "-o", str(out),
    ]) == 0
    table = corpus.ContingencyTable.from_csv(out.read_text(encoding="utf-8"))
    assert table.col_labels == tuple(range(1999, 2003))
    # the "computational biology" keyword
    assert table.counts[table.row_labels.index("Bio")].sum() == 1


def test_tables_profiles_from_records(sample_file, tmp_path):
    out = tmp_path / "prof.csv"
    assert main([
        "tables", "--records", str(sample_file),
        "--kind", "profiles", "--years", "1994:2011", "-o", str(out),
    ]) == 0
    table = corpus.ContingencyTable.from_csv(out.read_text(encoding="utf-8"))
    assert table.counts[table.row_labels.index("Breiman84")][table.col_labels.index(1998)] == 1
    assert table.n == 1


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_alert_files_with_other_line_ends_give_the_same_output(end, sample_file, toy_corpus_file,
                                                               tmp_path, capsys):
    lf = [str(sample_file), str(toy_corpus_file)]
    copies = []
    for path in map(Path, lf):
        copy = tmp_path / f"{end.encode().hex()}-{path.name}"
        copy.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        copies.append(str(copy))
    outputs = []
    for files in (lf, copies):
        for argv in (["parse", *files], ["tables", "--kind", "profiles", "--records", *files],
                     ["tables", "--exclude", "pottery", "--records", *files]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
    assert outputs[:3] == outputs[3:]
    assert "excluded 1 record(s)" in outputs[2].err


def test_analyze_fixture_outputs(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["analyze", "--fixture", "Table2", "--k", "2",
                 "--outdir", str(outdir)]) == 0
    for name in ("coordinates.csv", "inertia.csv", "dendrogram.nwk", "partition.csv"):
        assert (outdir / name).exists()
    partition = (outdir / "partition.csv").read_text(encoding="utf-8").splitlines()
    assert len(partition) == 1 + 32
    clusters = {ln.rsplit(",", 1)[0]: ln.rsplit(",", 1)[1] for ln in partition[1:]}
    early = {clusters[str(y)] for y in range(1994, 2004)}
    late = {clusters[str(y)] for y in range(2004, 2012)}
    assert len(early) == 1 and len(late) == 1 and early != late


# The four artifacts of the reference run, written once by the program as it
# stood before this test. A transposed SVD, which computes the same
# factorization, moves no number by more than 1.0e-13; a defect moves more.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference_analysis"


def test_analyze_reference_artifacts_match_the_checked_in_ones(tmp_path):
    outdir = tmp_path / "ref"
    assert main(["analyze", "--fixture", "Table2", "--supplementary", "Table1",
                 "--k", "5", "--outdir", str(outdir)]) == 0
    # columns before `exact` are labels, kinds or axis numbers; the rest are numbers
    for name, exact in (("coordinates.csv", 2), ("inertia.csv", 1), ("partition.csv", 2)):
        got, want = (list(csv.reader(io.StringIO((d / name).read_text(encoding="utf-8"))))
                     for d in (outdir, REFERENCE_DIR))
        assert got[0] == want[0] and len(got) == len(want), name
        for row, ref in zip(got[1:], want[1:]):
            assert row[:exact] == ref[:exact], name
            assert list(map(float, row[exact:])) == pytest.approx(
                list(map(float, ref[exact:])), abs=1e-10), (name, row[0])
    got, want = ((d / "dendrogram.nwk").read_text(encoding="utf-8")
                 for d in (outdir, REFERENCE_DIR))
    length = r":([-+.0-9eE]+)"
    assert re.sub(length, "", got) == re.sub(length, "", want)
    assert list(map(float, re.findall(length, got))) == pytest.approx(
        list(map(float, re.findall(length, want))), abs=1e-10)


def test_analyze_from_table_csv_matches_fixture_run(tmp_path):
    csv_path = tmp_path / "t2.csv"
    assert main(["tables", "--fixture", "Table2", "-o", str(csv_path)]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--fixture", "Table2", "--outdir", str(a)]) == 0
    assert main(["analyze", "--table", str(csv_path), "--outdir", str(b)]) == 0
    for name in ("coordinates.csv", "inertia.csv", "dendrogram.nwk", "partition.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_analyze_axes_limit(tmp_path):
    outdir = tmp_path / "axes"
    assert main(["analyze", "--fixture", "Table2", "--axes", "2",
                 "--outdir", str(outdir)]) == 0
    header = (outdir / "coordinates.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "label,kind,axis1,axis2"


@pytest.mark.parametrize("source", ["fixture", "table"])
def test_analyze_error_about_a_bundled_table_names_no_file(source, tmp_path, capsys):
    # a k given as a flag has no file either, whichever table it cuts
    if source == "fixture":
        table = ["--fixture", "Table2"]
    else:
        csv_path = tmp_path / "t2.csv"
        assert main(["tables", "--fixture", "Table2", "-o", str(csv_path)]) == 0
        table = ["--table", str(csv_path)]
    assert main(["analyze", *table, "--k", "1000", "--outdir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "bibcarto: error: k must be in 1..32, got 1000\n"


def test_analyze_mismatched_supplementary_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,1994,1995\nx,1,2\n", encoding="utf-8")
    code = main(["analyze", "--fixture", "Table2",
                 "--supplementary-table", str(bad), "--outdir", str(tmp_path / "o")])
    assert code == 1
    assert "columns differ" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("label,1994,1995\na,1,2\n,2,1\nc,3,3\n", ":3: blank row label"),
    ('label,1994,1995\na,1,2\n"b\nc",2,1\nd,3,3\n', ":3: row label 'b\\nc' holds"),
])
def test_analyze_table_with_a_bad_label_exits_1_naming_the_line(text, where, tmp_path, capsys):
    path = _write(tmp_path / "table.csv", text)
    assert main(["analyze", "--table", str(path), "--outdir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path}{where}" in err
    assert not (tmp_path / "o").exists()


def test_config_file_supplies_defaults(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 5}), encoding="utf-8")
    monkeypatch.setenv("BIBCARTO_CONFIG", str(config))
    outdir = tmp_path / "out"
    assert main(["analyze", "--fixture", "Table2", "--outdir", str(outdir)]) == 0
    partition = (outdir / "partition.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert {int(ln.rsplit(",", 1)[1]) for ln in partition} == {1, 2, 3, 4, 5}


CONFIG_KEYS = ("exclusion_terms", "year_range", "catalog_path", "lexicon_path",
               "output_dir", "k", "axes")
ARTIFACTS = ("coordinates.csv", "inertia.csv", "dendrogram.nwk", "partition.csv")


def test_config_keys_are_the_run_config_fields():
    assert tuple(RunConfig.__dataclass_fields__) == CONFIG_KEYS


def test_config_file_supplies_every_setting(toy_corpus_file, tmp_path, monkeypatch):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("Net\tnetwork\nPots\tpottery\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "exclusion_terms": ["bronze age"], "year_range": [2000, 2002],
        "catalog_path": None, "lexicon_path": str(lexicon),
        "output_dir": str(tmp_path / "from_config"), "k": 3, "axes": 1,
    }), encoding="utf-8")
    monkeypatch.setenv("BIBCARTO_CONFIG", str(config))
    out = tmp_path / "t.csv"
    assert main(["tables", "--records", str(toy_corpus_file), "-o", str(out)]) == 0
    table = corpus.ContingencyTable.from_csv(out.read_text(encoding="utf-8"))
    assert table.row_labels == ("Net", "Pots")
    assert table.col_labels == (2000, 2001, 2002)
    net, pots = table.counts  # in row_labels order
    assert net.tolist() == [1, 1, 0]  # the 1999 network record is out of range
    assert pots.sum() == 0            # the pottery record is excluded
    assert main(["analyze", "--fixture", "Table2"]) == 0
    outdir = tmp_path / "from_config"
    assert (outdir / "coordinates.csv").read_text(encoding="utf-8").startswith(
        "label,kind,axis1\n")
    partition = (outdir / "partition.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert {ln.rsplit(",", 1)[1] for ln in partition} == {"1", "2", "3"}


def test_flags_win_over_config(toy_corpus_file, tmp_path, monkeypatch):
    vocabulary = {}
    for source in ("config", "flag"):
        vocabulary[source] = (_write(tmp_path / f"{source}_catalog.txt", f"{source}\tX Y 99\n"),
                              _write(tmp_path / f"{source}_lexicon.txt", f"{source}\tnetwork\n"))
    catalog, lexicon = vocabulary["config"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 5, "axes": 1, "exclusion_terms": [],
                                  "year_range": [1994, 1995], "catalog_path": str(catalog),
                                  "lexicon_path": str(lexicon),
                                  "output_dir": str(tmp_path / "from_config")}),
                      encoding="utf-8")
    monkeypatch.setenv("BIBCARTO_CONFIG", str(config))
    outdir = tmp_path / "out"
    assert main(["analyze", "--fixture", "Table2", "--k", "2", "--axes", "2",
                 "--outdir", str(outdir)]) == 0
    assert not (tmp_path / "from_config").exists()
    partition = (outdir / "partition.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert {ln.rsplit(",", 1)[1] for ln in partition} == {"1", "2"}
    header = (outdir / "coordinates.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "label,kind,axis1,axis2"
    out = tmp_path / "t.csv"
    assert main(["tables", "--records", str(toy_corpus_file), "--years", "1999:2002",
                 "--exclude", "pottery", "-o", str(out)]) == 0
    table = corpus.ContingencyTable.from_csv(out.read_text(encoding="utf-8"))
    assert table.col_labels == (1999, 2000, 2001, 2002)
    catalog, lexicon = vocabulary["flag"]
    for kind, flag, path in (("profiles", "--catalog", catalog),
                             ("disciplines", "--lexicon", lexicon)):
        assert main(["tables", "--records", str(toy_corpus_file), "--years", "1999:2002",
                     "--kind", kind, flag, str(path), "-o", str(out)]) == 0
        table = corpus.ContingencyTable.from_csv(out.read_text(encoding="utf-8"))
        assert table.row_labels == ("flag",)


@pytest.mark.parametrize("kind, flag, vocabulary", [
    ("profiles", "--catalog", "XY99\tX Y 99\n"),
    ("disciplines", "--lexicon", "Net\tnetwork\nBio\tbiology\n"),
    ("disciplines", None, None),  # the bundled lexicon
], ids=["catalog", "lexicon", "bundled-lexicon"])
def test_run_tables_gives_the_table_that_tables_writes(kind, flag, vocabulary, toy_corpus_file,
                                                      tmp_path, capsys):
    argv = ["tables", "--records", str(toy_corpus_file), "--kind", kind, "--years", "2000:2002",
            "--exclude", "pottery"]
    config = RunConfig(year_range=(2000, 2002), exclusion_terms=("pottery",))
    if flag:
        path = str(_write(tmp_path / "vocabulary.txt", vocabulary))
        argv += [flag, path]
        config = replace(config, **{f"{flag[2:]}_path": path})
    assert main(argv) == 0
    written = capsys.readouterr()
    table, excluded, skipped = cli.run_tables([str(toy_corpus_file)], kind, config)
    assert table.to_csv() == written.out
    assert (excluded, skipped) == (1, 1)  # the pottery record; the 1999 one
    assert written.err.splitlines() == [
        f"bibcarto: excluded {excluded} record(s) by title phrase",
        f"bibcarto: skipped {skipped} record(s) with no year or a year outside 2000..2002"]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# One case per crash or silent misreading seen before the config was
# validated and the table reader typed its errors: (config JSON or None,
# table CSV text or None, command, text the error must name besides the file).
REJECTED_INPUTS = {
    "config-k-string": ({"k": "5"}, None, "analyze", "k"),
    "config-axes-string": ({"axes": "3"}, None, "analyze", "axes"),
    "config-year-range-string": ({"year_range": "1994"}, None, "tables", "year_range"),
    "config-year-range-huge": ({"year_range": [0, 4000000000]}, None, "tables",
                               "year_range must be [FIRST, LAST] with integer years, "
                               "1900 <= FIRST <= LAST <= 2100"),
    "config-year-range-before-1900": ({"year_range": [1899, 1950]}, None, "tables",
                                      "year_range"),
    "config-year-range-after-2100": ({"year_range": [2000, 2101]}, None, "tables",
                                     "year_range"),
    "config-exclusion-terms-string": ({"exclusion_terms": "galaxy"}, None, "tables",
                                      "exclusion_terms"),
    "config-exclusion-terms-blank": ({"exclusion_terms": ["galaxy", " "]}, None, "tables",
                                     "exclusion_terms"),
    "config-unknown-key": ({"kk": 3}, None, "analyze", "kk"),
    "config-catalog-path-empty": ({"catalog_path": ""}, None, "tables",
                                  "catalog_path must be a non-empty string or null"),
    "config-lexicon-path-empty": ({"lexicon_path": ""}, None, "tables",
                                  "lexicon_path must be a non-empty string or null"),
    "config-output-dir-blank": ({"output_dir": "   "}, None, "analyze",
                                "output_dir must be a non-empty string"),
    "config-not-an-object": ([1], None, "analyze", ": config must be a JSON object"),
    "csv-empty": (None, "", "analyze", ":1:"),
    "csv-overflow": (None, "label,1994,1995\nx,99999999999999999999,1\n", "analyze", ":2:"),
    "csv-ragged": (None, "label,1994,1995\nx,1,2\ny,3\n", "analyze", ":3:"),
    "csv-non-integer": (None, "label,1994,1995\nx,1,2\ny,3,z\n", "analyze", ":3:"),
    "csv-header-only": (None, "label,1994,1995\n", "analyze", ":1:"),
    "csv-year-too-long": (None, f"label,{'1' * 5000}\nx,1\n", "analyze", ":1:"),
    "csv-field-too-large": (None, f"label,1994,1995\na,1,2\nb,{'1' * 200_000},1\n", "analyze",
                            ":3: field larger than field limit"),
    "csv-all-zero": (None, "label,1994,1995\na,0,0\nb,0,0\n", "analyze",
                     ": table has no incidences"),
    "csv-zero-row": (None, "label,1994,1995\na,0,0\nb,1,2\nc,2,1\n", "analyze",
                     ": row 'a' has zero mass"),
    "csv-1x1": (None, "label,1994\na,3\n", "analyze", "2x2"),
    "csv-row-labelled-like-a-column": (None, "label,1994,1995\n1994,1,2\nb,2,1\n", "analyze",
                                       "'1994'"),
    "config-k-above-points": ({"k": 999}, None, "analyze", ": k must be in 1..32, got 999"),
    # bad quoting, named at the line where its row starts
    "csv-text-after-quote": (None, 'label,1994\nx,"1"2\n', "analyze",
                             ":2: ',' expected after '\"'"),
    "csv-space-after-quote": (None, 'label,1994\n"a" ,1\nb,2\n', "analyze",
                              ":2: ',' expected after '\"'"),
    "csv-unclosed-quote": (None, 'label,1994\nx,1\n"y,1\nz,2\n', "analyze",
                           ":3: unclosed quote"),
}


@pytest.mark.parametrize("config, table, command, detail",
                         REJECTED_INPUTS.values(), ids=REJECTED_INPUTS.keys())
def test_malformed_input_exits_1_naming_file(config, table, command, detail, toy_corpus_file,
                                             tmp_path, monkeypatch, capsys):
    named = None
    if config is not None:
        named = _write(tmp_path / "config.json", json.dumps(config))
        monkeypatch.setenv("BIBCARTO_CONFIG", str(named))
    if command == "tables":
        argv = ["tables", "--records", str(toy_corpus_file)]
    elif table is not None:
        named = _write(tmp_path / "table.csv", table)
        argv = ["analyze", "--table", str(named), "--outdir", str(tmp_path / "o")]
    else:
        argv = ["analyze", "--fixture", "Table2", "--outdir", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"bibcarto: error: {named}")
    assert detail in err


# Catalog, lexicon and non-UTF-8 inputs: (option that names the file, its
# bytes, the ":line:" the error must name after the file).
REJECTED_FILES = {
    "lexicon-no-tab": ("--lexicon", b"Net\tnetwork\nMed Medicine\n", ":2:"),
    "lexicon-empty-label": ("--lexicon", b"# labels\n\tnetwork\n", ":2:"),
    "lexicon-duplicate-label": ("--lexicon", b"Net\tnetwork\n\nNet\tnet\n", ":3:"),
    "catalog-no-tab": ("--catalog", b"Ward63 WARD JH 63\n", ":1:"),
    "catalog-empty-id": ("--catalog", b"Ward63\tWARD JH 63\n \tWOLFE JH 70\n", ":2:"),
    "catalog-duplicate-id": ("--catalog", b"Ward63\tWARD JH 63\nWard63\tWARD J 63\n", ":2:"),
    "catalog-shared-token": ("--catalog", b"Ward63\tWARD JH 63\nWard\tWARD  JH 63\n", ":2:"),
    "lexicon-not-utf8": ("--lexicon", b"Net\tnetwork\r\nPots\tpot\xfftery\n", ":2:"),
    "catalog-not-utf8": ("--catalog", b"\xffWard63\tWARD JH 63\n", ":1:"),
    "records-not-utf8": ("--records", b"T   fine\nU   J THINGS 1999\n\nT   caf\xe9\n", ":4:"),
    "table-not-utf8": ("--table", b"label,1994\nx,1\ny\xff,2\n", ":3:"),
    # a byte-order mark is dropped, but lines still count from the file's start
    "records-bom-not-utf8": ("--records", codecs.BOM_UTF8 + b"T   fine\nU   J THINGS 1999\n"
                             b"\nT   caf\xe9\n", ":4:"),
    "catalog-bom-not-utf8": ("--catalog", codecs.BOM_UTF8 + b"\xffWard63\tWARD JH 63\n", ":1:"),
    # "\r\n" and "\r" end a line, as they do for the parser
    "records-cr-not-utf8": ("--records", b"T  a\rT  b\rT  c\xff", ":3:"),
    "records-crlf-not-utf8": ("--records", b"T  a\r\nT  b\r\nT  c\xff", ":3:"),
}


@pytest.mark.parametrize("option, data, line", REJECTED_FILES.values(),
                         ids=REJECTED_FILES.keys())
def test_malformed_vocabulary_or_encoding_exits_1_naming_line(option, data, line,
                                                              toy_corpus_file, tmp_path, capsys):
    named = tmp_path / "input.txt"
    named.write_bytes(data)
    if option == "--table":
        argv = ["analyze", "--table", str(named), "--outdir", str(tmp_path / "o")]
    elif option == "--records":
        argv = ["tables", "--records", str(named)]
    else:
        kind = "profiles" if option == "--catalog" else "disciplines"
        argv = ["tables", "--records", str(toy_corpus_file), "--kind", kind, option, str(named)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"bibcarto: error: {named}{line}")


# The line ends of str.splitlines, which every input's parser and read_file's
# numbering of a bad byte both apply to the file's own text.
SPLITLINES_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029"]
# Input -> (two good lines, a bad third line, argv reading it as {path}).
# The config is read through BIBCARTO_CONFIG; its line ends sit inside a
# JSON string, where JSON allows only U+0085, U+2028 and U+2029 of them.
BAD_THIRD_LINE = {
    "--records": (["T  a", "T  b"], "X  c", ["parse", "--format", "research-alert", "{path}"]),
    "--catalog": (["Ward63\tWARD JH 63", "Wolfe70\tWOLFE JH 70"], "Sokal SOKAL RR 63",
                  ["tables", "--records", "{sample}", "--kind", "profiles", "--catalog", "{path}"]),
    "--lexicon": (["Net\tnetwork", "Med\tmed"], "Pots pot",
                  ["tables", "--records", "{sample}", "--lexicon", "{path}"]),
    "--table": (["label,1994", "x,1"], "y,z", ["analyze", "--table", "{path}", "--outdir", "{out}"]),
    "config": (['{"k": "a', "b"], '", }', ["tables", "--records", "{sample}"]),
}
BAD_THIRD_LINE_CASES = [(name, end) for name in BAD_THIRD_LINE for end in SPLITLINES_ENDS
                        if name != "config" or end in "\x85\u2028\u2029"]


@pytest.mark.parametrize("name, end", BAD_THIRD_LINE_CASES,
                         ids=[f"{name}-" + "+".join(f"U+{ord(c):04X}" for c in end)
                              for name, end in BAD_THIRD_LINE_CASES])
def test_bad_byte_is_numbered_as_the_parser_numbers_a_bad_line(name, end, toy_corpus_file,
                                                                 tmp_path, monkeypatch, capsys):
    # line 3 is bad, once by its text and once by a byte that is not UTF-8
    good, bad, argv = BAD_THIRD_LINE[name]
    reported = []
    for case, data in (("text", end.join([*good, bad]).encode()),
                       ("byte", end.join([*good, ""]).encode() + b"\xff")):
        path = tmp_path / case
        path.write_bytes(data)
        if name == "config":
            monkeypatch.setenv("BIBCARTO_CONFIG", str(path))
        assert main([a.format(path=path, out=tmp_path / "out", sample=toy_corpus_file)
                     for a in argv]) == 1
        err = capsys.readouterr().err
        reported.append(re.search(rf"{re.escape(str(path))}:(\d+): ", err)[1])
    assert reported == ["3", "3"]


# Input -> (its text, argv reading it as {path}, the line its error names).
# The config is read through BIBCARTO_CONFIG; argv is then given no {path}.
LINE_ERROR_INPUTS = {
    "research-alert-tag": ("T   a\nZ   b\n", ["parse", "--format", "research-alert", "{path}"], 2),
    "personal-alert-header": ("TITLE: a\nFOO: b\n",
                              ["parse", "--format", "personal-alert", "{path}"], 2),
    "research-alert-no-title": ("T   a\n\n\nA   NOBODY J\n", ["parse", "{path}"], 4),
    "personal-alert-continuation": ("\n  continued\nTITLE: a\n", ["parse", "{path}"], 2),
    "catalog": ("Ward63\tWARD JH 63\nWolfe70 WOLFE JH 70\n",
                ["tables", "--records", "{sample}", "--kind", "profiles", "--catalog", "{path}"],
                2),
    "lexicon": ("Net\tnetwork\nMed Medicine\n",
                ["tables", "--records", "{sample}", "--lexicon", "{path}"], 2),
    "table": ("label,1994\nx,1\ny,z\n", ["analyze", "--table", "{path}", "--outdir", "{out}"], 3),
    "config-syntax": ('{\n"k": 3,\n}\n', ["tables", "--records", "{sample}"], 3),
}


@pytest.mark.parametrize("name", LINE_ERROR_INPUTS)
def test_every_error_that_knows_its_line_reads_path_colon_line(name, toy_corpus_file, tmp_path,
                                                               monkeypatch, capsys):
    text, argv, line = LINE_ERROR_INPUTS[name]
    path = _write(tmp_path / "input.txt", text)
    if name == "config-syntax":
        monkeypatch.setenv("BIBCARTO_CONFIG", str(path))
    argv = [a.format(path=path, out=tmp_path / "out", sample=toy_corpus_file) for a in argv]
    assert main(argv) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert re.match(rf"bibcarto: error: {re.escape(str(path))}:{line}: ", err)
    if argv[0] == "parse":
        assert main([*argv, "--lenient"]) == 0
        errors = capsys.readouterr().err.splitlines()[:-1]  # then the summary
        assert len(errors) == 1
        assert re.match(rf"bibcarto: parse error: {re.escape(str(path))}:{line}: ", errors[0])


def test_read_file_keeps_the_class_of_a_whole_file_error(tmp_path):
    path = _write(tmp_path / "neither.txt", "neither format\n")
    with pytest.raises(records.AmbiguousFormatError) as err:
        read_file(path, records.parse_records)
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: input matches no alert format: ")


# Input -> (its text, argv reading it as {path} and writing under {out}).
# The config is read through BIBCARTO_CONFIG.
BOM_INPUTS = {
    "alerts": (RESEARCH_ALERT_SAMPLE, ["parse", "{path}", "-o", "{out}"]),
    "lexicon": ("Eng\tEngineering\nMath\tMathematical\n",
                ["tables", "--records", "{sample}", "--lexicon", "{path}", "-o", "{out}"]),
    "catalog": ("Breiman84\tBREIMAN L 84\nWard63\tWARD JH 63\n",
                ["tables", "--records", "{sample}", "--kind", "profiles", "--catalog", "{path}",
                 "-o", "{out}"]),
    "table": (corpus.load_fixture("Table2").to_csv(),
              ["analyze", "--table", "{path}", "--outdir", "{out}"]),
    "config": (json.dumps({"k": 3, "axes": 1}),
               ["analyze", "--fixture", "Table2", "--outdir", "{out}"]),
}


@pytest.mark.parametrize("name", BOM_INPUTS)
def test_leading_byte_order_mark_is_not_content(name, sample_file, tmp_path, monkeypatch):
    text, argv = BOM_INPUTS[name]
    outputs = []
    for mark in (b"", codecs.BOM_UTF8):
        run = tmp_path / f"run{len(outputs)}"
        run.mkdir()
        path = run / "input.txt"
        path.write_bytes(mark + text.encode("utf-8"))
        if name == "config":
            monkeypatch.setenv("BIBCARTO_CONFIG", str(path))
        assert main([a.format(path=path, out=run / "out", sample=sample_file) for a in argv]) == 0
        outputs.append({str(p.relative_to(run)): p.read_bytes()
                        for p in sorted(run.rglob("*")) if p.is_file() and p != path})
    assert outputs[0] and outputs[1] == outputs[0]


@pytest.mark.parametrize("kind, flag, wanted", [
    (["--kind", "disciplines"], "--catalog", "profiles"),
    ([], "--catalog", "profiles"),  # disciplines is the default kind
    (["--kind", "profiles"], "--lexicon", "disciplines"),
], ids=["catalog-disciplines", "catalog-default-kind", "lexicon-profiles"])
def test_tables_vocabulary_flag_of_the_other_kind_is_usage_error(kind, flag, wanted,
                                                                 toy_corpus_file, tmp_path,
                                                                 capsys):
    vocabulary = _write(tmp_path / "vocabulary.txt", "Net\tnetwork\n")
    out = tmp_path / "t.csv"
    assert main(["tables", "--records", str(toy_corpus_file), *kind, flag, str(vocabulary),
                 "-o", str(out)]) == 2
    assert f"{flag} applies only to --kind {wanted}" in capsys.readouterr().err
    assert not out.exists()


def test_config_vocabulary_paths_serve_either_kind(toy_corpus_file, tmp_path, monkeypatch):
    catalog = _write(tmp_path / "catalog.txt", "XY99\tX Y 99\n")
    lexicon = _write(tmp_path / "lexicon.txt", "Net\tnetwork\n")
    config = _write(tmp_path / "config.json", json.dumps(
        {"catalog_path": str(catalog), "lexicon_path": str(lexicon)}))
    monkeypatch.setenv("BIBCARTO_CONFIG", str(config))
    for kind, label, n in (("profiles", "XY99", 4), ("disciplines", "Net", 3)):
        out = tmp_path / f"{kind}.csv"
        assert main(["tables", "--records", str(toy_corpus_file), "--kind", kind,
                     "-o", str(out)]) == 0
        table = corpus.ContingencyTable.from_csv(out.read_text(encoding="utf-8"))
        assert table.row_labels == (label,) and table.n == n


@pytest.mark.parametrize("key", ["exclude", "years", "catalog", "lexicon", "outdir",
                                 "inputs", "format"])
def test_removed_config_names_are_rejected(key, tmp_path, monkeypatch, capsys):
    config = _write(tmp_path / "config.json", json.dumps({key: None}))
    monkeypatch.setenv("BIBCARTO_CONFIG", str(config))
    assert main(["analyze", "--fixture", "Table2", "--outdir", str(tmp_path / "o")]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_config_not_json_names_file(tmp_path, monkeypatch, capsys):
    config = _write(tmp_path / "config.json", "{k: 5")
    monkeypatch.setenv("BIBCARTO_CONFIG", str(config))
    assert main(["analyze", "--fixture", "Table2", "--outdir", str(tmp_path / "o")]) == 1
    assert str(config) in capsys.readouterr().err


# Config bytes and what the error must say after the file's path.
REJECTED_CONFIGS = {
    "bad-json-line-2": (b'{"k": 5,\n "axes": }\n', ":2: not a JSON file"),
    "not-utf8-line-2": (b'{"k": 5,\n "output_dir": "\xff"}\n', ":2: not UTF-8: byte 0xff"),
    "nested-too-deep": (b"[" * 100_000, ": not a JSON file"),
}


@pytest.mark.parametrize("data, detail", REJECTED_CONFIGS.values(), ids=REJECTED_CONFIGS.keys())
def test_config_error_names_file_and_line(data, detail, tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(data)
    monkeypatch.setenv("BIBCARTO_CONFIG", str(config))
    assert main(["analyze", "--fixture", "Table2", "--outdir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"bibcarto: error: {config}{detail}")


_TABLE2_HEADER = ",".join(["label", *map(str, range(1994, 2012))])

# Supplementary tables the fitted Table2 cannot take: (CSV text, what
# the error must say after the supplementary table's path).
REJECTED_SUPPLEMENTARY = {
    "zero-row": (f"{_TABLE2_HEADER}\nr{',1' * 18}\ns{',0' * 18}\n",
                 "supplementary row 's' has no incidences"),
    "extra-column": (f"{_TABLE2_HEADER},2012\ns{',1' * 19}\n",
                     "supplementary table columns differ"),
    "repeats-fitted-label": (f"{_TABLE2_HEADER}\ns{',1' * 18}\nHum{',2' * 18}\n",
                             "supplementary row 'Hum' repeats a fitted label"),
}


@pytest.mark.parametrize("text, detail", REJECTED_SUPPLEMENTARY.values(),
                         ids=REJECTED_SUPPLEMENTARY.keys())
def test_bad_supplementary_table_names_file_and_row(text, detail, tmp_path, capsys):
    sup = _write(tmp_path / "sup.csv", text)
    assert main(["analyze", "--fixture", "Table2", "--supplementary-table", str(sup),
                 "--outdir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"bibcarto: error: {sup}: {detail}")


def _exception_classes():
    modules = [importlib.import_module(f"bibcarto.{m.name}")
               for m in pkgutil.iter_modules(bibcarto.__path__)]
    return {obj for module in modules for _, obj in inspect.getmembers(module, inspect.isclass)
            if issubclass(obj, BaseException) and obj.__module__.startswith("bibcarto")}


def test_every_exception_class_is_a_data_error():
    classes = _exception_classes()
    # one class per distinction some caller in the program makes
    assert sorted(c.__qualname__ for c in classes) == [
        "AmbiguousFormatError", "ClusterCountError", "DataError", "EntryError",
        "InputFormatError", "QueryError", "RecordLineError", "RecordParseError",
        "SupplementaryError"]
    assert sorted(c.__qualname__ for c in classes if not issubclass(c, DataError)) == []


def _sample_error(cls):
    if issubclass(cls, bibcarto.errors.InputFormatError):
        return cls(4, "record has no title")
    if cls is corpus.EntryError:
        return cls(2, "duplicate id 'x'")
    return cls("input matches no alert format")


@pytest.mark.parametrize("path", [None, "alerts.txt"])
def test_every_exception_class_survives_pickling(path):
    # a pool worker's error reaches the parent pickled
    classes = _exception_classes()
    assert len(classes) == 9
    for cls in classes:
        exc = _sample_error(cls)
        if path:
            exc.path = path
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(exc, protocol))
            assert type(again) is cls
            assert str(again) == str(exc) and again.args == exc.args
            for name in ("line_no", "index", "reason", "path"):
                assert getattr(again, name, None) == getattr(exc, name, None), (cls, name)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=6,
)
_valid_settings = {
    "exclusion_terms": [[], ["galaxy"]], "year_range": [[1994, 2011]],
    "catalog_path": [None], "lexicon_path": [None], "output_dir": ["unused"],
    "k": [1, 2, 3], "axes": [None, 1, 2],
}
# Half valid configs, so that the table is read and analysed; half any
# JSON object over known and unknown keys.
_configs = (
    st.fixed_dictionaries({}, optional={
        key: st.sampled_from(values) for key, values in _valid_settings.items()
    })
    | st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=6), _json_values,
                      max_size=3)
)


@st.composite
def _table_csvs(draw):
    """Well-formed tables (0-4 year columns, 0-5 rows of counts 0-5),
    some of which CA or Ward still reject as degenerate."""
    years = [str(1994 + j) for j in range(draw(st.integers(0, 4)))]
    labels = draw(st.lists(st.sampled_from([*"abcdef", "1994"]), unique=True, max_size=5))
    lines = [",".join(["label", *years])]
    for label in labels:
        counts = draw(st.lists(st.integers(0, 5), min_size=len(years), max_size=len(years)))
        lines.append(",".join([label, *map(str, counts)]))
    return "\n".join(lines) + "\n"


_csv_cells = st.sampled_from(["label", "1994", "1995", "-1", "0", "1", "3", "x", "", " 2"])
_csv_junk = st.lists(st.lists(_csv_cells, max_size=4).map(",".join), max_size=5).map("\n".join)


@settings(max_examples=60, deadline=None)
@given(config=_configs, table=st.text(max_size=60) | _csv_junk | _table_csvs())
def test_analyze_never_raises_on_arbitrary_config_and_table(config, table):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_path = _write(tmp / "config.json", json.dumps(config))
        table_path = _write(tmp / "table.csv", table)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("BIBCARTO_CONFIG", str(config_path))
            code = main(["analyze", "--table", str(table_path), "--outdir", str(tmp / "o")])
    assert code in (0, 1)


def _joined(pieces, sep=""):
    return st.lists(st.sampled_from(pieces), max_size=6).map(sep.join)


# Research Alert records that parse, citing catalog tokens and carrying
# lexicon terms, so that some runs reach tagging and write a table.
_ra_records = st.lists(
    st.tuples(_joined(["network", "Net", "ward", "pottery", "C++"], " "),
              st.sampled_from(["1993", "1999", "2011", ""]),
              st.sampled_from(["WARD JH 63", "WARD  JH   63", "X Y 99"])),
    min_size=1, max_size=4,
).map(lambda recs: "\n".join(f"T   t {title}\nU   J X {year}\nW.  {token}\n"
                              for title, year, token in recs))
_alert_texts = (
    st.text(max_size=80)
    | st.sampled_from([RESEARCH_ALERT_SAMPLE, PERSONAL_ALERT_SAMPLE])
    | _ra_records
)
_vocabulary_texts = st.text(max_size=40) | st.lists(
    st.tuples(st.sampled_from(["Net", "Ward63", "Pots", "Soc", "", "# c"]),
              st.sampled_from(["\t", "\t", "\t", " "]),
              _joined(["network", "WARD JH 63", "ward", "net", "C++", "(", ""], ",")),
    min_size=1, max_size=3,
).map(lambda lines: "\n".join(key + sep + terms for key, sep, terms in lines))


@settings(max_examples=200, deadline=None)
@given(text=_alert_texts, fmt=st.sampled_from(records.RecordFormat))
def test_a_format_that_parses_a_text_is_the_one_detected(text, fmt):
    # so tables and search, which detect each file's format, read what a named format would
    try:
        named = records.parse_records(text, fmt)
    except records.RecordParseError:
        return
    if text.strip():
        assert records.parse_records(text) == named


def _file_bytes(texts):
    """Text as UTF-8 (two times in three), or arbitrary bytes (mostly not UTF-8)."""
    utf8 = texts.map(lambda t: t.encode("utf-8"))
    return utf8 | utf8 | st.binary(max_size=40)


@pytest.mark.parametrize("flags", [[], ["--lenient"]], ids=["strict", "lenient"])
@settings(max_examples=60, deadline=None)
@given(alerts=_file_bytes(_alert_texts))
def test_parse_never_raises_on_arbitrary_alerts(flags, alerts):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "alerts.txt"
        path.write_bytes(alerts)
        code = main(["parse", *flags, str(path), "-o", str(Path(tmp) / "out.jsonl")])
    assert code in (0, 1)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["profiles", "disciplines"]), alerts=_file_bytes(_alert_texts),
       catalog=_file_bytes(_vocabulary_texts), lexicon=_file_bytes(_vocabulary_texts))
def test_tables_never_raises_on_arbitrary_alerts_catalog_and_lexicon(kind, alerts, catalog,
                                                                     lexicon):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {}
        for name, data in (("alerts", alerts), ("catalog", catalog), ("lexicon", lexicon)):
            paths[name] = tmp / f"{name}.txt"
            paths[name].write_bytes(data)
        vocabulary = "catalog" if kind == "profiles" else "lexicon"
        code = main(["tables", "--records", str(paths["alerts"]), "--kind", kind,
                     f"--{vocabulary}", str(paths[vocabulary]), "-o", str(tmp / "t.csv")])
    assert code in (0, 1)


def test_search_query_pages(toy_corpus_file, capsys):
    assert main(["search", "computational AND network",
                 "--records", str(toy_corpus_file)]) == 0
    out = capsys.readouterr().out
    assert "match(es); page 1" in out
    assert "Computational methods for network analysis" in out
    assert "Pottery of the bronze age" not in out


def test_search_field_constraint(toy_corpus_file, capsys):
    assert main(["search", "author:arabie", "--records", str(toy_corpus_file)]) == 0
    out = capsys.readouterr().out
    assert "1 match(es)" in out


def test_search_mlt(toy_corpus_file, capsys):
    assert main(["search", "--records", str(toy_corpus_file), "--mlt", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("id: ") == 3
    assert "id: 0\n" not in out


def test_search_bad_query_is_usage_error(toy_corpus_file, capsys):
    assert main(["search", "venue:nature", "--records", str(toy_corpus_file)]) == 2
    assert "usage" in capsys.readouterr().err


def test_search_without_query_is_usage_error(toy_corpus_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["search", "--records", str(toy_corpus_file)])
    assert err.value.code == 2
    assert "one of the arguments QUERY --mlt --interactive is required" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["network", "--mlt", "1"], "argument --mlt: not allowed with argument QUERY"),
    (["network", "--interactive"], "argument --interactive: not allowed with argument QUERY"),
    (["--mlt", "1", "--interactive"], "argument --interactive: not allowed with argument --mlt"),
    (["--interactive", "--page", "3"], "--page applies only to a QUERY, not to --interactive"),
    (["--mlt", "1", "--page", "3"], "--page applies only to a QUERY, not to --mlt"),
], ids=["query-mlt", "query-interactive", "mlt-interactive", "interactive-page", "mlt-page"])
def test_search_flags_of_two_modes_are_usage_error(flags, named, toy_corpus_file, capsys,
                                                   monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("network\nq\n"))
    argv = ["search", *flags, "--records", str(toy_corpus_file)]
    if "not allowed with argument" in named:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert named in err
    assert out == ""


def test_search_help_shows_the_one_of_three_rule_and_every_option(capsys):
    with pytest.raises(SystemExit) as err:
        main(["search", "--help"])
    assert err.value.code == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert "(QUERY | --mlt ID | --interactive)" in usage
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    named = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", usage))
    options = [action.option_strings for action in commands["search"]._actions
               if action.option_strings]
    assert [o for o in options if not named & set(o)] == []
    assert named <= {o for strings in options for o in strings}


def test_search_query_page_still_pages(toy_corpus_file, capsys):
    assert main(["search", "network", "--records", str(toy_corpus_file), "--page", "2"]) == 0
    assert "page 2" in capsys.readouterr().out


def test_search_query_pages_are_the_library_pages(tmp_path, capsys):
    # the CLI slices its own page; its ids must be those search.search gives
    text = "".join(f"T   {'shared ' * (i % 3 + 1)}record {i}\nU   J THINGS 1999\nW.  X Y 99\n\n"
                   for i in range(25))
    path = _write(tmp_path / "shared.txt", text)
    index = search.build_index(records.parse_records(text))
    query = search.parse_query("shared")
    total = len(search.ranked_matches(index, query))
    for page in (1, 2, 3, 4):
        assert main(["search", "shared", "--records", str(path), "--page", str(page)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{total} match(es); page {page} (")
        ids = [int(i) for i in re.findall(r"^id: (\d+)$", out, re.M)]
        assert ids == search.search(index, query, page)
    assert total == 25 and ids == []


def test_search_interactive_loop(toy_corpus_file, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("network\nq\n"))
    assert main(["search", "--records", str(toy_corpus_file), "--interactive"]) == 0
    assert "match(es)" in capsys.readouterr().out


def test_search_interactive_skips_blank_lines(toy_corpus_file, capsys, monkeypatch):
    # only EOF or 'q' ends the session, as --help says
    monkeypatch.setattr("sys.stdin", io.StringIO("network\n\n \t\nclustering\nq\nnetwork\n"))
    assert main(["search", "--records", str(toy_corpus_file), "--interactive"]) == 0
    out, err = capsys.readouterr()
    assert out.count(" match(es); ") == 2
    assert err == ""


@pytest.mark.parametrize("stream", ["stdin", "stdout"])
def test_search_interactive_undecodable_stream_exits_1(stream, tmp_path, capsys, monkeypatch):
    alerts = _write(tmp_path / "alerts.txt", "T   Caf\u00e9 society\nU   J X 1999\nW.  X Y 99\n")
    query = b"\xff\n" if stream == "stdin" else b"caf\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(query), encoding="utf-8"))
    if stream == "stdout":
        monkeypatch.setattr("sys.stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    assert main(["search", "--records", str(alerts), "--interactive"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bibcarto: error: ")
    assert "Traceback" not in err
    if stream == "stdin":
        assert err == "bibcarto: error: <stdin>:1: not UTF-8: byte 0xff\n"
    else:
        assert err == "bibcarto: error: <stdout>: cannot encode U+00E9 as ascii\n"


# Python sets a standard stream whose descriptor was closed at start to None.
CLOSED_STREAM_RUNS = {
    "search-interactive": ("stdin", ["search", "--interactive", "--records", "{alerts}"]),
    "search-query": ("stdout", ["search", "network", "--records", "{alerts}"]),
    "search-mlt": ("stdout", ["search", "--mlt", "0", "--records", "{alerts}"]),
    "parse": ("stdout", ["parse", "{alerts}"]),
    "tables-records": ("stdout", ["tables", "--records", "{alerts}"]),
    "tables-fixture": ("stdout", ["tables", "--fixture", "Table2"]),
}


@pytest.mark.parametrize("stream, argv", CLOSED_STREAM_RUNS.values(),
                         ids=CLOSED_STREAM_RUNS.keys())
def test_a_stream_closed_at_start_is_a_data_error(stream, argv, toy_corpus_file, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(sys, stream, None)
    assert main([arg.format(alerts=toy_corpus_file) for arg in argv]) == 1
    assert capsys.readouterr().err == f"bibcarto: error: <{stream}>: Bad file descriptor\n"


@pytest.mark.parametrize("command", [["parse"], ["tables", "--records"]], ids=["parse", "tables"])
def test_an_output_file_needs_no_stdout(command, toy_corpus_file, tmp_path, capsys, monkeypatch):
    expected = tmp_path / "expected"
    assert main([*command, str(toy_corpus_file), "-o", str(expected)]) == 0
    monkeypatch.setattr(sys, "stdout", None)
    out = tmp_path / "out"
    assert main([*command, str(toy_corpus_file), "-o", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert "error" not in capsys.readouterr().err


STDIN_ENDS = {b"\n": "", b"\r": "-CR", b"\r\n": "-CRLF"}
# id -> (standard input, the line of its bad byte). 3,000 lines of five or
# six bytes put the bad byte past the stream's first 8,192-byte read, which
# ends inside a line; 2,048 lines of four bytes end that read at a line end.
BAD_STDIN = {f"{n}{name}": ((b"zzzz" + end) * n + b"ok \xfe" + end, n + 1)
             for end, name in STDIN_ENDS.items() for n in (2, 3000)}
BAD_STDIN["2048-CR-at-the-read-end"] = (b"zzz\r" * 2048 + b"ok \xfe\r", 2049)


@pytest.mark.parametrize("data, line", BAD_STDIN.values(), ids=BAD_STDIN)
def test_search_interactive_names_the_undecodable_stdin_line(data, line, toy_corpus_file,
                                                             capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert main(["search", "--records", str(toy_corpus_file), "--interactive"]) == 1
    out, err = capsys.readouterr()
    assert err == f"bibcarto: error: <stdin>:{line}: not UTF-8: byte 0xfe\n"
    # the queries on the lines before the bad byte are answered first
    assert out.count(" match(es); ") == line - 1


def test_search_interactive_reads_a_stdin_already_read_from(toy_corpus_file, capsys,
                                                             monkeypatch):
    # a stream that has decoded text keeps its handler; a second session
    # after a 'q' reads on from where the first stopped
    stdin = io.TextIOWrapper(io.BytesIO(b"skipped\nnetwork\nq\ncluster\n"), encoding="utf-8")
    assert stdin.readline() == "skipped\n"
    monkeypatch.setattr("sys.stdin", stdin)
    argv = ["search", "--records", str(toy_corpus_file), "--interactive"]
    assert main(argv) == 0
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count(" match(es); ") == 2


def test_search_interactive_reports_a_bad_byte_on_a_stdin_already_read_from(
        toy_corpus_file, capsys, monkeypatch):
    # the strict handler cannot be swapped once text is decoded, so the
    # error names no line, but it is still an error and not a traceback
    stdin = io.TextIOWrapper(io.BytesIO(b"skipped\n" + b"z\n" * 5000 + b"ok \xfe\n"),
                             encoding="utf-8")
    assert stdin.readline() == "skipped\n"
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["search", "--records", str(toy_corpus_file), "--interactive"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bibcarto: error: 'utf-8' codec can't decode byte 0xfe")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["parse", "tables", "search"])
def test_commands_parse_alerts_through_the_module_attribute(command, toy_corpus_file,
                                                            monkeypatch, capsys):
    # perfbench's --trace 1 wraps records.parse_records
    real = records.parse_records
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(records, "parse_records", spy)
    argv = {"parse": ["parse", str(toy_corpus_file)],
            "tables": ["tables", "--records", str(toy_corpus_file)],
            "search": ["search", "network", "--records", str(toy_corpus_file)]}[command]
    assert main(argv) == 0
    assert calls == [toy_corpus_file.read_text(encoding="utf-8")]


@pytest.mark.parametrize("name", ["build_index", "ranked_matches", "more_like_this"])
def test_search_command_calls_search_functions_as_module_attributes(name, toy_corpus_file,
                                                                    monkeypatch, capsys):
    # perfbench's --trace 1 wraps these attributes of bibcarto.search; a
    # name bound elsewhere by `from .search import ...` would escape it
    real = getattr(search, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(search, name, spy)
    mode = ["--mlt", "0"] if name == "more_like_this" else ["network"]
    argv = ["search", *mode, "--records", str(toy_corpus_file)]
    assert main(argv) == 0
    assert calls == [name]


def test_perfbench_tracer_wraps_and_restores_the_package(tmp_path, monkeypatch, cpus):
    # --trace 1 wraps functions by name and counts through their results, so a
    # renamed function or a dropped `len(index.postings)` breaks it here first.
    # It sees only this process: tables must read its files here.
    cpus(1)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    owners = [cli, records, corpus, corpus.ContingencyTable, ca, ward, search]
    before = [dict(vars(owner)) for owner in owners]
    # tables tallies each file, then adds the tallies up in build_table
    paths = [_write(tmp_path / "a.txt", RESEARCH_ALERT_SAMPLE + "\n"
                    "T   Neural network training\nK   computational biology\nU   J THINGS\n"),
             _write(tmp_path / "b.txt", PERSONAL_ALERT_SAMPLE)]
    table, _, skipped = cli.run_tables(list(map(str, paths)), "disciplines", RunConfig())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["tables", "--records", *map(str, paths), "-o", str(tmp_path / "t.csv")]) == 0
        tabulated = {key: tracer.counts[key]
                     for key in ("records.records_out", "corpus.incidences", "corpus.skipped")}
        assert main(["analyze", "--fixture", "Table2", "--outdir", str(tmp_path)]) == 0
        search.build_index(records.parse_records(RESEARCH_ALERT_SAMPLE)
                           + records.parse_records(PERSONAL_ALERT_SAMPLE))
    finally:
        tracer.uninstall()
    assert tabulated == {"records.records_out": 3, "corpus.incidences": table.n,
                         "corpus.skipped": skipped}
    assert skipped == 1 and table.n > 0
    assert all(tracer.counts[key] > 0 for key in ("ca.axes", "ward.points", "search.terms"))
    for owner, attrs in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in attrs.items()), owner
