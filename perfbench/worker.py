"""Measure one workload inside this interpreter.

    python3 perfbench/worker.py WORKLOAD INPUT_DIR SECONDS TRACE RESULT_JSON

run.py starts this in a fresh child interpreter after writing the inputs.
Each workload runs one untimed warm-up, times its ready phase a few
times, then runs a closed loop of operations (one client, the next
operation starts when the previous one returns) for SECONDS. Every
operation's output is checked; a raise or a failed check counts as a
failed operation. With TRACE=1 the loop instead alternates untraced and
traced passes and reports per-layer metrics from the traced ones.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from bibcarto import cli, corpus, records, search
from pace import Pace
from tracing import PER_LAYER, Tracer, TouchedList

_HEADER_RE = re.compile(r"^(\d+) match\(es\); page 1 ", re.M)
_ID_RE = re.compile(r"^id: (\d+)$", re.M)


class Outcomes:
    """Operations attempted and failed, with the first failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def record(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = why
                print(f"perfbench: failed operation: {why}", file=sys.stderr)


class Sink(io.TextIOBase):
    """Stands in for stdout; keeps what was written since the last take()."""

    def __init__(self):
        self.chunks: list[str] = []
        self.printed = 0

    def write(self, s: str) -> int:
        self.chunks.append(s)
        return len(s)

    def take(self) -> str:
        out = "".join(self.chunks)
        self.chunks.clear()
        self.printed += out.count("\nid: ") + out.startswith("id: ")
        return out


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _p50_p90(samples: list[float]) -> tuple[float, float]:
    if len(samples) == 1:
        return samples[0], samples[0]
    return statistics.median(samples), statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _per_op_medians(runs: list[tuple[int, float]]) -> list[float]:
    """Median latency of each distinct operation, from (index, seconds) runs."""
    by_op: dict[int, list[float]] = {}
    for i, seconds in runs:
        by_op.setdefault(i, []).append(seconds)
    return [statistics.median(v) for v in by_op.values()]


class Workload:
    """One workload: warm-up, ready phase, a cycle of distinct operations,
    traced pass."""

    ready_repeats = 7
    n_ops = 1
    kernel = "dict"

    def __init__(self, inputs: Path, manifest: dict, outcomes: Outcomes, tracer: Tracer, pace: Pace):
        self.inputs = inputs
        self.manifest = manifest
        self.outcomes = outcomes
        self.tracer = tracer
        self.pace = pace
        self.out = inputs / "out"
        self.out.mkdir(exist_ok=True)

    def warm_up(self) -> None:
        for i in range(self.n_ops):
            self.op(i)

    def ready(self) -> float:
        raise NotImplementedError

    def op(self, i: int) -> float:
        """Operation ``i``, checked; returns its latency in seconds."""
        raise NotImplementedError

    def loop(self, seconds: float) -> list[tuple[int, float, float, float]]:
        """Cycle through the operations for ``seconds``, sampling the host's
        pace between them; (index, start, end, latency) per operation run."""
        runs = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            self.pace.tick()
            i = len(runs) % self.n_ops
            t0 = perf_counter()
            latency = self.op(i)
            runs.append((i, t0, perf_counter(), latency))
        self.pace.sample()
        return runs

    def trace_pass(self) -> tuple[int, int]:
        """One pass of the traced script; returns (queries answered, records printed)."""
        for i in range(self.n_ops):
            self.tracer.op += 1
            self.op(i)
        return 0, 0


class Ingest(Workload):
    """``tables --kind profiles`` and ``tables --kind disciplines`` over 10 alert files."""

    n_ops = 2
    kernel = "text"
    KINDS = ("profiles", "disciplines")

    def __init__(self, *args):
        super().__init__(*args)
        self.files = [str(self.inputs / f) for f in self.manifest["files"]]
        lexicon = ["--lexicon", str(self.inputs / self.manifest["lexicon"])]
        self.argv = [
            ["tables", "--records", *self.files, "--kind", kind, *(lexicon if kind == "disciplines" else []),
             "-o", str(self.out / f"{kind}.csv")]
            for kind in self.KINDS
        ]

    def ready(self) -> float:
        start = perf_counter()
        for path in self.files:
            records.parse_records(Path(path).read_text(encoding="utf-8"))
        return perf_counter() - start

    def op(self, i: int) -> float:
        start = perf_counter()
        try:
            rc, _, err = _run_cli(self.argv[i])
        except Exception:
            rc, err = None, traceback.format_exc()
        elapsed = perf_counter() - start
        kind = self.KINDS[i]
        try:
            self.outcomes.record(*self._check(kind, rc, err))
        except (OSError, ValueError):
            self.outcomes.record(False, f"tables --kind {kind}: unreadable output: {traceback.format_exc()}")
        return elapsed

    def _check(self, kind: str, rc, err: str) -> tuple[bool, str]:
        if rc != 0:
            return False, f"tables --kind {kind} exited {rc}: {err.strip()[-500:]}"
        m = self.manifest
        for phrase, want in (("excluded", m["excluded"]), ("skipped", m["skipped"])):
            if f"{phrase} {want} record(s)" not in err:
                return False, f"tables --kind {kind}: expected '{phrase} {want}' in {err!r}"
        with open(self.out / f"{kind}.csv", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        got = {f"{label}|{y}": int(v)
               for label, *counts in rows for y, v in zip(header[1:], counts) if v != "0"}
        want = m[kind]
        if sum(got.values()) != sum(want.values()) or got != want:
            return False, (f"tables --kind {kind}: grand total {sum(got.values())}, "
                           f"planted {sum(want.values())}, cells equal: {got == want}")
        return True, ""


def newick_shape(text: str) -> tuple[int, int, float]:
    """(leaves, internal nodes, smallest branch length) of a Newick tree."""
    leaves = internal = 0
    shortest = math.inf
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "(":
            internal += 1
            i += 1
        elif c in ",);\n":
            i += 1
        elif c == ":":
            j = i + 1
            while j < n and text[j] not in ",);":
                j += 1
            shortest = min(shortest, float(text[i + 1:j]))
            i = j
        else:
            j = i + 1
            if c == "'":
                while j < n and not (text[j] == "'" and text[j + 1:j + 2] != "'"):
                    j += 2 if text[j:j + 2] == "''" else 1
                j += 1
            else:
                while j < n and text[j] not in ":,();":
                    j += 1
            leaves += 1
            i = j
    return leaves, internal, shortest


class Map(Workload):
    """``analyze --table T --supplementary-table S --k 5``."""

    ready_repeats = 60
    ARTIFACTS = ("coordinates.csv", "inertia.csv", "dendrogram.nwk", "partition.csv")

    def __init__(self, *args):
        super().__init__(*args)
        self.table = self.inputs / self.manifest["table"]
        self.sup = self.inputs / self.manifest["supplementary"]
        self.reference = None

    def _argv(self, outdir: Path) -> list[str]:
        return ["analyze", "--table", str(self.table), "--supplementary-table", str(self.sup),
                "--k", str(self.manifest["k"]), "--outdir", str(outdir)]

    def ready(self) -> float:
        start = perf_counter()
        for path in (self.table, self.sup):
            corpus.ContingencyTable.from_csv(path.read_text(encoding="utf-8"))
        return perf_counter() - start

    def warm_up(self) -> None:
        outdir = self.out / "warm"
        try:
            rc, _, err = _run_cli(self._argv(outdir))
        except Exception:
            rc, err = None, traceback.format_exc()
        if rc != 0:
            self.outcomes.record(False, f"analyze exited {rc}: {err.strip()[-500:]}")
            return
        try:
            self.reference = {name: (outdir / name).read_bytes() for name in self.ARTIFACTS}
            self.outcomes.record(*self._check_reference())
        except (OSError, ValueError, IndexError):
            self.reference = None
            self.outcomes.record(False, f"analyze artifacts unreadable: {traceback.format_exc()}")

    def _check_reference(self) -> tuple[bool, str]:
        m = self.manifest
        n, k = m["points"], m["k"]
        text = {name: data.decode("utf-8") for name, data in self.reference.items()}
        inertia = sum(float(row.split(",")[1]) for row in text["inertia.csv"].splitlines()[1:])
        if abs(inertia - m["total_inertia"]) > 1e-9:
            return False, f"total inertia {inertia!r} != chi2/N {m['total_inertia']!r}"
        leaves, internal, shortest = newick_shape(text["dendrogram.nwk"])
        if (leaves, internal) != (n, n - 1):
            return False, f"dendrogram has {leaves} leaves and {internal} merges for {n} points"
        if shortest < -1e-12:
            return False, f"merge heights decrease (branch length {shortest!r})"
        rows = [r.split(",") for r in text["partition.csv"].splitlines()[1:]]
        if len(rows) != n or {int(c) for _, c in rows} != set(range(1, k + 1)):
            return False, f"partition has {len(rows)} rows and clusters {sorted({c for _, c in rows})}"
        if len(text["coordinates.csv"].splitlines()) != n + 1:
            return False, "coordinates.csv does not have one row per point"
        return True, ""

    def op(self, i: int) -> float:
        outdir = self.out / "run"
        start = perf_counter()
        try:
            rc, _, err = _run_cli(self._argv(outdir))
        except Exception:
            rc, err = None, traceback.format_exc()
        elapsed = perf_counter() - start
        if rc != 0:
            self.outcomes.record(False, f"analyze exited {rc}: {err.strip()[-500:]}")
        elif self.reference is None:
            self.outcomes.record(False, "no warm-up artifacts to compare with")
        else:
            same = [name for name in self.ARTIFACTS
                    if (outdir / name).is_file() and (outdir / name).read_bytes() == self.reference[name]]
            self.outcomes.record(len(same) == len(self.ARTIFACTS),
                                 f"artifacts differ from the warm-up run: {set(self.ARTIFACTS) - set(same)}")
        return elapsed


class QueryLines:
    """Stands in for stdin in ``bibcarto search --interactive``.

    Hands out one query per read. A query's latency is the time from
    handing it out to the next read, which the CLI makes only after it
    has answered; the first read marks the index as ready. Reading stops
    after ``limit`` queries or ``seconds`` after the first read.
    """

    def __init__(self, queries: list[str], sink: Sink, limit: int | None, seconds: float,
                 tracer: Tracer, pace: Pace):
        self.queries = queries
        self.sink = sink
        self.limit = limit
        self.seconds = seconds
        self.tracer = tracer
        self.pace = pace
        self.runs: list[tuple[int, float, float, float]] = []
        self.outputs: list[str] = []
        self.first_read = None
        self._sent = None

    def __iter__(self):
        return self

    def __next__(self) -> str:
        now = perf_counter()
        if self._sent is not None:
            self.runs.append((len(self.runs) % len(self.queries), self._sent, now, now - self._sent))
            self.outputs.append(self.sink.take())
        else:
            self.first_read = now
        answered = len(self.runs)
        if answered == self.limit or now - self.first_read >= self.seconds:
            self._sent = None
            raise StopIteration
        self.tracer.op += 1
        self.pace.tick()
        self._sent = perf_counter()
        return self.queries[answered % len(self.queries)] + "\n"

    def readline(self) -> str:
        return next(self, "")


class Search(Workload):
    """One ``bibcarto search --records ... --interactive`` session answering queries."""

    def __init__(self, *args):
        super().__init__(*args)
        self.argv = ["search", "--records", *(str(self.inputs / f) for f in self.manifest["files"]),
                     "--interactive"]
        self.queries = self.manifest["queries"]
        self.n_ops = len(self.queries)

    def session(self, limit: int | None, seconds: float = math.inf) -> tuple[float, QueryLines, Sink]:
        """Runs one session; returns (ready seconds, lines, sink)."""
        sink = Sink()
        lines = QueryLines(self.queries, sink, limit, seconds, self.tracer, self.pace)
        saved = sys.stdin
        sys.stdin = lines
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(self.argv)
        except Exception:
            rc = traceback.format_exc()
        finally:
            sys.stdin = saved
        ready = (lines.first_read or perf_counter()) - start
        self.outcomes.record(rc == 0, f"search --interactive exited {rc}")
        self._check(lines)
        return ready, lines, sink

    def _check(self, lines: QueryLines) -> None:
        expected = self.manifest["expected"]
        for n, output in enumerate(lines.outputs):
            i = n % len(self.queries)
            header = _HEADER_RE.match(output)
            if header is None:
                self.outcomes.record(False, f"query {self.queries[i]!r}: no result header")
            elif i >= len(expected):
                self.outcomes.record(True)
            else:
                got = (int(header.group(1)), [int(x) for x in _ID_RE.findall(output)])
                want = (expected[i]["count"], expected[i]["page1"])
                self.outcomes.record(got == want, f"query {self.queries[i]!r}: got {got}, linear scan {want}")

    def warm_up(self) -> None:
        self.session(limit=20)

    def ready(self) -> float:
        return self.session(limit=0)[0]

    def loop(self, seconds: float) -> list[tuple[int, float, float, float]]:
        runs = self.session(limit=None, seconds=seconds)[1].runs
        self.pace.sample()
        return runs

    def trace_pass(self) -> tuple[int, int]:
        _, lines, sink = self.session(limit=200)
        return len(lines.runs), sink.printed


class Similar(Workload):
    """``search.more_like_this`` calls on an index built as ``bibcarto search`` builds it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.files = [str(self.inputs / f) for f in self.manifest["files"]]
        self.ids = self.manifest["mlt_ids"]
        self.n_ops = len(self.ids)
        self.index = None

    def ready(self) -> float:
        self.index = None
        gc.collect()
        start = perf_counter()
        recs = []
        for path in self.files:
            recs.extend(records.parse_records(Path(path).read_text(encoding="utf-8")))
        index = search.build_index(recs)
        elapsed = perf_counter() - start
        self.index = index
        return elapsed

    def warm_up(self) -> None:
        self.ready()
        for i in range(5):
            self.op(i)

    def op(self, i: int) -> float:
        doc_id = self.ids[i]
        start = perf_counter()
        try:
            similar = search.more_like_this(self.index, doc_id)
        except Exception:
            similar = traceback.format_exc()
        elapsed = perf_counter() - start
        ok = (isinstance(similar, list) and len(similar) == 3 and len(set(similar)) == 3
              and doc_id not in similar and all(0 <= i < self.index.doc_count for i in similar))
        self.outcomes.record(ok, f"more_like_this({doc_id}) returned {similar!r}")
        return elapsed

    def trace_pass(self) -> tuple[int, int]:
        self.tracer.op += 1
        self.ready()
        doc_terms = getattr(self.index, "_doc_terms", None)
        if isinstance(doc_terms, list):
            self.index._doc_terms = TouchedList(doc_terms)
        for i in range(40):
            self.tracer.op += 1
            self.op(i)
        if isinstance(doc_terms, list):
            self.index._doc_terms = doc_terms
        return 0, 0


WORKLOADS = {"ingest": Ingest, "map": Map, "search": Search, "similar": Similar}


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        pass
    pins = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": pins,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def measure(workload: Workload, seconds: float) -> dict:
    pace = workload.pace
    workload.warm_up()
    ready_raw = []
    spans = []
    for _ in range(workload.ready_repeats):
        pace.tick()
        t0 = perf_counter()
        ready_raw.append(workload.ready())
        spans.append((t0, perf_counter()))
    pace.sample()
    ready = [raw * pace.scale(*span) for raw, span in zip(ready_raw, spans)]
    gc.collect()
    runs = workload.loop(seconds)
    p50, p90 = _p50_p90(_per_op_medians([(i, lat * pace.scale(a, b)) for i, a, b, lat in runs]))
    raw_p50, raw_p90 = _p50_p90(_per_op_medians([(i, lat) for i, _, _, lat in runs]))
    return {
        "metrics": {
            "ready_s": statistics.median(ready),
            "op_p50_ms": 1000 * p50,
            "op_p90_ms": 1000 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "detail": {"ops_run": len(runs), "distinct_ops": len({r[0] for r in runs}),
                   "raw_ready_s": statistics.median(ready_raw),
                   "raw_op_p50_ms": 1000 * raw_p50, "raw_op_p90_ms": 1000 * raw_p90,
                   "kernel_ms_median": 1000 * statistics.median(pace.kernel_s)},
    }


def measure_traced(workload: Workload, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics are the
    medians over traced passes, overhead the difference of pass medians."""
    tracer, pace = workload.tracer, workload.pace
    workload.warm_up()
    plain, traced, layers = [], [], []

    def timed_pass():
        gc.collect()
        pace.sample()
        t0 = perf_counter()
        result = workload.trace_pass()
        t1 = perf_counter()
        pace.sample()
        scale = pace.scale(t0, t1)
        return result, (t1 - t0) * scale, scale

    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(timed_pass()[1])
        tracer.reset()
        tracer.install()
        try:
            (queries, printed), seconds_scaled, scale = timed_pass()
        finally:
            tracer.uninstall()
        traced.append(seconds_scaled)
        layer = tracer.layer_metrics(queries, printed)
        layers.append({k: v * scale if k.endswith("_s") else v for k, v in layer.items()})
    tracer.dump(spans_path)
    metrics = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER}
    metrics["trace.pass_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"metrics": metrics, "detail": {"passes": len(traced), "spans": len(tracer.spans)}}


def main(argv: list[str]) -> None:
    name, inputs, seconds, trace, result_path = argv
    inputs = Path(inputs)
    manifest = json.loads((inputs / "manifest.json").read_text())
    outcomes = Outcomes()
    cls = WORKLOADS[name]
    workload = cls(inputs, manifest, outcomes, Tracer(), Pace(cls.kernel))
    if trace == "1":
        result = measure_traced(workload, float(seconds), inputs / "spans.jsonl")
    else:
        result = measure(workload, float(seconds))
    result.update(attempted=outcomes.attempted, failed=outcomes.failed,
                  first_failure=outcomes.first_failure, environment=environment())
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
