"""bibcarto benchmark.

    python3 perfbench/run.py --workload ingest|map|search|similar --seed N
                             --seconds S --trace 0|1

Run from the root of a bibcarto checkout. Writes the seeded inputs under
.perfbench/, times a fresh interpreter's ``import bibcarto.cli`` (set-up),
then measures the workload in one fresh child interpreter (worker.py)
with BLAS threads pinned to the CPUs this process may use. The last line
of standard output is one JSON object: correct, attempted, failed and
the metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``. ``--workload all`` runs every workload in turn and prints
a table of every metric instead.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("ingest", "map", "search", "similar")
INPUTS = {"ingest": "ingest", "map": "map", "search": "search", "similar": "search"}
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 150

UNITS = {"setup_s": "s", "ready_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BIBCARTO_CONFIG", None)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing bibcarto.cli; one
    untimed start first so bytecode caches exist. Not scaled: process start
    and imports do not track either pace kernel."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import bibcarto.cli"], env=env, check=True,
                       timeout=60)
        if i:
            times.append(perf_counter() - start)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    env = child_env()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    subprocess.run([sys.executable, str(HERE / "gen.py"), INPUTS[name], str(seed), str(inputs)],
                   env=env, check=True, timeout=120)
    setup = None if trace else measure_setup(env)
    result_path = work / "result.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), name, str(inputs), str(seconds),
                    "1" if trace else "0", str(result_path)],
                   env=env, check=True, timeout=WORKER_TIMEOUT_S)
    result = json.loads(result_path.read_text())
    if setup is not None:
        result["metrics"]["setup_s"] = setup
    return result


def report(result: dict, trace: bool) -> dict:
    units = UNITS if not trace else None
    metrics = {}
    for name, value in sorted(result["metrics"].items()):
        unit = units[name] if units else _layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_query", "_per_result")):
        return "ratio"
    if name == "records.bytes_in":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bibcarto" / "cli.py").is_file():
        print(f"perfbench: no bibcarto sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        out = report(result, bool(args.trace))
        print(f"# {name} environment: {json.dumps(result['environment'])}")
        print(f"# {name} detail: {json.dumps(result['detail'])}")
        if result["first_failure"]:
            print(f"# {name} first failure: {result['first_failure']}")
        rows.append((name, out))
    if args.workload != "all":
        print(json.dumps(rows[0][1]))
        return 0
    failed = sum(out["failed"] for _, out in rows)
    attempted = sum(out["attempted"] for _, out in rows)
    for name, out in rows:
        ratio = out["failed"] / out["attempted"]
        print(f"{name:8s} {'failed_ratio':24s} {ratio:14.6g} ratio  ({out['failed']}/{out['attempted']})")
        for metric, m in out["metrics"].items():
            print(f"{name:8s} {metric:24s} {m['value']:14.6g} {m['unit']}")
    return 0 if failed == 0 and attempted else 1


if __name__ == "__main__":
    sys.exit(main())
