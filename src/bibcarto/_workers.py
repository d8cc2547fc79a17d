"""``map_files`` runs a per-file step over files, in forked worker
processes when the input is large enough to pay for them. ``tables
--records`` imports it on its first call, so ``import bibcarto.cli``
compiles none of it. Only the standard library is imported, and
``multiprocessing`` only when a pool starts.
"""
from __future__ import annotations

import os
import sys

# The input, in bytes, that each worker process of a pool must have to read
# for the pool to pay for itself. Starting one (its imports, the forks, the
# shutdown) costs about 35 ms, which two workers won back only from about
# 2 MB of alert files up, on a 2-CPU host.
BYTES_PER_WORKER = 1 << 20


def map_files(step, paths: list[str]) -> list:
    """``step`` of each path, in order. When min(files, usable CPUs, MiB of
    input) is two or more, that many worker processes forked from this one
    share the files; they inherit ``step`` and send back only its results.
    Otherwise the files are stepped through here, one at a time. The first
    path whose step raises, in order, has its exception raised here; a
    worker that dies, or a result that cannot be unpickled, raises
    ChildProcessError (an OSError) from the pool's BrokenProcessPool. No
    worker outlives the call."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without the call
        cpus = 1
    workers = min(len(paths), cpus, sum(map(_size, paths)) // BYTES_PER_WORKER)
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # a worker that exits flushes the streams it inherited, so none may hold text
            sys.stdout.flush()
            sys.stderr.flush()
            # a worker that dies, or a result that cannot be unpickled, raises
            # BrokenProcessPool here rather than leaving a result to wait for
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_set_step, initargs=(step,))
            try:
                return list(pool.map(_call_step, paths))
            except BrokenProcessPool as exc:  # an OSError, which the command line reports
                raise ChildProcessError(f"worker pool broke: {exc}") from exc
            finally:
                pool.shutdown(cancel_futures=True)
    return list(map(step, paths))


def _size(path) -> int:
    """The size of the file at ``path``, or 0 if it cannot be read, which
    the step that reads it reports."""
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


_step = None  # in a pool worker, the step that _set_step gave it


def _set_step(step) -> None:
    global _step
    _step = step


def _call_step(path):
    return _step(path)
