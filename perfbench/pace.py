"""Host speed reference for the benchmark's timings.

On a shared host the same code can run up to twice as slowly for tens of
seconds at a time, and the slowdown hits CPU time as much as wall time.
To compare two versions of the program run at different moments, every
operation time the worker reports is scaled to a fixed host speed: a
small, fixed pure-Python kernel is timed between operations, and an
operation's time is multiplied by the kernel's idle-host time over its
time around the operation. Each workload uses the kernel whose kind of
work responds to contention like its own: "dict" (probing a large dict,
building and sorting tuples) or "text" (matching, normalising and
splitting alert-like lines). The raw wall times are reported next to the
scaled ones.
"""
from __future__ import annotations

import bisect
import re
import statistics
from time import perf_counter

# A 16k-entry table probed out of order, so the kernel feels contention for
# the caches as well as for the core, like the large dicts of ward_hac and
# of the search index do.
_TABLE = {k: float(k) for k in range(1 << 14)}
_PROBES = [(i * 7919) % (1 << 14) for i in range(6000)]
_WORDS = " ".join(f"w{i % 97} X{i % 13}y t{i % 31}" for i in range(300))
# Alert-like lines for the kernel of text-bound workloads (parsing, matching).
_LINES = [f"T       Title w{i % 89} of X{i % 7}y {'Psychology' if i % 5 == 0 else 'grain'}  size {i}"
          for i in range(1200)]
_LINE_RE = re.compile(r"^(T|A|K|U|W\.|W)(\s|$)")


def dict_kernel() -> int:
    total = 0.0
    pairs = []
    for key in _PROBES:
        total += _TABLE[key]
        pairs.append((key, total))
    pairs.sort(key=lambda kv: -kv[1])
    counts: dict[str, int] = {}
    for token in _WORDS.lower().split():
        counts[token] = counts.get(token, 0) + 1
    return len(pairs) + len(counts)


def text_kernel() -> int:
    hits = 0
    for line in _LINES:
        if _LINE_RE.match(line):
            low = " ".join(line.split()).lower()
            hits += low.find("psych") >= 0
            hits += len(low.upper().split())
    return hits


# Kernel and its time on an idle host of the kind the baseline was taken on
# (Xeon at 2.0 GHz, CPython 3.11), so scaled times read close to wall times.
KERNELS = {"dict": (dict_kernel, 0.0015), "text": (text_kernel, 0.0015)}


class Pace:
    """Kernel timings taken along a run, to scale the operations between them."""

    interval_s = 0.5  # least time between two bursts of samples
    window_s = 1.0  # samples this close to an operation scale it
    repeat = 3  # samples per burst

    def __init__(self, kernel: str):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def time_kernel(self) -> float:
        """Fastest of two kernel runs, in seconds."""
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            self.kernel()
            best = min(best, perf_counter() - start)
        return best

    def sample(self) -> None:
        for _ in range(self.repeat):
            seconds = self.time_kernel()
            self.times.append(perf_counter())
            self.kernel_s.append(seconds)

    def tick(self) -> None:
        """Sample if the last sample is older than the interval."""
        if not self.times or perf_counter() - self.times[-1] >= self.interval_s:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The reference time over the median kernel time of the samples
        within the window around [start, end], always counting the last
        burst before ``start`` and the first one after ``end``."""
        lo = min(bisect.bisect_left(self.times, start - self.window_s),
                 max(bisect.bisect_right(self.times, start) - self.repeat, 0))
        hi = max(bisect.bisect_right(self.times, end + self.window_s),
                 min(bisect.bisect_left(self.times, end) + self.repeat, len(self.times)))
        return self.reference_s / statistics.median(self.kernel_s[lo:hi])
