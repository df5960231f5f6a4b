"""Measurement helpers: request logs, percentiles, memory and the host."""

from __future__ import annotations

import math
import os
import platform
import resource
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

TAIL_BEYOND = 10
"""Samples that must lie above a reported tail percentile."""

TAIL_CAP = 0.99
"""Highest tail percentile reported, so serving runs always report p99."""


def tail_quantile(count: int) -> float:
    """The highest quantile, at most :data:`TAIL_CAP`, that leaves at least
    :data:`TAIL_BEYOND` of ``count`` samples above it under nearest-rank
    selection; never below the median."""
    if count <= TAIL_BEYOND:
        return 0.5
    return max(0.5, min(TAIL_CAP, (count - TAIL_BEYOND) / count))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile; failed samples (``inf``) sort last."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(round(q * ordered.size, 9)))
    return float(ordered[rank - 1])


def summarize(values_ms: Sequence[float]) -> dict:
    """Median and tail of a latency sample, with the tail's quantile and the
    sample count."""
    count = len(values_ms)
    q = tail_quantile(count)
    return {
        "p50": percentile(values_ms, 0.5),
        "tail": percentile(values_ms, q),
        "tail_q": q,
        "count": count,
    }


def window_index(times: Sequence[float], windows: int) -> np.ndarray:
    """Which of ``windows`` equal parts of the span of ``times`` each time
    falls in."""
    times = np.asarray(times, dtype=np.float64)
    span = times.max() - times.min()
    if windows <= 1 or span <= 0:
        return np.zeros(times.size, dtype=np.int64)
    return np.minimum((times - times.min()) * windows // span, windows - 1).astype(np.int64)


def answered_at(future, done: float) -> float:
    """When a request was answered: ``done``, or ``inf`` if its future
    raised, so that it counts as failed and misses every latency limit."""
    return done if future.exception() is None else math.inf


class RequestLog:
    """Start and completion times of a run's requests."""

    def __init__(self) -> None:
        self._start: List[float] = []
        self._done: List[float] = []

    def record(self, start: float, done: float) -> None:
        """A request answered at ``done`` (``inf`` if it failed)."""
        self._start.append(start)
        self._done.append(done)

    @property
    def attempted(self) -> int:
        return len(self._start)

    def starts(self) -> np.ndarray:
        return np.asarray(self._start, dtype=np.float64)

    def latencies_ms(self) -> np.ndarray:
        done = np.asarray(self._done, dtype=np.float64)
        return (done - np.asarray(self._start, dtype=np.float64)) * 1e3

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(~np.isfinite(self.latencies_ms())))


def timed(build, repeats: int, seconds: float) -> Tuple[object, float]:
    """Run ``build`` at least ``repeats`` times and until ``seconds`` have
    passed; the last result and the median time of one call.

    ``build`` receives the result of its previous call (``None`` first) so
    that it can release it before setting up again.
    """
    times, result = [], None
    while len(times) < repeats or sum(times) < seconds:
        start = time.perf_counter()
        result = build(result)
        times.append(time.perf_counter() - start)
    return result, float(np.median(times))


def peak_rss_mb(workers: int = 0) -> float:
    """Peak resident memory of this process, plus ``workers`` times the
    largest peak among the children already waited for (Linux reports
    ``ru_maxrss`` in KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def git_revision(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (``None`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    """What a result depends on besides the code: cores, interpreter, NumPy,
    BLAS thread pins and the revision."""
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.endswith("_NUM_THREADS")
        },
        "git": git_revision(root),
        "platform": platform.platform(),
    }
