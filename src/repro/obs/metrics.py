"""Process-wide metrics registry: counters, gauges, log-bucket histograms.

Every stats surface in the repo used to be an ad-hoc dataclass of ints
(``BatcherStats``, ``LogitCacheStats``, ``ClusterStats``, …) with no shared
way to snapshot, aggregate or export them.  This module is the one registry
they all hang off now:

* :class:`Counter` / :class:`Gauge` — thread-safe scalar metrics;
* :class:`Histogram` — streaming latency distributions over **fixed
  log-spaced buckets** with p50/p90/p99 quantile estimation by geometric
  interpolation inside the bracketing bucket (dependency-free, O(buckets)
  memory regardless of observation count);
* :class:`MetricsRegistry` — get-or-create metrics keyed by
  ``(name, labels)``; per-component instances disambiguate through an
  ``instance`` label so two engines in one process never share counters,
  while :meth:`MetricsRegistry.totals` re-aggregates by bare name for
  dashboards and CI assertions;
* **collectors** — read-only callbacks (e.g. the autodiff tape's hot-path
  ``GraphStats``, which must stay a lock-free slots object) contribute to
  snapshots without paying registry costs per increment.

The active registry is dynamically scoped through a
:class:`contextvars.ContextVar` — mirroring the operator cache scope —
and defaults to one process-global instance, so library code simply calls
:func:`active_metrics` at construction time.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import threading
from bisect import bisect_right
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_metrics",
    "global_metrics",
    "use_metrics",
    "register_collector",
    "merge_histogram_states",
    "next_instance",
]

_INSTANCE_IDS = itertools.count(1)


def next_instance() -> int:
    """Process-unique instance id for per-component metric labels."""
    return next(_INSTANCE_IDS)


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _qualified(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic thread-safe counter."""

    __slots__ = ("name", "labels", "_value", "_lock")
    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {_qualified(self.name, self.labels)}={self._value}>"


class Gauge:
    """Last-value-wins thread-safe gauge."""

    __slots__ = ("name", "labels", "_value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {_qualified(self.name, self.labels)}={self._value}>"


DEFAULT_LO = 1e-6
"""Smallest resolved histogram value (1 µs for latency histograms)."""

DEFAULT_HI = 60.0
"""Largest resolved histogram value (observations above land in overflow)."""

DEFAULT_PER_DECADE = 16
"""Buckets per decade: growth 10^(1/16) ≈ 1.155, so any quantile estimate
is within ~±16% of the true order statistic by construction."""


def log_bucket_bounds(lo: float, hi: float, per_decade: int) -> List[float]:
    """Upper bounds of log-spaced buckets covering ``[lo, hi]``."""
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_decade <= 0:
        raise ValueError("per_decade must be positive")
    count = int(math.ceil(math.log10(hi / lo) * per_decade)) + 1
    growth = 10.0 ** (1.0 / per_decade)
    return [lo * growth**i for i in range(count)]


class Histogram:
    """Streaming distribution over fixed log-spaced buckets.

    ``observe`` is O(log buckets) (one bisect under a lock); quantiles are
    estimated by locating the bracketing bucket from cumulative counts and
    interpolating **geometrically** between its edges (log-spaced buckets
    make geometric interpolation the unbiased choice).  Values below the
    first bound fall in a linearly-interpolated underflow bucket; values
    above the last bound report the tracked maximum.
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "lo",
        "hi",
        "per_decade",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        per_decade: int = DEFAULT_PER_DECADE,
    ) -> None:
        self.name = name
        self.labels = labels
        self.lo = float(lo)
        self.hi = float(hi)
        self.per_decade = int(per_decade)
        self.bounds = log_bucket_bounds(lo, hi, per_decade)
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_right(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) of the stream."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            lo_seen, hi_seen = self._min, self._max
        if total == 0:
            return 0.0
        rank = q * (total - 1)
        cumulative = 0
        for idx, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count > rank:
                frac = (rank - cumulative + 0.5) / bucket_count
                frac = min(max(frac, 0.0), 1.0)
                if idx == 0:
                    # Underflow bucket [0, bounds[0]): linear interpolation.
                    estimate = self.bounds[0] * frac
                elif idx == len(self.bounds):
                    # Overflow bucket: the max is the only honest answer.
                    estimate = hi_seen
                else:
                    low, high = self.bounds[idx - 1], self.bounds[idx]
                    estimate = low * (high / low) ** frac
                # Never report outside the observed range.
                return min(max(estimate, lo_seen), hi_seen)
            cumulative += bucket_count
        return hi_seen  # pragma: no cover - unreachable with count > 0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            lo_seen = self._min if self._count else 0.0
            hi_seen = self._max if self._count else 0.0
        populated = [
            [self.bounds[i] if i < len(self.bounds) else math.inf, c]
            for i, c in enumerate(counts)
            if c
        ]
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo_seen,
            "max": hi_seen,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": populated,
        }

    # ------------------------------------------------------------------ #
    # Serialisable state & cross-process merging
    # ------------------------------------------------------------------ #
    def state(self) -> Dict[str, object]:
        """Complete JSON-serialisable state: bucket config + sparse counts.

        Unlike :meth:`snapshot` (a human-facing summary), this carries the
        exact bucket indices so a receiving process can fold the
        distribution into its own histogram with :meth:`merge` — the wire
        format behind router-side cluster-wide p50/p99.
        """
        with self._lock:
            counts = [[i, c] for i, c in enumerate(self._counts) if c]
            return {
                "name": self.name,
                "lo": self.lo,
                "hi": self.hi,
                "per_decade": self.per_decade,
                "counts": counts,
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }

    @classmethod
    def from_state(
        cls, state: Dict[str, object], labels: Tuple[Tuple[str, str], ...] = ()
    ) -> "Histogram":
        """Reconstruct a histogram from :meth:`state` output."""
        hist = cls(
            str(state.get("name", "histogram")),
            labels,
            lo=float(state["lo"]),
            hi=float(state["hi"]),
            per_decade=int(state["per_decade"]),
        )
        hist.merge(state)
        return hist

    def merge(self, other: object) -> "Histogram":
        """Fold another histogram (or its :meth:`state` dict) into this one.

        Bucket configurations must match exactly — merging across different
        resolutions would silently corrupt quantiles, so it fails loudly.
        """
        state = other.state() if isinstance(other, Histogram) else dict(other)
        config = (
            float(state["lo"]),
            float(state["hi"]),
            int(state["per_decade"]),
        )
        if config != (self.lo, self.hi, self.per_decade):
            raise ValueError(
                f"histogram bucket mismatch: {config} != "
                f"{(self.lo, self.hi, self.per_decade)}"
            )
        count = int(state.get("count", 0))
        if not count:
            return self
        with self._lock:
            for idx, bucket_count in state.get("counts", []):
                idx = int(idx)
                if not 0 <= idx < len(self._counts):
                    raise ValueError(f"bucket index {idx} out of range")
                self._counts[idx] += int(bucket_count)
            self._count += count
            self._sum += float(state.get("sum", 0.0))
            other_min = state.get("min")
            other_max = state.get("max")
            if other_min is not None and float(other_min) < self._min:
                self._min = float(other_min)
            if other_max is not None and float(other_max) > self._max:
                self._max = float(other_max)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Histogram {_qualified(self.name, self.labels)} "
            f"n={self._count} p50={self.quantile(0.5):.3g}>"
        )


def merge_histogram_states(states: Iterable) -> Optional[Histogram]:
    """Merge histograms/state-dicts into one fresh :class:`Histogram`.

    Returns ``None`` for an empty input.  This is the router-side
    aggregation primitive: each shard ships ``Histogram.state()`` dicts in
    its stats snapshot and the cluster-wide distribution falls out here.
    """
    merged: Optional[Histogram] = None
    for state in states:
        if isinstance(state, Histogram):
            state = state.state()
        if merged is None:
            merged = Histogram.from_state(state)
        else:
            merged.merge(state)
    return merged


# ---------------------------------------------------------------------- #
# Collectors: read-only snapshot contributors (hot-path stats objects)
# ---------------------------------------------------------------------- #
_COLLECTORS: Dict[str, Callable[[], Dict[str, object]]] = {}
_COLLECTORS_LOCK = threading.Lock()


def register_collector(
    name: str, collect: Callable[[], Dict[str, object]], overwrite: bool = True
) -> None:
    """Register a callback contributing ``{key: value}`` to every snapshot.

    Collectors exist for stats that must stay off the registry's locks —
    e.g. the autodiff tape counters incremented once per recorded graph
    node.  Re-registering under the same name replaces the callback (module
    reloads in tests), unless ``overwrite=False``.
    """
    with _COLLECTORS_LOCK:
        if not overwrite and name in _COLLECTORS:
            raise ValueError(f"collector {name!r} is already registered")
        _COLLECTORS[name] = collect


def _collect_all() -> Dict[str, Dict[str, object]]:
    with _COLLECTORS_LOCK:
        items = list(_COLLECTORS.items())
    out: Dict[str, Dict[str, object]] = {}
    for name, collect in items:
        try:
            out[name] = dict(collect())
        except Exception as error:  # pragma: no cover - defensive snapshot
            out[name] = {"error": f"{type(error).__name__}: {error}"}
    return out


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
class MetricsRegistry:
    """Get-or-create store of metrics keyed by ``(name, labels)``."""

    def __init__(self, name: str = "metrics") -> None:
        self.name = name
        self._metrics: Dict[Tuple[str, str, Tuple[Tuple[str, str], ...]], object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, kind: str, name: str, labels: Dict, factory) -> object:
        key = (kind, name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, key[2])
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        per_decade: int = DEFAULT_PER_DECADE,
        **labels,
    ) -> Histogram:
        return self._get_or_create(
            "histogram",
            name,
            labels,
            lambda n, lb: Histogram(n, lb, lo=lo, hi=hi, per_decade=per_decade),
        )

    def metrics(self) -> List[object]:
        with self._lock:
            return list(self._metrics.values())

    def totals(self) -> Dict[str, float]:
        """Counters and gauges summed by bare name across label sets."""
        out: Dict[str, float] = {}
        for metric in self.metrics():
            if metric.kind in ("counter", "gauge"):
                out[metric.name] = out.get(metric.name, 0) + metric.value
        return out

    def snapshot(self) -> Dict[str, object]:
        """Structured JSON-serialisable snapshot of every metric."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, object]] = {}
        for metric in self.metrics():
            qualified = _qualified(metric.name, metric.labels)
            if metric.kind == "counter":
                counters[qualified] = metric.snapshot()
            elif metric.kind == "gauge":
                gauges[qualified] = metric.snapshot()
            else:
                histograms[qualified] = metric.snapshot()
        return {
            "registry": self.name,
            "totals": self.totals(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "collectors": _collect_all(),
        }


_GLOBAL = MetricsRegistry("global")

_ACTIVE: contextvars.ContextVar[Optional[MetricsRegistry]] = contextvars.ContextVar(
    "repro_metrics_registry", default=None
)


def global_metrics() -> MetricsRegistry:
    """The process-global default registry."""
    return _GLOBAL


def active_metrics() -> MetricsRegistry:
    """The registry of the current context (defaults to the global one)."""
    return _ACTIVE.get() or _GLOBAL


@contextlib.contextmanager
def use_metrics(registry: Optional[MetricsRegistry]) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the active metrics registry (``None`` = global).

    Mirrors :func:`repro.sparse.opcache.use_operator_cache`: dynamically scoped so
    parallel runners and tests can isolate their metrics without touching
    each other's counters.
    """
    token = _ACTIVE.set(registry)
    try:
        yield registry or _GLOBAL
    finally:
        _ACTIVE.reset(token)
