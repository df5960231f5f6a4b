"""Memoisation of constant graph work keyed by graph revision.

Building a propagation operator — GCN symmetric normalisation, left
normalisation, GraphSAGE neighbourhood means — costs O(m) on CSR (plus an
O(N²) scan to convert a dense adjacency), and the training loop rebuilds it on *every* forward pass:
each vanilla epoch, each PPFR fine-tune step, each per-epoch evaluation.
This module adds a dynamically-scoped cache in front of that constant work.
It holds three kinds of entry:

* propagation operators (:func:`repro.sparse.backend.build_propagation`),
  keyed by ``(revision, kind)``;
* neighbour lists of a dense adjacency — its CSR structure, which
  GraphSAGE's training-mode sampler draws from — keyed by
  ``(revision, "neighbors")``;
* an operator applied to a feature matrix — GraphSAGE's input-layer
  neighbourhood mean outside sampled training — keyed by
  ``(revision, features_revision, kind)``.

Soundness rests on the revisions:

* ``revision`` comes from the graph revision registry
  (:mod:`repro.graphs.revision`) — an array without a revision tag is
  *never* cached, and any mutation bumps the revision, so a stale
  normalisation cannot be served;
* ``features_revision`` is the tag :class:`repro.graphs.Graph` puts on its
  feature matrix; untagged features (a caller's perturbed copy, say) are
  never cached;
* the active cache is a :class:`contextvars.ContextVar`, mirroring the
  autodiff mode flag, so parallel grid executors can scope caches per cell
  without interference;
* storage is a small thread-safe LRU, so the cache bounds its footprint
  instead of growing with the experiment grid.

Every entry is built deterministically from its tagged inputs, so enabling
the cache changes wall-clock only, never results (the equivalence is
asserted by the executor-determinism and cache-soundness tests).
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

__all__ = [
    "OperatorCacheStats",
    "OperatorCache",
    "active_operator_cache",
    "cached_build",
    "use_operator_cache",
]

DEFAULT_MAXSIZE = 32
"""Default LRU capacity (operators, not bytes)."""

CacheKey = Tuple
"""The revisions of an entry's tagged inputs, then what it was built as."""


@dataclass(frozen=True)
class OperatorCacheStats:
    """Hit/miss counters of an :class:`OperatorCache` — a thin frozen view
    over the cache's registry counters (:mod:`repro.obs.metrics`)."""

    hits: int
    misses: int
    size: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class OperatorCache:
    """Thread-safe LRU of constant graph work keyed by graph revision."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[CacheKey, object]" = OrderedDict()
        self._lock = threading.Lock()
        from repro.obs.metrics import active_metrics, next_instance

        metrics = active_metrics()
        labels = {"component": "operator_cache", "instance": next_instance()}
        self._hits = metrics.counter("cache.operator.hits", **labels)
        self._misses = metrics.counter("cache.operator.misses", **labels)
        self._evictions = metrics.counter("cache.operator.evictions", **labels)

    def get_or_build(self, key: CacheKey, builder: Callable[[], object]) -> object:
        """Return the cached operator for ``key``, building it on a miss.

        A concurrent miss on the same key may build twice; both builds are
        deterministic and identical, and the last one wins — cheaper than a
        per-key lock for operators that take milliseconds to build.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits.inc()
                return self._entries[key]
        value = builder()
        with self._lock:
            self._misses.inc()
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions.inc()
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> OperatorCacheStats:
        with self._lock:
            return OperatorCacheStats(
                hits=self._hits.value,
                misses=self._misses.value,
                size=len(self._entries),
                evictions=self._evictions.value,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_ACTIVE_CACHE: contextvars.ContextVar[Optional[OperatorCache]] = contextvars.ContextVar(
    "repro_operator_cache", default=None
)


def active_operator_cache() -> Optional[OperatorCache]:
    """The operator cache of the current context (``None`` = caching off)."""
    return _ACTIVE_CACHE.get()


@contextlib.contextmanager
def use_operator_cache(cache: Optional[OperatorCache]) -> Iterator[Optional[OperatorCache]]:
    """Scope ``cache`` as the active operator cache (``None`` disables).

    Passing an existing cache shares it; revision keys are process-unique so
    cells running in parallel threads can share one cache safely.
    """
    token = _ACTIVE_CACHE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE_CACHE.reset(token)


def cached_build(tagged: Sequence[object], key: Tuple, builder: Callable[[], object]) -> object:
    """``builder()``, memoised in the active cache.

    The entry is keyed by the revisions of the ``tagged`` inputs followed by
    ``key``.  It is built fresh, and not stored, when no cache is active or
    when any of ``tagged`` carries no revision tag.
    """
    cache = _ACTIVE_CACHE.get()
    if cache is None:
        return builder()
    from repro.graphs.revision import adjacency_revision

    revisions = tuple(adjacency_revision(obj) for obj in tagged)
    if None in revisions:
        return builder()
    return cache.get_or_build(revisions + tuple(key), builder)
