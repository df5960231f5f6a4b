"""Online inference engine: sampled k-hop prediction with a logit cache.

The engine answers per-node prediction requests against a
:class:`~repro.serve.session.GraphSession`:

* misses are computed through the shared ego-block path
  (:mod:`repro.gnn.inference`): one block stack per miss batch, cost bounded
  by ``O(|batch| · Π fanouts)`` (or the exact receptive field when
  exhaustive) instead of Θ(N + m) per request;
* hits are served from a revision-keyed LRU **logit cache** — an entry is
  valid only for the structure revision it was computed under, so a stale
  prediction can never be returned;
* on a session mutation the engine computes the **k-hop dirty set** of the
  touched endpoints with the shared frontier kernels
  (:func:`repro.graphs.khop.khop_frontier`, over both the old and the new
  structure — edge removals invalidate through paths that no longer exist)
  and drops exactly those entries; every other entry is revalidated to the
  new revision, which is what keeps the warm hit-rate high under a stream of
  localised updates.

Sampled serving uses the keyed per-destination sampler with
``key = (seed, session.version)``: a node's sampled prediction is a pure
function of the node, the mutation history and the engine seed — identical
across request batchings, thread interleavings and processes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.gnn.inference import resolve_fanouts
from repro.gnn.models import GNNModel
from repro.gnn.plan import (
    BufferPool,
    PlanCache,
    PlanUnsupported,
    pack_blocks,
    plan_params_hash,
    record_plan,
    shared_plan_cache,
)
from repro.gnn.sampling import NeighborSampler
from repro.graphs.khop import khop_frontier
from repro.obs.metrics import active_metrics, next_instance
from repro.obs.trace import span as obs_span
from repro.serve.session import GraphSession, MutationEvent
from repro.utils.cache import stable_hash

__all__ = [
    "ServeConfig",
    "LogitCacheStats",
    "LogitCache",
    "InferenceEngine",
    "softmax_rows",
]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise shifted softmax — the one posterior kernel every serving
    front-end (engine, shard router) shares."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)

DEFAULT_FALLBACK_HOPS = 2
"""Dirty-set radius for models without a declared sampled depth (GAT)."""


@dataclass(frozen=True)
class ServeConfig:
    """Behaviour of one :class:`InferenceEngine`.

    ``fanouts=None`` (default) serves *exhaustively* — exact logits, equal to
    the offline full-graph forward to 1e-8.  Integer per-layer fanouts bound
    each request's receptive field for approximate low-latency serving.
    ``seed`` keys the deterministic sampler; ``cache_size`` bounds the logit
    LRU (``cache=False`` disables caching entirely).

    ``plan=True`` serves miss batches by replaying a recorded fused
    :class:`~repro.gnn.plan.InferencePlan` (falling back transparently for
    models without one).
    """

    fanouts: Optional[Tuple[Optional[int], ...]] = None
    seed: int = 0
    cache: bool = True
    cache_size: int = 65536
    plan: bool = True

    def __post_init__(self) -> None:
        if self.cache_size <= 0:
            raise ValueError("cache_size must be positive")
        if self.fanouts is not None:
            object.__setattr__(self, "fanouts", tuple(self.fanouts))
            for fanout in self.fanouts:
                if fanout is not None and fanout <= 0:
                    raise ValueError("fanouts must be positive or None (exhaustive)")


@dataclass(frozen=True)
class LogitCacheStats:
    """Counters of a :class:`LogitCache`, plus the owning engine's
    fused-plan counters (zero when the engine serves unfused).

    ``plans_recorded`` counts fresh plan recordings (cache-key misses),
    ``plan_replays`` miss batches served by replaying an already-recorded
    plan, ``plan_fallbacks`` miss batches that fell back to the unfused
    module-tree forward.
    """

    hits: int
    misses: int
    invalidated: int
    size: int
    plans_recorded: int = 0
    plan_replays: int = 0
    plan_fallbacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LogitCache:
    """Thread-safe revision-keyed LRU of per-node logit rows.

    Entries are ``node → (revision, row)``; a lookup under a different
    revision is a miss (the row was computed over different structure).
    :meth:`invalidate` drops the dirty nodes and *revalidates* every
    surviving entry to the new revision — sound because the caller derived
    the dirty set as the complete set of nodes whose receptive field saw the
    mutation.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[int, Tuple[int, np.ndarray]]" = OrderedDict()
        self._lock = threading.Lock()
        # Counters live in the shared metrics registry (one label set per
        # cache); the LogitCacheStats dataclass is a thin view over them.
        metrics = active_metrics()
        labels = {"component": "logit_cache", "instance": next_instance()}
        self._hits = metrics.counter("serve.logit_cache.hits", **labels)
        self._misses = metrics.counter("serve.logit_cache.misses", **labels)
        self._invalidated = metrics.counter("serve.logit_cache.invalidated", **labels)

    def lookup(
        self, nodes: Iterable[int], revision: int
    ) -> Tuple[Dict[int, np.ndarray], List[int]]:
        """Split ``nodes`` into cached rows and misses, under ``revision``."""
        found: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        with self._lock:
            for node in nodes:
                entry = self._entries.get(node)
                if entry is not None and entry[0] == revision:
                    self._entries.move_to_end(node)
                    found[node] = entry[1]
                else:
                    missing.append(node)
        # One registry increment per batch, not per node: the warm path
        # stays O(1) lock acquisitions per lookup.
        if found:
            self._hits.inc(len(found))
        if missing:
            self._misses.inc(len(missing))
        return found, missing

    def store(self, nodes: Sequence[int], revision: int, rows: np.ndarray) -> None:
        with self._lock:
            for node, row in zip(nodes, rows):
                self._entries[int(node)] = (revision, row)
                self._entries.move_to_end(int(node))
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def invalidate(
        self,
        dirty_nodes: np.ndarray,
        new_revision: int,
        expected_revision: Optional[int] = None,
    ) -> int:
        """Drop dirty entries, revalidate the rest; returns the drop count.

        ``expected_revision`` is the pre-mutation revision: entries stored
        under any *other* revision are dropped instead of revalidated.  Such
        entries exist only through the store/mutate race (a miss computed
        over the old structure landing after the mutation's invalidation
        ran); revalidating them would resurrect a stale row one mutation
        later.
        """
        dirty = set(int(node) for node in np.asarray(dirty_nodes).reshape(-1))
        dropped = 0
        with self._lock:
            for node in list(self._entries):
                revision, row = self._entries[node]
                stale = (
                    expected_revision is not None and revision != expected_revision
                )
                if node in dirty or stale:
                    del self._entries[node]
                    dropped += 1
                else:
                    self._entries[node] = (new_revision, row)
        if dropped:
            self._invalidated.inc(dropped)
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> LogitCacheStats:
        with self._lock:
            return LogitCacheStats(
                hits=self._hits.value,
                misses=self._misses.value,
                invalidated=self._invalidated.value,
                size=len(self._entries),
            )


class InferenceEngine:
    """Serves single-node and batched predictions over a graph session."""

    def __init__(
        self,
        model: GNNModel,
        session: GraphSession,
        config: Optional[ServeConfig] = None,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.model = model
        self.session = session
        self.config = config or ServeConfig()
        self._layers = model.message_passing_layers
        if self._layers is not None:
            self._fanouts = resolve_fanouts(model, self.config.fanouts)
        else:
            # No sampled path (GAT): misses fall back to one full-graph
            # forward per miss batch; the cache still applies.
            if self.config.fanouts is not None:
                raise ValueError(
                    f"{type(model).__name__} has no sampled forward path; "
                    "fanouts are not supported"
                )
            self._fanouts = None
        self._cache = LogitCache(self.config.cache_size) if self.config.cache else None
        # The structure a miss computes over: revision, sampling key and
        # sampler, swapped together by _on_mutation so a miss that races a
        # mutation samples one version under that version's key and caches
        # its rows under that version's revision.
        self._lock = threading.Lock()
        self._view: Tuple[int, int, Optional[NeighborSampler]] = (
            session.revision,
            self._sampling_key(session.version),
            self._build_sampler(),
        )
        # Fused-plan replay state.  The plan cache is shared across engines
        # (and shard replicas in one process) by default; the buffer pool is
        # per-engine and guarded, with the rest of the plan state, by its own
        # lock so replays never race on scratch memory.
        self._plan_cache = plan_cache if plan_cache is not None else shared_plan_cache()
        self._plan_lock = threading.Lock()
        self._buffers = BufferPool()
        self._plan_unsupported = False
        self._params_ids: Optional[Tuple[int, ...]] = None
        self._params_hash: Optional[str] = None
        self._sig_hash: Optional[str] = None
        metrics = active_metrics()
        labels = {"component": "engine", "instance": next_instance()}
        self._plans_recorded = metrics.counter("serve.plan.recorded", **labels)
        self._plan_replays = metrics.counter("serve.plan.replays", **labels)
        self._plan_fallbacks = metrics.counter("serve.plan.fallbacks", **labels)
        # Revision-keyed memo of the GAT full-graph fallback forward, so a
        # batcher flush split into several miss batches still pays exactly
        # one Θ(N²) forward per structure revision.
        self._full_memo: Optional[Tuple[int, np.ndarray]] = None
        session.add_listener(self._on_mutation)

    # ------------------------------------------------------------------ #
    # Prediction API
    # ------------------------------------------------------------------ #
    def predict_logits(self, nodes) -> np.ndarray:
        """Logit rows for ``nodes`` (scalar, sequence or array; order kept)."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if nodes.ndim != 1:
            raise ValueError("nodes must be a scalar or a 1-D index array")
        if nodes.size == 0:
            raise ValueError("nodes must be non-empty")
        if nodes.min() < 0 or nodes.max() >= self.session.num_nodes:
            raise ValueError("node index out of bounds")
        unique = np.unique(nodes)
        with self._lock:
            revision, key, sampler = self._view
        with obs_span("engine.predict") as engine_span:
            engine_span.set(nodes=int(nodes.size), unique=int(unique.size))
            with obs_span("engine.cache_lookup"):
                if self._cache is not None:
                    found, missing = self._cache.lookup(unique.tolist(), revision)
                else:
                    found, missing = {}, unique.tolist()
            if missing:
                with obs_span("engine.miss_coalesce") as miss_span:
                    miss_span.set(misses=len(missing))
                    miss_nodes = np.asarray(missing, dtype=np.int64)
                    if self._layers is None:
                        # Full-graph fallback (GAT): the forward produced
                        # every row anyway, so cache them all — one Θ(N²)
                        # forward amortises over the whole node set instead
                        # of one miss batch.
                        full = self._full_graph_logits(revision)
                        if self._cache is not None:
                            with obs_span("engine.cache_store"):
                                self._cache.store(
                                    range(full.shape[0]), revision, full
                                )
                        rows = full[miss_nodes]
                    else:
                        rows = self._compute(miss_nodes, sampler, key)
                        if self._cache is not None:
                            with obs_span("engine.cache_store"):
                                self._cache.store(missing, revision, rows)
                    for node, row in zip(missing, rows):
                        found[int(node)] = row
        return np.stack([found[int(node)] for node in nodes])

    def predict_proba(self, nodes) -> np.ndarray:
        """Softmax posteriors (the payload an online client receives)."""
        return softmax_rows(self.predict_logits(nodes))

    def predict_labels(self, nodes) -> np.ndarray:
        """Hard label predictions for ``nodes``."""
        return self.predict_logits(nodes).argmax(axis=1)

    @property
    def cache_stats(self) -> LogitCacheStats:
        """Logit-cache counters merged with the engine's plan counters.

        Always an object: with ``cache=False`` the cache fields are zero and
        only the plan counters are live.
        """
        base = (
            LogitCacheStats(hits=0, misses=0, invalidated=0, size=0)
            if self._cache is None
            else self._cache.stats
        )
        return replace(
            base,
            plans_recorded=self._plans_recorded.value,
            plan_replays=self._plan_replays.value,
            plan_fallbacks=self._plan_fallbacks.value,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _build_sampler(self) -> Optional[NeighborSampler]:
        if self._layers is None:
            return None
        return NeighborSampler(self.session.csr, seed=self.config.seed)

    def _sampling_key(self, version: int) -> int:
        # Deterministic across processes: the session version counts
        # mutations from zero, unlike process-global revision ids.
        return (self.config.seed << 20) ^ version

    def _full_graph_logits(self, revision: int) -> np.ndarray:
        """One full-graph fallback forward per structure revision, memoised
        so every miss batch of a flush (and every later cold call at the same
        revision) reuses it."""
        with self._plan_lock:
            memo = self._full_memo
            if memo is not None and memo[0] == revision:
                return memo[1]
        full = self.model.predict_logits(self.session.features, self.session.csr)
        with self._plan_lock:
            self._full_memo = (revision, full)
        return full

    def _plan_key(self) -> Tuple[str, str]:
        """``(architecture hash, parameter content hash)`` — the
        shared plan-cache key for this engine's model right now.

        The parameter hash is recomputed only when a parameter array is
        rebound (``load_state_dict`` copies into fresh arrays), detected via
        an ``id()`` snapshot — O(#params) per miss batch, content hashing
        only on actual hot-swaps.  Caller holds ``_plan_lock``.
        """
        params = self.model.named_parameters()
        ids = tuple(id(param.data) for _, param in params)
        if ids != self._params_ids:
            self._params_ids = ids
            self._params_hash = plan_params_hash(self.model)
            self._plan_unsupported = False
        if self._sig_hash is None:
            from repro.serve.registry import model_signature

            try:
                self._sig_hash = stable_hash(model_signature(self.model))
            except TypeError:
                # Unregistered architecture: fall back to a structural key.
                self._sig_hash = stable_hash(
                    [type(self.model).__name__]
                    + [
                        [name, list(param.data.shape)]
                        for name, param in params
                    ]
                )
        return (self._sig_hash, self._params_hash)

    def _compute(
        self, nodes: np.ndarray, sampler: NeighborSampler, key: int
    ) -> np.ndarray:
        """Logit rows of one miss batch: one ``ego_blocks`` call, then plan
        replay (recording and validating the plan on first use) or the
        unfused forward."""
        with obs_span("sample.ego_blocks") as sample_span:
            sample_span.set(nodes=int(nodes.size))
            blocks = sampler.ego_blocks(nodes, self._fanouts, key=key)
        plan = None
        fresh = False
        if self.config.plan:
            with self._plan_lock:
                if not self._plan_unsupported:
                    plan_key = self._plan_key()
                    plan = self._plan_cache.get(plan_key)
                    if plan is None:
                        try:
                            with obs_span("plan.record"):
                                plan = record_plan(self.model)
                            fresh = True
                        except PlanUnsupported:
                            self._plan_unsupported = True
            if plan is None:
                self._plan_fallbacks.inc()
        if plan is None:
            with obs_span("engine.unfused_forward"):
                return self.model.predict_logits_blocks(
                    self.session.features, blocks
                )

        packed = pack_blocks(blocks, plan.kinds)
        with self._plan_lock:
            rows = plan.replay(self.session.features, packed, self._buffers)
            if not fresh:
                self._plan_replays.inc()
                return rows
        # First use of a fresh recording: check it against the unfused
        # forward on this batch before caching it for replay.
        reference = self.model.predict_logits_blocks(self.session.features, blocks)
        if np.allclose(rows, reference, rtol=0.0, atol=1e-8):
            self._plan_cache.put(plan_key, plan)
            self._plans_recorded.inc()
            return rows
        with self._plan_lock:  # pragma: no cover - defensive guard
            self._plan_unsupported = True
            self._plan_fallbacks.inc()
        return reference

    def _on_mutation(self, event: MutationEvent) -> None:
        hops = self._layers if self._layers is not None else DEFAULT_FALLBACK_HOPS
        with self._lock:
            expected, _, sampler = self._view
            if sampler is not None:
                # Incremental retarget: splice only the touched rows' degrees
                # instead of rebuilding the O(m) degree vector.  The copying
                # variant keeps snapshot semantics — an in-flight _compute
                # holds a consistent pre-mutation sampler.
                sampler = sampler.with_mutation(event)
            self._view = (
                event.revision, self._sampling_key(event.version), sampler
            )
        with self._plan_lock:
            # The memoised full-graph fallback was computed over the old
            # structure; the revision key already prevents reuse, dropping it
            # just releases the memory promptly.
            self._full_memo = None
        if self._cache is None:
            return
        if event.endpoints.size == 0:
            self._cache.invalidate(
                np.empty(0, dtype=np.int64),
                event.revision,
                expected_revision=expected,
            )
            return
        # Receptive fields are L-hop balls; an edge (i, j) participates in
        # every prediction within L hops of either endpoint.  Removals must
        # be expanded over the *old* structure too — the invalidation path
        # may no longer exist in the new one.
        old_endpoints = event.endpoints[event.endpoints < event.old_csr.shape[0]]
        dirty_old = khop_frontier(event.old_csr, old_endpoints, hops)
        dirty_new = khop_frontier(event.new_csr, event.endpoints, hops)
        self._cache.invalidate(
            np.union1d(dirty_old, dirty_new),
            event.revision,
            expected_revision=expected,
        )
