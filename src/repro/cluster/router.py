"""Shard router: front-end that scales the inference engine across shards.

:class:`ShardRouter` is the cluster's single entry point.  It keeps the
*global* :class:`~repro.serve.session.GraphSession` (the source of truth the
rest of the library mutates), partitions it once at construction
(:func:`repro.cluster.partition.partition_graph`), spawns one worker replica
per shard and then:

* **routes** prediction requests to the shard that owns each node, fanning a
  mixed batch out to every involved shard in one concurrent round trip —
  workers compute misses in parallel processes, which is what buys the
  multi-core speedup the single-process engine cannot reach under the GIL;
* **fans mutations out** by subscribing to the global session through the
  ordinary ``MutationListener`` protocol: for every mutation it computes the
  k-hop dirty region over the old *and* new structure (the same rule the
  engine's logit-cache invalidation uses), rebuilds the halo of every shard
  that region touches, and ships each one a :class:`ShardUpdate` with the
  spliced rows, entering/leaving ghost nodes and entering feature rows.
  Shards outside the region receive a version-sync tick, so every replica's
  deterministic sampling key stays equal to the global session's — sharded
  predictions (exhaustive *and* keyed-sampled) draw byte-identical block
  structures to the single-process engine's and agree with it to 1e-8
  (typically to the last bit of BLAS round-off), before and after
  cross-shard mutations;
* **rebalances ownership** on ``add_node``: the new node joins the
  least-loaded shard and the halos of every shard its edges reach are
  recomputed;
* **aggregates** per-shard cache/throughput counters into one
  :class:`ClusterStats`.

The router exposes the engine's prediction surface (``predict_logits`` /
``predict_proba`` / ``predict_labels``) plus a ``session`` attribute, so a
:class:`~repro.serve.batching.RequestBatcher` can coalesce micro-batches in
front of a cluster exactly as it does in front of one engine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.partition import GraphPartition, partition_graph
from repro.cluster.worker import (
    InProcessWorker,
    ProcessWorker,
    ShardStatsSnapshot,
    ShardUpdate,
    WorkerInit,
)
from repro.obs.metrics import merge_histogram_states
from repro.obs.profile import profiling_enabled
from repro.obs.trace import NULL_SPAN
from repro.obs.trace import span as obs_span
from repro.obs.trace import tracing_enabled
from repro.graphs.khop import khop_frontier
from repro.serve.engine import DEFAULT_FALLBACK_HOPS, ServeConfig, softmax_rows
from repro.serve.session import GraphSession, MutationEvent
from repro.sparse.backend import get_backend_name
from repro.sparse.csr import CSRMatrix

__all__ = ["ClusterStats", "ShardRouter"]

WORKER_MODES = ("process", "inproc")


@dataclass(frozen=True)
class ClusterStats:
    """Aggregated per-shard counters (one typed snapshot per shard).

    Every total indexes :class:`ShardStatsSnapshot` fields *loudly* — a
    renamed or missing counter raises ``KeyError`` here instead of the old
    ``.get(key, 0)`` silently summing zeros across the cluster.
    """

    shards: Tuple[ShardStatsSnapshot, ...]

    @property
    def requests(self) -> int:
        return sum(shard["requests"] for shard in self.shards)

    @property
    def hits(self) -> int:
        return sum(shard["hits"] for shard in self.shards)

    @property
    def misses(self) -> int:
        return sum(shard["misses"] for shard in self.shards)

    @property
    def invalidated(self) -> int:
        return sum(shard["invalidated"] for shard in self.shards)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def plans_recorded(self) -> int:
        return sum(shard["plans_recorded"] for shard in self.shards)

    @property
    def plan_replays(self) -> int:
        return sum(shard["plan_replays"] for shard in self.shards)

    @property
    def plan_fallbacks(self) -> int:
        return sum(shard["plan_fallbacks"] for shard in self.shards)

    def merged_histograms(self) -> dict:
        """Cluster-wide latency distributions: every shard's histogram
        section merged by name into fresh :class:`Histogram` objects, so
        p50/p99 are computed over the *union* of observations rather than
        averaged per shard (quantiles do not average)."""
        by_name: dict = {}
        for shard in self.shards:
            for name, state in (shard.histograms or {}).items():
                by_name.setdefault(name, []).append(state)
        return {
            name: merge_histogram_states(states)
            for name, states in by_name.items()
        }

    def merged_profile(self) -> Optional[dict]:
        """Cluster-wide kernel-profiler aggregate: per-op tables summed,
        memory high-water marks maxed across shards (``None`` when no shard
        profiled anything)."""
        ops: dict = {}
        memory: dict = {}
        seen = False
        for shard in self.shards:
            section = shard.profile
            if not section:
                continue
            seen = True
            for name, row in section.get("ops", {}).items():
                into = ops.setdefault(
                    name,
                    {
                        "calls": 0,
                        "cum_s": 0.0,
                        "self_s": 0.0,
                        "flops": 0,
                        "bytes": 0,
                        "shapes": {},
                    },
                )
                into["calls"] += int(row.get("calls", 0))
                into["cum_s"] += float(row.get("cum_s", 0.0))
                into["self_s"] += float(row.get("self_s", 0.0))
                into["flops"] += int(row.get("flops", 0))
                into["bytes"] += int(row.get("bytes", 0))
                for sig, count in dict(row.get("shapes", {})).items():
                    into["shapes"][sig] = into["shapes"].get(sig, 0) + int(count)
            for name, nbytes in section.get("memory", {}).items():
                if int(nbytes) > memory.get(name, -1):
                    memory[name] = int(nbytes)
        return {"ops": ops, "memory": memory} if seen else None


def _rows_update(
    new_csr: CSRMatrix, refresh: np.ndarray, clear: np.ndarray
) -> Tuple[np.ndarray, CSRMatrix]:
    """``(rows, rows_csr)`` splice payload: fresh rows for ``refresh``, empty
    rows for ``clear`` (both global id arrays)."""
    rows = np.union1d(refresh, clear)
    sliced = new_csr.slice_rows(rows)
    if clear.size:
        counts = np.diff(sliced.indptr)
        keep_rows = ~np.isin(rows, clear, assume_unique=False)
        entry_keep = np.repeat(keep_rows, counts)
        new_counts = np.where(keep_rows, counts, 0)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(new_counts, out=indptr[1:])
        sliced = CSRMatrix(
            indptr,
            sliced.indices[entry_keep],
            sliced.data[entry_keep],
            sliced.shape,
        )
    return rows, sliced


class ShardRouter:
    """Routes predictions and fans out mutations over shard worker replicas."""

    def __init__(
        self,
        model,
        session: GraphSession,
        num_shards: int,
        strategy: str = "greedy",
        halo_hops: Optional[int] = None,
        config: Optional[ServeConfig] = None,
        workers: str = "process",
        model_ref: Optional[Tuple[str, str, Optional[int]]] = None,
        partition: Optional[GraphPartition] = None,
    ) -> None:
        if workers not in WORKER_MODES:
            raise ValueError(
                f"workers must be one of {WORKER_MODES}, got {workers!r}"
            )
        depth = model.message_passing_layers
        required = depth if depth is not None else DEFAULT_FALLBACK_HOPS
        if halo_hops is None:
            halo_hops = required
        elif halo_hops < required:
            raise ValueError(
                f"halo_hops={halo_hops} is smaller than the model's receptive "
                f"depth ({required}); in-shard prediction would be inexact"
            )
        self.model = model
        self.session = session
        self.config = config or ServeConfig()
        self.halo_hops = int(halo_hops)
        if partition is None:
            partition = partition_graph(
                session.csr,
                session.features,
                num_shards,
                strategy=strategy,
                halo_hops=self.halo_hops,
            )
        elif partition.halo_hops < required:
            raise ValueError("provided partition's halo is too shallow")
        self.partition = partition
        self._owners = partition.owners.copy()
        self._owned = [shard.owned.copy() for shard in partition.shards]
        self._locals = [shard.local.copy() for shard in partition.shards]
        self._lock = threading.Lock()
        self._closed = False

        backend = get_backend_name()
        inits = []
        for shard in partition.shards:
            init = WorkerInit(
                partition=shard,
                config=self.config,
                backend=backend,
                base_version=session.version,
                telemetry=tracing_enabled(),
                profile=profiling_enabled(),
            )
            if model_ref is not None:
                init.registry_root, init.model_name, init.model_version = model_ref
            else:
                init.model = model
            inits.append(init)
        factory = ProcessWorker if workers == "process" else InProcessWorker
        self.workers = []
        try:
            for init in inits:
                self.workers.append(factory(init))
        except Exception:
            self.close()
            raise
        session.add_listener(self._on_mutation)

    # ------------------------------------------------------------------ #
    # Prediction API (engine-compatible surface)
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.workers)

    @property
    def num_nodes(self) -> int:
        return self.session.num_nodes

    @property
    def owners(self) -> np.ndarray:
        """Live per-node owner array (grows with ``add_node``).

        ``partition.owners`` is kept equal to this view after every
        mutation; ``partition.shards`` stay the construction-time payloads —
        the live shard state lives in the workers.
        """
        return self._owners

    def owner_of(self, node: int) -> int:
        """The shard currently owning ``node``."""
        return int(self._owners[int(node)])

    def predict_logits(self, nodes) -> np.ndarray:
        """Logit rows for ``nodes``, fanned out to the owning shards."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if nodes.ndim != 1:
            raise ValueError("nodes must be a scalar or a 1-D index array")
        if nodes.size == 0:
            raise ValueError("nodes must be non-empty")
        if nodes.min() < 0 or nodes.max() >= self.session.num_nodes:
            raise ValueError("node index out of bounds")
        with self._lock:
            self._check_open()
            owners = self._owners[nodes]
            involved = [
                (shard, np.flatnonzero(owners == shard))
                for shard in np.unique(owners)
            ]
            # One concurrent round trip: send every shard its slice, then
            # collect — wall-clock is the slowest shard, not the sum.
            with obs_span("router.fanout") as fanout_span:
                fanout_span.set(shards=len(involved), nodes=int(nodes.size))
                rpc_spans = []
                for shard, positions in involved:
                    rpc = obs_span("shard.rpc")
                    rpc.set(shard=int(shard), nodes=int(positions.size))
                    ctx = None if rpc is NULL_SPAN else rpc.context()
                    self.workers[shard].send(
                        "predict", nodes[positions], ctx=ctx
                    )
                    rpc_spans.append(rpc)
                replies = self._collect(
                    [shard for shard, _ in involved], rpc_spans
                )
            out: Optional[np.ndarray] = None
            for (shard, positions), rows in zip(involved, replies):
                if out is None:
                    out = np.empty((nodes.size, rows.shape[1]), dtype=rows.dtype)
                out[positions] = rows
        return out

    def _collect(self, shards, rpc_spans=None) -> List:
        """Receive one reply per listed shard, draining every pipe even when
        a shard errors — a partial drain would leave stale replies queued and
        desynchronise the command protocol for all later rounds.

        ``rpc_spans`` (optional, parallel to ``shards``) are finished as each
        reply lands; replies are received in listed order, so a span's
        duration can include head-of-line wait behind earlier shards."""
        replies, failure = [], None
        for index, shard in enumerate(shards):
            try:
                replies.append(self.workers[shard].recv())
            except Exception as error:  # noqa: BLE001 - re-raised after drain
                if failure is None:
                    failure = error
            finally:
                if rpc_spans is not None:
                    rpc_spans[index].finish()
        if failure is not None:
            raise failure
        return replies

    def predict_proba(self, nodes) -> np.ndarray:
        """Softmax posteriors (the payload an online client receives)."""
        return softmax_rows(self.predict_logits(nodes))

    def predict_labels(self, nodes) -> np.ndarray:
        """Hard label predictions for ``nodes``."""
        return self.predict_logits(nodes).argmax(axis=1)

    # ------------------------------------------------------------------ #
    # Mutation convenience wrappers (the session remains the entry point)
    # ------------------------------------------------------------------ #
    def add_edges(self, pairs) -> int:
        return self.session.add_edges(pairs)

    def remove_edges(self, pairs) -> int:
        return self.session.remove_edges(pairs)

    def add_node(self, features_row, neighbors=None, label: int = 0) -> int:
        return self.session.add_node(features_row, neighbors=neighbors, label=label)

    # ------------------------------------------------------------------ #
    # Stats / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> ClusterStats:
        with self._lock:
            self._check_open()
            for worker in self.workers:
                worker.send("stats")
            snapshots = self._collect(range(self.num_shards))
            # Pickle bypasses __post_init__: the schema check happens here,
            # once per aggregation, on the router side of the pipe.
            return ClusterStats(
                shards=tuple(snap.validate() for snap in snapshots)
            )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self.workers:
                worker.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("router is closed")

    # ------------------------------------------------------------------ #
    # Mutation fan-out (MutationListener)
    # ------------------------------------------------------------------ #
    def _on_mutation(self, event: MutationEvent) -> None:
        with self._lock:
            if self._closed:
                return
            with obs_span("router.mutation_fanout") as mutation_span:
                mutation_span.set(
                    version=event.version, shards=self.num_shards
                )
                self._fan_out_mutation(event, mutation_span)

    def _fan_out_mutation(self, event: MutationEvent, mutation_span) -> None:
        old_csr, new_csr = event.old_csr, event.new_csr
        endpoints = np.asarray(event.endpoints, dtype=np.int64)
        grown = new_csr.shape[0] - old_csr.shape[0]
        new_owner = -1
        if grown:
            # add_node appends exactly one node: give it to the
            # least-loaded shard (deterministic tie-break: lowest id).
            sizes = np.asarray([owned.size for owned in self._owned])
            new_owner = int(np.argmin(sizes))
            node = new_csr.shape[0] - 1
            self._owners = np.concatenate(
                [self._owners, np.asarray([new_owner], dtype=np.int64)]
            )
            self._owned[new_owner] = np.concatenate(
                [self._owned[new_owner], np.asarray([node], dtype=np.int64)]
            )
            # Keep the public partition's ownership view in step (its
            # per-shard payloads remain construction-time snapshots).
            self.partition.owners = self._owners
            self.partition.shards[new_owner].owned = self._owned[new_owner]
        # The k-hop dirty region over old AND new structure — any shard
        # whose owned set it misses has no dirty prediction, no changed
        # local row and no halo change (see the consistency tests).
        old_eps = endpoints[endpoints < old_csr.shape[0]]
        region = np.union1d(
            khop_frontier(old_csr, old_eps, self.halo_hops),
            khop_frontier(new_csr, endpoints, self.halo_hops),
        )
        features = self.session.features
        empty = np.empty(0, dtype=np.int64)
        empty_rows = CSRMatrix(
            np.zeros(1, dtype=np.int64), empty, np.empty(0), (0, new_csr.shape[0])
        )
        updates: List[ShardUpdate] = []
        with obs_span("router.halo_rebuild") as halo_span:
            touched_shards = 0
            for shard in range(self.num_shards):
                touched = bool(
                    np.intersect1d(self._owned[shard], region, assume_unique=False).size
                ) or shard == new_owner
                if not touched:
                    # Version-sync tick (plus the id-space growth, if any).
                    updates.append(
                        ShardUpdate(
                            num_nodes=new_csr.shape[0],
                            version=event.version,
                            endpoints=empty,
                            rows=empty,
                            rows_csr=empty_rows,
                            entering=empty,
                            entering_features=np.empty((0, features.shape[1])),
                            leaving=empty,
                        )
                    )
                    continue
                touched_shards += 1
                new_local = khop_frontier(new_csr, self._owned[shard], self.halo_hops)
                entering = np.setdiff1d(new_local, self._locals[shard], assume_unique=True)
                leaving = np.setdiff1d(self._locals[shard], new_local, assume_unique=True)
                refresh = np.union1d(
                    np.intersect1d(endpoints, new_local), entering
                )
                rows, rows_csr = _rows_update(new_csr, refresh, leaving)
                self._locals[shard] = new_local
                updates.append(
                    ShardUpdate(
                        num_nodes=new_csr.shape[0],
                        version=event.version,
                        endpoints=endpoints,
                        rows=rows,
                        rows_csr=rows_csr,
                        entering=entering,
                        entering_features=features[entering],
                        leaving=leaving,
                        own_node=(
                            new_csr.shape[0] - 1 if shard == new_owner else None
                        ),
                    )
                )
            halo_span.set(touched=touched_shards, region=int(region.size))
        ctx = (
            None if mutation_span is NULL_SPAN else mutation_span.context()
        )
        for worker, update in zip(self.workers, updates):
            worker.send("mutate", update, ctx=ctx)
        self._collect(range(self.num_shards))
