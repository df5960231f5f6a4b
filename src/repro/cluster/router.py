"""Shard router: front-end that scales the inference engine across shards.

:class:`ShardRouter` is the cluster's single entry point.  It keeps the
*global* :class:`~repro.serve.session.GraphSession` (the source of truth the
rest of the library mutates), assigns every node an owner shard once at
construction (:func:`repro.cluster.partition.assign_owners`), spawns one
full-graph worker replica per shard and then:

* **routes** prediction requests to the shard that owns each node, fanning a
  mixed batch out to every involved shard in one concurrent round trip —
  workers compute misses in parallel processes, which is what buys the
  multi-core speedup the single-process engine cannot reach under the GIL;
  ownership keeps each node's cached logits in exactly one shard;
* **fans mutations out** by subscribing to the global session through the
  ordinary ``MutationListener`` protocol: every shard receives one
  :class:`ShardUpdate` per mutation with the new rows of the mutation's
  endpoints (the only rows a mutation changes) and any appended feature
  rows.  Every replica therefore holds the global structure and version
  after each mutation, so sharded predictions (exhaustive *and*
  keyed-sampled) draw byte-identical block structures to the single-process
  engine's and agree with it to 1e-8, before and after cross-shard
  mutations;
* **assigns ownership** on ``add_node``: the new node joins the
  least-loaded shard;
* **aggregates** per-shard cache/throughput counters into one
  :class:`ClusterStats`.

The router exposes the engine's prediction surface (``predict_logits`` /
``predict_proba`` / ``predict_labels``) plus a ``session`` attribute, so a
:class:`~repro.serve.batching.RequestBatcher` can coalesce micro-batches in
front of a cluster exactly as it does in front of one engine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.partition import assign_owners
from repro.cluster.worker import (
    InProcessWorker,
    ProcessWorker,
    ShardStatsSnapshot,
    ShardUpdate,
    WorkerInit,
)
from repro.obs.metrics import merge_histogram_states
from repro.obs.trace import NULL_SPAN
from repro.obs.trace import span as obs_span
from repro.obs.trace import telemetry
# Unused here; perfbench's tracer wraps ``router.khop_frontier`` by name.
from repro.graphs.khop import khop_frontier  # noqa: F401
from repro.serve.engine import ServeConfig, softmax_rows
from repro.serve.session import GraphSession, MutationEvent

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


class ShardRouter:
    """Routes predictions and fans out mutations over shard worker replicas."""

    def __init__(
        self,
        model,
        session: GraphSession,
        num_shards: int,
        strategy: str = "hash",
        config: Optional[ServeConfig] = None,
        workers: str = "process",
        model_ref: Optional[Tuple[str, str, Optional[int]]] = None,
    ) -> None:
        if workers not in WORKER_MODES:
            raise ValueError(
                f"workers must be one of {WORKER_MODES}, got {workers!r}"
            )
        self.model = model
        self.session = session
        self.config = config or ServeConfig()
        self._owners = assign_owners(session.csr, num_shards, strategy)
        self._lock = threading.Lock()
        self._closed = False

        state = telemetry()
        inits = []
        for shard in range(num_shards):
            init = WorkerInit(
                shard_id=shard,
                owned=np.flatnonzero(self._owners == shard),
                csr=session.csr,
                features=session.features,
                config=self.config,
                base_version=session.version,
                telemetry=state,
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
        """Live per-node owner array (grows with ``add_node``)."""
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
            with obs_span("router.fanout") as fanout_span:
                fanout_span.set(shards=len(involved), nodes=int(nodes.size))
                messages, rpc_spans = [], []
                for shard, positions in involved:
                    rpc = obs_span("shard.rpc")
                    rpc.set(shard=int(shard), nodes=int(positions.size))
                    ctx = None if rpc is NULL_SPAN else rpc.context()
                    messages.append((shard, "predict", nodes[positions], ctx))
                    rpc_spans.append(rpc)
                replies = self._round_trip(messages, rpc_spans)
            out: Optional[np.ndarray] = None
            for (shard, positions), rows in zip(involved, replies):
                if out is None:
                    out = np.empty((nodes.size, rows.shape[1]), dtype=rows.dtype)
                out[positions] = rows
        return out

    def _round_trip(self, messages: Sequence[tuple], rpc_spans=None) -> List:
        """Send every ``(shard, command, payload, ctx)`` message, then
        receive one reply per shard sent to.

        Sending everything before receiving anything makes the wall-clock the
        slowest shard, not the sum.  Every shard sent to is drained even when
        a send or a reply fails (a dead worker's broken pipe, a worker
        error): a reply left queued would be read as the answer to that
        shard's next command.  The first failure is re-raised afterwards.
        ``rpc_spans`` (optional, parallel to ``messages``) are finished as
        each reply lands; replies are received in listed order, so a span's
        duration can include head-of-line wait behind earlier shards.
        """
        sent, replies, failure = [], [], None
        for shard, command, payload, ctx in messages:
            try:
                self.workers[shard].send(command, payload, ctx=ctx)
            except Exception as error:  # noqa: BLE001 - re-raised after drain
                failure = error
                break
            sent.append(shard)
        for index, shard in enumerate(sent):
            try:
                replies.append(self.workers[shard].recv())
            except Exception as error:  # noqa: BLE001 - re-raised after drain
                failure = failure or error
            finally:
                if rpc_spans is not None:
                    rpc_spans[index].finish()
        if rpc_spans is not None:
            for rpc in rpc_spans[len(sent) :]:
                rpc.finish()
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
            snapshots = self._round_trip(
                [(shard, "stats", None, None) for shard in range(self.num_shards)]
            )
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
                ctx = (
                    None if mutation_span is NULL_SPAN else mutation_span.context()
                )
                self._fan_out_mutation(event, ctx)

    def _fan_out_mutation(self, event: MutationEvent, ctx) -> None:
        old_size, new_size = event.old_csr.shape[0], event.new_csr.shape[0]
        new_owner = None
        if new_size > old_size:
            # add_node appends exactly one node: give it to the
            # least-loaded shard (deterministic tie-break: lowest id).
            sizes = np.bincount(self._owners, minlength=self.num_shards)
            new_owner = int(np.argmin(sizes))
            self._owners = np.concatenate(
                [self._owners, np.asarray([new_owner], dtype=np.int64)]
            )
        update = ShardUpdate(
            num_nodes=new_size,
            version=event.version,
            endpoints=event.endpoints,
            rows_csr=event.new_csr.slice_rows(event.endpoints),
            features=self.session.features[old_size:],
        )
        messages = []
        for shard in range(self.num_shards):
            own_node = new_size - 1 if shard == new_owner else None
            messages.append((shard, "mutate", replace(update, own_node=own_node), ctx))
        self._round_trip(messages)
