"""Sharded multi-process serving: ownership, shard workers, router.

The single-process :class:`~repro.serve.engine.InferenceEngine` computes
every cache miss under one GIL.  This package scales it across processes:

* :mod:`repro.cluster.partition` — hash node ownership, which decides the
  shard that answers and caches each node;
* :mod:`repro.cluster.worker` — one full-graph ``GraphSession`` +
  ``InferenceEngine`` replica per shard, in-process or behind a
  child-process command pipe, parameters loaded from the shared
  :class:`~repro.serve.registry.ModelRegistry`;
* :mod:`repro.cluster.router` — the front-end: routes requests to owning
  shards, fans every mutation's changed rows out to every replica through
  the ``MutationListener`` protocol, assigns ownership on ``add_node`` and
  aggregates per-shard stats.

``python -m repro.serve serve --shards N`` serves a registered model over
a worker cluster.
"""

from repro.cluster.partition import assign_owners
from repro.cluster.router import ClusterStats, ShardRouter
from repro.cluster.worker import (
    ClusterWorkerError,
    InProcessWorker,
    ProcessWorker,
    ShardUpdate,
    ShardWorker,
    WorkerInit,
)

__all__ = [
    "assign_owners",
    "ClusterStats",
    "ShardRouter",
    "ClusterWorkerError",
    "InProcessWorker",
    "ProcessWorker",
    "ShardUpdate",
    "ShardWorker",
    "WorkerInit",
]
