"""Node ownership for sharded serving.

Every shard worker holds a full replica of the graph; ownership only decides
which shard answers (and caches) the predictions of which node, so that each
logit cache stays local to one process.  Two strategies are provided:

* ``hash`` — SplitMix64 of the node id modulo the shard count: stateless,
  O(N), balanced in expectation, oblivious to structure.
* ``greedy`` — degree-descending linear deterministic greedy (LDG): each
  node joins the shard holding most of its already-placed neighbours,
  damped by a fill factor so shards stay balanced.  Deterministic, O(N + m),
  with a markedly lower edge-cut on clustered graphs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["PARTITION_STRATEGIES", "assign_owners"]

PARTITION_STRATEGIES = ("hash", "greedy")


def _hash_owners(num_nodes: int, num_shards: int) -> np.ndarray:
    # SplitMix64 of the node id — the same mixer the keyed sampler uses.
    from repro.gnn.sampling import _mix64

    ids = np.arange(num_nodes, dtype=np.uint64)
    return (_mix64(ids) % np.uint64(num_shards)).astype(np.int64)


def _greedy_owners(adjacency: CSRMatrix, num_shards: int) -> np.ndarray:
    """Degree-descending LDG: maximise placed-neighbour affinity, damped by fill."""
    n = adjacency.shape[0]
    degrees = np.diff(adjacency.indptr)
    order = np.argsort(-degrees, kind="stable")
    capacity = math.ceil(n / num_shards)
    owners = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_shards, dtype=np.int64)
    indptr, indices = adjacency.indptr, adjacency.indices
    for node in order:
        neighbours = indices[indptr[node] : indptr[node + 1]]
        placed = owners[neighbours]
        counts = np.bincount(placed[placed >= 0], minlength=num_shards)
        score = counts * (1.0 - sizes / capacity)
        score[sizes >= capacity] = -np.inf
        best = np.flatnonzero(score == score.max())
        # Ties: least-loaded shard, then lowest id (argmin takes the first).
        shard = int(best[np.argmin(sizes[best])])
        owners[node] = shard
        sizes[shard] += 1
    return owners


def assign_owners(
    adjacency: CSRMatrix, num_shards: int, strategy: str = "greedy"
) -> np.ndarray:
    """Owner shard of every node under the given strategy."""
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be square")
    if num_shards > adjacency.shape[0]:
        raise ValueError(
            f"cannot split {adjacency.shape[0]} nodes into {num_shards} shards"
        )
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {PARTITION_STRATEGIES}"
        )
    if strategy == "hash":
        return _hash_owners(adjacency.shape[0], num_shards)
    return _greedy_owners(adjacency, num_shards)
