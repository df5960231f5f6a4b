"""Node ownership for sharded serving.

Every shard worker holds a full replica of the graph; ownership only decides
which shard answers (and caches) the predictions of which node, so that each
logit cache stays local to one process.  Ownership is a hash: SplitMix64 of
the node id modulo the shard count — stateless, O(N), balanced in
expectation and oblivious to structure, which a replica does not need.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["assign_owners"]


def _hash_owners(num_nodes: int, num_shards: int) -> np.ndarray:
    # SplitMix64 of the node id — the same mixer the keyed sampler uses.
    from repro.gnn.sampling import _mix64

    ids = np.arange(num_nodes, dtype=np.uint64)
    return (_mix64(ids) % np.uint64(num_shards)).astype(np.int64)


def assign_owners(
    adjacency: CSRMatrix, num_shards: int, strategy: str = "hash"
) -> np.ndarray:
    """Owner shard of every node; ``"hash"`` is the only ``strategy``."""
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be square")
    if num_shards > adjacency.shape[0]:
        raise ValueError(
            f"cannot split {adjacency.shape[0]} nodes into {num_shards} shards"
        )
    if strategy != "hash":
        raise ValueError(f"unknown strategy {strategy!r}; expected 'hash'")
    return _hash_owners(adjacency.shape[0], num_shards)
