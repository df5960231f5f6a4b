"""k-hop node-pair utilities (Lemma V.1, Proposition V.2).

The paper's theoretical argument partitions node pairs by the hop distance
``k`` of the shortest path between them:

* ``k = 1`` — connected pairs (Jaccard similarity strictly positive),
* ``k = 2`` — unconnected pairs that share a neighbour (similarity > 0),
* ``k > 2`` — unconnected pairs with zero similarity,
* ``k = ∞`` — disconnected pairs.

These helpers compute hop distances with a frontier BFS over CSR adjacency
lists (a dense adjacency is converted first) and expose the analytic 2-hop
ratio of Eq. (5).
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import INF_HOPS, gather_neighbors, shortest_path_hops_csr
from repro.utils.validation import check_adjacency

AdjacencyLike = Union[np.ndarray, CSRMatrix]

__all__ = [
    "INF_HOPS",
    "shortest_path_hops",
    "khop_frontier",
    "khop_pairs",
    "pair_hop_histogram",
    "two_hop_ratio_empirical",
    "two_hop_ratio_theoretical",
    "connected_unconnected_split",
]
# INF_HOPS (the marker for node pairs with no connecting path) is defined in
# repro.sparse.ops, next to the BFS, and re-exported here, its historical
# public home.


def shortest_path_hops(adjacency: AdjacencyLike) -> np.ndarray:
    """All-pairs shortest-path hop counts via per-node BFS.

    Returns an ``(N, N)`` integer matrix whose ``(i, j)`` entry is the number
    of edges on the shortest path, ``0`` on the diagonal and :data:`INF_HOPS`
    for unreachable pairs.
    """
    return shortest_path_hops_csr(_as_csr(adjacency))


def _as_csr(adjacency: AdjacencyLike) -> CSRMatrix:
    if isinstance(adjacency, CSRMatrix):
        return adjacency
    return CSRMatrix.from_dense(check_adjacency(adjacency))


def khop_frontier(adjacency: AdjacencyLike, seeds: np.ndarray, hops: int) -> np.ndarray:
    """Sorted unique nodes within ``hops`` edges of ``seeds`` (seeds included).

    This is the receptive field of an ``hops``-layer message-passing model
    over the seed set, computed by the same frontier expansion the BFS and
    the mini-batch neighbour sampler use
    (:func:`repro.sparse.ops.gather_neighbors`): each level gathers the
    concatenated adjacency lists of the still-unvisited frontier, so the cost
    is O(Σ deg(visited)) instead of any dense scan.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    csr = _as_csr(adjacency)
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size and (seeds.min() < 0 or seeds.max() >= csr.shape[0]):
        raise ValueError("seed index out of bounds")
    visited = np.unique(seeds)
    frontier = visited
    for _ in range(hops):
        if frontier.size == 0:
            break
        candidates = np.unique(gather_neighbors(csr.indptr, csr.indices, frontier))
        frontier = candidates[~np.isin(candidates, visited, assume_unique=True)]
        visited = np.union1d(visited, frontier)
    return visited


def khop_pairs(adjacency: AdjacencyLike, k: int) -> np.ndarray:
    """Return the ``(M, 2)`` array of node pairs (i < j) at hop distance ``k``.

    ``k = -1`` (:data:`INF_HOPS`) selects disconnected pairs.
    """
    hops = shortest_path_hops(adjacency)
    mask = np.triu(hops == k, k=1)
    rows, cols = np.nonzero(mask)
    return np.stack([rows, cols], axis=1)


def pair_hop_histogram(adjacency: AdjacencyLike) -> Dict[int, int]:
    """Histogram of hop distances over all unordered node pairs."""
    hops = shortest_path_hops(adjacency)
    n = hops.shape[0]
    upper = hops[np.triu_indices(n, k=1)]
    values, counts = np.unique(upper, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def two_hop_ratio_empirical(adjacency: AdjacencyLike) -> float:
    """Fraction of *unconnected* pairs that are exactly 2 hops apart.

    This is the empirical counterpart of Eq. (5): the paper argues this ratio
    is close to zero for sparse homophilous graphs, which is why improving
    fairness leaves the unconnected-pair distance ``d0`` nearly invariant.
    """
    histogram = pair_hop_histogram(adjacency)
    unconnected = sum(count for hop, count in histogram.items() if hop != 1 and hop != 0)
    if unconnected == 0:
        return 0.0
    return histogram.get(2, 0) / unconnected


def two_hop_ratio_theoretical(p: float, q: float) -> float:
    """Analytic 2-hop ratio ``(p+q)² / (1-(p+q))`` from Eq. (5).

    ``p`` and ``q`` are the intra-class and inter-class linking probabilities
    of the homophilous SBM used in the paper's analysis.
    """
    if not 0.0 <= q <= p <= 1.0:
        raise ValueError("probabilities must satisfy 0 <= q <= p <= 1")
    total = p + q
    if total >= 1.0:
        raise ValueError("p + q must be < 1 for the sparse-graph approximation")
    return total**2 / (1.0 - total)


def connected_unconnected_split(
    adjacency: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return (connected_pairs, unconnected_pairs) as ``(M, 2)`` index arrays.

    Disconnected (infinite-hop) pairs count as unconnected, matching the
    attack model where any non-edge is a negative example.
    """
    adjacency = check_adjacency(adjacency)
    n = adjacency.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    connected_mask = (adjacency > 0) & upper
    unconnected_mask = (adjacency == 0) & upper
    connected = np.stack(np.nonzero(connected_mask), axis=1)
    unconnected = np.stack(np.nonzero(unconnected_mask), axis=1)
    return connected, unconnected
