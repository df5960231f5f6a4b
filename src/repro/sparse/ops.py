"""Sparse graph kernels: the CSR operators the graph pipelines run on.

Propagation normalisations, Laplacians, Jaccard similarity, hop-distance
BFS and the structure edits of a serving session.  The property tests in
``tests/test_sparse_equivalence.py`` check each kernel against a dense
NumPy formula on random graphs, including isolated-node and empty-graph
edge cases.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sparse.csr import CSRMatrix, gather_row_positions

__all__ = [
    "INF_HOPS",
    "gcn_norm_csr",
    "left_norm_csr",
    "mean_aggregation_csr",
    "laplacian_csr",
    "normalized_laplacian_csr",
    "shortest_path_hops_csr",
    "binary_neighborhoods_csr",
    "jaccard_similarity_csr",
    "jaccard_pairs_csr",
    "gather_neighbor_positions",
    "gather_neighbors",
    "induced_subgraph_csr",
    "splice_rows_csr",
    "apply_edge_updates_csr",
    "append_empty_node_csr",
]

INF_HOPS = -1
"""Marker for unreachable node pairs (re-exported by :mod:`repro.graphs.khop`)."""


def _require_square(matrix: CSRMatrix, name: str) -> None:
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")


def gcn_norm_csr(adjacency: CSRMatrix) -> CSRMatrix:
    """Symmetric GCN propagation ``D̃^{-1/2}(A+I)D̃^{-1/2}`` in CSR form."""
    _require_square(adjacency, "adjacency")
    with_loops = adjacency.add_identity()
    degrees = with_loops.row_sums()
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return with_loops.scale_rows(inv_sqrt).scale_cols(inv_sqrt)


def left_norm_csr(adjacency: CSRMatrix) -> CSRMatrix:
    """Left-normalised propagation ``D̃^{-1}(A+I)`` in CSR form."""
    _require_square(adjacency, "adjacency")
    with_loops = adjacency.add_identity()
    degrees = with_loops.row_sums()
    return with_loops.scale_rows(1.0 / degrees)


def mean_aggregation_csr(adjacency: CSRMatrix, include_self: bool = True) -> CSRMatrix:
    """Row-stochastic neighbourhood-mean operator (GraphSAGE aggregation).

    Matches :func:`repro.gnn.normalization.mean_aggregation_matrix`: isolated
    nodes receive an all-zero row rather than NaNs.
    """
    _require_square(adjacency, "adjacency")
    base = adjacency.add_identity() if include_self else adjacency
    degrees = base.row_sums()
    inverse = np.zeros_like(degrees)
    populated = degrees > 0
    inverse[populated] = 1.0 / degrees[populated]
    return base.scale_rows(inverse)


def laplacian_csr(weights: CSRMatrix) -> CSRMatrix:
    """Combinatorial Laplacian ``L = D - W`` in CSR form."""
    _require_square(weights, "weights")
    n = weights.shape[0]
    rows, cols, data = weights.to_coo()
    diag = np.arange(n, dtype=np.int64)
    return CSRMatrix.from_coo(
        np.concatenate([rows, diag]),
        np.concatenate([cols, diag]),
        np.concatenate([-data, weights.row_sums()]),
        (n, n),
    )


def normalized_laplacian_csr(weights: CSRMatrix, eps: float = 1e-12) -> CSRMatrix:
    """Symmetric normalised Laplacian ``I - D^{-1/2} W D^{-1/2}`` in CSR form."""
    _require_square(weights, "weights")
    n = weights.shape[0]
    degrees = weights.row_sums()
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, eps))
    inv_sqrt[degrees <= 0] = 0.0
    normalized = weights.scale_rows(inv_sqrt).scale_cols(inv_sqrt)
    rows, cols, data = normalized.to_coo()
    diag = np.arange(n, dtype=np.int64)
    return CSRMatrix.from_coo(
        np.concatenate([rows, diag]),
        np.concatenate([cols, diag]),
        np.concatenate([-data, np.ones(n)]),
        (n, n),
    )


def binary_neighborhoods_csr(
    adjacency: CSRMatrix, include_self_loops: bool = True
) -> CSRMatrix:
    """0/1 neighbourhood-membership matrix ``B`` (optionally with self-loops).

    Mirrors the pre-processing of the dense Jaccard kernel: entries with a
    positive stored value become 1, everything else is dropped, and with
    ``include_self_loops`` every node joins its own neighbourhood.
    """
    _require_square(adjacency, "adjacency")
    n = adjacency.shape[0]
    rows, cols, data = adjacency.to_coo()
    positive = data > 0
    rows, cols = rows[positive], cols[positive]
    if include_self_loops:
        diag = np.arange(n, dtype=np.int64)
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
    binary = CSRMatrix.from_coo(rows, cols, np.ones(rows.size), (n, n))
    # from_coo sums duplicates (e.g. an existing self-loop plus the injected
    # one); clip back to membership indicators.
    return CSRMatrix(
        binary.indptr, binary.indices, np.minimum(binary.data, 1.0), binary.shape
    )


def jaccard_similarity_csr(
    adjacency: CSRMatrix, include_self_loops: bool = True
) -> CSRMatrix:
    """Jaccard similarity ``S_ij = |N(i)∩N(j)| / |N(i)∪N(j)|`` in CSR form.

    The CSR counterpart of :func:`repro.graphs.similarity.jaccard_similarity`:
    instead of the dense ``B Bᵀ`` product, intersection counts are accumulated
    from neighbour-list expansions — entry ``(i, k)`` of the membership matrix
    ``B`` contributes row ``k`` of ``B`` to row ``i`` — which touches
    ``Σ_k deg(k)²`` index pairs instead of N² cells.  Counts and union sizes
    are small exact integers, so the stored values are *bitwise* equal to the
    dense kernel's nonzero entries.

    Returns the ``(N, N)`` similarity with a zero (absent) diagonal; only
    pairs at most two hops apart are stored (Lemma V.1 support).
    """
    binary = binary_neighborhoods_csr(adjacency, include_self_loops)
    n = binary.shape[0]
    sizes = binary.row_sums()
    indptr, indices = binary.indptr, binary.indices

    # Expand: for every stored entry (i, k), emit (i, j) for j in N(k).
    entry_rows = binary.row_indices()
    entry_cols = indices
    counts = indptr[entry_cols + 1] - indptr[entry_cols]
    total = int(counts.sum())
    if total == 0:
        return CSRMatrix.from_coo(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            (n, n),
        )
    out_rows = np.repeat(entry_rows, counts)
    starts = indptr[entry_cols]
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
    out_cols = indices[flat]

    intersection = CSRMatrix.from_coo(
        out_rows, out_cols, np.ones(total), (n, n)
    )
    rows, cols, inter = intersection.to_coo()
    off_diagonal = rows != cols
    rows, cols, inter = rows[off_diagonal], cols[off_diagonal], inter[off_diagonal]
    union = sizes[rows] + sizes[cols] - inter
    return CSRMatrix.from_coo(rows, cols, inter / union, (n, n))


def jaccard_pairs_csr(
    adjacency: CSRMatrix,
    pairs: np.ndarray,
    include_self_loops: bool = True,
) -> np.ndarray:
    """Jaccard similarity of explicit candidate pairs via neighbour intersections.

    The pair-restricted counterpart of :func:`jaccard_similarity_csr` used by
    attack feature extraction: only the ``(M, 2)`` candidate pairs are scored,
    at O(deg) per pair, never materialising an ``(N, N)`` matrix.
    """
    binary = binary_neighborhoods_csr(adjacency, include_self_loops)
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return np.zeros(0)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (M, 2)")
    if pairs.min() < 0 or pairs.max() >= binary.shape[0]:
        raise ValueError("pair indices out of range")
    indptr, indices = binary.indptr, binary.indices
    sizes = binary.row_sums()
    values = np.zeros(pairs.shape[0], dtype=np.float64)
    for position, (i, j) in enumerate(pairs):
        if i == j:  # the similarity matrix has a zero diagonal by convention
            continue
        left = indices[indptr[i] : indptr[i + 1]]
        right = indices[indptr[j] : indptr[j + 1]]
        inter = np.intersect1d(left, right, assume_unique=True).size
        union = sizes[i] + sizes[j] - inter
        if union > 0:
            values[position] = inter / union
    return values


def gather_neighbor_positions(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Flat positions (into ``indices``/``data``) of every frontier node's slice.

    The shared frontier-expansion kernel: BFS, k-hop neighbourhood queries,
    row slicing and the mini-batch neighbour sampler all expand a node
    frontier by gathering the concatenated CSR adjacency lists; the single
    implementation lives next to the container
    (:func:`repro.sparse.csr.gather_row_positions`).
    """
    return gather_row_positions(indptr, frontier)


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Concatenate the adjacency lists of every frontier node (vectorised)."""
    return indices[gather_neighbor_positions(indptr, frontier)]


# Backwards-compatible private alias (pre-sampling callers).
_gather_neighbors = gather_neighbors


def induced_subgraph_csr(adjacency: CSRMatrix, nodes: np.ndarray) -> CSRMatrix:
    """The ``(K, K)`` subgraph induced by ``nodes``, relabelled to ``0..K-1``.

    Row ``i`` of the result is the adjacency list of ``nodes[i]`` restricted
    to columns inside ``nodes`` (in the order given).  ``nodes`` must not
    contain duplicates — relabelling would be ambiguous.  Cost is
    O(Σ deg(nodes)) plus an O(N) relabelling table.
    """
    _require_square(adjacency, "adjacency")
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.ndim != 1:
        raise ValueError("nodes must be a 1-D index array")
    if nodes.size and (nodes.min() < 0 or nodes.max() >= adjacency.shape[0]):
        raise ValueError("node index out of bounds")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("nodes must not contain duplicates")
    lookup = np.full(adjacency.shape[0], -1, dtype=np.int64)
    lookup[nodes] = np.arange(nodes.size, dtype=np.int64)
    sliced = adjacency.slice_rows(nodes)
    local_cols = lookup[sliced.indices]
    keep = local_cols >= 0
    rows = np.repeat(
        np.arange(nodes.size, dtype=np.int64), np.diff(sliced.indptr)
    )[keep]
    return CSRMatrix.from_coo(
        rows, local_cols[keep], sliced.data[keep], (nodes.size, nodes.size)
    )


def _check_row_subset(shape_rows: int, rows: np.ndarray, name: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise ValueError(f"{name} must be a 1-D index array")
    if rows.size and (rows.min() < 0 or rows.max() >= shape_rows):
        raise ValueError(f"{name} index out of bounds")
    if rows.size > 1 and np.any(np.diff(rows) <= 0):
        raise ValueError(f"{name} must be sorted and duplicate-free")
    return rows


def splice_rows_csr(
    adjacency: CSRMatrix, rows: np.ndarray, rows_csr: CSRMatrix
) -> CSRMatrix:
    """Replace ``rows`` of ``adjacency`` with the rows of ``rows_csr``.

    ``rows_csr`` is a ``(len(rows), M)`` CSR holding the new content of each
    listed row (an empty row clears it); every unlisted row's segment is
    copied wholesale, exactly like the splice phase of
    :func:`apply_edge_updates_csr`.  ``rows`` must be sorted and unique.
    This is the shard-worker commit kernel: the router ships the new rows
    of a mutation's endpoints and the worker splices them in
    O(nnz + Σ deg(rows)).
    """
    n = adjacency.shape[0]
    rows = _check_row_subset(n, rows, "rows")
    if rows_csr.shape != (rows.size, adjacency.shape[1]):
        raise ValueError(
            f"rows_csr must have shape {(rows.size, adjacency.shape[1])}, "
            f"got {rows_csr.shape}"
        )
    if rows.size == 0:
        return adjacency
    counts = np.diff(adjacency.indptr)
    new_counts = counts.copy()
    new_counts[rows] = np.diff(rows_csr.indptr)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=np.float64)

    untouched_mask = np.ones(n, dtype=bool)
    untouched_mask[rows] = False
    untouched = np.flatnonzero(untouched_mask)
    src = gather_row_positions(adjacency.indptr, untouched)
    dst = gather_row_positions(indptr, untouched)
    indices[dst] = adjacency.indices[src]
    data[dst] = adjacency.data[src]
    # rows_csr is row-major in ascending ``rows`` order — the order the
    # destination gather visits the replaced rows' segments.
    dst_rows = gather_row_positions(indptr, rows)
    indices[dst_rows] = rows_csr.indices
    data[dst_rows] = rows_csr.data
    return CSRMatrix(indptr, indices, data, adjacency.shape)


def _directed_pairs(pairs: np.ndarray, num_nodes: int, name: str) -> np.ndarray:
    """Validate undirected ``(M, 2)`` pairs and expand to both directions."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"{name} must have shape (M, 2)")
    if pairs.min() < 0 or pairs.max() >= num_nodes:
        raise ValueError(f"{name} indices out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError(f"{name} must not contain self-loops")
    return np.concatenate([pairs, pairs[:, ::-1]], axis=0)


def apply_edge_updates_csr(
    adjacency: CSRMatrix,
    add_pairs: Optional[np.ndarray] = None,
    remove_pairs: Optional[np.ndarray] = None,
    weight: float = 1.0,
) -> CSRMatrix:
    """Apply undirected edge additions/removals without a full rebuild.

    The incremental-update kernel behind the serving layer's mutable graph
    session: only the rows incident to a changed edge are re-assembled (via
    the shared row-slice/gather machinery); every untouched row's segment is
    copied wholesale into the spliced output arrays.  Cost is
    O(nnz + Σ deg(touched)) array traffic with no dense ``(N, N)``
    materialisation — the thing :meth:`CSRMatrix.from_dense` cannot avoid.

    Adding an edge that already exists keeps its stored weight; removing an
    absent edge is a no-op (matching :mod:`repro.graphs.perturb`).  Pairs are
    undirected: each ``(i, j)`` updates both ``(i, j)`` and ``(j, i)``.
    """
    _require_square(adjacency, "adjacency")
    n = adjacency.shape[0]
    add_dir = _directed_pairs(
        add_pairs if add_pairs is not None else np.empty((0, 2)), n, "add_pairs"
    )
    remove_dir = _directed_pairs(
        remove_pairs if remove_pairs is not None else np.empty((0, 2)), n, "remove_pairs"
    )
    if add_dir.size == 0 and remove_dir.size == 0:
        return adjacency

    touched = np.unique(np.concatenate([add_dir[:, 0], remove_dir[:, 0]]))
    sliced = adjacency.slice_rows(touched)  # local rows = position in touched

    # Flat (local_row, col) coordinate keys make membership tests vectorised.
    old_rows = sliced.row_indices()
    old_keys = old_rows * n + sliced.indices
    remove_keys = np.searchsorted(touched, remove_dir[:, 0]) * n + remove_dir[:, 1]
    keep = ~np.isin(old_keys, remove_keys)

    add_keys = np.unique(np.searchsorted(touched, add_dir[:, 0]) * n + add_dir[:, 1])
    add_keys = add_keys[~np.isin(add_keys, old_keys[keep])]
    new_rows = np.concatenate([old_rows[keep], add_keys // n])
    new_cols = np.concatenate([sliced.indices[keep], add_keys % n])
    new_data = np.concatenate(
        [sliced.data[keep], np.full(add_keys.size, float(weight))]
    )
    touched_csr = CSRMatrix.from_coo(
        new_rows, new_cols, new_data, (touched.size, n)
    )

    # Splice: untouched rows copy their old segments, touched rows take the
    # freshly assembled ones.  Both sides use the shared flat-gather kernel.
    counts = np.diff(adjacency.indptr)
    new_counts = counts.copy()
    new_counts[touched] = np.diff(touched_csr.indptr)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=np.float64)

    untouched_mask = np.ones(n, dtype=bool)
    untouched_mask[touched] = False
    untouched = np.flatnonzero(untouched_mask)
    src = gather_row_positions(adjacency.indptr, untouched)
    dst = gather_row_positions(indptr, untouched)
    indices[dst] = adjacency.indices[src]
    data[dst] = adjacency.data[src]
    # touched_csr is row-major in ascending ``touched`` order, exactly the
    # order the destination gather visits the touched rows' segments.
    dst_touched = gather_row_positions(indptr, touched)
    indices[dst_touched] = touched_csr.indices
    data[dst_touched] = touched_csr.data
    return CSRMatrix(indptr, indices, data, (n, n))


def append_empty_node_csr(adjacency: CSRMatrix) -> CSRMatrix:
    """Grow a square CSR adjacency by one isolated node (O(1) array work).

    The new node has index ``N`` and no incident edges; connect it with
    :func:`apply_edge_updates_csr`.
    """
    _require_square(adjacency, "adjacency")
    n = adjacency.shape[0]
    indptr = np.empty(n + 2, dtype=np.int64)
    indptr[:-1] = adjacency.indptr
    indptr[-1] = adjacency.indptr[-1]
    return CSRMatrix(indptr, adjacency.indices, adjacency.data, (n + 1, n + 1))


def shortest_path_hops_csr(adjacency: CSRMatrix) -> np.ndarray:
    """All-pairs shortest-path hop counts via frontier BFS on CSR structure.

    Returns the same ``(N, N)`` integer matrix as
    :func:`repro.graphs.khop.shortest_path_hops` — ``0`` on the diagonal and
    :data:`INF_HOPS` for unreachable pairs — but touches only the O(m)
    adjacency lists per BFS level instead of scanning dense rows.
    """
    _require_square(adjacency, "adjacency")
    n = adjacency.shape[0]
    indptr, indices = adjacency.indptr, adjacency.indices
    hops = np.full((n, n), INF_HOPS, dtype=np.int64)
    for source in range(n):
        dist = hops[source]
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            candidates = gather_neighbors(indptr, indices, frontier)
            candidates = candidates[dist[candidates] == INF_HOPS]
            if candidates.size == 0:
                break
            frontier = np.unique(candidates)
            dist[frontier] = level
    return hops
