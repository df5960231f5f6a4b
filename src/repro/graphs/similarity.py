"""Node-similarity matrices.

The paper's individual-fairness definition uses the Jaccard similarity of
node neighbourhoods *after adding self-loops* — this detail matters because
Lemma V.1 relies on the fact that connected nodes share at least the two
endpoints themselves once self-loops are included.  The feature-based cosine
similarity of InFoRM is also provided for completeness and ablations.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import jaccard_pairs_csr, jaccard_similarity_csr
from repro.utils.validation import check_adjacency, check_features

MatrixLike = Union[np.ndarray, CSRMatrix]


def jaccard_similarity(
    adjacency: MatrixLike, include_self_loops: bool = True
) -> MatrixLike:
    """Jaccard similarity matrix ``S`` with ``S_ij = |N(i)∩N(j)| / |N(i)∪N(j)|``.

    Parameters
    ----------
    adjacency:
        ``(N, N)`` symmetric binary adjacency matrix — dense, or a
        :class:`repro.sparse.CSRMatrix`, in which case the similarity is
        computed through CSR neighbour intersections and returned in CSR form
        (bitwise-equal stored values, O(Σ deg²) instead of O(N²) work).
    include_self_loops:
        When True (the paper's setting, via the GCN normalisation ``A + I``)
        each node is a member of its own neighbourhood, so 1-hop neighbours
        always share at least two common members (Lemma V.1, case k=1).

    Returns
    -------
    ``(N, N)`` similarity matrix with zero diagonal, in the input's format.
    """
    if isinstance(adjacency, CSRMatrix):
        return jaccard_similarity_csr(adjacency, include_self_loops=include_self_loops)
    adjacency = check_adjacency(adjacency)
    binary = (adjacency > 0).astype(np.float64)
    if include_self_loops:
        binary = binary + np.eye(binary.shape[0])
        np.clip(binary, 0.0, 1.0, out=binary)
    intersection = binary @ binary.T
    sizes = binary.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        similarity = np.where(union > 0, intersection / union, 0.0)
    np.fill_diagonal(similarity, 0.0)
    return similarity


def jaccard_for_pairs(
    adjacency: MatrixLike,
    pairs: np.ndarray,
    include_self_loops: bool = True,
) -> np.ndarray:
    """Jaccard similarity of explicit ``(M, 2)`` candidate pairs.

    The pair-restricted companion of :func:`jaccard_similarity` (mirroring
    ``pairwise_posterior_distance`` vs ``distance_matrix`` on the attack
    side): structural scores for attack candidate pairs are computed by CSR
    neighbour intersection at O(deg) per pair, never materialising an
    ``(N, N)`` matrix.  Dense inputs are converted to CSR once.
    """
    csr = adjacency if isinstance(adjacency, CSRMatrix) else CSRMatrix.from_dense(
        check_adjacency(adjacency)
    )
    return jaccard_pairs_csr(csr, pairs, include_self_loops=include_self_loops)


def graph_similarity(graph) -> CSRMatrix:
    """Jaccard similarity of a :class:`repro.graphs.Graph`, in CSR form.

    Computed from the graph's cached CSR view by neighbour intersection, so
    it costs O(Σ deg²) and never materialises an ``(N, N)`` matrix.  This is
    the single entry point the evaluation pipeline uses for the bias metric.
    """
    return jaccard_similarity_csr(graph.csr())


def cosine_feature_similarity(features: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Cosine similarity of node features (alternative InFoRM similarity)."""
    features = check_features(features)
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    normalized = features / np.maximum(norms, eps)
    similarity = normalized @ normalized.T
    np.fill_diagonal(similarity, 0.0)
    # numerical noise can push values slightly outside [-1, 1]
    return np.clip(similarity, -1.0, 1.0)


def top_k_sparsify(similarity: np.ndarray, k: int) -> np.ndarray:
    """Keep only the ``k`` largest similarities per row (symmetrised).

    InFoRM often sparsifies the similarity matrix for scalability; exposing it
    here allows ablations on how sparsification affects the fairness metric.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    similarity = np.asarray(similarity, dtype=np.float64)
    n = similarity.shape[0]
    keep = np.zeros_like(similarity)
    for row in range(n):
        if k >= n - 1:
            keep[row] = similarity[row]
            continue
        idx = np.argpartition(similarity[row], -k)[-k:]
        keep[row, idx] = similarity[row, idx]
    symmetric = np.maximum(keep, keep.T)
    np.fill_diagonal(symmetric, 0.0)
    return symmetric
