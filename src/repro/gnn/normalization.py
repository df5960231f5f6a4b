"""Adjacency and feature normalisation used by the GNN layers.

Models build their propagation operators with :func:`build_propagation`,
which always yields a CSR operator.  :func:`gcn_norm` and :func:`left_norm`
dispatch on the input type: CSR inputs go to the CSR kernels, dense arrays
to the dense NumPy formula, which the scaling benchmarks use as reference.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.graphs.laplacian import gcn_normalization
from repro.sparse.backend import SparseOperator, build_propagation
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import check_adjacency

AdjacencyLike = Union[np.ndarray, CSRMatrix]

__all__ = [
    "gcn_norm",
    "left_norm",
    "attention_mask",
    "row_normalize_features",
    "build_propagation",
    "SparseOperator",
]


def gcn_norm(adjacency: AdjacencyLike) -> AdjacencyLike:
    """Symmetric GCN propagation matrix ``D̃^{-1/2}(A+I)D̃^{-1/2}``."""
    return gcn_normalization(adjacency, mode="symmetric")


def left_norm(adjacency: AdjacencyLike) -> AdjacencyLike:
    """Left-normalised propagation ``D̃^{-1}(A+I)`` (paper's risk model)."""
    return gcn_normalization(adjacency, mode="left")


def attention_mask(adjacency: np.ndarray) -> np.ndarray:
    """Boolean mask of *disallowed* attention positions for GAT.

    Attention is restricted to first-order neighbours plus the node itself;
    every other position is masked to ``-inf`` before the softmax.  GAT's
    dense all-pairs attention has no sparse counterpart, so this helper is
    dense-only.
    """
    adjacency = check_adjacency(adjacency)
    allowed = (adjacency > 0) | np.eye(adjacency.shape[0], dtype=bool)
    return ~allowed


def row_normalize_features(features: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Row-normalise features to unit L1 norm (standard citation-net pre-processing)."""
    features = np.asarray(features, dtype=np.float64)
    norms = np.abs(features).sum(axis=1, keepdims=True)
    return features / np.maximum(norms, eps)
