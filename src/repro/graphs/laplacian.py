"""Graph Laplacians.

``Bias(Y, S) = Tr(Yᵀ L_S Y)`` (Definition 1 of the paper) uses the Laplacian
of the *similarity* matrix; GCN propagation uses symmetric / left-normalised
adjacency with self-loops.  Both live here.

Every function dispatches on the input type: :class:`repro.sparse.CSRMatrix`
inputs are routed to the CSR kernels in :mod:`repro.sparse.ops` and return
CSR matrices, which is what the propagation operators and the evaluation
bias use; dense ``(N, N)`` arrays take the dense NumPy formula, which the
similarity-weighted fairness terms and the scaling benchmarks' references
use.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import (
    gcn_norm_csr,
    laplacian_csr,
    left_norm_csr,
    normalized_laplacian_csr,
)
from repro.utils.validation import check_adjacency

MatrixLike = Union[np.ndarray, CSRMatrix]


def laplacian(weights: MatrixLike) -> MatrixLike:
    """Combinatorial Laplacian ``L = D - W`` of a weighted symmetric matrix."""
    if isinstance(weights, CSRMatrix):
        return laplacian_csr(weights)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError("weights must be a square matrix")
    degree = np.diag(weights.sum(axis=1))
    return degree - weights


def normalized_laplacian(weights: MatrixLike, eps: float = 1e-12) -> MatrixLike:
    """Symmetric normalised Laplacian ``I - D^{-1/2} W D^{-1/2}``."""
    if isinstance(weights, CSRMatrix):
        return normalized_laplacian_csr(weights, eps=eps)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError("weights must be a square matrix")
    degrees = weights.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, eps))
    inv_sqrt[degrees <= 0] = 0.0
    normalized = weights * inv_sqrt[:, None] * inv_sqrt[None, :]
    return np.eye(weights.shape[0]) - normalized


def gcn_normalization(adjacency: MatrixLike, mode: str = "symmetric") -> MatrixLike:
    """GCN propagation matrix ``Â`` with self-loops.

    ``mode="symmetric"`` gives ``D̃^{-1/2}(A+I)D̃^{-1/2}`` (Kipf & Welling);
    ``mode="left"`` gives ``D̃^{-1}(A+I)``, the variant used in the paper's
    embedding-space risk model (Section VI-B2).
    """
    if isinstance(adjacency, CSRMatrix):
        if mode == "symmetric":
            return gcn_norm_csr(adjacency)
        if mode == "left":
            return left_norm_csr(adjacency)
        raise ValueError(f"unknown normalisation mode {mode!r}")
    adjacency = check_adjacency(adjacency)
    with_loops = adjacency + np.eye(adjacency.shape[0])
    degrees = with_loops.sum(axis=1)
    if mode == "symmetric":
        inv_sqrt = 1.0 / np.sqrt(degrees)
        return with_loops * inv_sqrt[:, None] * inv_sqrt[None, :]
    if mode == "left":
        return with_loops / degrees[:, None]
    raise ValueError(f"unknown normalisation mode {mode!r}")
