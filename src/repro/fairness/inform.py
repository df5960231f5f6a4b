"""InFoRM bias metric and training regulariser (Kang et al., KDD 2020).

``Bias(Y, S) = Tr(Yᵀ L_S Y) = ½ Σ_ij S_ij ‖Y_i − Y_j‖²`` — the Laplacian
quadratic form penalising prediction differences between similar nodes.  The
paper plugs this term into the GNN loss (the ``Reg`` baseline) and uses it as
the interested function ``f_bias`` for influence computations.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.laplacian import laplacian
from repro.graphs.similarity import graph_similarity, jaccard_similarity
from repro.nn.tensor import Tensor
from repro.sparse.autodiff import spmm
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import check_positive

SimilarityLike = Union[np.ndarray, CSRMatrix]


def bias_metric(
    predictions: np.ndarray, similarity: SimilarityLike, normalize: bool = True
) -> float:
    """Individual-fairness bias ``Tr(Yᵀ L_S Y)`` of prediction matrix ``Y``.

    Parameters
    ----------
    predictions:
        ``(N, C)`` model outputs (softmax probabilities in the paper).
    similarity:
        ``(N, N)`` symmetric similarity matrix ``S`` — dense, or a
        :class:`repro.sparse.CSRMatrix` (what :func:`bias_from_graph` and the
        evaluation pipeline pass), in which case the quadratic form is
        evaluated through the CSR Laplacian in O(nnz · C) without densifying.
    normalize:
        When True the trace is divided by the number of nonzero similarity
        entries, making values comparable across graph sizes (the paper
        reports bias on this order of magnitude, e.g. 0.0766 for Cora).
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.ndim != 2:
        raise ValueError("predictions must be 2-dimensional")
    if isinstance(similarity, CSRMatrix):
        if similarity.shape != (predictions.shape[0], predictions.shape[0]):
            raise ValueError("similarity shape does not match predictions")
        lap = laplacian(similarity)
        raw = float(np.sum(predictions * lap.matmul_dense(predictions)))
        nonzero = similarity.nnz
    else:
        similarity = np.asarray(similarity, dtype=np.float64)
        if similarity.shape != (predictions.shape[0], predictions.shape[0]):
            raise ValueError("similarity shape does not match predictions")
        lap = laplacian(similarity)
        raw = float(np.trace(predictions.T @ lap @ predictions))
        nonzero = int(np.count_nonzero(similarity))
    if not normalize:
        return raw
    return raw / max(nonzero, 1)


def bias_from_graph(
    predictions: np.ndarray, graph: Graph, normalize: bool = True
) -> float:
    """Bias of ``predictions`` through the CSR Laplacian of the graph's Jaccard similarity."""
    similarity = graph_similarity(graph)
    return bias_metric(predictions, similarity, normalize=normalize)


def bias_tensor(
    probabilities: Tensor,
    laplacian_matrix: SimilarityLike,
    scale: float = 1.0,
) -> Tensor:
    """Differentiable bias ``scale · Tr(Yᵀ L_S Y)`` for use inside losses.

    Accepts the Laplacian in dense or CSR form; the CSR path applies it with
    the tape-integrated ``spmm`` so gradients flow without densification.
    """
    if isinstance(laplacian_matrix, CSRMatrix):
        quadratic = probabilities * spmm(laplacian_matrix, probabilities)
    else:
        lap = Tensor(np.asarray(laplacian_matrix, dtype=np.float64))
        quadratic = probabilities * lap.matmul(probabilities)
    return quadratic.sum() * scale


def inform_regularizer(
    similarity: Optional[SimilarityLike] = None,
    weight: float = 1.0,
    normalize: bool = True,
) -> Callable[[Tensor, Graph], Tensor]:
    """Build the InFoRM fairness regulariser used by the ``Reg`` baselines.

    Parameters
    ----------
    similarity:
        Pre-computed similarity matrix (dense or CSR).  When omitted, the
        Jaccard similarity of the training graph is computed on first use.
    weight:
        Regularisation strength λ added to the task loss.
    normalize:
        Divide the trace by the number of nonzero similarity entries so that
        λ has a comparable meaning across datasets.

    Returns
    -------
    A callable ``(logits, graph) -> Tensor`` compatible with
    :class:`repro.gnn.trainer.Trainer`.  The similarity Laplacian and the
    normalisation scale are memoised per graph revision, so the per-epoch
    cost of the penalty is one Laplacian product instead of a similarity
    rebuild.
    """
    check_positive(weight, name="weight")
    cache: dict = {}

    def _materialise(graph: Graph):
        if similarity is not None:
            sim = (
                similarity
                if isinstance(similarity, CSRMatrix)
                else np.asarray(similarity, dtype=np.float64)
            )
        else:
            sim = jaccard_similarity(graph.adjacency)
        lap = laplacian(sim)
        scale = weight
        if normalize:
            nonzero = sim.nnz if isinstance(sim, CSRMatrix) else int(np.count_nonzero(sim))
            scale = weight / max(nonzero, 1)
        return lap, scale

    def regularizer(logits: Tensor, graph: Graph) -> Tensor:
        key = (id(graph), graph.revision)
        if key not in cache:
            cache.clear()  # one graph per training run; drop stale revisions
            cache[key] = _materialise(graph)
        lap, scale = cache[key]
        probabilities = logits.softmax(axis=1)
        return bias_tensor(probabilities, lap, scale=scale)

    return regularizer
