"""Gradients of losses and interested functions with respect to parameters.

Every gradient is returned as a flat 1-D vector aligned with
``parameters_to_vector(model.parameters())`` so the Hessian / CG machinery can
treat the model as a single parameter vector θ.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.fairness.inform import bias_tensor
from repro.gnn.models import GNNModel
from repro.graphs.graph import Graph
from repro.graphs.laplacian import laplacian
from repro.graphs.similarity import jaccard_similarity
from repro.nn.losses import cross_entropy
from repro.nn.parameters import gradients_to_vector, zero_gradients
from repro.nn.tensor import Tensor
from repro.utils.rng import RandomState, ensure_rng


def _forward_logits(model: GNNModel, graph: Graph, adjacency: Optional[np.ndarray]) -> Tensor:
    """Deterministic (eval-mode) differentiable forward pass."""
    was_training = model.training
    model.eval()  # disable dropout: influence functions are defined at θ*, not on noisy passes
    try:
        structure = graph.adjacency if adjacency is None else adjacency
        logits = model(graph.features, structure)
    finally:
        if was_training:
            model.train()
    return logits


def _collect_gradient(model: GNNModel, scalar: Tensor) -> np.ndarray:
    zero_gradients(model.parameters())
    scalar.backward()
    gradient = gradients_to_vector(model.parameters())
    zero_gradients(model.parameters())
    return gradient


def training_loss_gradient(
    model: GNNModel,
    graph: Graph,
    indices: Optional[np.ndarray] = None,
    adjacency: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of the mean training cross-entropy at the current parameters."""
    if graph.labels is None:
        raise ValueError("graph has no labels")
    indices = graph.train_indices() if indices is None else np.asarray(indices, dtype=np.int64)
    logits = _forward_logits(model, graph, adjacency)
    loss = cross_entropy(logits[indices], graph.labels[indices])
    return _collect_gradient(model, loss)


def per_node_loss_gradients(
    model: GNNModel,
    graph: Graph,
    indices: Optional[np.ndarray] = None,
    adjacency: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Gradient of each individual node's loss ``∇_θ L(ŷ_v, y_v; θ)``.

    One eval-mode forward, then one backward pass per node through it.  The
    backward pass keeps its accumulators per call, and the parameter
    gradients are cleared around each one, so every vector is bitwise the
    gradient a fresh forward for that node would give.
    """
    if graph.labels is None:
        raise ValueError("graph has no labels")
    indices = graph.train_indices() if indices is None else np.asarray(indices, dtype=np.int64)
    logits = _forward_logits(model, graph, adjacency)
    gradients: List[np.ndarray] = []
    for node in indices:
        loss = cross_entropy(logits[np.array([node])], graph.labels[np.array([node])])
        gradients.append(_collect_gradient(model, loss))
    return gradients


def function_gradient(
    model: GNNModel,
    graph: Graph,
    function: Callable[[Tensor, Graph], Tensor],
    adjacency: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient ``∇_θ f(θ)`` of any differentiable function of the logits."""
    logits = _forward_logits(model, graph, adjacency)
    value = function(logits, graph)
    return _collect_gradient(model, value)


def bias_gradient(
    model: GNNModel,
    graph: Graph,
    similarity: Optional[np.ndarray] = None,
    adjacency: Optional[np.ndarray] = None,
    normalize: bool = True,
) -> np.ndarray:
    """Gradient of the InFoRM bias ``f_bias(θ) = Tr(Yᵀ L_S Y)``."""
    sim = jaccard_similarity(graph.adjacency) if similarity is None else np.asarray(similarity)
    lap = laplacian(sim)
    scale = 1.0 / max(int(np.count_nonzero(sim)), 1) if normalize else 1.0

    def fairness_term(logits: Tensor, _graph: Graph) -> Tensor:
        return bias_tensor(logits.softmax(axis=1), lap, scale=scale)

    return function_gradient(model, graph, fairness_term, adjacency=adjacency)


def risk_gradient(
    model: GNNModel,
    graph: Graph,
    num_unconnected: Optional[int] = None,
    adjacency: Optional[np.ndarray] = None,
    rng: RandomState = 0,
    eps: float = 1e-12,
) -> np.ndarray:
    """Gradient of the normalised edge privacy risk ``f_risk(θ)``.

    ``f_risk(θ) = 2‖mean(d0) − mean(d1)‖ / (var(d0) + var(d1))`` with
    Euclidean posterior distances (the differentiable instantiation named in
    Section VI-B1 of the paper).  Unconnected pairs are subsampled to
    ``num_unconnected`` (defaults to the number of edges) for tractability.
    """
    generator = ensure_rng(rng)
    connected = graph.edge_list()
    if connected.shape[0] == 0:
        raise ValueError("graph has no edges")
    count = connected.shape[0] if num_unconnected is None else int(num_unconnected)
    unconnected = graph.non_edge_sample(count, generator)

    def risk_term(logits: Tensor, _graph: Graph) -> Tensor:
        probabilities = logits.softmax(axis=1)

        def pair_distances(pairs: np.ndarray) -> Tensor:
            left = probabilities[pairs[:, 0]]
            right = probabilities[pairs[:, 1]]
            diff = left - right
            return ((diff * diff).sum(axis=1) + eps) ** 0.5

        d1 = pair_distances(connected)
        d0 = pair_distances(unconnected)
        separation = ((d0.mean() - d1.mean()) ** 2 + eps) ** 0.5
        d0_centered = d0 - d0.mean().detach()
        d1_centered = d1 - d1.mean().detach()
        spread = (d0_centered * d0_centered).mean() + (d1_centered * d1_centered).mean()
        return separation * 2.0 / (spread + eps)

    return function_gradient(model, graph, risk_term, adjacency=adjacency)
