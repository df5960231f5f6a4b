"""Per-node influence scores on utility, bias and privacy risk.

``I_f(w_v) = −∇_θ f(θ*)ᵀ H⁻¹ ∇_θ L(v; θ*)`` is the first-order change of the
interested function ``f`` when node ``v`` is removed from training
(Eq. 10–12 of the paper with ``w_v = −1``).  The estimator computes, once per
interested function, the vector ``s_f = H⁻¹ ∇_θ f`` and then takes inner
products with the per-node loss gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.gnn.models import GNNModel
from repro.graphs.graph import Graph
from repro.influence.gradients import (
    bias_gradient,
    per_node_loss_gradients,
    risk_gradient,
    training_loss_gradient,
)
from repro.influence.hessian import (
    conjugate_gradient_solve,
    hessian_vector_product,
    make_loss_gradient_function,
)
from repro.nn.parameters import parameters_to_vector
from repro.utils.rng import RandomState


@dataclass
class InfluenceConfig:
    """Hyper-parameters of the influence estimation."""

    damping: float = 0.1
    cg_iterations: int = 30
    hvp_eps: float = 1e-4
    num_unconnected_pairs: Optional[int] = None
    risk_seed: RandomState = 0

    def __post_init__(self) -> None:
        if self.damping < 0:
            raise ValueError("damping must be non-negative")
        if self.cg_iterations <= 0:
            raise ValueError("cg_iterations must be positive")


@dataclass
class InfluenceScores:
    """Per-training-node influence values, aligned with ``train_indices``."""

    train_indices: np.ndarray
    utility: np.ndarray
    bias: np.ndarray
    risk: np.ndarray


class InfluenceEstimator:
    """Computes influence of training nodes on utility / bias / risk.

    Parameters
    ----------
    model:
        A *trained* victim model (the estimator evaluates everything at the
        current parameters θ*).
    graph:
        The training graph.
    config:
        Numerical settings (CG damping and iterations, HVP step size).
    adjacency:
        Optional structure override if the model was trained on a perturbed
        graph.
    """

    def __init__(
        self,
        model: GNNModel,
        graph: Graph,
        config: Optional[InfluenceConfig] = None,
        adjacency: Optional[np.ndarray] = None,
    ) -> None:
        if graph.labels is None or graph.train_mask is None:
            raise ValueError("influence estimation requires labels and a train mask")
        self.model = model
        self.graph = graph
        self.config = config or InfluenceConfig()
        self.adjacency = adjacency
        self._train_indices = graph.train_indices()
        self._node_gradients: Optional[List[np.ndarray]] = None
        self._gradient_function = make_loss_gradient_function(
            model, graph, adjacency=adjacency
        )
        self._theta = parameters_to_vector(model.parameters())

    # ------------------------------------------------------------------ #
    # Cached building blocks
    # ------------------------------------------------------------------ #
    @property
    def train_indices(self) -> np.ndarray:
        return self._train_indices

    def node_loss_gradients(self) -> List[np.ndarray]:
        """Per-node loss gradients ``∇_θ L(v; θ*)`` (cached)."""
        if self._node_gradients is None:
            self._node_gradients = per_node_loss_gradients(
                self.model, self.graph, indices=self._train_indices, adjacency=self.adjacency
            )
        return self._node_gradients

    def _inverse_hvp(self, vector: np.ndarray) -> np.ndarray:
        def hvp(v: np.ndarray) -> np.ndarray:
            return hessian_vector_product(
                self._gradient_function, self._theta, v, eps=self.config.hvp_eps
            )

        return conjugate_gradient_solve(
            hvp,
            vector,
            damping=self.config.damping,
            max_iterations=self.config.cg_iterations,
        )

    # ------------------------------------------------------------------ #
    # Influence computation
    # ------------------------------------------------------------------ #
    def influence_on_function(self, function_gradient: np.ndarray) -> np.ndarray:
        """``I_f(w_v)`` for every training node given ``∇_θ f(θ*)``."""
        stilde = self._inverse_hvp(np.asarray(function_gradient, dtype=np.float64))
        node_gradients = self.node_loss_gradients()
        return np.array([-float(stilde @ grad) for grad in node_gradients])

    def utility_influence(self) -> np.ndarray:
        """``I_futil(w_v)``: effect of removing each node on the training loss."""
        gradient = training_loss_gradient(
            self.model, self.graph, indices=self._train_indices, adjacency=self.adjacency
        )
        return self.influence_on_function(gradient)

    def bias_influence(self, similarity: Optional[np.ndarray] = None) -> np.ndarray:
        """``I_fbias(w_v)``: effect of removing each node on the InFoRM bias."""
        gradient = bias_gradient(
            self.model, self.graph, similarity=similarity, adjacency=self.adjacency
        )
        return self.influence_on_function(gradient)

    def risk_influence(self) -> np.ndarray:
        """``I_frisk(w_v)``: effect of removing each node on the edge privacy risk."""
        gradient = risk_gradient(
            self.model,
            self.graph,
            num_unconnected=self.config.num_unconnected_pairs,
            adjacency=self.adjacency,
            rng=self.config.risk_seed,
        )
        return self.influence_on_function(gradient)

    def compute_all(self, similarity: Optional[np.ndarray] = None) -> InfluenceScores:
        """Convenience wrapper returning utility, bias and risk influences."""
        return InfluenceScores(
            train_indices=self._train_indices.copy(),
            utility=self.utility_influence(),
            bias=self.bias_influence(similarity=similarity),
            risk=self.risk_influence(),
        )
