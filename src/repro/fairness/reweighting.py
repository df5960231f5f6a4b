"""Fairness-aware reweighting (FR) — the weight-space half of PPFR.

Given a vanilla-trained model, FR computes per-training-node influence scores
on bias and utility, solves the QCLP of Eq. (13) for weights ``w ∈ [-1, 1]``
and returns the fine-tuning loss multipliers ``1 + w`` (Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gnn.models import GNNModel
from repro.graphs.graph import Graph
from repro.influence.functions import InfluenceConfig, InfluenceEstimator
from repro.optimization.qclp import QCLPProblem, QCLPSolution, solve_qclp


@dataclass
class FairnessReweightingConfig:
    """Hyper-parameters of fairness-aware reweighting.

    ``alpha`` and ``beta`` follow the paper's settings (α = 0.9, β = 0.1).
    """

    alpha: float = 0.9
    beta: float = 0.1
    influence: InfluenceConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.influence is None:
            self.influence = InfluenceConfig()
        if not 0 < self.alpha:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass
class FairnessWeights:
    """Output of the reweighting step."""

    train_indices: np.ndarray
    raw_weights: np.ndarray
    loss_multipliers: np.ndarray
    qclp: QCLPSolution
    bias_influence: np.ndarray
    utility_influence: np.ndarray


def compute_fairness_weights(
    model: GNNModel,
    graph: Graph,
    config: Optional[FairnessReweightingConfig] = None,
    similarity: Optional[np.ndarray] = None,
    adjacency: Optional[np.ndarray] = None,
) -> FairnessWeights:
    """Compute the fairness-aware loss weights for fine-tuning ``model``.

    Parameters
    ----------
    model:
        The vanilla-trained victim model (evaluated at its current θ*).
    graph:
        Training graph with labels and a train mask.
    config:
        QCLP and influence-estimation settings.
    similarity:
        Optional pre-computed similarity matrix (defaults to Jaccard).
    adjacency:
        Optional structure override if the model is being fine-tuned on a
        perturbed graph.

    Returns
    -------
    :class:`FairnessWeights` whose ``loss_multipliers`` (= ``1 + w``) plug
    directly into :meth:`repro.gnn.Trainer.fine_tune`.
    """
    config = config or FairnessReweightingConfig()
    estimator = InfluenceEstimator(
        model, graph, config=config.influence, adjacency=adjacency
    )
    bias_influence = estimator.bias_influence(similarity=similarity)
    utility_influence = estimator.utility_influence()

    problem = QCLPProblem(
        bias_influence=bias_influence,
        utility_influence=utility_influence,
        alpha=config.alpha,
        beta=config.beta,
    )
    solution = solve_qclp(problem)
    raw = solution.weights
    multipliers = np.clip(1.0 + raw, 0.0, 2.0)
    return FairnessWeights(
        train_indices=estimator.train_indices.copy(),
        raw_weights=raw,
        loss_multipliers=multipliers,
        qclp=solution,
        bias_influence=bias_influence,
        utility_influence=utility_influence,
    )
