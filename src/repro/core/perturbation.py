"""Privacy-aware perturbation (PP) — the data-space half of PPFR.

Guided by the theoretical analysis of Sections V and VI-B2, PP injects
*heterophilic* noisy edges: for every node it connects a number of currently
unconnected nodes whose **predicted** label differs.  This (a) shrinks the
unconnected-pair prediction distance ``d0`` and (b) reduces the class
separation ``‖μ1 − μ0‖``, both of which lower the distinguishability that
link-stealing attacks exploit — while touching far fewer edges than
randomised DP noise of comparable effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gnn.models import GNNModel
from repro.graphs.graph import Graph
from repro.graphs.revision import tag_adjacency
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class PerturbationResult:
    """Outcome of the privacy-aware perturbation step."""

    perturbed_adjacency: np.ndarray
    delta_adjacency: np.ndarray
    num_added_edges: int
    gamma: float

    @property
    def added_pairs(self) -> np.ndarray:
        """The injected undirected edges as an ``(M, 2)`` index array."""
        rows, cols = np.nonzero(np.triu(self.delta_adjacency, k=1))
        return np.stack([rows, cols], axis=1)


def privacy_aware_perturbation(
    model: GNNModel,
    graph: Graph,
    gamma: float,
    rng: RandomState = 0,
    predicted_labels: Optional[np.ndarray] = None,
) -> PerturbationResult:
    """Generate the perturbed structure ``A' = A + ΔA`` of Section VI-B2.

    Parameters
    ----------
    model:
        The vanilla-trained victim model; its predictions decide which
        candidate neighbours count as heterophilic.  (Using predictions rather
        than ground-truth labels keeps the procedure label-free outside the
        training set, exactly as in the paper.)
    graph:
        The original training graph.
    gamma:
        Perturbation ratio: node ``i`` receives ``round(γ · |N(i)|)`` new
        heterophilic edges.
    rng:
        Seed / generator for the candidate sampling.
    predicted_labels:
        Pre-computed predictions (skips the model query when provided).

    Returns
    -------
    :class:`PerturbationResult` with the perturbed adjacency, the added-edge
    indicator matrix ΔA and bookkeeping counts.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    generator = ensure_rng(rng)
    adjacency = graph.adjacency
    n = graph.num_nodes

    if predicted_labels is None:
        predicted_labels = model.predict_labels(graph.features, adjacency)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if predicted_labels.shape != (n,):
        raise ValueError("predicted_labels must have one entry per node")

    delta = np.zeros_like(adjacency)
    if gamma == 0:
        unchanged = adjacency.copy()
        tag_adjacency(unchanged, owned=True)
        return PerturbationResult(
            perturbed_adjacency=unchanged,
            delta_adjacency=delta,
            num_added_edges=0,
            gamma=gamma,
        )

    # Row i holds node i's heterophilic candidates (see heterophilic_candidates):
    # unconnected nodes predicted into another class.  When node i injects
    # edges to nodes J, entries (J, i) are cleared so no j re-adds its edge.
    pools = (adjacency == 0) & (predicted_labels[:, None] != predicted_labels[None, :])
    sources, targets = [], []
    for node, degree in enumerate(np.count_nonzero(adjacency, axis=1).tolist()):
        budget = int(round(gamma * degree))
        if budget <= 0:
            continue
        candidates = pools[node].nonzero()[0]
        if candidates.size == 0:
            continue
        # Drawing positions draws the same stream as drawing from the array.
        chosen = candidates[
            generator.choice(candidates.size, size=min(budget, candidates.size), replace=False)
        ]
        pools[chosen, node] = False
        sources.append(np.full(chosen.size, node))
        targets.append(chosen)

    # Every injected pair is distinct and joins two unconnected nodes.
    rows = np.concatenate(sources) if sources else np.empty(0, dtype=np.int64)
    cols = np.concatenate(targets) if targets else np.empty(0, dtype=np.int64)
    delta[rows, cols] = delta[cols, rows] = 1.0
    perturbed = np.clip(adjacency, 0.0, 1.0)
    perturbed[rows, cols] = perturbed[cols, rows] = 1.0
    np.fill_diagonal(perturbed, 0.0)
    # The perturbed structure is owned by this result and never mutated, so
    # PPFR's repeated fine-tune forwards can reuse its cached normalisation.
    tag_adjacency(perturbed, owned=True)
    return PerturbationResult(
        perturbed_adjacency=perturbed,
        delta_adjacency=delta,
        num_added_edges=int(rows.size),
        gamma=gamma,
    )
