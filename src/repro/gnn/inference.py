"""Ego-block (sampled k-hop) inference over node subsets.

Full-graph inference costs Θ(N + m) per call no matter how few nodes are
actually being asked about.  This module provides the subset counterpart the
online serving engine and the trainer's sampled evaluation share: build the
(optionally fanout-bounded) k-hop ego blocks of the requested nodes with
:class:`~repro.gnn.sampling.NeighborSampler` and run the model's
``forward_blocks`` path, so the cost is bounded by the nodes' receptive
field — ``O(|nodes| · Π fanouts)`` when sampled — instead of the graph size.

With exhaustive fanouts the result *equals* the full-graph forward restricted
to ``nodes`` (to 1e-8; asserted by the serving and
sampled-evaluation tests).  Sampled fanouts use the keyed per-destination
sampler, so a node's logits are a pure function of ``(node, fanouts, key)``
— independent of which other nodes share the request batch.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.gnn.models import GNNModel
from repro.gnn.sampling import NeighborSampler
from repro.sparse.csr import CSRMatrix

__all__ = ["resolve_fanouts", "ego_logits", "sampler_for"]

ArrayLike = Union[np.ndarray, object]


def resolve_fanouts(
    model: GNNModel, fanouts: Optional[Sequence[Optional[int]]]
) -> Tuple[Optional[int], ...]:
    """One fanout per message-passing layer (``None`` → exhaustive everywhere).

    Raises for models without a sampled forward path (GAT) — callers that
    want a fallback check ``model.message_passing_layers`` first.
    """
    layers = model.message_passing_layers
    if layers is None:
        raise ValueError(
            f"{type(model).__name__} has no neighbour-sampled forward path"
        )
    if fanouts is None:
        return (None,) * layers
    fanouts = tuple(fanouts)
    if len(fanouts) != layers:
        raise ValueError(
            f"fanouts has {len(fanouts)} entries but the model has "
            f"{layers} message-passing layers"
        )
    return fanouts


def ego_logits(
    model: GNNModel,
    features: ArrayLike,
    sampler: NeighborSampler,
    nodes: np.ndarray,
    fanouts: Optional[Sequence[Optional[int]]] = None,
    key: int = 0,
) -> np.ndarray:
    """Inference-mode logits for ``nodes`` through their (sampled) ego blocks.

    Returns an ``(len(nodes), C)`` array row-aligned with ``nodes`` (which
    must be duplicate-free).  ``fanouts=None`` is exhaustive — the exact
    receptive-field computation; per-layer integer fanouts bound the block
    sizes with the deterministic keyed sampler.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    resolved = resolve_fanouts(model, fanouts)
    blocks = sampler.ego_blocks(nodes, resolved, key=key)
    return model.predict_logits_blocks(features, blocks)


def sampler_for(structure, seed: int = 0) -> NeighborSampler:
    """A :class:`NeighborSampler` over dense or CSR adjacency structure."""
    if isinstance(structure, NeighborSampler):
        return structure
    if isinstance(structure, CSRMatrix):
        return NeighborSampler(structure, seed=seed)
    return NeighborSampler(np.asarray(structure, dtype=np.float64), seed=seed)
