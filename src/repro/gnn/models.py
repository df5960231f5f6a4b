"""Victim GNN models: GCN, GAT and GraphSAGE.

All models expose the same interface used by the trainer, the attacks and
the influence-function machinery:

``forward(features, adjacency) -> logits`` where ``features`` is an
``(N, F)`` array/tensor, ``adjacency`` an ``(N, N)`` adjacency matrix —
dense or :class:`repro.sparse.CSRMatrix` — and ``logits`` an ``(N, C)``
tensor.  Model outputs for the attacks and fairness metrics are the softmax
probabilities of those logits.

GCN and GraphSAGE build their propagation operators through
:func:`repro.gnn.normalization.build_propagation`, so message passing is a
CSR ``spmm``.  GAT's all-pairs attention is inherently dense and always
takes the dense path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.gnn.layers import GATConv, GCNConv, SAGEConv
from repro.gnn.normalization import attention_mask, build_propagation
from repro.nn import functional as F
from repro.nn.module import Dropout, Module
from repro.nn.tensor import Tensor
from repro.sparse.backend import SparseOperator
from repro.sparse.csr import CSRMatrix
from repro.sparse.opcache import cached_build
from repro.utils.rng import RandomState, ensure_rng, spawn_children

ArrayOrTensor = Union[np.ndarray, Tensor]
AdjacencyLike = Union[np.ndarray, CSRMatrix]


def _as_tensor(value: ArrayOrTensor) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _frozen(tensor: Tensor) -> Tensor:
    """Mark ``tensor``'s data read-only: cached values are shared by callers."""
    tensor.data.flags.writeable = False
    return tensor


class GNNModel(Module):
    """Common functionality shared by the three victim architectures."""

    def __init__(self) -> None:
        super().__init__()

    def forward(self, features: ArrayOrTensor, adjacency: AdjacencyLike) -> Tensor:
        raise NotImplementedError  # pragma: no cover - abstract

    @property
    def message_passing_layers(self) -> Optional[int]:
        """Number of sampled-block layers, or ``None`` when the model has no
        sampled forward path (GAT's all-pairs attention cannot be restricted
        to a bipartite block)."""
        return None

    def forward_blocks(self, features: ArrayOrTensor, blocks: Sequence) -> Tensor:
        """Mini-batch forward over sampled blocks (input layer first).

        ``blocks`` come from :class:`repro.gnn.sampling.NeighborSampler`;
        the returned logits have one row per seed node, aligned with
        ``blocks[-1].dst_nodes``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no neighbour-sampled forward path"
        )

    def record_inference_plan(self, recorder) -> None:
        """Trace the sampled eval-mode forward into ``recorder``.

        Models whose :meth:`forward_blocks` is a fixed kernel sequence
        override this (see ``repro.gnn.plan``); the default declares the
        model untraceable, which keeps it on the unfused serving path.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no flat inference-kernel decomposition"
        )

    def _inference_logits(self, forward: Callable[[], Tensor]) -> np.ndarray:
        """Run ``forward`` in eval mode off the tape, restoring train mode."""
        was_training = self.training
        self.eval()
        try:
            from repro.nn.tensor import no_grad

            with no_grad():
                logits = forward()
        finally:
            if was_training:
                self.train()
        return logits.data.copy()

    def predict_logits_blocks(self, features: ArrayOrTensor, blocks: Sequence) -> np.ndarray:
        """Inference-mode sampled-forward logits as a NumPy array."""
        return self._inference_logits(lambda: self.forward_blocks(features, blocks))

    def predict_logits(self, features: ArrayOrTensor, adjacency: AdjacencyLike) -> np.ndarray:
        """Inference-mode logits as a NumPy array."""
        return self._inference_logits(lambda: self.forward(features, adjacency))

    def predict_proba(self, features: ArrayOrTensor, adjacency: AdjacencyLike) -> np.ndarray:
        """Inference-mode softmax probabilities (what the attacker queries)."""
        logits = self.predict_logits(features, adjacency)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict_labels(self, features: ArrayOrTensor, adjacency: AdjacencyLike) -> np.ndarray:
        """Inference-mode hard label predictions."""
        return self.predict_logits(features, adjacency).argmax(axis=1)


class GCN(GNNModel):
    """Two-layer (by default) graph convolutional network."""

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        num_layers: int = 2,
        dropout: float = 0.5,
        rng: RandomState = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be at least 1")
        generator = ensure_rng(rng)
        child_rngs = spawn_children(generator, num_layers + 1)
        self.num_layers = num_layers
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        for index in range(num_layers):
            setattr(
                self,
                f"conv{index}",
                GCNConv(dims[index], dims[index + 1], rng=child_rngs[index]),
            )
        self.dropout = Dropout(dropout, rng=child_rngs[-1])

    def forward(self, features: ArrayOrTensor, adjacency: AdjacencyLike) -> Tensor:
        x = _as_tensor(features)
        propagation = build_propagation(adjacency, kind="gcn")
        for index in range(self.num_layers):
            layer: GCNConv = getattr(self, f"conv{index}")
            x = layer(x, propagation)
            if index < self.num_layers - 1:
                x = F.relu(x)
                x = self.dropout(x)
        return x

    @property
    def message_passing_layers(self) -> int:
        return self.num_layers

    def forward_blocks(self, features: ArrayOrTensor, blocks: Sequence) -> Tensor:
        if len(blocks) != self.num_layers:
            raise ValueError(
                f"expected {self.num_layers} blocks, got {len(blocks)}"
            )
        x = _as_tensor(features)[blocks[0].src_nodes]
        for index, block in enumerate(blocks):
            layer: GCNConv = getattr(self, f"conv{index}")
            x = layer(x, block.operator("gcn"))
            if index < self.num_layers - 1:
                x = F.relu(x)
                x = self.dropout(x)
        return x

    def record_inference_plan(self, recorder) -> None:
        """Mirror :meth:`forward_blocks` in eval mode, kernel by kernel."""
        for index in range(self.num_layers):
            layer: GCNConv = getattr(self, f"conv{index}")
            layer.plan_kernels(recorder, kind="gcn")
            if index < self.num_layers - 1:
                recorder.relu()
                self.dropout.plan_kernels(recorder)


class GAT(GNNModel):
    """Two-layer graph attention network."""

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        heads: int = 2,
        dropout: float = 0.5,
        rng: RandomState = None,
    ) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        rng_first, rng_second, rng_drop = spawn_children(generator, 3)
        if hidden_features % heads != 0:
            raise ValueError("hidden_features must be divisible by heads")
        per_head = hidden_features // heads
        self.conv0 = GATConv(
            in_features, per_head, heads=heads, concat_heads=True, rng=rng_first
        )
        self.conv1 = GATConv(
            hidden_features, num_classes, heads=1, concat_heads=False, rng=rng_second
        )
        self.dropout = Dropout(dropout, rng=rng_drop)

    def forward(self, features: ArrayOrTensor, adjacency: AdjacencyLike) -> Tensor:
        x = _as_tensor(features)
        if isinstance(adjacency, CSRMatrix):
            adjacency = adjacency.to_dense()
        mask = attention_mask(adjacency)
        x = self.conv0(x, mask)
        x = F.elu(x)
        x = self.dropout(x)
        return self.conv1(x, mask)


class GraphSAGE(GNNModel):
    """Two-layer GraphSAGE with mean aggregation and optional neighbour sampling.

    When ``num_samples`` is set, each training forward pass averages over a
    random subset of at most ``num_samples`` neighbours per node.  This
    reproduces the sampling behaviour that, per the paper, blunts the effect
    of edge-DP noise on GraphSAGE (only a fraction of noisy edges participate
    in any given step).
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        dropout: float = 0.5,
        num_samples: Optional[int] = 10,
        rng: RandomState = None,
    ) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        rng_first, rng_second, rng_drop, rng_sample = spawn_children(generator, 4)
        self.conv0 = SAGEConv(in_features, hidden_features, rng=rng_first)
        self.conv1 = SAGEConv(hidden_features, num_classes, rng=rng_second)
        self.dropout = Dropout(dropout, rng=rng_drop)
        self.num_samples = num_samples
        self._sample_rng = rng_sample

    def _sampled_aggregation(self, adjacency: AdjacencyLike) -> SparseOperator:
        """Neighbourhood mean over at most ``num_samples`` neighbours per node.

        Rows with more neighbours draw their subset with one ``rng.choice``
        each, in ascending node order, from the row's neighbour list (the
        CSR structure of ``adjacency``, memoised per revision for dense
        input).  The operator holds ``1/deg`` on every kept entry, ignoring
        edge weights, and is intentionally non-symmetric: each node samples
        its own incoming aggregation set.
        """
        if isinstance(adjacency, CSRMatrix):
            neighbors = adjacency
        else:
            neighbors = cached_build(
                (adjacency,), ("neighbors",), lambda: CSRMatrix.from_dense(adjacency)
            )
        indptr = neighbors.indptr
        degrees = np.diff(indptr)
        keep = np.ones(neighbors.nnz, dtype=bool)
        for node in np.flatnonzero(degrees > self.num_samples):
            start = indptr[node]
            chosen = self._sample_rng.choice(
                degrees[node], size=self.num_samples, replace=False
            )
            keep[start : indptr[node + 1]] = False
            keep[start + chosen] = True
        counts = np.minimum(degrees, self.num_samples)
        inverse = np.zeros(counts.size)
        populated = counts > 0
        inverse[populated] = 1.0 / counts[populated]
        sample_indptr = np.zeros_like(indptr)
        np.cumsum(counts, out=sample_indptr[1:])
        sample = CSRMatrix._from_parts(
            sample_indptr, neighbors.indices[keep], np.repeat(inverse, counts), neighbors.shape
        )
        return SparseOperator(sample)

    def forward(self, features: ArrayOrTensor, adjacency: AdjacencyLike) -> Tensor:
        x = _as_tensor(features)
        if self.training and self.num_samples is not None:
            aggregation = self._sampled_aggregation(adjacency)
            neighbor_mean = aggregation.matmul(x)
        else:
            aggregation = build_propagation(adjacency, kind="mean_noself")
            # Constant for a fixed structure and feature matrix: memoised
            # against both revisions (Graph tags its features).
            neighbor_mean = cached_build(
                (adjacency, features),
                ("mean_noself",),
                lambda: _frozen(aggregation.matmul(x)),
            )
        x = self.conv0.combine(x, neighbor_mean)
        x = F.relu(x)
        x = F.normalize_rows(x)
        x = self.dropout(x)
        return self.conv1(x, aggregation)

    @property
    def message_passing_layers(self) -> int:
        return 2

    def forward_blocks(self, features: ArrayOrTensor, blocks: Sequence) -> Tensor:
        """Sampled mini-batch forward.

        The block fanouts replace the model's own per-epoch ``num_samples``
        subsampling: neighbour selection already happened when the blocks
        were drawn, so the aggregation here is the mean over the block rows.
        """
        if len(blocks) != 2:
            raise ValueError(f"expected 2 blocks, got {len(blocks)}")
        x = _as_tensor(features)[blocks[0].src_nodes]
        x = self.conv0(
            x, blocks[0].operator("mean_noself"), x_dst=x[: blocks[0].num_dst]
        )
        x = F.relu(x)
        # Sampled blocks routinely produce exactly-zero post-ReLU rows, whose
        # gradient the plain normalisation cannot handle (see
        # normalize_rows_stable).
        x = F.normalize_rows_stable(x)
        x = self.dropout(x)
        return self.conv1(
            x, blocks[1].operator("mean_noself"), x_dst=x[: blocks[1].num_dst]
        )

    def record_inference_plan(self, recorder) -> None:
        """Mirror :meth:`forward_blocks` in eval mode, kernel by kernel."""
        self.conv0.plan_kernels(recorder, kind="mean_noself")
        recorder.relu()
        recorder.normalize_stable()
        self.dropout.plan_kernels(recorder)
        self.conv1.plan_kernels(recorder, kind="mean_noself")


ModelFactory = Callable[..., GNNModel]

MODEL_REGISTRY: Dict[str, ModelFactory] = {
    "gcn": GCN,
    "gat": GAT,
    "graphsage": GraphSAGE,
}


def build_model(
    name: str,
    in_features: int,
    num_classes: int,
    hidden_features: int = 16,
    rng: RandomState = None,
    **kwargs,
) -> GNNModel:
    """Construct a registered model by name.

    ``hidden_features`` defaults to 16, the hidden width used by the paper.
    Extra keyword arguments are forwarded to the model constructor.
    """
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(sorted(MODEL_REGISTRY))}"
        )
    factory = MODEL_REGISTRY[key]
    return factory(
        in_features=in_features,
        hidden_features=hidden_features,
        num_classes=num_classes,
        rng=rng,
        **kwargs,
    )
