"""Graph convolution layers.

Each layer operates on a dense node-representation tensor ``(N, F)`` and a
graph *propagation operator* derived from the adjacency matrix.  An operator
is anything exposing ``matmul(tensor) -> Tensor`` for a fixed constant
matrix: a plain :class:`~repro.nn.tensor.Tensor`, or a CSR
:class:`~repro.sparse.backend.SparseOperator`.  No
gradient flows through the graph structure, which matches the victim models
of the paper: structure enters only through the fixed propagation matrices.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.nn import functional as F
from repro.nn import init as init_schemes
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, concatenate
from repro.sparse.backend import SparseOperator
from repro.utils.rng import RandomState, ensure_rng

Propagation = Union[Tensor, SparseOperator]
"""Anything applying a fixed graph operator via ``.matmul(tensor)``."""


class GCNConv(Module):
    """Graph convolution of Kipf & Welling: ``σ(Â X W)``.

    The propagation operator ``Â`` (symmetric-normalised adjacency with
    self-loops) is supplied at call time so the same layer
    can be used on the original and on a perturbed graph, as PPFR's
    fine-tuning phase requires.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: RandomState = None,
    ) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init_schemes.glorot_uniform((in_features, out_features), rng=generator),
            name="weight",
        )
        self.bias: Optional[Parameter]
        if bias:
            self.bias = Parameter(init_schemes.zeros((out_features,)), name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor, propagation: Propagation) -> Tensor:
        support = x.matmul(self.weight)
        out = propagation.matmul(support)
        if self.bias is not None:
            out = out + self.bias
        return out

    def plan_kernels(self, recorder, kind: str = "gcn") -> None:
        """Record the eval forward: transform, propagate, bias — in order."""
        recorder.matmul(self.weight)
        recorder.propagate(kind)
        recorder.bias(self.bias)


class GATConv(Module):
    """Multi-head graph attention layer (Velickovic et al., 2018).

    Attention coefficients are computed densely and masked to the 1-hop
    neighbourhood (plus self), which is exact and efficient at the surrogate
    graph sizes used in this reproduction.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        heads: int = 2,
        concat_heads: bool = True,
        negative_slope: float = 0.2,
        rng: RandomState = None,
    ) -> None:
        super().__init__()
        if heads <= 0:
            raise ValueError("heads must be positive")
        generator = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.heads = heads
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        for head in range(heads):
            self.register_parameter(
                f"weight_{head}",
                Parameter(
                    init_schemes.glorot_uniform((in_features, out_features), rng=generator)
                ),
            )
            self.register_parameter(
                f"att_src_{head}",
                Parameter(init_schemes.glorot_uniform((out_features, 1), rng=generator)),
            )
            self.register_parameter(
                f"att_dst_{head}",
                Parameter(init_schemes.glorot_uniform((out_features, 1), rng=generator)),
            )

    def _head_forward(self, x: Tensor, mask: np.ndarray, head: int) -> Tensor:
        weight = getattr(self, f"weight_{head}")
        att_src = getattr(self, f"att_src_{head}")
        att_dst = getattr(self, f"att_dst_{head}")
        transformed = x.matmul(weight)  # (N, F')
        source_scores = transformed.matmul(att_src)  # (N, 1)
        target_scores = transformed.matmul(att_dst)  # (N, 1)
        scores = source_scores + target_scores.T  # (N, N) via broadcasting
        scores = F.leaky_relu(scores, self.negative_slope)
        scores = scores.masked_fill(mask, -1e9)
        attention = scores.softmax(axis=1)
        return attention.matmul(transformed)

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """``mask`` marks positions that are *not* edges (and not self-loops)."""
        outputs = [self._head_forward(x, mask, head) for head in range(self.heads)]
        if self.concat_heads:
            return concatenate(outputs, axis=1)
        total = outputs[0]
        for other in outputs[1:]:
            total = total + other
        return total * (1.0 / self.heads)


class SAGEConv(Module):
    """GraphSAGE layer with mean aggregation.

    ``h_i = W_self x_i + W_neigh mean_{j∈N(i)} x_j``.  The neighbourhood-mean
    operator is supplied at call time (possibly subsampled — GraphSAGE's
    neighbour sampling is the reason edge DP is less effective on it, an
    effect the paper highlights in Table IV).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: RandomState = None,
    ) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight_self = Parameter(
            init_schemes.glorot_uniform((in_features, out_features), rng=generator)
        )
        self.weight_neighbor = Parameter(
            init_schemes.glorot_uniform((in_features, out_features), rng=generator)
        )
        self.bias: Optional[Parameter]
        if bias:
            self.bias = Parameter(init_schemes.zeros((out_features,)), name="bias")
        else:
            self.bias = None

    def forward(
        self,
        x: Tensor,
        neighbor_mean: Propagation,
        x_dst: Optional[Tensor] = None,
    ) -> Tensor:
        """Apply the layer; ``x_dst`` supplies the self-term input when the
        aggregation is a rectangular mini-batch block (destination rows are a
        strict subset of the source rows ``x``).  Full-batch callers leave it
        ``None`` and the self term uses ``x`` itself.
        """
        aggregated = neighbor_mean.matmul(x)
        return self.combine(x if x_dst is None else x_dst, aggregated)

    def combine(self, self_input: Tensor, aggregated: Tensor) -> Tensor:
        """The layer's transform of its self input and an already computed
        neighbourhood mean (``neighbor_mean.matmul(x)``)."""
        out = self_input.matmul(self.weight_self) + aggregated.matmul(self.weight_neighbor)
        if self.bias is not None:
            out = out + self.bias
        return out

    def plan_kernels(self, recorder, kind: str = "mean_noself") -> None:
        """Record the fused self+neighbour transform as one SAGE kernel."""
        recorder.sage(self.weight_self, self.weight_neighbor, self.bias, kind)
