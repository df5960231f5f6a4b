"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

These free functions mirror the subset of ``torch.nn.functional`` required by
the GNN layers and training loops in this repository.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky rectified linear unit (used by GAT attention scores)."""
    return x.leaky_relu(negative_slope)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    return x.elu(alpha)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return x.log_softmax(axis=axis)


def dropout(
    x: Tensor,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout.

    During evaluation (``training=False``) or with ``p == 0`` the input is
    returned unchanged.  A generator can be supplied for reproducibility.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows of ``x`` by integer ``index`` with a sparse adjoint.

    Equivalent to ``x[index]`` but validates the index range first.  The
    backward pass of the underlying ``take`` primitive is a lazy
    ``(index, values)`` pair scattered into the upstream gradient in place,
    so gathering ``k`` rows out of ``n`` costs O(k) gradient work — never a
    dense zeros-of-``x`` buffer.  This is the op behind mini-batch seed-node
    relabelling and per-row label gathers in the losses.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size and (index.min() < -x.shape[0] or index.max() >= x.shape[0]):
        raise IndexError(
            f"gather_rows index out of range for axis of size {x.shape[0]}"
        )
    return x[index]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a dense one-hot encoding of integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """L2-normalise each row of ``x`` (used by GraphSAGE)."""
    norm = (x * x).sum(axis=1, keepdims=True) ** 0.5
    return x / (norm + Tensor(eps))


def normalize_rows_stable(x: Tensor, eps: float = 1e-12) -> Tensor:
    """L2 row normalisation with a zero-row-safe backward.

    ``normalize_rows`` computes ``sqrt(Σx²)`` on the tape, whose backward is
    unbounded at an exactly-zero row (``0 ** -0.5``) and poisons every
    gradient upstream with NaN.  Zero rows are rare in full-batch training
    but routine in sampled mini-batch blocks (a node whose sampled
    aggregation lands all-negative before the ReLU), so the sampled forward
    paths use this variant: smoothing the square root by ``eps²`` keeps the
    backward finite everywhere while perturbing non-zero rows at O(eps²) —
    far below the 1e-8 equivalence tolerance.  The full-batch path keeps the
    original kernel bit-for-bit.
    """
    norm = ((x * x).sum(axis=1, keepdims=True) + Tensor(eps * eps)) ** 0.5
    return x / (norm + Tensor(eps))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias``."""
    out = x.matmul(weight)
    if bias is not None:
        out = out + bias
    return out
