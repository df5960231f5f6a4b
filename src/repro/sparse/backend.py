"""Graph propagation operators on CSR.

The GNN layers consume *propagation operators* — objects exposing
``matmul(tensor) -> Tensor`` for a fixed graph operator (GCN symmetric
normalisation, left normalisation, neighbourhood mean).  Every operator is a
:class:`~repro.sparse.csr.CSRMatrix` applied with the tape-integrated
:func:`~repro.sparse.autodiff.spmm`: one code path, O(m) storage, and
results that do not depend on the BLAS thread count.

:func:`use_backend` survives as a scope that accepts only ``"sparse"``, so
callers written against the former backend selector keep working.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.nn.tensor import Tensor
from repro.sparse import ops
from repro.sparse.autodiff import spmm
from repro.sparse.csr import CSRMatrix

__all__ = [
    "SparseOperator",
    "use_backend",
    "build_propagation",
]

AdjacencyLike = Union[np.ndarray, CSRMatrix]

PROPAGATION_KINDS = ("gcn", "left", "mean", "mean_noself")
"""Operator kinds: GCN symmetric / left normalisation, SAGE means."""


class SparseOperator:
    """A CSR propagation matrix applied with the sparse-aware ``spmm``."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: CSRMatrix) -> None:
        if not isinstance(matrix, CSRMatrix):
            raise TypeError("SparseOperator wraps a CSRMatrix")
        self.matrix = matrix

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    def matmul(self, x: Union[Tensor, np.ndarray]) -> Tensor:
        return spmm(self.matrix, x)

    def to_array(self) -> np.ndarray:
        """Dense view of the operator (reference / debugging)."""
        return self.matrix.to_dense()

    def memory_bytes(self) -> int:
        return self.matrix.memory_bytes()


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Scope kept for callers of the former backend selector.

    CSR is the only propagation path, so ``"sparse"`` and ``None`` are
    no-ops and any other name raises :class:`ValueError`.
    """
    if name is not None and name.lower() != "sparse":
        raise ValueError(f"unknown backend {name!r}; propagation runs on CSR only ('sparse')")
    yield


def _operator_matrix(csr: CSRMatrix, kind: str) -> CSRMatrix:
    if kind == "gcn":
        return ops.gcn_norm_csr(csr)
    if kind == "left":
        return ops.left_norm_csr(csr)
    if kind == "mean":
        return ops.mean_aggregation_csr(csr, include_self=True)
    if kind == "mean_noself":
        return ops.mean_aggregation_csr(csr, include_self=False)
    raise ValueError(
        f"unknown propagation kind {kind!r}; expected one of {PROPAGATION_KINDS}"
    )


def build_propagation(adjacency: AdjacencyLike, kind: str = "gcn") -> SparseOperator:
    """Build the CSR propagation operator ``kind`` for ``adjacency``.

    This is the single entry point the GNN models use; ``kind`` is one of
    :data:`PROPAGATION_KINDS` and a dense ``adjacency`` is converted to CSR
    first.  When an operator cache is active (:mod:`repro.sparse.opcache`)
    and ``adjacency`` carries a revision tag, the operator is memoised under
    ``(revision, kind)`` — repeated forwards over an unchanged structure
    (every training epoch, every PPFR fine-tune step) reuse it instead of
    renormalising.  Untagged arrays are built fresh every time.
    """
    from repro.sparse.opcache import cached_build

    def build() -> SparseOperator:
        csr = adjacency if isinstance(adjacency, CSRMatrix) else CSRMatrix.from_dense(adjacency)
        return SparseOperator(_operator_matrix(csr, kind))

    return cached_build((adjacency,), (kind,), build)
