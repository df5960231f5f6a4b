"""Pluggable dense/sparse compute backends for graph propagation.

The GNN layers consume *propagation operators* — objects exposing
``matmul(tensor) -> Tensor`` for a fixed graph operator (GCN symmetric
normalisation, left normalisation, neighbourhood mean).  This module defines
the two built-in backends that produce them:

* ``dense``  — the original behaviour: a dense ``(N, N)`` NumPy operator
  applied with the tape's dense ``matmul``;
* ``sparse`` — a :class:`~repro.sparse.csr.CSRMatrix` operator applied with
  the tape-integrated :func:`~repro.sparse.autodiff.spmm`.

Backend selection is dynamically scoped through a :class:`contextvars.ContextVar`
(safe under future parallel runners, mirroring the autodiff mode flag) and
defaults to ``"auto"``: an nnz-density heuristic that keeps small or dense
graphs on the exact dense path and switches large sparse graphs to CSR.
New backends (e.g. a future GPU or blocked backend) register through
:func:`register_backend` — the dispatch idiom follows drjit-style backend
registries.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.nn.tensor import Tensor
from repro.sparse import ops
from repro.sparse.autodiff import spmm
from repro.sparse.csr import CSRMatrix

__all__ = [
    "AUTO_MIN_NODES",
    "AUTO_MAX_DENSITY",
    "DenseOperator",
    "SparseOperator",
    "ComputeBackend",
    "DenseBackend",
    "SparseBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "get_backend_name",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "build_propagation",
]

AdjacencyLike = Union[np.ndarray, CSRMatrix]

AUTO_MIN_NODES = 1024
"""``auto`` keeps graphs smaller than this on the (exact) dense path."""

AUTO_MAX_DENSITY = 0.05
"""``auto`` keeps graphs denser than this on the dense path."""

PROPAGATION_KINDS = ("gcn", "left", "mean", "mean_noself")
"""Operator kinds a backend must support (GCN / left norm / SAGE means)."""


# ---------------------------------------------------------------------- #
# Propagation operators
# ---------------------------------------------------------------------- #
class DenseOperator:
    """A dense propagation matrix applied with the tape's dense matmul."""

    __slots__ = ("matrix",)
    backend = "dense"

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    def matmul(self, x: Union[Tensor, np.ndarray]) -> Tensor:
        return Tensor(self.matrix).matmul(x)

    def to_array(self) -> np.ndarray:
        """Dense view of the operator (reference / debugging)."""
        return self.matrix

    def memory_bytes(self) -> int:
        return self.matrix.nbytes


class SparseOperator:
    """A CSR propagation matrix applied with the sparse-aware ``spmm``."""

    __slots__ = ("matrix",)
    backend = "sparse"

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


PropagationOperator = Union[DenseOperator, SparseOperator]


# ---------------------------------------------------------------------- #
# Backends
# ---------------------------------------------------------------------- #
class ComputeBackend:
    """Interface of a compute backend: build propagation operators."""

    name: str = "abstract"

    def build_operator(self, adjacency: AdjacencyLike, kind: str):
        raise NotImplementedError  # pragma: no cover - abstract


def _as_dense(adjacency: AdjacencyLike) -> np.ndarray:
    if isinstance(adjacency, CSRMatrix):
        return adjacency.to_dense()
    return np.asarray(adjacency, dtype=np.float64)


def _as_csr(adjacency: AdjacencyLike) -> CSRMatrix:
    if isinstance(adjacency, CSRMatrix):
        return adjacency
    return CSRMatrix.from_dense(adjacency)


class DenseBackend(ComputeBackend):
    """The original dense compute path (exact reference)."""

    name = "dense"

    def build_operator(self, adjacency: AdjacencyLike, kind: str) -> DenseOperator:
        # Imported lazily: the dense kernels live next to their consumers and
        # themselves import repro.sparse for type dispatch.
        from repro.graphs.laplacian import gcn_normalization
        from repro.gnn.normalization import mean_aggregation_matrix

        dense = _as_dense(adjacency)
        if kind == "gcn":
            return DenseOperator(gcn_normalization(dense, mode="symmetric"))
        if kind == "left":
            return DenseOperator(gcn_normalization(dense, mode="left"))
        if kind == "mean":
            return DenseOperator(mean_aggregation_matrix(dense, include_self=True))
        if kind == "mean_noself":
            return DenseOperator(mean_aggregation_matrix(dense, include_self=False))
        raise ValueError(
            f"unknown propagation kind {kind!r}; expected one of {PROPAGATION_KINDS}"
        )


class SparseBackend(ComputeBackend):
    """CSR compute path — O(m) storage, spmm forward/backward."""

    name = "sparse"

    def build_operator(self, adjacency: AdjacencyLike, kind: str) -> SparseOperator:
        csr = _as_csr(adjacency)
        if kind == "gcn":
            return SparseOperator(ops.gcn_norm_csr(csr))
        if kind == "left":
            return SparseOperator(ops.left_norm_csr(csr))
        if kind == "mean":
            return SparseOperator(ops.mean_aggregation_csr(csr, include_self=True))
        if kind == "mean_noself":
            return SparseOperator(ops.mean_aggregation_csr(csr, include_self=False))
        raise ValueError(
            f"unknown propagation kind {kind!r}; expected one of {PROPAGATION_KINDS}"
        )


# ---------------------------------------------------------------------- #
# Registry and dynamic selection
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, ComputeBackend] = {}

_ACTIVE_BACKEND: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_compute_backend", default="auto"
)


def register_backend(name: str, backend: ComputeBackend, overwrite: bool = False) -> None:
    """Register a compute backend under ``name``."""
    key = name.lower()
    if key == "auto":
        raise ValueError("'auto' is reserved for the selection heuristic")
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[key] = backend


def get_backend(name: str) -> ComputeBackend:
    """Look up a registered backend by name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends (excluding the ``auto`` selector)."""
    return tuple(sorted(_REGISTRY))


def get_backend_name() -> str:
    """The currently selected backend name (``"auto"`` by default)."""
    return _ACTIVE_BACKEND.get()


def _check_selectable(name: str) -> str:
    key = name.lower()
    if key != "auto" and key not in _REGISTRY:
        raise KeyError(
            f"unknown backend {name!r}; available: auto, {', '.join(sorted(_REGISTRY))}"
        )
    return key


def set_backend(name: str) -> None:
    """Select the compute backend for the current context (``"auto"`` allowed)."""
    _ACTIVE_BACKEND.set(_check_selectable(name))


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Context manager scoping a backend selection; ``None`` is a no-op."""
    if name is None:
        yield
        return
    token = _ACTIVE_BACKEND.set(_check_selectable(name))
    try:
        yield
    finally:
        _ACTIVE_BACKEND.reset(token)


def _auto_choice(adjacency: AdjacencyLike, nnz: Optional[int]) -> str:
    if isinstance(adjacency, CSRMatrix):
        # Already sparse: densifying would defeat the caller's intent.
        return "sparse"
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    if n < AUTO_MIN_NODES:
        return "dense"
    cells = adjacency.size
    if nnz is None:
        nnz = np.count_nonzero(adjacency)
    density = nnz / cells if cells else 0.0
    return "sparse" if density <= AUTO_MAX_DENSITY else "dense"


def resolve_backend(
    adjacency: AdjacencyLike, name: Optional[str] = None, nnz: Optional[int] = None
) -> ComputeBackend:
    """Resolve the backend for ``adjacency``.

    ``name`` overrides the context selection; ``"auto"`` (the default
    selection) applies the nnz-density heuristic: CSR inputs and large
    low-density graphs go sparse, everything else stays on the exact dense
    path.  ``nnz`` replaces the non-zero count of a dense ``adjacency``: it
    resolves a same-shaped structure derived from ``adjacency`` (such as a
    neighbour sample) without materialising it densely.
    """
    key = _check_selectable(name) if name is not None else _ACTIVE_BACKEND.get()
    if key == "auto":
        key = _auto_choice(adjacency, nnz)
    return _REGISTRY[key]


def build_propagation(
    adjacency: AdjacencyLike, kind: str = "gcn", backend: Optional[str] = None
) -> PropagationOperator:
    """Build a propagation operator for ``adjacency`` via backend dispatch.

    This is the single entry point the GNN models use; ``kind`` is one of
    :data:`PROPAGATION_KINDS`.  When an operator cache is active
    (:mod:`repro.sparse.opcache`) and ``adjacency`` carries a revision tag,
    the operator is memoised under ``(revision, kind, backend)`` — repeated
    forwards over an unchanged structure (every training epoch, every PPFR
    fine-tune step) reuse it instead of renormalising.  Untagged arrays are
    built fresh every time.
    """
    from repro.sparse.opcache import cached_build

    resolved = resolve_backend(adjacency, backend)
    return cached_build(
        (adjacency,), (kind, resolved.name), lambda: resolved.build_operator(adjacency, kind)
    )


register_backend("dense", DenseBackend())
register_backend("sparse", SparseBackend())
