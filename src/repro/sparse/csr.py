"""The CSR (compressed sparse row) matrix every graph operator runs on.

A small immutable container for the operations the graph pipelines need —
construction from edge lists / dense arrays / COO triplets, transposition,
row/column scaling, self-loop insertion and CSR × dense products.  Structure
edits are vectorised NumPy; the CSR × dense product runs SciPy's compiled
CSR kernel over the same arrays, so the container scales to millions of
non-zeros on a single core.

Internally a matrix is the classic triplet of arrays:

* ``indptr``  — ``(rows + 1,)`` int64 row pointers,
* ``indices`` — ``(nnz,)`` int64 column indices, sorted within each row,
* ``data``    — ``(nnz,)`` float64 values.

Instances are immutable by convention: every operation returns a new
:class:`CSRMatrix` (or a fresh dense array) and never mutates its inputs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.sparse import csr_array

from repro.obs.profile import active_profiler
from repro.obs.trace import kernel

__all__ = ["CSRMatrix", "gather_row_positions"]


def gather_row_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Flat positions (into ``indices``/``data``) of the given rows' slices.

    The single implementation of the starts/counts flat-gather arithmetic
    behind every frontier expansion: :meth:`CSRMatrix.slice_rows`, the BFS
    and the mini-batch sampler (re-exported as
    :func:`repro.sparse.ops.gather_neighbor_positions`).  Duplicate rows are
    allowed and repeat their slice.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)


def _coo_to_csr(
    rows: np.ndarray,
    cols: np.ndarray,
    data: np.ndarray,
    shape: Tuple[int, int],
    sum_duplicates: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort COO triplets into CSR arrays, summing duplicate coordinates."""
    num_rows, num_cols = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    if not (rows.shape == cols.shape == data.shape) or rows.ndim != 1:
        raise ValueError("rows, cols and data must be 1-D arrays of equal length")
    if rows.size:
        if rows.min() < 0 or rows.max() >= num_rows:
            raise ValueError("row index out of bounds")
        if cols.min() < 0 or cols.max() >= num_cols:
            raise ValueError("column index out of bounds")
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    if sum_duplicates and rows.size:
        first = np.concatenate(([True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])))
        segment = np.cumsum(first) - 1
        rows = rows[first]
        cols = cols[first]
        data = np.bincount(segment, weights=data)
    counts = np.bincount(rows, minlength=num_rows)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols.astype(np.int64, copy=False), data.astype(np.float64, copy=False)


class CSRMatrix:
    """An immutable CSR sparse matrix over ``float64`` values."""

    # __weakref__ keeps instances weak-referenceable (the graph revision
    # registry tracks tagged adjacencies without extending their lifetime).
    __slots__ = ("indptr", "indices", "data", "shape", "_transpose_cache", "__weakref__")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._transpose_cache: Optional["CSRMatrix"] = None
        if self.indptr.shape != (self.shape[0] + 1,):
            raise ValueError("indptr must have shape (rows + 1,)")
        if self.indices.shape != self.data.shape or self.indices.ndim != 1:
            raise ValueError("indices and data must be 1-D arrays of equal length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise ValueError("column index out of bounds")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_parts(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> "CSRMatrix":
        """Wrap already-valid CSR arrays without the O(n + nnz) checks.

        Internal fast path for kernels that construct the arrays themselves
        (block packing, plan replay): the caller guarantees the invariants the
        public constructor would re-verify.  The arrays are adopted as-is.
        """
        matrix = object.__new__(cls)
        matrix.indptr = indptr
        matrix.indices = indices
        matrix.data = data
        matrix.shape = (int(shape[0]), int(shape[1]))
        matrix._transpose_cache = None
        return matrix

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> "CSRMatrix":
        """Build from COO triplets; duplicate coordinates are summed."""
        indptr, indices, values = _coo_to_csr(rows, cols, data, shape)
        return cls(indptr, indices, values, shape)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CSRMatrix":
        """Build from a dense 2-D array, keeping only non-zero entries."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("array must be 2-dimensional")
        rows, cols = np.nonzero(array)
        return cls.from_coo(rows, cols, array[rows, cols], array.shape)

    @classmethod
    def from_edges(
        cls,
        edges: np.ndarray,
        num_nodes: int,
        weights: Optional[np.ndarray] = None,
        symmetric: bool = True,
    ) -> "CSRMatrix":
        """Build an adjacency matrix from an ``(E, 2)`` edge array.

        With ``symmetric=True`` (the default, matching the undirected graphs
        used throughout the library) each edge contributes both ``(i, j)``
        and ``(j, i)``.  Duplicate edges are summed; pass each undirected
        edge once.  Self-loops are rejected because :class:`repro.graphs.Graph`
        forbids them.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (E, 2)")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("edge list contains self-loops")
        if weights is None:
            values = np.ones(edges.shape[0], dtype=np.float64)
        else:
            values = np.asarray(weights, dtype=np.float64)
            if values.shape != (edges.shape[0],):
                raise ValueError("weights must have shape (E,)")
        rows, cols = edges[:, 0], edges[:, 1]
        if symmetric:
            rows = np.concatenate([rows, cols])
            cols = np.concatenate([cols, edges[:, 0]])
            values = np.concatenate([values, values])
        return cls.from_coo(rows, cols, values, (num_nodes, num_nodes))

    @classmethod
    def identity(cls, n: int, value: float = 1.0) -> "CSRMatrix":
        """The ``n × n`` identity scaled by ``value``."""
        idx = np.arange(n, dtype=np.int64)
        return cls(
            np.arange(n + 1, dtype=np.int64),
            idx,
            np.full(n, float(value)),
            (n, n),
        )

    # ------------------------------------------------------------------ #
    # Basic properties / conversions
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    def density(self) -> float:
        """Fraction of stored entries, ``nnz / (rows · cols)``."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def memory_bytes(self) -> int:
        """Bytes held by the three CSR arrays (for benchmark reporting)."""
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense ``float64`` array."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = self.row_indices()
        # duplicate coordinates cannot occur (construction sums them)
        out[rows, self.indices] = self.data
        return out

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, data)`` COO triplets in row-major order."""
        return self.row_indices(), self.indices.copy(), self.data.copy()

    def row_indices(self) -> np.ndarray:
        """The row index of every stored entry (the COO expansion of indptr)."""
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )

    def row_sums(self) -> np.ndarray:
        """Per-row sum of stored values (node degrees for 0/1 adjacency)."""
        out = np.zeros(self.shape[0], dtype=np.float64)
        counts = np.diff(self.indptr)
        nonempty = np.flatnonzero(counts)
        if nonempty.size:
            out[nonempty] = np.add.reduceat(self.data, self.indptr[nonempty])
        return out

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector."""
        n = min(self.shape)
        out = np.zeros(n, dtype=np.float64)
        rows = self.row_indices()
        on_diag = (rows == self.indices) & (rows < n)
        out[rows[on_diag]] = self.data[on_diag]
        return out

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

    # ------------------------------------------------------------------ #
    # Structure transformations
    # ------------------------------------------------------------------ #
    def transpose(self) -> "CSRMatrix":
        """Return the transpose (cached — CSR graphs are reused across passes)."""
        if self._transpose_cache is None:
            rows, cols, data = self.to_coo()
            transposed = CSRMatrix.from_coo(
                cols, rows, data, (self.shape[1], self.shape[0])
            )
            self._transpose_cache = transposed
            if transposed.shape == self.shape:
                transposed._transpose_cache = self
        return self._transpose_cache

    @property
    def T(self) -> "CSRMatrix":
        return self.transpose()

    def slice_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Gather ``rows`` (in the given order) into a ``(len(rows), C)`` matrix.

        Each output row is the full adjacency list of the corresponding
        input row, with column indices unchanged (still global).  Duplicate
        row ids are allowed and simply repeat the row.  Cost is O(output
        nnz).
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("rows must be a 1-D index array")
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise ValueError("row index out of bounds")
        counts = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        flat = gather_row_positions(self.indptr, rows)
        return CSRMatrix(
            indptr, self.indices[flat], self.data[flat], (rows.size, self.shape[1])
        )

    def scale_rows(self, factors: np.ndarray) -> "CSRMatrix":
        """Return ``diag(factors) @ self``."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.shape[0],):
            raise ValueError("factors must have one entry per row")
        data = self.data * np.repeat(factors, np.diff(self.indptr))
        return CSRMatrix(self.indptr.copy(), self.indices.copy(), data, self.shape)

    def scale_cols(self, factors: np.ndarray) -> "CSRMatrix":
        """Return ``self @ diag(factors)``."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.shape[1],):
            raise ValueError("factors must have one entry per column")
        data = self.data * factors[self.indices]
        return CSRMatrix(self.indptr.copy(), self.indices.copy(), data, self.shape)

    def scale(self, factor: float) -> "CSRMatrix":
        """Return ``factor * self``."""
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data * float(factor), self.shape
        )

    def add_identity(self, value: float = 1.0) -> "CSRMatrix":
        """Return ``self + value · I`` (used for GCN self-loops)."""
        if self.shape[0] != self.shape[1]:
            raise ValueError("add_identity requires a square matrix")
        n = self.shape[0]
        rows, cols, data = self.to_coo()
        diag = np.arange(n, dtype=np.int64)
        return CSRMatrix.from_coo(
            np.concatenate([rows, diag]),
            np.concatenate([cols, diag]),
            np.concatenate([data, np.full(n, float(value))]),
            self.shape,
        )

    def __add__(self, other: "CSRMatrix") -> "CSRMatrix":
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError("shape mismatch in CSR addition")
        rows_a, cols_a, data_a = self.to_coo()
        rows_b, cols_b, data_b = other.to_coo()
        return CSRMatrix.from_coo(
            np.concatenate([rows_a, rows_b]),
            np.concatenate([cols_a, cols_b]),
            np.concatenate([data_a, data_b]),
            self.shape,
        )

    # ------------------------------------------------------------------ #
    # Products
    # ------------------------------------------------------------------ #
    def matmul_dense(self, other: np.ndarray) -> np.ndarray:
        """CSR × dense product, ``(R, C) @ (C, F) -> (R, F)`` or matvec.

        One pass of SciPy's compiled CSR kernel; wrapping the triplet shares
        the arrays without copying them.
        """
        other = np.asarray(other, dtype=np.float64)
        if other.ndim not in (1, 2):
            raise ValueError("operand must be 1- or 2-dimensional")
        if other.shape[0] != self.shape[1]:
            raise ValueError(
                f"shape mismatch: {self.shape} @ {other.shape}"
            )
        operator = csr_array(
            (self.data, self.indices, self.indptr), shape=self.shape
        )
        profiler = active_profiler()
        if profiler is None:
            return operator @ other
        name = "spmv" if other.ndim == 1 else "spmm"
        with kernel(name, profiler, (self, other)) as event:
            out = event.out = operator @ other
        return out

    def __matmul__(self, other) -> np.ndarray:
        if isinstance(other, CSRMatrix):
            raise TypeError(
                "CSR × CSR products are not supported; densify one operand "
                "or compose the operators"
            )
        return self.matmul_dense(other)

    def allclose(self, array: np.ndarray, atol: float = 1e-12) -> bool:
        """Convenience: compare against a dense reference."""
        return bool(np.allclose(self.to_dense(), array, atol=atol))
